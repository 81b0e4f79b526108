#include <gtest/gtest.h>

#include <random>

#include "ilp/linear_system.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"

namespace xicc {
namespace {

// ------------------------------------------------------------ LinearSystem.

TEST(LinearSystemTest, BuildAndRender) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(-1));
  sys.AddConstraint(expr, RelOp::kGe, BigInt(3));
  EXPECT_EQ(sys.NumVariables(), 2u);
  EXPECT_EQ(sys.NumConstraints(), 1u);
  EXPECT_NE(sys.ToString().find("2*x"), std::string::npos);
  EXPECT_EQ(sys.MaxAbsValue(), BigInt(3));
}

TEST(LinearSystemTest, ExprMergesAndDropsZeroTerms) {
  LinearExpr expr;
  expr.Add(0, BigInt(2));
  expr.Add(0, BigInt(-2));
  EXPECT_TRUE(expr.terms().empty());
  expr.Add(1, BigInt(0));
  EXPECT_TRUE(expr.terms().empty());
}

TEST(LinearSystemTest, AddEqFoldsConstants) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  LinearExpr lhs = LinearExpr::Var(x);
  lhs.AddConstant(BigInt(5));
  LinearExpr rhs(BigInt(12));
  sys.AddEq(lhs, rhs);  // x + 5 == 12  →  x == 7.
  const LinearConstraint& c = sys.constraints()[0];
  EXPECT_EQ(c.op, RelOp::kEq);
  EXPECT_EQ(c.rhs, BigInt(7));
}

// ----------------------------------------------------------------- Simplex.

TEST(SimplexTest, TrivialFeasible) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(3));
  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_TRUE(lp.feasible);
  EXPECT_GE(lp.values[x], Num(3));
}

TEST(SimplexTest, InfeasibleBounds) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(5));
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kLe, BigInt(4));
  EXPECT_FALSE(SolveLpFeasibility(sys).feasible);
}

TEST(SimplexTest, NegativityImpliedInfeasible) {
  // Nonnegative variables: x + y <= -1 has no solution.
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(1)).Add(y, BigInt(1));
  sys.AddConstraint(expr, RelOp::kLe, BigInt(-1));
  EXPECT_FALSE(SolveLpFeasibility(sys).feasible);
}

TEST(SimplexTest, EqualitySystem) {
  // x + y == 10, x - y == 4 → x = 7, y = 3.
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr sum;
  sum.Add(x, BigInt(1)).Add(y, BigInt(1));
  sys.AddConstraint(sum, RelOp::kEq, BigInt(10));
  LinearExpr diff;
  diff.Add(x, BigInt(1)).Add(y, BigInt(-1));
  sys.AddConstraint(diff, RelOp::kEq, BigInt(4));
  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.values[x], Num(7));
  EXPECT_EQ(lp.values[y], Num(3));
}

TEST(SimplexTest, FractionalVertex) {
  // 2x == 5 → x = 5/2 (rational, exact).
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  LinearExpr expr;
  expr.Add(x, BigInt(2));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(5));
  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.values[x], Num(BigInt(5), BigInt(2)));
}

TEST(SimplexTest, SolutionSatisfiesAllConstraints) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    LinearSystem sys;
    const int n = 4;
    for (int i = 0; i < n; ++i) sys.AddVariable("x" + std::to_string(i));
    std::uniform_int_distribution<int> coeff(-3, 3);
    std::uniform_int_distribution<int> rhs(0, 10);
    for (int c = 0; c < 5; ++c) {
      LinearExpr expr;
      for (int i = 0; i < n; ++i) expr.Add(i, BigInt(coeff(rng)));
      sys.AddConstraint(expr, c % 2 == 0 ? RelOp::kLe : RelOp::kGe,
                        BigInt(rhs(rng) * (c % 2 == 0 ? 1 : -1)));
    }
    LpResult lp = SolveLpFeasibility(sys);
    if (!lp.feasible) continue;
    for (const LinearConstraint& c : sys.constraints()) {
      Num lhs;
      for (const auto& [var, coef] : c.coeffs) {
        lhs += coef * lp.values[var];
      }
      const Num& bound = c.rhs;
      switch (c.op) {
        case RelOp::kLe:
          EXPECT_LE(lhs, bound);
          break;
        case RelOp::kGe:
          EXPECT_GE(lhs, bound);
          break;
        case RelOp::kEq:
          EXPECT_EQ(lhs, bound);
          break;
      }
    }
  }
}

// ------------------------------------------------------------------ Solver.

TEST(IlpTest, IntegralVertexDirect) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr sum;
  sum.Add(x, BigInt(1)).Add(y, BigInt(1));
  sys.AddConstraint(sum, RelOp::kEq, BigInt(10));
  auto solution = SolveIlp(sys);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution->feasible);
  EXPECT_EQ(solution->values[x] + solution->values[y], BigInt(10));
}

TEST(IlpTest, BranchingRequired) {
  // 2x == 5 is LP-feasible but integer-infeasible.
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  LinearExpr expr;
  expr.Add(x, BigInt(2));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(5));
  auto solution = SolveIlp(sys);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->feasible);
}

TEST(IlpTest, BranchingFindsLatticePoint) {
  // 2x + 3y == 12 with x,y ≥ 0 integer: (0,4), (3,2), (6,0).
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(3));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(12));
  // Forbid the all-easy corner to force some branching.
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(1));
  auto solution = SolveIlp(sys);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution->feasible);
  BigInt value = solution->values[x] * BigInt(2) + solution->values[y] * BigInt(3);
  EXPECT_EQ(value, BigInt(12));
  EXPECT_GE(solution->values[x], BigInt(1));
}

TEST(IlpTest, InfeasibleParity) {
  // 2x == 2y + 1: no integer solution (parity).
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(-2));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(1));
  auto solution = SolveIlp(sys);
  ASSERT_TRUE(solution.ok());
  EXPECT_FALSE(solution->feasible);
}

TEST(IlpTest, GomoryCutProvesParityInfeasibilityFast) {
  // 2x == 2y + 1: with cuts enabled the infeasibility certificate comes out
  // of the very first node instead of a branching climb.
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(-2));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(1));
  IlpOptions options;
  options.max_nodes = 4;  // Tiny budget: cuts must carry the proof.
  auto solution = SolveIlp(sys, options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_FALSE(solution->feasible);
  EXPECT_GE(solution->cuts_added, 1u);
}

TEST(IlpTest, NodeBudgetRespectedWithoutCuts) {
  // Same parity system with cuts disabled: branching alone climbs toward
  // the variable bound and the node budget must stop it.
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(-2));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(1));
  IlpOptions options;
  options.max_nodes = 16;
  options.max_cut_rounds = 0;
  auto solution = SolveIlp(sys, options);
  EXPECT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
}

TEST(IlpTest, PapadimitriouBound) {
  EXPECT_EQ(PapadimitriouBound(0, 5, BigInt(10)), BigInt(1));
  // n(ma)^{2m+1} with n=2, m=1, a=3: 2*(3)^3 = 54.
  EXPECT_EQ(PapadimitriouBound(1, 2, BigInt(3)), BigInt(54));
  // Grows fast but stays exact.
  BigInt big = PapadimitriouBound(10, 10, BigInt(100));
  EXPECT_GT(big.BitLength(), 100u);
}

TEST(IlpTest, LargeCoefficientsExact) {
  // x == 10^30, y == x / 2 over integers: solvable exactly with bignums.
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  BigInt huge = BigInt::Pow(BigInt(10), 30);
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kEq, huge);
  LinearExpr expr;
  expr.Add(y, BigInt(2)).Add(x, BigInt(-1));
  sys.AddConstraint(expr, RelOp::kEq, BigInt(0));
  auto solution = SolveIlp(sys);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution->feasible);
  EXPECT_EQ(solution->values[x], huge);
  EXPECT_EQ(solution->values[y], huge / BigInt(2));
}

class IlpPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IlpPropertyTest, SolutionsSatisfyTheSystem) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> coeff(-2, 3);
  std::uniform_int_distribution<int> rhs_dist(-5, 15);
  for (int trial = 0; trial < 15; ++trial) {
    LinearSystem sys;
    const int n = 3;
    for (int i = 0; i < n; ++i) sys.AddVariable("x" + std::to_string(i));
    for (int c = 0; c < 4; ++c) {
      LinearExpr expr;
      for (int i = 0; i < n; ++i) expr.Add(i, BigInt(coeff(rng)));
      RelOp op = c % 3 == 0 ? RelOp::kEq : (c % 3 == 1 ? RelOp::kLe : RelOp::kGe);
      sys.AddConstraint(expr, op, BigInt(rhs_dist(rng)));
    }
    auto solution = SolveIlp(sys);
    if (!solution.ok() || !solution->feasible) continue;
    for (const LinearConstraint& c : sys.constraints()) {
      BigInt lhs(0);
      for (const auto& [var, coef] : c.coeffs) {
        lhs += coef.num() * solution->values[var];
      }
      switch (c.op) {
        case RelOp::kLe:
          EXPECT_LE(lhs, c.rhs);
          break;
        case RelOp::kGe:
          EXPECT_GE(lhs, c.rhs);
          break;
        case RelOp::kEq:
          EXPECT_EQ(lhs, c.rhs);
          break;
      }
    }
    for (const BigInt& v : solution->values) {
      EXPECT_GE(v, BigInt(0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpPropertyTest,
                         ::testing::Values(11u, 23u, 47u, 101u));


// ------------------------------------------------- trail checkpoints + warm.

TEST(LinearSystemTest, PushPopCheckpointRestoresExactly) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  VarId y = sys.AddVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(-1));
  sys.AddConstraint(expr, RelOp::kGe, BigInt(3));
  const size_t vars = sys.NumVariables();
  const size_t rows = sys.NumConstraints();
  const BigInt max_abs = sys.MaxAbsValue();
  const std::string rendered = sys.ToString();

  sys.PushCheckpoint();
  EXPECT_EQ(sys.CheckpointDepth(), 1u);
  VarId z = sys.AddVariable("z");
  sys.AddConstraint(LinearExpr::Var(z), RelOp::kLe, BigInt(1000));
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kEq, BigInt(7));
  EXPECT_EQ(sys.NumVariables(), vars + 1);
  EXPECT_EQ(sys.NumConstraints(), rows + 2);
  EXPECT_EQ(sys.MaxAbsValue(), BigInt(1000));

  // Nested checkpoint: popped independently.
  sys.PushCheckpoint();
  sys.AddConstraint(LinearExpr::Var(y), RelOp::kGe, BigInt(2));
  EXPECT_EQ(sys.NumConstraints(), rows + 3);
  sys.PopCheckpoint();
  EXPECT_EQ(sys.NumConstraints(), rows + 2);

  sys.PopCheckpoint();
  EXPECT_EQ(sys.CheckpointDepth(), 0u);
  EXPECT_EQ(sys.NumVariables(), vars);
  EXPECT_EQ(sys.NumConstraints(), rows);
  EXPECT_EQ(sys.MaxAbsValue(), max_abs);
  EXPECT_EQ(sys.ToString(), rendered);
}

TEST(SimplexTest, DualReSolveMatchesColdOnAppendedRows) {
  // Parent: a feasible 2-var system; child: append rows of every RelOp and
  // check the warm verdict and solution against a cold solve from scratch.
  for (int variant = 0; variant < 3; ++variant) {
    LinearSystem sys;
    VarId x = sys.AddVariable("x");
    VarId y = sys.AddVariable("y");
    LinearExpr sum;
    sum.Add(x, BigInt(1)).Add(y, BigInt(1));
    sys.AddConstraint(sum, RelOp::kGe, BigInt(4));
    sys.AddConstraint(LinearExpr::Var(x), RelOp::kLe, BigInt(10));

    LpTableau tab;
    LpResult parent = SolveLpFeasibility(sys, &tab);
    ASSERT_TRUE(parent.feasible);

    LinearExpr diff;
    diff.Add(x, BigInt(1)).Add(y, BigInt(-1));
    RelOp op = variant == 0 ? RelOp::kLe : (variant == 1 ? RelOp::kGe : RelOp::kEq);
    sys.AddConstraint(diff, op, BigInt(2));

    WarmResult warm = ReSolveLpFeasibilityDualInPlace(sys, &tab);
    LpResult cold = SolveLpFeasibility(sys);
    ASSERT_EQ(warm.status, WarmStatus::kOk) << "variant " << variant;
    EXPECT_EQ(warm.lp.feasible, cold.feasible) << "variant " << variant;
    if (warm.lp.feasible) {
      // The warm vertex satisfies every row.
      for (const LinearConstraint& c : sys.constraints()) {
        Num lhs;
        for (const auto& [var, coef] : c.coeffs) {
          lhs += coef * warm.lp.values[var];
        }
        const Num& rhs = c.rhs;
        switch (c.op) {
          case RelOp::kLe:
            EXPECT_TRUE(lhs <= rhs);
            break;
          case RelOp::kGe:
            EXPECT_TRUE(lhs >= rhs);
            break;
          case RelOp::kEq:
            EXPECT_TRUE(lhs == rhs);
            break;
        }
      }
    }
  }
}

TEST(SimplexTest, DualReSolveCertifiesInfeasibility) {
  LinearSystem sys;
  VarId x = sys.AddVariable("x");
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kLe, BigInt(5));
  LpTableau tab;
  ASSERT_TRUE(SolveLpFeasibility(sys, &tab).feasible);
  sys.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(7));
  WarmResult warm = ReSolveLpFeasibilityDualInPlace(sys, &tab);
  ASSERT_EQ(warm.status, WarmStatus::kOk);
  EXPECT_FALSE(warm.lp.feasible);
}

// Warm-started search must agree with cold search on verdicts, and any
// solution it returns must satisfy the system — across a seeded random
// workload (same generator shape as SolutionsSatisfyTheSystem, denser).
class WarmColdEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdEquivalenceTest, VerdictsIdenticalSolutionsChecked) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> coeff(-2, 3);
  std::uniform_int_distribution<int> rhs_dist(-5, 15);
  std::uniform_int_distribution<int> rows_dist(3, 5);
  for (int trial = 0; trial < 20; ++trial) {
    LinearSystem sys;
    const int n = 3;
    for (int i = 0; i < n; ++i) sys.AddVariable("x" + std::to_string(i));
    const int rows = rows_dist(rng);
    for (int c = 0; c < rows; ++c) {
      LinearExpr expr;
      for (int i = 0; i < n; ++i) expr.Add(i, BigInt(coeff(rng)));
      RelOp op =
          c % 3 == 0 ? RelOp::kEq : (c % 3 == 1 ? RelOp::kLe : RelOp::kGe);
      sys.AddConstraint(expr, op, BigInt(rhs_dist(rng)));
    }

    IlpOptions warm_opts;
    warm_opts.warm_start = true;
    warm_opts.max_nodes = 5000;
    IlpOptions cold_opts;
    cold_opts.warm_start = false;
    cold_opts.max_nodes = 5000;
    auto warm = SolveIlp(sys, warm_opts);
    auto cold = SolveIlp(sys, cold_opts);
    // Warm and cold LP solves may surface different optimal vertices, so the
    // search trees (and a budget exhaustion) can legitimately differ; the
    // decided verdicts may not.
    if (!warm.ok() || !cold.ok()) continue;
    EXPECT_EQ(warm->feasible, cold->feasible) << "trial " << trial;
    EXPECT_EQ(cold->warm_starts, 0u);
    for (const IlpSolution* solution : {&*warm, &*cold}) {
      if (!solution->feasible) continue;
      for (const LinearConstraint& c : sys.constraints()) {
        BigInt lhs(0);
        for (const auto& [var, coef] : c.coeffs) {
          lhs += coef.num() * solution->values[var];
        }
        switch (c.op) {
          case RelOp::kLe:
            EXPECT_LE(lhs, c.rhs);
            break;
          case RelOp::kGe:
            EXPECT_GE(lhs, c.rhs);
            break;
          case RelOp::kEq:
            EXPECT_EQ(lhs, c.rhs);
            break;
        }
      }
      for (const BigInt& v : solution->values) EXPECT_GE(v, BigInt(0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmColdEquivalenceTest,
                         ::testing::Values(5u, 19u, 71u, 131u, 257u));

}  // namespace
}  // namespace xicc
