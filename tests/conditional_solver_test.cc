// Tests for the case-split conditional solver: sequential vs parallel vs
// brute-force-oracle agreement on the LIP-hard family, warm-context reuse,
// and the big-M cross-check.

#include <gtest/gtest.h>

#include "core/cardinality_encoding.h"
#include "core/conditional_solver.h"
#include "core/consistency.h"
#include "ilp/simplex.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

// The Theorem 4.7 gadget: consistency of the encoded spec ⇔ the 0/1-LIP
// instance has a binary solution. Runs the whole pipeline once sequentially
// and once with a multi-threaded case split; both verdicts must match the
// brute-force oracle.
class ParallelCaseSplitTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelCaseSplitTest, ParallelMatchesSequentialAndOracle) {
  const uint64_t seed = GetParam();
  for (size_t rows : {2, 3, 4}) {
    const size_t cols = rows + 2;
    workloads::BinaryLipInstance instance =
        workloads::RandomLip(seed + rows, rows, cols, /*ones_per_row=*/3);
    workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
    const bool oracle = workloads::LipHasBinarySolution(instance);

    bool verdicts[2];
    for (size_t threads : {1, 4}) {
      ConsistencyOptions options;
      options.build_witness = false;
      options.ilp.num_threads = threads;
      auto result = CheckConsistency(enc.dtd, enc.sigma, options);
      ASSERT_TRUE(result.ok()) << result.status();
      verdicts[threads > 1] = result->consistent;
    }
    EXPECT_EQ(verdicts[0], oracle) << "seed " << seed << " rows " << rows;
    EXPECT_EQ(verdicts[1], oracle) << "seed " << seed << " rows " << rows;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCaseSplitTest,
                         ::testing::Values(101u, 211u, 307u, 401u));

// Direct SolveWithConditionals exercise at several thread counts, including
// more threads than conditionals (the fan-out must cap at the active set).
TEST(ConditionalSolverTest, ThreadCountsAgreeOnDirectSystems) {
  Dtd dtd = workloads::CatalogDtd(4);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(4).Normalize();
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());

  bool base_verdict = false;
  for (size_t threads : {1, 2, 3, 8, 32}) {
    IlpOptions options;
    options.num_threads = threads;
    auto solved =
        SolveWithConditionals(enc->system, enc->conditionals, options);
    ASSERT_TRUE(solved.ok()) << "threads " << threads;
    if (threads == 1) {
      base_verdict = solved->feasible;
    } else {
      EXPECT_EQ(solved->feasible, base_verdict) << "threads " << threads;
    }
    if (solved->feasible) {
      // Any returned assignment satisfies the base system and every
      // conditional (premise > 0 → conclusion > 0).
      for (const LinearConstraint& c : enc->system.constraints()) {
        BigInt lhs(0);
        for (const auto& [var, coef] : c.coeffs) {
          lhs += coef.num() * solved->values[var];
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
      for (const Conditional& cond : enc->conditionals) {
        BigInt premise(0);
        for (const auto& [var, coef] : cond.premise.terms()) {
          premise += coef.num() * solved->values[var];
        }
        if (premise > BigInt(0)) {
          BigInt conclusion(0);
          for (const auto& [var, coef] : cond.conclusion.terms()) {
            conclusion += coef.num() * solved->values[var];
          }
          EXPECT_GT(conclusion, BigInt(0));
        }
      }
    }
  }
}

// The warm context carries the base basis across calls with a growing
// conditional set — verdicts must be unchanged vs. fresh cold calls.
TEST(ConditionalSolverTest, WarmContextReuseKeepsVerdicts) {
  Dtd dtd = workloads::CatalogDtd(3);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(3).Normalize();
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());

  CaseSplitWarmContext warm;
  std::vector<Conditional> conditionals;
  for (size_t round = 0; round <= enc->conditionals.size(); ++round) {
    IlpOptions options;
    auto with_warm =
        SolveWithConditionals(enc->system, conditionals, options, &warm);
    auto cold = SolveWithConditionals(enc->system, conditionals, options);
    ASSERT_TRUE(with_warm.ok());
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(with_warm->feasible, cold->feasible) << "round " << round;
    if (round < enc->conditionals.size()) {
      conditionals.push_back(enc->conditionals[round]);
    }
  }
  EXPECT_TRUE(warm.valid);
}

// Parallel search respects the node budget: exhaustion is reported as
// kResourceExhausted in every thread configuration, never as a verdict.
TEST(ConditionalSolverTest, BudgetExhaustionReportedUnderThreads) {
  workloads::BinaryLipInstance instance =
      workloads::RandomLip(/*seed=*/77, 4, 6, /*ones_per_row=*/3);
  workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
  for (size_t threads : {1, 4}) {
    ConsistencyOptions options;
    options.build_witness = false;
    options.ilp.num_threads = threads;
    options.ilp.max_nodes = 1;
    auto result = CheckConsistency(enc.dtd, enc.sigma, options);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << "threads " << threads;
  }
}

// An LP can stop with no StopSignal armed: LpPricingConfig::pivot_cap
// aborts a cold solve. Both of the case split's cold-LP exits — the base LP
// and a presolve probe — must then report a no-verdict status instead of
// reading the absent signal.
TEST(ConditionalSolverTest, PivotCapWithoutStopSignalIsNoVerdict) {
  LpPricingConfig capped;
  capped.pivot_cap = 1;
  ScopedLpPricingConfig guard(capped);

  // The base LP needs phase-1 pivots: x ≥ 1 starts on an artificial.
  LinearSystem base;
  const VarId x = base.AddVariable("x");
  base.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(1));
  IlpSolution partial;
  IlpOptions options;
  options.partial = &partial;
  auto at_base = SolveWithConditionals(
      base, {Conditional{LinearExpr::Var(x), LinearExpr::Var(x)}}, options);
  ASSERT_FALSE(at_base.ok());
  EXPECT_EQ(at_base.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(partial.cold_restarts, 1u);

  // Here the base LP starts on its slack (no pivot), and the optimistic
  // leaf is infeasible before its first pivot (its conclusion row reads
  // 0 ≥ 1), so the first capped solve is presolve's cold probe of y = 0.
  LinearSystem slack_base;
  const VarId y = slack_base.AddVariable("y");
  slack_base.AddConstraint(LinearExpr::Var(y), RelOp::kLe, BigInt(5));
  IlpOptions cold;
  cold.warm_start = false;
  auto at_probe = SolveWithConditionals(
      slack_base, {Conditional{LinearExpr::Var(y), LinearExpr()}}, cold);
  ASSERT_FALSE(at_probe.ok());
  EXPECT_EQ(at_probe.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace xicc
