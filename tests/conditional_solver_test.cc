// Tests for the case-split conditional solver: brute-force-oracle agreement
// on the LIP-hard family, warm-context reuse, the no-verdict exits (node
// budget, pivot cap), and the solve-counter accounting every layer reports.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/num.h"
#include "core/batch.h"
#include "core/cardinality_encoding.h"
#include "core/consistency.h"
#include "core/encoding_solver.h"
#include "core/spec_session.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

// The Theorem 4.7 gadget: consistency of the encoded spec ⇔ the 0/1-LIP
// instance has a binary solution. Runs the whole pipeline and checks the
// verdict against the brute-force oracle. The split is sequential; the
// suite keeps its name so the seeded instances keep their test IDs.
class ParallelCaseSplitTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelCaseSplitTest, ParallelMatchesSequentialAndOracle) {
  const uint64_t seed = GetParam();
  for (size_t rows : {2, 3, 4}) {
    const size_t cols = rows + 2;
    workloads::BinaryLipInstance instance =
        workloads::RandomLip(seed + rows, rows, cols, /*ones_per_row=*/3);
    workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
    ConsistencyOptions options;
    options.build_witness = false;
    auto result = CheckConsistency(enc.dtd, enc.sigma, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->consistent, workloads::LipHasBinarySolution(instance))
        << "seed " << seed << " rows " << rows;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCaseSplitTest,
                         ::testing::Values(101u, 211u, 307u, 401u));

// Direct SolveWithConditionals exercise: the returned assignment satisfies
// the base system and every conditional. (The name, like the next test's,
// is kept so the test ID stays stable.)
TEST(ConditionalSolverTest, ThreadCountsAgreeOnDirectSystems) {
  Dtd dtd = workloads::CatalogDtd(4);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(4).Normalize();
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());

  auto solved = SolveWithConditionals(enc->system, enc->conditionals);
  ASSERT_TRUE(solved.ok()) << solved.status();
  ASSERT_TRUE(solved->feasible);
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
  // premise > 0 → conclusion > 0.
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

// Without warm starts nothing reads the warm context, so a cold solve must
// leave a caller's context alone: a session's context covers its skeleton
// rows, and a basis of one query's extra rows would no longer match the
// session system once the query's rows are popped.
TEST(ConditionalSolverTest, ColdSolvesLeaveTheWarmContextAlone) {
  Dtd dtd = workloads::CatalogDtd(3);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(3).Normalize();
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());

  CaseSplitWarmContext warm;
  LinearSystem system = enc->system;
  auto seeded =
      SolveWithConditionalsInPlace(&system, enc->conditionals, {}, &warm);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  ASSERT_TRUE(warm.valid);
  const size_t covered = warm.base_tableau.num_constraints;
  ASSERT_EQ(covered, system.NumConstraints());

  // A query's row rides the trail above the base, solved cold.
  TrailScope query(&system);
  system.AddConstraint(LinearExpr::Var(0), RelOp::kGe, BigInt(1));
  IlpOptions cold;
  cold.warm_start = false;
  auto solved =
      SolveWithConditionalsInPlace(&system, enc->conditionals, cold, &warm);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_TRUE(warm.valid);
  EXPECT_EQ(warm.base_tableau.num_constraints, covered);
}

// The search respects the node budget: exhaustion is reported as
// kResourceExhausted, never as a verdict.
TEST(ConditionalSolverTest, BudgetExhaustionReportedUnderThreads) {
  workloads::BinaryLipInstance instance =
      workloads::RandomLip(/*seed=*/77, 4, 6, /*ones_per_row=*/3);
  workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
  ConsistencyOptions options;
  options.build_witness = false;
  options.ilp.max_nodes = 1;
  auto result = CheckConsistency(enc.dtd, enc.sigma, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// One budget bounds the whole search tree: the case-split nodes and the
// branch-and-bound nodes below them count against the same `max_nodes`, so
// a capped search never reports more nodes than its budget.
TEST(ConditionalSolverTest, NodeBudgetBoundsTheWholeSearch) {
  size_t exhausted = 0;
  for (uint64_t k = 0; k < 24; ++k) {
    const size_t rows = 6 + k % 5;
    const workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(
        workloads::RandomLip(/*seed=*/9000 + k, rows, rows + 2 + k % 3,
                             /*ones_per_row=*/3));
    ConsistencyOptions options;
    options.build_witness = false;
    options.ilp.max_nodes = 5;
    ConsistencyStats partial;
    options.partial_stats = &partial;
    auto result = CheckConsistency(enc.dtd, enc.sigma, options);
    const std::string tag = "gadget " + std::to_string(k);
    if (result.ok()) {
      EXPECT_LE(result->stats.ilp_nodes, 5u) << tag;
      continue;
    }
    ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted) << tag;
    EXPECT_EQ(partial.ilp_nodes, 5u) << tag;
    ++exhausted;
  }
  EXPECT_GT(exhausted, 0u);
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

// ---- Solve-counter accounting ---------------------------------------------
// Every layer reports one SolveCounters block. Two properties pin how it is
// assembled: each thread's arithmetic traffic is counted exactly once, and
// a report's pivots always reconcile with the LP kernel's per-rule split.

/// A Theorem 4.7 gadget drawn as the gadget benchmark draws them: 3–5 rows,
/// 4–8 columns, two ones per row.
workloads::LipEncoding DrawGadget(std::mt19937_64& rng) {
  const size_t rows = 3 + rng() % 3;
  const size_t cols = 4 + rng() % 5;
  return workloads::EncodeLipAsConsistency(
      workloads::RandomLip(rng(), rows, cols, /*ones_per_row=*/2));
}

void ExpectPivotsReconcile(const SolveCounters& c, const std::string& what) {
  EXPECT_EQ(c.lp_pivots, c.lp_kernel.dantzig_pivots + c.lp_kernel.bland_pivots)
      << what;
}

/// Runs `solve` and checks that the thread traffic it reports is exactly
/// the calling thread's traffic across the call.
template <class Solve>
void ExpectTrafficOfCallingThread(const std::string& what, Solve solve) {
  const NumCounters before = ThisThreadNumCounters();
  Result<IlpSolution> solved = solve();
  const NumCounters after = ThisThreadNumCounters();
  ASSERT_TRUE(solved.ok()) << what << ": " << solved.status();
  EXPECT_EQ(solved->num_small_ops, after.small_ops - before.small_ops) << what;
  EXPECT_EQ(solved->num_big_ops, after.big_ops - before.big_ops) << what;
  EXPECT_EQ(solved->num_promotions, after.promotions - before.promotions)
      << what;
  EXPECT_EQ(solved->num_demotions, after.demotions - before.demotions)
      << what;
  ExpectPivotsReconcile(*solved, what);
}

// Single-threaded, a solve's thread traffic is its caller's, once: the case
// split's leaf SolveIlp calls and the connectivity rounds add their search
// counters, never a second copy of the traffic.
TEST(ConditionalSolverAccountingTest, ThreadTrafficIsCountedOnce) {
  std::mt19937_64 rng(7);
  for (int g = 0; g < 32; ++g) {
    const workloads::LipEncoding spec = DrawGadget(rng);
    auto enc = BuildCardinalityEncoding(spec.dtd, spec.sigma.Normalize());
    ASSERT_TRUE(enc.ok()) << enc.status();
    const std::string tag = " (gadget " + std::to_string(g) + ")";
    ExpectTrafficOfCallingThread("SolveIlp" + tag,
                                 [&] { return SolveIlp(enc->system); });
    ExpectTrafficOfCallingThread("SolveWithConditionals" + tag, [&] {
      return SolveWithConditionals(enc->system, enc->conditionals);
    });
    ExpectTrafficOfCallingThread("SolveEncodingSystem" + tag, [&] {
      return SolveEncodingSystem(*enc, enc->system, EncodingSolveOptions());
    });
  }
}

// Fresh checks, one-shot sessions and CheckBatch: every report's pivots
// reconcile.
TEST(ConditionalSolverAccountingTest, PivotsReconcileOnEveryPath) {
  std::mt19937_64 rng(12345);
  for (int g = 0; g < 16; ++g) {
    const workloads::LipEncoding spec = DrawGadget(rng);
    auto compiled = CompileDtd(spec.dtd);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const std::string tag = " (gadget " + std::to_string(g) + ")";
    ConsistencyOptions options;
    options.build_witness = false;

    auto fresh = CheckConsistency(spec.dtd, spec.sigma, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ExpectPivotsReconcile(fresh->stats, "fresh" + tag);

    SpecSession session(*compiled, options, /*memo_capacity=*/0);
    auto one_shot = session.Check(spec.sigma);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();
    ExpectPivotsReconcile(one_shot->stats, "session" + tag);
    EXPECT_EQ(one_shot->consistent, fresh->consistent) << tag;

    BatchOptions batch;
    batch.check = options;
    std::vector<BatchItemResult> items =
        CheckBatch(*compiled, {spec.sigma, spec.sigma}, batch);
    for (const BatchItemResult& item : items) {
      ASSERT_TRUE(item.status.ok()) << item.status;
      ExpectPivotsReconcile(item.result.stats, "batch" + tag);
    }
  }
}

/// The k-th small system of a fixed draw: three variables, one equality,
/// one ≤ and one ≥ row, and two conditionals between single variables.
/// Unlike the gadgets, whose LP vertices are integral, these need Gomory
/// cuts and integrality branches.
struct SmallSystem {
  LinearSystem system;
  std::vector<Conditional> conditionals;
};

SmallSystem DrawSmallSystem(size_t k) {
  std::mt19937_64 rng(31);
  SmallSystem out;
  for (size_t t = 0; t <= k; ++t) {
    out = SmallSystem();
    for (int i = 0; i < 3; ++i) out.system.AddVariable("x" + std::to_string(i));
    for (int c = 0; c < 3; ++c) {
      LinearExpr expr;
      for (VarId v = 0; v < 3; ++v) {
        expr.Add(v, BigInt(static_cast<int64_t>(rng() % 7) - 3));
      }
      const RelOp op =
          c == 0 ? RelOp::kEq : (c == 1 ? RelOp::kLe : RelOp::kGe);
      out.system.AddConstraint(expr, op,
                               BigInt(static_cast<int64_t>(rng() % 8)));
    }
    for (int c = 0; c < 2; ++c) {
      const VarId premise = static_cast<VarId>(rng() % 3);
      const VarId conclusion = static_cast<VarId>(rng() % 3);
      out.conditionals.push_back(
          {LinearExpr::Var(premise), LinearExpr::Var(conclusion)});
    }
  }
  return out;
}

// The search shape, pinned: the verdict and search counters of fixed solves.
// A change that moves one of these values changes the search tree itself
// (which node branches how, which LP runs warm), not just its speed.
TEST(ConditionalSolverAccountingTest, SearchShapeIsPinned) {
  struct Shape {
    std::string name;
    bool consistent;
    size_t ilp_nodes, lp_pivots, cuts_added, warm_starts, cold_restarts,
        search_depth;
  };
  auto expect_shape = [](const Shape& want, bool consistent,
                         const SolveCounters& got) {
    EXPECT_EQ(consistent, want.consistent) << want.name;
    EXPECT_EQ(got.ilp_nodes, want.ilp_nodes) << want.name;
    EXPECT_EQ(got.lp_pivots, want.lp_pivots) << want.name;
    EXPECT_EQ(got.cuts_added, want.cuts_added) << want.name;
    EXPECT_EQ(got.warm_starts, want.warm_starts) << want.name;
    EXPECT_EQ(got.cold_restarts, want.cold_restarts) << want.name;
    EXPECT_EQ(got.search_depth, want.search_depth) << want.name;
  };

  // Fresh checks: gadgets drawn as the gadget benchmark draws them, then two
  // catalog foreign-key chains.
  const std::vector<Shape> checks = {
      {"gadget 0", false, 1, 146, 0, 11, 1, 0},
      {"gadget 1", false, 1, 187, 0, 13, 1, 0},
      {"gadget 2", false, 1, 185, 0, 13, 1, 0},
      {"gadget 3", true, 14, 149, 0, 38, 1, 0},
      {"gadget 4", true, 11, 115, 0, 29, 1, 0},
      {"gadget 5", true, 14, 154, 0, 38, 1, 0},
      {"gadget 6", true, 11, 110, 0, 29, 1, 0},
      {"gadget 7", true, 14, 158, 0, 38, 1, 0},
      {"gadget 8", true, 14, 147, 0, 38, 1, 0},
      {"gadget 9", false, 1, 147, 0, 11, 1, 0},
      {"gadget 10", true, 17, 201, 0, 47, 1, 0},
      {"gadget 11", true, 14, 145, 0, 38, 1, 0},
      {"gadget 12", true, 11, 111, 0, 29, 1, 0},
      {"gadget 13", true, 14, 153, 0, 38, 1, 0},
      {"gadget 14", true, 14, 156, 0, 38, 1, 0},
      {"gadget 15", true, 14, 151, 0, 38, 1, 0},
      {"catalog-3", true, 1, 60, 0, 1, 1, 0},
      {"catalog-6", true, 1, 123, 0, 1, 1, 0},
  };
  std::mt19937_64 rng(2001);
  ConsistencyOptions options;
  options.build_witness = false;
  for (const Shape& want : checks) {
    Dtd dtd;
    ConstraintSet sigma;
    if (want.name.rfind("gadget", 0) == 0) {
      const workloads::LipEncoding spec = DrawGadget(rng);
      dtd = spec.dtd;
      sigma = spec.sigma;
    } else {
      const size_t n = want.name == "catalog-3" ? 3 : 6;
      dtd = workloads::CatalogDtd(n);
      sigma = workloads::CatalogFkChainSigma(n);
    }
    auto checked = CheckConsistency(dtd, sigma, options);
    ASSERT_TRUE(checked.ok()) << want.name << ": " << checked.status();
    expect_shape(want, checked->consistent, checked->stats);
  }

  // Direct solves that cut and branch on integrality below the split.
  const std::vector<std::pair<size_t, Shape>> systems = {
      {2, {"system 2", true, 3, 25, 21, 24, 1, 1}},
      {6, {"system 6", false, 4, 11, 1, 8, 1, 0}},
      {52, {"system 52", false, 12, 78, 45, 59, 1, 1}},
      {66, {"system 66", false, 1, 10, 3, 8, 1, 0}},
      {115, {"system 115", false, 18, 183, 107, 127, 1, 1}},
      {220, {"system 220", true, 4, 114, 41, 45, 1, 2}},
  };
  for (const auto& [k, want] : systems) {
    const SmallSystem drawn = DrawSmallSystem(k);
    IlpOptions ilp;
    ilp.max_nodes = 200;
    auto solved = SolveWithConditionals(drawn.system, drawn.conditionals, ilp);
    ASSERT_TRUE(solved.ok()) << want.name << ": " << solved.status();
    expect_shape(want, solved->feasible, *solved);
  }
}

// With no conditionals the split has nothing to resolve, so its optimistic
// leaf is the whole search and it reports what SolveIlp reports on the same
// system; an infeasible leaf used to be searched again as the split's root.
// Warm starts are not compared: the split solves its base LP cold and the
// leaf warm. Systems with an infeasible LP relaxation are left out: the
// split refutes those at its base LP, before its first node, while SolveIlp
// counts its root node.
TEST(ConditionalSolverTest, WithoutConditionalsTheSplitMatchesSolveIlp) {
  std::vector<std::pair<std::string, LinearSystem>> systems;
  LinearSystem parity;  // 2x = 1: LP-feasible, integer-infeasible.
  LinearExpr twice;
  twice.Add(parity.AddVariable("x"), BigInt(2));
  parity.AddConstraint(twice, RelOp::kEq, BigInt(1));
  systems.emplace_back("2x = 1", parity);
  for (size_t k = 0; k < 120; ++k) {
    systems.emplace_back("system " + std::to_string(k),
                         DrawSmallSystem(k).system);
  }
  size_t compared = 0;
  for (const auto& [name, system] : systems) {
    if (!SolveLpFeasibility(system).feasible) continue;
    IlpOptions options;
    options.max_nodes = 200;
    auto ilp = SolveIlp(system, options);
    auto split = SolveWithConditionals(system, {}, options);
    ASSERT_TRUE(ilp.ok()) << name << ": " << ilp.status();
    ASSERT_TRUE(split.ok()) << name << ": " << split.status();
    EXPECT_EQ(split->feasible, ilp->feasible) << name;
    EXPECT_EQ(split->ilp_nodes, ilp->ilp_nodes) << name;
    EXPECT_EQ(split->cuts_added, ilp->cuts_added) << name;
    EXPECT_EQ(split->lp_pivots, ilp->lp_pivots) << name;
    ++compared;
  }
  EXPECT_GT(compared, 50u);
}

// A check stopped by its deadline reports how far it got; that partial
// report reconciles too, on the fresh and the session path alike.
TEST(ConditionalSolverAccountingTest, StoppedChecksReportReconciledPartials) {
  // Runs `check` under doubling deadlines until one lands mid-search (a
  // stopped check with pivots done). Slow (sanitizer) builds can spend a
  // short budget before the first pivot, as in the deadline tests.
  auto until_stopped_mid_search =
      [](const std::string& what,
         const std::function<Result<ConsistencyResult>(
             Deadline, ConsistencyStats*)>& check) {
        for (int64_t budget_ms = 5; budget_ms <= 1'600; budget_ms *= 2) {
          ConsistencyStats partial;
          Result<ConsistencyResult> result =
              check(Deadline::After(budget_ms), &partial);
          const std::string tag = what + ", " + std::to_string(budget_ms) +
                                  " ms";
          ExpectPivotsReconcile(result.ok() ? result->stats : partial, tag);
          if (!result.ok() && partial.lp_pivots > 0) return;
        }
        ADD_FAILURE() << what << ": no deadline landed mid-search";
      };
  for (uint64_t seed : {3, 5}) {
    const workloads::LipEncoding spec = workloads::EncodeLipAsConsistency(
        workloads::RandomLip(seed, /*rows=*/16, /*cols=*/32,
                             /*ones_per_row=*/3));
    auto compiled = CompileDtd(spec.dtd);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const std::string tag = " (seed " + std::to_string(seed);
    ConsistencyOptions options;
    options.build_witness = false;
    until_stopped_mid_search(
        "fresh" + tag, [&](Deadline deadline, ConsistencyStats* partial) {
          ConsistencyOptions stopped = options;
          stopped.stop.deadline = deadline;
          stopped.partial_stats = partial;
          return CheckConsistency(spec.dtd, spec.sigma, stopped);
        });
    until_stopped_mid_search(
        "session" + tag, [&](Deadline deadline, ConsistencyStats* partial) {
          SpecSession session(*compiled, options, /*memo_capacity=*/0);
          StopSignal stop;
          stop.deadline = deadline;
          session.SetStop(stop);
          Result<ConsistencyResult> result = session.Check(spec.sigma);
          *partial = session.LastPartialStats();
          return result;
        });
  }
}

}  // namespace
}  // namespace xicc
