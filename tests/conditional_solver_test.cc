// Tests for the case-split conditional solver: brute-force-oracle agreement
// on the LIP-hard family, warm-context reuse, the no-verdict exits (node
// budget, pivot cap), and the solve-counter accounting every layer reports.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "base/arena.h"
#include "base/num.h"
#include "core/batch.h"
#include "core/cardinality_encoding.h"
#include "core/conditional_solver.h"
#include "core/consistency.h"
#include "core/encoding_solver.h"
#include "core/spec_session.h"
#include "ilp/simplex.h"
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
// assembled: each thread's arithmetic and arena traffic is counted exactly
// once, and a report's pivots always reconcile with the LP kernel's
// per-rule split.

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
  const uint64_t arena_before = ThisThreadArena().total_allocated();
  Result<IlpSolution> solved = solve();
  const NumCounters after = ThisThreadNumCounters();
  const uint64_t arena_after = ThisThreadArena().total_allocated();
  ASSERT_TRUE(solved.ok()) << what << ": " << solved.status();
  EXPECT_EQ(solved->num_small_ops, after.small_ops - before.small_ops) << what;
  EXPECT_EQ(solved->num_big_ops, after.big_ops - before.big_ops) << what;
  EXPECT_EQ(solved->num_promotions, after.promotions - before.promotions)
      << what;
  EXPECT_EQ(solved->num_demotions, after.demotions - before.demotions)
      << what;
  EXPECT_EQ(solved->arena_bytes, arena_after - arena_before) << what;
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
