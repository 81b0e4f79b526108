// CheckBatch and CompiledDtd sharing under real concurrency. The batch
// front-end stripes queries over worker sessions that share one compiled
// artifact bundle; these tests pin (a) thread-count independence of every
// per-query verdict and (b) the immutability contract of CompiledDtd — N
// threads solving and validating against the same instance. The TSan CI job
// runs this binary specifically.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/deadline.h"
#include "constraints/evaluator.h"
#include "core/batch.h"
#include "core/consistency.h"
#include "core/spec_session.h"
#include "dtd/validator.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

std::vector<ConstraintSet> MixedCatalogQueries(const Dtd& dtd) {
  std::vector<ConstraintSet> queries;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    queries.push_back(workloads::RandomUnarySigma(dtd, seed, 3, 2));
  }
  queries.push_back(workloads::AllKeysSigma(dtd));
  queries.push_back(workloads::CatalogFkChainSigma(3));
  queries.push_back(ConstraintSet());  // trivially consistent
  {
    ConstraintSet neg;  // negated key cell
    neg.Add(Constraint::Key("item1", {"id"}));
    neg.Add(Constraint::NegKey("item2", {"id"}));
    queries.push_back(neg);
  }
  {
    ConstraintSet multi;  // undecidable class → per-query error status
    multi.Add(Constraint::ForeignKey("item1", {"id", "ref"}, "item2",
                                     {"id", "ref"}));
    queries.push_back(multi);
  }
  // Duplicates exercise the per-worker memo.
  queries.push_back(workloads::AllKeysSigma(dtd));
  queries.push_back(workloads::CatalogFkChainSigma(3));
  return queries;
}

TEST(BatchTest, VerdictsIndependentOfThreadCount) {
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<ConstraintSet> queries = MixedCatalogQueries(dtd);

  BatchOptions sequential;
  sequential.num_threads = 1;
  std::vector<BatchItemResult> baseline =
      CheckBatch(*compiled, queries, sequential);
  ASSERT_EQ(baseline.size(), queries.size());

  for (size_t threads : {2, 4, 8}) {
    BatchOptions parallel = sequential;
    parallel.num_threads = threads;
    std::vector<BatchItemResult> results =
        CheckBatch(*compiled, queries, parallel);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(baseline[i].status.ok(), results[i].status.ok())
          << "query " << i << " at " << threads << " threads";
      if (!baseline[i].status.ok()) continue;
      EXPECT_EQ(baseline[i].result.consistent, results[i].result.consistent)
          << "query " << i << " at " << threads << " threads";
      EXPECT_EQ(baseline[i].result.constraint_class,
                results[i].result.constraint_class)
          << "query " << i;
      EXPECT_EQ(baseline[i].result.method, results[i].result.method)
          << "query " << i;
      if (results[i].result.witness.has_value()) {
        EXPECT_TRUE(ValidateXml(*results[i].result.witness, dtd).valid);
        EXPECT_TRUE(
            Evaluate(*results[i].result.witness, queries[i]).satisfied);
      }
    }
  }
}

TEST(BatchTest, PerQueryErrorsDoNotAbortTheBatch) {
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries = MixedCatalogQueries(dtd);
  std::vector<BatchItemResult> results = CheckBatch(*compiled, queries, {});

  size_t errors = 0;
  size_t answered = 0;
  for (const BatchItemResult& item : results) {
    if (item.status.ok()) {
      ++answered;
    } else {
      ++errors;
    }
  }
  EXPECT_EQ(errors, 1u);  // exactly the multi-attribute FK query
  EXPECT_EQ(answered, queries.size() - 1);
}

TEST(BatchTest, MatchesFreshCheckConsistency) {
  Dtd dtd = workloads::AuctionDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries;
  queries.push_back(workloads::AuctionSigma(2));
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    queries.push_back(workloads::RandomUnarySigma(dtd, seed, 4, 3));
  }
  BatchOptions options;
  options.num_threads = 4;
  std::vector<BatchItemResult> results = CheckBatch(*compiled, queries, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto fresh = CheckConsistency(dtd, queries[i]);
    ASSERT_EQ(fresh.ok(), results[i].status.ok()) << "query " << i;
    if (!fresh.ok()) continue;
    EXPECT_EQ(fresh->consistent, results[i].result.consistent) << "query " << i;
    EXPECT_EQ(fresh->method, results[i].result.method) << "query " << i;
  }
}

TEST(BatchTest, SharedCompiledDtdHammeredFromManyThreads) {
  // No CheckBatch plumbing at all: N raw threads, each with its own
  // SpecSession over the SAME CompiledDtd, solving, building witnesses, and
  // validating them through the shared frozen DFAs. Any mutation of the
  // compiled artifacts is a data race TSan will flag here.
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled_or = CompileDtd(dtd);
  ASSERT_TRUE(compiled_or.ok());
  std::shared_ptr<const CompiledDtd> compiled = *compiled_or;

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 5;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SpecSession session(compiled);
      for (size_t round = 0; round < kRounds; ++round) {
        uint64_t seed = t * kRounds + round + 1;
        ConstraintSet sigma = workloads::RandomUnarySigma(
            compiled->dtd, seed, 3, 2);
        auto result = session.Check(sigma);
        if (!result.ok()) {
          failures[t] = result.status().message();
          return;
        }
        if (result->consistent && result->witness.has_value() &&
            !ValidateXml(*result->witness, compiled->dtd).valid) {
          failures[t] = "witness failed validation";
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
}

/// A consistent LIP spec whose solve takes hundreds of milliseconds — the
/// deliberately exploding item for the degradation tests (a 50 ms budget
/// plus one escalated retry still cannot finish it). 32×64 searches 163
/// nodes in ≈0.5 s on a 4-core x86 box; smaller gadgets such as 12×24 now
/// solve inside the 150 ms that budget and retry allow.
workloads::LipEncoding ExplodingSpec() {
  return workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/3, /*rows=*/32, /*cols=*/64,
                           /*ones_per_row=*/3));
}

/// Wall milliseconds since `start`.
int64_t MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(BatchTest, DeadlineQuarantinesOnlyTheExplodingItem) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::vector<ConstraintSet> queries;
  queries.push_back(ConstraintSet());               // trivial
  queries.push_back(workloads::AllKeysSigma(spec.dtd));  // keys-only cell
  queries.push_back(spec.sigma);                    // the exploding one
  queries.push_back(ConstraintSet());               // must still be answered

  // Baseline: no budgets, every item gets a verdict.
  std::vector<BatchItemResult> baseline =
      CheckBatch(*compiled, queries, BatchOptions{});
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(baseline[i].status.ok()) << "item " << i;
  }

  // One retry at twice the item budget still dies. A slow (sanitizer) build
  // can spend a short budget before the search's first pivot, so the budget
  // doubles until the quarantined row reports pivots, as the accounting
  // tests do; even 400 ms plus its 800 ms retry stays under the 2 s bar.
  BatchOptions options;
  options.num_threads = 2;
  options.deadline_retry_factor = 2;
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results;
  int64_t wall_ms = 0;
  for (int64_t budget_ms : {50, 100, 200, 400}) {
    options.item_timeout_ms = budget_ms;
    degraded = BatchDegradedStats{};
    const auto start = std::chrono::steady_clock::now();
    results = CheckBatch(*compiled, queries, options, &degraded);
    wall_ms = MsSince(start);
    ASSERT_EQ(results.size(), queries.size());
    if (results[2].partial.lp_pivots > 0) break;
  }
  // One exploding query degrades to one degraded row, never a wedged (or
  // even slow) batch: everything must finish well under the 2 s bar even
  // with the escalated retry included.
  EXPECT_LT(wall_ms, 2'000);

  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].status.ok())
        << "item " << i << " lost its verdict to a sibling's deadline: "
        << results[i].status;
    EXPECT_EQ(results[i].result.consistent, baseline[i].result.consistent)
        << "item " << i;
  }
  EXPECT_EQ(results[2].status.code(), StatusCode::kDeadlineExceeded);
  // The quarantined row reports how far its search got.
  EXPECT_GT(results[2].partial.lp_pivots, 0u);

  EXPECT_EQ(degraded.deadline_exceeded, 1u);
  EXPECT_EQ(degraded.quarantined, 1u);
  EXPECT_EQ(degraded.retries, 1u);
  EXPECT_EQ(degraded.retry_rescues, 0u);
  EXPECT_EQ(degraded.cancelled, 0u);
}

// The batch's own deadline (`check.stop`) bounds every item and its retry:
// each item runs under the earlier of it and its item budget, and a batch
// past its deadline retries nothing.
TEST(BatchTest, BatchDeadlineBoundsEveryItem) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<ConstraintSet> queries{spec.sigma, spec.sigma};

  BatchOptions options;
  options.check.build_witness = false;
  options.item_timeout_ms = 60'000;
  options.check.stop.deadline = Deadline::After(50);
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);

  ASSERT_EQ(results.size(), 2u);
  for (const BatchItemResult& item : results) {
    EXPECT_EQ(item.status.code(), StatusCode::kDeadlineExceeded)
        << item.status;
  }
  EXPECT_EQ(degraded.deadline_exceeded, 2u);
  EXPECT_EQ(degraded.retries, 0u);
}

TEST(BatchTest, RetryFactorZeroDisablesTheEscalatedRetry) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<ConstraintSet> queries{spec.sigma};

  BatchOptions options;
  options.item_timeout_ms = 30;
  options.deadline_retry_factor = 0;
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(degraded.retries, 0u);
  EXPECT_EQ(degraded.retry_rescues, 0u);
  EXPECT_EQ(degraded.deadline_exceeded, 1u);
  EXPECT_EQ(degraded.quarantined, 1u);
}

TEST(BatchTest, RetryFactorOneRetriesOnceAndNeverDoubleCounts) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<ConstraintSet> queries{spec.sigma};

  // factor=1 re-runs at the SAME hopeless budget: the retry fires, times
  // out again, and the item must be quarantined exactly once — two deadline
  // misses on one item are one degraded row, not two.
  BatchOptions options;
  options.item_timeout_ms = 30;
  options.deadline_retry_factor = 1;
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(degraded.retries, 1u);  // exactly one, never a retry-of-a-retry
  EXPECT_EQ(degraded.retry_rescues, 0u);
  EXPECT_EQ(degraded.deadline_exceeded, 1u);
  EXPECT_EQ(degraded.quarantined, 1u);
}

TEST(BatchTest, HugeRetryFactorRescuesTheUnluckyItem) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::vector<ConstraintSet> queries{spec.sigma};

  // The rescue budget is scaled to the build: an unbudgeted run of the same
  // item measures its solve (≈0.5 s optimized, tens of seconds under TSan),
  // and the retry gets 4× that, never less than 25 ms × 1000 = 25 s.
  const auto start = std::chrono::steady_clock::now();
  std::vector<BatchItemResult> unbudgeted =
      CheckBatch(*compiled, queries, BatchOptions{});
  const int64_t solve_ms = MsSince(start);
  ASSERT_EQ(unbudgeted.size(), 1u);
  ASSERT_TRUE(unbudgeted[0].status.ok()) << unbudgeted[0].status;

  // The 25 ms first budget is hopeless; the rescue must both produce the
  // verdict and keep the quarantine tallies at zero.
  BatchOptions options;
  options.item_timeout_ms = 25;
  options.deadline_retry_factor =
      std::max<size_t>(1000, static_cast<size_t>(4 * solve_ms / 25 + 1));
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok())
      << results[0].status << " (unbudgeted solve took " << solve_ms
      << " ms, retry factor " << options.deadline_retry_factor << ")";
  EXPECT_TRUE(results[0].result.consistent);
  EXPECT_EQ(degraded.retries, 1u);
  EXPECT_EQ(degraded.retry_rescues, 1u);
  EXPECT_EQ(degraded.deadline_exceeded, 0u);
  EXPECT_EQ(degraded.quarantined, 0u);
}

TEST(BatchTest, ResourceExhaustedItemRecordedAndStripeContinues) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok());

  std::vector<ConstraintSet> queries;
  queries.push_back(spec.sigma);       // exhausts the node budget
  queries.push_back(ConstraintSet());  // linear cell, no ILP: must survive

  BatchOptions options;
  options.check.ilp.max_nodes = 1;
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(results[0].partial.lp_pivots, 0u);
  ASSERT_TRUE(results[1].status.ok()) << results[1].status;
  EXPECT_TRUE(results[1].result.consistent);
  EXPECT_EQ(degraded.resource_exhausted, 1u);
  EXPECT_EQ(degraded.quarantined, 1u);
  EXPECT_EQ(degraded.deadline_exceeded, 0u);
}

TEST(BatchTest, CancelStopsTheBatchPromptlyKeepingNothingWedged) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries(6, spec.sigma);

  CancelToken token;
  CancelTimer timer(&token, 30);
  BatchOptions options;
  options.num_threads = 2;
  options.cancel = &token;
  BatchDegradedStats degraded;
  const auto start = std::chrono::steady_clock::now();
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);
  const int64_t wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Six ~500 ms solves would take seconds; the 30 ms cancel must stop the
  // in-flight checks at their next poll and drop the queued stripes.
  EXPECT_LT(wall_ms, 2'000);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kCancelled)
        << "item " << i << ": " << results[i].status;
  }
  EXPECT_EQ(degraded.cancelled, queries.size());
  EXPECT_EQ(degraded.quarantined, queries.size());
}

TEST(BatchTest, PreCancelledBatchReturnsAllCancelledSentinels) {
  Dtd dtd = workloads::CatalogDtd(1);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries(3, workloads::AllKeysSigma(dtd));

  CancelToken token;
  token.Cancel();
  BatchOptions options;
  options.num_threads = 2;
  options.cancel = &token;
  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded);
  ASSERT_EQ(results.size(), 3u);
  for (const BatchItemResult& item : results) {
    EXPECT_EQ(item.status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(degraded.cancelled, 3u);
}

TEST(BatchTest, EmptyBatchAndThreadClamping) {
  Dtd dtd = workloads::CatalogDtd(1);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(CheckBatch(*compiled, {}, {}).empty());

  // More threads than queries: clamped, still one result per query.
  std::vector<ConstraintSet> queries = {workloads::AllKeysSigma(dtd)};
  BatchOptions options;
  options.num_threads = 16;
  std::vector<BatchItemResult> results = CheckBatch(*compiled, queries, options);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[0].result.consistent);
}

TEST(BatchTest, ChunkSizeSweepNeverChangesVerdicts) {
  // The chunked scheduler's contract: chunk size is a performance knob,
  // never a semantic one. Sweep it from one-item chunks through
  // everything-in-one-chunk at several thread counts; every configuration
  // must reproduce the fresh-pipeline verdict per query.
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries = workloads::SigmaDeltaBatch(
      dtd, /*seed=*/19, /*count=*/24, /*min_constraints=*/1,
      /*max_constraints=*/4, /*dup_percent=*/25);

  std::vector<char> fresh(queries.size());
  ConsistencyOptions check;
  check.build_witness = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = CheckConsistency(dtd, queries[i], check);
    ASSERT_TRUE(r.ok()) << r.status();
    fresh[i] = r->consistent ? 1 : 0;
  }

  for (size_t threads : {1, 4}) {
    for (size_t chunk : {0, 1, 3, 7, 100}) {
      BatchOptions options;
      options.num_threads = threads;
      options.chunk_size = chunk;
      options.check = check;
      std::vector<BatchItemResult> results =
          CheckBatch(*compiled, queries, options);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].status.ok())
            << "threads=" << threads << " chunk=" << chunk << " item " << i;
        EXPECT_EQ(results[i].result.consistent ? 1 : 0, fresh[i])
            << "threads=" << threads << " chunk=" << chunk << " item " << i;
      }
    }
  }
}

TEST(BatchTest, RunStatsAccountForScheduleStagesAndSessions) {
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries = workloads::SigmaDeltaBatch(
      dtd, /*seed=*/23, /*count=*/32, /*min_constraints=*/1,
      /*max_constraints=*/3, /*dup_percent=*/50);

  BatchOptions options;
  options.num_threads = 4;
  options.chunk_size = 4;
  options.check.build_witness = false;
  BatchRunStats run;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, nullptr, &run);
  ASSERT_EQ(results.size(), queries.size());
  for (const BatchItemResult& item : results) ASSERT_TRUE(item.status.ok());

  // Schedule shape: the worker count is the requested count clamped to the
  // hardware width (whatever that is on this machine), every chunk was
  // served by exactly one acquired session, and sessions are only ever
  // created when the free list is empty — so creations never exceed the
  // worker count (per DTD) and creations + reuses cover every chunk.
  EXPECT_GE(run.workers, 1u);
  EXPECT_LE(run.workers, 4u);
  EXPECT_GE(run.hardware_threads, 1u);
  EXPECT_EQ(run.chunk_size, 4u);
  EXPECT_EQ(run.chunks, queries.size() / 4);
  EXPECT_EQ(run.sessions_created + run.session_reuses, run.chunks);
  EXPECT_GE(run.sessions_created, 1u);
  EXPECT_LE(run.sessions_created, run.workers);

  // Memo accounting: every query either hit or missed; the 50% dup rate
  // guarantees traffic on both sides.
  EXPECT_EQ(run.memo_hits + run.memo_misses, queries.size());
  EXPECT_GT(run.memo_hits, 0u);
  EXPECT_GT(run.memo_misses, 0u);

  // Stage attribution: one setup per created session, solves for at least
  // every miss, and some nonzero wall time attributed to solving.
  EXPECT_EQ(run.stages.CountFor(Stage::kSessionSetup), run.sessions_created);
  EXPECT_GE(run.stages.CountFor(Stage::kSolve), run.memo_misses);
  EXPECT_GT(run.stages.MsFor(Stage::kSolve), 0.0);
  EXPECT_EQ(run.stages.CountFor(Stage::kResultWrite), queries.size());
}

}  // namespace
}  // namespace xicc
