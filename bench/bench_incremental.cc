// Compiled-DTD session ablation (Corollary 4.11's fixed-DTD regime): the
// same authoring/batch workloads answered (a) by a SpecSession that compiles
// the DTD once and re-checks each Σ as a trail delta over the shared
// skeleton, and (b) by the fresh pipeline that rebuilds Ψ(D,Σ) from scratch
// per query. Verdict sequences are asserted identical — the ablation only
// counts if both sides answer the same thing — and the speedup column is the
// headline number for EXPERIMENTS.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/artifact.h"
#include "core/artifact_cache.h"
#include "core/batch.h"
#include "core/consistency.h"
#include "core/incremental.h"
#include "core/spec_session.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

using Outcome = IncrementalChecker::Outcome;

/// 50-constraint authoring stream over `dtd`: TryAdd each constraint through
/// one checker in the given mode; returns the outcome sequence.
std::vector<Outcome> RunAuthoring(const Dtd& dtd,
                                  const std::vector<Constraint>& stream,
                                  IncrementalChecker::Mode mode) {
  ConsistencyOptions options;
  options.build_witness = false;
  IncrementalChecker checker(&dtd, options, /*check_redundancy=*/false, mode);
  std::vector<Outcome> outcomes;
  outcomes.reserve(stream.size());
  for (const Constraint& c : stream) {
    auto result = checker.TryAdd(c);
    if (!result.ok()) std::abort();
    outcomes.push_back(result->outcome);
  }
  return outcomes;
}

void RunAuthoringAblation(bench::JsonReport& report) {
  bench::Header("authoring session: compile-once Σ-delta vs fresh rebuilds");
  std::printf("%16s %12s %12s %12s %10s\n", "dtd", "additions",
              "session(ms)", "fresh(ms)", "speedup");
  struct Family {
    const char* name;
    Dtd dtd;
    uint64_t seed;
  };
  std::vector<Family> families;
  families.push_back({"catalog-6", workloads::CatalogDtd(6), 17});
  families.push_back({"catalog-10", workloads::CatalogDtd(10), 29});
  families.push_back({"auction-4", workloads::AuctionDtd(4), 41});
  for (Family& family : families) {
    // 50 additions: 25 keys + 25 foreign keys over random attribute pairs.
    std::vector<Constraint> stream =
        workloads::RandomUnarySigma(family.dtd, family.seed, 25, 25)
            .constraints();

    std::vector<Outcome> session_outcomes;
    std::vector<Outcome> fresh_outcomes;
    // Session timing includes CompileDtd (it happens inside the first
    // TryAdd) — the compile is the cost being amortized, not excluded.
    double session_ms = bench::BestTimeMs(3, [&] {
      session_outcomes =
          RunAuthoring(family.dtd, stream, IncrementalChecker::Mode::kSession);
    });
    double fresh_ms = bench::BestTimeMs(3, [&] {
      fresh_outcomes =
          RunAuthoring(family.dtd, stream, IncrementalChecker::Mode::kFresh);
    });
    if (session_outcomes != fresh_outcomes) std::abort();
    double speedup = session_ms > 0 ? fresh_ms / session_ms : 0.0;
    std::printf("%16s %12zu %12.3f %12.3f %9.2fx\n", family.name,
                stream.size(), session_ms, fresh_ms, speedup);
    report.AddRow("authoring")
        .Set("dtd", family.name)
        .Set("additions", stream.size())
        .Set("session_ms", session_ms)
        .Set("fresh_ms", fresh_ms)
        .Set("speedup_x", speedup)
        .Set("verdicts_identical", true);
  }
}

void RunBatchAblation(bench::JsonReport& report) {
  bench::Header("batch front-end: shared CompiledDtd, 1..8 threads");
  Dtd dtd = workloads::CatalogDtd(8);
  std::vector<ConstraintSet> queries;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    queries.push_back(workloads::RandomUnarySigma(dtd, seed, 4, 4));
  }

  ConsistencyOptions check;
  check.build_witness = false;

  // Sequential fresh loop: the no-artifact baseline.
  std::vector<char> fresh_verdicts(queries.size());
  double fresh_ms = bench::BestTimeMs(3, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = CheckConsistency(dtd, queries[i], check);
      if (!r.ok()) std::abort();
      fresh_verdicts[i] = r->consistent ? 1 : 0;
    }
  });

  auto compiled = CompileDtd(dtd);
  if (!compiled.ok()) std::abort();

  std::printf("%10s %12s %12s %12s %10s %10s\n", "threads", "queries",
              "time(ms)", "fresh(ms)", "speedup", "promo");
  for (size_t threads : {1, 2, 4, 8}) {
    BatchOptions options;
    options.num_threads = threads;
    options.check = check;
    std::vector<BatchItemResult> results;
    double batch_ms = bench::BestTimeMs(3, [&] {
      results = CheckBatch(*compiled, queries, options);
    });
    SolveCounters total;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!results[i].status.ok()) std::abort();
      // Bit-identical verdicts at every thread count, per the contract.
      if ((results[i].result.consistent ? 1 : 0) != fresh_verdicts[i]) {
        std::abort();
      }
      total.Add(results[i].result.stats);
    }
    double speedup = batch_ms > 0 ? fresh_ms / batch_ms : 0.0;
    const double promo_rate =  // xicc-lint: allow(exact-arithmetic)
        total.num_small_ops > 0
            ? static_cast<double>(total.num_promotions) / total.num_small_ops
            : 0.0;
    std::printf("%10zu %12zu %12.3f %12.3f %9.2fx %10.2e\n", threads,
                queries.size(), batch_ms, fresh_ms, speedup, promo_rate);
    report.AddRow("batch")
        .Set("threads", threads)
        .Set("queries", queries.size())
        .Set("batch_ms", batch_ms)
        .Set("fresh_ms", fresh_ms)
        .Set("speedup_x", speedup)
        .Set("promotion_rate", promo_rate)
        .Set("verdicts_identical", true);
  }
}

/// The scaling section CI gates on: a LARGE batch (hundreds of mixed-size
/// Σ-deltas, a realistic memo hit mix) so per-batch fixed costs cannot
/// dominate, timed min-of-N with the spread reported. Every row carries
/// workers_effective and hardware_threads — on a narrow runner the pool is
/// clamped to the hardware width and the flat curve is attributable to the
/// clamp, so the JSON cannot claim a speedup the machine cannot produce (and
/// the gate script can refuse to demand one).
void RunLargeBatchScaling(bench::JsonReport& report) {
  bench::Header("scaling: 384-query mixed batch, min-of-5, 1..8 threads");
  Dtd dtd = workloads::CatalogDtd(8);
  std::vector<ConstraintSet> queries = workloads::SigmaDeltaBatch(
      dtd, /*seed=*/7, /*count=*/384, /*min_constraints=*/1,
      /*max_constraints=*/6, /*dup_percent=*/30);
  auto compiled = CompileDtd(dtd);
  if (!compiled.ok()) std::abort();

  constexpr int kReps = 5;
  std::printf("%8s %8s %8s %10s %10s %10s %9s %8s %8s\n", "threads",
              "workers", "queries", "best(ms)", "mean(ms)", "stddev", "speedup",
              "chunks", "hits");
  double one_thread_best = 0.0;
  std::vector<char> baseline_verdicts;
  for (size_t threads : {1, 2, 4, 8}) {
    BatchOptions options;
    options.num_threads = threads;
    options.check.build_witness = false;

    BatchRunStats run;
    std::vector<BatchItemResult> results;
    std::vector<double> rep_ms;
    rep_ms.reserve(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      rep_ms.push_back(bench::TimeMs([&] {
        results = CheckBatch(*compiled, queries, options, nullptr, &run);
      }));
    }
    double best = rep_ms[0], sum = 0.0;
    for (double t : rep_ms) {
      if (t < best) best = t;
      sum += t;
    }
    const double mean = sum / kReps;
    double var = 0.0;
    for (double t : rep_ms) var += (t - mean) * (t - mean);
    var /= kReps;
    const double stddev = var > 0 ? std::sqrt(var) : 0.0;

    std::vector<char> verdicts(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].status.ok()) std::abort();
      verdicts[i] = results[i].result.consistent ? 1 : 0;
    }
    if (threads == 1) {
      one_thread_best = best;
      baseline_verdicts = verdicts;
    } else if (verdicts != baseline_verdicts) {
      std::abort();  // Verdicts are thread-count-independent by contract.
    }
    const double speedup = best > 0 ? one_thread_best / best : 0.0;
    std::printf("%8zu %8zu %8zu %10.3f %10.3f %10.3f %8.2fx %8zu %8zu\n",
                threads, run.workers, queries.size(), best, mean, stddev,
                speedup, run.chunks, run.memo_hits);
    report.AddRow("scaling")
        .Set("threads", threads)
        .Set("workers_effective", run.workers)
        .Set("hardware_threads", run.hardware_threads)
        // A multi-thread request that the pool clamped to one worker cannot
        // scale by construction; the row says so explicitly instead of
        // leaving the gate script to infer it from hardware_threads.
        .Set("advisory", threads > 1 && run.workers <= 1)
        .Set("queries", queries.size())
        .Set("reps", static_cast<size_t>(kReps))
        .Set("batch_ms", best)
        .Set("mean_ms", mean)
        .Set("stddev_ms", stddev)
        .Set("speedup_vs_1thread_x", speedup)
        .Set("chunks", run.chunks)
        .Set("chunk_size", run.chunk_size)
        .Set("sessions_created", run.sessions_created)
        .Set("session_reuses", run.session_reuses)
        .Set("memo_hits", run.memo_hits)
        .Set("memo_misses", run.memo_misses)
        .Set("memo_evictions", run.memo_evictions)
        .Set("stage_session_setup_ms", run.stages.MsFor(Stage::kSessionSetup))
        .Set("stage_memo_key_ms", run.stages.MsFor(Stage::kMemoKey))
        .Set("stage_memo_lookup_ms", run.stages.MsFor(Stage::kMemoLookup))
        .Set("stage_memo_store_ms", run.stages.MsFor(Stage::kMemoStore))
        .Set("stage_solve_ms", run.stages.MsFor(Stage::kSolve))
        .Set("stage_result_write_ms", run.stages.MsFor(Stage::kResultWrite))
        .Set("verdicts_identical", true);
  }
}

void RunDeadlineDegradation(bench::JsonReport& report) {
  bench::Header("degraded batch: 50 ms per-item deadline over a spiked mix");
  // The mix: feasible Σ's plus one deliberately exploding multi-split LIP
  // encoding (hundreds of ms unrestrained: 32×64 searches 163 nodes in
  // ≈0.5 s on a 4-core x86 box, while 12×24 now fits the 200 ms retry).
  // Under a 50 ms per-item deadline the batch must quarantine the spike and
  // finish everything else — CI's bench-smoke gates on the wall clock
  // staying under 2 s.
  workloads::LipEncoding spike = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/3, /*rows=*/32, /*cols=*/64,
                           /*ones_per_row=*/3));
  auto compiled = CompileDtd(spike.dtd);
  if (!compiled.ok()) std::abort();

  std::vector<ConstraintSet> queries;
  for (int i = 0; i < 7; ++i) {
    queries.push_back(i % 2 == 0 ? ConstraintSet{}
                                 : workloads::AllKeysSigma(spike.dtd));
  }
  queries.push_back(spike.sigma);  // The spike rides last.

  BatchOptions options;
  options.num_threads = 2;
  options.check.build_witness = false;
  options.item_timeout_ms = 50;
  options.deadline_retry_factor = 4;

  BatchDegradedStats degraded;
  std::vector<BatchItemResult> results;
  // One timed run, not best-of-N: the deadline makes the wall clock the
  // contract, and re-running would just re-pay the spike's full budget.
  double wall_ms = bench::TimeMs(
      [&] { results = CheckBatch(*compiled, queries, options, &degraded); });

  size_t ok = 0;
  for (const BatchItemResult& item : results) {
    if (item.status.ok()) ++ok;
  }
  // The spike must actually have been quarantined on deadline; a silent
  // pass means the workload stopped exploding and the bench is vacuous.
  if (degraded.deadline_exceeded == 0) std::abort();
  if (ok != queries.size() - 1) std::abort();

  std::printf("%10s %12s %12s %12s %10s\n", "queries", "ok", "deadline",
              "retries", "wall(ms)");
  std::printf("%10zu %12zu %12zu %12zu %10.3f\n", queries.size(), ok,
              static_cast<size_t>(degraded.deadline_exceeded),
              static_cast<size_t>(degraded.retries), wall_ms);
  report.AddRow("degraded")
      .Set("queries", queries.size())
      .Set("completed_ok", ok)
      .Set("item_timeout_ms", static_cast<size_t>(options.item_timeout_ms))
      .Set("deadline_exceeded", static_cast<size_t>(degraded.deadline_exceeded))
      .Set("cancelled", static_cast<size_t>(degraded.cancelled))
      .Set("resource_exhausted",
           static_cast<size_t>(degraded.resource_exhausted))
      .Set("retries", static_cast<size_t>(degraded.retries))
      .Set("retry_rescues", static_cast<size_t>(degraded.retry_rescues))
      .Set("quarantined", static_cast<size_t>(degraded.quarantined))
      .Set("wall_ms", wall_ms);
}

/// Cold-vs-artifact-warm startup: CompileDtd from scratch vs loading the
/// persisted artifact (core/artifact.h) for the same DTD. The loaded bundle
/// must answer a representative Σ with the same verdict as a fresh check
/// (parity is asserted, not sampled), and the speedup column is what the CI
/// artifact-cache gate (bench/artifact_cache_gate.py) enforces a floor on.
void RunArtifactWarmStart(bench::JsonReport& report) {
  bench::Header("artifact warm start: cold CompileDtd vs persisted artifact");
  char dir_template[] = "/tmp/xicc-bench-artifacts.XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) std::abort();

  std::printf("%12s %10s %12s %12s %10s %8s\n", "dtd", "bytes", "cold(ms)",
              "warm(ms)", "speedup", "source");
  struct Family {
    const char* name;
    Dtd dtd;
    uint64_t seed;
  };
  std::vector<Family> families;
  families.push_back({"catalog-8", workloads::CatalogDtd(8), 23});
  families.push_back({"catalog-16", workloads::CatalogDtd(16), 31});
  families.push_back({"catalog-32", workloads::CatalogDtd(32), 37});
  families.push_back({"catalog-64", workloads::CatalogDtd(64), 43});
  families.push_back({"auction-4", workloads::AuctionDtd(4), 47});
  families.push_back({"auction-32", workloads::AuctionDtd(32), 53});
  for (Family& family : families) {
    double cold_ms = bench::BestTimeMs(3, [&] {
      auto compiled = CompileDtd(family.dtd);
      if (!compiled.ok()) std::abort();
    });

    const std::string path =
        std::string(dir) + "/" + ArtifactFileName(family.dtd);
    {
      auto compiled = CompileDtd(family.dtd);
      if (!compiled.ok()) std::abort();
      if (!StoreCompiledDtd(**compiled, path).ok()) std::abort();
    }

    ArtifactLoadInfo info;
    std::shared_ptr<const CompiledDtd> loaded;
    double warm_ms = bench::BestTimeMs(5, [&] {
      auto r = LoadCompiledDtd(path, &info);
      if (!r.ok()) std::abort();
      loaded = std::move(*r);
    });

    // Parity: the loaded bundle must answer like a fresh pipeline.
    ConstraintSet sigma =
        workloads::RandomUnarySigma(family.dtd, family.seed, 4, 4);
    ConsistencyOptions check;
    check.build_witness = false;
    auto fresh = CheckConsistency(family.dtd, sigma, check);
    if (!fresh.ok()) std::abort();
    SpecSession session(loaded, check);
    auto warm = session.Check(sigma);
    if (!warm.ok()) std::abort();
    if (warm->consistent != fresh->consistent) std::abort();

    double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
    const char* source = info.mmap ? "mmap" : "disk-cache";
    std::printf("%12s %10zu %12.3f %12.3f %9.2fx %8s\n", family.name,
                info.bytes, cold_ms, warm_ms, speedup, source);
    report.AddRow("artifact_warm")
        .Set("dtd", family.name)
        .Set("artifact_bytes", info.bytes)
        .Set("cold_compile_ms", cold_ms)
        .Set("warm_load_ms", warm_ms)
        .Set("speedup_x", speedup)
        .Set("source", source)
        .Set("format_version", static_cast<size_t>(kArtifactFormatVersion))
        .Set("verdicts_identical", true);
    std::remove(path.c_str());
  }
  ::rmdir(dir);
}

void RunMemoAblation(bench::JsonReport& report) {
  bench::Header("memo: repeated Σ within a session, capacity 0 vs 128");
  Dtd dtd = workloads::CatalogDtd(6);
  auto compiled = CompileDtd(dtd);
  if (!compiled.ok()) std::abort();
  // 8 distinct queries, each asked 8 times.
  std::vector<ConstraintSet> distinct;
  for (uint64_t seed = 51; seed <= 58; ++seed) {
    distinct.push_back(workloads::RandomUnarySigma(dtd, seed, 3, 3));
  }
  ConsistencyOptions check;
  check.build_witness = false;
  std::printf("%10s %12s %12s %12s\n", "memo", "checks", "time(ms)", "hits");
  for (size_t capacity : {0, 128}) {
    size_t hits = 0;
    double ms = bench::BestTimeMs(3, [&] {
      SpecSession session(*compiled, check, capacity);
      for (int round = 0; round < 8; ++round) {
        for (const ConstraintSet& sigma : distinct) {
          auto r = session.Check(sigma);
          if (!r.ok()) std::abort();
        }
      }
      hits = session.stats().memo_hits;
    });
    std::printf("%10zu %12zu %12.3f %12zu\n", capacity, distinct.size() * 8,
                ms, hits);
    report.AddRow("memo")
        .Set("capacity", capacity)
        .Set("checks", distinct.size() * 8)
        .Set("time_ms", ms)
        .Set("memo_hits", hits);
  }
}

}  // namespace
}  // namespace xicc

int main() {
  std::printf(
      "bench_incremental — compiled-DTD sessions vs per-query rebuilds\n"
      "claim: compiling the DTD artifacts once and answering each Σ as a\n"
      "trail delta turns the Cor 4.11 authoring loop from n rebuilds into\n"
      "one build plus n deltas.\n");
  xicc::bench::JsonReport report("incremental");
  xicc::RunAuthoringAblation(report);
  xicc::RunArtifactWarmStart(report);
  xicc::RunBatchAblation(report);
  xicc::RunLargeBatchScaling(report);
  xicc::RunDeadlineDegradation(report);
  xicc::RunMemoAblation(report);
  report.Write();
  return 0;
}
