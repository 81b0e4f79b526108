#pragma once

// Per-layer accounting of a traced run: what the spans cannot say on their
// own (counters the program returns, wire round trips, set-up compiles),
// and the one function that renders every per-layer metric.
//
// Every traced run prints every per-layer metric. A layer that a workload
// does not exercise reads 0 there: session.* on the in-process workloads,
// batch.* outside batch_bulk, fresh.* outside fresh_oneshot, net.* outside
// the daemon workloads.

#include <map>
#include <string>
#include <vector>

#include "base/stage_timer.h"
#include "core/batch.h"
#include "core/consistency.h"
#include "core/spec_session.h"
#include "harness.h"

namespace xbench {

struct LayerStats {
  // net: per verb, round trip minus in-process replay of the same
  // operation; bytes; server failures.
  std::map<std::string, std::vector<double>> wire_gap_ms;
  double request_bytes = 0.0;
  double ops = 0.0;
  double wire_failed = 0.0;

  // core.artifact: CompileDtd time the program reports, and cache tiers.
  double compile_ms = 0.0;
  double compiles = 0.0;
  double memory_hits = 0.0;
  double lookups = 0.0;

  // core.session counters (SpecSessionStats).
  double session_queries = 0.0;
  double delta_checks = 0.0;
  double session_memo_hits = 0.0;
  double session_memo_misses = 0.0;

  // ilp, over verdicts that were solved (memo hits carry the stats of the
  // query they copy, so they are left out).
  double solved = 0.0;
  double ilp_nodes = 0.0;
  double lp_pivots = 0.0;
  double ilp_wall_ms = 0.0;
  double warm_starts = 0.0;
  double cold_restarts = 0.0;
  double promotions = 0.0;
  double small_ops = 0.0;
  double arena_bytes = 0.0;

  // core.batch (BatchRunStats), summed over CheckBatch calls.
  double batch_calls = 0.0;
  double batch_call_ms = 0.0;         // Σ call wall.
  double batch_worker_wall_ms = 0.0;  // Σ workers × call wall.
  xicc::StageTally batch_stages;
  double batch_memo_hits = 0.0;
  double batch_memo_misses = 0.0;
  double batch_chunks = 0.0;
  double batch_session_reuses = 0.0;

  /// Traced pass wall ÷ untraced pass wall − 1, over the same operations.
  double overhead_share = 0.0;

  /// Where trace.layer_coverage comes from: the spans under each operation
  /// (the daemon workloads' replay), the CheckBatch stage tallies
  /// (batch_bulk), or nowhere (fresh_oneshot: one public call whose inside
  /// cannot be split from outside; the metric reads 0 there).
  enum class Coverage { kSpans, kBatchStages, kNone };
  Coverage coverage = Coverage::kSpans;

  void AddCheck(const xicc::ConsistencyStats& s);
  void AddSession(const xicc::SpecSessionStats& s);
  void AddBatch(const xicc::BatchRunStats& run, double call_ms);
};

/// Appends every per-layer metric (the full BENCHMARK.json per_layer list)
/// to `result`, from the spans of `tracer` and the counters in `layers`.
void AddLayerMetrics(const Tracer& tracer, const LayerStats& layers,
                     RunResult* result);

}  // namespace xbench
