#include "layers.h"

#include <string>
#include <vector>

namespace xbench {

using xicc::Stage;

void LayerStats::AddCheck(const xicc::ConsistencyStats& s) {
  if (s.memo_hits > 0) return;
  solved += 1;
  ilp_nodes += static_cast<double>(s.ilp_nodes);
  lp_pivots += static_cast<double>(s.lp_pivots);
  ilp_wall_ms += s.ilp_wall_ms;
  warm_starts += static_cast<double>(s.warm_starts);
  cold_restarts += static_cast<double>(s.cold_restarts);
  promotions += static_cast<double>(s.num_promotions);
  small_ops += static_cast<double>(s.num_small_ops);
  arena_bytes += static_cast<double>(s.arena_bytes);
}

void LayerStats::AddSession(const xicc::SpecSessionStats& s) {
  session_queries += static_cast<double>(s.queries);
  delta_checks += static_cast<double>(s.sigma_delta_checks);
  session_memo_hits += static_cast<double>(s.memo_hits);
  session_memo_misses += static_cast<double>(s.memo_misses);
}

void LayerStats::AddBatch(const xicc::BatchRunStats& run, double call_ms) {
  batch_calls += 1;
  batch_call_ms += call_ms;
  batch_worker_wall_ms += static_cast<double>(run.workers) * call_ms;
  batch_stages.Merge(run.stages);
  batch_memo_hits += static_cast<double>(run.memo_hits);
  batch_memo_misses += static_cast<double>(run.memo_misses);
  batch_chunks += static_cast<double>(run.chunks);
  batch_session_reuses += static_cast<double>(run.session_reuses);
}

namespace {

/// Root-span durations per name (one root per operation).
std::map<std::string, std::vector<double>> RootDurations(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) out[s.name].push_back(NsToMs(s.end_ns - s.start_ns));
  }
  return out;
}

}  // namespace

void AddLayerMetrics(const Tracer& tracer, const LayerStats& layers,
                     RunResult* result) {
  const SpanTotals totals = SumSpans(tracer.spans());
  const std::map<std::string, std::vector<double>> roots =
      RootDurations(tracer.spans());

  // net: per verb, the median over operations of round trip minus the
  // in-process replay of the same operation, weighted by the verb's share.
  double wire_ms = 0.0;
  double wire_ops = 0.0;
  for (const auto& [verb, gaps] : layers.wire_gap_ms) {
    const double gap = Quantile(gaps, 0.5);
    result->Note("net.wire_ms." + verb, gap);
    wire_ms += gap * static_cast<double>(gaps.size());
    wire_ops += static_cast<double>(gaps.size());
  }
  const double ops = layers.ops;
  result->Add("net.wire_ms", Ratio(wire_ms, wire_ops), "ms");
  result->Add("net.json_ms",
              Ratio(totals.TotalMs("net.json_parse") +
                        totals.TotalMs("net.request_parse") +
                        totals.TotalMs("net.dump"),
                    ops),
              "ms");
  result->Add("net.request_kb", Ratio(layers.request_bytes / 1024.0, ops),
              "KiB");
  result->Add("net.failed", layers.wire_failed, "count");

  result->Add("dtd.parse_ms", totals.MeanMs("dtd.parse"), "ms");
  result->Add("constraints.parse_ms", totals.MeanMs("constraints.parse"),
              "ms");

  // core.artifact: the lookup's own cost is its span minus the CompileDtd
  // time the artifacts report.
  const size_t lookups = totals.Count("artifact.lookup");
  result->Add("artifact.lookup_ms",
              Ratio(totals.TotalMs("artifact.lookup") -
                        (lookups > 0 ? layers.compile_ms : 0.0),
                    static_cast<double>(lookups)),
              "ms");
  result->Add("artifact.compile_ms",
              Ratio(layers.compile_ms, layers.compiles), "ms");
  result->Add("artifact.memory_hit_share",
              Ratio(layers.memory_hits, layers.lookups), "ratio");

  result->Add("session.setup_ms", totals.MeanMs("session.setup"), "ms");
  result->Add("session.check_ms", totals.MeanMs("session.check"), "ms");
  result->Add("session.commit_ms", totals.MeanMs("session.commit"), "ms");
  result->Add("session.implies_ms", totals.MeanMs("session.implies"), "ms");
  result->Add("session.rollback_ms", totals.MeanMs("session.rollback"), "ms");
  result->Add("session.memo_hit_share",
              Ratio(layers.session_memo_hits,
                    layers.session_memo_hits + layers.session_memo_misses),
              "ratio");
  result->Add("session.delta_share",
              Ratio(layers.delta_checks, layers.session_queries), "ratio");

  const xicc::StageTally& st = layers.batch_stages;
  double stage_ms = 0.0;
  for (double ms : st.ms) stage_ms += ms;
  const double calls = layers.batch_calls;
  result->Add("batch.worker_busy_share",
              Ratio(stage_ms, layers.batch_worker_wall_ms), "ratio");
  result->Add("batch.memo_hit_share",
              Ratio(layers.batch_memo_hits,
                    layers.batch_memo_hits + layers.batch_memo_misses),
              "ratio");
  result->Add("batch.session_reuse_share",
              Ratio(layers.batch_session_reuses, layers.batch_chunks),
              "ratio");
  result->Add("batch.stage.session_setup_ms",
              Ratio(st.MsFor(Stage::kSessionSetup), calls), "ms");
  result->Add("batch.stage.solve_ms", Ratio(st.MsFor(Stage::kSolve), calls),
              "ms");
  result->Add("batch.stage.memo_ms",
              Ratio(st.MsFor(Stage::kMemoKey) + st.MsFor(Stage::kMemoLookup) +
                        st.MsFor(Stage::kMemoStore),
                    calls),
              "ms");
  result->Add("batch.stage.result_write_ms",
              Ratio(st.MsFor(Stage::kResultWrite), calls), "ms");

  static const char* const kCells[] = {"keys_only", "unary", "neg_key",
                                       "neg_ic"};
  double check_ms = totals.TotalMs("session.check") +
                    totals.TotalMs("session.implies") +
                    st.MsFor(Stage::kSolve);
  for (const char* cell : kCells) {
    const std::string span = std::string("consistency.check.") + cell;
    result->Add(std::string("fresh.check_ms.") + cell, totals.MeanMs(span),
                "ms");
    check_ms += totals.TotalMs(span);
  }

  const double solved = layers.solved;
  result->Add("ilp.nodes", Ratio(layers.ilp_nodes, solved), "nodes/op");
  result->Add("ilp.ms_per_node", Ratio(layers.ilp_wall_ms, layers.ilp_nodes),
              "ms");
  result->Add("ilp.search_share", Ratio(layers.ilp_wall_ms, check_ms),
              "ratio");
  result->Add("ilp.pivots", Ratio(layers.lp_pivots, solved), "pivots/op");
  result->Add("ilp.wall_ms", Ratio(layers.ilp_wall_ms, solved), "ms");
  result->Add("ilp.ms_per_pivot", Ratio(layers.ilp_wall_ms, layers.lp_pivots),
              "ms");
  result->Add("ilp.warm_start_share",
              Ratio(layers.warm_starts,
                    layers.warm_starts + layers.cold_restarts),
              "ratio");
  result->Add("ilp.promotion_rate",
              Ratio(layers.promotions, layers.small_ops), "ratio");
  result->Add("ilp.arena_kb", Ratio(layers.arena_bytes / 1024.0, solved),
              "KiB");

  // Tracing: overhead, and the share of each operation that the layers
  // under it account for.
  double coverage = 0.0;
  if (layers.coverage == LayerStats::Coverage::kSpans) {
    double root_ms = 0.0;
    double root_self_ms = 0.0;
    for (const SpanTotals::Entry& e : totals.entries) {
      if (roots.count(e.name) > 0) {
        root_ms += e.total_ms;
        root_self_ms += e.self_ms;
      }
    }
    coverage = 1.0 - Ratio(root_self_ms, root_ms);
  } else if (layers.coverage == LayerStats::Coverage::kBatchStages) {
    coverage = Ratio(stage_ms, layers.batch_call_ms);
  }
  result->Add("trace.overhead_share", layers.overhead_share, "ratio");
  result->Add("trace.layer_coverage", coverage, "ratio");
  result->Note("trace.spans", static_cast<double>(tracer.spans().size()));
}

}  // namespace xbench
