// batch_bulk and fresh_oneshot: in-process calls, no wire.
//
// batch_bulk runs the bulk path behind `xicc batch`: CheckBatch over
// schemas compiled during set-up, one worker, no witnesses. fresh_oneshot
// runs the path `xicc check` takes without an artifact cache: one
// CheckConsistency per spec, witnesses built, verified by the program, and
// re-checked here with ValidateXml + Evaluate outside the timed call.

#include <memory>
#include <string>
#include <vector>

#include "constraints/evaluator.h"
#include "core/batch.h"
#include "core/consistency.h"
#include "dtd/compiled.h"
#include "dtd/validator.h"
#include "layers.h"
#include "specs.h"
#include "workloads.h"

namespace xbench {

namespace {

/// Fresh specs per window: four passes over every schema × cell.
constexpr uint64_t kFreshWindow = 256;
/// CheckBatch calls per window: four passes over the 16 schemas.
constexpr uint64_t kBatchWindow = 64;

/// One CheckBatch call's input: the schema, its queries, and the recorded
/// verdict of each.
struct BatchCall {
  size_t schema = 0;
  std::vector<xicc::ConstraintSet> queries;
  std::vector<bool> expect;
};

/// Calls cycle through the schemas; each draws 48–80 items from its
/// schema's recorded pool, a quarter of them repeats of earlier items of
/// the same call. Built one call at a time as the run advances.
class BatchStream {
 public:
  BatchStream(uint64_t seed, const std::vector<Spec>* pool,
              size_t schema_count, bool smoke)
      : seed_(seed), pool_(pool), by_schema_(schema_count), smoke_(smoke) {
    for (size_t i = 0; i < pool->size(); ++i) {
      by_schema_[(*pool)[i].schema].push_back(i);
    }
  }

  BatchCall Make(uint64_t call) const {
    Rng rng(Mix(seed_) ^ Mix(call + 0xb17c));
    BatchCall out;
    out.schema = call % by_schema_.size();
    const std::vector<size_t>& items = by_schema_[out.schema];
    const size_t size = smoke_ ? 6 : rng.Uniform(48, 80);
    std::vector<size_t> picked;
    for (size_t i = 0; i < size; ++i) {
      const size_t index = !picked.empty() && rng.Percent(25)
                               ? picked[rng.Uniform(0, picked.size() - 1)]
                               : items[rng.Uniform(0, items.size() - 1)];
      picked.push_back(index);
      out.queries.push_back((*pool_)[index].sigma);
      out.expect.push_back((*pool_)[index].expect);
    }
    return out;
  }

 private:
  uint64_t seed_;
  const std::vector<Spec>* pool_;
  std::vector<std::vector<size_t>> by_schema_;
  bool smoke_;
};

/// What one pass measured. Untraced passes fill `plain` only; traced
/// passes alternate windows between `plain` and `traced`, and only traced
/// windows feed the spans and the layer counters.
struct Pass {
  OpSample plain;
  OpSample traced;
  uint64_t ops = 0;
};

Pass RunBatchPass(
    const std::vector<std::shared_ptr<const xicc::CompiledDtd>>& compiled,
    const BatchStream& stream, const xicc::BatchOptions& options,
    double budget_ms, size_t min_calls, uint64_t exact_calls, uint64_t window,
    Tracer* tracer, LayerStats* layers, RunResult* result) {
  Pass pass;
  for (uint64_t call = 0; result->correct; ++call) {
    const bool done = exact_calls > 0
                          ? call >= exact_calls
                          : pass.plain.timed_ms + pass.traced.timed_ms >=
                                    budget_ms &&
                                pass.ops >= min_calls;
    if (done) break;
    const bool traced = tracer != nullptr && (call / window) % 2 == 1;
    Tracer off(false);
    Tracer* spans = traced ? tracer : &off;
    const BatchCall input = stream.Make(call);
    xicc::BatchRunStats run;
    spans->BeginRequest();
    const int64_t start = NowNs();
    std::vector<xicc::BatchItemResult> results;
    {
      Span span(spans, "batch.check_batch");
      results = xicc::CheckBatch(compiled[input.schema], input.queries,
                                 options, nullptr, &run);
    }
    const double ms = NsToMs(NowNs() - start);
    uint64_t failed = 0;
    for (size_t i = 0; i < input.queries.size(); ++i) {
      if (i >= results.size() || !results[i].status.ok()) {
        ++failed;
        continue;
      }
      if (results[i].result.consistent != input.expect[i]) {
        result->GateFailure("CheckBatch verdict differs from the record on " +
                            SigmaText(input.queries[i]));
      }
      if (traced) layers->AddCheck(results[i].result.stats);
    }
    if (traced) layers->AddBatch(run, ms);
    (traced ? pass.traced : pass.plain)
        .Record(ms, input.queries.size(), failed);
    pass.ops += 1;
    if (pass.ops % window == 0) {
      pass.plain.CloseWindow();
      pass.traced.CloseWindow();
    }
  }
  pass.plain.CloseWindow();
  pass.traced.CloseWindow();
  return pass;
}

/// The span name of a fresh check in `cell` (span names must outlive the
/// tracer, so they are literals).
const char* CheckSpan(const std::string& cell) {
  if (cell == "keys_only") return "consistency.check.keys_only";
  if (cell == "neg_key") return "consistency.check.neg_key";
  if (cell == "neg_ic") return "consistency.check.neg_ic";
  return "consistency.check.unary";
}

Pass RunFreshPass(const std::vector<Schema>& schemas,
                  const std::vector<xicc::CompiledContentModels>& models,
                  const std::vector<Spec>& pool, double budget_ms,
                  size_t min_ops, uint64_t exact_ops, uint64_t window,
                  Tracer* tracer, LayerStats* layers, RunResult* result) {
  Pass pass;
  const xicc::ConsistencyOptions options;  // Witnesses built and verified.
  for (uint64_t i = 0; result->correct; ++i) {
    const bool done = exact_ops > 0
                          ? i >= exact_ops
                          : pass.plain.timed_ms + pass.traced.timed_ms >=
                                    budget_ms &&
                                pass.ops >= min_ops;
    if (done) break;
    const bool traced = tracer != nullptr && (i / window) % 2 == 1;
    Tracer off(false);
    Tracer* spans = traced ? tracer : &off;
    const Spec& spec = pool[i % pool.size()];
    const xicc::Dtd& dtd = schemas[spec.schema].dtd;
    spans->BeginRequest();
    const int64_t start = NowNs();
    xicc::Result<xicc::ConsistencyResult> checked = [&] {
      Span span(spans, CheckSpan(spec.cell));
      return xicc::CheckConsistency(dtd, spec.sigma, options);
    }();
    const double ms = NsToMs(NowNs() - start);
    (traced ? pass.traced : pass.plain).Record(ms, 1, checked.ok() ? 0 : 1);
    pass.ops += 1;
    if (pass.ops % window == 0) {
      pass.plain.CloseWindow();
      pass.traced.CloseWindow();
    }
    if (!checked.ok()) continue;
    if (traced) layers->AddCheck(checked->stats);
    if (checked->consistent != spec.expect) {
      result->GateFailure(std::string("CheckConsistency verdict differs "
                                      "from the record on ") +
                          schemas[spec.schema].name + ": " + spec.sigma_text);
      break;
    }
    if (checked->consistent) {
      if (!checked->witness.has_value()) {
        result->GateFailure("consistent without a witness on " +
                            schemas[spec.schema].name + ": " +
                            spec.sigma_text);
        break;
      }
      const bool valid = xicc::ValidateXml(*checked->witness, dtd,
                                           &models[spec.schema], {})
                             .valid;
      const bool satisfied =
          xicc::Evaluate(*checked->witness, spec.sigma).satisfied;
      if (!valid || !satisfied) {
        result->GateFailure("witness fails re-validation on " +
                            schemas[spec.schema].name + ": " +
                            spec.sigma_text);
      }
    }
  }
  pass.plain.CloseWindow();
  pass.traced.CloseWindow();
  return pass;
}

}  // namespace

RunResult RunBatchBulk(const RunConfig& config) {
  RunResult result;
  const std::vector<Schema> schemas = MakeSchemas();
  std::vector<Spec> pool =
      MakeBatchPool(schemas, config.seed, config.smoke ? 3 : 128);
  std::string why;
  const int64_t record_start = NowNs();
  if (!RecordSpecs(schemas, /*with_fresh=*/true, &pool, &why)) {
    result.GateFailure(why);
    return result;
  }
  result.Note("record_s", NsToMs(NowNs() - record_start) / 1000.0);
  std::vector<double> setup_s;
  std::vector<std::shared_ptr<const xicc::CompiledDtd>> compiled;
  LayerStats layers;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    compiled.clear();
    const int64_t start = NowNs();
    for (const Schema& schema : schemas) {
      auto c = xicc::CompileDtd(schema.dtd);
      if (!c.ok()) {
        result.GateFailure(schema.name + ": " + c.status().ToString());
        return result;
      }
      layers.compile_ms += (*c)->compile_ms;
      layers.compiles += 1;
      compiled.push_back(std::move(*c));
    }
    setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
  }

  xicc::BatchOptions options;
  // One worker: the chunk scheduler, session pool and shared memo still do
  // the work, but parallel scaling is not measured. On the 4-vCPU build
  // box the host takes back 10-30% of CPU time in bursts whenever several
  // CPUs are busy; over ten seeds, 2-worker runs spread 0.33 in verdicts/s
  // (4 workers: ±25% over five), beyond any bound the benchmark may set.
  options.num_threads = 1;
  options.check.build_witness = false;
  const BatchStream stream(config.seed, &pool, schemas.size(), config.smoke);
  const double budget_ms = config.seconds * 1000.0;
  const uint64_t smoke_calls = config.smoke ? 8 : 0;
  const uint64_t window = config.smoke ? 2 : kBatchWindow;
  result.Note("batch.threads", static_cast<double>(options.num_threads));

  if (!config.trace) {
    Pass pass = RunBatchPass(compiled, stream, options, budget_ms,
                             config.smoke ? 0 : kMinP99Samples, smoke_calls,
                             window, nullptr, nullptr, &result);
    AddEndToEnd(config, pass.plain, setup_s, &result);
    result.Note("batch.calls", static_cast<double>(pass.ops));
    return result;
  }
  Tracer tracer(true);
  layers.coverage = LayerStats::Coverage::kBatchStages;
  Pass pass = RunBatchPass(compiled, stream, options, budget_ms, 0,
                           smoke_calls, window, &tracer, &layers, &result);
  layers.overhead_share = Overhead(pass.traced, pass.plain);
  result.attempted = pass.plain.attempted + pass.traced.attempted;
  result.failed = pass.plain.failed + pass.traced.failed;
  AddLayerMetrics(tracer, layers, &result);
  if (!config.trace_out.empty()) (void)tracer.WriteTsv(config.trace_out);
  return result;
}

RunResult RunFreshOneshot(const RunConfig& config) {
  RunResult result;
  const std::vector<Schema> schemas = MakeSchemas();
  std::vector<Spec> pool =
      MakeFreshPool(schemas, config.seed, config.smoke ? 64 : 2048);
  // Set-up warms up on one spec of every schema × cell, the same 64 specs
  // for every seed, so set-up does equal work in every run.
  std::vector<Spec> warm = MakeFreshPool(schemas, kWarmUpSeed, 64);
  std::string why;
  // The timed loop is the fresh path itself.
  const int64_t record_start = NowNs();
  if (!RecordSpecs(schemas, /*with_fresh=*/false, &pool, &why) ||
      !RecordSpecs(schemas, /*with_fresh=*/false, &warm, &why)) {
    result.GateFailure(why);
    return result;
  }
  result.Note("record_s", NsToMs(NowNs() - record_start) / 1000.0);
  // The witness re-check matches content models through frozen automata
  // built here, once, instead of rebuilding them per witness.
  std::vector<xicc::CompiledContentModels> models;
  for (const Schema& schema : schemas) {
    models.push_back(xicc::CompiledContentModels::Build(schema.dtd));
  }
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    RunFreshPass(schemas, models, warm, 0, 0, warm.size(), kFreshWindow,
                 nullptr, nullptr, &result);
    setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
  }
  if (!result.correct) return result;

  const double budget_ms = config.seconds * 1000.0;
  const uint64_t smoke_ops = config.smoke ? pool.size() : 0;
  const uint64_t window = config.smoke ? 16 : kFreshWindow;
  const size_t min_ops = config.smoke ? 0 : kMinP99Samples;
  if (!config.trace) {
    Pass pass = RunFreshPass(schemas, models, pool, budget_ms, min_ops,
                             smoke_ops, window, nullptr, nullptr, &result);
    AddEndToEnd(config, pass.plain, setup_s, &result);
    return result;
  }
  Tracer tracer(true);
  LayerStats layers;
  layers.coverage = LayerStats::Coverage::kNone;
  Pass pass = RunFreshPass(schemas, models, pool, budget_ms, 0, smoke_ops,
                           window, &tracer, &layers, &result);
  layers.overhead_share = Overhead(pass.traced, pass.plain);
  result.attempted = pass.plain.attempted + pass.traced.attempted;
  result.failed = pass.plain.failed + pass.traced.failed;
  AddLayerMetrics(tracer, layers, &result);
  if (!config.trace_out.empty()) (void)tracer.WriteTsv(config.trace_out);
  return result;
}

}  // namespace xbench
