// authoring_session and gadget_oneshot: closed-loop traffic over one
// connection to an in-process xiccd with one worker.
//
// The untraced run measures the end-to-end metrics. The traced run replays
// one stream three times — untraced on the wire, with client spans on the
// wire, and in-process through the calls the daemon's dispatcher makes —
// and derives every per-layer metric from the last two.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/deadline.h"
#include "constraints/constraint_parser.h"
#include "core/artifact_cache.h"
#include "core/implication.h"
#include "daemon.h"
#include "dtd/dtd_parser.h"
#include "layers.h"
#include "net/protocol.h"
#include "specs.h"
#include "workloads.h"

namespace xbench {

using xicc::net::JsonValue;

namespace {

JsonValue Request(const char* verb, int64_t id) {
  JsonValue v = JsonValue::Object();
  v.Set("verb", JsonValue::Str(verb)).Set("id", JsonValue::Int(id));
  return v;
}

/// One wire operation: its verb, the request line, and what a correct
/// response must say.
struct WireOp {
  const char* verb = "";
  /// The request; a session-scoped one gets its "session" member from the
  /// path that sends it (the daemon and the replay number sessions apart).
  JsonValue request;
  bool scoped = false;
  enum class Expect { kOk, kConsistent, kImplied } expect = Expect::kOk;
  bool verdict = false;

  /// The request line, naming `session` when the request is scoped.
  std::string Line(int64_t session) const {
    if (!scoped) return request.Dump();
    JsonValue v = request;
    v.Set("session", JsonValue::Int(session));
    return v.Dump();
  }
};

/// The operation stream of a run, generated one operation at a time.
/// Authoring streams are scripts replayed in a cycle.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Rewinds to the first operation.
  virtual void Reset() = 0;
  virtual WireOp Next(int64_t id) = 0;
  /// True when the next operation starts a new unit (script / gadget):
  /// runs stop only there, so replays see whole scripts.
  virtual bool AtBoundary() const = 0;
  /// True when the next operation starts a new window: a new pass over the
  /// script pool, or a new block of gadgets.
  virtual bool AtWindow() const = 0;
};

class ScriptStream : public Stream {
 public:
  ScriptStream(const std::vector<Schema>* schemas,
               const std::vector<Script>* scripts)
      : schemas_(schemas), scripts_(scripts) {}

  void Reset() override {
    script_ = 0;
    step_ = 0;
  }
  bool AtBoundary() const override { return step_ == 0; }
  bool AtWindow() const override {
    return step_ == 0 && script_ % scripts_->size() == 0;
  }

  WireOp Next(int64_t id) override {
    const Script& script = (*scripts_)[script_ % scripts_->size()];
    WireOp op;
    const size_t step = step_++;
    if (step == 0) {
      op.verb = "open";
      op.request = Request("open", id);
      op.request.Set("dtd",
                     JsonValue::Str((*schemas_)[script.schema].wire_text));
      if (script.witness) op.request.Set("witness", JsonValue::Bool(true));
      return op;
    }
    op.scoped = true;
    if (step == script.steps.size() + 1) {
      op.verb = "close";
      op.request = Request("close", id);
      ++script_;
      step_ = 0;
      return op;
    }
    const ScriptStep& s = script.steps[step - 1];
    JsonValue v;
    switch (s.kind) {
      case ScriptStep::Kind::kCheck:
        op.verb = "check";
        v = Request("check", id);
        v.Set("sigma", JsonValue::Str(s.text));
        op.expect = WireOp::Expect::kConsistent;
        break;
      case ScriptStep::Kind::kCommit:
        op.verb = "commit";
        v = Request("commit", id);
        v.Set("sigma", JsonValue::Str(s.text));
        break;
      case ScriptStep::Kind::kImplies:
        op.verb = "implies";
        v = Request("implies", id);
        v.Set("phi", JsonValue::Str(s.text));
        op.expect = WireOp::Expect::kImplied;
        break;
      case ScriptStep::Kind::kRollback:
        op.verb = "rollback";
        v = Request("rollback", id);
        break;
    }
    if (s.kind == ScriptStep::Kind::kCheck ||
        s.kind == ScriptStep::Kind::kImplies) {
      v.Set("timeout_ms", JsonValue::Int(kRequestTimeoutMs));
    }
    op.verdict = s.expect;
    op.request = std::move(v);
    return op;
  }

 private:
  const std::vector<Schema>* schemas_;
  const std::vector<Script>* scripts_;
  size_t script_ = 0;
  size_t step_ = 0;
};

/// The set-up's warm-up gadgets take indices no timed stream reaches.
constexpr uint64_t kWarmUpIndex = uint64_t{1} << 40;

/// Gadgets per window: three times the daemon's 16-entry artifact memory
/// tier, the cycle the fixed-pool design of this workload was sized to.
constexpr uint64_t kGadgetWindow = 48;

class GadgetStream : public Stream {
 public:
  GadgetStream(uint64_t seed, uint64_t window) : seed_(seed), window_(window) {}
  void Reset() override { k_ = 0; }
  bool AtBoundary() const override { return true; }
  bool AtWindow() const override { return k_ % window_ == 0; }
  WireOp Next(int64_t id) override {
    const Gadget gadget = MakeGadget(seed_, k_++);
    WireOp op;
    op.verb = "check";
    op.request = OneShotCheck(id, gadget.dtd_text, gadget.sigma_text);
    op.expect = WireOp::Expect::kConsistent;
    op.verdict = gadget.expect;
    return op;
  }

 private:
  uint64_t seed_;
  uint64_t window_;
  uint64_t k_ = 0;
};

/// Checks one response against its operation. Returns false on a failed
/// operation (no verdict / not ok); a wrong verdict is a gate failure.
bool Judge(const WireOp& op, const JsonValue& response, RunResult* result) {
  if (!response.GetBool("ok", false)) return false;
  const char* field = nullptr;
  if (op.expect == WireOp::Expect::kConsistent) field = "consistent";
  if (op.expect == WireOp::Expect::kImplied) field = "implied";
  if (field != nullptr) {
    const JsonValue* verdict = response.Find(field);
    if (verdict == nullptr || !verdict->is_bool()) return false;
    if (verdict->AsBool() != op.verdict) {
      result->GateFailure(std::string(op.verb) + " answered " +
                          (verdict->AsBool() ? "true" : "false") +
                          ", the record says otherwise: " +
                          op.request.Dump());
    }
  }
  return true;
}

/// Starts the daemon and warms it: one `open`/`close` per schema (the
/// artifact memory tier then holds every schema), or four gadget checks.
xicc::Status SetUp(LocalDaemon* daemon, const std::vector<Schema>* schemas) {
  XICC_RETURN_IF_ERROR(daemon->Start());
  int64_t id = 0;
  if (schemas != nullptr) {
    for (const Schema& schema : *schemas) {
      auto opened = daemon->client().Call(
          Request("open", ++id).Set("dtd", JsonValue::Str(schema.wire_text)));
      if (!opened.ok()) return opened.status();
      if (!opened->GetBool("ok", false)) {
        return xicc::Status::Internal("warm-up open failed: " +
                                      opened->Dump());
      }
      auto closed = daemon->client().Call(
          Request("close", ++id)
              .Set("session",
                   JsonValue::Int(opened->GetInt("session", 0))));
      if (!closed.ok()) return closed.status();
    }
    return xicc::Status::Ok();
  }
  // Gadget warm-up: the same four gadgets for every seed, so set-up does
  // equal work in every run.
  for (uint64_t k = 0; k < 4; ++k) {
    const Gadget gadget = MakeGadget(kWarmUpSeed, kWarmUpIndex + k);
    auto checked = daemon->client().Call(
        OneShotCheck(++id, gadget.dtd_text, gadget.sigma_text));
    if (!checked.ok()) return checked.status();
  }
  return xicc::Status::Ok();
}

uint64_t ServerFailures(const xicc::net::ServerStats& s) {
  return s.responses_invalid_argument + s.responses_deadline_exceeded +
         s.responses_cancelled + s.responses_unavailable +
         s.responses_internal + s.shed_requests + s.malformed_frames +
         s.oversize_frames + s.read_faults + s.write_faults;
}

// ---- The in-process replay --------------------------------------------------

/// The calls xiccd's dispatcher makes for each verb, in its order, each
/// wrapped in a span: ParseJson, ParseRequest, ParseDtd,
/// ArtifactCache::GetOrCompile, ParseConstraints, the SpecSession
/// constructor, Check/Commit/Implies/Rollback, and JsonValue::Dump. Same
/// options as the daemon: memo 128 for sessions, 0 for one-shot checks,
/// a timeout_ms deadline, a 16-entry memory-only artifact cache.
class Replayer {
 public:
  Replayer(Tracer* tracer, LayerStats* layers)
      : tracer_(tracer),
        layers_(layers),
        cache_(xicc::ArtifactCache::Options{"", 16}) {}

  /// Handles one request line; returns the response (already dumped once,
  /// as the daemon does before writing it).
  JsonValue Handle(const char* verb, const std::string& line) {
    tracer_->BeginRequest();
    Span root(tracer_, verb);
    xicc::Result<JsonValue> envelope = [&] {
      Span span(tracer_, "net.json_parse");
      xicc::net::JsonLimits limits;
      limits.max_depth = 32;
      return xicc::net::ParseJson(line, limits);
    }();
    if (!envelope.ok()) return Error(envelope.status());
    xicc::Result<xicc::net::Request> parsed = [&] {
      Span span(tracer_, "net.request_parse");
      return xicc::net::ParseRequest(*envelope);
    }();
    if (!parsed.ok()) return Error(parsed.status());
    JsonValue response = Execute(*parsed);
    {
      Span span(tracer_, "net.dump");
      const std::string dumped = response.Dump();
      (void)dumped;
    }
    return response;
  }

  /// The daemon's warm-up, untraced and uncounted: every schema compiled
  /// into the artifact memory tier.
  void Warm(const std::vector<Schema>& schemas) {
    for (const Schema& schema : schemas) (void)cache_.GetOrCompile(schema.dtd);
    warm_lookups_ = schemas.size();
  }

  /// Folds the open sessions' counters and the artifact cache's tiers
  /// (warm-up excluded) into the layer stats.
  void Finish() {
    for (auto& [id, session] : sessions_) layers_->AddSession(session->stats());
    sessions_.clear();
    const xicc::ArtifactCacheStats cache = cache_.stats();
    layers_->memory_hits += static_cast<double>(cache.memory_hits);
    layers_->lookups += static_cast<double>(
        cache.memory_hits + cache.disk_hits + cache.cold_compiles -
        warm_lookups_);
  }

 private:
  JsonValue Error(const xicc::Status& status) {
    return xicc::net::MakeErrorResponse(JsonValue::Null(), status);
  }

  xicc::StopSignal Stop(const xicc::net::Request& req) {
    xicc::StopSignal stop;
    stop.deadline = xicc::Deadline::After(
        req.timeout_ms > 0 ? req.timeout_ms : 120'000);
    stop.cancel = &cancel_;
    return stop;
  }

  xicc::Result<std::shared_ptr<const xicc::CompiledDtd>> Compile(
      const std::string& text) {
    xicc::Result<xicc::Dtd> dtd = [&] {
      Span span(tracer_, "dtd.parse");
      return xicc::ParseDtd(text);
    }();
    if (!dtd.ok()) return dtd.status();
    xicc::Result<xicc::ArtifactCache::Lookup> lookup = [&] {
      Span span(tracer_, "artifact.lookup");
      return cache_.GetOrCompile(*dtd);
    }();
    if (!lookup.ok()) return lookup.status();
    if (lookup->source == xicc::ArtifactSource::kCold) {
      layers_->compile_ms += lookup->compiled->compile_ms;
      layers_->compiles += 1;
    }
    return std::move(lookup->compiled);
  }

  xicc::Result<xicc::ConstraintSet> Sigma(const std::string& text) {
    Span span(tracer_, "constraints.parse");
    return xicc::ParseConstraints(text);
  }

  JsonValue Verdict(const JsonValue& id,
                    const xicc::Result<xicc::ConsistencyResult>& result) {
    if (!result.ok()) return xicc::net::MakeErrorResponse(id, result.status());
    layers_->AddCheck(result->stats);
    JsonValue out = xicc::net::MakeOkResponse(id);
    out.Set("consistent", JsonValue::Bool(result->consistent));
    out.Set("class", JsonValue::Str(xicc::ConstraintClassName(
                         result->constraint_class)));
    out.Set("method", JsonValue::Str(result->method));
    if (result->witness.has_value()) {
      out.Set("witness_nodes",
              JsonValue::Int(static_cast<int64_t>(result->witness->size())));
    }
    out.Set("stats", StatsJson(result->stats));
    return out;
  }

  static JsonValue StatsJson(const xicc::ConsistencyStats& s) {
    JsonValue out = JsonValue::Object();
    out.Set("ilp_nodes", JsonValue::Int(static_cast<int64_t>(s.ilp_nodes)));
    out.Set("lp_pivots", JsonValue::Int(static_cast<int64_t>(s.lp_pivots)));
    out.Set("search_depth",
            JsonValue::Int(static_cast<int64_t>(s.search_depth)));
    out.Set("sigma_delta_checks",
            JsonValue::Int(static_cast<int64_t>(s.sigma_delta_checks)));
    out.Set("memo_hits", JsonValue::Int(static_cast<int64_t>(s.memo_hits)));
    out.Set("memo_misses",
            JsonValue::Int(static_cast<int64_t>(s.memo_misses)));
    return out;
  }

  xicc::SpecSession* Find(const xicc::net::Request& req) {
    auto it = sessions_.find(static_cast<int64_t>(req.session));
    return it == sessions_.end() ? nullptr : it->second.get();
  }

  JsonValue Execute(const xicc::net::Request& req) {
    using xicc::net::Verb;
    switch (req.verb) {
      case Verb::kOpen: {
        auto compiled = Compile(req.dtd);
        if (!compiled.ok()) return Error(compiled.status());
        xicc::ConsistencyOptions options;
        options.build_witness = req.build_witness;
        std::unique_ptr<xicc::SpecSession> session;
        {
          Span span(tracer_, "session.setup");
          session = std::make_unique<xicc::SpecSession>(
              std::move(*compiled), options, req.memo == 0 ? 128 : req.memo);
        }
        const int64_t id = ++next_session_;
        sessions_[id] = std::move(session);
        JsonValue out = xicc::net::MakeOkResponse(req.id);
        out.Set("session", JsonValue::Int(id));
        return out;
      }
      case Verb::kCheck: {
        auto sigma = Sigma(req.sigma);
        if (!sigma.ok()) return Error(sigma.status());
        if (req.has_session) {
          xicc::SpecSession* session = Find(req);
          if (session == nullptr) return Error(xicc::Status::InvalidArgument("unknown session"));
          session->SetStop(Stop(req));
          Span span(tracer_, "session.check");
          return Verdict(req.id, session->Check(*sigma));
        }
        auto compiled = Compile(req.dtd);
        if (!compiled.ok()) return Error(compiled.status());
        xicc::ConsistencyOptions options;
        options.build_witness = req.build_witness;
        options.min_witness_nodes = req.min_witness_nodes;
        options.stop = Stop(req);
        std::unique_ptr<xicc::SpecSession> session;
        {
          Span span(tracer_, "session.setup");
          session = std::make_unique<xicc::SpecSession>(std::move(*compiled),
                                                        options, 0);
        }
        JsonValue out;
        {
          Span span(tracer_, "session.check");
          out = Verdict(req.id, session->Check(*sigma));
        }
        layers_->AddSession(session->stats());
        return out;
      }
      case Verb::kImplies: {
        xicc::Result<xicc::Constraint> phi = [&] {
          Span span(tracer_, "constraints.parse");
          return xicc::ParseConstraint(req.phi);
        }();
        if (!phi.ok()) return Error(phi.status());
        xicc::SpecSession* session = Find(req);
        if (session == nullptr) return Error(xicc::Status::InvalidArgument("unknown session"));
        session->SetStop(Stop(req));
        xicc::Result<xicc::ImplicationResult> result = [&] {
          Span span(tracer_, "session.implies");
          return session->Implies(*phi);
        }();
        if (!result.ok()) return xicc::net::MakeErrorResponse(req.id, result.status());
        layers_->AddCheck(result->stats);
        JsonValue out = xicc::net::MakeOkResponse(req.id);
        out.Set("implied", JsonValue::Bool(result->implied));
        out.Set("method", JsonValue::Str(result->method));
        out.Set("stats", StatsJson(result->stats));
        return out;
      }
      case Verb::kCommit: {
        auto sigma = Sigma(req.sigma);
        if (!sigma.ok()) return Error(sigma.status());
        xicc::SpecSession* session = Find(req);
        if (session == nullptr) return Error(xicc::Status::InvalidArgument("unknown session"));
        Span span(tracer_, "session.commit");
        const xicc::Status status = session->Commit(*sigma);
        return status.ok() ? xicc::net::MakeOkResponse(req.id) : Error(status);
      }
      case Verb::kRollback: {
        xicc::SpecSession* session = Find(req);
        if (session == nullptr) return Error(xicc::Status::InvalidArgument("unknown session"));
        Span span(tracer_, "session.rollback");
        session->Rollback();
        return xicc::net::MakeOkResponse(req.id);
      }
      case Verb::kClose: {
        auto it = sessions_.find(static_cast<int64_t>(req.session));
        if (it == sessions_.end()) return Error(xicc::Status::InvalidArgument("unknown session"));
        layers_->AddSession(it->second->stats());
        Span span(tracer_, "session.close");
        sessions_.erase(it);
        return xicc::net::MakeOkResponse(req.id);
      }
      default:
        return Error(xicc::Status::InvalidArgument("verb not replayed"));
    }
  }

  Tracer* tracer_;
  LayerStats* layers_;
  xicc::ArtifactCache cache_;
  xicc::CancelToken cancel_;
  std::map<int64_t, std::unique_ptr<xicc::SpecSession>> sessions_;
  int64_t next_session_ = 0;
  size_t warm_lookups_ = 0;
};

/// What one pass over the wire measured. Untraced runs fill `plain`
/// only; traced runs alternate windows between `plain` and `traced`.
struct WirePass {
  OpSample plain;
  OpSample traced;
  /// Client spans of the traced windows.
  Tracer client{false};
  /// Per verb, round trip minus in-process replay of the same operation.
  std::map<std::string, std::vector<double>> wire_gap_ms;
  double request_bytes = 0.0;
  size_t ops = 0;
};

/// Drives the stream over the wire until `budget_ms` of timed wall time
/// and `min_ops` operations (or exactly `max_windows` windows when that is
/// > 0). With a replayer, odd windows are traced: each call gets a client
/// span and is replayed in-process right after its response.
WirePass RunWire(LocalDaemon* daemon, Stream* stream, double budget_ms,
                 size_t min_ops, size_t max_windows, Replayer* replayer,
                 RunResult* result) {
  WirePass pass;
  stream->Reset();
  int64_t id = 0;
  int64_t session = 0;
  int64_t replay_session = 0;
  size_t window = 0;
  while (result->correct) {
    if (stream->AtWindow() && pass.ops > 0) {
      pass.plain.CloseWindow();
      pass.traced.CloseWindow();
      ++window;
      if (max_windows > 0 && window >= max_windows) break;
    }
    if (max_windows == 0 && stream->AtBoundary() &&
        pass.plain.timed_ms + pass.traced.timed_ms >= budget_ms &&
        pass.ops >= min_ops) {
      break;
    }
    const bool traced = replayer != nullptr && window % 2 == 1;
    pass.client.set_enabled(traced);
    const WireOp op = stream->Next(++id);
    const std::string line = op.Line(session);
    pass.client.BeginRequest();
    const int64_t start = NowNs();
    xicc::Result<JsonValue> response = [&] {
      Span span(&pass.client, op.verb);
      return daemon->client().CallRaw(line);
    }();
    const double ms = NsToMs(NowNs() - start);
    const bool ok = response.ok() && Judge(op, *response, result);
    if (ok && std::string(op.verb) == "open") {
      session = response->GetInt("session", 0);
    }
    (traced ? pass.traced : pass.plain).Record(ms, 1, ok ? 0 : 1);
    ++pass.ops;
    if (!response.ok()) (void)daemon->Reconnect();
    if (!traced) continue;
    pass.request_bytes += static_cast<double>(line.size());
    const std::string replay_line = op.Line(replay_session);
    const int64_t replay_start = NowNs();
    const JsonValue replayed = replayer->Handle(op.verb, replay_line);
    pass.wire_gap_ms[op.verb].push_back(ms -
                                        NsToMs(NowNs() - replay_start));
    if (!Judge(op, replayed, result)) {
      result->GateFailure(std::string("in-process replay failed ") + op.verb +
                          ": " + replayed.Dump());
    }
    if (std::string(op.verb) == "open") {
      replay_session = replayed.GetInt("session", 0);
    }
  }
  pass.plain.CloseWindow();
  pass.traced.CloseWindow();
  return pass;
}

RunResult RunDaemonWorkload(const RunConfig& config,
                            const std::vector<Schema>* schemas,
                            Stream* stream) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<LocalDaemon> daemon;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();  // Drains and joins the previous repetition's server.
    daemon = std::make_unique<LocalDaemon>();
    const int64_t start = NowNs();
    const xicc::Status status = SetUp(daemon.get(), schemas);
    if (!status.ok()) {
      result.GateFailure("daemon set-up failed: " + status.ToString());
      return result;
    }
    setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
  }

  const double budget_ms = config.seconds * 1000.0;
  const size_t min_ops = config.smoke ? 0 : kMinP99Samples;
  // Smoke runs cover four windows, two of them traced.
  const size_t smoke_windows = config.smoke ? 4 : 0;
  if (!config.trace) {
    WirePass pass = RunWire(daemon.get(), stream, budget_ms, min_ops,
                            smoke_windows, nullptr, &result);
    AddEndToEnd(config, pass.plain, setup_s, &result);
    result.Note("server_failures",
                static_cast<double>(ServerFailures(daemon->server().stats())));
    return result;
  }

  // Traced run: windows alternate between untraced and traced; in a traced
  // window every wire call gets a client span and is followed at once by
  // its in-process replay, so both see the same moment of the machine.
  // The pass runs on its own thread: the daemon answers from a worker
  // thread, and the main thread's malloc arena (brk heap, trimmed on free)
  // made every replayed gadget check ~2.4 ms slower than the same call in
  // the daemon.
  Tracer replay_tracer(true);
  LayerStats layers;
  Replayer replayer(&replay_tracer, &layers);
  WirePass pass;
  std::thread runner([&] {
    if (schemas != nullptr) replayer.Warm(*schemas);
    pass = RunWire(daemon.get(), stream, budget_ms, 0, smoke_windows,
                   &replayer, &result);
  });
  runner.join();
  layers.wire_failed =
      static_cast<double>(ServerFailures(daemon->server().stats()));
  replayer.Finish();
  layers.request_bytes = pass.request_bytes;
  layers.ops = static_cast<double>(pass.traced.attempted);
  layers.overhead_share = Overhead(pass.traced, pass.plain);
  layers.wire_gap_ms = std::move(pass.wire_gap_ms);
  result.attempted = pass.plain.attempted + pass.traced.attempted;
  result.failed = pass.plain.failed + pass.traced.failed;
  AddLayerMetrics(replay_tracer, layers, &result);
  if (!config.trace_out.empty()) {
    (void)replay_tracer.WriteTsv(config.trace_out);
    (void)pass.client.WriteTsv(config.trace_out + ".client");
  }
  return result;
}

}  // namespace

RunResult RunAuthoringSession(const RunConfig& config) {
  const std::vector<Schema> schemas = MakeSchemas();
  std::vector<Script> scripts =
      MakeScripts(schemas, config.seed, config.smoke ? 2 : 96);
  std::string why;
  const int64_t record_start = NowNs();
  if (!RecordScripts(schemas, &scripts, &why)) {
    RunResult result;
    result.GateFailure(why);
    return result;
  }
  const double record_s = NsToMs(NowNs() - record_start) / 1000.0;
  ScriptStream stream(&schemas, &scripts);
  RunResult result = RunDaemonWorkload(config, &schemas, &stream);
  result.Note("record_s", record_s);
  return result;
}

RunResult RunGadgetOneshot(const RunConfig& config) {
  GadgetStream stream(config.seed, config.smoke ? 4 : kGadgetWindow);
  return RunDaemonWorkload(config, nullptr, &stream);
}

}  // namespace xbench
