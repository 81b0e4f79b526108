#include "net/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/deadline.h"
#include "base/faults.h"
#include "base/socket.h"
#include "base/thread_annotations.h"
#include "base/worksteal.h"
#include "constraints/constraint_parser.h"
#include "core/artifact_cache.h"
#include "core/batch.h"
#include "core/session_registry.h"
#include "dtd/dtd_parser.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/protocol.h"

namespace xicc {
namespace net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything the I/O thread and the workers share about one client. The
/// I/O thread owns fd/lines/outbox flushing; workers only ever append to
/// the outbox (under mu) and poke the atomics — they never touch the
/// descriptor, so there is exactly one reader and one writer per socket.
struct Connection {
  Connection(Fd socket, size_t max_line_bytes)
      : fd(std::move(socket)), lines(max_line_bytes) {}

  Fd fd;
  LineBuffer lines;
  /// Fires when the peer disconnects (or the drain deadline passes):
  /// every in-flight request on this connection runs under a StopSignal
  /// holding this token, so abandoned work stops at the next solver poll.
  CancelToken cancel;

  Mutex mu;  // xicc-analyze: lock-leaf
  /// Bytes awaiting the socket. Single-writer discipline: only the I/O
  /// thread flushes; workers append whole frames, so responses are never
  /// interleaved mid-line.
  std::string outbox XICC_GUARDED_BY(mu);
  bool dead XICC_GUARDED_BY(mu) = false;

  std::atomic<size_t> inflight{0};
  /// I/O-thread-only: when the outbox last made progress (stall detection).
  int64_t last_write_progress_ms = 0;
};

using ConnPtr = std::shared_ptr<Connection>;

JsonValue StatsField(uint64_t v) {
  return JsonValue::Int(static_cast<int64_t>(v));
}

}  // namespace

class ServerImpl {
 public:
  explicit ServerImpl(const ServerOptions& options)
      : options_(Normalize(options)),
        registry_(SessionRegistryLimits{options_.max_sessions,
                                        options_.quarantine_after_faults,
                                        options_.idle_session_ttl_ms}),
        artifacts_(ArtifactCache::Options{options_.artifact_dir,
                                          options_.artifact_memory_capacity}),
        pool_(options_.workers) {}

  Status Listen() {
    XICC_ASSIGN_OR_RETURN(listener_,
                          TcpListen(options_.port, options_.listen_backlog));
    XICC_ASSIGN_OR_RETURN(port_, LocalPort(listener_));
    XICC_ASSIGN_OR_RETURN(wake_, WakePipe::Create());
    return Status::Ok();
  }

  void StartIoThread() {
    io_thread_ = std::make_unique<ServiceThread>([this] { RunIoLoop(); });
  }

  uint16_t port() const { return port_; }

  void RequestShutdown() {
    // Async-signal-safe: one relaxed store + one pipe write.
    shutdown_requested_.store(true, std::memory_order_release);
    wake_.Wake();
  }

  void Wait() {
    // CondVar waits are quarantined to src/base; a bounded sleep-poll is
    // the sanctioned shape, and shutdown latency here is test-visible only.
    while (!stopped_.load(std::memory_order_acquire)) {
      SleepFor(2, nullptr);
    }
    io_thread_->Join();
  }

  bool Stopped() const { return stopped_.load(std::memory_order_acquire); }

  ServerStats stats() const {
    ServerStats out;
    out.connections_accepted = connections_accepted_.load();
    out.connections_shed = connections_shed_.load();
    out.accept_faults = accept_faults_.load();
    out.requests = requests_.load();
    out.responses_ok = responses_ok_.load();
    out.responses_invalid_argument = responses_invalid_argument_.load();
    out.responses_deadline_exceeded = responses_deadline_exceeded_.load();
    out.responses_cancelled = responses_cancelled_.load();
    out.responses_unavailable = responses_unavailable_.load();
    out.responses_internal = responses_internal_.load();
    out.shed_requests = shed_requests_.load();
    out.malformed_frames = malformed_frames_.load();
    out.oversize_frames = oversize_frames_.load();
    out.disconnect_cancels = disconnect_cancels_.load();
    out.read_faults = read_faults_.load();
    out.write_faults = write_faults_.load();
    const SessionRegistryStats s = registry_.stats();
    out.sessions_opened = s.opened;
    out.sessions_closed = s.closed;
    out.sessions_evicted = s.evicted;
    out.sessions_quarantined = s.quarantined;
    out.open_sessions = s.resident;
    out.open_connections = open_connections_.load();
    out.inflight = inflight_.load();
    out.draining = draining_.load();
    return out;
  }

 private:
  static ServerOptions Normalize(ServerOptions o) {
    if (o.workers == 0) o.workers = HardwareConcurrency();
    if (o.max_inflight == 0) o.max_inflight = 4 * o.workers;
    if (o.per_connection_inflight == 0) o.per_connection_inflight = 1;
    if (o.max_json_depth == 0) o.max_json_depth = 32;
    return o;
  }

  // ---- I/O thread ------------------------------------------------------

  void RunIoLoop() {
    std::unordered_map<int, ConnPtr> conns;
    bool listener_open = true;
    bool drain_cancelled = false;
    Deadline drain_deadline = Deadline::Infinite();

    for (;;) {
      const bool draining = draining_.load(std::memory_order_acquire);
      if (shutdown_requested_.load(std::memory_order_acquire) && !draining) {
        draining_.store(true, std::memory_order_release);
        drain_deadline = Deadline::After(options_.drain_deadline_ms);
        continue;
      }
      if (draining && listener_open) {
        listener_.Close();
        listener_open = false;
        drain_deadline = Deadline::After(options_.drain_deadline_ms);
      }
      if (draining && !drain_cancelled && drain_deadline.Expired()) {
        // The drain budget is spent: whatever is still running gets its
        // cancel token fired and finishes as CANCELLED.
        for (auto& [fd, conn] : conns) conn->cancel.Cancel();
        drain_cancelled = true;
      }
      if (draining && inflight_.load(std::memory_order_acquire) == 0) {
        bool flushed = true;
        for (auto& [fd, conn] : conns) {
          MutexLock lock(&conn->mu);
          if (!conn->dead && !conn->outbox.empty()) {
            flushed = false;
            break;
          }
        }
        // Give unflushed farewells until the drain deadline, then go.
        if (flushed || drain_cancelled) break;
      }

      // Build the poll set: wake pipe + listener + every live connection.
      std::vector<PollFd> wait;
      wait.push_back({wake_.read_fd(), true, false});
      if (listener_open) wait.push_back({listener_.get(), true, false});
      for (auto& [fd, conn] : conns) {
        bool want_write = false;
        bool dead = false;
        {
          MutexLock lock(&conn->mu);
          dead = conn->dead;
          want_write = !conn->outbox.empty() && !dead;
        }
        // Dead connections awaiting their in-flight workers are corpses,
        // not pollable sockets; re-polling them would spin on EOF.
        if (dead) continue;
        wait.push_back({fd, true, want_write});
      }

      std::vector<PollEvent> events;
      const auto polled = PollFds(wait, draining ? 10 : 100, &events);
      if (!polled.ok()) {
        // poll() itself failing (EBADF would be a server bug; ENOMEM a sick
        // host) — count it and keep serving; the loop's own checks bound
        // the damage.
        responses_internal_.fetch_add(1, std::memory_order_relaxed);
        SleepFor(5, nullptr);
        continue;
      }

      wake_.Drain();
      const int64_t now = NowMs();

      for (const PollEvent& ev : events) {
        if (ev.fd == wake_.read_fd()) continue;
        if (listener_open && ev.fd == listener_.get()) {
          AcceptPending(&conns, now);
          continue;
        }
        auto it = conns.find(ev.fd);
        if (it == conns.end()) continue;
        ConnPtr conn = it->second;
        bool drop = false;
        if (ev.readable) drop = !ReadPending(conn, now);
        if (!drop && ev.writable) FlushOutbox(conn, now);
        if (!drop && ev.closed && conn->inflight.load() == 0) {
          // Pure hangup with nothing in flight and nothing readable.
          MutexLock lock(&conn->mu);
          drop = conn->dead || conn->outbox.empty();
        }
        if (drop) DropConnection(&conns, it->first);
      }

      // Housekeeping on every pass: write-stall detection, corpse
      // collection, and the idle-session TTL sweep.
      std::vector<int> corpses;
      for (auto& [fd, conn] : conns) {
        bool dead;
        bool stalled = false;
        {
          MutexLock lock(&conn->mu);
          dead = conn->dead;
          if (!dead && !conn->outbox.empty() &&
              now - conn->last_write_progress_ms > options_.write_stall_ms) {
            stalled = true;
          }
        }
        if (stalled) {
          write_faults_.fetch_add(1, std::memory_order_relaxed);
          KillConnection(conn);
          dead = true;
        }
        if (dead && conn->inflight.load(std::memory_order_acquire) == 0) {
          corpses.push_back(fd);
        }
      }
      for (int fd : corpses) DropConnection(&conns, fd);
      registry_.SweepIdle(SessionRegistry::NowMs());
    }

    // Drain epilogue: every remaining connection is torn down; sessions
    // close so the accounting the soak test asserts on returns to zero.
    for (auto& [fd, conn] : conns) KillConnection(conn);
    conns.clear();
    registry_.CloseAll();
    stopped_.store(true, std::memory_order_release);
  }

  void AcceptPending(std::unordered_map<int, ConnPtr>* conns, int64_t now) {
    for (;;) {
      Fd accepted;
      const IoResult io = AcceptOne(listener_, &accepted);
      if (io.status == IoStatus::kWouldBlock) return;
      if (io.status != IoStatus::kOk) {
        accept_faults_.fetch_add(1, std::memory_order_relaxed);
        // Transient (ECONNABORTED, EMFILE, injected): the listener stays.
        return;
      }
      if (conns->size() >= options_.max_connections ||
          draining_.load(std::memory_order_acquire)) {
        // Shed at the door: a one-shot farewell (best effort — the buffer
        // of a fresh socket always has room for one small frame) and close.
        connections_shed_.fetch_add(1, std::memory_order_relaxed);
        const std::string line =
            MakeErrorResponse(JsonValue::Null(),
                              Status::Unavailable(
                                  draining_.load() ? "server is draining"
                                                   : "connection limit"),
                              options_.retry_after_ms)
                .Dump() +
            "\n";
        // The shed farewell is best-effort by contract; the socket closes
        // right after regardless of outcome.
        // xicc-lint: allow(void-discard)
        (void)WriteSome(accepted, line.data(), line.size());
        continue;
      }
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      auto conn =
          std::make_shared<Connection>(std::move(accepted),
                                       options_.max_line_bytes);
      conn->last_write_progress_ms = now;
      const int fd = conn->fd.get();
      conns->emplace(fd, std::move(conn));
      open_connections_.store(conns->size(), std::memory_order_relaxed);
    }
  }

  /// Reads until the socket would block, framing and dispatching complete
  /// lines. Returns false when the connection should be dropped.
  bool ReadPending(const ConnPtr& conn, int64_t now) {
    char buf[16 * 1024];
    for (;;) {
      const IoResult io = ReadSome(conn->fd, buf, sizeof(buf));
      if (io.status == IoStatus::kWouldBlock) break;
      if (io.status == IoStatus::kEof || io.status == IoStatus::kError) {
        if (io.status == IoStatus::kError) {
          read_faults_.fetch_add(1, std::memory_order_relaxed);
        }
        KillConnection(conn);
        return false;
      }
      conn->lines.Append(buf, io.bytes);
      std::string line;
      for (;;) {
        const LineBuffer::Next next = conn->lines.NextLine(&line);
        if (next == LineBuffer::Next::kNeedMore) break;
        if (next == LineBuffer::Next::kOversize) {
          oversize_frames_.fetch_add(1, std::memory_order_relaxed);
          Enqueue(conn,
                  MakeErrorResponse(
                      JsonValue::Null(),
                      Status::InvalidArgument(
                          "frame exceeds " +
                          std::to_string(options_.max_line_bytes) +
                          " bytes"))
                      .Dump(),
                  now);
          continue;
        }
        if (line.empty()) continue;  // Bare newlines are keep-alive noise.
        Dispatch(conn, std::move(line), now);
      }
    }
    return true;
  }

  /// Admission control + handoff to the pool. Runs on the I/O thread, so
  /// everything here is O(1): atomic window checks, no parsing.
  void Dispatch(const ConnPtr& conn, std::string line, int64_t now) {
    // The admission path's cancellation poll: a connection that was killed
    // (disconnect, drain deadline) admits nothing further — and every I/O
    // loop that calls Dispatch inherits this poll for the stop-poll
    // analysis.
    if (conn->cancel.Cancelled()) return;
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (XICC_FAULT_FIRES(kFrameDecode)) {
      // Injected decode fault: the frame is treated exactly like hostile
      // bytes — answered, counted, connection kept.
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      Enqueue(conn,
              MakeErrorResponse(JsonValue::Null(),
                                Status::InvalidArgument(
                                    "frame decode fault (injected)"))
                  .Dump(),
              now);
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      Shed(conn, "server is draining", now);
      return;
    }
    const size_t global = inflight_.load(std::memory_order_acquire);
    if (global >= options_.max_inflight) {
      Shed(conn, "server is at its in-flight request limit", now);
      return;
    }
    if (conn->inflight.load(std::memory_order_acquire) >=
        options_.per_connection_inflight) {
      Shed(conn, "connection pipeline limit reached", now);
      return;
    }
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    conn->inflight.fetch_add(1, std::memory_order_acq_rel);
    ConnPtr shared = conn;
    std::string owned = std::move(line);
    pool_.Submit([this, shared = std::move(shared),
                  owned = std::move(owned)]() mutable {
      HandleRequest(shared, owned);
      shared->inflight.fetch_sub(1, std::memory_order_acq_rel);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      // The I/O thread may be waiting on this completion (drain, or a
      // response to flush).
      wake_.Wake();
    });
  }

  void Shed(const ConnPtr& conn, const std::string& why, int64_t now) {
    shed_requests_.fetch_add(1, std::memory_order_relaxed);
    Enqueue(conn,
            MakeErrorResponse(JsonValue::Null(), Status::Unavailable(why),
                              options_.retry_after_ms)
                .Dump(),
            now);
  }

  /// Appends one framed response to the connection's outbox (worker- and
  /// I/O-thread-callable) and tallies its outcome class.
  void Enqueue(const ConnPtr& conn, std::string line, int64_t now) {
    CountResponseLine(line);
    line.push_back('\n');
    {
      MutexLock lock(&conn->mu);
      if (conn->dead) return;
      if (conn->outbox.empty()) conn->last_write_progress_ms = now;
      conn->outbox.append(line);
    }
    wake_.Wake();
  }

  void CountResponseLine(const std::string& line) {
    // Responses are built by MakeOkResponse/MakeErrorResponse, so the
    // class is readable from the serialized prefix without re-parsing.
    auto has = [&line](const char* needle) {
      return line.find(needle) != std::string::npos;
    };
    if (has("\"ok\":true")) {
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
    } else if (has("\"error\":\"INVALID_ARGUMENT\"")) {
      responses_invalid_argument_.fetch_add(1, std::memory_order_relaxed);
    } else if (has("\"error\":\"DEADLINE_EXCEEDED\"")) {
      responses_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    } else if (has("\"error\":\"CANCELLED\"")) {
      responses_cancelled_.fetch_add(1, std::memory_order_relaxed);
    } else if (has("\"error\":\"UNAVAILABLE\"")) {
      responses_unavailable_.fetch_add(1, std::memory_order_relaxed);
    } else {
      responses_internal_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void FlushOutbox(const ConnPtr& conn, int64_t now) {
    MutexLock lock(&conn->mu);
    if (conn->dead) return;
    while (!conn->outbox.empty()) {
      const IoResult io =
          WriteSome(conn->fd, conn->outbox.data(), conn->outbox.size());
      if (io.status == IoStatus::kOk) {
        conn->outbox.erase(0, io.bytes);
        conn->last_write_progress_ms = now;
        continue;
      }
      if (io.status == IoStatus::kWouldBlock) return;
      // kError/kEof: the peer is gone; reads will confirm, but stop
      // buffering now.
      write_faults_.fetch_add(1, std::memory_order_relaxed);
      conn->dead = true;
      conn->outbox.clear();
      conn->outbox.shrink_to_fit();
      return;
    }
  }

  /// Marks a connection dead and cancels its in-flight work. The fd itself
  /// closes when the last worker's shared_ptr drops.
  void KillConnection(const ConnPtr& conn) {
    {
      MutexLock lock(&conn->mu);
      if (conn->dead) return;
      conn->dead = true;
      conn->outbox.clear();
      conn->outbox.shrink_to_fit();
    }
    const size_t inflight = conn->inflight.load(std::memory_order_acquire);
    if (inflight > 0) {
      disconnect_cancels_.fetch_add(inflight, std::memory_order_relaxed);
      conn->cancel.Cancel();
    }
  }

  void DropConnection(std::unordered_map<int, ConnPtr>* conns, int fd) {
    auto it = conns->find(fd);
    if (it == conns->end()) return;
    KillConnection(it->second);
    if (it->second->inflight.load(std::memory_order_acquire) > 0) {
      // Workers still hold it; the corpse sweep retires it once they wake
      // from the cancel and finish. Keep it out of the poll set by marking
      // dead (done) but leave the map entry so the sweep finds it.
      return;
    }
    conns->erase(it);
    open_connections_.store(conns->size(), std::memory_order_relaxed);
  }

  // ---- Workers ---------------------------------------------------------

  void HandleRequest(const ConnPtr& conn, const std::string& line) {
    const int64_t now = NowMs();
    JsonLimits limits;
    limits.max_depth = options_.max_json_depth;
    Result<JsonValue> envelope = ParseJson(line, limits);
    if (!envelope.ok()) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      Enqueue(conn,
              MakeErrorResponse(JsonValue::Null(), envelope.status()).Dump(),
              now);
      return;
    }
    Result<Request> parsed = ParseRequest(*envelope);
    if (!parsed.ok()) {
      const JsonValue* id = envelope->Find("id");
      Enqueue(conn,
              MakeErrorResponse(id == nullptr ? JsonValue::Null() : *id,
                                parsed.status())
                  .Dump(),
              now);
      return;
    }
    Enqueue(conn, Execute(conn, *parsed).Dump(), NowMs());
  }

  StopSignal MakeStop(const ConnPtr& conn, int64_t timeout_ms) {
    StopSignal stop;
    int64_t budget = timeout_ms;
    if (options_.max_timeout_ms > 0 &&
        (budget == 0 || budget > options_.max_timeout_ms)) {
      budget = options_.max_timeout_ms;
    }
    if (budget > 0) stop.deadline = Deadline::After(budget);
    stop.cancel = &conn->cancel;
    return stop;
  }

  static bool IsFaultOutcome(const Status& status) {
    return status.code() == StatusCode::kDeadlineExceeded ||
           status.code() == StatusCode::kCancelled ||
           status.code() == StatusCode::kResourceExhausted;
  }

  static JsonValue StatsJson(const ConsistencyStats& stats) {
    JsonValue out = JsonValue::Object();
    out.Set("ilp_nodes", StatsField(stats.ilp_nodes));
    out.Set("lp_pivots", StatsField(stats.lp_pivots));
    out.Set("search_depth", StatsField(stats.search_depth));
    out.Set("sigma_delta_checks", StatsField(stats.sigma_delta_checks));
    out.Set("memo_hits", StatsField(stats.memo_hits));
    out.Set("memo_misses", StatsField(stats.memo_misses));
    return out;
  }

  /// Error response with the stopped search's partial statistics attached —
  /// the "how far did it get" a caller needs to choose a better budget.
  JsonValue ErrorWithPartial(const JsonValue& id, const Status& status,
                             const ConsistencyStats& partial) {
    JsonValue out = MakeErrorResponse(id, status);
    if (status.code() == StatusCode::kDeadlineExceeded ||
        status.code() == StatusCode::kCancelled) {
      out.Set("partial", StatsJson(partial));
    }
    return out;
  }

  JsonValue Execute(const ConnPtr& conn, const Request& req) {
    switch (req.verb) {
      case Verb::kPing:
        return MakeOkResponse(req.id);
      case Verb::kStats:
        return DoStats(req);
      case Verb::kShutdown: {
        RequestShutdown();
        return MakeOkResponse(req.id);
      }
      case Verb::kOpen:
        return DoOpen(req);
      case Verb::kCheck:
        return DoCheck(conn, req);
      case Verb::kImplies:
        return DoImplies(conn, req);
      case Verb::kCommit:
      case Verb::kRollback:
        return DoSessionEdit(req);
      case Verb::kClose: {
        const Status status = registry_.CloseSession(req.session);
        return status.ok() ? MakeOkResponse(req.id)
                           : MakeErrorResponse(req.id, status);
      }
      case Verb::kBatch:
        return DoBatch(conn, req);
    }
    return MakeErrorResponse(req.id,
                             Status::Internal("unreachable verb"));
  }

  JsonValue DoStats(const Request& req) {
    const ServerStats s = stats();
    JsonValue out = MakeOkResponse(req.id);
    JsonValue body = JsonValue::Object();
    body.Set("connections_accepted", StatsField(s.connections_accepted));
    body.Set("connections_shed", StatsField(s.connections_shed));
    body.Set("accept_faults", StatsField(s.accept_faults));
    body.Set("requests", StatsField(s.requests));
    body.Set("responses_ok", StatsField(s.responses_ok));
    body.Set("responses_invalid_argument",
             StatsField(s.responses_invalid_argument));
    body.Set("responses_deadline_exceeded",
             StatsField(s.responses_deadline_exceeded));
    body.Set("responses_cancelled", StatsField(s.responses_cancelled));
    body.Set("responses_unavailable", StatsField(s.responses_unavailable));
    body.Set("responses_internal", StatsField(s.responses_internal));
    body.Set("shed_requests", StatsField(s.shed_requests));
    body.Set("malformed_frames", StatsField(s.malformed_frames));
    body.Set("oversize_frames", StatsField(s.oversize_frames));
    body.Set("disconnect_cancels", StatsField(s.disconnect_cancels));
    body.Set("read_faults", StatsField(s.read_faults));
    body.Set("write_faults", StatsField(s.write_faults));
    body.Set("sessions_opened", StatsField(s.sessions_opened));
    body.Set("sessions_closed", StatsField(s.sessions_closed));
    body.Set("sessions_evicted", StatsField(s.sessions_evicted));
    body.Set("sessions_quarantined", StatsField(s.sessions_quarantined));
    body.Set("open_connections", StatsField(s.open_connections));
    body.Set("open_sessions", StatsField(s.open_sessions));
    body.Set("inflight", StatsField(s.inflight));
    body.Set("draining", JsonValue::Bool(s.draining));
    out.Set("stats", std::move(body));
    return out;
  }

  Result<std::shared_ptr<const CompiledDtd>> CompileFromText(
      const std::string& dtd_text, const char** source_name) {
    XICC_ASSIGN_OR_RETURN(Dtd dtd, ParseDtd(dtd_text));
    XICC_ASSIGN_OR_RETURN(ArtifactCache::Lookup lookup,
                          artifacts_.GetOrCompile(dtd));
    if (source_name != nullptr) {
      *source_name = ArtifactSourceName(lookup.source);
    }
    return std::move(lookup.compiled);
  }

  JsonValue DoOpen(const Request& req) {
    const char* source = "cold";
    auto compiled = CompileFromText(req.dtd, &source);
    if (!compiled.ok()) return MakeErrorResponse(req.id, compiled.status());
    ConsistencyOptions options;
    options.build_witness = req.build_witness;
    const size_t memo =
        req.memo == 0 ? options_.memo_capacity : req.memo;
    auto opened = registry_.Open(std::move(*compiled), options, memo);
    if (!opened.ok()) {
      return MakeErrorResponse(req.id, opened.status(),
                               options_.retry_after_ms);
    }
    JsonValue out = MakeOkResponse(req.id);
    out.Set("session", JsonValue::Int(static_cast<int64_t>(*opened)));
    out.Set("artifact_source", JsonValue::Str(source));
    return out;
  }

  JsonValue CheckResultJson(const JsonValue& id,
                            const ConsistencyResult& result) {
    JsonValue out = MakeOkResponse(id);
    out.Set("consistent", JsonValue::Bool(result.consistent));
    out.Set("class",
            JsonValue::Str(ConstraintClassName(result.constraint_class)));
    out.Set("method", JsonValue::Str(result.method));
    if (result.witness.has_value()) {
      out.Set("witness_nodes",
              JsonValue::Int(static_cast<int64_t>(result.witness->size())));
    }
    out.Set("stats", StatsJson(result.stats));
    return out;
  }

  /// Runs `body(session)` against the registry session `id` under the
  /// checkout protocol, classifying the outcome for quarantine accounting.
  template <typename Body>
  JsonValue WithSession(const Request& req, Body body) {
    auto acquired = registry_.Acquire(req.session);
    if (!acquired.ok()) {
      const bool retryable =
          acquired.status().code() == StatusCode::kUnavailable;
      return MakeErrorResponse(req.id, acquired.status(),
                               retryable ? options_.retry_after_ms : 0);
    }
    SpecSession* session = *acquired;
    JsonValue response = body(session);
    // A deadline/cancel/shed outcome bumps the session's fault streak; any
    // verdict (or caller error) resets it.
    const bool faulted =
        response.Find("error") != nullptr &&
        (response.GetString("error", "") == "DEADLINE_EXCEEDED" ||
         response.GetString("error", "") == "CANCELLED");
    // Disarm before returning to the table: the next request arms its own.
    session->SetStop(StopSignal());
    registry_.Release(req.session, faulted);
    return response;
  }

  JsonValue DoCheck(const ConnPtr& conn, const Request& req) {
    auto sigma = ParseConstraints(req.sigma);
    if (!sigma.ok()) return MakeErrorResponse(req.id, sigma.status());
    const StopSignal stop = MakeStop(conn, req.timeout_ms);
    if (req.has_session) {
      return WithSession(req, [&](SpecSession* session) {
        session->SetStop(stop);
        auto result = session->Check(*sigma);
        if (!result.ok()) {
          return ErrorWithPartial(req.id, result.status(),
                                  session->LastPartialStats());
        }
        return CheckResultJson(req.id, *result);
      });
    }
    // One-shot: compile (artifact-cached) and run through a throwaway
    // session so the warm-start path is identical to the session path.
    auto compiled = CompileFromText(req.dtd, nullptr);
    if (!compiled.ok()) return MakeErrorResponse(req.id, compiled.status());
    ConsistencyOptions options;
    options.build_witness = req.build_witness;
    options.min_witness_nodes = req.min_witness_nodes;
    options.stop = stop;
    SpecSession session(std::move(*compiled), options, /*memo_capacity=*/0);
    auto result = session.Check(*sigma);
    if (!result.ok()) {
      return ErrorWithPartial(req.id, result.status(),
                              session.LastPartialStats());
    }
    return CheckResultJson(req.id, *result);
  }

  JsonValue DoImplies(const ConnPtr& conn, const Request& req) {
    auto phi = ParseConstraint(req.phi);
    if (!phi.ok()) return MakeErrorResponse(req.id, phi.status());
    const StopSignal stop = MakeStop(conn, req.timeout_ms);
    auto render = [this, &req](SpecSession* session,
                               const Result<ImplicationResult>& result) {
      if (!result.ok()) {
        return ErrorWithPartial(req.id, result.status(),
                                session->LastPartialStats());
      }
      JsonValue out = MakeOkResponse(req.id);
      out.Set("implied", JsonValue::Bool(result->implied));
      out.Set("method", JsonValue::Str(result->method));
      if (result->counterexample.has_value()) {
        out.Set("counterexample_nodes",
                JsonValue::Int(
                    static_cast<int64_t>(result->counterexample->size())));
      }
      out.Set("stats", StatsJson(result->stats));
      return out;
    };
    if (req.has_session) {
      return WithSession(req, [&](SpecSession* session) {
        session->SetStop(stop);
        return render(session, session->Implies(*phi));
      });
    }
    auto compiled = CompileFromText(req.dtd, nullptr);
    if (!compiled.ok()) return MakeErrorResponse(req.id, compiled.status());
    ConstraintSet sigma;
    if (req.has_sigma) {
      auto parsed = ParseConstraints(req.sigma);
      if (!parsed.ok()) return MakeErrorResponse(req.id, parsed.status());
      sigma = std::move(*parsed);
    }
    ConsistencyOptions options;
    options.stop = stop;
    options.build_witness = req.build_witness;
    SpecSession session(std::move(*compiled), options, /*memo_capacity=*/0);
    const Status committed = session.Commit(sigma);
    if (!committed.ok()) return MakeErrorResponse(req.id, committed);
    return render(&session, session.Implies(*phi));
  }

  JsonValue DoSessionEdit(const Request& req) {
    if (req.verb == Verb::kRollback) {
      return WithSession(req, [&](SpecSession* session) {
        session->Rollback();
        return MakeOkResponse(req.id);
      });
    }
    auto sigma = ParseConstraints(req.sigma);
    if (!sigma.ok()) return MakeErrorResponse(req.id, sigma.status());
    return WithSession(req, [&](SpecSession* session) {
      const Status status = session->Commit(*sigma);
      return status.ok() ? MakeOkResponse(req.id)
                         : MakeErrorResponse(req.id, status);
    });
  }

  JsonValue DoBatch(const ConnPtr& conn, const Request& req) {
    if (req.sigmas.size() > options_.max_batch_items) {
      return MakeErrorResponse(
          req.id, Status::InvalidArgument(
                      "batch of " + std::to_string(req.sigmas.size()) +
                      " items exceeds the " +
                      std::to_string(options_.max_batch_items) + " cap"));
    }
    auto compiled = CompileFromText(req.dtd, nullptr);
    if (!compiled.ok()) return MakeErrorResponse(req.id, compiled.status());
    // A rotten item degrades to a per-item INVALID_ARGUMENT row; it must
    // not sink the rest of the batch.
    std::vector<ConstraintSet> queries;
    std::vector<Status> item_errors(req.sigmas.size(), Status::Ok());
    queries.reserve(req.sigmas.size());
    for (size_t i = 0; i < req.sigmas.size(); ++i) {
      auto parsed = ParseConstraints(req.sigmas[i]);
      if (!parsed.ok()) {
        item_errors[i] = Status::InvalidArgument(
            "sigmas[" + std::to_string(i) + "]: " +
            std::string(parsed.status().message()));
        continue;
      }
      queries.push_back(std::move(*parsed));
    }
    BatchOptions options;
    // The batch runs inline on THIS worker; extra workers would nest a pool
    // inside the pool, so the thread request is capped hard.
    options.num_threads =
        req.threads == 0
            ? 1
            : std::min(req.threads, options_.max_batch_threads);
    options.memo_capacity = options_.memo_capacity;
    options.item_timeout_ms = req.item_timeout_ms;
    const StopSignal stop = MakeStop(conn, req.timeout_ms);
    options.check.stop = stop;
    options.cancel = stop.cancel;
    BatchDegradedStats degraded;
    BatchRunStats run;
    const std::vector<BatchItemResult> results =
        CheckBatch(std::move(*compiled), queries, options, &degraded, &run);
    JsonValue out = MakeOkResponse(req.id);
    JsonValue items = JsonValue::Array();
    size_t next_result = 0;
    for (size_t i = 0; i < req.sigmas.size(); ++i) {
      JsonValue row = JsonValue::Object();
      if (!item_errors[i].ok()) {
        row.Set("status", JsonValue::Str(WireErrorClass(
                              item_errors[i].code())));
        row.Set("message",
                JsonValue::Str(std::string(item_errors[i].message())));
      } else if (next_result < results.size()) {
        const BatchItemResult& item = results[next_result++];
        if (item.status.ok()) {
          row.Set("status", JsonValue::Str("ok"));
          row.Set("consistent", JsonValue::Bool(item.result.consistent));
        } else {
          const char* wire = WireErrorClass(item.status.code());
          row.Set("status",
                  JsonValue::Str(wire == nullptr ? "INTERNAL" : wire));
          row.Set("message",
                  JsonValue::Str(std::string(item.status.message())));
        }
      } else {
        // CheckBatch returned fewer rows than queries (cancelled mid-run);
        // the unstarted tail reports CANCELLED, not silence.
        row.Set("status", JsonValue::Str("CANCELLED"));
      }
      items.Push(std::move(row));
    }
    out.Set("results", std::move(items));
    JsonValue deg = JsonValue::Object();
    deg.Set("deadline_exceeded", StatsField(degraded.deadline_exceeded));
    deg.Set("cancelled", StatsField(degraded.cancelled));
    deg.Set("resource_exhausted", StatsField(degraded.resource_exhausted));
    deg.Set("retries", StatsField(degraded.retries));
    deg.Set("retry_rescues", StatsField(degraded.retry_rescues));
    deg.Set("quarantined", StatsField(degraded.quarantined));
    out.Set("degraded", std::move(deg));
    out.Set("workers", StatsField(run.workers));
    return out;
  }

  // ---- State -----------------------------------------------------------

  const ServerOptions options_;
  Fd listener_;
  uint16_t port_ = 0;
  WakePipe wake_;

  SessionRegistry registry_;
  ArtifactCache artifacts_;
  WorkStealingPool pool_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> open_connections_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> accept_faults_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_invalid_argument_{0};
  std::atomic<uint64_t> responses_deadline_exceeded_{0};
  std::atomic<uint64_t> responses_cancelled_{0};
  std::atomic<uint64_t> responses_unavailable_{0};
  std::atomic<uint64_t> responses_internal_{0};
  std::atomic<uint64_t> shed_requests_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> oversize_frames_{0};
  std::atomic<uint64_t> disconnect_cancels_{0};
  std::atomic<uint64_t> read_faults_{0};
  std::atomic<uint64_t> write_faults_{0};

  /// Declared last: destroyed (joined) first. By the time any other member
  /// dies, the I/O thread has exited.
  std::unique_ptr<ServiceThread> io_thread_;
};

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  auto impl = std::make_unique<ServerImpl>(options);
  XICC_RETURN_IF_ERROR(impl->Listen());
  impl->StartIoThread();
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

Server::Server(std::unique_ptr<ServerImpl> impl) : impl_(std::move(impl)) {}

Server::~Server() {
  if (impl_ != nullptr) {
    impl_->RequestShutdown();
    impl_->Wait();
  }
}

uint16_t Server::port() const { return impl_->port(); }
void Server::RequestShutdown() { impl_->RequestShutdown(); }
void Server::Wait() { impl_->Wait(); }
bool Server::Stopped() const { return impl_->Stopped(); }
ServerStats Server::stats() const { return impl_->stats(); }

}  // namespace net
}  // namespace xicc
