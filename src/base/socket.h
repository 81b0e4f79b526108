#pragma once

// The sanctioned raw-syscall boundary for networking.
//
// Everything the daemon layer (src/net) does to a file descriptor goes
// through the wrappers here; the raw-syscall extension of the
// raw-blocking lint rule bans ::socket/::accept/::recv/::poll and friends
// everywhere else, the same way raw sleeps are quarantined to
// base/deadline.h. The wrappers encode the three invariants the robustness
// layer depends on:
//
//   1. EINTR is never surfaced: interrupted calls are retried (reads,
//      writes, accepts) or reported as zero events (poll), so signal
//      delivery — SIGTERM starting a drain — cannot masquerade as an I/O
//      error.
//   2. EAGAIN/EWOULDBLOCK is a first-class result (IoStatus::kWouldBlock),
//      never an error: every descriptor handed out is non-blocking, and
//      the callers' event loops are built on short bounded polls.
//   3. Every wait is bounded: PollFds clamps its timeout, so no thread can
//      park past a shutdown request (the same property base/deadline.h's
//      SleepFor gives non-I/O waits).
//
// The XICC_FAULTS net probes (kNetAccept/kNetRead/kNetWrite) live inside
// AcceptOne/ReadSome/WriteSome, so every injected transient failure travels
// the exact code path a real ECONNRESET would.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"

namespace xicc {
namespace net {

/// Move-only RAII owner of a file descriptor; closes on destruction
/// (EINTR-tolerant). A default-constructed Fd is empty (get() == -1).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Closes now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// Outcome class of one non-blocking I/O attempt.
enum class IoStatus {
  kOk,          ///< Progress was made (`bytes` of it).
  kWouldBlock,  ///< Nothing available right now; poll and retry.
  kEof,         ///< Orderly peer shutdown (reads only).
  kError,       ///< Connection-fatal error (`err` holds errno).
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  size_t bytes = 0;
  int err = 0;
};

/// Reads up to `cap` bytes. EINTR retried; EAGAIN → kWouldBlock; 0 → kEof.
IoResult ReadSome(const Fd& fd, char* buf, size_t cap);

/// Writes up to `len` bytes (short writes are normal — `bytes` says how
/// far). EINTR retried; EAGAIN → kWouldBlock.
IoResult WriteSome(const Fd& fd, const char* buf, size_t len);

/// Creates a non-blocking loopback listener (SO_REUSEADDR). `port` 0 picks
/// an ephemeral port — read it back with LocalPort.
Result<Fd> TcpListen(uint16_t port, int backlog);

/// The port a listener is bound to.
Result<uint16_t> LocalPort(const Fd& listener);

/// Accepts one pending connection into `*out` (non-blocking). kWouldBlock
/// means the accept queue is drained; kError is transient (ECONNABORTED and
/// kin) — the listener itself stays healthy and the caller simply moves on.
IoResult AcceptOne(const Fd& listener, Fd* out);

/// Connects to 127.0.0.1:`port` within `timeout_ms`. The returned socket is
/// non-blocking.
Result<Fd> TcpConnect(uint16_t port, int64_t timeout_ms);

struct PollFd {
  int fd = -1;
  bool want_read = false;
  bool want_write = false;
};

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Hangup or error condition: the owner should tear the connection down.
  bool closed = false;
};

/// Bounded ::poll over `fds` — waits at most `timeout_ms` (clamped to
/// [0, 1000] so no caller can park unwakeably past a shutdown; event loops
/// re-poll). EINTR yields zero events, never an error. Events are appended
/// to `*out`.
Result<size_t> PollFds(const std::vector<PollFd>& fds, int64_t timeout_ms,
                       std::vector<PollEvent>* out);

/// Half-closes the write side (shutdown(SHUT_WR)): the peer sees EOF after
/// draining what was already sent, while this side can still read. The
/// "client gave up mid-conversation" shape fault tests inject.
void HalfCloseWrite(const Fd& fd);

/// Writes all of `data` with short-write handling, polling for writability
/// between attempts, until `deadline_ms` elapses (kUnavailable on expiry —
/// a stuck peer must not wedge the writer).
Status WriteAll(const Fd& fd, std::string_view data, int64_t deadline_ms);

/// Self-pipe wake channel: Wake() is async-signal-safe (one non-blocking
/// write(2)), so a SIGTERM handler can nudge a poll loop that includes
/// read_fd() in its set. Spurious wakes are fine; Drain() swallows the
/// pending bytes.
class WakePipe {
 public:
  static Result<WakePipe> Create();

  WakePipe() = default;
  WakePipe(WakePipe&&) noexcept = default;
  WakePipe& operator=(WakePipe&&) noexcept = default;

  /// Async-signal-safe; coalesces (the pipe never fills — it is drained on
  /// every loop pass, and a full pipe just means a wake is already pending).
  void Wake() const;
  void Drain() const;
  int read_fd() const { return read_.get(); }

 private:
  Fd read_;
  Fd write_;
};

/// Owns one long-lived service thread (the daemon's I/O loop). With
/// base/worksteal.h this is the only sanctioned std::thread owner; the
/// raw-concurrency lint rule keeps thread spawning out of src/net. Joins on
/// destruction — the body must exit when its owner's stop flag is raised.
class ServiceThread {
 public:
  explicit ServiceThread(std::function<void()> body)
      : thread_(std::move(body)) {}
  ~ServiceThread() { Join(); }

  ServiceThread(const ServiceThread&) = delete;
  ServiceThread& operator=(const ServiceThread&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace net
}  // namespace xicc
