#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/thread_annotations.h"

namespace xicc {

/// A steady-clock wall deadline. Value type, cheap to copy; the default is
/// infinite (never expires), so plumbing a Deadline through an options
/// struct costs nothing for callers that never set one.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : at_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now (clamped to now for negative `ms`).
  /// A deadline past the clock's range never comes: it saturates to
  /// Infinite() instead of overflowing into the past.
  static Deadline After(int64_t ms) {
    const Clock::time_point now = Clock::now();
    const int64_t headroom_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now)
            .count();
    if (ms >= headroom_ms) return Infinite();
    Deadline d;
    d.at_ = now + std::chrono::milliseconds(ms < 0 ? 0 : ms);
    return d;
  }

  /// The deadline that comes first.
  static Deadline Earliest(const Deadline& a, const Deadline& b) {
    return a.at_ <= b.at_ ? a : b;
  }

  bool IsInfinite() const { return at_ == Clock::time_point::max(); }

  bool Expired() const { return !IsInfinite() && Clock::now() >= at_; }

  /// Milliseconds until expiry, clamped at 0; INT64_MAX when infinite.
  int64_t RemainingMs() const {
    if (IsInfinite()) return INT64_MAX;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - Clock::now());
    return left.count() < 0 ? 0 : left.count();
  }

 private:
  Clock::time_point at_;
};

/// A sticky cooperative cancel flag, shared by reference between the caller
/// that may cancel and the workers that poll it. Cancel() additionally runs
/// registered wake callbacks so that blocked threads (parked worksteal
/// workers, cancellable sleeps) observe the flag promptly instead of at
/// their next natural wakeup — this is the other half of the worksteal
/// generation-counter protocol's lost-wakeup guard.
///
/// Callback registration is const: observers (a pool, a sleep) register
/// through the same `const CancelToken*` they poll, and registration does
/// not change the cancellation state. Callbacks run under the token's
/// internal mutex, so RemoveWakeCallback doubles as a barrier: once it
/// returns, the callback is not running and will never run again. Callbacks
/// must therefore not call back into the token and must not block.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Sets the flag (idempotent) and invokes every registered wake callback.
  void Cancel() XICC_EXCLUDES(mu_) {
    cancelled_.store(true, std::memory_order_release);
    MutexLock lock(&mu_);
    for (const auto& [id, fn] : callbacks_) fn();
  }

  bool Cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Registers a wake callback; returns its id for RemoveWakeCallback. If
  /// the token is already cancelled the callback fires once immediately.
  uint64_t AddWakeCallback(std::function<void()> fn) const XICC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const uint64_t id = next_id_++;
    callbacks_.emplace_back(id, std::move(fn));
    if (Cancelled()) callbacks_.back().second();
    return id;
  }

  /// Unregisters; on return the callback is guaranteed not to be running.
  void RemoveWakeCallback(uint64_t id) const XICC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < callbacks_.size(); ++i) {
      if (callbacks_[i].first == id) {
        callbacks_.erase(callbacks_.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Registration is observer bookkeeping, not cancellation state, so it is
  /// allowed through a const token (mutable + const methods above).
  mutable Mutex mu_;
  mutable uint64_t next_id_ XICC_GUARDED_BY(mu_) = 1;
  mutable std::vector<std::pair<uint64_t, std::function<void()>>> callbacks_
      XICC_GUARDED_BY(mu_);
};

/// The stop condition threaded from the entry points (CLI, CheckBatch and
/// its worksteal workers, SpecSession) down through consistency → the ILP
/// search (SolveWithConditionals / SolveIlp) → the simplex pivot loops.
/// Checked at bounded cost: hot loops poll every few dozen iterations;
/// search nodes, cut rounds and presolve probes poll every iteration.
/// Default-constructed it never stops anything.
struct StopSignal {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  /// True when there is anything to poll at all — lets hot loops skip the
  /// clock read entirely on the common unarmed path.
  bool Armed() const { return cancel != nullptr || !deadline.IsInfinite(); }

  bool ShouldStop() const {
    if (cancel != nullptr && cancel->Cancelled()) return true;
    return deadline.Expired();
  }

  /// The status a stopped computation must propagate. Cancellation wins
  /// over expiry (an explicit cancel is the stronger, caller-driven fact);
  /// if neither condition holds (a stale stop observed after the caller
  /// reset the token) the result still must not be a verdict, so it is
  /// reported as cancelled.
  Status ToStatus() const {
    if (cancel != nullptr && cancel->Cancelled()) {
      return Status::Cancelled("the check was cancelled");
    }
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("the check ran past its deadline");
    }
    return Status::Cancelled("the check was stopped");
  }
};

/// Cancellable bounded sleep: returns early (true) when `cancel` fires,
/// false after the full duration. The only sanctioned sleep outside
/// base/worksteal.h — it polls in short bounded waits on an annotated
/// CondVar, so it can never park a thread past a cancellation.
bool SleepFor(int64_t ms, const CancelToken* cancel = nullptr);

/// Fires `token->Cancel()` once `delay_ms` elapses, from a private thread;
/// destroying the timer first disarms it. Backs the CLI's --cancel-after
/// flag and the cancellation tests.
class CancelTimer {
 public:
  CancelTimer(CancelToken* token, int64_t delay_ms);
  ~CancelTimer();

  CancelTimer(const CancelTimer&) = delete;
  CancelTimer& operator=(const CancelTimer&) = delete;

 private:
  Mutex mu_;  // xicc-analyze: lock-leaf
  CondVar cv_;
  bool disarmed_ XICC_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace xicc
