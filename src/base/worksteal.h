#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/deadline.h"
#include "base/thread_annotations.h"

namespace xicc {

/// The machine's hardware thread count (1 if the runtime cannot tell).
/// Callers size CPU-bound pools with this instead of touching <thread>
/// directly, keeping raw concurrency primitives confined to src/base/.
inline size_t HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

/// A small work-stealing thread pool for coarse-grained tasks (CheckBatch's
/// query chunks).
///
/// Each worker owns a deque shard: it pops its own work from the front
/// (LIFO-ish locality) and, when empty, steals from the
/// back of a sibling's shard. Tasks are distributed round-robin at
/// submission. Shards are individually locked and cache-line padded
/// (alignas(64)), so two workers touching adjacent deque tops never
/// false-share a line and never contend on one global lock — under the
/// sharded scheme the only shared write traffic on the task fast path is
/// the `pending_` counter.
///
/// Sleep/wake runs on a separate `sleep_mu_` with a generation counter
/// (`signals_`): Submit bumps the generation under the sleep lock after
/// publishing the task, and a worker that found every shard empty re-checks
/// the generation under the same lock before blocking — a submission that
/// raced the worker's empty scan is therefore never lost, the worker just
/// rescans.
///
/// Locking discipline (machine-checked by -DXICC_THREAD_SAFETY=ON): each
/// shard's queue is guarded by that shard's mutex; `signals_` by
/// `sleep_mu_`; `pending_` / `stopping_` are atomics. Tasks run with no
/// lock held. The destructor drains every queued task before joining
/// (workers only exit on `stopping_` when nothing is pending anywhere).
///
/// Cancellation: constructed with a CancelToken the pool becomes
/// abandonable — once the token fires, queued-but-unstarted tasks are
/// drained WITHOUT running (in-flight tasks finish; they are expected to
/// poll the same token), later Submits are dropped on arrival, and workers
/// exit once nothing is pending. Cancel() wakes parked workers through a
/// registered wake callback that bumps the same `signals_` generation a
/// Submit would — the callback is what closes the lost-wakeup window where
/// a worker checks the cancel flag, finds it clear, and then parks on the
/// old generation. The token must outlive the pool.
class WorkStealingPool {
 public:
  explicit WorkStealingPool(size_t num_threads,
                            const CancelToken* cancel = nullptr)
      : num_shards_(num_threads == 0 ? 1 : num_threads),
        shards_(new Shard[num_shards_]),
        cancel_(cancel) {
    alive_.store(num_shards_, std::memory_order_release);
    workers_.reserve(num_shards_);
    for (size_t i = 0; i < num_shards_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
    if (cancel_ != nullptr) {
      // Mirrors Submit's wake protocol: generation bump under the sleep
      // lock, then broadcast. A worker that raced the flag check either
      // sees the new generation before parking or is woken by the notify.
      cancel_callback_id_ = cancel_->AddWakeCallback([this] {
        {
          MutexLock lock(&sleep_mu_);
          ++signals_;
        }
        wake_.NotifyAll();
        drained_.NotifyAll();
      });
    }
  }

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  ~WorkStealingPool() {
    // Unregister first: RemoveWakeCallback is a barrier, so after it
    // returns no callback can touch this pool's members again.
    if (cancel_ != nullptr) cancel_->RemoveWakeCallback(cancel_callback_id_);
    stopping_.store(true, std::memory_order_release);
    {
      MutexLock lock(&sleep_mu_);
      ++signals_;
    }
    wake_.NotifyAll();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Workers that have not yet exited. Only a cancelled (or stopping) pool
  /// lets workers exit; the cancellation regression tests poll this to
  /// prove Cancel() actually wakes parked workers.
  size_t WorkersAlive() const {
    return alive_.load(std::memory_order_acquire);
  }

  bool Cancelled() const {
    return cancel_ != nullptr && cancel_->Cancelled();
  }

  /// Enqueues a task. Safe from any thread, including pool workers. On a
  /// cancelled pool the task is dropped on arrival (never counted, never
  /// run) — the pool is draining, not accepting.
  void Submit(std::function<void()> task) XICC_EXCLUDES(sleep_mu_) {
    if (Cancelled()) return;
    // pending_ rises before the task is findable: a worker that takes and
    // finishes it can only ever decrement a counter that already includes
    // it, so Wait never observes a transient zero.
    pending_.fetch_add(1, std::memory_order_acq_rel);
    const size_t shard =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % num_shards_;
    {
      MutexLock lock(&shards_[shard].mu);
      shards_[shard].queue.push_back(std::move(task));
    }
    {
      MutexLock lock(&sleep_mu_);
      ++signals_;
    }
    wake_.NotifyOne();
  }

  /// Blocks until every submitted task has finished running — or, on a
  /// cancelled pool, until the drain is over (every worker exited). The
  /// second arm covers the race where a Submit slipped past the cancel
  /// check after the last worker left: the orphaned task is never run and
  /// must not wedge the waiter.
  void Wait() XICC_EXCLUDES(sleep_mu_) {
    MutexLock lock(&sleep_mu_);
    while (pending_.load(std::memory_order_acquire) != 0) {
      if (Cancelled() && alive_.load(std::memory_order_acquire) == 0) break;
      drained_.Wait(&sleep_mu_);
    }
  }

 private:
  /// One worker's deque plus its lock, padded to a cache line so adjacent
  /// shards' hot tops never false-share.
  struct alignas(64) Shard {
    Mutex mu;  // xicc-analyze: lock-leaf
    std::deque<std::function<void()>> queue XICC_GUARDED_BY(mu);
  };

  /// Pops the worker's own front task or steals a sibling's back task;
  /// returns an empty function when no task is findable anywhere. Takes each
  /// shard lock individually — an empty scan is a point-in-time answer,
  /// which is why the caller re-checks `signals_` before sleeping.
  std::function<void()> TryTake(size_t self) {
    {
      MutexLock lock(&shards_[self].mu);
      if (!shards_[self].queue.empty()) {
        std::function<void()> task = std::move(shards_[self].queue.front());
        shards_[self].queue.pop_front();
        return task;
      }
    }
    for (size_t k = 1; k < num_shards_; ++k) {
      Shard& victim = shards_[(self + k) % num_shards_];
      MutexLock lock(&victim.mu);
      if (!victim.queue.empty()) {
        std::function<void()> task = std::move(victim.queue.back());
        victim.queue.pop_back();
        return task;
      }
    }
    return {};
  }

  void WorkerLoop(size_t self) XICC_EXCLUDES(sleep_mu_) {
    uint64_t seen = 0;
    for (;;) {
      std::function<void()> task = TryTake(self);
      if (task) {
        // A cancelled pool drains without running: the drop still counts
        // against pending_ so Wait()ers see the queue empty out.
        if (!Cancelled()) task();
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // Last task out: wake Wait()ers, and wake siblings so a stopping
          // pool with in-flight-submitted work re-evaluates its exit
          // condition.
          MutexLock lock(&sleep_mu_);
          ++signals_;
          drained_.NotifyAll();
          wake_.NotifyAll();
        }
        continue;
      }
      MutexLock lock(&sleep_mu_);
      if (signals_ != seen) {
        // A submission (or stop) landed after our empty scan; rescan before
        // daring to sleep — this is the lost-wakeup guard.
        seen = signals_;
        continue;
      }
      if ((stopping_.load(std::memory_order_acquire) || Cancelled()) &&
          pending_.load(std::memory_order_acquire) == 0) {
        // Exiting under sleep_mu_: decrement-then-broadcast so a Wait()er
        // blocked on a cancelled pool re-evaluates its drain predicate.
        alive_.fetch_sub(1, std::memory_order_acq_rel);
        drained_.NotifyAll();
        return;
      }
      wake_.Wait(&sleep_mu_);
      seen = signals_;
    }
  }

  const size_t num_shards_;
  /// Heap array (not vector) because Shard is neither movable nor copyable.
  std::unique_ptr<Shard[]> shards_;
  /// Written only by the constructor and joined by the destructor, both of
  /// which run strictly before/after any worker — no guard needed.
  std::vector<std::thread> workers_;

  std::atomic<size_t> next_shard_{0};
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> alive_{0};

  /// Optional abandon switch (see class comment); outlives the pool.
  const CancelToken* cancel_ = nullptr;
  uint64_t cancel_callback_id_ = 0;

  /// Taken inside CancelToken::Cancel()'s callback sweep, which runs under
  /// the token's own lock — so the token's lock always comes first.
  // xicc-analyze: acquired-after(CancelToken::mu_)
  Mutex sleep_mu_;
  CondVar wake_;
  CondVar drained_;
  /// Wake generation: bumped under sleep_mu_ by every Submit, drain, and
  /// stop, so a worker can tell "nothing changed since my empty scan" from
  /// "a task appeared while I was between the scan and the lock".
  uint64_t signals_ XICC_GUARDED_BY(sleep_mu_) = 0;
};

}  // namespace xicc
