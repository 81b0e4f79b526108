#include "core/batch.h"

#include <algorithm>
#include <utility>

#include "base/worksteal.h"

namespace xicc {

namespace {

/// One chunk of work: the query indices [begin, end).
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
};

/// Per-chunk tallies — owned by exactly one pool task, merged after the
/// pool drains. Retry counts cannot be reconstructed from final statuses;
/// session acquire outcomes feed the setup-amortization stats.
struct ChunkTally {
  size_t retries = 0;
  size_t rescues = 0;
  size_t session_reused = 0;  // 1 if the chunk ran on a pooled session.
  size_t session_created = 0;
};

/// A free-list of reusable worker sessions over one CompiledDtd. Chunks
/// acquire at start and release at end, so the lock is taken twice per
/// CHUNK (not per query) and held for O(1) pointer work — session setup
/// (the skeleton + tableau copy inside the SpecSession constructor) is
/// paid once per worker in the steady state, not once per stripe.
class SessionPool {
 public:
  SessionPool(std::shared_ptr<const CompiledDtd> compiled,
              const ConsistencyOptions& check,
              std::shared_ptr<SharedSigmaMemo> memo)
      : compiled_(std::move(compiled)), check_(check), memo_(std::move(memo)) {}

  std::unique_ptr<SpecSession> Acquire(ChunkTally* tally) {
    {
      MutexLock lock(&mu_);
      if (!free_.empty()) {
        std::unique_ptr<SpecSession> session = std::move(free_.back());
        free_.pop_back();
        tally->session_reused = 1;
        return session;
      }
    }
    tally->session_created = 1;
    return std::make_unique<SpecSession>(compiled_, check_, memo_);
  }

  void Release(std::unique_ptr<SpecSession> session) {
    MutexLock lock(&mu_);
    free_.push_back(std::move(session));
  }

  /// Post-drain aggregation: every session ever created is back in the
  /// free list once the pool has no tasks in flight.
  template <typename Fn>
  void ForEachSession(Fn fn) {
    MutexLock lock(&mu_);
    for (const std::unique_ptr<SpecSession>& session : free_) fn(*session);
  }

 private:
  std::shared_ptr<const CompiledDtd> compiled_;
  ConsistencyOptions check_;
  std::shared_ptr<SharedSigmaMemo> memo_;
  Mutex mu_;  // xicc-analyze: lock-leaf
  std::vector<std::unique_ptr<SpecSession>> free_ XICC_GUARDED_BY(mu_);
};

/// An item's deadline: the earlier of the batch's own (`check.stop`) and
/// `ms` from now (0: no per-item bound).
Deadline ItemDeadline(const BatchOptions& options, int64_t ms) {
  const Deadline& batch = options.check.stop.deadline;
  return ms > 0 ? Deadline::Earliest(batch, Deadline::After(ms)) : batch;
}

/// Runs one chunk's queries through one pooled session. Items that end
/// without a verdict (deadline, cancel, per-item input errors) are
/// quarantined into their slot — with partial statistics — and the chunk
/// keeps draining.
void RunChunk(const std::vector<ConstraintSet>& queries, const Chunk& chunk,
              const BatchOptions& options, SessionPool* pool,
              std::vector<BatchItemResult>* results, ChunkTally* tally) {
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    // Leave the pre-filled kCancelled sentinel in every slot; re-deriving
    // fresh deadlines after a cancel would be busywork.
    return;
  }
  std::unique_ptr<SpecSession> session = pool->Acquire(tally);
  for (size_t i = chunk.begin; i < chunk.end; ++i) {
    BatchItemResult& slot = (*results)[i];
    if (options.cancel != nullptr && options.cancel->Cancelled()) break;
    // Arm this item's stop: the shared batch cancel plus the earlier of the
    // batch's deadline and a fresh per-item one. The item deadline starts
    // when the item starts, not when the batch does — a slow predecessor
    // must not starve its successors.
    StopSignal stop;
    stop.cancel = options.cancel;
    stop.deadline = ItemDeadline(options, options.item_timeout_ms);
    session->SetStop(stop);
    Result<ConsistencyResult> checked = session->Check(queries[i]);
    if (!checked.ok() &&
        checked.status().code() == StatusCode::kDeadlineExceeded &&
        options.deadline_retry_factor > 0 &&
        !options.check.stop.deadline.Expired() &&
        !(options.cancel != nullptr && options.cancel->Cancelled())) {
      // One retry at the escalated budget: rescues the merely-unlucky item
      // (cold memo, slow warm-up) without letting a genuinely exploding one
      // hold the chunk past factor+1 budgets. A batch past its own deadline
      // retries nothing.
      ++tally->retries;
      int64_t retry_ms = 0;
      if (__builtin_mul_overflow(
              options.item_timeout_ms,
              static_cast<int64_t>(options.deadline_retry_factor),
              &retry_ms)) {
        retry_ms = INT64_MAX;
      }
      stop.deadline = ItemDeadline(options, retry_ms);
      session->SetStop(stop);
      checked = session->Check(queries[i]);
      if (checked.ok()) ++tally->rescues;
    }
    StageTimer write_timer(&session->stage_tally(), Stage::kResultWrite);
    if (checked.ok()) {
      slot.status = Status::Ok();
      slot.result = std::move(*checked);
      slot.partial = ConsistencyStats{};
    } else {
      slot.status = checked.status();
      slot.partial = session->LastPartialStats();
    }
  }
  // Disarm before pooling: the next chunk arms its own stop signal.
  session->SetStop(StopSignal{});
  pool->Release(std::move(session));
}

}  // namespace

std::vector<BatchItemResult> CheckBatch(
    std::shared_ptr<const CompiledDtd> compiled,
    const std::vector<ConstraintSet>& queries, const BatchOptions& options,
    BatchDegradedStats* degraded, BatchRunStats* run) {
  std::vector<BatchItemResult> results(queries.size());
  if (degraded != nullptr) *degraded = BatchDegradedStats{};
  if (run != nullptr) *run = BatchRunStats{};
  if (queries.empty()) return results;

  // Pre-fill every slot with the cancelled sentinel: a cancelled pool drains
  // queued chunk tasks WITHOUT running them, and those chunks' items must
  // not read as OK-with-empty-result.
  for (BatchItemResult& slot : results) {
    slot.status =
        Status::Cancelled("the batch was cancelled before this query ran");
  }

  size_t threads = options.num_threads == 0 ? 1 : options.num_threads;
  if (threads > queries.size()) threads = queries.size();
  // Oversubscription never helps a CPU-bound batch: extra workers only add
  // context switches and deque contention, which shows up as the 4-thread
  // run losing to the 1-thread run on small machines. Cap the pool at the
  // hardware width (verdicts are thread-count-independent by contract) —
  // and REPORT the clamp through BatchRunStats, so a flat scaling curve on
  // a narrow machine is attributable instead of mysterious.
  const size_t hardware = HardwareConcurrency();
  if (threads > hardware) threads = hardware;

  // Resolve the chunk size: enough chunks that work-stealing can rebalance
  // around a slow item (~8 per worker), but each chunk big enough that one
  // session acquire amortizes over its items.
  size_t chunk_size = options.chunk_size;
  if (chunk_size == 0) {
    chunk_size = std::max<size_t>(1, queries.size() / (threads * 8));
  }

  // One session pool over the DTD, its sessions sharing one memo.
  std::shared_ptr<SharedSigmaMemo> memo;
  if (options.memo_capacity > 0) {
    memo = std::make_shared<SharedSigmaMemo>(
        threads * options.memo_capacity,
        /*num_shards=*/std::max<size_t>(16, threads * 4));
  }
  SessionPool sessions(std::move(compiled), options.check, std::move(memo));

  // Contiguous runs of `chunk_size` queries, in batch order.
  std::vector<Chunk> chunks;
  for (size_t begin = 0; begin < queries.size(); begin += chunk_size) {
    chunks.push_back(
        Chunk{begin, std::min(queries.size(), begin + chunk_size)});
  }

  std::vector<ChunkTally> tallies(chunks.size());
  if (threads <= 1) {
    for (size_t c = 0; c < chunks.size(); ++c) {
      RunChunk(queries, chunks[c], options, &sessions, &results, &tallies[c]);
    }
  } else {
    // Each chunk writes only its own items' slots, so the result vector
    // needs no locking; the pool is just transport for the chunks. The
    // batch cancel token rides into the pool too: Cancel() wakes parked
    // workers and drops unstarted chunks, so Wait() returns promptly.
    WorkStealingPool pool(threads, options.cancel);
    for (size_t c = 0; c < chunks.size(); ++c) {
      pool.Submit([&, c] {
        RunChunk(queries, chunks[c], options, &sessions, &results,
                 &tallies[c]);
      });
    }
    pool.Wait();
  }

  if (run != nullptr) {
    run->workers = threads;
    run->hardware_threads = hardware;
    run->chunks = chunks.size();
    run->chunk_size = chunk_size;
    for (const ChunkTally& tally : tallies) {
      run->session_reuses += tally.session_reused;
      run->sessions_created += tally.session_created;
    }
    sessions.ForEachSession([&](const SpecSession& session) {
      run->stages.Merge(session.stage_tally());
      run->memo_hits += session.stats().memo_hits;
      run->memo_misses += session.stats().memo_misses;
      run->memo_evictions += session.stats().memo_evictions;
    });
  }

  if (degraded != nullptr) {
    for (const ChunkTally& tally : tallies) {
      degraded->retries += tally.retries;
      degraded->retry_rescues += tally.rescues;
    }
    // Status-code tallies come from the final slots — that also counts
    // items whose chunk task was dropped by a cancelled pool.
    for (const BatchItemResult& slot : results) {
      if (slot.status.ok()) continue;
      ++degraded->quarantined;
      switch (slot.status.code()) {
        case StatusCode::kDeadlineExceeded:
          ++degraded->deadline_exceeded;
          break;
        case StatusCode::kCancelled:
          ++degraded->cancelled;
          break;
        case StatusCode::kResourceExhausted:
          ++degraded->resource_exhausted;
          break;
        default:
          break;
      }
    }
  }
  return results;
}

}  // namespace xicc
