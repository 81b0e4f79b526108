#pragma once

#include <memory>
#include <vector>

#include "base/deadline.h"
#include "base/stage_timer.h"
#include "core/spec_session.h"

namespace xicc {

struct BatchOptions {
  /// Worker count. 1 (the default) runs one session sequentially — fully
  /// deterministic, including statistics. With N > 1 the queries are split
  /// into chunks scheduled over a work-stealing pool of N workers sharing
  /// the CompiledDtd; per-query verdicts/results are deterministic
  /// either way (each query's answer depends only on its own constraint
  /// set), only memo locality differs. Requests beyond the hardware thread
  /// count are clamped to it — oversubscribing a CPU-bound batch only adds
  /// scheduler overhead.
  size_t num_threads = 1;
  /// Options applied by every worker session. `check.stop.deadline` bounds
  /// the whole batch: every item, and its retry, runs under the earlier of
  /// it and the item's own deadline. Cancellation comes from `cancel`.
  ConsistencyOptions check;
  /// Per-worker memo contribution: the workers share ONE hash-sharded
  /// SharedSigmaMemo of `num_threads × memo_capacity` entries, so an
  /// identical query hits no matter which chunk answered it first. 0 turns
  /// memoization (and canonical-key hashing) off in every worker.
  size_t memo_capacity = 128;
  /// Queries per scheduled chunk (0 = auto: enough chunks for ~8 steals
  /// per worker, so one slow chunk rebalances). Each pool task runs one
  /// chunk through one REUSED worker session, so a chunk amortizes the
  /// session-setup cost (skeleton + tableau copy) over its items — the fix
  /// for tiny items whose per-stripe setup dwarfed their solve time. Chunk
  /// ranges are contiguous, so two workers never interleave writes within
  /// a cache line of the result vector.
  size_t chunk_size = 0;
  /// Per-item wall-clock budget in milliseconds (0 = none). An item whose
  /// check outlives its deadline is recorded kDeadlineExceeded — with the
  /// partial statistics of how far the search got — and the stripe moves on
  /// to the next item: one exploding query degrades to one degraded row,
  /// never a wedged batch.
  int64_t item_timeout_ms = 0;
  /// A deadline-exceeded item is retried once at `deadline_retry_factor ×
  /// item_timeout_ms` before being quarantined (0 disables the retry). The
  /// escalated budget rescues items that were merely unlucky — a cold memo,
  /// a slow first pivot phase — without letting a genuinely exploding item
  /// hold its stripe for more than factor+1 budgets.
  size_t deadline_retry_factor = 4;
  /// Optional batch-level cancel switch; must outlive the call. Firing it
  /// stops in-flight checks at their next poll, drops not-yet-started
  /// stripes (their items are recorded kCancelled), and wakes any parked
  /// pool workers — CheckBatch then returns instead of wedging.
  const CancelToken* cancel = nullptr;
};

/// Per-query outcome. `status` carries per-query failures (e.g. a query
/// referencing undeclared attributes, or the undecidable class) without
/// aborting the rest of the batch; `result` is meaningful iff status.ok().
struct BatchItemResult {
  Status status;
  ConsistencyResult result;
  /// For items WITHOUT a verdict (kDeadlineExceeded / kCancelled /
  /// kResourceExhausted): the statistics the check accumulated before it
  /// was stopped — nodes explored, pivots, deepest search level. Zero for
  /// successful items (their stats live in `result.stats`).
  ConsistencyStats partial;
};

/// Degradation tallies for one CheckBatch run — the "what did we give up
/// on, and did the safety nets work" section of the batch report.
struct BatchDegradedStats {
  /// Items recorded without a verdict, by terminal status code.
  size_t deadline_exceeded = 0;
  size_t cancelled = 0;
  size_t resource_exhausted = 0;
  /// Escalated-budget re-runs attempted after a first deadline miss, and
  /// how many of them produced a verdict after all.
  size_t retries = 0;
  size_t retry_rescues = 0;
  /// Items quarantined with any non-OK status while their chunk kept
  /// draining (includes the three counters above plus per-item input
  /// errors).
  size_t quarantined = 0;
};

/// Where one CheckBatch run's time went and how it was scheduled — the
/// "why doesn't this scale" section of the batch report. All numbers are
/// aggregated single-threadedly after the pool drains; per-worker session
/// tallies are merged into `stages`.
struct BatchRunStats {
  /// Effective pool width after the query-count and hardware clamps. When
  /// this is smaller than the requested num_threads the scaling curve is
  /// flat BY CONSTRUCTION — benches must report it so a 1-core runner's
  /// speedup ≈ 1.0 reads as a clamp, not a contention mystery.
  size_t workers = 0;
  /// HardwareConcurrency() at run time, for the same honesty reason.
  size_t hardware_threads = 0;
  /// Scheduled chunks and the resolved items-per-chunk target.
  size_t chunks = 0;
  size_t chunk_size = 0;
  /// Worker sessions constructed vs. chunks served by a reused session —
  /// sessions_created × session_setup_ms is the amortized setup bill.
  size_t sessions_created = 0;
  size_t session_reuses = 0;
  /// Shared-memo traffic summed over every worker session.
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  size_t memo_evictions = 0;
  /// Per-stage wall time summed over every worker session (stage_timer.h
  /// taxonomy: session setup, memo key/lookup/store, solve, result write).
  /// With W workers busy the stage sums can legitimately approach W × the
  /// batch wall time.
  StageTally stages;
};

/// Answers many consistency queries against one compiled DTD — the batch
/// shape of Corollary 4.11's fixed-DTD workflow. Queries are split into
/// contiguous chunks scheduled over a work-stealing pool; each chunk runs
/// through a pooled, reused SpecSession, and the CompiledDtd is shared
/// read-only (its artifacts are immutable and its frozen DFAs
/// thread-safe). `degraded` and `run`, when non-null, receive the run's
/// degradation tallies and scheduling/stage attribution.
std::vector<BatchItemResult> CheckBatch(
    std::shared_ptr<const CompiledDtd> compiled,
    const std::vector<ConstraintSet>& queries,
    const BatchOptions& options = {}, BatchDegradedStats* degraded = nullptr,
    BatchRunStats* run = nullptr);

}  // namespace xicc
