#include "core/conditional_solver.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "base/arena.h"
#include "base/debug.h"
#include "base/num.h"
#include "base/thread_annotations.h"
#include "base/worksteal.h"
#include "ilp/audit.h"
#include "ilp/simplex.h"

namespace xicc {

namespace {

/// Search state shared by every DFS worker of one solve — a single worker
/// sequentially (num_threads = 1), or one per fanned-out prefix in the
/// parallel regime. Only the node counter and the terminal flags are
/// contended; per-worker statistics are accumulated locally and flushed
/// once per task.
struct SearchShared {
  const std::vector<Conditional>* active = nullptr;
  IlpOptions options;
  /// Armed stop signal shared by every worker (null when unarmed); points at
  /// the solver's options, which outlive the search.
  const StopSignal* stop = nullptr;
  std::atomic<size_t> nodes{0};
  std::atomic<bool> found{false};
  std::atomic<bool> budget_hit{false};
  std::atomic<bool> failed{false};
  /// The stop signal fired somewhere in the search — deadline expiry, an
  /// external cancel, or a leaf solve observing either. Not a failure: the
  /// final status comes from the signal, with partial statistics attached.
  std::atomic<bool> stopped{false};
  Mutex mu;  // xicc-analyze: lock-leaf
  /// `solution` carries feasible + values only (statistics are assembled
  /// from the aggregated counters); `error` is the first leaf failure.
  IlpSolution solution XICC_GUARDED_BY(mu);
  Status error XICC_GUARDED_BY(mu);
};

/// One case-split DFS over a private trail-managed system. Resolutions are
/// pushed/popped on the trail — O(1) amortized per node instead of an
/// O(rows) system copy — and each node's LP prune warm starts from the
/// parent's basis; the basis that survives the prune then seeds the leaf
/// ILP's root.
class SplitWorker {
 public:
  SplitWorker(SearchShared* shared, LinearSystem* system)
      : shared_(shared), system_(system) {}

  /// Resolves conditionals from index `depth` on; `system_` carries the
  /// resolutions made so far, `parent` the basis of the node above (null →
  /// cold).
  void Explore(size_t depth, const LpTableau* parent) {
    if (Done()) return;
    if (shared_->stop != nullptr && shared_->stop->ShouldStop()) {
      shared_->stopped.store(true, std::memory_order_relaxed);
      return;
    }
    XICC_DCHECK_AUDIT(AuditTrail(*system_));
    size_t node = shared_->nodes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (shared_->options.max_nodes != 0 &&
        node > shared_->options.max_nodes) {
      shared_->budget_hit.store(true, std::memory_order_relaxed);
      return;
    }

    // LP pruning: if even the relaxation (ignoring unresolved conditionals)
    // is infeasible, no resolution below can succeed. The node's tableau
    // comes from the worker's free list, so the copy of the parent reuses
    // the row buffers of an earlier node at this depth.
    LpTableauPool::Lease lease(&tableau_pool_);
    LpTableau& tab = *lease.get();
    bool have_tab = false;
    if (parent != nullptr && shared_->options.warm_start) {
      tab = *parent;
      WarmResult warm =
          ReSolveLpFeasibilityDualInPlace(*system_, &tab, shared_->stop);
      pivots += warm.lp.pivots;
      kernel.Add(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        shared_->stopped.store(true, std::memory_order_relaxed);
        return;
      }
      if (warm.status == WarmStatus::kOk) {
        ++warm_starts;
        if (!warm.lp.feasible) return;
        have_tab = true;
      }
    }
    if (!have_tab) {
      ++cold_restarts;
      LpResult lp = SolveLpFeasibility(*system_, &tab, shared_->stop);
      pivots += lp.pivots;
      kernel.Add(lp);
      if (lp.aborted) {
        shared_->stopped.store(true, std::memory_order_relaxed);
        return;
      }
      if (!lp.feasible) return;
    }

    if (depth == shared_->active->size()) {
      // Fully resolved: the conditionals now hold for *any* solution of
      // `system`, so plain integer feasibility decides this leaf — its root
      // LP warm-seeded from the pruning basis just computed.
      IlpOptions leaf_options = shared_->options;
      leaf_options.root_scratch = &leaf_root_scratch_;
      IlpSolution leaf_partial;
      leaf_options.partial = &leaf_partial;
      Result<IlpSolution> leaf = SolveIlp(*system_, leaf_options, &tab);
      if (!leaf.ok()) {
        // A stopped leaf is the search being stopped, not failing: keep the
        // work it did (flushed with this worker's counters) and let the
        // solver report the stop status with partial statistics.
        const StatusCode code = leaf.status().code();
        if (code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kCancelled) {
          ilp_nodes += leaf_partial.nodes_explored;
          pivots += leaf_partial.lp_pivots;
          cuts += leaf_partial.cuts_added;
          warm_starts += leaf_partial.warm_starts;
          cold_restarts += leaf_partial.cold_restarts;
          kernel.Add(leaf_partial.lp_kernel);
          if (leaf_partial.max_depth > max_depth) {
            max_depth = leaf_partial.max_depth;
          }
          MutexLock lock(&shared_->mu);
          if (shared_->error.ok()) shared_->error = leaf.status();
          shared_->stopped.store(true, std::memory_order_relaxed);
          return;
        }
        MutexLock lock(&shared_->mu);
        if (shared_->error.ok()) shared_->error = leaf.status();
        shared_->failed.store(true, std::memory_order_relaxed);
        return;
      }
      ilp_nodes += leaf->nodes_explored;
      pivots += leaf->lp_pivots;
      cuts += leaf->cuts_added;
      warm_starts += leaf->warm_starts;
      cold_restarts += leaf->cold_restarts;
      kernel.Add(leaf->lp_kernel);
      if (leaf->max_depth > max_depth) max_depth = leaf->max_depth;
      if (leaf->feasible) {
        MutexLock lock(&shared_->mu);
        if (!shared_->found.load(std::memory_order_relaxed)) {
          shared_->solution.feasible = true;
          shared_->solution.values = std::move(leaf->values);
          shared_->found.store(true, std::memory_order_relaxed);
        }
      }
      return;
    }

    const Conditional& cond = (*shared_->active)[depth];

    // Branch 1: conclusion ≥ 1 (the conditional is discharged outright).
    system_->PushCheckpoint();
    system_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
    Explore(depth + 1, &tab);
    system_->PopCheckpoint();
    if (Done()) return;
    // Branch 2: premise = 0 (the premise is false; over nonnegative
    // variables this pins every term of the premise to zero).
    system_->PushCheckpoint();
    system_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
    Explore(depth + 1, &tab);
    system_->PopCheckpoint();
  }

  // Per-worker statistics, flushed by the caller after the task finishes.
  size_t pivots = 0;
  size_t warm_starts = 0;
  size_t cold_restarts = 0;
  size_t cuts = 0;
  size_t ilp_nodes = 0;  ///< Branch-and-bound nodes inside leaf solves.
  size_t max_depth = 0;  ///< Deepest branch-and-bound node over all leaves.
  LpKernelStats kernel;  ///< Sparse LP kernel counters (DESIGN.md §12).

 private:
  bool Done() const {
    return shared_->found.load(std::memory_order_relaxed) ||
           shared_->failed.load(std::memory_order_relaxed) ||
           shared_->budget_hit.load(std::memory_order_relaxed) ||
           shared_->stopped.load(std::memory_order_relaxed);
  }

  SearchShared* shared_;
  LinearSystem* system_;
  /// Worker-private, so pool threads never share them: the node tableaux
  /// and the scratch each leaf's root copies its warm hint into.
  LpTableauPool tableau_pool_;
  LpTableau leaf_root_scratch_;
};

class CaseSplitSolver {
 public:
  /// The solver appends onto `*base`'s trail. The caller owns the enclosing
  /// checkpoint that rolls those rows back.
  CaseSplitSolver(LinearSystem* base,
                  const std::vector<Conditional>& conditionals,
                  const IlpOptions& options, CaseSplitWarmContext* warm)
      : work_(base),
        conditionals_(conditionals),
        options_(options),
        warm_(warm) {}

  Result<IlpSolution> Run() {
    const auto start = std::chrono::steady_clock::now();
    if (options_.stop.Armed()) stop_ = &options_.stop;
    // Two-tier arithmetic + arena traffic: everything this solve does on the
    // calling thread (leaf ILPs, presolve probes, the sequential DFS) lands
    // in this thread's counters, so one delta at the end captures it without
    // double-counting the nested SolveIlp's own accounting. Pool workers
    // measure their own thread-local deltas and flush them atomically (see
    // RunSearch).
    counters_before_ = ThisThreadNumCounters();
    arena_before_ = ThisThreadArena().total_allocated();

    // The base basis: factorized cold exactly once — taken from the caller's
    // cross-round context when available (the connectivity-cut loop re-enters
    // here with the same base every round), solved otherwise. It warm-seeds
    // the optimistic leaf, the presolve probes, and the DFS root alike.
    // On the warm path the leaf reads the context's basis in place — no
    // copy. `base_tab` (the solver's own mutable basis for presolve and the
    // DFS) is only materialized if the leaf fails to settle the query, which
    // keeps the common consistent-spec round at a single tableau duplication
    // (the leaf root's, into the context's capacity-warmed scratch).
    LpTableau base_tab;
    const LpTableau* base_ro = nullptr;
    bool tab_ok = false;
    if (options_.warm_start && warm_ != nullptr && warm_->valid) {
      XICC_DCHECK_AUDIT(AuditTableau(*work_, warm_->base_tableau));
      base_ro = &warm_->base_tableau;
      tab_ok = true;
    } else {
      ++cold_restarts_;
      LpResult lp = SolveLpFeasibility(*work_, &base_tab, stop_);
      pivots_ += lp.pivots;
      kernel_.Add(lp);
      if (lp.aborted) return NoVerdict(StopStatus(), nullptr, start);
      if (!lp.feasible) return AssembleInfeasible(start);
      tab_ok = true;
      base_ro = &base_tab;
      if (warm_ != nullptr) {
        warm_->base_tableau = base_tab;
        warm_->valid = true;
      }
    }

    // Optimistic leaf: resolve every conditional to its conclusion ≥ 1 and
    // try that single system first. Consistent specifications normally
    // populate all their element types, so this one ILP call settles them
    // without touching the exponential split.
    {
      work_->PushCheckpoint();
      for (const Conditional& cond : conditionals_) {
        work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      }
      IlpOptions leaf_options = options_;
      if (warm_ != nullptr && leaf_options.root_scratch == nullptr) {
        leaf_options.root_scratch = &warm_->root_scratch;
      }
      // Private partial sink: a stopped leaf's work must fold into THIS
      // solver's totals before they reach the caller's partial pointer.
      IlpSolution leaf_partial;
      leaf_options.partial = &leaf_partial;
      Result<IlpSolution> leaf =
          SolveIlp(*work_, leaf_options, tab_ok ? base_ro : nullptr);
      work_->PopCheckpoint();
      if (!leaf.ok()) {
        Accumulate(leaf_partial);
        return NoVerdict(leaf.status(), nullptr, start);
      }
      if (leaf->feasible) {
        Accumulate(*leaf);
        IlpSolution out = std::move(*leaf);
        FillStats(&out, nullptr, start);
        return out;
      }
      Accumulate(*leaf);
    }

    // The split machinery below mutates its basis (presolve extends it over
    // forced rows); give it a private copy if it is still aliasing the
    // caller's context.
    if (base_ro != &base_tab) base_tab = *base_ro;

    // Presolve: a conditional whose premise cannot vanish (base + premise=0
    // is LP-infeasible) has a forced conclusion; install it as a hard row
    // and drop the conditional from the exponential split. Typical win:
    // ext(τ) of unavoidable element types, which the DTD pins ≥ 1. Each
    // probe is a push/solve/pop round on the one working system, re-solved
    // warm from the base basis.
    for (const Conditional& cond : conditionals_) {
      if (stop_ != nullptr && stop_->ShouldStop()) {
        return NoVerdict(StopStatus(), nullptr, start);
      }
      work_->PushCheckpoint();
      work_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
      bool premise_can_vanish = ProbeLp(base_tab, tab_ok);
      work_->PopCheckpoint();
      if (stopped_) return NoVerdict(StopStatus(), nullptr, start);
      if (premise_can_vanish) {
        active_.push_back(cond);
        continue;
      }
      work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      if (tab_ok && options_.warm_start) {
        // Extend the working basis over the freshly forced row so later
        // probes and the DFS root stay warm. The re-solve runs on a copy,
        // adopted only when it ends feasible; on any other outcome the basis
        // keeps covering its old prefix (still a valid warm seed).
        scratch_tab_ = base_tab;
        WarmResult warm =
            ReSolveLpFeasibilityDualInPlace(*work_, &scratch_tab_, stop_);
        pivots_ += warm.lp.pivots;
        kernel_.Add(warm.lp);
        if (warm.status == WarmStatus::kAborted) {
          return NoVerdict(StopStatus(), nullptr, start);
        }
        if (warm.status == WarmStatus::kOk) {
          ++warm_starts_;
          // Forced conclusions hold in every solution satisfying the
          // conditionals, so their joint infeasibility settles the verdict.
          if (!warm.lp.feasible) return AssembleInfeasible(start);
          // A swap keeps the old basis's buffers for the next copy.
          std::swap(base_tab, scratch_tab_);
        }
      }
    }

    // The (possibly parallel) case-split DFS over the surviving
    // conditionals.
    SearchShared shared;
    shared.active = &active_;
    shared.options = options_;
    shared.stop = stop_;
    // DFS leaf solves may run on pool threads — a shared scratch or a shared
    // partial sink would race; workers keep private ones (SplitWorker sets
    // its own root scratch).
    shared.options.partial = nullptr;
    RunSearch(&base_tab, tab_ok, &shared);
    XICC_DCHECK_AUDIT(AuditTrail(*work_));

    if (shared.found.load()) {
      // All workers have exited (pool.Wait / sequential return), but the
      // annotated discipline still wants the lock for the guarded move.
      MutexLock lock(&shared.mu);
      IlpSolution out = std::move(shared.solution);
      FillStats(&out, &shared, start);
      return out;
    }
    if (shared.failed.load()) {
      MutexLock lock(&shared.mu);
      return shared.error;
    }
    if (shared.stopped.load()) {
      // A worker observed the stop (or a leaf returned a stop status, kept
      // in shared.error). The signal's own status wins so the caller sees
      // why the check has no verdict.
      Status status;
      {
        MutexLock lock(&shared.mu);
        status = !shared.error.ok() ? shared.error : StopStatus();
      }
      return NoVerdict(status, &shared, start);
    }
    if (shared.budget_hit.load()) {
      return NoVerdict(Status::ResourceExhausted(
                           "conditional case-split exceeded node budget"),
                       &shared, start);
    }
    IlpSolution out;
    FillStats(&out, &shared, start);
    return out;
  }

 private:
  // Timing only, never a verdict. xicc-lint: allow(exact-arithmetic)
  static double ElapsedMs(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
               std::chrono::steady_clock::now() - start)
        .count();
  }

  /// Why a stopped solve has no verdict. An LP can abort without a stop
  /// signal (LpPricingConfig::pivot_cap); with no signal to ask, the status
  /// is kCancelled, as in BranchAndBound::Run.
  Status StopStatus() const {
    return stop_ != nullptr ? stop_->ToStatus()
                            : Status::Cancelled("case-split was stopped");
  }

  void Accumulate(const IlpSolution& partial) {
    nodes_ += partial.nodes_explored;
    pivots_ += partial.lp_pivots;
    cuts_ += partial.cuts_added;
    warm_starts_ += partial.warm_starts;
    cold_restarts_ += partial.cold_restarts;
    kernel_.Add(partial.lp_kernel);
    if (partial.max_depth > max_depth_) max_depth_ = partial.max_depth;
  }

  /// LP feasibility of the current work_ state, warm from `base_tab` when
  /// usable; used by the presolve probes (verdict only, no tableau kept).
  bool ProbeLp(const LpTableau& base_tab, bool tab_ok) {
    if (tab_ok && options_.warm_start) {
      scratch_tab_ = base_tab;
      WarmResult warm =
          ReSolveLpFeasibilityDualInPlace(*work_, &scratch_tab_, stop_);
      pivots_ += warm.lp.pivots;
      kernel_.Add(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        stopped_ = true;
        return false;  // Meaningless; the caller checks stopped_ first.
      }
      if (warm.status == WarmStatus::kOk) {
        ++warm_starts_;
        return warm.lp.feasible;
      }
    }
    ++cold_restarts_;
    LpResult lp = SolveLpFeasibility(*work_, nullptr, stop_);
    pivots_ += lp.pivots;
    kernel_.Add(lp);
    if (lp.aborted) {
      stopped_ = true;
      return false;
    }
    return lp.feasible;
  }

  void RunSearch(LpTableau* root_tab, bool tab_ok, SearchShared* shared) {
    const LpTableau* root = tab_ok ? root_tab : nullptr;
    const size_t threads = options_.num_threads;
    if (threads <= 1 || active_.size() < 2) {
      SplitWorker worker(shared, work_);
      worker.Explore(0, root);
      FlushWorker(worker);
      return;
    }

    // Fan the first `levels` resolutions out as 2^levels prefix tasks on a
    // work-stealing pool; each task owns a private copy of the system and
    // runs the deeper levels sequential-warm-started. One extra level past
    // log2(threads) oversubscribes the pool so an uneven subtree cannot
    // leave workers idle.
    size_t levels = 1;
    while (levels < active_.size() && (size_t{1} << levels) < 2 * threads) {
      ++levels;
    }
    if (levels > active_.size()) levels = active_.size();
    const size_t num_tasks = size_t{1} << levels;

    std::atomic<size_t> pivots{0};
    std::atomic<size_t> warm_starts{0};
    std::atomic<size_t> cold_restarts{0};
    std::atomic<size_t> cuts{0};
    std::atomic<size_t> ilp_nodes{0};
    std::atomic<size_t> deepest{0};
    std::atomic<uint64_t> small_ops{0};
    std::atomic<uint64_t> big_ops{0};
    std::atomic<uint64_t> promotions{0};
    std::atomic<uint64_t> demotions{0};
    std::atomic<uint64_t> arena_bytes{0};
    // The eight sparse-kernel counters travel as one struct under a leaf
    // mutex instead of eight more atomics — the flush runs once per prefix
    // task, never inside a pivot loop.
    Mutex kernel_mu;  // xicc-analyze: lock-leaf
    LpKernelStats kernel_delta;
    {
      // Constructed with the solve's cancel token (when any): Cancel() then
      // wakes parked workers and the pool drains unstarted prefix tasks
      // without running them — the fan-out itself honors the stop.
      WorkStealingPool pool(threads,
                            stop_ != nullptr ? stop_->cancel : nullptr);
      for (size_t mask = 0; mask < num_tasks; ++mask) {
        // Bit i of `mask` picks conditional i's resolution; enumeration
        // order matches the sequential DFS (conclusion side first).
        pool.Submit([this, mask, levels, root, shared, &pivots, &warm_starts,
                     &cold_restarts, &cuts, &ilp_nodes, &deepest, &small_ops,
                     &big_ops, &promotions, &demotions, &arena_bytes,
                     &kernel_mu, &kernel_delta] {
          if (shared->found.load(std::memory_order_relaxed) ||
              shared->failed.load(std::memory_order_relaxed) ||
              shared->budget_hit.load(std::memory_order_relaxed) ||
              shared->stopped.load(std::memory_order_relaxed)) {
            return;
          }
          if (shared->stop != nullptr && shared->stop->ShouldStop()) {
            shared->stopped.store(true, std::memory_order_relaxed);
            return;
          }
          // Thread-local arithmetic/arena deltas per task: several tasks run
          // back-to-back on one pool thread, so each brackets its own slice.
          const NumCounters num_before = ThisThreadNumCounters();
          const uint64_t bytes_before = ThisThreadArena().total_allocated();
          LinearSystem local = *work_;
          for (size_t level = 0; level < levels; ++level) {
            const Conditional& cond = active_[level];
            if ((mask >> level) & 1) {
              local.AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
            } else {
              local.AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
            }
          }
          SplitWorker worker(shared, &local);
          worker.Explore(levels, root);
          pivots.fetch_add(worker.pivots, std::memory_order_relaxed);
          warm_starts.fetch_add(worker.warm_starts,
                                std::memory_order_relaxed);
          cold_restarts.fetch_add(worker.cold_restarts,
                                  std::memory_order_relaxed);
          cuts.fetch_add(worker.cuts, std::memory_order_relaxed);
          ilp_nodes.fetch_add(worker.ilp_nodes, std::memory_order_relaxed);
          {
            MutexLock lock(&kernel_mu);
            kernel_delta.Add(worker.kernel);
          }
          size_t seen = deepest.load(std::memory_order_relaxed);
          while (worker.max_depth > seen &&
                 !deepest.compare_exchange_weak(seen, worker.max_depth,
                                                std::memory_order_relaxed)) {
          }
          const NumCounters& num_after = ThisThreadNumCounters();
          small_ops.fetch_add(num_after.small_ops - num_before.small_ops,
                              std::memory_order_relaxed);
          big_ops.fetch_add(num_after.big_ops - num_before.big_ops,
                            std::memory_order_relaxed);
          promotions.fetch_add(num_after.promotions - num_before.promotions,
                               std::memory_order_relaxed);
          demotions.fetch_add(num_after.demotions - num_before.demotions,
                              std::memory_order_relaxed);
          arena_bytes.fetch_add(
              ThisThreadArena().total_allocated() - bytes_before,
              std::memory_order_relaxed);
        });
      }
      pool.Wait();
    }
    pivots_ += pivots.load();
    warm_starts_ += warm_starts.load();
    cold_restarts_ += cold_restarts.load();
    cuts_ += cuts.load();
    nodes_ += ilp_nodes.load();
    kernel_.Add(kernel_delta);
    if (deepest.load() > max_depth_) max_depth_ = deepest.load();
    worker_small_ops_ += small_ops.load();
    worker_big_ops_ += big_ops.load();
    worker_promotions_ += promotions.load();
    worker_demotions_ += demotions.load();
    worker_arena_bytes_ += arena_bytes.load();
  }

  void FlushWorker(const SplitWorker& worker) {
    pivots_ += worker.pivots;
    warm_starts_ += worker.warm_starts;
    cold_restarts_ += worker.cold_restarts;
    cuts_ += worker.cuts;
    nodes_ += worker.ilp_nodes;
    kernel_.Add(worker.kernel);
    if (worker.max_depth > max_depth_) max_depth_ = worker.max_depth;
  }

  /// Writes everything counted so far into `out`'s statistics — every exit
  /// reports this way. `shared` (null before the DFS) adds the pool's node
  /// count. The arithmetic counters are the calling thread's delta since
  /// Run() started plus whatever the pool workers flushed: leaf SolveIlp
  /// calls report their own slices too, but those slices are *contained* in
  /// this thread's running counters, so the delta counts them exactly once.
  void FillStats(IlpSolution* out, const SearchShared* shared,
                 std::chrono::steady_clock::time_point start) const {
    out->nodes_explored =
        nodes_ + (shared != nullptr ? shared->nodes.load() : 0);
    out->lp_pivots = pivots_;
    out->cuts_added = cuts_;
    out->warm_starts = warm_starts_;
    out->cold_restarts = cold_restarts_;
    out->lp_kernel = kernel_;
    out->max_depth = max_depth_;
    const NumCounters& now = ThisThreadNumCounters();
    out->num_small_ops =
        now.small_ops - counters_before_.small_ops + worker_small_ops_;
    out->num_big_ops = now.big_ops - counters_before_.big_ops + worker_big_ops_;
    out->num_promotions =
        now.promotions - counters_before_.promotions + worker_promotions_;
    out->num_demotions =
        now.demotions - counters_before_.demotions + worker_demotions_;
    out->arena_bytes = ThisThreadArena().total_allocated() - arena_before_ +
                       worker_arena_bytes_;
    out->wall_ms = ElapsedMs(start);
  }

  /// The no-verdict exit: `status` says why there is no answer, and the
  /// caller's partial sink (when given) receives everything counted so far —
  /// the work already done is part of the contract.
  Status NoVerdict(Status status, const SearchShared* shared,
                   std::chrono::steady_clock::time_point start) {
    if (options_.partial != nullptr) {
      *options_.partial = IlpSolution{};
      FillStats(options_.partial, shared, start);
    }
    return status;
  }

  Result<IlpSolution> AssembleInfeasible(
      std::chrono::steady_clock::time_point start) {
    IlpSolution out;
    FillStats(&out, nullptr, start);
    return out;
  }

  LinearSystem* work_;
  const std::vector<Conditional>& conditionals_;
  std::vector<Conditional> active_;  // Survivors of presolve.
  IlpOptions options_;
  CaseSplitWarmContext* warm_;
  /// Non-null iff options_.stop is armed; points into options_.
  const StopSignal* stop_ = nullptr;
  /// Set when a presolve-phase LP solve was aborted — by the stop signal or
  /// the pivot cap (ProbeLp cannot return the fact any other way).
  bool stopped_ = false;
  /// What presolve's probes and forced-row extensions re-solve: a copy of
  /// the working basis, into buffers kept from the previous copy.
  LpTableau scratch_tab_;

  // Statistics accumulated outside the DFS (optimistic leaf, presolve) and
  // flushed from workers after it.
  size_t nodes_ = 0;
  size_t pivots_ = 0;
  size_t cuts_ = 0;
  size_t warm_starts_ = 0;
  size_t cold_restarts_ = 0;
  size_t max_depth_ = 0;
  LpKernelStats kernel_;

  // Two-tier arithmetic accounting (see Run/FillStats): calling-thread
  // baselines plus the pool workers' flushed deltas.
  NumCounters counters_before_;
  uint64_t arena_before_ = 0;
  uint64_t worker_small_ops_ = 0;
  uint64_t worker_big_ops_ = 0;
  uint64_t worker_promotions_ = 0;
  uint64_t worker_demotions_ = 0;
  uint64_t worker_arena_bytes_ = 0;
};

}  // namespace

Result<IlpSolution> SolveWithConditionals(
    const LinearSystem& base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options, CaseSplitWarmContext* warm) {
  LinearSystem work = base;
  return SolveWithConditionalsInPlace(&work, conditionals, options, warm);
}

Result<IlpSolution> SolveWithConditionalsInPlace(
    LinearSystem* base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options, CaseSplitWarmContext* warm) {
  // One enclosing checkpoint rolls back everything the solver appends —
  // including presolve's forced-conclusion rows, which land outside the
  // solver's own per-branch checkpoints by design (they hold for the whole
  // solve, but not beyond it).
  TrailScope scope(base);
  CaseSplitSolver solver(base, conditionals, options, warm);
  return solver.Run();
}

}  // namespace xicc
