#include "core/conditional_solver.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "base/debug.h"
#include "base/thread_annotations.h"
#include "base/worksteal.h"
#include "ilp/audit.h"
#include "ilp/simplex.h"

namespace xicc {

namespace {

/// Search state shared by every DFS worker of one solve — a single worker
/// sequentially (num_threads = 1), or one per fanned-out prefix in the
/// parallel regime. Only the node counter and the terminal flags are
/// contended; each worker counts into its own SolveCounters, which a
/// parallel prefix task adds into `counters` once, when it finishes.
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
  /// `solution` carries feasible + values only (its counters are assembled
  /// by the solver); `error` is the first leaf failure.
  IlpSolution solution XICC_GUARDED_BY(mu);
  Status error XICC_GUARDED_BY(mu);
  /// The finished parallel prefix tasks' counters, thread traffic included.
  SolveCounters counters XICC_GUARDED_BY(mu);
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
      counters.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        shared_->stopped.store(true, std::memory_order_relaxed);
        return;
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters.warm_starts;
        if (!warm.lp.feasible) return;
        have_tab = true;
      }
    }
    if (!have_tab) {
      ++counters.cold_restarts;
      LpResult lp = SolveLpFeasibility(*system_, &tab, shared_->stop);
      counters.AddLp(lp);
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
        // work it did and let the solver report the stop status with
        // partial statistics.
        const StatusCode code = leaf.status().code();
        if (code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kCancelled) {
          counters.Add(leaf_partial.SearchOnly());
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
      counters.Add(leaf->SearchOnly());
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

  /// This worker's search counters: its prune LPs and its leaves'
  /// branch-and-bound (the case-split nodes are counted in SearchShared).
  /// Thread traffic is left to whoever owns the thread's slice.
  SolveCounters counters;

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
    if (options_.stop.Armed()) stop_ = &options_.stop;

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
      ++counters_.cold_restarts;
      LpResult lp = SolveLpFeasibility(*work_, &base_tab, stop_);
      counters_.AddLp(lp);
      if (lp.aborted) return NoVerdict(StopStatus(), nullptr);
      if (!lp.feasible) return Infeasible();
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
        counters_.Add(leaf_partial.SearchOnly());
        return NoVerdict(leaf.status(), nullptr);
      }
      counters_.Add(leaf->SearchOnly());
      if (leaf->feasible) {
        IlpSolution out = std::move(*leaf);
        FillStats(&out, nullptr);
        return out;
      }
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
        return NoVerdict(StopStatus(), nullptr);
      }
      work_->PushCheckpoint();
      work_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
      bool premise_can_vanish = ProbeLp(base_tab, tab_ok);
      work_->PopCheckpoint();
      if (stopped_) return NoVerdict(StopStatus(), nullptr);
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
        counters_.AddLp(warm.lp);
        if (warm.status == WarmStatus::kAborted) {
          return NoVerdict(StopStatus(), nullptr);
        }
        if (warm.status == WarmStatus::kOk) {
          ++counters_.warm_starts;
          // Forced conclusions hold in every solution satisfying the
          // conditionals, so their joint infeasibility settles the verdict.
          if (!warm.lp.feasible) return Infeasible();
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
      FillStats(&out, &shared);
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
      return NoVerdict(status, &shared);
    }
    if (shared.budget_hit.load()) {
      return NoVerdict(Status::ResourceExhausted(
                           "conditional case-split exceeded node budget"),
                       &shared);
    }
    IlpSolution out;
    FillStats(&out, &shared);
    return out;
  }

 private:
  /// Why a stopped solve has no verdict. An LP can abort without a stop
  /// signal (LpPricingConfig::pivot_cap); with no signal to ask, the status
  /// is kCancelled, as in BranchAndBound::Run.
  Status StopStatus() const {
    return stop_ != nullptr ? stop_->ToStatus()
                            : Status::Cancelled("case-split was stopped");
  }

  /// LP feasibility of the current work_ state, warm from `base_tab` when
  /// usable; used by the presolve probes (verdict only, no tableau kept).
  bool ProbeLp(const LpTableau& base_tab, bool tab_ok) {
    if (tab_ok && options_.warm_start) {
      scratch_tab_ = base_tab;
      WarmResult warm =
          ReSolveLpFeasibilityDualInPlace(*work_, &scratch_tab_, stop_);
      counters_.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        stopped_ = true;
        return false;  // Meaningless; the caller checks stopped_ first.
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters_.warm_starts;
        return warm.lp.feasible;
      }
    }
    ++counters_.cold_restarts;
    LpResult lp = SolveLpFeasibility(*work_, nullptr, stop_);
    counters_.AddLp(lp);
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
      counters_.Add(worker.counters);
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

    {
      // Constructed with the solve's cancel token (when any): Cancel() then
      // wakes parked workers and the pool drains unstarted prefix tasks
      // without running them — the fan-out itself honors the stop.
      WorkStealingPool pool(threads,
                            stop_ != nullptr ? stop_->cancel : nullptr);
      for (size_t mask = 0; mask < num_tasks; ++mask) {
        // Bit i of `mask` picks conditional i's resolution; enumeration
        // order matches the sequential DFS (conclusion side first).
        pool.Submit([this, mask, levels, root, shared] {
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
          // Several tasks run back-to-back on one pool thread, so each
          // measures its own slice of the thread's traffic.
          const ThreadTraffic traffic;
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
          traffic.AddTo(&worker.counters);
          MutexLock lock(&shared->mu);
          shared->counters.Add(worker.counters);
        });
      }
      pool.Wait();
    }
    MutexLock lock(&shared->mu);
    counters_.Add(shared->counters);
  }

  /// Writes everything counted so far into `out`'s counters — every exit
  /// reports this way. `shared` (null before the DFS) adds the case-split
  /// node count. Thread traffic is this thread's since the solve started
  /// (the leaf SolveIlp calls on it included) plus what the pool's prefix
  /// tasks measured on theirs.
  void FillStats(IlpSolution* out, const SearchShared* shared) const {
    static_cast<SolveCounters&>(*out) = counters_;
    if (shared != nullptr) out->ilp_nodes += shared->nodes.load();
    traffic_.AddTo(out);
    out->ilp_wall_ms =
        std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
            std::chrono::steady_clock::now() - start_)
            .count();
  }

  /// The no-verdict exit: `status` says why there is no answer, and the
  /// caller's partial sink (when given) receives everything counted so far —
  /// the work already done is part of the contract.
  Status NoVerdict(Status status, const SearchShared* shared) {
    if (options_.partial != nullptr) {
      *options_.partial = IlpSolution{};
      FillStats(options_.partial, shared);
    }
    return status;
  }

  Result<IlpSolution> Infeasible() {
    IlpSolution out;
    FillStats(&out, nullptr);
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

  // The solve's counters, minus the DFS node count (SearchShared) and thread
  // traffic and wall time, which FillStats adds from the two members below.
  // Declared last, so they start measuring once the solver is built.
  SolveCounters counters_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  const ThreadTraffic traffic_;
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
