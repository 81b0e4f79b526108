#include "core/conditional_solver.h"

#include <chrono>
#include <utility>

#include "base/debug.h"
#include "ilp/audit.h"
#include "ilp/simplex.h"

namespace xicc {

namespace {

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
    const LpTableau* base_ro = &base_tab;
    if (options_.warm_start && warm_ != nullptr && warm_->valid) {
      XICC_DCHECK_AUDIT(AuditTableau(*work_, warm_->base_tableau));
      base_ro = &warm_->base_tableau;
    } else {
      ++counters_.cold_restarts;
      LpResult lp = SolveLpFeasibility(*work_, &base_tab, stop_);
      counters_.AddLp(lp);
      if (lp.aborted) return NoVerdict(StopStatus());
      if (!lp.feasible) return Infeasible();
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
      Result<IlpSolution> leaf = SolveIlp(*work_, leaf_options, base_ro);
      work_->PopCheckpoint();
      if (!leaf.ok()) {
        counters_.Add(leaf_partial.SearchOnly());
        return NoVerdict(leaf.status());
      }
      counters_.Add(leaf->SearchOnly());
      if (leaf->feasible) {
        IlpSolution out = std::move(*leaf);
        FillStats(&out);
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
        return NoVerdict(StopStatus());
      }
      work_->PushCheckpoint();
      work_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
      bool premise_can_vanish = ProbeLp(base_tab);
      work_->PopCheckpoint();
      if (outcome_ != Outcome::kOpen) return NoVerdict(halt_);
      if (premise_can_vanish) {
        active_.push_back(cond);
        continue;
      }
      work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      if (options_.warm_start) {
        // Extend the working basis over the freshly forced row so later
        // probes and the DFS root stay warm. The re-solve runs on a copy,
        // adopted only when it ends feasible; on any other outcome the basis
        // keeps covering its old prefix (still a valid warm seed).
        scratch_tab_ = base_tab;
        WarmResult warm =
            ReSolveLpFeasibilityDualInPlace(*work_, &scratch_tab_, stop_);
        counters_.AddLp(warm.lp);
        if (warm.status == WarmStatus::kAborted) {
          return NoVerdict(StopStatus());
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

    // The case-split DFS over the surviving conditionals, rooted at the
    // presolved basis.
    Explore(0, base_tab);
    XICC_DCHECK_AUDIT(AuditTrail(*work_));
    if (outcome_ == Outcome::kFailed) return halt_;
    if (outcome_ == Outcome::kNoVerdict) return NoVerdict(halt_);
    IlpSolution out;
    out.feasible = outcome_ == Outcome::kFound;
    out.values = std::move(found_values_);
    FillStats(&out);
    return out;
  }

 private:
  /// How the search ended: still open (no feasible leaf, nothing halted
  /// it), a feasible leaf found, a leaf solve failed, or no verdict — the
  /// stop signal fired or the node budget ran out. `halt_` carries the
  /// status of the last two.
  enum class Outcome { kOpen, kFound, kFailed, kNoVerdict };

  void Halt(Outcome outcome, Status status) {
    outcome_ = outcome;
    halt_ = std::move(status);
  }

  /// Why a stopped solve has no verdict. An LP can abort without a stop
  /// signal (LpPricingConfig::pivot_cap); with no signal to ask, the status
  /// is kCancelled, as in BranchAndBound::Run.
  Status StopStatus() const {
    return stop_ != nullptr ? stop_->ToStatus()
                            : Status::Cancelled("case-split was stopped");
  }

  /// LP feasibility of the current work_ state, warm from `base_tab` when
  /// usable; used by the presolve probes (verdict only, no tableau kept).
  /// An aborted solve halts the search (its return value is meaningless).
  bool ProbeLp(const LpTableau& base_tab) {
    if (options_.warm_start) {
      scratch_tab_ = base_tab;
      WarmResult warm =
          ReSolveLpFeasibilityDualInPlace(*work_, &scratch_tab_, stop_);
      counters_.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        Halt(Outcome::kNoVerdict, StopStatus());
        return false;
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters_.warm_starts;
        return warm.lp.feasible;
      }
    }
    ++counters_.cold_restarts;
    LpResult lp = SolveLpFeasibility(*work_, nullptr, stop_);
    counters_.AddLp(lp);
    if (lp.aborted) Halt(Outcome::kNoVerdict, StopStatus());
    return lp.feasible;
  }

  /// Resolves the active conditionals from index `depth` on: `work_`
  /// carries the resolutions made so far, `parent` the basis of the node
  /// above. Resolutions are pushed/popped on the trail — O(1) amortized per
  /// node instead of an O(rows) system copy — and each node's LP prune warm
  /// starts from the parent's basis; the basis that survives the prune then
  /// seeds the leaf ILP's root.
  void Explore(size_t depth, const LpTableau& parent) {
    if (stop_ != nullptr && stop_->ShouldStop()) {
      Halt(Outcome::kNoVerdict, StopStatus());
      return;
    }
    XICC_DCHECK_AUDIT(AuditTrail(*work_));
    ++nodes_;
    if (options_.max_nodes != 0 && nodes_ > options_.max_nodes) {
      Halt(Outcome::kNoVerdict,
           Status::ResourceExhausted(
               "conditional case-split exceeded node budget"));
      return;
    }

    // LP pruning: if even the relaxation (ignoring unresolved conditionals)
    // is infeasible, no resolution below can succeed. The node's tableau
    // comes from the solver's free list, so the copy of the parent reuses
    // the row buffers of an earlier node at this depth.
    LpTableauPool::Lease lease(&tableau_pool_);
    LpTableau& tab = *lease.get();
    bool have_tab = false;
    if (options_.warm_start) {
      tab = parent;
      WarmResult warm = ReSolveLpFeasibilityDualInPlace(*work_, &tab, stop_);
      counters_.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        Halt(Outcome::kNoVerdict, StopStatus());
        return;
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters_.warm_starts;
        if (!warm.lp.feasible) return;
        have_tab = true;
      }
    }
    if (!have_tab) {
      ++counters_.cold_restarts;
      LpResult lp = SolveLpFeasibility(*work_, &tab, stop_);
      counters_.AddLp(lp);
      if (lp.aborted) {
        Halt(Outcome::kNoVerdict, StopStatus());
        return;
      }
      if (!lp.feasible) return;
    }

    if (depth == active_.size()) {
      // Fully resolved: the conditionals now hold for *any* solution of
      // `work_`, so plain integer feasibility decides this leaf — its root
      // LP warm-seeded from the pruning basis just computed.
      IlpOptions leaf_options = options_;
      leaf_options.root_scratch = &leaf_root_scratch_;
      IlpSolution leaf_partial;
      leaf_options.partial = &leaf_partial;
      Result<IlpSolution> leaf = SolveIlp(*work_, leaf_options, &tab);
      if (!leaf.ok()) {
        // A stopped leaf is the search being stopped, not failing: keep the
        // work it did and report the stop status with partial statistics.
        const StatusCode code = leaf.status().code();
        if (code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kCancelled) {
          counters_.Add(leaf_partial.SearchOnly());
          Halt(Outcome::kNoVerdict, leaf.status());
          return;
        }
        Halt(Outcome::kFailed, leaf.status());
        return;
      }
      counters_.Add(leaf->SearchOnly());
      if (leaf->feasible) {
        outcome_ = Outcome::kFound;
        found_values_ = std::move(leaf->values);
      }
      return;
    }

    const Conditional& cond = active_[depth];

    // Branch 1: conclusion ≥ 1 (the conditional is discharged outright).
    work_->PushCheckpoint();
    work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
    Explore(depth + 1, tab);
    work_->PopCheckpoint();
    if (outcome_ != Outcome::kOpen) return;
    // Branch 2: premise = 0 (the premise is false; over nonnegative
    // variables this pins every term of the premise to zero).
    work_->PushCheckpoint();
    work_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
    Explore(depth + 1, tab);
    work_->PopCheckpoint();
  }

  /// Writes everything counted so far into `out`'s counters — every exit
  /// reports this way: the case-split node count, and thread traffic and
  /// wall time since the solve started (the leaf SolveIlp calls included).
  void FillStats(IlpSolution* out) const {
    static_cast<SolveCounters&>(*out) = counters_;
    out->ilp_nodes += nodes_;
    traffic_.AddTo(out);
    out->ilp_wall_ms =
        std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
            std::chrono::steady_clock::now() - start_)
            .count();
  }

  /// The no-verdict exit: `status` says why there is no answer, and the
  /// caller's partial sink (when given) receives everything counted so far —
  /// the work already done is part of the contract.
  Status NoVerdict(Status status) {
    if (options_.partial != nullptr) {
      *options_.partial = IlpSolution{};
      FillStats(options_.partial);
    }
    return status;
  }

  Result<IlpSolution> Infeasible() {
    IlpSolution out;
    FillStats(&out);
    return out;
  }

  LinearSystem* work_;
  const std::vector<Conditional>& conditionals_;
  std::vector<Conditional> active_;  // Survivors of presolve.
  IlpOptions options_;
  CaseSplitWarmContext* warm_;
  /// Non-null iff options_.stop is armed; points into options_.
  const StopSignal* stop_ = nullptr;
  Outcome outcome_ = Outcome::kOpen;
  Status halt_;
  std::vector<BigInt> found_values_;  // The feasible leaf's values.
  /// What presolve's probes and forced-row extensions re-solve: a copy of
  /// the working basis, into buffers kept from the previous copy.
  LpTableau scratch_tab_;
  /// The DFS nodes' tableaux, and the scratch each leaf's root copies its
  /// warm hint into.
  LpTableauPool tableau_pool_;
  LpTableau leaf_root_scratch_;

  // The solve's counters, minus the DFS node count and thread traffic and
  // wall time, which FillStats adds from the members below. Declared last,
  // so they start measuring once the solver is built.
  SolveCounters counters_;
  size_t nodes_ = 0;
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
