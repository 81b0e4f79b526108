#include "ilp/solver.h"

#include <chrono>
#include <optional>
#include <utility>

#include "base/debug.h"
#include "base/faults.h"
#include "ilp/audit.h"
#include "ilp/simplex.h"

namespace xicc {

void SolveCounters::Add(const SolveCounters& other) {
  ilp_nodes += other.ilp_nodes;
  lp_pivots += other.lp_pivots;
  cuts_added += other.cuts_added;
  warm_starts += other.warm_starts;
  cold_restarts += other.cold_restarts;
  if (other.search_depth > search_depth) search_depth = other.search_depth;
  lp_kernel.Add(other.lp_kernel);
  num_small_ops += other.num_small_ops;
  num_big_ops += other.num_big_ops;
  num_promotions += other.num_promotions;
  num_demotions += other.num_demotions;
  ilp_wall_ms += other.ilp_wall_ms;
}

ThreadTraffic::ThreadTraffic() : num_(ThisThreadNumCounters()) {}

void ThreadTraffic::AddTo(SolveCounters* out) const {
  const NumCounters& now = ThisThreadNumCounters();
  out->num_small_ops += now.small_ops - num_.small_ops;
  out->num_big_ops += now.big_ops - num_.big_ops;
  out->num_promotions += now.promotions - num_.promotions;
  out->num_demotions += now.demotions - num_.demotions;
}

BigInt PapadimitriouBound(size_t num_constraints, size_t num_variables,
                          const BigInt& max_abs_value) {
  if (num_constraints == 0 || num_variables == 0) return BigInt(1);
  BigInt ma = BigInt(static_cast<int64_t>(num_constraints)) * max_abs_value;
  return BigInt(static_cast<int64_t>(num_variables)) *
         BigInt::Pow(ma, 2 * static_cast<uint64_t>(num_constraints) + 1);
}

namespace {

/// Fractional part f(x) = x - ⌊x⌋ ∈ [0, 1).
Num Frac(const Num& value) {
  return value - value.Floor();
}

/// Derives a Gomory fractional cut from a basis row with fractional rhs.
///
/// For a row  x_B + Σ_j ā_j·x_j = b̄  over integer variables (structural and
/// slack; nonbasic artificials are identically zero and ignored), every
/// integer-feasible point satisfies  Σ_j f(ā_j)·x_j ≥ f(b̄). Slack variables
/// are then substituted out via their column's sub_sign
/// (s = ±(rhs_k − expr_k)) and denominators cleared, yielding a pure
/// structural-variable row to append. A cut with empty support and positive
/// rhs certifies integer infeasibility — the caller appends it and the next
/// LP round reports infeasible.
std::optional<LinearConstraint> DeriveGomoryCut(const LinearSystem& system,
                                                const LpTableau& tableau) {
  // Pick the usable fractional row whose rhs fraction is closest to 1/2
  // (strongest cut).
  int best_row = -1;
  Num best_score;
  const Num half(BigInt(1), BigInt(2));
  for (size_t i = 0; i < tableau.rhs.size(); ++i) {
    if (tableau.basis[i] < 0) continue;  // Artificial still basic.
    Num f = Frac(tableau.rhs[i]);
    if (f.is_zero()) continue;
    Num score = f <= half ? f : Num(1) - f;
    if (best_row < 0 || score > best_score) {
      best_row = static_cast<int>(i);
      best_score = score;
    }
  }
  if (best_row < 0) return std::nullopt;

  const LpRowStore& rows = tableau.rows;
  const size_t row = static_cast<size_t>(best_row);
  Num rhs = Frac(tableau.rhs[row]);
  // Accumulate structural coefficients; slack columns substitute to
  // structural terms plus a constant folded into the rhs. Only the row's
  // nonzeros can have a fractional part.
  std::map<VarId, Num> coeffs;
  for (size_t k = 0; k < rows.RowSize(row); ++k) {
    Num f = Frac(rows.Value(row, k));
    if (f.is_zero()) continue;
    const LpColumnInfo& column = tableau.columns[rows.Col(row, k)];
    if (column.kind == LpColumnInfo::Kind::kStructural) {
      coeffs[column.index] += f;
      continue;
    }
    // Slack of constraint k: sub_sign −1 has s = rhs_k − expr_k, +1 has
    // s = expr_k − rhs_k (the op no longer decides — appended equalities
    // are split into both halves by the warm re-solver).
    const LinearConstraint& c = system.constraints()[column.index];
    int sign = column.sub_sign;
    for (const auto& [var, coeff] : c.coeffs) {
      Num term = f * coeff;
      coeffs[var] += sign < 0 ? -term : term;
    }
    // f·s contributes f·(∓rhs_k) as a constant on the left; move it right.
    Num constant = f * c.rhs;
    rhs += sign < 0 ? -constant : constant;
  }

  // Clear denominators: multiply by the LCM.
  BigInt lcm(1);
  auto fold = [&lcm](const Num& value) {
    BigInt den = value.den();
    BigInt g = BigInt::Gcd(lcm, den);
    lcm = lcm / g * den;
  };
  for (const auto& [var, value] : coeffs) fold(value);
  fold(rhs);

  LinearConstraint cut;
  cut.op = RelOp::kGe;
  const Num scale{BigInt(lcm)};
  cut.coeffs.reserve(coeffs.size());
  for (const auto& [var, value] : coeffs) {
    Num scaled = value * scale;
    // std::map iteration keeps the flat row VarId-sorted, as AddRaw requires.
    if (!scaled.is_zero()) cut.coeffs.emplace_back(var, scaled.num());
  }
  cut.rhs = Num((rhs * scale).num());
  return cut;
}

/// The one search tree of a solve (Theorem 4.1): a depth-first search on
/// the caller's trail. While a conditional is unresolved, a node branches on
/// the first one; once all are resolved the node is an integer root, and it
/// and its descendants branch on integrality (Gomory cuts, then ⌊v⌋/⌈v⌉).
/// Every row a node adds (a resolution, a branch bound, a cut, the box) is
/// pushed on `*work_` and popped when the node exits, and every node's LP
/// re-solves warm from its parent's final basis.
class Search {
 public:
  /// The search appends onto `*work`'s trail; the caller owns the enclosing
  /// checkpoint that rolls the rows it leaves behind back. Node tableaux are
  /// leased from `pool`.
  Search(LinearSystem* work, const IlpOptions& options, LpTableauPool* pool)
      : work_(work), options_(options), pool_(pool) {
    // Point at the member copy, not the caller's struct: options_ outlives
    // every poll, and an unarmed signal stays entirely off the hot path.
    if (options_.stop.Armed()) stop_ = &options_.stop;
  }

  /// Integer feasibility of `*work_` as it stands: the root is an integer
  /// root, warm started from `hint` when given.
  Result<IlpSolution> SolveIntegers(const LpTableau* hint) {
    Explore(hint, /*resolved=*/0, /*depth=*/0);
    return Finish();
  }

  /// Integer feasibility of `*work_` under `conditionals`; `warm` holds the
  /// base basis across calls and the pool the search leases from.
  Result<IlpSolution> SolveConditionals(
      const std::vector<Conditional>& conditionals,
      CaseSplitWarmContext* warm) {
    // The base basis: factorized cold exactly once — taken from the caller's
    // context when it is valid (the connectivity-cut loop re-enters here with
    // the same base every round, a session with its skeleton basis), solved
    // otherwise. It warm-seeds the optimistic leaf, the presolve probes and
    // the split alike. The leaf reads the context's basis in place; the
    // working copy presolve mutates is only taken if the leaf fails to
    // settle the query. Without warm starts nothing reads the context, so a
    // cold solve leaves it alone: a session's context must keep covering
    // its skeleton, not this query's rows.
    LpTableauPool::Lease base_lease(pool_);
    LpTableau* base_tab = base_lease.get();
    const LpTableau* base = &warm->base_tableau;
    if (options_.warm_start && warm->valid) {
      XICC_DCHECK_AUDIT(AuditTableau(*work_, warm->base_tableau));
    } else {
      if (!SolveLp(/*parent=*/nullptr, base_tab).feasible) {
        // A refutation by the base LP is the search's root node, as it is
        // for SolveIlp; a stop that fired has no verdict to count.
        if (halt_.ok()) ++counters_.ilp_nodes;
        return Finish();
      }
      base = base_tab;
      if (options_.warm_start) {
        warm->base_tableau = *base_tab;
        warm->valid = true;
      }
    }

    // Optimistic leaf: resolve every conditional to its conclusion ≥ 1 and
    // try that one integer root first (no conditional is active yet, so the
    // root is integral). Consistent specifications normally populate all
    // their element types, so this settles them without the split.
    {
      TrailScope leaf(work_);
      for (const Conditional& cond : conditionals) {
        work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      }
      Explore(base, /*resolved=*/0, /*depth=*/0);
    }
    if (Done()) return Finish();

    // Presolve: a conditional whose premise cannot vanish (base + premise=0
    // is LP-infeasible) has a forced conclusion; install it as a hard row
    // and drop the conditional from the split. Typical win: ext(τ) of
    // unavoidable element types, which the DTD pins ≥ 1. Each probe is a
    // push/solve/pop round on the one working system, re-solved warm from
    // the working basis.
    if (base != base_tab) *base_tab = *base;
    LpTableauPool::Lease scratch_lease(pool_);
    LpTableau* scratch = scratch_lease.get();
    for (const Conditional& cond : conditionals) {
      if (PollStop()) return Finish();
      bool premise_can_vanish = false;
      {
        TrailScope probe(work_);
        work_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
        premise_can_vanish =
            SolveLp(base_tab, scratch, /*keep_basis=*/false).feasible;
      }
      if (Done()) return Finish();
      if (premise_can_vanish) {
        active_.push_back(cond);
        continue;
      }
      work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      if (!options_.warm_start) continue;
      // Extend the working basis over the freshly forced row so later probes
      // and the split stay warm. The re-solve runs on a copy, adopted only
      // when it ends feasible; on any other outcome the basis keeps covering
      // its old prefix (still a valid warm seed).
      *scratch = *base_tab;
      WarmResult extended =
          ReSolveLpFeasibilityDualInPlace(*work_, scratch, stop_);
      counters_.AddLp(extended.lp);
      if (extended.status == WarmStatus::kAborted) {
        Halt(StopStatus());
        return Finish();
      }
      if (extended.status != WarmStatus::kOk) continue;
      ++counters_.warm_starts;
      // Forced conclusions hold in every solution satisfying the
      // conditionals, so their joint infeasibility settles the verdict.
      if (!extended.lp.feasible) return Finish();
      std::swap(base_tab, scratch);
    }
    // With no conditional left to split on, the split's root is base plus
    // every conclusion ≥ 1: the optimistic leaf's system, already refuted.
    if (active_.empty()) return Finish();

    // The split over the surviving conditionals, rooted at the presolved
    // basis.
    Explore(base_tab, /*resolved=*/0, /*depth=*/0);
    XICC_DCHECK_AUDIT(AuditTrail(*work_));
    return Finish();
  }

 private:
  /// The search unwinds once an integer solution is found or it is halted.
  bool Done() const { return found_ || !halt_.ok(); }

  /// Ends the search without a verdict: the stop fired or the budget ran out.
  void Halt(Status status) { halt_ = std::move(status); }

  /// Why a stopped solve has no verdict. An LP can abort without a stop
  /// signal (LpPricingConfig::pivot_cap); with no signal to ask, the status
  /// is kCancelled.
  Status StopStatus() const {
    return stop_ != nullptr ? stop_->ToStatus()
                            : Status::Cancelled("ILP search was stopped");
  }

  /// Polls the stop signal; halts the search and returns true when it fired.
  bool PollStop() {
    if (stop_ == nullptr || !stop_->ShouldStop()) return false;
    Halt(StopStatus());
    return true;
  }

  /// The LP of `*work_`'s current rows, into `*tab`. With warm starts on and
  /// a `parent` — a feasible basis of a row-prefix of `*work_`, which may be
  /// `tab` itself — the parent's basis is copied into `*tab` and re-solved in
  /// place by dual simplex; otherwise, or when that basis is unusable, a
  /// cold primal solve runs (identical verdicts). A cold solve exports its
  /// basis into `*tab` only when `keep_basis`. A stop mid-solve halts the
  /// search and returns an infeasible result that is no verdict.
  LpResult SolveLp(const LpTableau* parent, LpTableau* tab,
                   bool keep_basis = true) {
    if (parent != nullptr && options_.warm_start) {
      if (parent != tab) *tab = *parent;
      WarmResult warm = ReSolveLpFeasibilityDualInPlace(*work_, tab, stop_);
      counters_.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        // No cold fallback — the point of stopping is to stop, not to finish
        // the solve another way.
        Halt(StopStatus());
        return LpResult{};
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters_.warm_starts;
        // The folded-back warm tableau must satisfy the same invariants as
        // a cold export — this is where a broken dual pivot would surface.
        if (warm.lp.feasible && keep_basis) {
          XICC_DCHECK_AUDIT(AuditTableau(*work_, *tab));
        }
        return std::move(warm.lp);
      }
    }
    ++counters_.cold_restarts;
    LpResult lp =
        SolveLpFeasibility(*work_, keep_basis ? tab : nullptr, stop_);
    counters_.AddLp(lp);
    if (lp.aborted) {
      Halt(StopStatus());
      return LpResult{};
    }
    if (lp.feasible && keep_basis) {
      XICC_DCHECK_AUDIT(AuditTableau(*work_, *tab));
    }
    return lp;
  }

  /// At an integer root: upper-bounds every variable by the minimal-solution
  /// bound, making the search space finite — but only when the bound is cheap
  /// to carry (see IlpOptions::max_bound_bits). The row count alone often
  /// rules the bound out, which spares the walk over every coefficient.
  void ApplyPapadimitriouBox() {
    if (!options_.apply_papadimitriou_bound) return;
    const size_t m = work_->NumConstraints();
    const size_t n = work_->NumVariables();
    const size_t m_bits = 64 - __builtin_clzll(m | 1);
    if (m == 0 || (2 * m + 1) * m_bits + 8 > options_.max_bound_bits) return;
    BigInt a = work_->MaxAbsValue();
    const size_t estimated_bits = (2 * m + 1) * (m_bits + a.BitLength()) + 8;
    if (estimated_bits > options_.max_bound_bits) return;
    BigInt bound = PapadimitriouBound(m, n, a);
    for (VarId v = 0; v < static_cast<VarId>(n); ++v) {
      work_->AddConstraint(LinearExpr::Var(v), RelOp::kLe, bound);
    }
  }

  /// One node. `*work_` already holds the row that led here; `parent` is the
  /// parent's final tableau (null: solve cold). The first `resolved` active
  /// conditionals are resolved on the trail; `depth` counts the integrality
  /// branches between the node and its integer root.
  void Explore(const LpTableau* parent, size_t resolved, size_t depth) {
    // Fault site: under XICC_FAULTS a configured probe cancels the
    // registered token right here, exercising the very poll below.
    XICC_FAULT_PROBE(kBnbNode);
    if (PollStop()) return;
    if (options_.max_nodes != 0 && counters_.ilp_nodes >= options_.max_nodes) {
      Halt(Status::ResourceExhausted("ILP search exceeded " +
                                     std::to_string(options_.max_nodes) +
                                     " search nodes"));
      return;
    }
    ++counters_.ilp_nodes;
    if (depth > counters_.search_depth) counters_.search_depth = depth;
    XICC_DCHECK_AUDIT(AuditTrail(*work_));

    // The box and the Gomory cuts derived here hold for the whole subtree
    // and are undone when the node exits.
    TrailScope node(work_);
    const bool integral = resolved == active_.size();
    if (integral && depth == 0) ApplyPapadimitriouBox();
    // Node tableaux come from the pool: releasing back to it keeps the row
    // buffers, so the per-node copy of the parent — O(rows + nnz) on sparse
    // rows — settles into zero allocator traffic.
    LpTableauPool::Lease lease(pool_);
    LpTableau* tab = lease.get();
    LpResult lp = SolveLp(parent, tab);

    if (!integral) {
      // An infeasible relaxation prunes every resolution below.
      if (!lp.feasible) return;
      const Conditional& cond = active_[resolved];
      // Conclusion ≥ 1 (the conditional is discharged outright), then
      // premise = 0 (over nonnegative variables this pins every term of the
      // premise to zero).
      Branch(*tab, cond.conclusion, RelOp::kGe, Num(1), resolved + 1, 0);
      if (Done()) return;
      Branch(*tab, cond.premise, RelOp::kEq, Num(0), resolved + 1, 0);
      return;
    }

    // Cut loop: solve, finish/prune, else strengthen with a Gomory cut and
    // warm re-solve from this node's own basis (one appended row).
    VarId fractional = -1;
    for (size_t round = 0; round <= options_.max_cut_rounds; ++round) {
      if (!lp.feasible) return;
      fractional = -1;
      for (size_t i = 0; i < lp.values.size(); ++i) {
        if (!lp.values[i].is_integer()) {
          fractional = static_cast<VarId>(i);
          break;
        }
      }
      if (fractional < 0) {
        found_ = true;
        values_.clear();
        values_.reserve(lp.values.size());
        for (const Num& v : lp.values) values_.push_back(v.num());
        return;
      }
      if (round == options_.max_cut_rounds) break;
      // Cut rounds can chain many LP solves at one node; poll between them
      // so a node stuck strengthening cuts still honors the deadline.
      if (PollStop()) return;
      std::optional<LinearConstraint> cut = DeriveGomoryCut(*work_, *tab);
      if (!cut.has_value()) break;
      work_->AddRaw(std::move(*cut));
      ++counters_.cuts_added;
      lp = SolveLp(tab, tab);
    }

    const Num value = lp.values[fractional];
    const LinearExpr x = LinearExpr::Var(fractional);
    Branch(*tab, x, RelOp::kLe, value.Floor(), resolved, depth + 1);
    if (Done()) return;
    Branch(*tab, x, RelOp::kGe, value.Ceil(), resolved, depth + 1);
  }

  /// The child of the node whose final tableau is `parent` that adds
  /// `expr op rhs`.
  void Branch(const LpTableau& parent, const LinearExpr& expr, RelOp op,
              Num rhs, size_t resolved, size_t depth) {
    TrailScope child(work_);
    work_->AddConstraint(expr, op, std::move(rhs));
    Explore(&parent, resolved, depth);
  }

  /// Every exit reports through here: the counters, thread traffic and wall
  /// time since the search began. A search without a verdict — the stop
  /// fired or the node budget ran out — returns why, and the caller's
  /// partial sink (when given) receives the counters: the work already done
  /// is part of the contract.
  Result<IlpSolution> Finish() {
    IlpSolution out;
    static_cast<SolveCounters&>(out) = counters_;
    traffic_.AddTo(&out);
    out.ilp_wall_ms =
        std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
            std::chrono::steady_clock::now() - start_)
            .count();
    if (!halt_.ok()) {
      if (options_.partial != nullptr) *options_.partial = std::move(out);
      return halt_;
    }
    out.feasible = found_;
    out.values = std::move(values_);
    return out;
  }

  LinearSystem* work_;
  IlpOptions options_;
  LpTableauPool* pool_;
  /// Non-null iff options_.stop is armed; points into options_.
  const StopSignal* stop_ = nullptr;
  /// The conditionals the split resolves (presolve's survivors).
  std::vector<Conditional> active_;
  /// Why the search has no verdict; ok while it may still reach one.
  Status halt_;
  bool found_ = false;
  std::vector<BigInt> values_;  // The integer solution, once found_.

  // Declared last, so they start measuring once the search is built.
  SolveCounters counters_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  const ThreadTraffic traffic_;
};

}  // namespace

Result<IlpSolution> SolveIlp(const LinearSystem& system,
                             const IlpOptions& options,
                             const LpTableau* warm_hint) {
  LinearSystem work = system;
  LpTableauPool pool;
  Search search(&work, options, &pool);
  return search.SolveIntegers(warm_hint);
}

Result<IlpSolution> SolveWithConditionals(
    const LinearSystem& base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options, CaseSplitWarmContext* warm) {
  LinearSystem work = base;
  return SolveWithConditionalsInPlace(&work, conditionals, options, warm);
}

Result<IlpSolution> SolveWithConditionalsInPlace(
    LinearSystem* base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options, CaseSplitWarmContext* warm) {
  CaseSplitWarmContext local;
  if (warm == nullptr) warm = &local;
  // One enclosing checkpoint rolls back everything the search appends —
  // including presolve's forced-conclusion rows, which land outside the
  // search's own per-node checkpoints by design (they hold for the whole
  // solve, but not beyond it).
  TrailScope scope(base);
  Search search(base, options, &warm->pool);
  return search.SolveConditionals(conditionals, warm);
}

}  // namespace xicc
