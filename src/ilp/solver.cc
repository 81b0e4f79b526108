#include "ilp/solver.h"

#include <chrono>
#include <optional>
#include <utility>

#include "base/arena.h"
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
  arena_bytes += other.arena_bytes;
  ilp_wall_ms += other.ilp_wall_ms;
}

SolveCounters SolveCounters::SearchOnly() const {
  SolveCounters out = *this;
  out.num_small_ops = out.num_big_ops = 0;
  out.num_promotions = out.num_demotions = 0;
  out.arena_bytes = 0;
  out.ilp_wall_ms = 0.0;
  return out;
}

ThreadTraffic::ThreadTraffic()
    : num_(ThisThreadNumCounters()),
      arena_bytes_(ThisThreadArena().total_allocated()) {}

void ThreadTraffic::AddTo(SolveCounters* out) const {
  const NumCounters& now = ThisThreadNumCounters();
  out->num_small_ops += now.small_ops - num_.small_ops;
  out->num_big_ops += now.big_ops - num_.big_ops;
  out->num_promotions += now.promotions - num_.promotions;
  out->num_demotions += now.demotions - num_.demotions;
  out->arena_bytes += ThisThreadArena().total_allocated() - arena_bytes_;
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

  const LpRow& row = tableau.rows[best_row];
  Num rhs = Frac(tableau.rhs[best_row]);
  // Accumulate structural coefficients; slack columns substitute to
  // structural terms plus a constant folded into the rhs. Only the row's
  // nonzeros can have a fractional part.
  std::map<VarId, Num> coeffs;
  for (size_t k = 0; k < row.size(); ++k) {
    Num f = Frac(row.vals[k]);
    if (f.is_zero()) continue;
    const LpColumnInfo& column = tableau.columns[row.cols[k]];
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

/// Depth-first cut-and-branch over ONE trail-managed system: branch bounds
/// and node-local Gomory cuts are pushed/popped on `work_` (O(1) amortized
/// per node instead of an O(rows) copy), and every non-root LP solve warm
/// starts from the parent node's final basis via dual simplex.
class BranchAndBound {
 public:
  BranchAndBound(const LinearSystem& system, const IlpOptions& options,
                 const LpTableau* warm_hint)
      : work_(system), options_(options), hint_(warm_hint) {
    // Point at the member copy, not the caller's struct: options_ outlives
    // every poll, and an unarmed signal stays entirely off the hot path.
    if (options_.stop.Armed()) stop_ = &options_.stop;
  }

  Result<IlpSolution> Run() {
    const auto start = std::chrono::steady_clock::now();
    // This solve's own thread traffic. A caller that nests the solve on its
    // thread (the case split's leaves) keeps only SearchOnly() of the result.
    const ThreadTraffic traffic;
    if (options_.apply_papadimitriou_bound) {
      // Upper-bound every variable by the minimal-solution bound, making
      // the search space finite — but only when the bound is cheap to carry
      // (see IlpOptions::max_bound_bits). The row count alone often rules
      // the bound out, which spares the walk over every coefficient.
      const size_t m = work_.NumConstraints();
      const size_t n = work_.NumVariables();
      const size_t m_bits = 64 - __builtin_clzll(m | 1);
      if (m > 0 && (2 * m + 1) * m_bits + 8 <= options_.max_bound_bits) {
        BigInt a = work_.MaxAbsValue();
        const size_t estimated_bits =
            (2 * m + 1) * (m_bits + a.BitLength()) + 8;
        if (estimated_bits <= options_.max_bound_bits) {
          BigInt bound = PapadimitriouBound(m, n, a);
          for (VarId v = 0; v < static_cast<VarId>(n); ++v) {
            work_.AddConstraint(LinearExpr::Var(v), RelOp::kLe, bound);
          }
        }
      }
    }
    bool found = Explore(/*parent=*/hint_, /*depth=*/0);
    solution_.feasible = found;
    traffic.AddTo(&solution_);
    solution_.ilp_wall_ms =
        std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
            std::chrono::steady_clock::now() - start)
            .count();
    // No-verdict exits still hand the work done back through `partial` —
    // a stopped check reports how far it got, never what it concluded.
    if (!found && stopped_) {
      if (options_.partial != nullptr) *options_.partial = solution_;
      return stop_ != nullptr ? stop_->ToStatus()
                              : Status::Cancelled("ILP search was stopped");
    }
    if (!found && budget_hit_) {
      if (options_.partial != nullptr) *options_.partial = solution_;
      return Status::ResourceExhausted(
          "ILP search exceeded " + std::to_string(options_.max_nodes) +
          " branch-and-bound nodes");
    }
    return std::move(solution_);
  }

 private:
  /// One LP solve of the current work_ state into `tab`. When `try_warm`,
  /// `tab` must hold a feasible ancestor basis of a row-prefix of work_ —
  /// the appended rows go through the dual-simplex re-solve; any warm
  /// failure falls back to the cold primal path (identical verdicts).
  LpResult SolveNodeLp(LpTableau* tab, bool try_warm) {
    if (try_warm && options_.warm_start) {
      // In-place re-solve: `tab` is this node's private (or scratch) copy,
      // and every failure path below overwrites it with a cold solve.
      WarmResult warm = ReSolveLpFeasibilityDualInPlace(work_, tab, stop_);
      solution_.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        // The stop fired mid-pivot. No cold fallback — the point of
        // stopping is to stop, not to finish the node another way.
        stopped_ = true;
        LpResult aborted;
        aborted.aborted = true;
        return aborted;
      }
      if (warm.status == WarmStatus::kOk) {
        ++solution_.warm_starts;
        // The folded-back warm tableau must satisfy the same invariants as
        // a cold export — this is where a broken dual pivot would surface.
        if (warm.lp.feasible) {
          XICC_DCHECK_AUDIT(AuditTableau(work_, *tab));
        }
        return std::move(warm.lp);
      }
    }
    ++solution_.cold_restarts;
    LpResult lp = SolveLpFeasibility(work_, tab, stop_);
    solution_.AddLp(lp);
    if (lp.aborted) {
      stopped_ = true;
      return lp;
    }
    if (lp.feasible && tab != nullptr) {
      XICC_DCHECK_AUDIT(AuditTableau(work_, *tab));
    }
    return lp;
  }

  /// Returns true when an integer solution was found (stored in solution_).
  /// `parent` is the parent node's final tableau (null at the root); work_
  /// already contains this node's branch row.
  bool Explore(const LpTableau* parent, size_t depth) {
    // Fault site: under XICC_FAULTS a configured probe cancels the
    // registered token right here, exercising the very poll below.
    XICC_FAULT_PROBE(kBnbNode);
    if (stopped_ || (stop_ != nullptr && stop_->ShouldStop())) {
      stopped_ = true;
      return false;
    }
    if (options_.max_nodes != 0 &&
        solution_.ilp_nodes >= options_.max_nodes) {
      budget_hit_ = true;
      return false;
    }
    ++solution_.ilp_nodes;
    if (depth > solution_.search_depth) solution_.search_depth = depth;
    XICC_DCHECK_AUDIT(AuditTrail(work_));

    // Gomory cuts derived here stay pushed for the whole subtree (they are
    // valid under the current branches) and are undone when the node exits.
    work_.PushCheckpoint();
    bool found = ExploreWithCuts(parent, depth);
    work_.PopCheckpoint();
    return found;
  }

  bool ExploreWithCuts(const LpTableau* parent, size_t depth) {
    // Node tableaus come from a free list: releasing back to it keeps the
    // row buffers, so the per-node `*tab = *parent` copy — O(rows + nnz) on
    // sparse rows — settles into zero allocator traffic once the tree depth
    // has been visited once. (LpTableau itself must stay heap-vector-backed
    // — parents are shared down the DFS and outlive any one node's arena
    // scope.)
    LpTableauPool::Lease local(&tableau_pool_);
    LpTableau* tab = local.get();
    bool try_warm = parent != nullptr;
    if (try_warm) {
      // The sibling still needs `parent`, so every node works on a copy. The
      // root may copy into the caller's scratch tableau instead of a pooled
      // one — re-passing the same scratch across solves keeps its capacity
      // warm from call to call, not just node to node.
      if (parent == hint_ && options_.root_scratch != nullptr) {
        tab = options_.root_scratch;
      }
      *tab = *parent;
    }
    LpResult lp = SolveNodeLp(tab, try_warm);

    // Cut loop: solve, finish/prune, else strengthen with a Gomory cut and
    // warm re-solve from this node's own basis (one appended row).
    VarId fractional = -1;
    for (size_t round = 0; round <= options_.max_cut_rounds; ++round) {
      if (!lp.feasible) return false;

      fractional = -1;
      for (size_t i = 0; i < lp.values.size(); ++i) {
        if (!lp.values[i].is_integer()) {
          fractional = static_cast<VarId>(i);
          break;
        }
      }
      if (fractional < 0) {
        solution_.values.clear();
        solution_.values.reserve(lp.values.size());
        for (const Num& v : lp.values) {
          solution_.values.push_back(v.num());
        }
        return true;
      }
      if (round == options_.max_cut_rounds) break;
      // Cut rounds can chain many LP solves at one node; poll between them
      // so a node stuck strengthening cuts still honors the deadline.
      if (stopped_ || (stop_ != nullptr && stop_->ShouldStop())) {
        stopped_ = true;
        return false;
      }
      std::optional<LinearConstraint> cut = DeriveGomoryCut(work_, *tab);
      if (!cut.has_value()) break;
      work_.AddRaw(std::move(*cut));
      ++solution_.cuts_added;
      lp = SolveNodeLp(tab, /*try_warm=*/true);
    }

    const Num value = lp.values[fractional];
    work_.PushCheckpoint();
    work_.AddConstraint(LinearExpr::Var(fractional), RelOp::kLe,
                        value.Floor());
    bool found = Explore(tab, depth + 1);
    work_.PopCheckpoint();
    if (found) return true;
    work_.PushCheckpoint();
    work_.AddConstraint(LinearExpr::Var(fractional), RelOp::kGe,
                        value.Ceil());
    found = Explore(tab, depth + 1);
    work_.PopCheckpoint();
    return found;
  }

  LinearSystem work_;
  IlpOptions options_;
  const LpTableau* hint_;
  /// Non-null iff options_.stop is armed; points into options_.
  const StopSignal* stop_ = nullptr;
  IlpSolution solution_;
  LpTableauPool tableau_pool_;
  bool budget_hit_ = false;
  /// The stop signal fired (observed at a node, a cut round, or inside a
  /// pivot loop). Distinct from budget_hit_: a budget trip is a resource
  /// verdict, a stop is the caller changing its mind.
  bool stopped_ = false;
};

}  // namespace

Result<IlpSolution> SolveIlp(const LinearSystem& system,
                             const IlpOptions& options,
                             const LpTableau* warm_hint) {
  BranchAndBound solver(system, options, warm_hint);
  return solver.Run();
}

}  // namespace xicc
