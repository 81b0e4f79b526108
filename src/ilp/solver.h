#pragma once

#include <vector>

#include "base/bigint.h"
#include "base/deadline.h"
#include "base/status.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"

namespace xicc {

struct IlpSolution;

struct IlpOptions {
  /// Hard cap on search nodes, case-split and branch-and-bound nodes alike:
  /// one budget for the whole search tree of a solve. Exceeding it yields
  /// kResourceExhausted. 0 means unlimited.
  size_t max_nodes = 200000;
  /// Gomory fractional-cut rounds attempted per node before branching.
  /// Cuts settle parity-style integer infeasibilities (e.g. 2x = 2y + 1)
  /// that pure branching would chase toward the variable bound.
  size_t max_cut_rounds = 20;
  /// Clamp every variable by the Papadimitriou minimal-solution bound at each
  /// integer root (the whole system for SolveIlp, each fully resolved case
  /// for SolveWithConditionals), which makes the search space finite — but
  /// only when the bound fits in `max_bound_bits` (the bound is
  /// n·(m·a)^(2m+1); carrying wide constants through every simplex pivot
  /// dwarfs the search itself, so the default keeps the box at machine-word
  /// scale). Without the box, Gomory cuts settle the common divergent cases
  /// and max_nodes is the honest termination backstop.
  bool apply_papadimitriou_bound = true;
  size_t max_bound_bits = 64;
  /// Serve child-node and cut-round LP solves by dual-simplex re-solve from
  /// the parent's final basis instead of a fresh phase-1 (the cold primal
  /// path remains the fallback whenever a warm basis is unusable, so
  /// verdicts are identical either way). Off is kept for the ablation bench.
  bool warm_start = true;
  /// Cooperative stop: a deadline and/or cancel token polled at bounded
  /// cost — once per search node, once per Gomory cut round and presolve
  /// probe, and every 64 pivots inside the LP substrate. When it fires the
  /// solve returns kDeadlineExceeded / kCancelled, never a verdict: a
  /// stopped check is not "infeasible".
  StopSignal stop;
  /// When non-null and the solve ends without a verdict (the stop signal
  /// fired or the node budget tripped), receives the counters accumulated
  /// so far — nodes explored, pivots, deepest node reached — with
  /// `feasible` false.
  IlpSolution* partial = nullptr;
};

/// The search counters of a Ψ(D,Σ) solve — one block, declared once and
/// carried unchanged from the solver to the caller: IlpSolution and
/// ConsistencyStats both derive from it, so the CLI's `--stats`, the daemon
/// and the benches read the very fields the search incremented. Counters
/// are deltas: each solve reports the work it did, and callers that run
/// several solves (connectivity rounds, batch totals) sum them with Add.
struct SolveCounters {
  /// Search nodes: the case-split nodes and the branch-and-bound nodes of
  /// the one search tree.
  size_t ilp_nodes = 0;
  /// Simplex pivots over every LP solve of the search.
  size_t lp_pivots = 0;
  /// Gomory fractional cuts appended by branch-and-bound.
  size_t cuts_added = 0;
  /// LP solves served incrementally from a parent basis (dual simplex),
  /// vs. those that ran the cold phase-1 path (root nodes, disabled warm
  /// start, or warm-basis fallbacks).
  size_t warm_starts = 0;
  size_t cold_restarts = 0;
  /// Deepest branch-and-bound node reached below an integer root (the root
  /// itself = 0; case-split nodes add no depth): the best-so-far depth, the
  /// most useful single number in a partial report of a stopped search.
  size_t search_depth = 0;
  /// Sparse LP kernel (DESIGN.md §12), summed over every LP solve.
  LpKernelStats lp_kernel;
  /// Thread traffic (see ThreadTraffic). Two-tier exact arithmetic
  /// (base/num.h): operations served by the packed small tier vs the BigInt
  /// tier, and the transitions between them; num_promotions / num_small_ops
  /// is the promotion rate the benches report.
  uint64_t num_small_ops = 0;
  uint64_t num_big_ops = 0;
  uint64_t num_promotions = 0;
  uint64_t num_demotions = 0;
  /// Bytes of per-thread arena scratch consumed (cumulative traffic, not
  /// footprint — see Arena::total_allocated).
  uint64_t arena_bytes = 0;
  /// Wall time spent inside the search.
  double ilp_wall_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)

  /// Sums every field of `other` into this block; search_depth keeps the
  /// maximum.
  void Add(const SolveCounters& other);
  /// Tallies one LP solve: its pivots and kernel counters.
  void AddLp(const LpResult& lp) {
    lp_pivots += lp.pivots;
    lp_kernel.Add(lp.kernel);
  }
};

/// Measures the calling thread's two-tier arithmetic and arena traffic from
/// construction on. Every scope that owns a slice of a thread — a search —
/// holds one, so each thread's traffic is counted exactly once.
class ThreadTraffic {
 public:
  ThreadTraffic();
  /// Adds the traffic since construction into `out`'s thread-traffic fields.
  void AddTo(SolveCounters* out) const;

 private:
  NumCounters num_;
  uint64_t arena_bytes_;
};

/// A solve's verdict, with the counters of the work that reached it.
struct IlpSolution : SolveCounters {
  bool feasible = false;
  /// Integer values per variable when feasible.
  std::vector<BigInt> values;
};

/// The Papadimitriou bound (J.ACM 28(4), 1981), as used in Theorem 4.1 and
/// Lemma 5.3: if a system of `m` inequalities over `n` nonnegative integer
/// variables with magnitudes ≤ `a` has a solution, it has one with every
/// component ≤ n·(m·a)^(2m+1).
BigInt PapadimitriouBound(size_t num_constraints, size_t num_variables,
                          const BigInt& max_abs_value);

/// A conditional cardinality constraint: premise > 0 → conclusion > 0,
/// with both sides nonnegative linear expressions. Instances:
///  - the attribute rows of Ψ(D,Σ): ext(τ) > 0 → ext(τ.l) > 0 (Lemma 4.6);
///  - the lazy support-connectivity cuts: Σ_{τ∈U} ext(τ) > 0 →
///    Σ_{edges into U} x > 0 (realizability of a solution as a *tree*).
struct Conditional {
  LinearExpr premise;
  LinearExpr conclusion;
};

/// Reusable warm-start state across repeated SolveWithConditionals calls on
/// the SAME base system with a growing conditional set — the shape of the
/// lazy connectivity-cut loop in SolveEncodingSystem and of a session's
/// queries. The base LP is solved cold exactly once; every later solve's
/// optimistic leaf, presolve probes and split root re-solve warm from this
/// basis. Its rows are sparse, so each copy taken from it costs
/// O(rows + nnz).
struct CaseSplitWarmContext {
  LpTableau base_tableau;
  bool valid = false;
  /// The search's node tableaux and presolve's working bases. A tableau
  /// returns here, row buffers and all, when its node exits, so copies into
  /// it stop allocating once a context has served a few solves.
  LpTableauPool pool;
};

/// Decides whether `system` has a solution over nonnegative integers and
/// produces one if so.
///
/// Algorithm: cut-and-branch on the exact-rational LP relaxation. The DFS
/// runs on ONE system via the trail (PushCheckpoint/PopCheckpoint), and each
/// non-root node re-solves warm: the parent's final basis plus the one
/// appended row (branch bound or Gomory cut) goes through dual simplex
/// instead of a fresh phase-1 (cold fallback when the warm basis is
/// unusable). An infeasible relaxation prunes, an integral vertex finishes;
/// otherwise up to max_cut_rounds Gomory fractional cuts are derived from
/// the final tableau — cuts stay pushed for the subtree and are undone on
/// exit — and if the vertex stays fractional the first fractional variable
/// x = v branches into x ≤ ⌊v⌋ and x ≥ ⌈v⌉ (DFS, floor side first —
/// cardinality systems tend to have small solutions).
/// `warm_hint`, when given, must be the final tableau of a feasible LP solve
/// of a row-prefix of `system`; the root node then warm starts from it
/// instead of running phase-1 cold. A stale or foreign hint is rejected by
/// the re-solver's usability checks and only costs the fallback.
Result<IlpSolution> SolveIlp(const LinearSystem& system,
                             const IlpOptions& options = {},
                             const LpTableau* warm_hint = nullptr);

/// Decides feasibility of `base` (nonnegative integers) subject to the
/// conditionals.
///
/// This is the exact case split of the Theorem 4.1 proof: each conditional
/// resolves to (conclusion ≥ 1) or (premise = 0), yielding the 9_X family.
/// The split and the integer search are ONE depth-first search tree. While
/// a conditional is unresolved, a node branches on the first one,
/// conclusion ≥ 1 first — consistent specifications usually populate their
/// element types. Once all are resolved the node is an integer root and
/// branches as SolveIlp does. Every node's LP, case-split and
/// branch-and-bound alike, prunes the subtree when infeasible and otherwise
/// seeds its children's warm re-solves. Before the split, an optimistic
/// leaf resolves every conditional to its conclusion (one integer root that
/// settles most consistent specifications), and presolve installs the
/// conclusions whose premise cannot vanish as hard rows.
///
/// Incrementality: the search runs on ONE trail-managed system (push a
/// resolution, recurse, pop), and every LP solve after the base one warm
/// starts from its parent's basis via dual simplex. The search is
/// sequential, so its statistics are deterministic, and `max_nodes` bounds
/// the whole tree.
///
/// Compared with the big-M linearization (ApplyBigMLinearization) this
/// avoids astronomically large coefficients; the ablation bench compares
/// both.
Result<IlpSolution> SolveWithConditionals(
    const LinearSystem& base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options = {}, CaseSplitWarmContext* warm = nullptr);

/// Same decision, but operates directly on `*base` through its trail instead
/// of copying it: every row the solver appends (case resolutions, presolve's
/// forced conclusions, branch bounds, cuts) sits above one checkpoint pushed
/// on entry and popped before returning, so `*base` is byte-identical
/// afterwards. This is what makes Σ-delta re-checks cheap — a session keeps
/// ONE system holding the compiled skeleton, pushes the per-query rows, and
/// solves here without ever re-copying the skeleton. `warm` follows the same
/// contract as SolveWithConditionals: pass a context whose tableau was
/// solved against the rows present in `*base` at entry (e.g. the skeleton
/// basis) with `valid = true`, and it is reused as-is across calls.
Result<IlpSolution> SolveWithConditionalsInPlace(
    LinearSystem* base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options = {}, CaseSplitWarmContext* warm = nullptr);

}  // namespace xicc
