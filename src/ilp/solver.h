#pragma once

#include <vector>

#include "base/bigint.h"
#include "base/deadline.h"
#include "base/status.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"

namespace xicc {

struct LpTableau;
struct IlpSolution;

struct IlpOptions {
  /// Hard cap on branch & bound nodes; exceeding it yields
  /// kResourceExhausted. 0 means unlimited.
  size_t max_nodes = 200000;
  /// Gomory fractional-cut rounds attempted per node before branching.
  /// Cuts settle parity-style integer infeasibilities (e.g. 2x = 2y + 1)
  /// that pure branching would chase toward the variable bound.
  size_t max_cut_rounds = 20;
  /// Clamp every variable by the Papadimitriou minimal-solution bound before
  /// searching, which makes the search space finite — but only when the
  /// bound fits in `max_bound_bits` (the bound is n·(m·a)^(2m+1); carrying
  /// wide constants through every simplex pivot dwarfs the search itself,
  /// so the default keeps the box at machine-word scale). Without the box,
  /// Gomory cuts settle the common divergent cases and max_nodes is the
  /// honest termination backstop.
  bool apply_papadimitriou_bound = true;
  size_t max_bound_bits = 64;
  /// Serve child-node and cut-round LP solves by dual-simplex re-solve from
  /// the parent's final basis instead of a fresh phase-1 (the cold primal
  /// path remains the fallback whenever a warm basis is unusable, so
  /// verdicts are identical either way). Off is kept for the ablation bench.
  bool warm_start = true;
  /// Caller-owned scratch tableau the ROOT branch-and-bound node copies the
  /// warm hint into (instead of a tableau from the solve's own free list,
  /// which starts empty on every call). Re-passing the same scratch across
  /// many SolveIlp calls lets the O(rows + nnz) copy reuse its row buffers,
  /// so it allocates nothing after the first call. Must outlive the solve,
  /// must not alias `warm_hint`, and must never be shared across concurrent
  /// solves.
  LpTableau* root_scratch = nullptr;
  /// Cooperative stop: a deadline and/or cancel token polled at bounded
  /// cost — once per branch-and-bound node, once per Gomory cut round, and
  /// every 64 pivots inside the LP substrate. When it fires the solve
  /// returns kDeadlineExceeded / kCancelled, never a verdict: a stopped
  /// check is not "infeasible".
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
/// several solves (connectivity rounds, case-split leaves, batch totals)
/// sum them with Add.
struct SolveCounters {
  /// Branch-and-bound nodes, plus the case-split DFS nodes when conditionals
  /// were split.
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
  /// Deepest branch-and-bound node reached (root = 0): the best-so-far depth,
  /// the most useful single number in a partial report of a stopped search.
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
  /// Wall time spent inside the search (case split + branch-and-bound).
  double ilp_wall_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)

  /// Sums every field of `other` into this block; search_depth keeps the
  /// maximum.
  void Add(const SolveCounters& other);
  /// Tallies one LP solve: its pivots and kernel counters.
  void AddLp(const LpResult& lp) {
    lp_pivots += lp.pivots;
    lp_kernel.Add(lp.kernel);
  }
  /// This block without thread traffic and wall time: what a solve nested on
  /// the caller's own thread (a case split's leaf SolveIlp) adds to the
  /// caller, whose ThreadTraffic and clock already cover that stretch.
  SolveCounters SearchOnly() const;
};

/// Measures the calling thread's two-tier arithmetic and arena traffic from
/// construction on. Every scope that owns a slice of a thread — a
/// branch-and-bound search, a case split — holds one, so each thread's
/// traffic is counted exactly once.
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
/// of a row-prefix of `system` (e.g. the case-split DFS's pruning solve of
/// the very system it hands to the leaf); the root node then warm starts
/// from it instead of running phase-1 cold. A stale or foreign hint is
/// rejected by the re-solver's usability checks and only costs the fallback.
Result<IlpSolution> SolveIlp(const LinearSystem& system,
                             const IlpOptions& options = {},
                             const LpTableau* warm_hint = nullptr);

}  // namespace xicc
