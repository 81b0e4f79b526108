#pragma once

#include <utility>
#include <vector>

#include "ilp/simplex.h"
#include "ilp/solver.h"

namespace xicc {

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
/// lazy connectivity-cut loop in SolveEncodingSystem. The base LP is solved
/// cold exactly once; every later round's presolve probes and DFS root
/// re-solve warm from this basis. Its rows are sparse, so each copy taken
/// from it costs O(rows + nnz), and copies into these members reuse their
/// row buffers.
struct CaseSplitWarmContext {
  LpTableau base_tableau;
  bool valid = false;
  /// Scratch the optimistic-leaf solve's root node copies `base_tableau`
  /// into (see IlpOptions::root_scratch). Lives here so its row buffers
  /// persist across the context's many solves.
  LpTableau root_scratch;
};

/// Decides feasibility of `base` (nonnegative integers) subject to the
/// conditionals.
///
/// This is the exact case-split of the Theorem 4.1 proof: each conditional
/// resolves to (conclusion ≥ 1) or (premise = 0), yielding the 9_X family.
/// The solver explores the 2^k resolutions depth-first, pruning with the
/// exact-rational LP relaxation at every level and calling the integer
/// solver only on fully resolved leaves. The conclusion ≥ 1 side is tried
/// first — consistent specifications usually populate their element types.
///
/// Incrementality: the DFS runs on ONE trail-managed system (push a
/// resolution, recurse, pop), and every prune/leaf solve warm starts from
/// the parent node's LP basis via dual simplex — the presolve probes and
/// the fully-resolved leaf ILPs included. The search is sequential, so its
/// statistics are deterministic.
///
/// Compared with the big-M linearization (ApplyBigMLinearization) this
/// avoids astronomically large coefficients; the ablation bench compares
/// both.
Result<IlpSolution> SolveWithConditionals(
    const LinearSystem& base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options = {}, CaseSplitWarmContext* warm = nullptr);

/// Same decision, but operates directly on `*base` through its trail instead
/// of copying it: every row the solver appends (case resolutions, presolve's
/// forced conclusions, branch bounds) sits above one checkpoint pushed on
/// entry and popped before returning, so `*base` is byte-identical afterwards.
/// This is what makes Σ-delta re-checks cheap — a session keeps ONE system
/// holding the compiled skeleton, pushes the per-query rows, and solves here
/// without ever re-copying the skeleton. `warm` follows the same contract as
/// SolveWithConditionals: pass a context whose tableau was solved against the
/// rows present in `*base` at entry (e.g. the skeleton basis) with
/// `valid = true`, and it is reused as-is across calls.
Result<IlpSolution> SolveWithConditionalsInPlace(
    LinearSystem* base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options = {}, CaseSplitWarmContext* warm = nullptr);

}  // namespace xicc
