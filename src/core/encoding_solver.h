#pragma once

#include <vector>

#include "core/cardinality_encoding.h"
#include "ilp/solver.h"

namespace xicc {

/// How the conditional rows (ext(τ) > 0 → ext(τ.l) > 0) are discharged.
enum class SolveStrategy {
  /// Exact DFS over the 9_X resolutions with LP pruning (default).
  kCaseSplit,
  /// The Theorem 4.1 big-M linearization c·y ≥ x with the Papadimitriou
  /// bound as c. Exact, single ILP call, but with astronomically large
  /// coefficients; kept for the ablation bench.
  kBigM,
};

struct EncodingSolveOptions {
  SolveStrategy strategy = SolveStrategy::kCaseSplit;
  IlpOptions ilp;
  /// Cap on lazy support-connectivity rounds.
  size_t max_connectivity_rounds = 64;
};

/// Solves `system` (the encoding's system, possibly extended by the caller)
/// under the encoding's conditionals, with *tree-realizability* enforced by
/// lazy support-connectivity cuts:
///
/// The Ψ_D equations alone admit solutions whose support is a disconnected
/// "phantom cycle" (e.g. P(a) = a | end allows k a-elements parenting each
/// other in a ring that no tree contains). A solution is realizable iff
/// every element type with ext(τ) > 0 is reachable from the root through
/// positive occurrence variables. Violations are repaired TSP-subtour
/// style: for the unreachable set U, add the sound conditional
///   Σ_{τ∈U} ext(τ) > 0  →  Σ_{occurrence edges entering U} x > 0
/// and re-solve. The loop is sound and complete; the round cap yields
/// kResourceExhausted (never a wrong verdict) if it binds.
Result<IlpSolution> SolveEncodingSystem(const CardinalityEncoding& encoding,
                                        const LinearSystem& system,
                                        const EncodingSolveOptions& options);

/// The Σ-delta entry point: same decision, but `*system` is solved in place
/// through its trail (restored to its entry state on return) and the
/// conditional set is the caller's — a spec session passes the conditionals
/// of the pairs its query mentions rather than the full encoding's.
/// `encoding` supplies only the support graph (ext_var / occurrences /
/// simplified root) for the lazy connectivity cuts. `warm` follows the
/// CaseSplitWarmContext contract: a caller-provided valid tableau must have
/// been solved against a row-prefix of `*system`'s entry state (the compiled
/// skeleton basis) and is then reused read-only across every round and call.
Result<IlpSolution> SolveEncodingSystemInPlace(
    const CardinalityEncoding& encoding, LinearSystem* system,
    const std::vector<Conditional>& conditionals,
    const EncodingSolveOptions& options, CaseSplitWarmContext* warm = nullptr);

/// True iff every element type with ext > 0 is reachable from the root via
/// occurrence variables with positive solution values. Exposed for tests.
bool SupportIsConnected(const CardinalityEncoding& encoding,
                        const IlpSolution& solution);

}  // namespace xicc
