#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cardinality_encoding.h"
#include "ilp/solver.h"

namespace xicc {

/// The Section 5 system Ψ'(D,Σ) for C^unary_{K¬,IC¬} — unary keys, unary
/// inclusion constraints, and their negations (Theorem 5.1 / Lemmas 5.2–5.3).
///
/// On top of the cardinality encoding, the value *sets* ext(τi.li) get a set
/// representation: region variables z_θ, one per nonempty θ ⊆ pairs, count
/// the values lying in exactly the sets {A_i : θ(i)=1}; then
///
///   u_ij = |A_i ∩ A_j| = Σ_{θ(i)=θ(j)=1} z_θ,
///   v_ij = |A_i \ A_j| = Σ_{θ(i)=1, θ(j)=0} z_θ,
///   u_ii = ext(τi.li),  v_ij = 0 for τi.li ⊆ τj.lj,  v_ij ≥ 1 for ⊄.
///
/// Every solution's u/v matrices admit a set representation by construction
/// (z_θ materializes the regions directly, which is how Lemma 5.3's bounded
/// system works), so the NP algorithm's intersection-pattern check is
/// discharged constructively.
///
/// Optimization over the paper's presentation: z_θ variables are created per
/// *connected component* of the constraint graph on mentioned pairs (edges =
/// inclusions and negated inclusions), and only for components containing a
/// negated inclusion. Components without one are realizable by the prefix
/// chains of Lemma 4.4, and independent components share no constraints, so
/// the shrink is sound and complete while reducing Σ 2^k to Σ_c 2^{k_c}.
///
/// This struct is the region layer alone; it sits on a base cardinality
/// encoding whose ext(τ.l) variables the u rows name — a fresh Ψ(D,Σ1)
/// (SetRepresentationEncoding) or a spec session's compiled skeleton.
struct SetRepresentationRegions {
  /// The mentioned attribute pairs (MentionedPairs), indexed.
  std::vector<std::pair<std::string, std::string>> pairs;

  struct Component {
    std::vector<size_t> pair_idx;  ///< Members, as indices into `pairs`.
    bool needs_regions = false;    ///< Contains a negated inclusion.
    /// For region components: z_θ per nonzero bitmask over pair_idx
    /// (z[mask-1] corresponds to mask).
    std::vector<VarId> z;
  };
  std::vector<Component> components;
};

/// Ψ'(D,Σ) built fresh: Ψ(D,Σ1) over the mentioned pairs, with the region
/// layer appended to its system.
struct SetRepresentationEncoding : SetRepresentationRegions {
  CardinalityEncoding base;
};

struct SetRepresentationOptions {
  /// Upper bound on pairs per region component; the z_θ system is
  /// exponential in this (the paper's Lemma 5.3 notes the variable count is
  /// exponential), so larger components are rejected with
  /// kResourceExhausted.
  size_t max_component_pairs = 14;
};

/// Builds Ψ'(D,Σ). `sigma` must be normalized and unary; negated inclusions
/// are allowed (that is the point).
Result<SetRepresentationEncoding> BuildSetRepresentation(
    const Dtd& dtd, const ConstraintSet& sigma,
    const SetRepresentationOptions& options = {});

/// The one region builder: appends the z_θ variables and the u/v rows of
/// `sigma` (normalized, unary, negated inclusions allowed) to `system`,
/// whose ext(τ.l) variables are `base.attr_var`. Components are formed over
/// MentionedPairs(sigma) only, so `base` must carry a variable for each of
/// them; any other pair of `base` is left as it is. kResourceExhausted when
/// a region component exceeds `options.max_component_pairs`.
Result<SetRepresentationRegions> AppendRegionSystem(
    const CardinalityEncoding& base, const ConstraintSet& sigma,
    const SetRepresentationOptions& options, LinearSystem* system);

/// Materializes concrete attribute-value sets from a solution of a system
/// carrying `regions` on top of `base`: prefix chains for chain components,
/// region unions for region components (disjoint universes per component).
/// Set sizes must fit in memory; astronomically large solutions yield
/// kResourceExhausted.
Result<std::map<std::pair<std::string, std::string>,
                std::vector<std::string>>>
RealizeValueSets(const CardinalityEncoding& base,
                 const SetRepresentationRegions& regions,
                 const IlpSolution& solution);

}  // namespace xicc
