#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cardinality_encoding.h"
#include "ilp/solver.h"
#include "xml/tree.h"

namespace xicc {

/// Builds a smallest-node-count tree valid w.r.t. `dtd` (which must have
/// one: check DtdHasValidTree first). Implementation: Knuth's Dijkstra-like
/// shortest-derivation algorithm over the grammar's and/or graph, then a
/// top-down expansion following the recorded choices — near-linear, so the
/// Theorem 3.5 fast paths stay fast.
Result<XmlTree> BuildMinimalTree(const Dtd& dtd);

/// The Knuth shortest-derivation table behind BuildMinimalTree, computed
/// once and reusable: Build() only walks the recorded choices, so repeated
/// minimal-witness requests against the same DTD skip the Dijkstra pass.
/// All mutation happens in the constructor; every const method is safe to
/// call concurrently. The table keys on regex AST pointers (RegexPtr nodes
/// are shared across Dtd copies), so Build() accepts the constructing Dtd
/// or any copy of it.
class MinimalTreePlan {
 public:
  explicit MinimalTreePlan(const Dtd& dtd);
  ~MinimalTreePlan();
  MinimalTreePlan(MinimalTreePlan&&) noexcept;
  MinimalTreePlan& operator=(MinimalTreePlan&&) noexcept;

  /// True iff a finite tree rooted at `type` exists (`type` is productive).
  bool Derivable(const std::string& type) const;

  /// The BuildMinimalTree result, from the precomputed table. `dtd` must be
  /// the DTD this plan was built from (or a copy sharing its regex ASTs).
  Result<XmlTree> Build(const Dtd& dtd) const;

  /// Pointer-free image of the plan for artifact serialization
  /// (core/artifact). The expansion consults exactly two things beyond the
  /// DTD itself: the per-type minimal costs and, for each union node, which
  /// side the Dijkstra pass settled first. `union_chosen` lists that choice
  /// (-1 unsettled, 0 left, 1 right) for every union node in the
  /// deterministic AST walk order (dtd.elements() in order, children
  /// left-then-right), so it can be re-attached to a freshly parsed copy of
  /// the same DTD without re-running the shortest-derivation pass.
  struct Snapshot {
    std::map<std::string, int64_t> type_cost;
    std::vector<int8_t> union_chosen;
  };
  Snapshot TakeSnapshot() const;

  /// Rebuilds a plan from `snapshot` against `dtd`, which must be
  /// structurally identical to the DTD the snapshot was taken from (the
  /// artifact layer guarantees this via the content hash). Rejects a
  /// snapshot whose union count or choice values don't fit the DTD.
  static Result<MinimalTreePlan> FromSnapshot(const Dtd& dtd,
                                              const Snapshot& snapshot);

 private:
  MinimalTreePlan();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The Lemma 4.4 value realization for constraint sets *without* negated
/// inclusions: every pair (τ,l) of `pairs` — the pairs Σ mentions, each with
/// an ext(τ.l) variable in `encoding` — takes the first ext(τ.l) values of
/// one global chain a_1, a_2, …, so ext(τ1.l1) ≤ ext(τ2.l2) materializes as
/// prefix containment and keys as bijections. Other attributes take fresh
/// values in BuildWitnessTree.
std::map<std::pair<std::string, std::string>, std::vector<std::string>>
PrefixValueSets(const CardinalityEncoding& encoding,
                const IlpSolution& solution,
                const std::set<std::pair<std::string, std::string>>& pairs);

struct WitnessOptions {
  /// Refuse to materialize witnesses above this node count.
  size_t max_nodes = 1000000;
};

/// The constructive proof of Lemma 4.5 (+ 4.4/5.2 for values): turns an
/// integer solution of Ψ(D,Σ) into an actual XML tree.
///
/// Topology: create ext(τ) elements per type; each parent draws its children
/// from the occurrence-variable pools of its (simple) production, which the
/// production and sum rows guarantee to deplete exactly. Values: element
/// nodes of a mentioned pair (τ,l) cycle through `value_sets[(τ,l)]`
/// (surjective since ext(τ.l) ≤ ext(τ); injective when Σ forces
/// ext(τ.l) = ext(τ); duplicating when a negated key forces slack).
/// Unmentioned attributes receive globally fresh values.
///
/// The caller re-validates the result against the DTD and re-evaluates Σ —
/// witnesses are checked, not trusted.
Result<XmlTree> BuildWitnessTree(
    const CardinalityEncoding& encoding, const IlpSolution& solution,
    const std::map<std::pair<std::string, std::string>,
                   std::vector<std::string>>& value_sets,
    const WitnessOptions& options = {});

}  // namespace xicc
