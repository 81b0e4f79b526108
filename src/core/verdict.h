#pragma once

#include <optional>
#include <string>

#include "core/consistency.h"
#include "core/implication.h"

namespace xicc {

class CompiledContentModels;

/// A solved Ψ(D,Σ), as a path hands it back to the verdict code.
struct SolvedPsi {
  IlpSolution solution;
  /// The encoding whose variables `solution` assigns; witnesses are built
  /// from it.
  const CardinalityEncoding* encoding = nullptr;
  /// Set when the Section 5 region system was solved: its regions, on top
  /// of `encoding`, supply the attribute values. Null means Lemma 4.4
  /// prefix chains.
  const SetRepresentationRegions* regions = nullptr;
};

/// The one Figure-5 verdict path (internal to src/core). CheckConsistency,
/// CheckImplication, SpecSession::Check and SpecSession::Implies all decide
/// through DecideConsistency / DecideImplication below, which hold the
/// dispatch, solve options, statistics, method names, explanations, witness
/// and counterexample checks, and the implication reduction. A path supplies
/// only what differs between the fresh and the fixed-DTD (Corollary 4.11)
/// regimes: where the DTD facts come from, and how Ψ(D,Σ) is solved.
///
/// This class is the fresh path: facts computed from the DTD, Ψ(D,Σ) built
/// per query (BuildCardinalityEncoding / BuildSetRepresentation) and solved
/// by SolveEncodingSystem. A spec session overrides the facts with its
/// compiled ones and every solve — cardinality, region and two-element —
/// with rows pushed onto the compiled skeleton and re-solved warm. One path
/// object serves one top-level query.
class FreshPath {
 public:
  explicit FreshPath(const Dtd& dtd) : dtd_(dtd) {}
  virtual ~FreshPath() = default;

  const Dtd& dtd() const { return dtd_; }

  // Where the DTD facts come from.
  /// Frozen content-model DFAs for witness checks; null builds them per
  /// check.
  virtual const CompiledContentModels* content_models() const {
    return nullptr;
  }
  virtual bool HasValidTree() const;
  /// Lemma 3.6: some valid tree has two `type` elements.
  virtual bool CanHaveTwo(const std::string& type) const;
  virtual Result<XmlTree> MinimalTree() const;

  // How Ψ(D,Σ) is solved. `encoded` is normalized; both solves add the
  // minimum-size row and write the system size into `stats`. A returned
  // SolvedPsi stays valid while the path lives.
  virtual Result<SolvedPsi> SolveCardinality(
      const ConstraintSet& encoded, const EncodingSolveOptions& solve,
      const ConsistencyOptions& options, ConsistencyStats* stats);
  /// The Section 5 region system Ψ'(D,Σ), for negated inclusions.
  virtual Result<SolvedPsi> SolveRegions(const ConstraintSet& encoded,
                                         const EncodingSolveOptions& solve,
                                         const ConsistencyOptions& options,
                                         ConsistencyStats* stats);
  /// Ψ_D plus ext(type) ≥ 2: the document with two `type` elements behind
  /// the Lemma 3.7 counterexample.
  virtual Result<SolvedPsi> SolveWithTwo(const std::string& type,
                                         const EncodingSolveOptions& solve);
  /// Consistency of `sigma` ∪ {`negated`}: the refutation step of
  /// Theorems 4.10 / 5.4.
  virtual Result<ConsistencyResult> Refute(const ConstraintSet& sigma,
                                           const Constraint& negated,
                                           const ConsistencyOptions& options);

 private:
  Result<SolvedPsi> Solve(CardinalityEncoding* encoding,
                          const SetRepresentationRegions* regions,
                          const EncodingSolveOptions& solve,
                          const ConsistencyOptions& options,
                          ConsistencyStats* stats);

  const Dtd& dtd_;
  /// The Ψ(D,Σ) this path built last; a returned SolvedPsi points into it.
  std::optional<CardinalityEncoding> cardinality_;
  std::optional<SetRepresentationEncoding> regions_;
};

/// An already-expired deadline (or pre-fired cancel) ends a check before any
/// work: returns the stop status and zeroes the partial report. Ok when the
/// check may run.
Status CheckNotStopped(const ConsistencyOptions& options);

/// Installs Σ_τ ext(τ) ≥ min_witness_nodes into `system`, whose variables
/// are `encoding`'s; counts element nodes only. No-op for 0.
void AddMinimumSizeRow(const CardinalityEncoding& encoding,
                       size_t min_witness_nodes, LinearSystem* system);

/// The Figure 5 dispatch over `path`. `sigma` has been checked against the
/// path's DTD.
Result<ConsistencyResult> DecideConsistency(FreshPath& path,
                                            const ConstraintSet& sigma,
                                            const ConsistencyOptions& options);

/// (D,Σ) ⊢ φ over `path`: the foreign-key split, the Lemma 3.7 keys-only
/// branch, and the Σ ∪ {¬φ} refutation. `sigma` has been checked against the
/// path's DTD.
Result<ImplicationResult> DecideImplication(FreshPath& path,
                                            const ConstraintSet& sigma,
                                            const Constraint& phi,
                                            const ConsistencyOptions& options);

}  // namespace xicc
