#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraints/constraint.h"
#include "dtd/dtd.h"
#include "dtd/simplify.h"
#include "ilp/linear_system.h"
#include "ilp/solver.h"

namespace xicc {

/// Ψ(D,Σ): the linear-integer encoding of Theorem 4.1 / Lemmas 4.4–4.6.
///
/// Variables (all over nonnegative integers):
///  - ext(τ) for every element type τ of the simplified DTD D_N, plus ext(S);
///  - one occurrence variable x^i_{a,τ} per operand position of each simple
///    production (these drive the witness constructor of Lemma 4.5);
///  - ext(τ.l) for every attribute pair *mentioned in Σ* (the paper carries
///    variables for all pairs; unmentioned pairs are unconstrained and can
///    always be realized with fresh distinct values, so omitting them is a
///    sound and complete shrink of the system).
///
/// Rows:
///  - ext(r) = 1;
///  - per production: the ψ_τ equalities of Lemma 4.5;
///  - per child symbol: ext(a) = Σ_i x^i_{a,·};
///  - C_Σ (Lemma 4.4): keys ext(τ.l) = ext(τ); inclusions
///    ext(τ1.l1) ≤ ext(τ2.l2); bounds ext(τ.l) ≤ ext(τ);
///  - negated keys (Corollary 4.9): ext(τ.l) ≤ ext(τ) − 1;
///  - the conditional rows (ext(τ) > 0 → ext(τ.l) > 0) are *not* linear;
///    they are returned in `conditionals` and discharged either by the
///    case-split solver or by the big-M linearization of Theorem 4.1.
struct CardinalityEncoding {
  LinearSystem system;
  SimplifiedDtd simplified;

  /// ext(τ) variables; key "S" is the text-node count.
  std::map<std::string, VarId> ext_var;
  /// ext(τ.l) variables for pairs mentioned in Σ.
  std::map<std::pair<std::string, std::string>, VarId> attr_var;
  /// ext(τ) > 0 → ext(τ.l) > 0, one per mentioned pair. The consistency
  /// checker appends lazy support-connectivity conditionals to its own copy
  /// of this list (see consistency.cc).
  std::vector<Conditional> conditionals;

  /// One operand slot of a simple production: `parent` has a child of
  /// symbol `child` ("S" for text) at binary-operand position `slot`
  /// (0 = left/only, 1 = right); `var` counts those children tree-wide.
  struct Occurrence {
    std::string child;
    std::string parent;
    int slot;
    VarId var;
  };
  std::vector<Occurrence> occurrences;
};

/// The precondition of Ψ(D,Σ): `sigma` is normalized (no kForeignKey) and
/// holds only unary keys, unary inclusions, and negated unary keys; negated
/// inclusions are handled by the Section 5 extension (set_representation.h)
/// on top of this encoding. kInvalidArgument names the first offender.
Status CheckEncodable(const ConstraintSet& sigma);

/// The attribute pairs (τ,l) a normalized unary `sigma` mentions — both
/// sides of each inclusion and negated inclusion — i.e. the pairs that
/// carry C_Σ rows, region rows and conditionals.
std::set<std::pair<std::string, std::string>> MentionedPairs(
    const ConstraintSet& sigma);

/// Builds Ψ(D,Σ); `sigma` must pass CheckEncodable. `extra_pairs` forces
/// ext(τ.l) variables (with bound and conditional rows) for additional
/// attribute pairs beyond those mentioned in `sigma` — the Section 5 builder
/// passes the pairs touched only by negated inclusions.
Result<CardinalityEncoding> BuildCardinalityEncoding(
    const Dtd& dtd, const ConstraintSet& sigma,
    const std::vector<std::pair<std::string, std::string>>& extra_pairs = {});

/// Appends to `system` the C_Σ row (Lemma 4.4) of one normalized constraint
/// over `enc`'s variables: a unary key ext(τ.l) = ext(τ), a negated key
/// ext(τ.l) ≤ ext(τ) − 1, an inclusion ext(τ1.l1) ≤ ext(τ2.l2). Other kinds
/// add no row. Ψ(D,Σ) and a session's Σ-delta rows are built with it.
void AppendConstraintRow(const CardinalityEncoding& enc, const Constraint& c,
                         LinearSystem* system);

/// The Theorem 4.1 linearization: returns `system` extended with one row
/// c·conclusion ≥ premise per conditional, where c is the Papadimitriou
/// bound for the case-split systems 9_X. Exact but numerically heavy — kept
/// for the ablation benches; the case-split solver is the default path.
LinearSystem ApplyBigMLinearization(const LinearSystem& system,
                                    const std::vector<Conditional>&
                                        conditionals);

}  // namespace xicc
