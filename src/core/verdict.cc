#include "core/verdict.h"

#include <map>
#include <set>
#include <utility>

#include "constraints/evaluator.h"
#include "dtd/analysis.h"
#include "dtd/validator.h"

namespace xicc {

namespace {

/// The Figure 5 cells decided by solving a Ψ system; each has its own
/// "no solution" explanation.
enum class PsiCell {
  /// A linear cell with min_witness_nodes > 0: Ψ(D,∅) plus the size row.
  kMinimumSize,
  /// Unary keys, inclusions and negated keys (Theorem 4.1, Corollary 4.9).
  kCardinality,
  /// Negated inclusions: the Section 5 region system (Theorem 5.1).
  kRegions,
};

EncodingSolveOptions ToSolveOptions(const ConsistencyOptions& options) {
  EncodingSolveOptions out;
  out.strategy = options.strategy;
  out.ilp = options.ilp;
  // The check-level stop signal overrides whatever the caller left on the
  // inner ILP options — one knob arms the whole stack.
  if (options.stop.Armed()) out.ilp.stop = options.stop;
  return out;
}

/// Validates + evaluates a freshly built witness; any failure is a bug in
/// the encoding or the constructor, surfaced as kInternal.
Status VerifyWitness(const XmlTree& tree, const FreshPath& path,
                     const ConstraintSet& sigma) {
  ValidationReport validation =
      ValidateXml(tree, path.dtd(), path.content_models(), {});
  if (!validation.valid) {
    return Status::Internal("witness fails DTD validation:\n" +
                            validation.ToString());
  }
  EvaluationReport evaluation = Evaluate(tree, sigma);
  if (!evaluation.satisfied) {
    return Status::Internal("witness fails constraint evaluation:\n" +
                            evaluation.ToString());
  }
  return Status::Ok();
}

Status AttachWitness(const FreshPath& path, const ConstraintSet& sigma,
                     const ConsistencyOptions& options, Result<XmlTree> tree,
                     ConsistencyResult* result) {
  if (!tree.ok()) {
    // Witnesses can legitimately be too large to materialize; surface the
    // reason but keep the verdict.
    if (tree.status().code() == StatusCode::kResourceExhausted) {
      result->explanation = tree.status().message();
      return Status::Ok();
    }
    return tree.status();
  }
  if (options.verify_witness) {
    XICC_RETURN_IF_ERROR(VerifyWitness(*tree, path, sigma));
  }
  result->witness = std::move(tree).value();
  return Status::Ok();
}

/// Solves the cell's Ψ system through `path` and assembles the verdict:
/// partial statistics on a no-verdict exit, the cell's explanation when
/// infeasible, and a checked witness (verified against `evaluate`) when
/// feasible and requested.
Result<ConsistencyResult> SolveCell(FreshPath& path, PsiCell cell,
                                    const ConstraintSet& encoded,
                                    const ConstraintSet& evaluate,
                                    const ConsistencyOptions& options,
                                    ConsistencyResult result) {
  IlpSolution partial;
  EncodingSolveOptions solve = ToSolveOptions(options);
  solve.ilp.partial = &partial;
  Result<SolvedPsi> solved =
      cell == PsiCell::kRegions
          ? path.SolveRegions(encoded, solve, options, &result.stats)
          : path.SolveCardinality(encoded, solve, options, &result.stats);
  if (!solved.ok()) {
    // A stopped or exhausted check still reports the work it did.
    if (options.partial_stats != nullptr) {
      static_cast<SolveCounters&>(result.stats) = partial;
      *options.partial_stats = result.stats;
    }
    return solved.status();
  }
  static_cast<SolveCounters&>(result.stats) = solved->solution;
  result.consistent = solved->solution.feasible;
  if (!result.consistent) {
    switch (cell) {
      case PsiCell::kMinimumSize:
        result.explanation =
            "the DTD admits no document with the requested minimum size";
        break;
      case PsiCell::kCardinality:
        result.explanation =
            "the cardinality system Ψ(D,Σ) has no solution over the "
            "nonnegative integers (Lemma 4.6): the DTD's counting "
            "constraints contradict the keys/foreign keys";
        break;
      case PsiCell::kRegions:
        result.explanation =
            "the Section 5 region system Ψ'(D,Σ) has no solution: no "
            "family of value sets realizes the inclusions and their "
            "negations under the DTD's cardinalities (Lemma 5.2)";
        break;
    }
    return result;
  }
  if (!options.build_witness) return result;
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      value_sets;
  if (solved->regions != nullptr) {
    XICC_ASSIGN_OR_RETURN(value_sets,
                          RealizeValueSets(*solved->encoding, *solved->regions,
                                           solved->solution));
  } else {
    value_sets = PrefixValueSets(*solved->encoding, solved->solution,
                                 MentionedPairs(encoded));
  }
  XICC_RETURN_IF_ERROR(AttachWitness(
      path, evaluate, options,
      BuildWitnessTree(*solved->encoding, solved->solution, value_sets,
                       options.witness),
      &result));
  return result;
}

/// Σ subsumes φ = τ[X] → τ iff some key τ[Y] → τ in Σ has Y ⊆ X (then φ is
/// a superkey of it). Foreign keys contribute their key component.
bool Subsumes(const ConstraintSet& sigma, const Constraint& phi) {
  std::set<std::string> x(phi.attrs1.begin(), phi.attrs1.end());
  ConstraintSet normalized = sigma.Normalize();
  for (const Constraint& c : normalized.constraints()) {
    if (c.kind != ConstraintKind::kKey || c.type1 != phi.type1) continue;
    bool subset = true;
    for (const std::string& attr : c.attrs1) {
      if (x.count(attr) == 0) {
        subset = false;
        break;
      }
    }
    if (subset) return true;
  }
  return false;
}

Status VerifyCounterexample(const XmlTree& tree, const FreshPath& path,
                            const ConstraintSet& sigma,
                            const Constraint& phi) {
  ValidationReport validation =
      ValidateXml(tree, path.dtd(), path.content_models(), {});
  if (!validation.valid) {
    return Status::Internal("counterexample fails DTD validation:\n" +
                            validation.ToString());
  }
  EvaluationReport on_sigma = Evaluate(tree, sigma);
  if (!on_sigma.satisfied) {
    return Status::Internal("counterexample violates Σ:\n" +
                            on_sigma.ToString());
  }
  EvaluationReport on_phi = Evaluate(tree, phi);
  if (on_phi.satisfied) {
    return Status::Internal("counterexample satisfies φ = " + phi.ToString());
  }
  return Status::Ok();
}

/// The Lemma 3.7 counterexample: a valid tree with two τ elements agreeing
/// on X and all other attribute values pairwise distinct. The solve's
/// counters go to `stats`.
Result<XmlTree> BuildKeyCounterexample(FreshPath& path, const Constraint& phi,
                                       const ConsistencyOptions& options,
                                       ConsistencyStats* stats) {
  XICC_ASSIGN_OR_RETURN(SolvedPsi solved,
                        path.SolveWithTwo(phi.type1, ToSolveOptions(options)));
  static_cast<SolveCounters&>(*stats) = solved.solution;
  if (!solved.solution.feasible) {
    return Status::Internal(
        "Lemma 3.6 said two elements are possible but Ψ_D disagrees");
  }
  // No value sets: every attribute value is globally fresh.
  XICC_ASSIGN_OR_RETURN(
      XmlTree tree, BuildWitnessTree(*solved.encoding, solved.solution,
                                     /*value_sets=*/{}, options.witness));
  std::vector<NodeId> nodes = tree.ExtOfType(phi.type1);
  if (nodes.size() < 2) {
    return Status::Internal("counterexample tree lacks two '" + phi.type1 +
                            "' elements");
  }
  for (const std::string& attr : phi.attrs1) {
    auto value = tree.AttributeValue(nodes[0], attr);
    if (!value.has_value()) {
      return Status::Internal("counterexample element missing attribute '" +
                              attr + "'");
    }
    tree.SetAttribute(nodes[1], attr, std::string(*value));
  }
  return tree;
}

Result<Constraint> Negate(const Constraint& phi) {
  switch (phi.kind) {
    case ConstraintKind::kKey:
      if (!phi.IsUnary()) {
        return Status::UndecidableClass(
            "implication of the multi-attribute key '" + phi.ToString() +
            "' by non-key constraints is undecidable (Corollary 3.4)");
      }
      return Constraint::NegKey(phi.type1, phi.attrs1);
    case ConstraintKind::kInclusion:
      if (!phi.IsUnary()) {
        return Status::UndecidableClass(
            "implication of the multi-attribute inclusion '" +
            phi.ToString() + "' is undecidable (Corollary 3.4)");
      }
      return Constraint::NegInclusion(phi.type1, phi.attrs1, phi.type2,
                                      phi.attrs2);
    default:
      return Status::InvalidArgument(
          "only keys and inclusion constraints can be negated directly");
  }
}

}  // namespace

bool FreshPath::HasValidTree() const { return DtdHasValidTree(dtd_); }

bool FreshPath::CanHaveTwo(const std::string& type) const {
  return xicc::CanHaveTwo(dtd_, type);
}

Result<XmlTree> FreshPath::MinimalTree() const {
  return BuildMinimalTree(dtd_);
}

Result<SolvedPsi> FreshPath::SolveCardinality(
    const ConstraintSet& encoded, const EncodingSolveOptions& solve,
    const ConsistencyOptions& options, ConsistencyStats* stats) {
  XICC_ASSIGN_OR_RETURN(cardinality_, BuildCardinalityEncoding(dtd_, encoded));
  return Solve(&*cardinality_, /*regions=*/nullptr, solve, options, stats);
}

Result<SolvedPsi> FreshPath::SolveRegions(const ConstraintSet& encoded,
                                          const EncodingSolveOptions& solve,
                                          const ConsistencyOptions& options,
                                          ConsistencyStats* stats) {
  XICC_ASSIGN_OR_RETURN(
      regions_,
      BuildSetRepresentation(dtd_, encoded, options.set_representation));
  return Solve(&regions_->base, &*regions_, solve, options, stats);
}

Result<SolvedPsi> FreshPath::Solve(CardinalityEncoding* encoding,
                                   const SetRepresentationRegions* regions,
                                   const EncodingSolveOptions& solve,
                                   const ConsistencyOptions& options,
                                   ConsistencyStats* stats) {
  AddMinimumSizeRow(*encoding, options.min_witness_nodes, &encoding->system);
  stats->system_variables = encoding->system.NumVariables();
  stats->system_constraints =
      encoding->system.NumConstraints() + encoding->conditionals.size();
  // The path owns the encoding, so Ψ is solved in place; the trail restores
  // the system afterwards.
  XICC_ASSIGN_OR_RETURN(
      IlpSolution solution,
      SolveEncodingSystemInPlace(*encoding, &encoding->system,
                                 encoding->conditionals, solve));
  return SolvedPsi{std::move(solution), encoding, regions};
}

Result<SolvedPsi> FreshPath::SolveWithTwo(const std::string& type,
                                          const EncodingSolveOptions& solve) {
  XICC_ASSIGN_OR_RETURN(cardinality_,
                        BuildCardinalityEncoding(dtd_, ConstraintSet()));
  cardinality_->system.AddConstraint(
      LinearExpr::Var(cardinality_->ext_var.at(type)), RelOp::kGe, BigInt(2));
  XICC_ASSIGN_OR_RETURN(
      IlpSolution solution,
      SolveEncodingSystemInPlace(*cardinality_, &cardinality_->system,
                                 cardinality_->conditionals, solve));
  return SolvedPsi{std::move(solution), &*cardinality_, /*regions=*/nullptr};
}

Result<ConsistencyResult> FreshPath::Refute(const ConstraintSet& sigma,
                                            const Constraint& negated,
                                            const ConsistencyOptions& options) {
  ConstraintSet refutation = sigma;
  refutation.Add(negated);
  return CheckConsistency(dtd_, refutation, options);
}

Status CheckNotStopped(const ConsistencyOptions& options) {
  if (!options.stop.Armed() || !options.stop.ShouldStop()) return Status::Ok();
  if (options.partial_stats != nullptr) {
    *options.partial_stats = ConsistencyStats{};
  }
  return options.stop.ToStatus();
}

void AddMinimumSizeRow(const CardinalityEncoding& encoding,
                       size_t min_witness_nodes, LinearSystem* system) {
  if (min_witness_nodes == 0) return;
  LinearExpr total;
  for (const auto& [symbol, var] : encoding.ext_var) {
    // Count the document's element nodes: no text nodes, no synthetic
    // intermediates (those are erased by the Lemma 4.3 collapse).
    if (symbol == "S" || encoding.simplified.IsSynthetic(symbol)) continue;
    total.Add(var, BigInt(1));
  }
  system->AddConstraint(total, RelOp::kGe,
                        BigInt(static_cast<int64_t>(min_witness_nodes)));
}

Result<ConsistencyResult> DecideConsistency(FreshPath& path,
                                            const ConstraintSet& sigma,
                                            const ConsistencyOptions& options) {
  ConstraintSet normalized = sigma.Normalize();
  ConsistencyResult result;
  result.constraint_class = sigma.Classify();

  switch (result.constraint_class) {
    case ConstraintClass::kEmpty:
    case ConstraintClass::kKeysOnly:
      // Theorem 3.5(1,2): consistent iff the DTD has a valid tree; keys are
      // always satisfiable by distinct re-valuation.
      result.method = result.constraint_class == ConstraintClass::kEmpty
                          ? "grammar-emptiness"
                          : "keys-only";
      result.consistent = path.HasValidTree();
      if (!result.consistent) {
        result.explanation =
            "no finite tree conforms to the DTD (the root element type "
            "cannot derive a finite document)";
        return result;
      }
      if (options.min_witness_nodes > 0) {
        // Route sizing through Ψ(D,∅); the resulting witness gets globally
        // distinct attribute values, which satisfy every key (Theorem
        // 3.5(2)'s construction).
        return SolveCell(path, PsiCell::kMinimumSize, ConstraintSet(),
                         normalized, options, std::move(result));
      }
      if (options.build_witness) {
        XICC_RETURN_IF_ERROR(AttachWitness(path, normalized, options,
                                           path.MinimalTree(), &result));
      }
      return result;

    case ConstraintClass::kUnaryKeyFk:
    case ConstraintClass::kUnaryWithNegKey:
      result.method = options.strategy == SolveStrategy::kCaseSplit
                          ? "ilp-case-split"
                          : "ilp-big-m";
      return SolveCell(path, PsiCell::kCardinality, normalized, normalized,
                       options, std::move(result));

    case ConstraintClass::kUnaryWithNegIc:
      result.method = "set-representation";
      return SolveCell(path, PsiCell::kRegions, normalized, normalized,
                       options, std::move(result));

    case ConstraintClass::kMultiAttribute:
      return Status::UndecidableClass(
          "Σ contains multi-attribute foreign keys or inclusion "
          "constraints; consistency for C_{K,FK} is undecidable "
          "(Theorem 3.1) — no decision procedure exists. Restrict to unary "
          "constraints, or validate concrete documents with the dynamic "
          "evaluator instead.");
  }
  return Status::Internal("unhandled constraint class");
}

Result<ImplicationResult> DecideImplication(FreshPath& path,
                                            const ConstraintSet& sigma,
                                            const Constraint& phi,
                                            const ConsistencyOptions& options) {
  XICC_RETURN_IF_ERROR(CheckNotStopped(options));
  {
    ConstraintSet just_phi;
    just_phi.Add(phi);
    XICC_RETURN_IF_ERROR(just_phi.CheckAgainst(path.dtd()));
  }

  // A foreign key is the conjunction of its inclusion and key components
  // ((D,Σ) ⊢ ℓ1 ∧ ℓ2, Section 2.2): implied iff both are.
  if (phi.kind == ConstraintKind::kForeignKey) {
    XICC_ASSIGN_OR_RETURN(
        ImplicationResult on_inclusion,
        DecideImplication(path, sigma,
                          Constraint::Inclusion(phi.type1, phi.attrs1,
                                                phi.type2, phi.attrs2),
                          options));
    if (!on_inclusion.implied) {
      on_inclusion.explanation =
          "the inclusion component is not implied; " +
          on_inclusion.explanation;
      return on_inclusion;
    }
    XICC_ASSIGN_OR_RETURN(
        ImplicationResult on_key,
        DecideImplication(path, sigma, Constraint::Key(phi.type2, phi.attrs2),
                          options));
    on_key.stats.Add(on_inclusion.stats);
    if (!on_key.implied) {
      on_key.explanation =
          "the key component is not implied; " + on_key.explanation;
    }
    return on_key;
  }

  ConstraintClass sigma_class = sigma.Classify();

  // Theorem 3.5(3) / Lemma 3.7: keys implied by keys, in linear time, for
  // any arity.
  if (phi.kind == ConstraintKind::kKey &&
      (sigma_class == ConstraintClass::kEmpty ||
       sigma_class == ConstraintClass::kKeysOnly)) {
    ImplicationResult result;
    result.method = "keys-only";
    if (Subsumes(sigma, phi)) {
      result.implied = true;
      result.explanation = "Σ contains a key that φ is a superkey of";
      return result;
    }
    if (!path.CanHaveTwo(phi.type1)) {
      result.implied = true;
      result.explanation =
          "no tree valid w.r.t. the DTD contains two '" + phi.type1 +
          "' elements, so every key over it holds vacuously (Lemma 3.6)";
      return result;
    }
    result.implied = false;
    result.explanation =
        "Σ does not subsume φ and some valid tree has two '" + phi.type1 +
        "' elements sharing the key attributes (Lemma 3.7)";
    if (options.build_witness) {
      XICC_ASSIGN_OR_RETURN(
          XmlTree tree, BuildKeyCounterexample(path, phi, options,
                                               &result.stats));
      if (options.verify_witness) {
        XICC_RETURN_IF_ERROR(VerifyCounterexample(tree, path, sigma, phi));
      }
      result.counterexample = std::move(tree);
    }
    return result;
  }

  // General path: (D,Σ) ⊢ φ iff Σ ∪ {¬φ} is inconsistent over D.
  XICC_ASSIGN_OR_RETURN(Constraint negated, Negate(phi));
  XICC_ASSIGN_OR_RETURN(ConsistencyResult consistency,
                        path.Refute(sigma, negated, options));
  ImplicationResult result;
  result.method = "refutation";
  result.stats = consistency.stats;
  result.implied = !consistency.consistent;
  if (result.implied) {
    result.explanation =
        "Σ ∪ {¬φ} is inconsistent over D: " + consistency.explanation;
  } else {
    result.explanation =
        "Σ ∪ {¬φ} is consistent over D; the witness violates φ";
    if (consistency.witness.has_value()) {
      if (options.verify_witness) {
        XICC_RETURN_IF_ERROR(
            VerifyCounterexample(*consistency.witness, path, sigma, phi));
      }
      result.counterexample = std::move(consistency.witness);
    }
  }
  return result;
}

}  // namespace xicc
