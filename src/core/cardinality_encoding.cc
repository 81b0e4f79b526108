#include "core/cardinality_encoding.h"

#include <set>

#include "dtd/analysis.h"
#include "ilp/solver.h"

namespace xicc {

namespace {

/// The atom at one operand position of a simple production: an element-type
/// name or "S".
std::string AtomName(const Regex& node) {
  return node.kind() == Regex::Kind::kString ? "S" : node.name();
}

}  // namespace

Status CheckEncodable(const ConstraintSet& sigma) {
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kForeignKey) {
      return Status::InvalidArgument(
          "BuildCardinalityEncoding expects a normalized constraint set");
    }
    if (c.kind == ConstraintKind::kNegInclusion) {
      return Status::InvalidArgument(
          "negated inclusions require the Section 5 set-representation "
          "system");
    }
    if (!c.IsUnary()) {
      return Status::InvalidArgument("constraint '" + c.ToString() +
                                     "' is not unary");
    }
  }
  return Status::Ok();
}

std::set<std::pair<std::string, std::string>> MentionedPairs(
    const ConstraintSet& sigma) {
  std::set<std::pair<std::string, std::string>> mentioned;
  for (const Constraint& c : sigma.constraints()) {
    mentioned.emplace(c.type1, c.attrs1[0]);
    if (c.kind == ConstraintKind::kInclusion ||
        c.kind == ConstraintKind::kNegInclusion) {
      mentioned.emplace(c.type2, c.attrs2[0]);
    }
  }
  return mentioned;
}

Result<CardinalityEncoding> BuildCardinalityEncoding(
    const Dtd& dtd, const ConstraintSet& sigma,
    const std::vector<std::pair<std::string, std::string>>& extra_pairs) {
  XICC_RETURN_IF_ERROR(CheckEncodable(sigma));

  CardinalityEncoding enc;
  XICC_ASSIGN_OR_RETURN(enc.simplified, SimplifyDtd(dtd));
  const Dtd& dn = enc.simplified.dtd;

  // ext variables for every element type of D_N plus the text type S.
  for (const std::string& type : dn.elements()) {
    enc.ext_var[type] = enc.system.AddVariable("ext(" + type + ")");
  }
  enc.ext_var["S"] = enc.system.AddVariable("ext(S)");

  // Occurrence variables and the ψ_τ production rows (Lemma 4.5).
  // incoming[a] accumulates the x^i_{a,τ} vars for the global sum rows.
  std::map<std::string, std::vector<VarId>> incoming;
  auto add_occurrence = [&](const std::string& parent, const Regex& atom,
                            int slot) {
    std::string child = AtomName(atom);
    VarId var = enc.system.AddVariable("x" + std::to_string(slot + 1) + "(" +
                                       child + "," + parent + ")");
    enc.occurrences.push_back({child, parent, slot, var});
    incoming[child].push_back(var);
    return var;
  };

  for (const std::string& type : dn.elements()) {
    const Regex& content = *dn.ContentOf(type);
    VarId ext = enc.ext_var[type];
    switch (content.kind()) {
      case Regex::Kind::kEpsilon:
        break;
      case Regex::Kind::kString:
      case Regex::Kind::kElement: {
        // P(τ) = a: each τ element has exactly one a child.
        VarId x1 = add_occurrence(type, content, 0);
        enc.system.AddEq(LinearExpr::Var(ext), LinearExpr::Var(x1));
        break;
      }
      case Regex::Kind::kConcat: {
        // P(τ) = (a, b): one a child and one b child per τ element.
        VarId x1 = add_occurrence(type, *content.left(), 0);
        VarId x2 = add_occurrence(type, *content.right(), 1);
        enc.system.AddEq(LinearExpr::Var(ext), LinearExpr::Var(x1));
        enc.system.AddEq(LinearExpr::Var(ext), LinearExpr::Var(x2));
        break;
      }
      case Regex::Kind::kUnion: {
        // P(τ) = (a | b): each τ element has an a child or a b child.
        VarId x1 = add_occurrence(type, *content.left(), 0);
        VarId x2 = add_occurrence(type, *content.right(), 1);
        LinearExpr sum;
        sum.Add(x1, BigInt(1));
        sum.Add(x2, BigInt(1));
        enc.system.AddEq(LinearExpr::Var(ext), sum);
        break;
      }
      case Regex::Kind::kStar:
        return Status::Internal("simplified DTD contains a Kleene star");
    }
  }

  // ext(r) = 1; every other symbol's extension is the sum of its occurrence
  // slots (zero occurrences ⇒ ext = 0).
  enc.system.AddConstraint(LinearExpr::Var(enc.ext_var[dn.root()]), RelOp::kEq,
                           BigInt(1));
  for (const auto& [symbol, var] : enc.ext_var) {
    if (symbol == dn.root()) continue;
    LinearExpr sum;
    auto it = incoming.find(symbol);
    if (it != incoming.end()) {
      for (VarId x : it->second) sum.Add(x, BigInt(1));
    }
    enc.system.AddEq(LinearExpr::Var(var), sum);
  }

  // Unproductive element types derive no finite tree, so no finite document
  // contains them; pin their extensions to zero. Without these rows the
  // equations admit "phantom cycle" solutions — e.g. P(foo) = foo allows
  // ext(foo) = k with k foo-elements parenting each other in a cycle, which
  // no tree realizes. (Reachable-but-productive phantom support is handled
  // lazily by the connectivity cuts in consistency.cc.)
  std::set<std::string> productive = ProductiveElements(dn);
  for (const std::string& type : dn.elements()) {
    if (productive.count(type) == 0) {
      enc.system.AddConstraint(LinearExpr::Var(enc.ext_var.at(type)),
                               RelOp::kEq, BigInt(0));
    }
  }

  // C_Σ (Lemma 4.4) over the attribute pairs mentioned in Σ.
  std::set<std::pair<std::string, std::string>> mentioned =
      MentionedPairs(sigma);
  mentioned.insert(extra_pairs.begin(), extra_pairs.end());
  for (const auto& pair : mentioned) {
    if (!dtd.HasAttribute(pair.first, pair.second)) {
      return Status::InvalidArgument("constraint attribute '" + pair.first +
                                     "." + pair.second +
                                     "' is not declared in the DTD");
    }
    VarId y = enc.system.AddVariable("ext(" + pair.first + "." + pair.second +
                                     ")");
    enc.attr_var[pair] = y;
    VarId x = enc.ext_var.at(pair.first);
    // 0 ≤ ext(τ.l) ≤ ext(τ); the lower bound is implicit (all variables are
    // nonnegative), the conditional strengthens it when ext(τ) > 0.
    enc.system.AddLe(LinearExpr::Var(y), LinearExpr::Var(x));
    enc.conditionals.push_back({LinearExpr::Var(x), LinearExpr::Var(y)});
  }

  for (const Constraint& c : sigma.constraints()) {
    VarId y1 = enc.attr_var.at({c.type1, c.attrs1[0]});
    VarId x1 = enc.ext_var.at(c.type1);
    switch (c.kind) {
      case ConstraintKind::kKey:
        // ext(τ.l) = ext(τ).
        enc.system.AddEq(LinearExpr::Var(y1), LinearExpr::Var(x1));
        break;
      case ConstraintKind::kNegKey: {
        // ext(τ.l) < ext(τ), i.e. ext(τ.l) ≤ ext(τ) − 1 over the integers.
        LinearExpr rhs;
        rhs.Add(x1, BigInt(1));
        rhs.AddConstant(BigInt(-1));
        enc.system.AddLe(LinearExpr::Var(y1), rhs);
        break;
      }
      case ConstraintKind::kInclusion: {
        VarId y2 = enc.attr_var.at({c.type2, c.attrs2[0]});
        enc.system.AddLe(LinearExpr::Var(y1), LinearExpr::Var(y2));
        break;
      }
      default:
        break;
    }
  }

  return enc;
}

LinearSystem ApplyBigMLinearization(
    const LinearSystem& system,
    const std::vector<Conditional>& conditionals) {
  // The bound c must dominate every component of some solution of each
  // feasible case-split system 9_X (Theorem 4.1). 9_X has the base rows plus
  // two fixing rows per conditional; its magnitudes match the base system's.
  LinearSystem out = system;
  size_t m = system.NumConstraints() + 2 * conditionals.size();
  BigInt c = PapadimitriouBound(m, system.NumVariables(),
                                system.MaxAbsValue());
  for (const Conditional& cond : conditionals) {
    // c·conclusion ≥ premise: forces conclusion ≥ 1 whenever premise > 0;
    // admissible solutions stay within the bound, so c·conclusion ≥ c ≥
    // premise holds on the conclusion ≥ 1 side.
    LinearExpr expr;
    for (const auto& [var, coeff] : cond.conclusion.terms()) {
      expr.Add(var, coeff * c);
    }
    for (const auto& [var, coeff] : cond.premise.terms()) {
      expr.Add(var, -coeff);
    }
    out.AddConstraint(expr, RelOp::kGe, BigInt(0));
  }
  return out;
}

}  // namespace xicc
