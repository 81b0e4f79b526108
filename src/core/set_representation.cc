#include "core/set_representation.h"

#include <algorithm>
#include <set>

namespace xicc {

namespace {

/// Union-find over pair indices for the component decomposition.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// The precondition of Ψ'(D,Σ): normalized and unary.
Status CheckRegionEncodable(const ConstraintSet& sigma) {
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kForeignKey) {
      return Status::InvalidArgument(
          "the region system expects a normalized constraint set");
    }
    if (!c.IsUnary()) {
      return Status::InvalidArgument("constraint '" + c.ToString() +
                                     "' is not unary");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<SetRepresentationEncoding> BuildSetRepresentation(
    const Dtd& dtd, const ConstraintSet& sigma,
    const SetRepresentationOptions& options) {
  XICC_RETURN_IF_ERROR(CheckRegionEncodable(sigma));
  // Split Σ = Σ1 ∪ Σ2: Σ1 feeds the cardinality encoding, Σ2 holds the
  // negated inclusions that need the set representation. Pairs touched only
  // by negated inclusions still need ext(τ.l) variables.
  ConstraintSet sigma1;
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind != ConstraintKind::kNegInclusion) sigma1.Add(c);
  }
  const std::set<std::pair<std::string, std::string>> mentioned =
      MentionedPairs(sigma);

  SetRepresentationEncoding enc;
  XICC_ASSIGN_OR_RETURN(
      enc.base, BuildCardinalityEncoding(dtd, sigma1, {mentioned.begin(),
                                                       mentioned.end()}));
  XICC_ASSIGN_OR_RETURN(
      static_cast<SetRepresentationRegions&>(enc),
      AppendRegionSystem(enc.base, sigma, options, &enc.base.system));
  return enc;
}

Result<SetRepresentationRegions> AppendRegionSystem(
    const CardinalityEncoding& base, const ConstraintSet& sigma,
    const SetRepresentationOptions& options, LinearSystem* system) {
  XICC_RETURN_IF_ERROR(CheckRegionEncodable(sigma));
  SetRepresentationRegions enc;

  // Index the mentioned pairs.
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (const auto& pair : MentionedPairs(sigma)) {
    index.emplace(pair, enc.pairs.size());
    enc.pairs.push_back(pair);
  }

  // Connected components over inclusion / negated-inclusion edges.
  UnionFind uf(enc.pairs.size());
  std::set<size_t> has_neg;  // Component roots (refreshed after unions).
  auto edge = [&](const Constraint& c) {
    size_t i = index.at({c.type1, c.attrs1[0]});
    size_t j = index.at({c.type2, c.attrs2[0]});
    uf.Merge(i, j);
  };
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kInclusion) edge(c);
  }
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kNegInclusion) edge(c);
  }
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kNegInclusion) {
      has_neg.insert(uf.Find(index.at({c.type1, c.attrs1[0]})));
    }
  }

  std::map<size_t, size_t> component_of_root;
  for (size_t i = 0; i < enc.pairs.size(); ++i) {
    size_t root = uf.Find(i);
    auto [it, inserted] =
        component_of_root.emplace(root, enc.components.size());
    if (inserted) {
      enc.components.emplace_back();
      enc.components.back().needs_regions = has_neg.count(root) > 0;
    }
    enc.components[it->second].pair_idx.push_back(i);
  }

  // Region variables and defining rows per region component.
  for (SetRepresentationRegions::Component& comp : enc.components) {
    if (!comp.needs_regions) continue;
    const size_t k = comp.pair_idx.size();
    if (k > options.max_component_pairs) {
      return Status::ResourceExhausted(
          "a negated-inclusion component spans " + std::to_string(k) +
          " attribute pairs; the region system is exponential and the "
          "configured limit is " +
          std::to_string(options.max_component_pairs));
    }
    const size_t num_masks = (size_t{1} << k) - 1;
    comp.z.reserve(num_masks);
    for (size_t mask = 1; mask <= num_masks; ++mask) {
      comp.z.push_back(
          system->AddVariable("z(" + std::to_string(mask) + ")"));
    }
    // u_ii = ext(pair_i): Σ_{θ(i)=1} z_θ = ext var of the pair.
    for (size_t a = 0; a < k; ++a) {
      LinearExpr sum;
      for (size_t mask = 1; mask <= num_masks; ++mask) {
        if (mask & (size_t{1} << a)) sum.Add(comp.z[mask - 1], BigInt(1));
      }
      system->AddEq(
          sum, LinearExpr::Var(base.attr_var.at(enc.pairs[comp.pair_idx[a]])));
    }
  }

  // v_ij rows from the constraints: v_ij = Σ_{θ(i)=1, θ(j)=0} z_θ.
  auto v_expr = [&](const SetRepresentationRegions::Component& comp,
                    size_t i, size_t j) {
    // i, j are positions within the component.
    LinearExpr sum;
    const size_t num_masks = (size_t{1} << comp.pair_idx.size()) - 1;
    for (size_t mask = 1; mask <= num_masks; ++mask) {
      if ((mask & (size_t{1} << i)) && !(mask & (size_t{1} << j))) {
        sum.Add(comp.z[mask - 1], BigInt(1));
      }
    }
    return sum;
  };
  auto component_pos = [&](size_t pair_index,
                           const SetRepresentationRegions::Component& comp) {
    for (size_t pos = 0; pos < comp.pair_idx.size(); ++pos) {
      if (comp.pair_idx[pos] == pair_index) return pos;
    }
    return comp.pair_idx.size();
  };
  auto add_v_row = [&](const Constraint& c, bool zero) -> Status {
    size_t i = index.at({c.type1, c.attrs1[0]});
    size_t j = index.at({c.type2, c.attrs2[0]});
    // Find the (unique) component containing both.
    for (const SetRepresentationRegions::Component& comp : enc.components) {
      if (!comp.needs_regions) continue;
      size_t pi = component_pos(i, comp);
      if (pi == comp.pair_idx.size()) continue;
      size_t pj = component_pos(j, comp);
      if (pj == comp.pair_idx.size()) {
        return Status::Internal("constraint endpoints in split components");
      }
      LinearExpr v = v_expr(comp, pi, pj);
      if (zero) {
        system->AddEq(v, LinearExpr(BigInt(0)));
      } else {
        system->AddConstraint(v, RelOp::kGe, BigInt(1));
      }
      return Status::Ok();
    }
    // Component without regions: inclusions are realized by prefix chains;
    // a negated inclusion always lands in a region component.
    if (!zero) {
      return Status::Internal(
          "negated inclusion outside every region component");
    }
    return Status::Ok();
  };
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kInclusion) {
      XICC_RETURN_IF_ERROR(add_v_row(c, /*zero=*/true));
    }
  }
  for (const Constraint& c : sigma.constraints()) {
    if (c.kind == ConstraintKind::kNegInclusion) {
      XICC_RETURN_IF_ERROR(add_v_row(c, /*zero=*/false));
    }
  }

  return enc;
}

Result<std::map<std::pair<std::string, std::string>,
                std::vector<std::string>>>
RealizeValueSets(const CardinalityEncoding& base,
                 const SetRepresentationRegions& regions,
                 const IlpSolution& solution) {
  std::map<std::pair<std::string, std::string>, std::vector<std::string>> out;

  auto to_count = [](const BigInt& value) -> Result<int64_t> {
    if (!value.FitsInt64()) {
      return Status::ResourceExhausted(
          "witness value set of size " + value.ToString() +
          " is too large to materialize");
    }
    return value.ToInt64();
  };

  for (size_t ci = 0; ci < regions.components.size(); ++ci) {
    const auto& comp = regions.components[ci];
    if (!comp.needs_regions) {
      // Prefix chain: pair with ext(τ.l) = y gets {c<ci>_1 .. c<ci>_y};
      // y1 ≤ y2 then realizes every inclusion in the component as a prefix
      // containment (Lemma 4.4).
      for (size_t pair_index : comp.pair_idx) {
        const auto& pair = regions.pairs[pair_index];
        VarId var = base.attr_var.at(pair);
        XICC_ASSIGN_OR_RETURN(int64_t count,
                              to_count(solution.values[var]));
        std::vector<std::string> values;
        values.reserve(static_cast<size_t>(count));
        for (int64_t t = 1; t <= count; ++t) {
          values.push_back("c" + std::to_string(ci) + "_" +
                           std::to_string(t));
        }
        out.emplace(pair, std::move(values));
      }
      continue;
    }
    // Region component: mask θ contributes z_θ fresh values to every member
    // pair with θ(i) = 1, realizing A_i as the union of its regions.
    const size_t k = comp.pair_idx.size();
    const size_t num_masks = (size_t{1} << k) - 1;
    std::vector<std::vector<std::string>> sets(k);
    for (size_t mask = 1; mask <= num_masks; ++mask) {
      XICC_ASSIGN_OR_RETURN(
          int64_t count, to_count(solution.values[comp.z[mask - 1]]));
      for (int64_t t = 1; t <= count; ++t) {
        std::string value = "r" + std::to_string(ci) + "_" +
                            std::to_string(mask) + "_" + std::to_string(t);
        for (size_t a = 0; a < k; ++a) {
          if (mask & (size_t{1} << a)) sets[a].push_back(value);
        }
      }
    }
    for (size_t a = 0; a < k; ++a) {
      out.emplace(regions.pairs[comp.pair_idx[a]], std::move(sets[a]));
    }
  }
  return out;
}

}  // namespace xicc
