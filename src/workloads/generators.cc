#include "workloads/generators.h"

#include <cassert>
#include <random>
#include <string>

namespace xicc {
namespace workloads {

namespace {

Dtd MustBuild(const DtdBuilder& builder) {
  Result<Dtd> dtd = builder.Build();
  assert(dtd.ok());
  return std::move(dtd).value();
}

std::string Name(const char* prefix, size_t i) {
  return std::string(prefix) + std::to_string(i);
}

}  // namespace

Dtd ChainDtd(size_t n) {
  assert(n >= 1);
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Elem(Name("e", 1)));
  for (size_t i = 1; i < n; ++i) {
    builder.AddElement(Name("e", i), Regex::Elem(Name("e", i + 1)));
    builder.AddAttribute(Name("e", i), "id");
  }
  builder.AddElement(Name("e", n), Regex::Epsilon());
  builder.AddAttribute(Name("e", n), "id");
  return MustBuild(builder);
}

Dtd WideDtd(size_t n) {
  assert(n >= 1);
  DtdBuilder builder;
  builder.SetRoot("r");
  std::vector<RegexPtr> children;
  children.reserve(n);
  for (size_t i = 1; i <= n; ++i) {
    children.push_back(Regex::Elem(Name("e", i)));
    builder.AddElement(Name("e", i), Regex::Epsilon());
    builder.AddAttribute(Name("e", i), "id");
  }
  builder.AddElement("r", Regex::ConcatAll(std::move(children)));
  return MustBuild(builder);
}

Dtd CatalogDtd(size_t sections) {
  assert(sections >= 1);
  DtdBuilder builder;
  builder.SetRoot("catalog");
  std::vector<RegexPtr> children;
  for (size_t i = 1; i <= sections; ++i) {
    std::string section = Name("section", i);
    std::string item = Name("item", i);
    std::string note = Name("note", i);
    children.push_back(Regex::Elem(section));
    builder.AddElement(section,
                       Regex::Star(Regex::Union(Regex::Elem(item),
                                                Regex::Elem(note))));
    builder.AddElement(item, Regex::Epsilon());
    builder.AddElement(note, Regex::Str());
    builder.AddAttribute(item, "id");
    builder.AddAttribute(item, "ref");
  }
  builder.AddElement("catalog", Regex::ConcatAll(std::move(children)));
  return MustBuild(builder);
}

ConstraintSet AllKeysSigma(const Dtd& dtd) {
  ConstraintSet sigma;
  for (const std::string& element : dtd.elements()) {
    const auto& attrs = dtd.AttributesOf(element);
    if (!attrs.empty()) {
      sigma.Add(Constraint::Key(element, {attrs.front()}));
    }
  }
  return sigma;
}

ConstraintSet CatalogFkChainSigma(size_t sections) {
  ConstraintSet sigma;
  for (size_t i = 1; i <= sections; ++i) {
    sigma.Add(Constraint::Key(Name("item", i), {"id"}));
  }
  for (size_t i = 1; i < sections; ++i) {
    sigma.Add(Constraint::ForeignKey(Name("item", i), {"ref"},
                                     Name("item", i + 1), {"id"}));
  }
  return sigma;
}

Dtd AuctionDtd(size_t regions) {
  assert(regions >= 1);
  DtdBuilder builder;
  builder.SetRoot("site");
  std::vector<RegexPtr> site_children;
  for (size_t i = 1; i <= regions; ++i) {
    std::string region = Name("region", i);
    std::string item = Name("item", i);
    site_children.push_back(Regex::Elem(region));
    builder.AddElement(region, Regex::Star(Regex::Elem(item)));
    builder.AddElement(item, Regex::Str());
    builder.AddAttribute(item, "id");
    builder.AddAttribute(item, "seller");
  }
  site_children.push_back(Regex::Elem("people"));
  site_children.push_back(Regex::Elem("auctions"));
  builder.AddElement("site", Regex::ConcatAll(std::move(site_children)));
  builder.AddElement("people", Regex::Star(Regex::Elem("person")));
  builder.AddElement("person", Regex::Str());
  builder.AddAttribute("person", "id");
  builder.AddElement("auctions", Regex::Star(Regex::Elem("auction")));
  builder.AddElement("auction", Regex::Epsilon());
  builder.AddAttribute("auction", "id");
  builder.AddAttribute("auction", "item_ref");
  builder.AddAttribute("auction", "winner");
  return MustBuild(builder);
}

ConstraintSet AuctionSigma(size_t regions) {
  ConstraintSet sigma;
  sigma.Add(Constraint::Key("person", {"id"}));
  sigma.Add(Constraint::Key("auction", {"id"}));
  for (size_t i = 1; i <= regions; ++i) {
    sigma.Add(Constraint::Key(Name("item", i), {"id"}));
    sigma.Add(Constraint::ForeignKey(Name("item", i), {"seller"}, "person",
                                     {"id"}));
  }
  // Auctions reference items of the first region (the constraint language
  // has no union targets — the same scoping limitation as IDREF) and
  // winners in the people directory.
  sigma.Add(
      Constraint::ForeignKey("auction", {"item_ref"}, "item1", {"id"}));
  sigma.Add(Constraint::ForeignKey("auction", {"winner"}, "person", {"id"}));
  return sigma;
}

Dtd RandomDtd(uint64_t seed, size_t elements, size_t attrs_per_element) {
  assert(elements >= 1);
  std::mt19937_64 rng(seed);
  DtdBuilder builder;
  builder.SetRoot("r");

  // DAG topology: element i references only elements > i, so every type is
  // productive and the DTD always has valid trees.
  auto elem = [&](size_t i) { return Name("n", i); };
  std::uniform_int_distribution<int> shape_dist(0, 5);
  for (size_t i = 0; i <= elements; ++i) {
    std::string name = i == 0 ? "r" : elem(i);
    RegexPtr content;
    if (i >= elements) {
      content = rng() % 2 == 0 ? Regex::Epsilon() : Regex::Str();
    } else {
      auto pick = [&]() {
        std::uniform_int_distribution<size_t> dist(i + 1, elements);
        return Regex::Elem(elem(dist(rng)));
      };
      switch (shape_dist(rng)) {
        case 0:
          content = pick();
          break;
        case 1:
          content = Regex::Concat(pick(), pick());
          break;
        case 2:
          content = Regex::Union(pick(), pick());
          break;
        case 3:
          content = Regex::Star(pick());
          break;
        case 4:
          content = Regex::Concat(pick(), Regex::Star(pick()));
          break;
        default:
          content = Regex::Union(pick(), Regex::Epsilon());
          break;
      }
    }
    builder.AddElement(name, std::move(content));
    if (i > 0) {
      for (size_t a = 0; a < attrs_per_element; ++a) {
        builder.AddAttribute(name, Name("a", a));
      }
    }
  }
  return MustBuild(builder);
}

ConstraintSet RandomUnarySigma(const Dtd& dtd, uint64_t seed, size_t keys,
                               size_t fks) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<std::string, std::string>> pairs =
      dtd.AllAttributePairs();
  ConstraintSet sigma;
  if (pairs.empty()) return sigma;
  std::uniform_int_distribution<size_t> dist(0, pairs.size() - 1);
  for (size_t i = 0; i < keys; ++i) {
    const auto& [type, attr] = pairs[dist(rng)];
    sigma.Add(Constraint::Key(type, {attr}));
  }
  for (size_t i = 0; i < fks; ++i) {
    const auto& [type1, attr1] = pairs[dist(rng)];
    const auto& [type2, attr2] = pairs[dist(rng)];
    sigma.Add(Constraint::ForeignKey(type1, {attr1}, type2, {attr2}));
  }
  return sigma;
}

std::vector<ConstraintSet> SigmaDeltaBatch(const Dtd& dtd, uint64_t seed,
                                           size_t count,
                                           size_t min_constraints,
                                           size_t max_constraints,
                                           size_t dup_percent) {
  assert(min_constraints >= 1 && max_constraints >= min_constraints);
  assert(dup_percent <= 100);
  std::mt19937_64 rng(seed);
  std::vector<std::pair<std::string, std::string>> pairs =
      dtd.AllAttributePairs();
  std::vector<ConstraintSet> batch;
  batch.reserve(count);
  if (pairs.empty()) return batch;
  std::uniform_int_distribution<size_t> pair_dist(0, pairs.size() - 1);
  std::uniform_int_distribution<size_t> size_dist(min_constraints,
                                                  max_constraints);
  std::uniform_int_distribution<size_t> pct(0, 99);
  for (size_t q = 0; q < count; ++q) {
    if (!batch.empty() && pct(rng) < dup_percent) {
      std::uniform_int_distribution<size_t> prev(0, batch.size() - 1);
      batch.push_back(batch[prev(rng)]);
      continue;
    }
    ConstraintSet sigma;
    const size_t total = size_dist(rng);
    // Roughly half keys, half foreign keys; at least one key so the FK
    // targets have a chance of being keyed (the realistic NP-cell shape).
    const size_t keys = total / 2 + 1;
    for (size_t i = 0; i < keys && sigma.constraints().size() < total; ++i) {
      const auto& [type, attr] = pairs[pair_dist(rng)];
      sigma.Add(Constraint::Key(type, {attr}));
    }
    while (sigma.constraints().size() < total) {
      const auto& [type1, attr1] = pairs[pair_dist(rng)];
      const auto& [type2, attr2] = pairs[pair_dist(rng)];
      sigma.Add(Constraint::ForeignKey(type1, {attr1}, type2, {attr2}));
    }
    batch.push_back(std::move(sigma));
  }
  return batch;
}

BinaryLipInstance RandomLip(uint64_t seed, size_t rows, size_t cols,
                            size_t ones_per_row) {
  assert(cols >= 1 && ones_per_row >= 1 && ones_per_row <= cols);
  std::mt19937_64 rng(seed);
  BinaryLipInstance instance;
  instance.rows = rows;
  instance.cols = cols;
  instance.a.assign(rows * cols, 0);
  std::uniform_int_distribution<size_t> dist(0, cols - 1);
  for (size_t i = 0; i < rows; ++i) {
    size_t placed = 0;
    while (placed < ones_per_row) {
      size_t j = dist(rng);
      if (instance.a[i * cols + j] == 0) {
        instance.a[i * cols + j] = 1;
        ++placed;
      }
    }
  }
  return instance;
}

LipEncoding EncodeLipAsConsistency(const BinaryLipInstance& instance) {
  // The Theorem 4.7 gadget. Element types per Figure 4:
  //   r → F_1,…,F_m, b_1,…,b_m
  //   F_i → X_ij1,…,X_ijl  (the columns with a_ij = 1)
  //   X_ij → Z_ij | ε       (x_j = 1 iff X_ij has a Z_ij child)
  //   Z_ij → VF_i           (each chosen cell contributes one VF_i)
  //   VF_i, b_i → ε, each with attribute v.
  // Constraints force |ext(VF_i)| = |ext(b_i)| = 1 (row sums to exactly 1)
  // and all occurrences of x_j to take the same value.
  const size_t m = instance.rows;
  const size_t n = instance.cols;
  auto f = [](size_t i) { return Name("F", i); };
  auto b = [](size_t i) { return Name("b", i); };
  auto vf = [](size_t i) { return Name("VF", i); };
  auto x = [](size_t i, size_t j) {
    return "X" + std::to_string(i) + "_" + std::to_string(j);
  };
  auto z = [](size_t i, size_t j) {
    return "Z" + std::to_string(i) + "_" + std::to_string(j);
  };
  auto attr = [](size_t i, size_t j) {
    return "A" + std::to_string(i) + "_" + std::to_string(j);
  };

  DtdBuilder builder;
  builder.SetRoot("r");
  std::vector<RegexPtr> root_children;
  for (size_t i = 0; i < m; ++i) root_children.push_back(Regex::Elem(f(i)));
  for (size_t i = 0; i < m; ++i) root_children.push_back(Regex::Elem(b(i)));
  builder.AddElement("r", Regex::ConcatAll(std::move(root_children)));

  for (size_t i = 0; i < m; ++i) {
    std::vector<RegexPtr> cells;
    for (size_t j = 0; j < n; ++j) {
      if (!instance.At(i, j)) continue;
      cells.push_back(Regex::Elem(x(i, j)));
      builder.AddElement(x(i, j),
                         Regex::Union(Regex::Elem(z(i, j)), Regex::Epsilon()));
      builder.AddElement(z(i, j), Regex::Elem(vf(i)));
      builder.AddAttribute(z(i, j), attr(i, j));
    }
    builder.AddElement(f(i), Regex::ConcatAll(std::move(cells)));
    builder.AddElement(vf(i), Regex::Epsilon());
    builder.AddElement(b(i), Regex::Epsilon());
    builder.AddAttribute(vf(i), "v");
    builder.AddAttribute(b(i), "v");
  }

  LipEncoding out;
  out.dtd = MustBuild(builder);
  // Row constraints: VF_i.v and b_i.v key each other and include into each
  // other, forcing |ext(VF_i)| = |ext(b_i)| = 1.
  for (size_t i = 0; i < m; ++i) {
    out.sigma.Add(Constraint::Key(vf(i), {"v"}));
    out.sigma.Add(Constraint::Key(b(i), {"v"}));
    out.sigma.Add(Constraint::Inclusion(vf(i), {"v"}, b(i), {"v"}));
    out.sigma.Add(Constraint::Inclusion(b(i), {"v"}, vf(i), {"v"}));
  }
  // Column consistency: all occurrences of x_j agree — Z_ij exists iff Z_lj
  // does, enforced by keys + mutual inclusions down each column.
  for (size_t j = 0; j < n; ++j) {
    size_t prev = m;  // Sentinel.
    for (size_t i = 0; i < m; ++i) {
      if (!instance.At(i, j)) continue;
      out.sigma.Add(Constraint::Key(z(i, j), {attr(i, j)}));
      if (prev != m) {
        out.sigma.Add(
            Constraint::Inclusion(z(prev, j), {attr(prev, j)}, z(i, j),
                                  {attr(i, j)}));
        out.sigma.Add(
            Constraint::Inclusion(z(i, j), {attr(i, j)}, z(prev, j),
                                  {attr(prev, j)}));
      }
      prev = i;
    }
  }
  return out;
}

bool LipHasBinarySolution(const BinaryLipInstance& instance) {
  assert(instance.cols <= 24);
  const size_t limit = size_t{1} << instance.cols;
  for (size_t mask = 0; mask < limit; ++mask) {
    bool ok = true;
    for (size_t i = 0; i < instance.rows && ok; ++i) {
      size_t sum = 0;
      for (size_t j = 0; j < instance.cols; ++j) {
        if (instance.At(i, j) && (mask & (size_t{1} << j))) ++sum;
      }
      ok = sum == 1;
    }
    if (ok) return true;
  }
  return false;
}

}  // namespace workloads
}  // namespace xicc
