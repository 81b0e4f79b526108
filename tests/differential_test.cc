// Differential testing: the consistency checker vs a bounded brute-force
// model finder. For tiny DTDs we can enumerate EVERY valid tree shape up to
// a node budget and EVERY canonical attribute-value assignment over the
// mentioned pairs; if that exhaustive search finds a model, the checker
// must answer "consistent" — and since every checker "consistent" comes
// with an independently verified witness, the two directions together pin
// the decision procedure on the whole bounded space.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "constraints/evaluator.h"
#include "core/consistency.h"
#include "dtd/validator.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

/// A tree shape: element label + ordered children (text children are
/// represented by label "S").
struct Shape {
  std::string label;
  std::vector<Shape> children;
};

size_t CountElements(const Shape& shape) {
  if (shape.label == "S") return 0;
  size_t total = 1;
  for (const Shape& child : shape.children) total += CountElements(child);
  return total;
}

/// All words in L(regex) of length ≤ max_len (lists of child symbols).
void Words(const Regex& regex, size_t max_len,
           std::vector<std::vector<std::string>>* out) {
  switch (regex.kind()) {
    case Regex::Kind::kEpsilon:
      out->push_back({});
      return;
    case Regex::Kind::kString:
      if (max_len >= 1) out->push_back({"S"});
      return;
    case Regex::Kind::kElement:
      if (max_len >= 1) out->push_back({regex.name()});
      return;
    case Regex::Kind::kUnion: {
      Words(*regex.left(), max_len, out);
      Words(*regex.right(), max_len, out);
      return;
    }
    case Regex::Kind::kConcat: {
      std::vector<std::vector<std::string>> lefts, rights;
      Words(*regex.left(), max_len, &lefts);
      for (const auto& left : lefts) {
        rights.clear();
        Words(*regex.right(), max_len - left.size(), &rights);
        for (const auto& right : rights) {
          std::vector<std::string> word = left;
          word.insert(word.end(), right.begin(), right.end());
          out->push_back(std::move(word));
        }
      }
      return;
    }
    case Regex::Kind::kStar: {
      out->push_back({});
      std::vector<std::vector<std::string>> units;
      Words(*regex.child(), max_len, &units);
      // Iteratively extend by one unit; dedupe not needed for soundness.
      std::vector<std::vector<std::string>> current = {{}};
      for (;;) {
        std::vector<std::vector<std::string>> next;
        for (const auto& prefix : current) {
          for (const auto& unit : units) {
            if (unit.empty()) continue;  // ε-units loop forever.
            if (prefix.size() + unit.size() > max_len) continue;
            std::vector<std::string> word = prefix;
            word.insert(word.end(), unit.begin(), unit.end());
            out->push_back(word);
            next.push_back(std::move(word));
          }
        }
        if (next.empty()) return;
        current = std::move(next);
      }
    }
  }
}

/// All trees rooted at an element of `type` using ≤ budget element nodes.
void EnumerateShapes(const Dtd& dtd, const std::string& type, size_t budget,
                     std::vector<Shape>* out);

/// All child-forests realizing `word[from..]` within `budget` element nodes.
void EnumerateForests(const Dtd& dtd, const std::vector<std::string>& word,
                      size_t from, size_t budget,
                      std::vector<std::vector<Shape>>* out) {
  if (from == word.size()) {
    out->push_back({});
    return;
  }
  const std::string& symbol = word[from];
  std::vector<Shape> heads;
  if (symbol == "S") {
    heads.push_back({"S", {}});
  } else {
    EnumerateShapes(dtd, symbol, budget, &heads);
  }
  for (const Shape& head : heads) {
    size_t used = CountElements(head);
    std::vector<std::vector<Shape>> tails;
    EnumerateForests(dtd, word, from + 1, budget - used, &tails);
    for (auto& tail : tails) {
      std::vector<Shape> forest;
      forest.push_back(head);
      forest.insert(forest.end(), tail.begin(), tail.end());
      out->push_back(std::move(forest));
    }
  }
}

void EnumerateShapes(const Dtd& dtd, const std::string& type, size_t budget,
                     std::vector<Shape>* out) {
  if (budget == 0) return;
  std::vector<std::vector<std::string>> words;
  Words(*dtd.ContentOf(type), budget - 1, &words);
  for (const auto& word : words) {
    std::vector<std::vector<Shape>> forests;
    EnumerateForests(dtd, word, 0, budget - 1, &forests);
    for (auto& forest : forests) {
      out->push_back({type, std::move(forest)});
    }
  }
}

void ShapeToTree(const Shape& shape, XmlTree* tree, NodeId node) {
  for (const Shape& child : shape.children) {
    if (child.label == "S") {
      tree->AddText(node, "t");
      continue;
    }
    NodeId id = tree->AddElement(node, child.label);
    ShapeToTree(child, tree, id);
  }
}

/// Attribute slots of the mentioned pairs; a canonical domain of size
/// #slots suffices (satisfaction depends only on the (in)equality pattern).
struct Slot {
  NodeId node;
  std::string attr;
};

bool SearchAssignments(XmlTree* tree, const std::vector<Slot>& slots,
                       size_t index, size_t domain,
                       const ConstraintSet& sigma) {
  if (index == slots.size()) {
    return Evaluate(*tree, sigma).satisfied;
  }
  for (size_t v = 0; v < domain; ++v) {
    tree->SetAttribute(slots[index].node, slots[index].attr,
                       "v" + std::to_string(v));
    if (SearchAssignments(tree, slots, index + 1, domain, sigma)) return true;
  }
  return false;
}

/// True iff some tree with ≤ max_elements elements models (dtd, sigma).
/// `gave_up` reports instances whose assignment space is too large.
bool BoundedModelExists(const Dtd& dtd, const ConstraintSet& sigma,
                        size_t max_elements, bool* gave_up) {
  *gave_up = false;
  std::set<std::pair<std::string, std::string>> mentioned;
  ConstraintSet normalized = sigma.Normalize();
  for (const Constraint& c : normalized.constraints()) {
    mentioned.emplace(c.type1, c.attrs1[0]);
    if (!c.type2.empty()) mentioned.emplace(c.type2, c.attrs2[0]);
  }

  std::vector<Shape> shapes;
  EnumerateShapes(dtd, dtd.root(), max_elements, &shapes);
  if (shapes.size() > 800) {
    // Too many shapes to exhaust; a found model below stays conclusive, a
    // miss does not.
    *gave_up = true;
    shapes.resize(800);
  }
  for (const Shape& shape : shapes) {
    XmlTree tree(shape.label);
    ShapeToTree(shape, &tree, tree.root());
    // Fill every declared attribute with a default; constrained slots are
    // then searched exhaustively.
    int fresh = 0;
    std::vector<Slot> slots;
    for (NodeId node = 0; node < tree.size(); ++node) {
      if (!tree.IsElement(node)) continue;
      for (const std::string& attr : dtd.AttributesOf(tree.label(node))) {
        if (mentioned.count({tree.label(node), attr}) > 0) {
          slots.push_back({node, attr});
        } else {
          tree.SetAttribute(node, attr, "fresh" + std::to_string(++fresh));
        }
      }
    }
    if (slots.size() > 5) {
      *gave_up = true;
      continue;
    }
    size_t domain = slots.empty() ? 1 : slots.size();
    if (SearchAssignments(&tree, slots, 0, domain, sigma)) {
      // Cross-check: the model we found really is valid.
      EXPECT_TRUE(ValidateXml(tree, dtd).valid);
      return true;
    }
  }
  return false;
}

/// Tiny random DTDs: 3 element types below a root, shallow content models.
Dtd TinyRandomDtd(std::mt19937_64* rng) {
  DtdBuilder builder;
  builder.SetRoot("r");
  auto atom = [&](int i) { return Regex::Elem("t" + std::to_string(i)); };
  std::uniform_int_distribution<int> pick(0, 5);
  auto content = [&](int above) -> RegexPtr {
    const int kind = pick(*rng);
    // Types reference strictly higher indices (DAG → always productive);
    // the last type has none to reference, so its content is ε.
    if (kind == 0 || above > 3) return Regex::Epsilon();
    std::uniform_int_distribution<int> ref(above, 3);
    switch (kind) {
      case 1:
        return Regex::Star(atom(ref(*rng)));
      case 2:
        return Regex::Union(atom(ref(*rng)), Regex::Epsilon());
      case 3: {
        int a = ref(*rng);
        int b = ref(*rng);
        return Regex::Concat(atom(a), atom(b));
      }
      case 4:
        return Regex::Concat(atom(ref(*rng)), Regex::Star(atom(ref(*rng))));
      default:
        return atom(ref(*rng));
    }
  };
  builder.AddElement("r", content(1));
  for (int i = 1; i <= 3; ++i) {
    builder.AddElement("t" + std::to_string(i), content(i + 1));
    builder.AddAttribute("t" + std::to_string(i), "a");
  }
  auto dtd = builder.Build();
  EXPECT_TRUE(dtd.ok());
  return std::move(dtd).value();
}

ConstraintSet TinyRandomSigma(std::mt19937_64* rng) {
  ConstraintSet sigma;
  std::uniform_int_distribution<int> type_pick(1, 3);
  std::uniform_int_distribution<int> kind_pick(0, 4);
  std::uniform_int_distribution<int> count_pick(1, 3);
  int count = count_pick(*rng);
  for (int i = 0; i < count; ++i) {
    std::string t1 = "t" + std::to_string(type_pick(*rng));
    std::string t2 = "t" + std::to_string(type_pick(*rng));
    switch (kind_pick(*rng)) {
      case 0:
        sigma.Add(Constraint::Key(t1, {"a"}));
        break;
      case 1:
        sigma.Add(Constraint::Inclusion(t1, {"a"}, t2, {"a"}));
        break;
      case 2:
        sigma.Add(Constraint::ForeignKey(t1, {"a"}, t2, {"a"}));
        break;
      case 3:
        sigma.Add(Constraint::NegKey(t1, {"a"}));
        break;
      default:
        sigma.Add(Constraint::NegInclusion(t1, {"a"}, t2, {"a"}));
        break;
    }
  }
  return sigma;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, BruteForceModelImpliesCheckerSat) {
  std::mt19937_64 rng(GetParam());
  constexpr size_t kMaxElements = 5;
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Dtd dtd = TinyRandomDtd(&rng);
    ConstraintSet sigma = TinyRandomSigma(&rng);

    bool gave_up = false;
    bool brute_sat = BoundedModelExists(dtd, sigma, kMaxElements, &gave_up);

    ConsistencyOptions options;
    auto checker = CheckConsistency(dtd, sigma, options);
    ASSERT_TRUE(checker.ok())
        << checker.status() << "\nDTD:\n"
        << dtd.ToString() << "\nSigma:\n"
        << sigma.ToString();

    if (brute_sat) {
      // Completeness on the bounded space: a real model exists, so the
      // checker must find the specification consistent.
      EXPECT_TRUE(checker->consistent)
          << "brute force found a model but the checker said UNSAT\nDTD:\n"
          << dtd.ToString() << "Sigma:\n"
          << sigma.ToString();
      ++compared;
    } else if (!gave_up && checker->consistent &&
               checker->witness.has_value()) {
      // The checker's (verified) witness must simply be bigger than the
      // enumeration bound — otherwise the enumerator missed it.
      size_t elements = 0;
      for (NodeId node = 0; node < checker->witness->size(); ++node) {
        if (checker->witness->IsElement(node)) ++elements;
      }
      EXPECT_GT(elements, kMaxElements)
          << "checker witness fits the bound but brute force saw no model\n"
          << "DTD:\n"
          << dtd.ToString() << "Sigma:\n"
          << sigma.ToString();
      ++compared;
    }
  }
  // The sweep must actually compare something.
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

}  // namespace
}  // namespace xicc
