#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/consistency.h"
#include "dtd/analysis.h"
#include "dtd/compiled.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

Dtd MustParseBuilder(DtdBuilder& builder) {
  auto dtd = builder.Build();
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return std::move(dtd).value();
}

/// list → (item, list) | ε : productive despite recursion.
Dtd RecursionEscapedByUnionDtd() {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Elem("list"));
  builder.AddElement("list",
                     Regex::Union(Regex::Concat(Regex::Elem("item"),
                                                Regex::Elem("list")),
                                  Regex::Epsilon()));
  builder.AddElement("item", Regex::Epsilon());
  return MustParseBuilder(builder);
}

/// r → bad*, bad → bad: r valid via zero repetitions.
Dtd StarOfUnproductiveDtd() {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Star(Regex::Elem("bad")));
  builder.AddElement("bad", Regex::Elem("bad"));
  return MustParseBuilder(builder);
}

/// r → (a, bad): unproductive even though a is fine.
Dtd ConcatWithUnproductiveArmDtd() {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Concat(Regex::Elem("a"), Regex::Elem("bad")));
  builder.AddElement("a", Regex::Epsilon());
  builder.AddElement("bad", Regex::Elem("bad"));
  return MustParseBuilder(builder);
}

/// r → a, a → b*, b → ε, plus an unreachable island.
Dtd WithIslandDtd() {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Elem("a"));
  builder.AddElement("a", Regex::Star(Regex::Elem("b")));
  builder.AddElement("b", Regex::Epsilon());
  builder.AddElement("island", Regex::Epsilon());  // Unreachable.
  return MustParseBuilder(builder);
}

TEST(AnalysisTest, TeacherDtdHasValidTree) {
  EXPECT_TRUE(DtdHasValidTree(workloads::TeacherDtd()));
}

TEST(AnalysisTest, InfiniteDtdHasNone) {
  // D2: db → foo, foo → foo (the Section 1 example).
  Dtd d2 = workloads::InfiniteDtd();
  EXPECT_FALSE(DtdHasValidTree(d2));
  auto productive = ProductiveElements(d2);
  EXPECT_TRUE(productive.empty());
}

TEST(AnalysisTest, RecursionEscapedByUnion) {
  Dtd dtd = RecursionEscapedByUnionDtd();
  EXPECT_TRUE(DtdHasValidTree(dtd));
  EXPECT_EQ(ProductiveElements(dtd).size(), 3u);
}

TEST(AnalysisTest, StarOfUnproductiveIsProductive) {
  Dtd dtd = StarOfUnproductiveDtd();
  EXPECT_TRUE(DtdHasValidTree(dtd));
  EXPECT_EQ(ProductiveElements(dtd).count("bad"), 0u);
}

TEST(AnalysisTest, ConcatWithUnproductiveArmIsUnproductive) {
  EXPECT_FALSE(DtdHasValidTree(ConcatWithUnproductiveArmDtd()));
}

TEST(AnalysisTest, ReachableElements) {
  Dtd dtd = WithIslandDtd();
  auto reachable = ReachableElements(dtd);
  EXPECT_EQ(reachable.size(), 3u);
  EXPECT_EQ(reachable.count("island"), 0u);
}

// ------------------------------------------------- Multiplicity (Lemma 3.6).

TEST(MultiplicityTest, TeacherCanHaveTwoTeachers) {
  Dtd d1 = workloads::TeacherDtd();
  // teachers → teacher, teacher*: two teachers possible.
  EXPECT_TRUE(CanHaveTwo(d1, "teacher"));
  EXPECT_TRUE(CanHaveTwo(d1, "subject"));  // Two per teacher already.
  // Exactly one teachers (root).
  EXPECT_EQ(MaxMultiplicity(d1, "teachers"), Multiplicity::kExactlyOne);
}

TEST(MultiplicityTest, SingleOccurrenceChain) {
  Dtd chain = workloads::ChainDtd(5);
  EXPECT_EQ(MaxMultiplicity(chain, "e3"), Multiplicity::kExactlyOne);
  EXPECT_FALSE(CanHaveTwo(chain, "e5"));
}

TEST(MultiplicityTest, UnreachableTypeIsNone) {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Epsilon());
  builder.AddElement("island", Regex::Epsilon());
  Dtd dtd = MustParseBuilder(builder);
  EXPECT_EQ(MaxMultiplicity(dtd, "island"), Multiplicity::kNone);
}

TEST(MultiplicityTest, UnionForcesChoice) {
  // r → a | b: at most one of each.
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Union(Regex::Elem("a"), Regex::Elem("b")));
  builder.AddElement("a", Regex::Epsilon());
  builder.AddElement("b", Regex::Epsilon());
  Dtd dtd = MustParseBuilder(builder);
  EXPECT_EQ(MaxMultiplicity(dtd, "a"), Multiplicity::kExactlyOne);
  EXPECT_EQ(MaxMultiplicity(dtd, "b"), Multiplicity::kExactlyOne);
}

TEST(MultiplicityTest, StarGivesUnbounded) {
  Dtd school = workloads::SchoolDtd();
  EXPECT_TRUE(CanHaveTwo(school, "course"));
  EXPECT_TRUE(CanHaveTwo(school, "enroll"));
  EXPECT_FALSE(CanHaveTwo(school, "school"));
}

TEST(MultiplicityTest, TwoViaDistinctPaths) {
  // r → (a, a) with a → x: two x's via the two a's.
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Concat(Regex::Elem("a"), Regex::Elem("a")));
  builder.AddElement("a", Regex::Elem("x"));
  builder.AddElement("x", Regex::Epsilon());
  Dtd dtd = MustParseBuilder(builder);
  EXPECT_TRUE(CanHaveTwo(dtd, "x"));
}

TEST(MultiplicityTest, NoValidTreeGivesNone) {
  EXPECT_EQ(MaxMultiplicity(workloads::InfiniteDtd(), "foo"),
            Multiplicity::kNone);
}

// ---------------------------------------------------------- Unavoidability.

TEST(UnavoidabilityTest, MandatoryChild) {
  Dtd d1 = workloads::TeacherDtd();
  EXPECT_TRUE(TypeIsUnavoidable(d1, "teacher"));
  EXPECT_TRUE(TypeIsUnavoidable(d1, "subject"));
  EXPECT_TRUE(TypeIsUnavoidable(d1, "teachers"));
}

TEST(UnavoidabilityTest, StarredChildIsAvoidable) {
  Dtd school = workloads::SchoolDtd();
  EXPECT_FALSE(TypeIsUnavoidable(school, "course"));
  EXPECT_FALSE(TypeIsUnavoidable(school, "enroll"));
  EXPECT_TRUE(TypeIsUnavoidable(school, "school"));
}

TEST(UnavoidabilityTest, OptionalChildIsAvoidable) {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Union(Regex::Elem("a"), Regex::Epsilon()));
  builder.AddElement("a", Regex::Epsilon());
  EXPECT_FALSE(TypeIsUnavoidable(MustParseBuilder(builder), "a"));
}

TEST(UnavoidabilityTest, FalseWhenNoValidTree) {
  EXPECT_FALSE(TypeIsUnavoidable(workloads::InfiniteDtd(), "foo"));
}

// ------------------------------------------------- Reference (per type).

// The string-keyed, one-type-at-a-time analyses the grammar graph replaced,
// kept verbatim as the oracle the graph passes must match.
namespace reference {

std::set<std::string> ProductiveImpl(const Dtd& dtd,
                                     const std::string& banned) {
  struct AstNode {
    Regex::Kind kind;
    int left = -1;   // AST child ids for union/concat.
    int right = -1;
    std::string elem;        // For kElement: referenced type.
    int parent = -1;         // Dependent AST node.
    std::string owner;       // Element type whose P(τ) this AST belongs to.
    bool is_content_root = false;
    bool derivable = false;
    int pending = 0;  // For kConcat: children still unknown.
  };

  std::vector<AstNode> nodes;
  std::map<std::string, std::vector<int>> elem_leaves;  // type -> leaf ids.
  std::map<std::string, int> content_root;              // type -> root id.

  std::function<int(const Regex&, const std::string&)> build =
      [&](const Regex& regex, const std::string& owner) -> int {
    int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes[id].kind = regex.kind();
    nodes[id].owner = owner;
    switch (regex.kind()) {
      case Regex::Kind::kElement:
        nodes[id].elem = regex.name();
        elem_leaves[regex.name()].push_back(id);
        break;
      case Regex::Kind::kUnion:
      case Regex::Kind::kConcat: {
        int left = build(*regex.left(), owner);
        int right = build(*regex.right(), owner);
        nodes[id].left = left;
        nodes[id].right = right;
        nodes[left].parent = id;
        nodes[right].parent = id;
        nodes[id].pending = 2;
        break;
      }
      case Regex::Kind::kStar: {
        // Star derives ε regardless of its child; the child subtree is
        // built only so ids stay consistent, but contributes nothing here.
        break;
      }
      case Regex::Kind::kEpsilon:
      case Regex::Kind::kString:
        break;
    }
    return id;
  };

  for (const std::string& type : dtd.elements()) {
    int root = build(*dtd.ContentOf(type), type);
    nodes[root].is_content_root = true;
    content_root[type] = root;
  }

  std::set<std::string> productive;
  std::deque<int> queue;

  auto mark_derivable = [&](int id) {
    if (nodes[id].derivable) return;
    nodes[id].derivable = true;
    queue.push_back(id);
  };

  // Seeds: ε, S, and α* derive words immediately.
  for (size_t id = 0; id < nodes.size(); ++id) {
    Regex::Kind kind = nodes[id].kind;
    if (kind == Regex::Kind::kEpsilon || kind == Regex::Kind::kString ||
        kind == Regex::Kind::kStar) {
      mark_derivable(static_cast<int>(id));
    }
  }

  auto on_type_productive = [&](const std::string& type) {
    if (type == banned) return;
    if (!productive.insert(type).second) return;
    auto it = elem_leaves.find(type);
    if (it == elem_leaves.end()) return;
    for (int leaf : it->second) mark_derivable(leaf);
  };

  while (!queue.empty()) {
    int id = queue.front();
    queue.pop_front();
    const AstNode& node = nodes[id];
    if (node.is_content_root) on_type_productive(node.owner);
    int parent = node.parent;
    if (parent < 0) continue;
    if (nodes[parent].kind == Regex::Kind::kUnion) {
      mark_derivable(parent);
    } else {  // kConcat
      if (--nodes[parent].pending == 0) mark_derivable(parent);
    }
  }
  return productive;
}

std::set<std::string> ProductiveElements(const Dtd& dtd) {
  return ProductiveImpl(dtd, /*banned=*/"");
}

bool DtdHasValidTree(const Dtd& dtd) {
  return reference::ProductiveElements(dtd).count(dtd.root()) > 0;
}

std::set<std::string> ReachableElements(const Dtd& dtd) {
  std::set<std::string> reachable;
  std::deque<std::string> queue;
  reachable.insert(dtd.root());
  queue.push_back(dtd.root());

  std::function<void(const Regex&, std::deque<std::string>*,
                     std::set<std::string>*)>
      visit = [&](const Regex& node, std::deque<std::string>* q,
                  std::set<std::string>* seen) {
        switch (node.kind()) {
          case Regex::Kind::kElement:
            if (seen->insert(node.name()).second) q->push_back(node.name());
            break;
          case Regex::Kind::kUnion:
          case Regex::Kind::kConcat:
            visit(*node.left(), q, seen);
            visit(*node.right(), q, seen);
            break;
          case Regex::Kind::kStar:
            visit(*node.child(), q, seen);
            break;
          default:
            break;
        }
      };

  while (!queue.empty()) {
    std::string type = queue.front();
    queue.pop_front();
    visit(*dtd.ContentOf(type), &queue, &reachable);
  }
  return reachable;
}

constexpr int kBottom = -1;

int SatAdd(int a, int b) {
  if (a == kBottom || b == kBottom) return kBottom;
  return std::min(2, a + b);
}

Multiplicity MaxMultiplicity(const Dtd& dtd, const std::string& type) {
  struct AstNode {
    Regex::Kind kind;
    int left = -1;
    int right = -1;
    std::string elem;
    int parent = -1;
    std::string owner;
    bool is_content_root = false;
    int value = kBottom;
  };

  std::vector<AstNode> nodes;
  std::map<std::string, std::vector<int>> elem_leaves;
  std::map<std::string, int> elem_val;
  for (const std::string& e : dtd.elements()) elem_val[e] = kBottom;

  std::function<int(const Regex&, const std::string&)> build =
      [&](const Regex& regex, const std::string& owner) -> int {
    int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes[id].kind = regex.kind();
    nodes[id].owner = owner;
    switch (regex.kind()) {
      case Regex::Kind::kElement:
        nodes[id].elem = regex.name();
        elem_leaves[regex.name()].push_back(id);
        break;
      case Regex::Kind::kUnion:
      case Regex::Kind::kConcat: {
        int left = build(*regex.left(), owner);
        int right = build(*regex.right(), owner);
        nodes[id].left = left;
        nodes[id].right = right;
        nodes[left].parent = id;
        nodes[right].parent = id;
        break;
      }
      case Regex::Kind::kStar: {
        int child = build(*regex.child(), owner);
        nodes[id].left = child;
        nodes[child].parent = id;
        break;
      }
      default:
        break;
    }
    return id;
  };
  std::map<std::string, int> content_root;
  for (const std::string& e : dtd.elements()) {
    int root = build(*dtd.ContentOf(e), e);
    nodes[root].is_content_root = true;
    content_root[e] = root;
  }

  std::deque<int> queue;
  auto refresh = [&](int id) {
    AstNode& node = nodes[id];
    int value = node.value;
    switch (node.kind) {
      case Regex::Kind::kEpsilon:
      case Regex::Kind::kString:
        value = 0;
        break;
      case Regex::Kind::kElement:
        value = elem_val[node.elem];
        break;
      case Regex::Kind::kUnion:
        value = std::max(nodes[node.left].value, nodes[node.right].value);
        break;
      case Regex::Kind::kConcat:
        value = SatAdd(nodes[node.left].value, nodes[node.right].value);
        break;
      case Regex::Kind::kStar:
        value = nodes[node.left].value >= 1 ? 2 : 0;
        break;
    }
    if (value > node.value) {
      node.value = value;
      queue.push_back(id);
    }
  };
  for (size_t id = 0; id < nodes.size(); ++id) {
    refresh(static_cast<int>(id));
  }

  auto on_type_update = [&](const std::string& e) {
    int root_value = nodes[content_root[e]].value;
    int value = root_value == kBottom
                    ? kBottom
                    : SatAdd(root_value, e == type ? 1 : 0);
    if (value > elem_val[e]) {
      elem_val[e] = value;
      auto it = elem_leaves.find(e);
      if (it != elem_leaves.end()) {
        for (int leaf : it->second) refresh(leaf);
      }
    }
  };

  while (!queue.empty()) {
    int id = queue.front();
    queue.pop_front();
    if (nodes[id].is_content_root) on_type_update(nodes[id].owner);
    if (nodes[id].parent >= 0) refresh(nodes[id].parent);
  }

  int result = elem_val[dtd.root()];
  if (result <= 0) return Multiplicity::kNone;
  if (result == 1) return Multiplicity::kExactlyOne;
  return Multiplicity::kAtLeastTwo;
}

}  // namespace reference

// ------------------------------------------------------------- DtdFacts.

/// The gadget schemas of Theorem 4.7's reduction, `count` of them.
std::vector<Dtd> GadgetDtds(uint64_t count) {
  std::vector<Dtd> out;
  for (uint64_t seed = 0; seed < count; ++seed) {
    out.push_back(workloads::EncodeLipAsConsistency(
                      workloads::RandomLip(seed, /*rows=*/3 + seed % 3,
                                           /*cols=*/4 + seed % 5,
                                           /*ones_per_row=*/2))
                      .dtd);
  }
  return out;
}

/// Every public analysis of `dtd` against the reference: returns what differs
/// (empty when all agree) and tallies the reference multiplicities.
std::string DiffAgainstReference(const Dtd& dtd,
                                 std::map<Multiplicity, size_t>* tally) {
  std::string diff;
  auto expect = [&diff](bool same, const std::string& what) {
    if (!same) diff += what + "; ";
  };
  const std::set<std::string> productive = reference::ProductiveElements(dtd);
  const std::set<std::string> reachable = reference::ReachableElements(dtd);
  const bool has_valid_tree = reference::DtdHasValidTree(dtd);
  std::map<std::string, Multiplicity> multiplicity;
  for (const std::string& type : dtd.elements()) {
    multiplicity[type] = reference::MaxMultiplicity(dtd, type);
    ++(*tally)[multiplicity[type]];
  }

  const DtdFacts facts = ComputeDtdFacts(dtd);
  expect(facts.productive == productive, "facts.productive");
  expect(facts.reachable == reachable, "facts.reachable");
  expect(facts.has_valid_tree == has_valid_tree, "facts.has_valid_tree");
  expect(facts.multiplicity == multiplicity, "facts.multiplicity");

  expect(ProductiveElements(dtd) == productive, "ProductiveElements");
  expect(ReachableElements(dtd) == reachable, "ReachableElements");
  expect(DtdHasValidTree(dtd) == has_valid_tree, "DtdHasValidTree");
  for (const std::string& type : dtd.elements()) {
    expect(MaxMultiplicity(dtd, type) == multiplicity[type],
           "MaxMultiplicity(" + type + ")");
    expect(CanHaveTwo(dtd, type) ==
               (multiplicity[type] == Multiplicity::kAtLeastTwo),
           "CanHaveTwo(" + type + ")");
    // Unavoidable: the root has a tree, but none avoiding `type`.
    expect(TypeIsUnavoidable(dtd, type) ==
               (has_valid_tree &&
                reference::ProductiveImpl(dtd, type).count(dtd.root()) == 0),
           "TypeIsUnavoidable(" + type + ")");
  }
  return diff;
}

TEST(DtdFactsTest, MatchesPerTypeReference) {
  std::vector<Dtd> corpus = GadgetDtds(400);
  for (size_t n = 1; n <= 40; ++n) {
    corpus.push_back(workloads::CatalogDtd(n));
    corpus.push_back(workloads::AuctionDtd(n));
    corpus.push_back(workloads::ChainDtd(n));
    corpus.push_back(workloads::WideDtd(n));
  }
  for (uint64_t seed = 0; seed < 3000; ++seed) {
    corpus.push_back(workloads::RandomDtd(seed, 2 + seed % 40, seed % 3));
  }
  for (Dtd dtd : {workloads::TeacherDtd(), workloads::InfiniteDtd(),
                  workloads::SchoolDtd(), RecursionEscapedByUnionDtd(),
                  StarOfUnproductiveDtd(), ConcatWithUnproductiveArmDtd(),
                  WithIslandDtd()}) {
    corpus.push_back(std::move(dtd));
  }

  // The reference is the slow per-type code by design, so the corpus is
  // striped over up to four threads.
  const size_t workers =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::string> diffs(corpus.size());
  std::vector<std::map<Multiplicity, size_t>> tallies(workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < corpus.size(); i += workers) {
        diffs[i] = DiffAgainstReference(corpus[i], &tallies[w]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < corpus.size(); ++i) {
    if (diffs[i].empty()) continue;
    ADD_FAILURE() << "corpus DTD " << i << " (root " << corpus[i].root()
                  << ") differs from the reference: " << diffs[i];
    break;  // One DTD is enough to debug.
  }
  // The corpus exercises every multiplicity class.
  std::map<Multiplicity, size_t> tally;
  for (const auto& part : tallies) {
    for (const auto& [multiplicity, count] : part) tally[multiplicity] += count;
  }
  EXPECT_GT(tally[Multiplicity::kNone], 0u);
  EXPECT_GT(tally[Multiplicity::kExactlyOne], 0u);
  EXPECT_GT(tally[Multiplicity::kAtLeastTwo], 0u);
}

TEST(DtdFactsTest, CanHaveTwoMatchesTheNegatedKeyOracle) {
  // ¬key τ(l) asks for two τ elements agreeing on l, so {¬key τ(l)} is
  // consistent iff some valid tree has two τ elements. The checker decides
  // that on Ψ(D,Σ)'s cardinality rows with the ILP, not with the Lemma 3.6
  // fixpoint, and re-validates every SAT witness.
  std::vector<Dtd> corpus = GadgetDtds(16);
  for (size_t n = 1; n <= 4; ++n) {
    corpus.push_back(workloads::CatalogDtd(n));
    corpus.push_back(workloads::AuctionDtd(n));
  }
  // At most 8 elements: RandomDtd(47, 9, 2)'s n5.a0 check searches for
  // ~20 s in an optimized build, every other check here for milliseconds.
  for (uint64_t seed = 0; seed < 100; ++seed) {
    const size_t elements = 2 + seed % 40;
    if (elements > 8) continue;
    corpus.push_back(workloads::RandomDtd(seed, elements, seed % 3));
  }

  size_t checks = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Dtd& dtd = corpus[i];
    for (const auto& [type, attr] : dtd.AllAttributePairs()) {
      ConstraintSet sigma;
      sigma.Add(Constraint::NegKey(type, {attr}));
      Result<ConsistencyResult> verdict = CheckConsistency(dtd, sigma);
      ASSERT_TRUE(verdict.ok())
          << "corpus DTD " << i << ", " << type << "." << attr << ": "
          << verdict.status();
      EXPECT_EQ(CanHaveTwo(dtd, type), verdict->consistent)
          << "corpus DTD " << i << ", " << type << "." << attr;
      ++checks;
    }
  }
  EXPECT_GT(checks, 0u);
}

}  // namespace
}  // namespace xicc
