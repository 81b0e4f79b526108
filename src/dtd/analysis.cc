#include "dtd/analysis.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace xicc {

namespace {

/// One content-model AST node of the grammar graph. Ids index
/// GrammarGraph::nodes; element ids index Dtd::elements().
struct GrammarNode {
  Regex::Kind kind;
  int left = -1;    ///< Union/concat: left operand; star: its operand.
  int right = -1;   ///< Union/concat: right operand.
  int parent = -1;  ///< -1 at a content root.
  int owner = -1;   ///< Element whose content model holds this node.
  int elem = -1;    ///< kElement: the referenced element.
};

/// The content models of a DTD as one interned and/or graph: element types
/// become ids in declaration order, and every AST node becomes one entry of a
/// flat array. Nodes are numbered in preorder, one content model after
/// another, so P(τ) is the id range [content_root[τ], content_root[τ + 1]).
/// Built iteratively, so deep content models cannot exhaust the stack.
struct GrammarGraph {
  explicit GrammarGraph(const Dtd& dtd) : names(dtd.elements()) {
    for (int e = 0; e < NumElements(); ++e) ids.emplace_back(names[e], e);
    std::sort(ids.begin(), ids.end());
    root = IdOf(dtd.root());

    std::vector<std::pair<const Regex*, int>> stack;  // (AST node, parent id)
    for (int e = 0; e < NumElements(); ++e) {
      content_root.push_back(NumNodes());
      stack.emplace_back(dtd.ContentOf(names[e]).get(), -1);
      while (!stack.empty()) {
        const auto [regex, up] = stack.back();
        stack.pop_back();
        const int id = NumNodes();
        GrammarNode node{regex->kind()};
        node.parent = up;
        node.owner = e;
        if (up >= 0) {
          // The left operand is pushed last, so it (and its whole subtree)
          // is numbered before the right one.
          (nodes[up].left < 0 ? nodes[up].left : nodes[up].right) = id;
        }
        switch (regex->kind()) {
          case Regex::Kind::kElement:
            node.elem = IdOf(regex->name());
            break;
          case Regex::Kind::kUnion:
          case Regex::Kind::kConcat:
            stack.emplace_back(regex->right().get(), id);
            stack.emplace_back(regex->left().get(), id);
            break;
          case Regex::Kind::kStar:
            stack.emplace_back(regex->child().get(), id);
            break;
          case Regex::Kind::kEpsilon:
          case Regex::Kind::kString:
            break;
        }
        nodes.push_back(node);
      }
    }
    content_root.push_back(NumNodes());
    leaves.resize(names.size());
    for (int id = 0; id < NumNodes(); ++id) {
      if (nodes[id].elem >= 0) leaves[nodes[id].elem].push_back(id);
    }
  }

  int NumNodes() const { return static_cast<int>(nodes.size()); }
  int NumElements() const { return static_cast<int>(names.size()); }

  /// The element id of `type`, or -1 when it is not declared.
  int IdOf(std::string_view type) const {
    auto it = std::lower_bound(ids.begin(), ids.end(), std::pair(type, -1));
    return it != ids.end() && it->first == type ? it->second : -1;
  }

  /// The names of the elements `member` flags.
  std::set<std::string> Names(const std::vector<char>& member) const {
    std::set<std::string> out;
    for (int e = 0; e < NumElements(); ++e) {
      if (member[e]) out.insert(names[e]);
    }
    return out;
  }

  /// Element id → type name, and the (name, id) pairs sorted by name.
  const std::vector<std::string>& names;
  std::vector<std::pair<std::string_view, int>> ids;
  int root = 0;
  std::vector<GrammarNode> nodes;
  /// Element id → the first node of its content model.
  std::vector<int> content_root;
  /// Element id → the kElement nodes naming it.
  std::vector<std::vector<int>> leaves;
};

/// Which nodes derive some word over productive symbols, and which element
/// types are productive (their content root is derivable).
struct Derivability {
  std::vector<char> node;
  std::vector<char> element;
};

/// Worklist propagation over the and/or graph: ε, S and α* derive words
/// outright, a union once either operand does, a concat once both do, and a
/// leaf once the element it names is productive. The `banned` element (-1
/// for none) is never productive; TypeIsUnavoidable uses this to ask whether
/// the root can derive a tree avoiding it.
Derivability Derive(const GrammarGraph& g, int banned) {
  Derivability d{std::vector<char>(g.NumNodes(), 0),
                 std::vector<char>(g.NumElements(), 0)};
  std::vector<int> pending(g.NumNodes(), 0);  // Concat: operands still open.
  std::vector<int> work;
  auto mark = [&](int id) {
    if (d.node[id]) return;
    d.node[id] = 1;
    work.push_back(id);
  };
  for (int id = 0; id < g.NumNodes(); ++id) {
    switch (g.nodes[id].kind) {
      case Regex::Kind::kEpsilon:
      case Regex::Kind::kString:
      case Regex::Kind::kStar:
        mark(id);
        break;
      case Regex::Kind::kConcat:
        pending[id] = 2;
        break;
      default:
        break;
    }
  }
  while (!work.empty()) {
    const GrammarNode& node = g.nodes[work.back()];
    work.pop_back();
    if (node.parent < 0) {
      if (node.owner == banned) continue;
      d.element[node.owner] = 1;
      for (int leaf : g.leaves[node.owner]) mark(leaf);
      continue;
    }
    const Regex::Kind up = g.nodes[node.parent].kind;
    if (up == Regex::Kind::kUnion ||
        (up == Regex::Kind::kConcat && --pending[node.parent] == 0)) {
      mark(node.parent);
    }
  }
  return d;
}

std::vector<char> Reachable(const GrammarGraph& g) {
  std::vector<char> seen(g.NumElements(), 0);
  std::vector<int> work{g.root};
  seen[g.root] = 1;
  while (!work.empty()) {
    const int e = work.back();
    work.pop_back();
    for (int id = g.content_root[e]; id < g.content_root[e + 1]; ++id) {
      const int child = g.nodes[id].elem;
      if (child >= 0 && !seen[child]) {
        seen[child] = 1;
        work.push_back(child);
      }
    }
  }
  return seen;
}

/// Lattice for occurrence counting: kBottom (< 0) means "derives no tree";
/// otherwise the max number of target elements in one derivable tree,
/// saturated at 2.
constexpr int kBottom = -1;

int SatAdd(int a, int b) {
  if (a == kBottom || b == kBottom) return kBottom;
  return std::min(2, a + b);
}

/// The Lemma 3.6 fixpoint, one target type per Run, on buffers reused across
/// runs. Element values are elem(σ) = [σ == target] + val(P(σ)) and regex
/// values follow the lattice kBottom < 0 < 1 < 2. Bottom is exactly
/// non-derivability whatever the target, so every run starts from the
/// target-free fixpoint (0 where derivable, kBottom elsewhere) and only
/// raises values: at most two raises per node, O(|D|) per run.
class MultiplicityPass {
 public:
  MultiplicityPass(const GrammarGraph& g, const Derivability& d)
      : g_(g), productive_(d.element) {
    base_node_.resize(g.NumNodes());
    for (int id = 0; id < g.NumNodes(); ++id) {
      base_node_[id] = d.node[id] ? 0 : kBottom;
    }
    base_element_.resize(g.NumElements());
    for (int e = 0; e < g.NumElements(); ++e) {
      base_element_[e] = d.element[e] ? 0 : kBottom;
    }
  }

  Multiplicity Run(int target) {
    // An unproductive target occurs in no tree, and an unproductive root
    // has no tree at all.
    if (target < 0 || !productive_[target] || !productive_[g_.root]) {
      return Multiplicity::kNone;
    }
    node_ = base_node_;
    element_ = base_element_;
    Raise(target, 1);
    while (!work_.empty()) {
      const int id = work_.back();
      work_.pop_back();
      const GrammarNode& node = g_.nodes[id];
      if (node.parent >= 0) {
        Refresh(node.parent);
      } else {
        Raise(node.owner, SatAdd(node_[id], node.owner == target ? 1 : 0));
      }
    }
    const int result = element_[g_.root];
    if (result <= 0) return Multiplicity::kNone;
    if (result == 1) return Multiplicity::kExactlyOne;
    return Multiplicity::kAtLeastTwo;
  }

 private:
  void Raise(int e, int value) {
    if (value <= element_[e]) return;
    element_[e] = value;
    for (int leaf : g_.leaves[e]) Refresh(leaf);
  }

  /// Recomputes a node's value from its inputs; queues it when it rose.
  void Refresh(int id) {
    const GrammarNode& node = g_.nodes[id];
    int value = node_[id];
    switch (node.kind) {
      case Regex::Kind::kElement:
        value = element_[node.elem];
        break;
      case Regex::Kind::kUnion:
        value = std::max(node_[node.left], node_[node.right]);
        break;
      case Regex::Kind::kConcat:
        value = SatAdd(node_[node.left], node_[node.right]);
        break;
      case Regex::Kind::kStar:
        value = node_[node.left] >= 1 ? 2 : 0;
        break;
      case Regex::Kind::kEpsilon:
      case Regex::Kind::kString:
        break;
    }
    if (value > node_[id]) {
      node_[id] = value;
      work_.push_back(id);
    }
  }

  const GrammarGraph& g_;
  const std::vector<char>& productive_;
  std::vector<int> base_node_;
  std::vector<int> base_element_;
  std::vector<int> node_;
  std::vector<int> element_;
  std::vector<int> work_;
};

}  // namespace

std::set<std::string> ProductiveElements(const Dtd& dtd) {
  const GrammarGraph graph(dtd);
  return graph.Names(Derive(graph, /*banned=*/-1).element);
}

bool DtdHasValidTree(const Dtd& dtd) {
  const GrammarGraph graph(dtd);
  return Derive(graph, /*banned=*/-1).element[graph.root];
}

std::set<std::string> ReachableElements(const Dtd& dtd) {
  const GrammarGraph graph(dtd);
  return graph.Names(Reachable(graph));
}

Multiplicity MaxMultiplicity(const Dtd& dtd, const std::string& type) {
  const GrammarGraph graph(dtd);
  const Derivability derivable = Derive(graph, /*banned=*/-1);
  return MultiplicityPass(graph, derivable).Run(graph.IdOf(type));
}

bool CanHaveTwo(const Dtd& dtd, const std::string& type) {
  return MaxMultiplicity(dtd, type) == Multiplicity::kAtLeastTwo;
}

bool TypeIsUnavoidable(const Dtd& dtd, const std::string& type) {
  const GrammarGraph graph(dtd);
  if (!Derive(graph, /*banned=*/-1).element[graph.root]) return false;
  // The root derives a type-free tree iff the root is productive in the
  // grammar where `type` is banned.
  return !Derive(graph, graph.IdOf(type)).element[graph.root];
}

DtdFacts ComputeDtdFacts(const Dtd& dtd) {
  const GrammarGraph graph(dtd);
  const Derivability derivable = Derive(graph, /*banned=*/-1);
  DtdFacts facts;
  facts.productive = graph.Names(derivable.element);
  facts.reachable = graph.Names(Reachable(graph));
  facts.has_valid_tree = derivable.element[graph.root];
  MultiplicityPass pass(graph, derivable);
  for (int e = 0; e < graph.NumElements(); ++e) {
    facts.multiplicity.emplace(graph.names[e], pass.Run(e));
  }
  return facts;
}

}  // namespace xicc
