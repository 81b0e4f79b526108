#include "core/witness.h"

#include <array>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>

#include "dtd/analysis.h"

namespace xicc {

namespace {

constexpr int64_t kInfiniteCost = std::numeric_limits<int64_t>::max() / 4;

/// The backward half of Lemma 4.3: erases the synthetic element types of
/// the simplified DTD by splicing their children into the parent, turning a
/// tree valid w.r.t. D_N into one valid w.r.t. D (ext(τ) and attribute
/// values of original types are untouched).
void SpliceChildren(const XmlTree& in, NodeId from,
                    const std::set<std::string>& synthetic, XmlTree* out,
                    NodeId to) {
  for (NodeId child : in.children(from)) {
    if (in.kind(child) == NodeKind::kText) {
      out->AddText(to, in.text(child));
      continue;
    }
    if (synthetic.count(in.label(child)) > 0) {
      SpliceChildren(in, child, synthetic, out, to);
      continue;
    }
    NodeId copy = out->AddElement(to, in.label(child));
    for (const auto& [name, value] : in.attributes(child)) {
      out->SetAttribute(copy, name, value);
    }
    SpliceChildren(in, child, synthetic, out, copy);
  }
}

XmlTree CollapseSynthetic(const XmlTree& in,
                          const std::set<std::string>& synthetic) {
  XmlTree out(in.label(in.root()));
  for (const auto& [name, value] : in.attributes(in.root())) {
    out.SetAttribute(out.root(), name, value);
  }
  SpliceChildren(in, in.root(), synthetic, &out, out.root());
  return out;
}

/// Shortest-derivation costs over the and/or graph of the grammar: the
/// minimal node count of a tree rooted at each element type, with recorded
/// union choices so expansion is deterministic. Knuth's generalization of
/// Dijkstra: nodes settle in nondecreasing cost order, concatenation (sum)
/// and the +1 of element expansion are monotone superior functions.
class DerivationCosts {
 public:
  explicit DerivationCosts(const Dtd& dtd) { Compute(dtd); }

  /// Artifact-load path: rebuilds the AST tables against `dtd` (cheap, one
  /// walk) and re-attaches a previously computed snapshot instead of
  /// running the Dijkstra pass. `*status` reports a snapshot that doesn't
  /// fit the DTD's shape.
  DerivationCosts(const Dtd& dtd, const MinimalTreePlan::Snapshot& snapshot,
                  Status* status) {
    BuildAst(dtd);
    size_t next = 0;
    for (AstNode& node : nodes_) {
      if (node.regex->kind() != Regex::Kind::kUnion) continue;
      if (next >= snapshot.union_chosen.size()) {
        *status = Status::InvalidArgument(
            "minimal-tree snapshot has too few union choices");
        return;
      }
      const int8_t chosen = snapshot.union_chosen[next++];
      if (chosen < -1 || chosen > 1) {
        *status = Status::InvalidArgument(
            "minimal-tree snapshot has an out-of-range union choice");
        return;
      }
      node.chosen = chosen;
    }
    if (next != snapshot.union_chosen.size()) {
      *status = Status::InvalidArgument(
          "minimal-tree snapshot has too many union choices");
      return;
    }
    type_cost_ = snapshot.type_cost;
    for (const AstNode& node : nodes_) record_of_[node.regex] = &node;
    *status = Status::Ok();
  }

  MinimalTreePlan::Snapshot TakeSnapshot() const {
    MinimalTreePlan::Snapshot snapshot;
    snapshot.type_cost = type_cost_;
    for (const AstNode& node : nodes_) {
      if (node.regex->kind() == Regex::Kind::kUnion) {
        snapshot.union_chosen.push_back(static_cast<int8_t>(node.chosen));
      }
    }
    return snapshot;
  }

  bool Derivable(const std::string& type) const {
    return TypeCost(type) < kInfiniteCost;
  }

  /// Expands `type` into `tree` under `parent` (kInvalidNode = root already
  /// created) following minimal choices.
  void Expand(const Dtd& dtd, XmlTree* tree, NodeId node,
              const std::string& type) const {
    ExpandRegex(dtd, tree, node, *dtd.ContentOf(type));
  }

 private:
  struct AstNode {
    const Regex* regex;
    int64_t cost = kInfiniteCost;
    bool settled = false;
    int left = -1;
    int right = -1;
    int parent = -1;
    std::string owner;
    bool is_content_root = false;
    /// For unions: which side settled first (0 left, 1 right).
    int chosen = -1;
  };

  int64_t TypeCost(const std::string& type) const {
    auto it = type_cost_.find(type);
    return it == type_cost_.end() ? kInfiniteCost : it->second;
  }

  void BuildAst(const Dtd& dtd) {
    std::function<int(const Regex&, const std::string&)> build =
        [&](const Regex& regex, const std::string& owner) -> int {
      int id = static_cast<int>(nodes_.size());
      nodes_.push_back({});
      nodes_[id].regex = &regex;
      nodes_[id].owner = owner;
      switch (regex.kind()) {
        case Regex::Kind::kUnion:
        case Regex::Kind::kConcat: {
          int left = build(*regex.left(), owner);
          int right = build(*regex.right(), owner);
          nodes_[id].left = left;
          nodes_[id].right = right;
          nodes_[left].parent = id;
          nodes_[right].parent = id;
          break;
        }
        case Regex::Kind::kElement:
          elem_leaves_[regex.name()].push_back(id);
          break;
        default:
          break;
      }
      return id;
    };
    for (const std::string& type : dtd.elements()) {
      int root = build(*dtd.ContentOf(type), type);
      nodes_[root].is_content_root = true;
      content_root_[type] = root;
    }
  }

  void Compute(const Dtd& dtd) {
    BuildAst(dtd);

    // Min-heap of (cost, ast node id).
    using Entry = std::pair<int64_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;

    for (size_t id = 0; id < nodes_.size(); ++id) {
      switch (nodes_[id].regex->kind()) {
        case Regex::Kind::kEpsilon:
        case Regex::Kind::kStar:
          // Minimal expansion of a star is zero repetitions.
          heap.emplace(0, static_cast<int>(id));
          break;
        case Regex::Kind::kString:
          heap.emplace(1, static_cast<int>(id));  // One text node.
          break;
        default:
          break;
      }
    }

    auto relax = [&](int id, int64_t cost) {
      if (cost < nodes_[id].cost && !nodes_[id].settled) {
        heap.emplace(cost, id);
      }
    };

    while (!heap.empty()) {
      auto [cost, id] = heap.top();
      heap.pop();
      AstNode& node = nodes_[id];
      if (node.settled) continue;
      node.settled = true;
      node.cost = cost;

      if (node.is_content_root) {
        const std::string& type = node.owner;
        if (type_cost_.find(type) == type_cost_.end()) {
          int64_t type_cost = cost + 1;  // +1: the element node itself.
          type_cost_[type] = type_cost;
          auto it = elem_leaves_.find(type);
          if (it != elem_leaves_.end()) {
            for (int leaf : it->second) relax(leaf, type_cost);
          }
        }
      }
      int parent = node.parent;
      if (parent < 0) continue;
      AstNode& up = nodes_[parent];
      if (up.regex->kind() == Regex::Kind::kUnion) {
        if (!up.settled && up.chosen < 0) {
          up.chosen = (up.left == id) ? 0 : 1;
          relax(parent, cost);
        }
      } else if (up.regex->kind() == Regex::Kind::kConcat) {
        AstNode& sibling = nodes_[up.left == id ? up.right : up.left];
        if (sibling.settled) relax(parent, cost + sibling.cost);
      }
    }

    // Index records by AST pointer for O(log n) lookups during expansion
    // (nodes_ no longer reallocates at this point).
    for (const AstNode& node : nodes_) record_of_[node.regex] = &node;
  }

  void ExpandRegex(const Dtd& dtd, XmlTree* tree, NodeId node,
                   const Regex& regex) const {
    switch (regex.kind()) {
      case Regex::Kind::kEpsilon:
      case Regex::Kind::kStar:  // Zero repetitions.
        break;
      case Regex::Kind::kString:
        tree->AddText(node, "text");
        break;
      case Regex::Kind::kElement: {
        NodeId child = tree->AddElement(node, regex.name());
        ExpandRegex(dtd, tree, child, *dtd.ContentOf(regex.name()));
        break;
      }
      case Regex::Kind::kConcat:
        ExpandRegex(dtd, tree, node, *regex.left());
        ExpandRegex(dtd, tree, node, *regex.right());
        break;
      case Regex::Kind::kUnion: {
        // Follow the recorded minimal choice. The AST pointer identity maps
        // back into nodes_ via a linear map; rebuild lazily.
        const AstNode* record = FindRecord(&regex);
        int chosen = record != nullptr ? record->chosen : -1;
        if (chosen == 1) {
          ExpandRegex(dtd, tree, node, *regex.right());
        } else {
          ExpandRegex(dtd, tree, node, *regex.left());
        }
        break;
      }
    }
  }

  const AstNode* FindRecord(const Regex* regex) const {
    auto it = record_of_.find(regex);
    return it == record_of_.end() ? nullptr : it->second;
  }

  std::vector<AstNode> nodes_;
  std::map<std::string, std::vector<int>> elem_leaves_;
  std::map<std::string, int> content_root_;
  std::map<std::string, int64_t> type_cost_;
  std::map<const Regex*, const AstNode*> record_of_;
};

Result<XmlTree> ExpandMinimalTree(const DerivationCosts& costs,
                                  const Dtd& dtd) {
  if (!costs.Derivable(dtd.root())) {
    return Status::InvalidArgument(
        "the DTD has no valid finite tree (root is unproductive)");
  }
  XmlTree tree(dtd.root());
  costs.Expand(dtd, &tree, tree.root(), dtd.root());

  // Populate required attributes with distinct values (the Theorem 3.5(2)
  // construction: distinct values satisfy every key).
  int counter = 0;
  for (NodeId node = 0; node < tree.size(); ++node) {
    if (!tree.IsElement(node)) continue;
    for (const std::string& attr : dtd.AttributesOf(tree.label(node))) {
      tree.SetAttribute(node, attr, "v" + std::to_string(++counter));
    }
  }
  return tree;
}

}  // namespace

Result<XmlTree> BuildMinimalTree(const Dtd& dtd) {
  DerivationCosts costs(dtd);
  return ExpandMinimalTree(costs, dtd);
}

struct MinimalTreePlan::Impl {
  explicit Impl(const Dtd& dtd) : costs(dtd) {}
  Impl(const Dtd& dtd, const Snapshot& snapshot, Status* status)
      : costs(dtd, snapshot, status) {}
  DerivationCosts costs;
};

MinimalTreePlan::MinimalTreePlan(const Dtd& dtd)
    : impl_(std::make_unique<Impl>(dtd)) {}
MinimalTreePlan::MinimalTreePlan() = default;

MinimalTreePlan::Snapshot MinimalTreePlan::TakeSnapshot() const {
  return impl_->costs.TakeSnapshot();
}

Result<MinimalTreePlan> MinimalTreePlan::FromSnapshot(
    const Dtd& dtd, const Snapshot& snapshot) {
  Status status;
  MinimalTreePlan plan;
  plan.impl_ = std::make_unique<Impl>(dtd, snapshot, &status);
  if (!status.ok()) return status;
  return plan;
}

MinimalTreePlan::~MinimalTreePlan() = default;
MinimalTreePlan::MinimalTreePlan(MinimalTreePlan&&) noexcept = default;
MinimalTreePlan& MinimalTreePlan::operator=(MinimalTreePlan&&) noexcept =
    default;

bool MinimalTreePlan::Derivable(const std::string& type) const {
  return impl_->costs.Derivable(type);
}

Result<XmlTree> MinimalTreePlan::Build(const Dtd& dtd) const {
  return ExpandMinimalTree(impl_->costs, dtd);
}

std::map<std::pair<std::string, std::string>, std::vector<std::string>>
PrefixValueSets(const CardinalityEncoding& encoding,
                const IlpSolution& solution,
                const std::set<std::pair<std::string, std::string>>& pairs) {
  std::map<std::pair<std::string, std::string>, std::vector<std::string>> out;
  for (const auto& pair : pairs) {
    const BigInt& count = solution.values[encoding.attr_var.at(pair)];
    std::vector<std::string> values;
    if (count.FitsInt64()) {
      int64_t n = count.ToInt64();
      values.reserve(static_cast<size_t>(n));
      for (int64_t i = 1; i <= n; ++i) {
        values.push_back("a" + std::to_string(i));
      }
    }
    out.emplace(pair, std::move(values));
  }
  return out;
}

Result<XmlTree> BuildWitnessTree(
    const CardinalityEncoding& encoding, const IlpSolution& solution,
    const std::map<std::pair<std::string, std::string>,
                   std::vector<std::string>>& value_sets,
    const WitnessOptions& options) {
  if (!solution.feasible) {
    return Status::InvalidArgument("cannot build a witness: system infeasible");
  }
  const Dtd& dn = encoding.simplified.dtd;

  // Extract counts and check the node budget.
  auto count_of = [&](VarId var) -> Result<int64_t> {
    const BigInt& value = solution.values[var];
    if (!value.FitsInt64()) {
      return Status::ResourceExhausted("witness count " + value.ToString() +
                                       " exceeds representable size");
    }
    return value.ToInt64();
  };
  int64_t total = 0;
  for (const auto& [symbol, var] : encoding.ext_var) {
    XICC_ASSIGN_OR_RETURN(int64_t count, count_of(var));
    total += count;
    if (total > static_cast<int64_t>(options.max_nodes)) {
      return Status::ResourceExhausted(
          "witness would have more than " + std::to_string(options.max_nodes) +
          " nodes; raise WitnessOptions::max_nodes to materialize it");
    }
  }

  // Remaining draws per occurrence variable, grouped by (parent, slot).
  struct Pool {
    std::string child;
    int64_t remaining = 0;
  };
  // pools[parent][slot] — at most two slots per simple production.
  std::map<std::string, std::vector<Pool>> pools;
  for (const auto& occ : encoding.occurrences) {
    XICC_ASSIGN_OR_RETURN(int64_t count, count_of(occ.var));
    auto& slots = pools[occ.parent];
    if (slots.size() <= static_cast<size_t>(occ.slot)) {
      slots.resize(static_cast<size_t>(occ.slot) + 1);
    }
    slots[occ.slot] = {occ.child, count};
  }

  // For union productions the draw order matters: a slot is *regenerative*
  // when its child symbol can spawn further parent-type nodes through the
  // solution's positive occurrence edges (e.g. the recursion arm of a star
  // expansion, f1 → end | (item, f1)). Drawing the terminal arm first would
  // strand the recursive pool with no parent left to draw it, so
  // regenerative slots are preferred while their pool lasts.
  std::map<std::string, std::vector<std::string>> support_edges;
  for (const auto& occ : encoding.occurrences) {
    XICC_ASSIGN_OR_RETURN(int64_t count, count_of(occ.var));
    if (count > 0) support_edges[occ.parent].push_back(occ.child);
  }
  auto reaches = [&](const std::string& from, const std::string& target) {
    std::set<std::string> seen{from};
    std::deque<std::string> queue{from};
    while (!queue.empty()) {
      std::string type = queue.front();
      queue.pop_front();
      if (type == target) return true;
      auto it = support_edges.find(type);
      if (it == support_edges.end()) continue;
      for (const std::string& next : it->second) {
        if (seen.insert(next).second) queue.push_back(next);
      }
    }
    return false;
  };
  // regenerative[type] = per-slot flags for union-typed productions.
  std::map<std::string, std::array<bool, 2>> regenerative;
  for (const std::string& type : dn.elements()) {
    if (dn.ContentOf(type)->kind() != Regex::Kind::kUnion) continue;
    auto it = pools.find(type);
    if (it == pools.end() || it->second.size() < 2) continue;
    regenerative[type] = {reaches(it->second[0].child, type),
                          reaches(it->second[1].child, type)};
  }

  XmlTree tree(dn.root());
  std::map<std::string, std::vector<NodeId>> created;  // In creation order.
  created[dn.root()].push_back(tree.root());

  // Draws one child of symbol `child` under `parent_node`.
  auto emit_child = [&](NodeId parent_node, const std::string& child,
                        std::deque<NodeId>* queue) {
    if (child == "S") {
      tree.AddText(parent_node, "text");
      return;
    }
    NodeId node = tree.AddElement(parent_node, child);
    created[child].push_back(node);
    queue->push_back(node);
  };

  std::deque<NodeId> queue;
  queue.push_back(tree.root());
  while (!queue.empty()) {
    NodeId node = queue.front();
    queue.pop_front();
    const std::string& type = tree.label(node);
    const Regex& content = *dn.ContentOf(type);
    auto it = pools.find(type);
    switch (content.kind()) {
      case Regex::Kind::kEpsilon:
        break;
      case Regex::Kind::kString:
      case Regex::Kind::kElement: {
        Pool& pool = it->second[0];
        if (pool.remaining <= 0) {
          return Status::Internal("occurrence pool exhausted for " + type);
        }
        --pool.remaining;
        emit_child(node, pool.child, &queue);
        break;
      }
      case Regex::Kind::kConcat: {
        for (int slot = 0; slot < 2; ++slot) {
          Pool& pool = it->second[slot];
          if (pool.remaining <= 0) {
            return Status::Internal("occurrence pool exhausted for " + type);
          }
          --pool.remaining;
          emit_child(node, pool.child, &queue);
        }
        break;
      }
      case Regex::Kind::kUnion: {
        Pool& first = it->second[0];
        Pool& second = it->second[1];
        Pool* pool = nullptr;
        if (first.remaining > 0 && second.remaining > 0) {
          const auto& regen = regenerative[type];
          // Prefer the regenerative arm; ties default to the first slot.
          pool = (regen[1] && !regen[0]) ? &second : &first;
        } else {
          pool = first.remaining > 0 ? &first : &second;
        }
        if (pool->remaining <= 0) {
          return Status::Internal("occurrence pools exhausted for " + type);
        }
        --pool->remaining;
        emit_child(node, pool->child, &queue);
        break;
      }
      case Regex::Kind::kStar:
        return Status::Internal("simplified DTD contains a Kleene star");
    }
  }

  // Sanity: the production/sum rows guarantee every pool is exactly used up
  // and every ext count realized.
  for (const auto& [parent, slots] : pools) {
    for (const Pool& pool : slots) {
      if (pool.remaining != 0) {
        return Status::Internal("witness construction left " +
                                std::to_string(pool.remaining) +
                                " undrawn children under '" + parent + "'");
      }
    }
  }
  for (const auto& [symbol, var] : encoding.ext_var) {
    if (symbol == "S") continue;
    XICC_ASSIGN_OR_RETURN(int64_t expected, count_of(var));
    int64_t actual = static_cast<int64_t>(created[symbol].size());
    if (expected != actual) {
      return Status::Internal("witness has " + std::to_string(actual) + " '" +
                              symbol + "' nodes, solution says " +
                              std::to_string(expected));
    }
  }

  // Attribute values: mentioned pairs cycle through their realized value
  // set; everything else gets fresh distinct values.
  int64_t fresh = 0;
  for (const std::string& type : dn.elements()) {
    const auto& nodes = created[type];
    if (nodes.empty()) continue;
    for (const std::string& attr : dn.AttributesOf(type)) {
      auto pair_it = value_sets.find({type, attr});
      if (pair_it == value_sets.end()) {
        for (NodeId node : nodes) {
          tree.SetAttribute(node, attr, "u" + std::to_string(++fresh));
        }
        continue;
      }
      const std::vector<std::string>& values = pair_it->second;
      if (values.empty()) {
        return Status::Internal("empty value set for populated pair " + type +
                                "." + attr);
      }
      for (size_t j = 0; j < nodes.size(); ++j) {
        tree.SetAttribute(nodes[j], attr, values[j % values.size()]);
      }
    }
  }
  // The tree so far is valid w.r.t. the *simplified* DTD; erase the
  // synthetic intermediates to obtain a tree valid w.r.t. the original
  // (Lemma 4.3).
  return CollapseSynthetic(tree, encoding.simplified.synthetic);
}

}  // namespace xicc
