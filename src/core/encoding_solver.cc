#include "core/encoding_solver.h"

#include <deque>
#include <map>
#include <set>
#include <string>

namespace xicc {

namespace {

/// Element types with ext(τ) > 0 that no chain of positive occurrence
/// variables connects to the root; empty set ⇔ realizable as a tree.
std::set<std::string> PhantomSupport(const CardinalityEncoding& encoding,
                                     const IlpSolution& solution) {
  const Dtd& dn = encoding.simplified.dtd;
  // Support adjacency: parent type → child symbols along positive edges.
  std::map<std::string, std::vector<std::string>> edges;
  for (const auto& occ : encoding.occurrences) {
    if (solution.values[occ.var] > BigInt(0)) {
      edges[occ.parent].push_back(occ.child);
    }
  }
  std::set<std::string> reached;
  std::deque<std::string> queue;
  reached.insert(dn.root());
  queue.push_back(dn.root());
  while (!queue.empty()) {
    std::string type = queue.front();
    queue.pop_front();
    auto it = edges.find(type);
    if (it == edges.end()) continue;
    for (const std::string& child : it->second) {
      if (child == "S") continue;
      if (reached.insert(child).second) queue.push_back(child);
    }
  }

  std::set<std::string> phantom;
  for (const auto& [symbol, var] : encoding.ext_var) {
    if (symbol == "S") continue;
    if (solution.values[var] > BigInt(0) && reached.count(symbol) == 0) {
      phantom.insert(symbol);
    }
  }
  return phantom;
}

}  // namespace

bool SupportIsConnected(const CardinalityEncoding& encoding,
                        const IlpSolution& solution) {
  return PhantomSupport(encoding, solution).empty();
}

Result<IlpSolution> SolveEncodingSystem(const CardinalityEncoding& encoding,
                                        const LinearSystem& system,
                                        const EncodingSolveOptions& options) {
  LinearSystem work = system;
  return SolveEncodingSystemInPlace(encoding, &work, encoding.conditionals,
                                    options, /*warm=*/nullptr);
}

Result<IlpSolution> SolveEncodingSystemInPlace(
    const CardinalityEncoding& encoding, LinearSystem* system,
    const std::vector<Conditional>& base_conditionals,
    const EncodingSolveOptions& options, CaseSplitWarmContext* warm) {
  std::vector<Conditional> conditionals = base_conditionals;
  // The counters of the rounds before this one. A round that ends without a
  // verdict reports only itself through the partial sink, so the earlier
  // rounds are added there too.
  SolveCounters earlier;
  // The base system never changes across connectivity rounds — only the
  // conditional set grows by one lazy cut per round — so the base LP basis
  // is factorized cold once (or supplied pre-factorized by a session) and
  // every later round's presolve probes and DFS root become warm
  // dual-simplex re-solves against it.
  CaseSplitWarmContext local_warm;
  if (warm == nullptr) warm = &local_warm;
  for (size_t round = 0; round < options.max_connectivity_rounds; ++round) {
    // Per-round stop poll: a round can only end by solving, so checking
    // between rounds plus the solver's own internal polls bounds the
    // overshoot past a deadline by one poll interval, not one round.
    if (options.ilp.stop.Armed() && options.ilp.stop.ShouldStop()) {
      if (options.ilp.partial != nullptr) options.ilp.partial->Add(earlier);
      return options.ilp.stop.ToStatus();
    }
    Result<IlpSolution> solved =
        options.strategy == SolveStrategy::kCaseSplit
            ? SolveWithConditionalsInPlace(system, conditionals, options.ilp,
                                           warm)
            : SolveIlp(ApplyBigMLinearization(*system, conditionals),
                       options.ilp);
    if (!solved.ok()) {
      if (options.ilp.partial != nullptr) options.ilp.partial->Add(earlier);
      return solved.status();
    }
    solved->Add(earlier);
    if (!solved->feasible) return solved;

    std::set<std::string> phantom = PhantomSupport(encoding, *solved);
    if (phantom.empty()) return solved;

    // Subtour-style cut: if any phantom type is populated, some occurrence
    // edge must enter the set from outside.
    Conditional cut;
    for (const std::string& type : phantom) {
      cut.premise.Add(encoding.ext_var.at(type), BigInt(1));
    }
    for (const auto& occ : encoding.occurrences) {
      if (phantom.count(occ.child) > 0 && phantom.count(occ.parent) == 0) {
        cut.conclusion.Add(occ.var, BigInt(1));
      }
    }
    conditionals.push_back(std::move(cut));
    earlier = *solved;
  }
  return Status::ResourceExhausted(
      "support-connectivity cuts did not converge within " +
      std::to_string(options.max_connectivity_rounds) + " rounds");
}

}  // namespace xicc
