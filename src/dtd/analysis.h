#pragma once

#include <map>
#include <set>
#include <string>

#include "dtd/dtd.h"

namespace xicc {

/// The grammar analyses underlying Theorem 3.5 and Lemma 3.6. A DTD is an
/// extended context-free grammar (element types as nonterminals, S as a
/// terminal); these are the classic emptiness-style fixpoints, run with a
/// worklist over one interned and/or graph of the content-model ASTs. Each
/// single-type analysis below is O(|D|); ComputeDtdFacts builds the graph
/// once and runs one Lemma 3.6 pass per element type, O(|E|·|D|) int work.

/// Element types τ that can derive a finite tree (the grammar's "productive"
/// nonterminals).
std::set<std::string> ProductiveElements(const Dtd& dtd);

/// Theorem 3.5(1): does any finite XML tree conform to `dtd`? Equivalent to
/// the root being productive. E.g. false for D2 = { db → foo, foo → foo }.
bool DtdHasValidTree(const Dtd& dtd);

/// Element types reachable from the root through content models (without
/// regard to productivity).
std::set<std::string> ReachableElements(const Dtd& dtd);

/// How many τ-elements a single valid tree can contain, saturated at 2:
enum class Multiplicity {
  kNone,        ///< No valid tree contains a τ element (or no valid tree at all).
  kExactlyOne,  ///< Some valid tree has one; none has two or more.
  kAtLeastTwo,  ///< Some valid tree has ≥ 2 τ elements (Lemma 3.6).
};

/// Lemma 3.6: decides in O(|D|) whether some T |= D has |ext(τ)| > 1, with
/// the one/zero cases distinguished for free.
Multiplicity MaxMultiplicity(const Dtd& dtd, const std::string& type);

/// Convenience wrapper: true iff some valid tree has |ext(type)| > 1.
bool CanHaveTwo(const Dtd& dtd, const std::string& type);

/// True iff every valid tree contains at least one `type` element, i.e. the
/// root cannot derive a tree avoiding `type`. Used by the consistency checker
/// to decide whether a constraint's scope is vacuously empty. Returns false
/// when the DTD has no valid tree at all.
bool TypeIsUnavoidable(const Dtd& dtd, const std::string& type);

/// The grammar facts of Section 3, computed once per DTD and shared
/// read-only across queries and threads (Theorem 3.5(1), Lemma 3.6). They
/// equal the single-type analyses above; computing them together costs one
/// productive and one reachable pass plus |E| Lemma 3.6 passes over one
/// graph, O(|E|·|D|).
struct DtdFacts {
  std::set<std::string> productive;
  std::set<std::string> reachable;
  bool has_valid_tree = false;
  /// Lemma 3.6 multiplicity per declared element type.
  std::map<std::string, Multiplicity> multiplicity;
};

DtdFacts ComputeDtdFacts(const Dtd& dtd);

}  // namespace xicc
