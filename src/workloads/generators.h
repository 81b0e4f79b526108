#pragma once

#include <cstdint>
#include <vector>

#include "constraints/constraint.h"
#include "dtd/dtd.h"

namespace xicc {
namespace workloads {

/// Deterministic scaling families and randomized instance generators for
/// the benchmark harness. All randomness is seeded — every bench run is
/// reproducible.

/// Chain of depth n: r → e1, e_i → e_{i+1}, e_n → ε; one attribute per
/// element. Exercises the linear-time analyses on deep grammars.
Dtd ChainDtd(size_t n);

/// Flat record: r → (e1, (e2, … (en))) with one attribute per element.
Dtd WideDtd(size_t n);

/// Library-style document: r → section*, section → (item | note)*, repeated
/// n times with distinct names; items carry id/ref attributes. The
/// "naturalistic" family for the NP-cell benches: realistic shapes that the
/// encoding dispatches through the ILP yet solves without search blowup.
Dtd CatalogDtd(size_t sections);

/// A key per element type that has attributes (keys-only workload).
ConstraintSet AllKeysSigma(const Dtd& dtd);

/// Auction-site document (XMark-flavored): regions with items, a people
/// directory, open auctions with bids. Scales by `regions`.
///   site → (region*, people, auctions)
///   region_i → item_i*         item_i@{id, seller}
///   people → person*           person@id
///   auctions → auction*        auction@{id, item_ref, winner}
Dtd AuctionDtd(size_t regions);

/// The natural integrity constraints of the auction site: ids key their
/// types; sellers, winners, and item references are foreign keys. All
/// unary, all consistent — the realistic end of the NP cell.
ConstraintSet AuctionSigma(size_t regions);

/// Foreign-key chain over CatalogDtd: item_i.ref ⊆ item_{i+1}.id with
/// item.id keys — consistent, growing constraint count.
ConstraintSet CatalogFkChainSigma(size_t sections);

/// Seeded random DTD: `elements` element types in a DAG (plus optional
/// star/union structure), ≤ `attrs_per_element` attributes each. Always has
/// valid trees.
Dtd RandomDtd(uint64_t seed, size_t elements, size_t attrs_per_element);

/// Seeded random unary constraint set over `dtd`: `keys` unary keys and
/// `fks` unary foreign keys over randomly chosen attribute pairs.
ConstraintSet RandomUnarySigma(const Dtd& dtd, uint64_t seed, size_t keys,
                               size_t fks);

/// Seeded batch of Σ-deltas over one DTD — the CheckBatch scaling workload.
/// Sizes are mixed on purpose (|Σ| drawn uniformly from
/// [min_constraints, max_constraints], keys and foreign keys mixed), so a
/// batch contains both tiny items that stress per-item overhead and larger
/// items that stress the solver. `dup_percent` of the items (0–100) repeat
/// an earlier item verbatim, giving the shared memo a realistic hit mix.
std::vector<ConstraintSet> SigmaDeltaBatch(const Dtd& dtd, uint64_t seed,
                                           size_t count,
                                           size_t min_constraints,
                                           size_t max_constraints,
                                           size_t dup_percent);

/// A 0/1 linear system A·x = 1 (every row sums to exactly one over chosen
/// columns) — the LIP variant of Theorem 4.7.
struct BinaryLipInstance {
  size_t rows;
  size_t cols;
  /// row-major a_ij ∈ {0,1}; every row has at least one 1.
  std::vector<uint8_t> a;

  bool At(size_t i, size_t j) const { return a[i * cols + j] != 0; }
};

/// Random instance with `ones_per_row` ones per row.
BinaryLipInstance RandomLip(uint64_t seed, size_t rows, size_t cols,
                            size_t ones_per_row);

/// The Theorem 4.7 reduction: (D, Σ) with unary keys and foreign keys such
/// that a tree valid w.r.t. D satisfying Σ exists iff A·x = 1 has a binary
/// solution. This is the NP-hardness gadget — crafted instances that force
/// the consistency checker to search.
struct LipEncoding {
  Dtd dtd;
  ConstraintSet sigma;
};
LipEncoding EncodeLipAsConsistency(const BinaryLipInstance& instance);

/// Brute-force reference oracle for small instances (cols ≤ 24).
bool LipHasBinarySolution(const BinaryLipInstance& instance);

}  // namespace workloads
}  // namespace xicc
