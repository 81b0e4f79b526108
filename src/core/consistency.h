#pragma once

#include <optional>
#include <string>

#include "base/deadline.h"
#include "constraints/constraint.h"
#include "core/cardinality_encoding.h"
#include "core/encoding_solver.h"
#include "core/set_representation.h"
#include "core/witness.h"
#include "dtd/dtd.h"
#include "ilp/solver.h"
#include "xml/tree.h"

namespace xicc {

struct ConsistencyStats;

struct ConsistencyOptions {
  SolveStrategy strategy = SolveStrategy::kCaseSplit;
  /// Materialize a witness document when consistent.
  bool build_witness = true;
  /// Require the witness to contain at least this many element nodes
  /// (0 = no requirement). Added as Σ_τ ext(τ) ≥ n to the cardinality
  /// system, so the verdict itself is unaffected unless the DTD cannot
  /// grow (then the result is honestly inconsistent *at that size*).
  /// Useful as a schema-aware test-data generator.
  size_t min_witness_nodes = 0;
  /// Re-validate the witness against the DTD and re-evaluate Σ on it
  /// (witnesses are checked, not trusted); a failure is reported as an
  /// internal error.
  bool verify_witness = true;
  IlpOptions ilp;
  SetRepresentationOptions set_representation;
  WitnessOptions witness;
  /// Cooperative stop for the whole check: deadline and/or cancel token,
  /// threaded into every ILP layer below (polled per branch-and-bound node,
  /// per cut round, and every 64 simplex pivots). When it fires the check
  /// returns kDeadlineExceeded / kCancelled — NEVER a consistency verdict;
  /// a timed-out check has not decided anything.
  StopSignal stop;
  /// When non-null and the check ends without a verdict (stop fired,
  /// resource budget tripped), receives the statistics accumulated so far:
  /// nodes explored, pivots, deepest search node reached.
  ConsistencyStats* partial_stats = nullptr;
};

/// What one check reports. The search counters are the SolveCounters block
/// of its Ψ(D,Σ) solve, copied whole (all zero when the Figure 5 dispatch
/// decided without a solve); a check stopped without a verdict reports the
/// block as far as the search got. A memo hit did no solve and reports
/// zero search cost, with memo_hits = 1 and its own memo timings.
struct ConsistencyStats : SolveCounters {
  size_t system_variables = 0;
  size_t system_constraints = 0;

  // Spec-session counters (zero outside SpecSession / CheckBatch paths).
  /// Wall time spent compiling the DTD artifact bundle, charged to the
  /// query that triggered compilation (0 afterwards — that is the point).
  double compile_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)
  /// Queries answered by pushing only C_Σ rows onto the compiled skeleton's
  /// trail instead of rebuilding Ψ(D,Σ) from scratch.
  size_t sigma_delta_checks = 0;
  /// Memo-cache hits/misses for canonicalized Σ within a session.
  size_t memo_hits = 0;
  size_t memo_misses = 0;

  // Stage attribution (base/stage_timer.h taxonomy) — timing only, never a
  // verdict. Zero outside the SpecSession / CheckBatch paths.
  /// Session construction cost (skeleton + tableau copy), charged like
  /// compile_ms to the session's first answered query.
  double session_setup_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)
  /// Rendering + sorting this query's canonical Σ memo key.
  double memo_key_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)
  /// Shared-memo lookup: shard lock wait + hold (payload copies excluded).
  double memo_lookup_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)
  /// Shared-memo store: payload snapshot + shard lock wait + hold.
  double memo_store_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)

  /// Adds another check's solve counters, Σ-delta checks and memo hits and
  /// misses into this block: the totals of a batch.
  void Add(const ConsistencyStats& other);
};

struct ConsistencyResult {
  bool consistent = false;
  /// The Figure-5 class the input was dispatched to.
  ConstraintClass constraint_class = ConstraintClass::kEmpty;
  /// Which decision procedure ran: "grammar-emptiness" (Thm 3.5(1)),
  /// "keys-only" (Thm 3.5(2)), "ilp-case-split" / "ilp-big-m" (Thm 4.1 /
  /// Cor 4.9), "set-representation" (Thm 5.1).
  std::string method;
  std::string explanation;
  /// A checked witness document when consistent and requested.
  std::optional<XmlTree> witness;
  ConsistencyStats stats;
};

/// The XML SPECIFICATION CONSISTENCY problem: is there a finite tree T with
/// T ⊨ D and T ⊨ Σ?
///
/// Dispatch per Figure 5:
///  - Σ empty        → grammar emptiness, linear time (Theorem 3.5(1));
///  - keys only      → emptiness again, since any valid tree can be re-valued
///                     to satisfy all keys (Theorem 3.5(2)); multi-attribute
///                     keys included;
///  - unary keys/FKs/ICs (± negated keys) → the Ψ(D,Σ) integer encoding
///                     (Theorem 4.1, Corollary 4.9), NP;
///  - with negated inclusions → the Section 5 region system (Theorem 5.1);
///  - multi-attribute FKs/ICs → Status kUndecidableClass (Theorem 3.1: no
///                     algorithm exists).
Result<ConsistencyResult> CheckConsistency(
    const Dtd& dtd, const ConstraintSet& sigma,
    const ConsistencyOptions& options = {});

}  // namespace xicc
