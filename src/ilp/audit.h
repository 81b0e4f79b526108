#pragma once

#include <string>
#include <vector>

#include "ilp/linear_system.h"
#include "ilp/simplex.h"

namespace xicc {

/// Invariant auditors for the exact-ILP substrate. Each returns a list of
/// human-readable violations — empty means every invariant holds — so tests
/// can exercise them in any build; the XICC_AUDIT build wires them into
/// solver checkpoints via XICC_DCHECK_AUDIT (base/debug.h), where any
/// violation aborts with the full list.

/// Trail discipline of a LinearSystem: checkpoints are monotone
/// nondecreasing in both sizes (rows and variables are append-only) and
/// never exceed the live system — the precondition every PopCheckpoint,
/// warm re-solve prefix, and TrailScope relies on.
std::vector<std::string> AuditTrail(const LinearSystem& system);

/// The same check over raw trail data. LinearSystem's own API cannot build
/// a bad trail (that is the invariant); this overload lets tests and
/// external checkpointing code audit a candidate trail directly.
std::vector<std::string> AuditTrail(
    const std::vector<LinearSystem::Checkpoint>& trail, size_t num_variables,
    size_t num_constraints);

/// Consistency of a retained warm-start basis against the system it seeds:
///  - the tableau covers a row prefix of `system` and no unknown variables;
///  - column metadata is well formed (structural ids in range, slack rows in
///    range with a ±1 substitution sign);
///  - every row is a well-formed sparse row (AuditTableauRows below);
///  - the basis is a valid simplex basis (each basic column is a unit
///    column; no column basic in two rows; artificial-basic rows are
///    degenerate);
///  - the export is primal feasible (rhs ≥ 0 — infeasible re-solves must
///    never fold back into a kept tableau);
///  - every cell is an exact Num in canonical form (positive denominator,
///    reduced, and with a well-formed two-tier representation — a big-tier
///    value that fits the small words is a demotion bug) — the invariant
///    that catches any floating-point or un-normalized arithmetic leaking
///    into a pivot.
std::vector<std::string> AuditTableau(const LinearSystem& system,
                                      const LpTableau& tableau);

/// The row-store invariants alone, which hold mid-re-solve too (when rhs
/// cells may still be negative): every run lies inside the used prefix,
/// runs are disjoint and their lengths sum to the live count; each row's
/// columns are strictly increasing and inside the tableau's width, and it
/// stores no zero; every big cell names an entry of the big table that no
/// other cell names and that holds a value the small tier cannot, and the
/// live big count matches.
std::vector<std::string> AuditTableauRows(const LpTableau& tableau);

/// Fast-lane recomputation — the XICC_NUM_AUDIT twin for the sparse kernel's
/// structure-of-arrays small-word lane: redo a/b ∘ c/d (`op` is '*' or '+')
/// in pure BigInt-backed Rational arithmetic and check that the fast-lane
/// result rn/rd matches it exactly and is in canonical small-tier form
/// (positive denominator, reduced, numerator != INT64_MIN). The overflow
/// intrinsics guard the representation; this guards the mathematics.
std::vector<std::string> AuditFastLaneOp(char op, internal::Word a,
                                         internal::Word b, internal::Word c,
                                         internal::Word d, internal::Word rn,
                                         internal::Word rd);

/// Support-list invariant of one sparse kernel row: `support` holds strictly
/// increasing column indices naming exactly the nonzero cells of
/// `cells[0..width)` (the rhs cell sits past `width` and is tracked outside
/// the supports).
std::vector<std::string> AuditRowSupport(const std::vector<Num>& cells,
                                         size_t width,
                                         const std::vector<int>& support,
                                         size_t row);

}  // namespace xicc
