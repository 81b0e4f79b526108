// Tests for the invariant auditors (ilp/audit.h, core/audit.h) that the
// XICC_AUDIT build wires into solver checkpoints: clean artifacts audit
// empty, and each corruption a hook is meant to catch produces a violation
// naming it. The auditors are plain functions returning violation lists, so
// this suite runs in every build — XICC_AUDIT only decides whether the
// hooks abort on what these tests provoke deliberately.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "base/debug.h"
#include "base/rational.h"
#include "core/audit.h"
#include "core/spec_session.h"
#include "ilp/audit.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

std::string Joined(const std::vector<std::string>& violations) {
  std::string out;
  for (const std::string& v : violations) out += v + "\n";
  return out;
}

/// True when some violation mentions `needle`.
bool Mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  for (const std::string& v : violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ------------------------------------------------------------- AuditTrail.

TEST(AuditTrailTest, DisciplinedUseIsClean) {
  LinearSystem system;
  VarId x = system.AddVariable("x");
  system.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(1));
  EXPECT_TRUE(AuditTrail(system).empty());

  system.PushCheckpoint();
  VarId y = system.AddVariable("y");
  system.AddConstraint(LinearExpr::Var(y), RelOp::kLe, BigInt(3));
  system.PushCheckpoint();
  system.AddConstraint(LinearExpr::Var(x), RelOp::kLe, BigInt(7));
  EXPECT_TRUE(AuditTrail(system).empty()) << Joined(AuditTrail(system));

  system.PopCheckpoint();
  EXPECT_TRUE(AuditTrail(system).empty());
  {
    TrailScope scope(&system);
    system.AddConstraint(LinearExpr::Var(y), RelOp::kEq, BigInt(2));
    EXPECT_TRUE(AuditTrail(system).empty());
  }
  system.PopCheckpoint();
  EXPECT_TRUE(AuditTrail(system).empty());
}

TEST(AuditTrailTest, RejectsNonMonotoneCheckpoints) {
  // LinearSystem's own API cannot produce these trails — which is exactly
  // the invariant; the raw overload lets us check the auditor would notice.
  const std::vector<LinearSystem::Checkpoint> shrinking = {{4, 4}, {2, 3}};
  auto violations = AuditTrail(shrinking, 10, 10);
  ASSERT_EQ(violations.size(), 1u) << Joined(violations);
  EXPECT_TRUE(Mentions(violations, "checkpoint 1 is not monotone"))
      << Joined(violations);
}

TEST(AuditTrailTest, RejectsCheckpointsBeyondTheLiveSystem) {
  const std::vector<LinearSystem::Checkpoint> overflowing = {{1, 1}, {3, 9}};
  auto violations = AuditTrail(overflowing, 3, 5);
  ASSERT_EQ(violations.size(), 1u) << Joined(violations);
  EXPECT_TRUE(Mentions(violations, "beyond the live system"))
      << Joined(violations);
}

// ----------------------------------------------------------- AuditTableau.

/// A small feasible system and its exported basis, the fixture every
/// corruption below starts from.
struct TableauFixture {
  LinearSystem system;
  LpTableau tableau;

  TableauFixture() {
    VarId x = system.AddVariable("x");
    VarId y = system.AddVariable("y");
    LinearExpr sum;
    sum.Add(x, BigInt(1)).Add(y, BigInt(1));
    system.AddConstraint(sum, RelOp::kLe, BigInt(5));
    system.AddConstraint(LinearExpr::Var(x), RelOp::kGe, BigInt(1));
    LpResult lp = SolveLpFeasibility(system, &tableau);
    EXPECT_TRUE(lp.feasible);
  }

  /// Index of a row whose basis entry names a real column, for corruptions
  /// that need one.
  size_t BasicRow() const {
    for (size_t i = 0; i < tableau.basis.size(); ++i) {
      if (tableau.basis[i] >= 0) return i;
    }
    ADD_FAILURE() << "no basic row in the fixture tableau";
    return 0;
  }
};

/// Row `row`'s cells as (column, value) pairs, in store order.
std::vector<std::pair<int, Num>> RowCells(const LpTableau& tableau,
                                          size_t row) {
  std::vector<std::pair<int, Num>> cells;
  for (size_t k = 0; k < tableau.rows.RowSize(row); ++k) {
    cells.emplace_back(tableau.rows.Col(row, k), tableau.rows.Value(row, k));
  }
  return cells;
}

/// Rewrites row `row` as exactly `cells`, unchecked — the way a corrupting
/// write would — into a fresh run at the end of the store.
void RewriteRow(LpTableau* tableau, size_t row,
                const std::vector<std::pair<int, Num>>& cells) {
  tableau->rows.BeginRow(row);
  for (const auto& [col, value] : cells) {
    tableau->rows.AppendCell(row, col, value);
  }
}

/// The index of `col` among `cells`, or cells.size() when it is absent.
size_t IndexOf(const std::vector<std::pair<int, Num>>& cells, int col) {
  size_t k = 0;
  while (k < cells.size() && cells[k].first != col) ++k;
  return k;
}

/// Stores a cell at `col`, keeping the columns sorted, so the only thing
/// wrong with the row afterwards is the value itself.
void InsertCell(LpTableau* tableau, size_t row, int col, const Num& value) {
  std::vector<std::pair<int, Num>> cells = RowCells(*tableau, row);
  auto it = std::lower_bound(
      cells.begin(), cells.end(), col,
      [](const std::pair<int, Num>& cell, int c) { return cell.first < c; });
  cells.insert(it, {col, value});
  RewriteRow(tableau, row, cells);
}

TEST(AuditTableauTest, SolverExportIsClean) {
  TableauFixture fx;
  EXPECT_TRUE(AuditTableau(fx.system, fx.tableau).empty())
      << Joined(AuditTableau(fx.system, fx.tableau));
}

TEST(AuditTableauTest, RejectsNegativeRhs) {
  TableauFixture fx;
  fx.tableau.rhs[fx.BasicRow()] = Num(-1);
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau), "negative rhs"))
      << Joined(AuditTableau(fx.system, fx.tableau));
}

TEST(AuditTableauTest, RejectsBrokenUnitColumn) {
  TableauFixture fx;
  const size_t row = fx.BasicRow();
  const int col = fx.tableau.basis[row];
  std::vector<std::pair<int, Num>> cells = RowCells(fx.tableau, row);
  const size_t own = IndexOf(cells, col);
  ASSERT_LT(own, cells.size());
  cells[own].second = Num(2);
  RewriteRow(&fx.tableau, row, cells);
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "not unit in its own row"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  // Dropping the own-row cell makes it zero, which is not unit either.
  TableauFixture fw;
  cells = RowCells(fw.tableau, fw.BasicRow());
  const size_t k = IndexOf(cells, fw.tableau.basis[fw.BasicRow()]);
  ASSERT_LT(k, cells.size());
  cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(k));
  RewriteRow(&fw.tableau, fw.BasicRow(), cells);
  EXPECT_TRUE(Mentions(AuditTableau(fw.system, fw.tableau),
                       "not unit in its own row"))
      << Joined(AuditTableau(fw.system, fw.tableau));

  // And a stray entry for the basic column outside its own row.
  TableauFixture fy;
  const size_t other = (fy.BasicRow() + 1) % fy.tableau.rows.size();
  ASSERT_NE(other, fy.BasicRow());
  InsertCell(&fy.tableau, other, fy.tableau.basis[fy.BasicRow()], Num(1));
  EXPECT_TRUE(Mentions(AuditTableau(fy.system, fy.tableau),
                       "nonzero entry outside its row"))
      << Joined(AuditTableau(fy.system, fy.tableau));
}

TEST(AuditTableauTest, RejectsMalformedSparseRows) {
  // A row with two stored cells, for the layout corruptions.
  auto wide_row = [](const TableauFixture& f) -> size_t {
    for (size_t i = 0; i < f.tableau.rows.size(); ++i) {
      if (f.tableau.rows.RowSize(i) >= 2) return i;
    }
    ADD_FAILURE() << "no row with two stored cells in the fixture tableau";
    return 0;
  };

  TableauFixture fx;
  size_t row = wide_row(fx);
  std::vector<std::pair<int, Num>> cells = RowCells(fx.tableau, row);
  std::swap(cells[0], cells[1]);
  RewriteRow(&fx.tableau, row, cells);
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "not strictly increasing"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  TableauFixture fy;
  row = wide_row(fy);
  cells = RowCells(fy.tableau, row);
  cells[1].first = cells[0].first;  // The same column listed twice.
  RewriteRow(&fy.tableau, row, cells);
  EXPECT_TRUE(Mentions(AuditTableau(fy.system, fy.tableau),
                       "not strictly increasing"))
      << Joined(AuditTableau(fy.system, fy.tableau));

  TableauFixture fz;
  const int width = static_cast<int>(fz.tableau.columns.size());
  cells = RowCells(fz.tableau, 0);
  cells.emplace_back(width, Num(3));
  RewriteRow(&fz.tableau, 0, cells);
  EXPECT_TRUE(Mentions(AuditTableau(fz.system, fz.tableau),
                       "outside width"))
      << Joined(AuditTableau(fz.system, fz.tableau));

  TableauFixture fw;
  row = wide_row(fw);
  cells = RowCells(fw.tableau, row);
  cells[0].second = Num(0);
  RewriteRow(&fw.tableau, row, cells);
  EXPECT_TRUE(Mentions(AuditTableau(fw.system, fw.tableau), "stored zero"))
      << Joined(AuditTableau(fw.system, fw.tableau));
}

TEST(AuditTableauTest, RejectsCorruptRowStores) {
  // A rewritten row leaves a dead run behind, which the store may hold.
  TableauFixture fx;
  RewriteRow(&fx.tableau, 0, RowCells(fx.tableau, 0));
  EXPECT_TRUE(AuditTableau(fx.system, fx.tableau).empty())
      << Joined(AuditTableau(fx.system, fx.tableau));

  // Two rows over the same cells.
  ASSERT_GE(fx.tableau.rows.size(), 2u);
  ASSERT_GE(fx.tableau.rows.RowSize(1), 1u);
  fx.tableau.rows.row_start[0] = fx.tableau.rows.row_start[1];
  EXPECT_TRUE(Mentions(AuditTableauRows(fx.tableau), "share store cells"))
      << Joined(AuditTableauRows(fx.tableau));

  TableauFixture fy;
  ++fy.tableau.rows.live_cells;
  EXPECT_TRUE(Mentions(AuditTableauRows(fy.tableau), "live cells"))
      << Joined(AuditTableauRows(fy.tableau));

  // Big cells: one that needs the big tier is clean; a dangling index, a
  // shared entry and an entry the small tier could hold are not.
  const Num huge(BigInt::Pow(BigInt(10), 30));
  TableauFixture fb;
  std::vector<std::pair<int, Num>> cells = RowCells(fb.tableau, 0);
  ASSERT_FALSE(cells.empty());
  cells[0].second = huge;
  RewriteRow(&fb.tableau, 0, cells);
  EXPECT_TRUE(AuditTableauRows(fb.tableau).empty())
      << Joined(AuditTableauRows(fb.tableau));
  const size_t big_cell = fb.tableau.rows.row_start[0];
  ASSERT_EQ(fb.tableau.rows.cell_den[big_cell], 0);

  LpTableau dangling = fb.tableau;
  dangling.rows.cell_num[big_cell] = 7;
  EXPECT_TRUE(Mentions(AuditTableauRows(dangling), "names entry 7"))
      << Joined(AuditTableauRows(dangling));

  LpTableau shared = fb.tableau;
  cells = RowCells(shared, 1);
  ASSERT_FALSE(cells.empty());
  cells[0].second = huge;
  RewriteRow(&shared, 1, cells);
  const size_t other = shared.rows.row_start[1];
  ASSERT_EQ(shared.rows.cell_den[other], 0);
  shared.rows.cell_num[other] = shared.rows.cell_num[big_cell];
  EXPECT_TRUE(Mentions(AuditTableauRows(shared), "is shared"))
      << Joined(AuditTableauRows(shared));

  LpTableau demotable = fb.tableau;
  demotable.rows.big[0] = Num(5);
  EXPECT_TRUE(Mentions(AuditTableauRows(demotable), "fits the small tier"))
      << Joined(AuditTableauRows(demotable));

  LpTableau miscounted = fb.tableau;
  ++miscounted.rows.live_big;
  EXPECT_TRUE(Mentions(AuditTableauRows(miscounted), "live big cells"))
      << Joined(AuditTableauRows(miscounted));
}

TEST(AuditTableauTest, RejectsDuplicateAndOutOfRangeBasis) {
  TableauFixture fx;
  ASSERT_GE(fx.tableau.basis.size(), 2u);
  fx.tableau.basis[0] = fx.tableau.basis[1] = fx.tableau.basis[fx.BasicRow()];
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau), "is basic in rows"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  TableauFixture fy;
  fy.tableau.basis[fy.BasicRow()] = 999;
  EXPECT_TRUE(Mentions(AuditTableau(fy.system, fy.tableau),
                       "names column 999"))
      << Joined(AuditTableau(fy.system, fy.tableau));
}

TEST(AuditTableauTest, RejectsNondegenerateArtificialRow) {
  TableauFixture fx;
  const size_t row = fx.BasicRow();
  fx.tableau.basis[row] = -1;  // Artificial still basic...
  fx.tableau.rhs[row] = Num(2);  // ...at a nonzero value.
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "artificial-basic row"))
      << Joined(AuditTableau(fx.system, fx.tableau));
}

TEST(AuditTableauTest, RejectsBadColumnMetadata) {
  TableauFixture fx;
  for (LpColumnInfo& column : fx.tableau.columns) {
    if (column.kind == LpColumnInfo::Kind::kStructural) {
      column.index = 42;  // The system has two variables.
      break;
    }
  }
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "names unknown variable 42"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  TableauFixture fy;
  for (LpColumnInfo& column : fy.tableau.columns) {
    if (column.kind == LpColumnInfo::Kind::kSlack) {
      column.sub_sign = 0;
      break;
    }
  }
  EXPECT_TRUE(Mentions(AuditTableau(fy.system, fy.tableau),
                       "substitution sign 0"))
      << Joined(AuditTableau(fy.system, fy.tableau));
}

TEST(AuditTableauTest, RejectsShapeMismatches) {
  TableauFixture fx;
  fx.tableau.num_constraints = fx.system.NumConstraints() + 1;
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "but the system has only"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  TableauFixture fy;
  fy.tableau.basis.pop_back();
  EXPECT_TRUE(
      Mentions(AuditTableau(fy.system, fy.tableau), "shape mismatch"))
      << Joined(AuditTableau(fy.system, fy.tableau));

  // A run reaching past the cells the store has written.
  TableauFixture fz;
  fz.tableau.rows.row_len[0] = fz.tableau.rows.cells_used + 1;
  EXPECT_TRUE(
      Mentions(AuditTableau(fz.system, fz.tableau), "past the used prefix"))
      << Joined(AuditTableau(fz.system, fz.tableau));
}

// ------------------------------------------------------- AuditCompiledDtd.

TEST(AuditCompiledDtdTest, DigestIsDeterministic) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto a = CompileDtd(dtd);
  auto b = CompileDtd(dtd);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->audit_digest, 0u);
  EXPECT_EQ((*a)->audit_digest, (*b)->audit_digest);
  EXPECT_EQ(CompiledDtdDigest(**a), (*a)->audit_digest);
}

TEST(AuditCompiledDtdTest, CleanArtifactAuditsEmptyEvenAfterQueries) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_TRUE(AuditCompiledDtd(**compiled).empty())
      << Joined(AuditCompiledDtd(**compiled));

  // Sessions answer through the shared artifact without writing to it.
  SpecSession session(*compiled);
  auto verdict = session.Check(workloads::AllKeysSigma(dtd));
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(AuditCompiledDtd(**compiled).empty())
      << Joined(AuditCompiledDtd(**compiled));
}

TEST(AuditCompiledDtdTest, DetectsMutationOfTheSharedArtifact) {
  auto compiled = CompileDtd(workloads::CatalogDtd(2));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // The artifact is shared read-only; writing through it is exactly the bug
  // the auditor exists to catch, so the test commits it deliberately.
  CompiledDtd& artifact = const_cast<CompiledDtd&>(**compiled);

  artifact.facts.has_valid_tree = !artifact.facts.has_valid_tree;
  auto violations = AuditCompiledDtd(artifact);
  ASSERT_EQ(violations.size(), 1u) << Joined(violations);
  EXPECT_TRUE(Mentions(violations, "compiled-DTD digest changed"))
      << Joined(violations);
  artifact.facts.has_valid_tree = !artifact.facts.has_valid_tree;
  EXPECT_TRUE(AuditCompiledDtd(artifact).empty());

  // An unstamped artifact (digest 0) is skipped rather than reported.
  const uint64_t stamp = artifact.audit_digest;
  artifact.audit_digest = 0;
  EXPECT_TRUE(AuditCompiledDtd(artifact).empty());
  artifact.audit_digest = stamp ^ 1;  // A wrong stamp is a violation.
  EXPECT_FALSE(AuditCompiledDtd(artifact).empty());
  artifact.audit_digest = stamp;
  EXPECT_TRUE(AuditCompiledDtd(artifact).empty());
}

TEST(AuditCompiledDtdTest, DigestValuesArePinned) {
  // Every artifact stores its digest (audit_digest) and a deep verify
  // recomputes it, so the digest of a compiled bundle must never change
  // with how it is computed. Cell runs fold in as if rows were dense.
  struct Pinned {
    std::string name;
    Dtd dtd;
    uint64_t digest;
  };
  const std::vector<Pinned> cases = {
      {"catalog-8", workloads::CatalogDtd(8), 12762461058084202606ull},
      {"auction-4", workloads::AuctionDtd(4), 13321569864539030253ull},
      {"teacher", workloads::TeacherDtd(), 7066654727565621088ull},
      // No valid tree: an empty, invalid skeleton basis.
      {"infinite", workloads::InfiniteDtd(), 11602444076047820333ull},
      {"gadget-3x4",
       workloads::EncodeLipAsConsistency(
           workloads::RandomLip(/*seed=*/1, /*rows=*/3, /*cols=*/4,
                                /*ones_per_row=*/2))
           .dtd,
       14562259463608967463ull},
  };
  for (const Pinned& pinned : cases) {
    auto compiled = CompileDtd(pinned.dtd);
    ASSERT_TRUE(compiled.ok()) << pinned.name << ": " << compiled.status();
    EXPECT_EQ(CompiledDtdDigest(**compiled), pinned.digest) << pinned.name;
    EXPECT_EQ((*compiled)->audit_digest, pinned.digest) << pinned.name;
  }

  // Cells a well-formed row cannot hold fold in exactly as before too: an
  // out-of-order cell and one past the tableau width, written through the
  // shared artifact as DetectsMutationOfTheSharedArtifact does.
  auto compiled = CompileDtd(workloads::CatalogDtd(2));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  CompiledDtd& artifact = const_cast<CompiledDtd&>(**compiled);
  ASSERT_TRUE(artifact.skeleton_tableau_valid);
  LpTableau& tab = artifact.skeleton_tableau;
  size_t row = 0;
  while (row < tab.rows.size() &&
         !(tab.rows.RowSize(row) > 0 &&
           tab.rows.Col(row, tab.rows.RowSize(row) - 1) > 0)) {
    ++row;
  }
  ASSERT_LT(row, tab.rows.size());
  std::vector<std::pair<int, Num>> cells = RowCells(tab, row);
  const int width = static_cast<int>(tab.columns.size());
  cells.emplace_back(0, Num(3));           // Out of order.
  cells.emplace_back(width + 2, Num(-7));  // Past the width.
  RewriteRow(&tab, row, cells);
  EXPECT_EQ(CompiledDtdDigest(artifact), 16923468096605515630ull);
}

TEST(AuditCompiledDtdTest, SkeletonTableauSatisfiesTheTableauAuditor) {
  // The compiled skeleton basis is itself a retained tableau; the same
  // invariants the solver hooks check must hold for it.
  auto compiled = CompileDtd(workloads::CatalogDtd(2));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  if (!(*compiled)->skeleton_tableau_valid) {
    GTEST_SKIP() << "no skeleton tableau for this DTD";
  }
  auto violations = AuditTableau((*compiled)->skeleton.system,
                                 (*compiled)->skeleton_tableau);
  EXPECT_TRUE(violations.empty()) << Joined(violations);
}

// The audit hooks themselves: XICC_DCHECK_AUDIT must be compiled out of
// normal builds (this expression would abort under XICC_AUDIT if evaluated
// with a violation, and must not even evaluate its argument otherwise).
TEST(AuditHooksTest, DcheckAuditMatchesBuildMode) {
#if XICC_AUDIT_ENABLED
  LinearSystem clean;
  XICC_DCHECK_AUDIT(AuditTrail(clean));  // Empty violations: no abort.
  SUCCEED() << "XICC_AUDIT build: hooks are live";
#else
  bool evaluated = false;
  XICC_DCHECK_AUDIT([&evaluated]() -> std::vector<std::string> {
    evaluated = true;
    return {"must never run"};
  }());
  EXPECT_FALSE(evaluated) << "XICC_DCHECK_AUDIT evaluated its argument in a "
                             "non-audit build";
#endif
}

}  // namespace
}  // namespace xicc
