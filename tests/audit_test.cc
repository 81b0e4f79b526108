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

/// The stored cell of `row` at `col`, or null when the column is absent.
Num* CellAt(LpRow* row, int col) {
  for (size_t k = 0; k < row->size(); ++k) {
    if (row->cols[k] == col) return &row->vals[k];
  }
  return nullptr;
}

/// Stores a cell at `col`, keeping the columns sorted, so the only thing
/// wrong with the row afterwards is the value itself.
void InsertCell(LpRow* row, int col, const Num& value) {
  auto it = std::lower_bound(row->cols.begin(), row->cols.end(), col);
  const auto k = it - row->cols.begin();
  row->cols.insert(it, col);
  row->vals.insert(row->vals.begin() + k, value);
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
  Num* own = CellAt(&fx.tableau.rows[row], col);
  ASSERT_NE(own, nullptr);
  *own = Num(2);
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "not unit in its own row"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  // Dropping the own-row cell makes it zero, which is not unit either.
  TableauFixture fw;
  LpRow& cells = fw.tableau.rows[fw.BasicRow()];
  const int basic = fw.tableau.basis[fw.BasicRow()];
  const auto k = std::find(cells.cols.begin(), cells.cols.end(), basic) -
                 cells.cols.begin();
  ASSERT_LT(static_cast<size_t>(k), cells.size());
  cells.cols.erase(cells.cols.begin() + k);
  cells.vals.erase(cells.vals.begin() + k);
  EXPECT_TRUE(Mentions(AuditTableau(fw.system, fw.tableau),
                       "not unit in its own row"))
      << Joined(AuditTableau(fw.system, fw.tableau));

  // And a stray entry for the basic column outside its own row.
  TableauFixture fy;
  const size_t other = (fy.BasicRow() + 1) % fy.tableau.rows.size();
  ASSERT_NE(other, fy.BasicRow());
  InsertCell(&fy.tableau.rows[other], fy.tableau.basis[fy.BasicRow()],
             Num(1));
  EXPECT_TRUE(Mentions(AuditTableau(fy.system, fy.tableau),
                       "nonzero entry outside its row"))
      << Joined(AuditTableau(fy.system, fy.tableau));
}

TEST(AuditTableauTest, RejectsMalformedSparseRows) {
  // A row with two stored cells, for the layout corruptions.
  auto wide_row = [](TableauFixture* f) -> LpRow* {
    for (LpRow& row : f->tableau.rows) {
      if (row.size() >= 2) return &row;
    }
    ADD_FAILURE() << "no row with two stored cells in the fixture tableau";
    return &f->tableau.rows[0];
  };

  TableauFixture fx;
  LpRow* row = wide_row(&fx);
  std::swap(row->cols[0], row->cols[1]);
  std::swap(row->vals[0], row->vals[1]);
  EXPECT_TRUE(Mentions(AuditTableau(fx.system, fx.tableau),
                       "not strictly increasing"))
      << Joined(AuditTableau(fx.system, fx.tableau));

  TableauFixture fy;
  row = wide_row(&fy);
  row->cols[1] = row->cols[0];  // The same column listed twice.
  EXPECT_TRUE(Mentions(AuditTableau(fy.system, fy.tableau),
                       "not strictly increasing"))
      << Joined(AuditTableau(fy.system, fy.tableau));

  TableauFixture fz;
  const int width = static_cast<int>(fz.tableau.columns.size());
  fz.tableau.rows[0].Append(width, Num(3));
  EXPECT_TRUE(Mentions(AuditTableau(fz.system, fz.tableau),
                       "outside width"))
      << Joined(AuditTableau(fz.system, fz.tableau));

  TableauFixture fw;
  row = wide_row(&fw);
  row->vals[0] = Num(0);
  EXPECT_TRUE(Mentions(AuditTableau(fw.system, fw.tableau), "stored zero"))
      << Joined(AuditTableau(fw.system, fw.tableau));
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

  TableauFixture fz;
  ASSERT_GE(fz.tableau.rows[0].size(), 1u);
  fz.tableau.rows[0].vals.pop_back();
  EXPECT_TRUE(Mentions(AuditTableau(fz.system, fz.tableau), "columns for"))
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
  auto& rows = artifact.skeleton_tableau.rows;
  auto it = std::find_if(rows.begin(), rows.end(), [](const LpRow& row) {
    return row.size() > 0 && row.cols.back() > 0;
  });
  ASSERT_NE(it, rows.end());
  LpRow& row = *it;
  const int width = static_cast<int>(artifact.skeleton_tableau.columns.size());
  row.cols.push_back(0);  // Out of order.
  row.vals.push_back(Num(3));
  row.cols.push_back(width + 2);  // Past the width.
  row.vals.push_back(Num(-7));
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
