// Sparse pricing-driven kernel (DESIGN.md §12): the anti-cycling contract
// of the Dantzig→Bland degeneracy fallback, randomized differential parity
// against the dense-Bland reference solver (cold solves, and chains of warm
// re-solves), and the kernel's instrumentation counters.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "base/num.h"
#include "dense_simplex.h"
#include "ilp/audit.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"

namespace xicc {
namespace {

// ------------------------------------------------------- Anti-cycling.

/// The Beale/Chvátal cycling LP (Chvátal, "Linear Programming", ch. 3)
/// mapped into phase-1 form. Rows are scaled ×2 to integer coefficients,
/// x4/x5 play the example's slack columns as structural variables, and the
/// last row is a driver whose coefficients make the artificial column sums
/// — and therefore the initial phase-1 reduced-cost row — equal the
/// example's objective. Every rhs is 0, so every pivot is degenerate and
/// Dantzig pricing with the example's tie-breaks revisits the same basis
/// forever; Bland's rule walks out in a handful of pivots.
LinearSystem CyclingFixture() {
  LinearSystem sys;
  for (int i = 0; i < 6; ++i) sys.AddVariable("x" + std::to_string(i));
  auto add_row = [&sys](std::initializer_list<int> coeffs) {
    LinearExpr expr;
    int var = 0;
    for (int c : coeffs) {
      if (c != 0) expr.Add(var, BigInt(c));
      ++var;
    }
    sys.AddConstraint(expr, RelOp::kEq, BigInt(0));
  };
  add_row({1, -11, -5, 18, 2, 0});
  add_row({1, -3, -1, 2, 0, 2});
  add_row({8, -43, -3, -44, -2, -2});
  return sys;
}

TEST(AntiCyclingTest, PureDantzigCyclesOnTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpPricingConfig pure;
  pure.dantzig = true;
  pure.degenerate_streak_limit = 0;  // Fallback disabled.
  pure.pivot_cap = 1000;
  ScopedLpPricingConfig guard(pure);
  LpResult lp = SolveLpFeasibility(sys);
  // Without the fallback the solve spins on degenerate pivots until the cap
  // trips — the failure mode the fallback exists to rule out.
  EXPECT_TRUE(lp.pivot_cap_hit);
  EXPECT_TRUE(lp.aborted);
  EXPECT_EQ(lp.pivots, 1000u);
  EXPECT_EQ(lp.kernel.bland_fallbacks, 0u);
}

TEST(AntiCyclingTest, DegeneracyFallbackTerminatesTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpResult lp = SolveLpFeasibility(sys);  // Default pricing config.
  ASSERT_FALSE(lp.aborted);
  EXPECT_TRUE(lp.feasible);  // x = 0 satisfies every row.
  // The degeneracy streak must actually have fired the fallback, and the
  // fallback's Bland pivots finished the solve.
  EXPECT_GE(lp.kernel.bland_fallbacks, 1u);
  EXPECT_GE(lp.kernel.bland_pivots, 1u);
  EXPECT_EQ(lp.pivots, lp.kernel.dantzig_pivots + lp.kernel.bland_pivots);
}

TEST(AntiCyclingTest, BlandOnlyConfigTerminatesTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpPricingConfig bland;
  bland.dantzig = false;
  ScopedLpPricingConfig guard(bland);
  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_FALSE(lp.aborted);
  EXPECT_TRUE(lp.feasible);
  EXPECT_EQ(lp.kernel.dantzig_pivots, 0u);
  EXPECT_EQ(lp.pivots, lp.kernel.bland_pivots);
}

TEST(AntiCyclingTest, DenseReferenceAgreesOnTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpResult dense = SolveLpFeasibilityDenseBland(sys);
  ASSERT_FALSE(dense.aborted);
  EXPECT_TRUE(dense.feasible);
}

// ------------------------------------------------- Differential fuzz.

/// True iff `values` (one Num per structural variable, all expected ≥ 0)
/// satisfies every constraint of `sys` exactly.
bool SatisfiesSystem(const LinearSystem& sys, const std::vector<Num>& values) {
  for (const Num& v : values) {
    if (v.sign() < 0) return false;
  }
  for (const LinearConstraint& c : sys.constraints()) {
    Num lhs;
    for (const auto& [var, coeff] : c.coeffs) {
      lhs += coeff * values[static_cast<size_t>(var)];
    }
    const Num& rhs = c.rhs;
    switch (c.op) {
      case RelOp::kLe:
        if (!(lhs <= rhs)) return false;
        break;
      case RelOp::kGe:
        if (!(lhs >= rhs)) return false;
        break;
      case RelOp::kEq:
        if (!(lhs == rhs)) return false;
        break;
    }
  }
  return true;
}

TEST(SimplexDifferentialTest, SparseKernelMatchesDenseBlandOnRandomSystems) {
  std::mt19937_64 rng(0x51CC);
  std::uniform_int_distribution<int> nvars(1, 4);
  std::uniform_int_distribution<int> nrows(1, 4);
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> rhs_val(-6, 6);
  std::uniform_int_distribution<int> op_kind(0, 2);

  size_t feasible = 0, infeasible = 0;
  constexpr int kTrials = 10000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int nv = nvars(rng);
    const int nr = nrows(rng);
    LinearSystem sys;
    for (int v = 0; v < nv; ++v) sys.AddVariable("x" + std::to_string(v));
    for (int r = 0; r < nr; ++r) {
      LinearExpr expr;
      for (int v = 0; v < nv; ++v) {
        const int c = coef(rng);
        if (c != 0) expr.Add(v, BigInt(c));
      }
      const int k = op_kind(rng);
      const RelOp op =
          k == 0 ? RelOp::kLe : (k == 1 ? RelOp::kGe : RelOp::kEq);
      sys.AddConstraint(expr, op, BigInt(rhs_val(rng)));
    }

    LpResult sparse = SolveLpFeasibility(sys);
    LpResult dense = SolveLpFeasibilityDenseBland(sys);
    ASSERT_FALSE(sparse.aborted) << "trial " << trial;
    ASSERT_FALSE(dense.aborted) << "trial " << trial;
    ASSERT_EQ(sparse.feasible, dense.feasible)
        << "verdict divergence at trial " << trial << ":\n"
        << sys.ToString();
    if (sparse.feasible) {
      ++feasible;
      ASSERT_TRUE(SatisfiesSystem(sys, sparse.values))
          << "sparse vertex violates the system at trial " << trial << ":\n"
          << sys.ToString();
      ASSERT_TRUE(SatisfiesSystem(sys, dense.values))
          << "dense vertex violates the system at trial " << trial << ":\n"
          << sys.ToString();
    } else {
      ++infeasible;
    }
    // The split instrumentation must always reconcile with the total.
    ASSERT_EQ(sparse.pivots,
              sparse.kernel.dantzig_pivots + sparse.kernel.bland_pivots)
        << "trial " << trial;
  }
  // Both verdicts must actually be exercised, or the generator is broken.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

// ------------------------------------------ Chained warm re-solves.

struct ChainTally {
  size_t warm_feasible = 0;
  size_t warm_infeasible = 0;
};

/// Appends one random row over the existing variables: ≤, ≥ or =.
void AppendRandomRow(LinearSystem* sys, std::mt19937_64* rng) {
  std::uniform_int_distribution<int> coef(-3, 3);
  std::uniform_int_distribution<int> rhs_val(-4, 8);
  std::uniform_int_distribution<int> op_kind(0, 2);
  LinearExpr expr;
  for (size_t v = 0; v < sys->NumVariables(); ++v) {
    const int c = coef(*rng);
    if (c != 0) expr.Add(static_cast<VarId>(v), BigInt(c));
  }
  const int k = op_kind(*rng);
  const RelOp op = k == 0 ? RelOp::kLe : (k == 1 ? RelOp::kGe : RelOp::kEq);
  sys->AddConstraint(expr, op, BigInt(rhs_val(*rng)));
}

/// Two children per node, each appending one or two rows and re-solving
/// warm in place on its own copy of `parent` — the shape of branch-and-bound
/// and of the case split, where siblings start from the same parent basis.
/// Every step is checked against the cold sparse and dense solves of the
/// same rows; feasible children recurse from their warm (or, when the warm
/// basis was unusable, their cold) tableau.
void ExploreChain(LinearSystem* sys, const LpTableau& parent, int depth,
                  std::mt19937_64* rng, ChainTally* tally) {
  if (depth == 0) return;
  std::uniform_int_distribution<int> extra_rows(1, 2);
  for (int sibling = 0; sibling < 2; ++sibling) {
    TrailScope scope(sys);
    const int rows = extra_rows(*rng);
    for (int r = 0; r < rows; ++r) AppendRandomRow(sys, rng);

    LpTableau tab = parent;
    WarmResult warm = ReSolveLpFeasibilityDualInPlace(*sys, &tab);
    LpResult cold = SolveLpFeasibility(*sys);
    LpResult dense = SolveLpFeasibilityDenseBland(*sys);
    ASSERT_FALSE(cold.aborted);
    ASSERT_FALSE(dense.aborted);
    ASSERT_EQ(cold.feasible, dense.feasible) << sys->ToString();
    if (warm.status == WarmStatus::kOk) {
      ASSERT_EQ(warm.lp.feasible, cold.feasible)
          << "warm verdict diverges at depth " << depth << ":\n"
          << sys->ToString();
      if (!warm.lp.feasible) {
        ++tally->warm_infeasible;
        continue;
      }
      ++tally->warm_feasible;
      const std::vector<std::string> violations = AuditTableau(*sys, tab);
      ASSERT_TRUE(violations.empty())
          << violations.front() << "\n" << sys->ToString();
      ASSERT_TRUE(SatisfiesSystem(*sys, warm.lp.values))
          << "warm vertex violates the system:\n" << sys->ToString();
    } else {
      // An unusable basis or the pivot cap sends the callers to a cold
      // re-solve, and the chain follows them.
      ASSERT_NE(warm.status, WarmStatus::kAborted);
      if (!cold.feasible) continue;
      ASSERT_TRUE(SolveLpFeasibility(*sys, &tab).feasible);
    }
    ExploreChain(sys, tab, depth - 1, rng, tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(WarmChainDifferentialTest, ChainedReSolvesMatchColdAndDenseSolves) {
  std::mt19937_64 rng(0xC4A15);
  std::uniform_int_distribution<int> nvars(2, 5);
  std::uniform_int_distribution<int> nrows(1, 4);
  ChainTally tally;
  size_t roots = 0;
  for (int trial = 0; trial < 600; ++trial) {
    LinearSystem sys;
    const int nv = nvars(rng);
    for (int v = 0; v < nv; ++v) sys.AddVariable("x" + std::to_string(v));
    const int nr = nrows(rng);
    for (int r = 0; r < nr; ++r) AppendRandomRow(&sys, &rng);
    LpTableau root;
    if (!SolveLpFeasibility(sys, &root).feasible) continue;
    ++roots;
    ExploreChain(&sys, root, /*depth=*/3, &rng, &tally);
    ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
  }
  // Every branch of the comparison must actually be exercised.
  EXPECT_GT(roots, 100u);
  EXPECT_GT(tally.warm_feasible, 100u);
  EXPECT_GT(tally.warm_infeasible, 100u);
}

// ------------------------------------- Warm re-solves over new variables.

/// Re-solves `sys` warm from a copy of `parent` and checks the outcome
/// against the cold sparse and dense solves of the whole system: same
/// verdict, and when feasible a clean tableau whose values satisfy every
/// row. Returns the re-solved tableau through `out` when feasible.
void ExpectWarmMatchesCold(const LinearSystem& sys, const LpTableau& parent,
                           ChainTally* tally, LpTableau* out,
                           bool* feasible) {
  *out = parent;
  WarmResult warm = ReSolveLpFeasibilityDualInPlace(sys, out);
  LpResult cold = SolveLpFeasibility(sys);
  LpResult dense = SolveLpFeasibilityDenseBland(sys);
  ASSERT_FALSE(cold.aborted);
  ASSERT_FALSE(dense.aborted);
  ASSERT_EQ(cold.feasible, dense.feasible) << sys.ToString();
  ASSERT_EQ(warm.status, WarmStatus::kOk) << sys.ToString();
  ASSERT_EQ(warm.lp.feasible, cold.feasible)
      << "warm verdict diverges:\n" << sys.ToString();
  *feasible = warm.lp.feasible;
  if (!warm.lp.feasible) {
    ++tally->warm_infeasible;
    return;
  }
  ++tally->warm_feasible;
  ASSERT_EQ(warm.lp.values.size(), sys.NumVariables());
  const std::vector<std::string> violations = AuditTableau(sys, *out);
  ASSERT_TRUE(violations.empty())
      << violations.front() << "\n" << sys.ToString();
  ASSERT_TRUE(SatisfiesSystem(sys, warm.lp.values))
      << "warm vertex violates the system:\n" << sys.ToString();
}

TEST(WarmChainDifferentialTest, AppendedVariablesMatchColdAndDenseSolves) {
  // The Σ-delta region solve's shape: a cold-solved prefix, then new
  // variables together with rows over old and new ones, re-solved warm; then
  // a child (a branch row, sometimes one more variable) re-solved warm from
  // the extended tableau, whose structural columns are no longer variable j
  // at column j.
  std::mt19937_64 rng(0xADD5);
  std::uniform_int_distribution<int> nvars(2, 5);
  std::uniform_int_distribution<int> nrows(1, 4);
  std::uniform_int_distribution<int> new_vars(1, 3);
  std::uniform_int_distribution<int> new_rows(1, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  ChainTally parents;
  ChainTally children;
  size_t roots = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    LinearSystem sys;
    const int nv = nvars(rng);
    for (int v = 0; v < nv; ++v) sys.AddVariable("x" + std::to_string(v));
    const int nr = nrows(rng);
    for (int r = 0; r < nr; ++r) AppendRandomRow(&sys, &rng);
    LpTableau root;
    if (!SolveLpFeasibility(sys, &root).feasible) continue;
    // A degenerate artificial left basic makes any basis unusable; that
    // case has its own cold fallback and is not what this test is about.
    bool artificial_free = true;
    for (int b : root.basis) artificial_free = artificial_free && b >= 0;
    if (!artificial_free) continue;
    ++roots;

    TrailScope scope(&sys);
    const int added = new_vars(rng);
    for (int v = 0; v < added; ++v) {
      sys.AddVariable("z" + std::to_string(v));
    }
    const int rows = new_rows(rng);
    for (int r = 0; r < rows; ++r) AppendRandomRow(&sys, &rng);
    LpTableau extended;
    bool feasible = false;
    ExpectWarmMatchesCold(sys, root, &parents, &extended, &feasible);
    ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
    if (!feasible) continue;
    // One slack per appended inequality, two per equality, then the new
    // variables, last, in VarId order.
    size_t slacks = 0;
    for (size_t k = root.num_constraints; k < sys.NumConstraints(); ++k) {
      slacks += sys.constraints()[k].op == RelOp::kEq ? 2 : 1;
    }
    ASSERT_EQ(extended.columns.size(),
              root.columns.size() + slacks + static_cast<size_t>(added));
    const LpColumnInfo& last = extended.columns.back();
    EXPECT_EQ(last.kind, LpColumnInfo::Kind::kStructural);
    EXPECT_EQ(static_cast<size_t>(last.index), sys.NumVariables() - 1);

    TrailScope child_scope(&sys);
    if (coin(rng) == 1) sys.AddVariable("w");
    AppendRandomRow(&sys, &rng);
    LpTableau child;
    ExpectWarmMatchesCold(sys, extended, &children, &child, &feasible);
    ASSERT_FALSE(HasFatalFailure()) << "trial " << trial << " (child)";
  }
  EXPECT_GT(roots, 300u);
  EXPECT_GT(parents.warm_feasible, 100u);
  EXPECT_GT(parents.warm_infeasible, 100u);
  EXPECT_GT(children.warm_feasible, 50u);
  EXPECT_GT(children.warm_infeasible, 50u);
}

// ------------------------------------------- Big cells in the row store.

/// Checks a warm re-solve of `sys` against the dense oracle: kOk, the
/// oracle's verdict, and when feasible a clean tableau whose values satisfy
/// every row exactly.
void ExpectWarmMatchesDense(const LinearSystem& sys, const LpTableau& tab,
                            const WarmResult& warm) {
  const LpResult dense = SolveLpFeasibilityDenseBland(sys);
  ASSERT_EQ(warm.status, WarmStatus::kOk) << sys.ToString();
  ASSERT_EQ(warm.lp.feasible, dense.feasible) << sys.ToString();
  if (!warm.lp.feasible) return;
  const std::vector<std::string> violations = AuditTableau(sys, tab);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_TRUE(SatisfiesSystem(sys, warm.lp.values)) << sys.ToString();
}

/// The value of row `row`'s cell at `col`, zero when it is not listed.
Num CellAt(const LpTableau& tab, size_t row, int col) {
  for (size_t k = 0; k < tab.rows.RowSize(row); ++k) {
    if (tab.rows.Col(row, k) == col) return tab.rows.Value(row, k);
  }
  return Num();
}

/// Every (column, value) of every row, for comparing two stores cell by
/// cell whatever their layout.
std::vector<std::vector<std::pair<int, Num>>> AllCells(const LpTableau& tab) {
  std::vector<std::vector<std::pair<int, Num>>> out(tab.rows.size());
  for (size_t i = 0; i < tab.rows.size(); ++i) {
    for (size_t k = 0; k < tab.rows.RowSize(i); ++k) {
      out[i].emplace_back(tab.rows.Col(i, k), tab.rows.Value(i, k));
    }
  }
  return out;
}

/// Row 0: H·x0 + x1 + H·x2 ≤ 4H, solved cold (its slack basic). Appending
/// x0 − H·x2 ≥ 1 makes the dual pivot on x0 eliminate it from row 0 with
/// factor H: x0 cancels on the words, then H − H·(−H) leaves the word lane
/// mid-row (H² > 2⁶³), and the slack cells after it stay small.
struct MergeOverflowFixture {
  const BigInt h = BigInt::Pow(BigInt(2), 40);
  LinearSystem sys;
  LpTableau tab;
  WarmResult warm;

  MergeOverflowFixture() {
    const VarId x0 = sys.AddVariable("x0");
    const VarId x1 = sys.AddVariable("x1");
    const VarId x2 = sys.AddVariable("x2");
    LinearExpr budget;
    budget.Add(x0, Num(h)).Add(x1, Num(1)).Add(x2, Num(h));
    sys.AddConstraint(budget, RelOp::kLe, h * BigInt(4));
    EXPECT_TRUE(SolveLpFeasibility(sys, &tab).feasible);
    LinearExpr floor;
    floor.Add(x0, Num(1)).Add(x2, Num(-h));
    sys.AddConstraint(floor, RelOp::kGe, BigInt(1));
    warm = ReSolveLpFeasibilityDualInPlace(sys, &tab);
  }
};

TEST(RowStoreBigCellTest, MergeOverflowsTheWordLaneMidRow) {
  const uint64_t promotions = ThisThreadNumCounters().promotions;
  MergeOverflowFixture fx;
  ASSERT_NO_FATAL_FAILURE(ExpectWarmMatchesDense(fx.sys, fx.tab, fx.warm));
  ASSERT_TRUE(fx.warm.lp.feasible);
  EXPECT_EQ(fx.warm.lp.pivots, 1u);
  EXPECT_GT(ThisThreadNumCounters().promotions, promotions);
  // Row 0 holds H + H² at x2 as a big cell, the cells around it on words.
  EXPECT_EQ(fx.tab.rows.live_big, 1u);
  EXPECT_EQ(CellAt(fx.tab, 0, 2), Num(fx.h + fx.h * fx.h));
  EXPECT_EQ(CellAt(fx.tab, 0, 1), Num(1));
  EXPECT_EQ(CellAt(fx.tab, 0, 0), Num());
  EXPECT_EQ(fx.tab.rhs[0], Num(fx.h * BigInt(3)));
  EXPECT_EQ(fx.warm.lp.values[0], Num(1));
}

TEST(RowStoreBigCellTest, PivotRowScaleOverflowsMidRow) {
  // 2⁶²·x0 + x1 = 2⁶² solves cold to x0 + x1/2⁶² = 1. Appending
  // 2·x0 + 8·x2 ≤ 1 prices out to −x1/2⁶¹ + 8·x2 + s = −1, and the dual
  // pivot on x1 scales that row by −2⁶¹: x1 stays on words, 8 → −2⁶⁴ leaves
  // them, and the slack after it comes back to words as −2⁶¹.
  const BigInt q = BigInt::Pow(BigInt(2), 62);
  LinearSystem sys;
  const VarId x0 = sys.AddVariable("x0");
  const VarId x1 = sys.AddVariable("x1");
  const VarId x2 = sys.AddVariable("x2");
  LinearExpr pinned;
  pinned.Add(x0, Num(q)).Add(x1, Num(1));
  sys.AddConstraint(pinned, RelOp::kEq, q);
  LpTableau tab;
  ASSERT_TRUE(SolveLpFeasibility(sys, &tab).feasible);
  ASSERT_EQ(tab.basis[0], 0);
  LinearExpr cap;
  cap.Add(x0, Num(2)).Add(x2, Num(8));
  sys.AddConstraint(cap, RelOp::kLe, BigInt(1));
  const uint64_t promotions = ThisThreadNumCounters().promotions;
  const WarmResult warm = ReSolveLpFeasibilityDualInPlace(sys, &tab);
  ASSERT_NO_FATAL_FAILURE(ExpectWarmMatchesDense(sys, tab, warm));
  ASSERT_TRUE(warm.lp.feasible);
  EXPECT_EQ(warm.lp.pivots, 1u);
  EXPECT_GT(ThisThreadNumCounters().promotions, promotions);
  EXPECT_EQ(tab.rows.live_big, 1u);
  EXPECT_EQ(CellAt(tab, 1, 1), Num(1));
  EXPECT_EQ(CellAt(tab, 1, 2), -Num(BigInt::Pow(BigInt(2), 64)));
  EXPECT_EQ(CellAt(tab, 1, 3), -Num(BigInt::Pow(BigInt(2), 61)));
  // Eliminating x1 from row 0 multiplies the big cell back onto words.
  EXPECT_EQ(CellAt(tab, 0, 2), Num(4));
  EXPECT_EQ(warm.lp.values[0], Num(BigInt(1), BigInt(2)));
  EXPECT_EQ(warm.lp.values[1], Num(BigInt::Pow(BigInt(2), 61)));
}

TEST(RowStoreBigCellTest, CompactionCarriesBigCells) {
  MergeOverflowFixture fx;
  ASSERT_TRUE(fx.warm.lp.feasible);
  LpRowStore& store = fx.tab.rows;
  // The pivot rewrote row 0 into a fresh run, leaving its old one dead.
  ASSERT_GT(store.cells_used, store.live_cells);
  const auto before = AllCells(fx.tab);
  store.Compact();
  EXPECT_EQ(AllCells(fx.tab), before);
  EXPECT_EQ(store.cells_used, store.live_cells);
  EXPECT_EQ(store.big.size(), store.live_big);
  EXPECT_EQ(store.live_big, 1u);
  EXPECT_TRUE(AuditTableau(fx.sys, fx.tab).empty())
      << AuditTableau(fx.sys, fx.tab).front();

  // A dead big entry asks for compaction even when dead cells are few:
  // rewriting the big cell as a small one strands its entry.
  std::vector<std::pair<int, Num>> cells = AllCells(fx.tab)[0];
  for (auto& [col, value] : cells) {
    if (!value.is_small()) value = Num(7);
  }
  store.BeginRow(0);
  for (const auto& [col, value] : cells) store.AppendCell(0, col, value);
  EXPECT_LE(store.cells_used - store.live_cells, store.live_cells);
  EXPECT_TRUE(store.WantsCompaction());
  store.Compact();
  EXPECT_TRUE(store.big.empty());
  EXPECT_FALSE(store.WantsCompaction());
  EXPECT_TRUE(AuditTableauRows(fx.tab).empty())
      << AuditTableauRows(fx.tab).front();
}

TEST(RowStoreBigCellTest, CopiedTableauWithBigCellsReSolves) {
  MergeOverflowFixture fx;
  ASSERT_TRUE(fx.warm.lp.feasible);
  const auto parent_cells = AllCells(fx.tab);
  // A pooled destination that already owns capacity, and a fresh copy.
  LpTableau pooled;
  ASSERT_TRUE(SolveLpFeasibility(fx.sys, &pooled).feasible);
  pooled = fx.tab;
  LpTableau fresh(fx.tab);
  for (LpTableau* child : {&pooled, &fresh}) {
    TrailScope scope(&fx.sys);
    // x1 + x2 ≥ 1 pivots on x1, and eliminating x1 from row 0 updates the
    // copied big cell there on the exact route.
    LinearExpr either;
    either.Add(1, Num(1)).Add(2, Num(1));
    fx.sys.AddConstraint(either, RelOp::kGe, BigInt(1));
    const WarmResult warm = ReSolveLpFeasibilityDualInPlace(fx.sys, child);
    ASSERT_NO_FATAL_FAILURE(ExpectWarmMatchesDense(fx.sys, *child, warm));
    ASSERT_TRUE(warm.lp.feasible);
    EXPECT_EQ(warm.lp.values[1], Num(1));
    EXPECT_EQ(CellAt(*child, 0, 2), Num(fx.h + fx.h * fx.h - BigInt(1)));
  }
  // The children pivoted their own copies: the parent's cells are intact.
  EXPECT_EQ(AllCells(fx.tab), parent_cells);
  EXPECT_TRUE(AuditTableau(fx.sys, fx.tab).empty());
}

// ------------------------------------------------------ Instrumentation.

TEST(SparseKernelStatsTest, DensityCountersMatchTheSystem) {
  // x0 + x1 <= 5 and x0 - x2 >= 1: the ≥ row needs an artificial; the
  // initial constraint block is 2 rows × (3 structural + 2 slack + 1
  // artificial) = 12 cells, of which the nonzeros are 2 structural + 1
  // slack in row 0 and 2 structural + 1 slack + 1 artificial in row 1.
  LinearSystem sys;
  VarId x0 = sys.AddVariable("x0");
  VarId x1 = sys.AddVariable("x1");
  sys.AddVariable("x2");
  LinearExpr a;
  a.Add(x0, BigInt(1)).Add(x1, BigInt(1));
  sys.AddConstraint(a, RelOp::kLe, BigInt(5));
  LinearExpr b;
  b.Add(x0, BigInt(1)).Add(2, BigInt(-1));
  sys.AddConstraint(b, RelOp::kGe, BigInt(1));

  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.kernel.total_cells, 12u);
  EXPECT_EQ(lp.kernel.nnz_cells, 7u);
  EXPECT_EQ(sys.NumNonzeros(), 4u);
  // These tiny coefficients never leave the int64 fast lane.
  EXPECT_EQ(lp.kernel.fast_row_promotions, 0u);
  EXPECT_GT(lp.kernel.fast_rows, 0u);
}

TEST(SparseKernelStatsTest, ScopedPricingConfigRestores) {
  const LpPricingConfig before = GetLpPricingConfig();
  {
    LpPricingConfig override_config;
    override_config.dantzig = false;
    override_config.pivot_cap = 7;
    ScopedLpPricingConfig guard(override_config);
    EXPECT_FALSE(GetLpPricingConfig().dantzig);
    EXPECT_EQ(GetLpPricingConfig().pivot_cap, 7u);
  }
  EXPECT_EQ(GetLpPricingConfig().dantzig, before.dantzig);
  EXPECT_EQ(GetLpPricingConfig().pivot_cap, before.pivot_cap);
}

}  // namespace
}  // namespace xicc
