#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "base/deadline.h"
#include "base/num.h"
#include "ilp/linear_system.h"

namespace xicc {

/// A column of the simplex tableau, as seen by cut generation and the warm
/// re-solver: a cold solve exports the original (structural) variables
/// first, then one slack per inequality; a warm re-solve appends its slacks
/// and then any variables created since. Artificial columns are internal
/// and never escape the solver.
struct LpColumnInfo {
  enum class Kind { kStructural, kSlack };
  Kind kind;
  /// kStructural: the VarId. kSlack: the constraint index it belongs to.
  int index;
  /// kSlack only — how the slack substitutes back into structural terms:
  ///  -1:  s = rhs − expr  (≤-style slack)
  ///  +1:  s = expr − rhs  (≥-style surplus)
  /// An appended equality row is split into a ≤ and a ≥ half by the warm
  /// re-solver, so the constraint's RelOp alone no longer determines the
  /// sign; cut derivation must consult this field.
  int sub_sign = 0;
};

/// The rows of an LpTableau, in one flat cell store (DESIGN.md §12). Row i
/// is the run [row_start[i], row_start[i] + row_len[i]) of the parallel cell
/// arrays: `cell_col` lists the row's nonzero columns, strictly increasing
/// (a column that is not listed is zero, and no listed value is zero), and
/// `cell_num`/`cell_den` hold each value as canonical small-tier words. A
/// cell whose `cell_den` is 0 is big: its `cell_num` indexes `big`, which
/// holds only values that do not fit the small tier.
///
/// The warm kernel rewrites a row into a fresh run at the end of the store
/// and abandons the old one, so runs are disjoint but may leave dead cells
/// between them; Compact() drops those. The cell arrays' size() is their
/// capacity, and cells [0, cells_used) are the written prefix. A copy copies
/// that prefix into the destination's capacity, so a store that is copied
/// into again and again — a pooled search-node tableau, a session's warm
/// base — stops allocating once it has grown.
struct LpRowStore {
  LpRowStore() = default;
  LpRowStore(const LpRowStore& other) { *this = other; }
  LpRowStore(LpRowStore&& other) noexcept { swap(other); }
  LpRowStore& operator=(const LpRowStore& other);
  LpRowStore& operator=(LpRowStore&& other) noexcept {
    swap(other);
    return *this;
  }
  void swap(LpRowStore& other) noexcept;

  std::vector<size_t> row_start;
  std::vector<size_t> row_len;
  std::vector<int> cell_col;
  std::vector<internal::Word> cell_num;
  std::vector<internal::Word> cell_den;
  size_t cells_used = 0;
  std::vector<Num> big;
  /// Σ row_len, and how many of those cells are big.
  size_t live_cells = 0;
  size_t live_big = 0;

  size_t size() const { return row_start.size(); }
  size_t RowSize(size_t i) const { return row_len[i]; }
  /// Column and value of row i's k-th listed cell.
  int Col(size_t i, size_t k) const { return cell_col[row_start[i] + k]; }
  Num Value(size_t i, size_t k) const { return CellValue(row_start[i] + k); }
  /// The value of the cell at store position `s`.
  Num CellValue(size_t s) const {
    return cell_den[s] != 0 ? Num::FromCanonicalWords(cell_num[s], cell_den[s])
                            : big[static_cast<size_t>(cell_num[s])];
  }

  /// Drops every row and cell, keeping the capacity, and opens `rows` empty
  /// rows.
  void Reset(size_t rows);
  /// Appends empty rows up to `rows` in all.
  void Grow(size_t rows);
  /// Moves row i to a fresh, empty run at the end of the store; its old
  /// cells become dead.
  void BeginRow(size_t i);
  /// Appends a cell to row i, whose run must end the store (BeginRow).
  /// Nothing about the cell is checked: the auditor judges the rows.
  void AppendCell(size_t i, int col, const Num& value);
  /// Capacity for `extra` more cells past the written prefix. Pointers into
  /// the cell arrays do not survive it.
  void ReserveCells(size_t extra);
  /// True once dead cells, or dead big entries, outnumber the live ones.
  bool WantsCompaction() const {
    return cells_used - live_cells > live_cells ||
           big.size() - live_big > live_big;
  }
  /// Rewrites the live runs in row order at the start of the store and
  /// rebuilds `big` from the live big cells.
  void Compact();
};

/// The final basis rows, for Gomory cut derivation and warm re-solving.
/// Row i reads
///   x_{basis[i]} = rhs[i] - Σ_j a_ij·x_j   (j over all columns),
/// where a_ij is row i's cell at column j in `rows` and basic columns carry
/// coefficient 0 except their own unit entry.
///
/// Rows are sparse and live in one store (LpRowStore), so a copy costs a few
/// memcpys of O(rows + nnz) bytes rather than O(rows × columns) cells: the
/// encodings' tableaux are a few percent nonzero, and search nodes copy
/// their parent's tableau.
struct LpTableau {
  std::vector<LpColumnInfo> columns;
  /// basis[i] indexes into `columns`; -1 marks a (degenerate, zero-valued)
  /// artificial still in the basis — rows like that are unusable for cuts
  /// and poison warm re-solves (the artificial column is not exported).
  std::vector<int> basis;
  /// Per row, its nonzero cells over `columns`.
  LpRowStore rows;
  std::vector<Num> rhs;
  /// How many rows of the originating LinearSystem this tableau covers.
  /// A warm re-solve treats system rows past this index as appended.
  size_t num_constraints = 0;
};

/// A free list of tableaux for depth-first searches that copy a parent's
/// basis into every node. A node leases a tableau; the lease hands it back,
/// store and all, when the node exits, so the next node's copy reuses that
/// capacity instead of allocating. Not thread-safe: one pool per
/// search thread.
class LpTableauPool {
 public:
  class Lease {
   public:
    explicit Lease(LpTableauPool* pool);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    LpTableau* get() { return tab_.get(); }

   private:
    LpTableauPool* pool_;
    std::unique_ptr<LpTableau> tab_;
  };

 private:
  std::vector<std::unique_ptr<LpTableau>> free_;
};

/// Sparse-kernel instrumentation (see DESIGN.md §12): what one LP solve did,
/// or — summed with Add — what every LP solve of a search did.
struct LpKernelStats {
  /// Pivots priced by each rule. Warm (dual) re-solves are always Bland, so
  /// there dantzig_pivots stays 0; LpResult::pivots == dantzig_pivots +
  /// bland_pivots (drive-out pivots of degenerate artificials count as
  /// Bland — they use the same smallest-index selection).
  size_t dantzig_pivots = 0;
  size_t bland_pivots = 0;
  /// How many times a degeneracy streak forced the Dantzig→Bland fallback.
  size_t bland_fallbacks = 0;
  /// Cells that went zero→nonzero under pivot elimination — the sparsity
  /// the kernel loses as the solve progresses.
  size_t fill_in = 0;
  /// Nonzero / total coefficient cells of the initial tableau (constraint
  /// rows, rhs excluded): nnz_cells / total_cells is the density the
  /// benches report.
  size_t nnz_cells = 0;
  size_t total_cells = 0;
  /// Structure-of-arrays int64 fast lane: rows still on packed words at the
  /// end of the solve, and rows that overflowed into the exact Num lane.
  size_t fast_rows = 0;
  size_t fast_row_promotions = 0;

  void Add(const LpKernelStats& other) {
    dantzig_pivots += other.dantzig_pivots;
    bland_pivots += other.bland_pivots;
    bland_fallbacks += other.bland_fallbacks;
    fill_in += other.fill_in;
    nnz_cells += other.nnz_cells;
    total_cells += other.total_cells;
    fast_rows += other.fast_rows;
    fast_row_promotions += other.fast_row_promotions;
  }
};

/// Outcome of an LP-relaxation feasibility check.
struct LpResult {
  bool feasible = false;
  /// True when the solve was stopped by its StopSignal (deadline expiry or
  /// cancellation) before reaching a verdict. `feasible` is then
  /// meaningless and MUST NOT be read as "infeasible".
  bool aborted = false;
  /// Values for the system's original variables when feasible.
  std::vector<Num> values;
  /// Pivot count, for the solver statistics.
  size_t pivots = 0;
  LpKernelStats kernel;
  /// True when LpPricingConfig::pivot_cap stopped the solve (test harness
  /// only; `aborted` is set too, so no verdict was reached).
  bool pivot_cap_hit = false;
};

/// Tuning knobs of the cold solve's entering-variable pricing. Thread-local
/// (ScopedLpPricingConfig below) so tests can pin a rule without threading a
/// parameter through every caller; production code never touches it.
struct LpPricingConfig {
  /// Dantzig pricing (most negative reduced cost) with the degeneracy
  /// fallback below; false = pure Bland from the first pivot.
  bool dantzig = true;
  /// Consecutive degenerate pivots tolerated before falling back to Bland's
  /// rule (which cannot cycle). 0 disables the fallback — tests use that to
  /// demonstrate that pure Dantzig cycles on the regression fixture.
  size_t degenerate_streak_limit = 16;
  /// Hard pivot cap for tests hunting cycles; 0 = uncapped. Tripping it
  /// returns with `aborted` and `pivot_cap_hit` set.
  size_t pivot_cap = 0;
};

LpPricingConfig GetLpPricingConfig();
void SetLpPricingConfig(const LpPricingConfig& config);

/// RAII override of this thread's pricing config, for tests.
class ScopedLpPricingConfig {
 public:
  explicit ScopedLpPricingConfig(const LpPricingConfig& config)
      : saved_(GetLpPricingConfig()) {
    SetLpPricingConfig(config);
  }
  ~ScopedLpPricingConfig() { SetLpPricingConfig(saved_); }
  ScopedLpPricingConfig(const ScopedLpPricingConfig&) = delete;
  ScopedLpPricingConfig& operator=(const ScopedLpPricingConfig&) = delete;

 private:
  LpPricingConfig saved_;
};

/// Decides feasibility of the LP relaxation of `system` (variables rational,
/// ≥ 0) and returns a vertex solution.
///
/// Implementation: phase-1 simplex on exact rationals with Bland's rule.
/// Constraints become equalities via slack/surplus columns; where a slack
/// can seed the basis directly (≤ rows with nonnegative rhs) no artificial
/// is created. Feasible iff the artificial mass minimizes to 0.
///
/// When `tableau` is non-null and the LP is feasible, the final basis rows
/// are exported for Gomory cut generation and warm re-solving.
///
/// `stop` (optional) is polled every 64 pivots; an armed signal that fires
/// returns with `aborted` set and no verdict.
LpResult SolveLpFeasibility(const LinearSystem& system,
                            LpTableau* tableau = nullptr,
                            const StopSignal* stop = nullptr);

/// Why a warm re-solve could not be served from the given basis.
enum class WarmStatus {
  kOk,
  /// The parent basis cannot seed a re-solve: a degenerate artificial was
  /// still basic, or the system lost rows or variables the parent covers.
  kUnusableBasis,
  /// The anti-cycling backstop tripped; `lp.pivots` still reports the work
  /// spent so callers can account for it before falling back cold.
  kPivotLimit,
  /// The StopSignal fired mid-pivot (deadline or cancel). No verdict; the
  /// caller must NOT fall back to a cold solve — the point of stopping is
  /// to stop. In-place variant: the tableau is mid-pivot, as for
  /// kPivotLimit.
  kAborted,
};

struct WarmResult {
  WarmStatus status = WarmStatus::kUnusableBasis;
  /// Valid only when status == kOk; `lp.pivots` is filled in all cases.
  LpResult lp;
};

/// Dual-simplex warm re-solve — the incremental entry point of the ILP
/// substrate.
///
/// Precondition: `tableau` is the final exported tableau of a *feasible*
/// solve (cold or warm) of the first `tableau->num_constraints` rows of
/// `system`. Rows and variables may have been appended since: a variable
/// created after that solve becomes a structural column placed after the
/// new slack columns, nonbasic at zero — it is absent from every parent
/// row, which predates it. Each appended inequality becomes one new
/// slack-basic row; an appended equality is split into its ≤ and ≥ halves.
/// New rows are priced out against the parent basis and primal feasibility
/// is restored by dual simplex with Bland's rule (leaving row = infeasible
/// row with the smallest basic column, entering = smallest negative column),
/// pivoting from the parent's dual-feasible basis instead of re-running
/// phase-1 from scratch.
///
/// The appended rows and columns extend `tableau` without touching its
/// parent rows (a fresh column is absent, i.e. zero, in every sparse row),
/// and the pivots run directly on its rows, so a re-solve whose appended
/// rows need only a handful of pivots — the Σ-delta session profile — pays
/// no copy and costs O(nnz) per pivot. A tableau that took new variables
/// no longer has structural column j = variable j (the cold export's
/// layout): appended rows then map each VarId to its column, and values
/// are read through `columns`. On kOk with `lp.feasible`, `tableau` covers
/// all of `system`, variables included; an
/// infeasible verdict out of the dual loop is exact — the certificate row
/// has nonnegative coefficients and a negative rhs over nonnegative
/// variables. On kUnusableBasis the tableau is untouched, but on
/// kPivotLimit, kAborted and an infeasible kOk it is left mid-pivot and MUST
/// be discarded or rebuilt; a caller that keeps its basis across failed
/// re-solves (e.g. the presolve forced-row extension) re-solves a copy. On
/// kUnusableBasis/kPivotLimit the caller falls back to SolveLpFeasibility;
/// verdicts are identical either way, warm start only changes who does the
/// pivoting.
WarmResult ReSolveLpFeasibilityDualInPlace(const LinearSystem& system,
                                           LpTableau* tableau,
                                           const StopSignal* stop = nullptr);

}  // namespace xicc
