#include "ilp/simplex.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "base/debug.h"
#include "base/faults.h"
#include "ilp/audit.h"

namespace xicc {

namespace {

using internal::Word;

thread_local LpPricingConfig g_lp_pricing_config;

/// The per-thread scratch of both LP kernels, kept across calls so it stops
/// allocating once grown. Neither kernel calls the other, so one struct
/// serves both: the cold solve's word grids and the warm re-solve's buffers.
struct LpScratch {
  /// SparseKernel's fast lane: numerators and denominators, row-major over
  /// (constraints + 1) × (columns + 1) cells, refilled by every cold solve.
  std::vector<Word> nums;
  std::vector<Word> dens;
  /// Compaction's target store, swapped with the store it compacts, so cell
  /// buffers circulate between tableaux and this scratch.
  LpRowStore compacted;
  /// Price-out: the parent row each column is basic in (-1: nonbasic), and
  /// the parent rows one appended row must be eliminated against.
  std::vector<int> basic_row;
  std::vector<int> pending;
  /// VarId → column, for a parent whose structural columns are not the
  /// first ones in VarId order (one that took new variables itself).
  std::vector<int> var_col;
};
thread_local LpScratch g_lp_scratch;

// ---------------------------------------------------------------------------
// Sparse pricing-driven kernel (SolveLpFeasibility).
// ---------------------------------------------------------------------------

/// Sparse phase-1 working state. Rows 0..m-1 are constraints and row m is
/// the phase-1 objective (reduced costs); columns 0..total-1 are variables
/// (structural, then slack, then artificial) and column `total` = cols-1 is
/// the rhs. Two features make a pivot cost O(nnz) instead of O(m·n):
///
///  - Each row carries a sorted packed list of its nonzero columns (the rhs
///    cell is tracked outside the supports). Pivot row-updates and entering
///    selection walk supports; elimination merges the pivot row's support
///    into the target's incrementally, counting fill-in.
///
///  - Two arithmetic lanes per row. The fast lane (default) keeps canonical
///    small-tier word pairs in structure-of-arrays numerator/denominator
///    arrays and runs the exact SmallAdd/SmallMul primitives Num's small
///    tier uses, so a fast cell is bit-identical to the Num it stands for
///    and stays branch-light (no tier dispatch per cell). The first op whose
///    result leaves the small domain promotes the whole row — sticky for the
///    rest of the solve — to an exact Num lane, and the op re-runs there.
class SparseKernel {
 public:
  /// The fast lane's grids are `scratch`'s, refilled here, so only one
  /// kernel at a time may work on a given scratch.
  SparseKernel(LpScratch* scratch, size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        nums_(Refill(&scratch->nums, rows * cols, 0)),
        dens_(Refill(&scratch->dens, rows * cols, 1)),
        exact_(rows),
        support_(rows) {}

  size_t rows() const { return rows_; }
  std::vector<int>& support(size_t i) { return support_[i]; }
  const std::vector<int>& support(size_t i) const { return support_[i]; }
  bool IsFast(size_t i) const { return exact_[i].empty(); }

  bool IsZero(size_t i, size_t j) const {
    return exact_[i].empty() ? nums_[i * cols_ + j] == 0
                             : exact_[i][j].is_zero();
  }
  int SignAt(size_t i, size_t j) const {
    if (exact_[i].empty()) {
      const Word n = nums_[i * cols_ + j];
      return n < 0 ? -1 : (n > 0 ? 1 : 0);
    }
    return exact_[i][j].sign();
  }
  Num Get(size_t i, size_t j) const {
    if (exact_[i].empty()) {
      return Num::FromCanonicalWords(nums_[i * cols_ + j],
                                     dens_[i * cols_ + j]);
    }
    return exact_[i][j];
  }

  /// Construction-time store. Rows start fast; only a coefficient outside
  /// the small domain promotes here.
  void InitCell(size_t i, size_t j, const Num& value, LpKernelStats* stats) {
    if (exact_[i].empty()) {
      Word n = 0;
      Word d = 1;
      if (value.SmallWords(&n, &d)) {
        NumRow(i)[j] = n;
        DenRow(i)[j] = d;
        return;
      }
      PromoteRow(i, stats);
    }
    exact_[i][j] = value;
  }

  /// One full pivot at (pivot_row, entering): normalize the pivot row, then
  /// eliminate the entering column from every other row (objective row
  /// included), walking only the pivot row's support.
  void PivotApply(size_t pivot_row, size_t entering, LpKernelStats* stats) {
    ScaleRow(pivot_row, Get(pivot_row, entering), stats);
    for (size_t i = 0; i < rows_; ++i) {
      if (i == pivot_row) continue;
      if (IsZero(i, entering)) continue;
      const Num factor = Get(i, entering);
      AxpyRow(i, pivot_row, factor, stats);
    }
  }

  /// Support + canonical-word invariants of every row, for XICC_DCHECK_AUDIT
  /// at solve checkpoints.
  std::vector<std::string> AuditSupports() const {
    std::vector<std::string> out;
    std::vector<Num> dense(cols_);
    for (size_t i = 0; i < rows_; ++i) {
      for (size_t j = 0; j < cols_; ++j) dense[j] = Get(i, j);
      std::vector<std::string> row_out =
          AuditRowSupport(dense, cols_ - 1, support_[i], i);
      out.insert(out.end(), row_out.begin(), row_out.end());
    }
    return out;
  }

 private:
  /// `cells` copies of `value` in `grid`, which keeps its capacity.
  static Word* Refill(std::vector<Word>* grid, size_t cells, Word value) {
    grid->assign(cells, value);
    return grid->data();
  }

  Word* NumRow(size_t i) { return nums_ + i * cols_; }
  Word* DenRow(size_t i) { return dens_ + i * cols_; }

  /// Whole-row fast→exact promotion; sticky for the rest of the solve.
  void PromoteRow(size_t i, LpKernelStats* stats) {
    std::vector<Num>& cells = exact_[i];
    cells.reserve(cols_);
    const Word* n = NumRow(i);
    const Word* d = DenRow(i);
    for (size_t j = 0; j < cols_; ++j) {
      cells.push_back(Num::FromCanonicalWords(n[j], d[j]));
    }
    ++stats->fast_row_promotions;
  }

  /// row /= pivot over the row's support and rhs. Support cells are nonzero
  /// by invariant, so the fast path runs no zero tests at all.
  void ScaleRow(size_t i, const Num& pivot, LpKernelStats* stats) {
    const std::vector<int>& sup = support_[i];
    const size_t rhs = cols_ - 1;
    size_t k = 0;  // Support cells [0, k) (then the rhs) already scaled.
    Word pn = 0;
    Word pd = 1;
    if (exact_[i].empty() && pivot.SmallWords(&pn, &pd)) {
      // The reciprocal of a canonical word pair is canonical once the sign
      // moves to the numerator (pn is never INT64_MIN, so -pn is safe).
      const Word inv_n = pn < 0 ? -pd : pd;
      const Word inv_d = pn < 0 ? -pn : pn;
      Word* nr = NumRow(i);
      Word* dr = DenRow(i);
      for (; k <= sup.size(); ++k) {
        const size_t j = k < sup.size() ? static_cast<size_t>(sup[k]) : rhs;
        Word n = 0;
        Word d = 1;
        if (!internal::SmallMul(nr[j], dr[j], inv_n, inv_d, &n, &d)) break;
        XICC_DCHECK_AUDIT(AuditFastLaneOp('*', nr[j], dr[j], inv_n, inv_d,
                                          n, d));
        nr[j] = n;
        dr[j] = d;
      }
      if (k > sup.size()) return;
      // Overflow at support cell k (or the rhs): cells before k are already
      // scaled, so promote and finish from k in the exact lane.
      PromoteRow(i, stats);
    }
    std::vector<Num>& cells = exact_[i];
    for (; k <= sup.size(); ++k) {
      const size_t j = k < sup.size() ? static_cast<size_t>(sup[k]) : rhs;
      if (!cells[j].is_zero()) cells[j] /= pivot;
    }
  }

  /// row_i -= factor · row_p over row_p's support (+ rhs), then merges the
  /// supports and counts fill-in.
  void AxpyRow(size_t i, size_t p, const Num& factor, LpKernelStats* stats) {
    const std::vector<int>& psup = support_[p];
    const size_t rhs = cols_ - 1;
    size_t k = 0;  // Support cells [0, k) (then the rhs) already updated.
    Word fn = 0;
    Word fd = 1;
    if (exact_[i].empty() && exact_[p].empty() &&
        factor.SmallWords(&fn, &fd)) {
      Word* ni = NumRow(i);
      Word* di = DenRow(i);
      const Word* np = NumRow(p);
      const Word* dp = DenRow(p);
      for (; k <= psup.size(); ++k) {
        const size_t j = k < psup.size() ? static_cast<size_t>(psup[k]) : rhs;
        Word tn = 0;
        Word td = 1;
        Word n = 0;
        Word d = 1;
        // SmallMul never yields INT64_MIN, so -tn below stays canonical.
        if (!internal::SmallMul(fn, fd, np[j], dp[j], &tn, &td)) break;
        if (!internal::SmallAdd(ni[j], di[j], -tn, td, &n, &d)) break;
        XICC_DCHECK_AUDIT(AuditFastLaneOp('*', fn, fd, np[j], dp[j], tn, td));
        XICC_DCHECK_AUDIT(AuditFastLaneOp('+', ni[j], di[j], -tn, td, n, d));
        ni[j] = n;
        di[j] = d;
      }
      if (k > psup.size()) {
        MergeSupport(i, p, stats);
        return;
      }
      PromoteRow(i, stats);
    } else if (exact_[i].empty()) {
      // Pivot row exact or factor big: the target leaves the fast lane too.
      PromoteRow(i, stats);
    }
    std::vector<Num>& cells = exact_[i];
    for (; k <= psup.size(); ++k) {
      const size_t j = k < psup.size() ? static_cast<size_t>(psup[k]) : rhs;
      const Num pj = Get(p, j);
      if (pj.is_zero()) continue;  // Only the rhs cell can be zero here.
      cells[j] -= factor * pj;
    }
    MergeSupport(i, p, stats);
  }

  /// support_i := sorted union of support_i and support_p minus cells that
  /// cancelled to zero. Cells only in support_i were untouched by the axpy
  /// and stay without a test; cells from support_p are tested, and the ones
  /// absent from support_i that came out nonzero are fill-in.
  void MergeSupport(size_t i, size_t p, LpKernelStats* stats) {
    const std::vector<int>& a = support_[i];
    const std::vector<int>& b = support_[p];
    merge_scratch_.clear();
    size_t x = 0;
    size_t y = 0;
    while (x < a.size() || y < b.size()) {
      if (y >= b.size() || (x < a.size() && a[x] < b[y])) {
        merge_scratch_.push_back(a[x++]);
        continue;
      }
      const bool fresh = x >= a.size() || a[x] > b[y];
      const int col = b[y++];
      if (!fresh) ++x;
      if (!IsZero(i, static_cast<size_t>(col))) {
        merge_scratch_.push_back(col);
        if (fresh) ++stats->fill_in;
      }
    }
    support_[i].swap(merge_scratch_);
  }

  size_t rows_;
  size_t cols_;
  /// Fast lane, rows_ × cols_ cells of the thread's LpScratch grids.
  Word* nums_;
  Word* dens_;
  /// Exact lane; an empty inner vector means the row is still fast.
  std::vector<std::vector<Num>> exact_;
  std::vector<std::vector<int>> support_;
  std::vector<int> merge_scratch_;
};

// ---------------------------------------------------------------------------
// Row-store pivoting for the dual (warm) re-solve.
// ---------------------------------------------------------------------------

/// Stores `value` as the cell at store position `s`. `was_big` says whether
/// the cell held a big entry before, which is reused if `value` is big too
/// and dropped otherwise.
void StoreCell(LpRowStore* st, size_t s, bool was_big, Num value) {
  Word n = 0;
  Word d = 1;
  if (value.SmallWords(&n, &d)) {
    if (was_big) --st->live_big;
    st->cell_num[s] = n;
    st->cell_den[s] = d;
    return;
  }
  if (was_big) {
    st->big[static_cast<size_t>(st->cell_num[s])] = std::move(value);
    return;
  }
  st->cell_num[s] = static_cast<Word>(st->big.size());
  st->cell_den[s] = 0;
  st->big.push_back(std::move(value));
  ++st->live_big;
}

/// The sign of the cell at store position `s`.
int CellSign(const LpRowStore& st, size_t s) {
  const Word n = st.cell_num[s];
  if (st.cell_den[s] == 0) return st.big[static_cast<size_t>(n)].sign();
  return (n > 0) - (n < 0);
}

/// Row i's position of column `col` (an index into its run), or -1 when
/// the cell is zero. A run whose first and last columns cannot bracket
/// `col` is ruled out before the binary search.
int FindCell(const LpRowStore& st, size_t i, int col) {
  const size_t len = st.row_len[i];
  if (len == 0) return -1;
  const int* first = st.cell_col.data() + st.row_start[i];
  if (col < first[0] || col > first[len - 1]) return -1;
  const int* it = std::lower_bound(first, first + len, col);
  return *it == col ? static_cast<int>(it - first) : -1;
}

/// row_i -= factor · row_p, and rhs_i -= factor · rhs_p: a two-pointer merge
/// of the two runs into a fresh run at the end of the store; row i's old run
/// is abandoned. Cells that cancel to zero drop out; cells only row p lists
/// that come out nonzero are fill-in. The arithmetic is Num's, cell by cell
/// — a small product and difference run on the words (SmallMul/SmallAdd,
/// with the kNumPromote probe where Num's operators consult it) and
/// anything else takes Num's exact route — so values, NumCounters and
/// fault schedules are those of `cell -= factor * source` on every cell.
void RowAxpy(LpTableau* tab, size_t i, size_t p, const Num& factor,
             size_t* fill_in) {
  LpRowStore& st = tab->rows;
  const size_t a = st.row_len[i];
  const size_t b = st.row_len[p];
  st.ReserveCells(a + b);  // Before any pointer: it may reallocate.
  int* col = st.cell_col.data();
  Word* num = st.cell_num.data();
  Word* den = st.cell_den.data();
  const size_t ts = st.row_start[i];
  const size_t ps = st.row_start[p];
  const size_t out_start = st.cells_used;
  size_t out = out_start;
  Word fn = 0;
  Word fd = 0;  // Stays 0 when the factor is big.
  if (!factor.SmallWords(&fn, &fd)) fd = 0;
  uint64_t small_ops = 0;
  size_t x = 0;
  size_t y = 0;
  while (x < a || y < b) {
    if (y >= b || (x < a && col[ts + x] < col[ps + y])) {
      // Untouched; a big cell takes its entry along.
      col[out] = col[ts + x];
      num[out] = num[ts + x];
      den[out] = den[ts + x];
      ++out;
      ++x;
      continue;
    }
    const size_t src = ps + y++;
    const bool fresh = x >= a || col[ts + x] > col[src];
    // product = factor · source cell.
    Word pn = 0;
    Word pd = 0;  // Stays 0 while the product is big.
    Num product;
    if (fd != 0 && den[src] != 0 && !XICC_FAULT_FIRES(kNumPromote) &&
        internal::SmallMul(fn, fd, num[src], den[src], &pn, &pd)) {
      XICC_DCHECK_AUDIT(
          AuditFastLaneOp('*', fn, fd, num[src], den[src], pn, pd));
      ++small_ops;
    } else {
      product = factor;
      product.MulSlow(st.CellValue(src));
      if (!product.SmallWords(&pn, &pd)) pd = 0;
    }
    // A small product is canonical, so its numerator is not INT64_MIN and
    // -pn below is safe.
    if (fresh) {
      ++*fill_in;  // A product of nonzeros is nonzero.
      col[out] = col[src];
      if (pd != 0) {
        num[out] = -pn;
        den[out] = pd;
      } else {
        StoreCell(&st, out, /*was_big=*/false, -product);
      }
      ++out;
      continue;
    }
    const size_t tgt = ts + x++;
    const bool was_big = den[tgt] == 0;
    Word vn = 0;
    Word vd = 1;
    if (!was_big && pd != 0 && !XICC_FAULT_FIRES(kNumPromote) &&
        internal::SmallAdd(num[tgt], den[tgt], -pn, pd, &vn, &vd)) {
      XICC_DCHECK_AUDIT(
          AuditFastLaneOp('+', num[tgt], den[tgt], -pn, pd, vn, vd));
      ++small_ops;
      if (vn == 0) continue;
      col[out] = col[tgt];
      num[out] = vn;
      den[out] = vd;
      ++out;
      continue;
    }
    Num value = st.CellValue(tgt);
    value.SubSlow(pd != 0 ? Num::FromCanonicalWords(pn, pd) : product);
    if (value.is_zero()) {
      if (was_big) --st.live_big;
      continue;
    }
    // A big target's entry moves to the new run with it.
    col[out] = col[tgt];
    num[out] = num[tgt];
    den[out] = den[tgt];
    StoreCell(&st, out++, was_big, std::move(value));
  }
  ThisThreadNumCounters().small_ops += small_ops;
  st.row_start[i] = out_start;
  st.row_len[i] = out - out_start;
  st.cells_used = out;
  st.live_cells += out - out_start;
  st.live_cells -= a;
  const Num& source_rhs = tab->rhs[p];
  if (!source_rhs.is_zero()) tab->rhs[i] -= factor * source_rhs;
}

/// One dual pivot inside `tab`: normalizes row `leaving` by its k-th cell
/// and eliminates that cell's column from every other row. The caller
/// updates the basis.
void PivotRows(LpTableau* tab, size_t leaving, size_t k, size_t* fill_in) {
  LpRowStore& st = tab->rows;
  const size_t ps = st.row_start[leaving];
  const size_t len = st.row_len[leaving];
  const int entering = st.cell_col[ps + k];
  const Num pivot = st.CellValue(ps + k);
  // Listed cells are nonzero, so the scaled row keeps its columns and is
  // rewritten in place: cell /= pivot, as Num's operator would.
  Word inv_n = 0;
  Word inv_d = 0;  // Stays 0 when the pivot is big.
  Word pn = 0;
  Word pd = 1;
  if (pivot.SmallWords(&pn, &pd)) {
    // The reciprocal of a canonical word pair is canonical once the sign
    // moves to the numerator (pn is never INT64_MIN, so -pn is safe).
    inv_n = pn < 0 ? -pd : pd;
    inv_d = pn < 0 ? -pn : pn;
  }
  uint64_t small_ops = 0;
  for (size_t s = ps; s < ps + len; ++s) {
    const bool was_big = st.cell_den[s] == 0;
    Word n = 0;
    Word d = 1;
    if (inv_d != 0 && !was_big && !XICC_FAULT_FIRES(kNumPromote) &&
        internal::SmallMul(st.cell_num[s], st.cell_den[s], inv_n, inv_d, &n,
                           &d)) {
      XICC_DCHECK_AUDIT(AuditFastLaneOp('*', st.cell_num[s], st.cell_den[s],
                                        inv_n, inv_d, n, d));
      ++small_ops;
      st.cell_num[s] = n;
      st.cell_den[s] = d;
      continue;
    }
    Num value = st.CellValue(s);
    value.DivSlow(pivot);
    StoreCell(&st, s, was_big, std::move(value));
  }
  ThisThreadNumCounters().small_ops += small_ops;
  Num& p_rhs = tab->rhs[leaving];
  if (!p_rhs.is_zero()) p_rhs /= pivot;
  for (size_t i = 0; i < st.size(); ++i) {
    if (i == leaving) continue;
    const int at = FindCell(st, i, entering);
    if (at < 0) continue;
    const Num factor = st.Value(i, static_cast<size_t>(at));
    RowAxpy(tab, i, leaving, factor, fill_in);
  }
}

}  // namespace

LpRowStore& LpRowStore::operator=(const LpRowStore& other) {
  if (this == &other) return *this;
  row_start = other.row_start;
  row_len = other.row_len;
  cells_used = 0;
  ReserveCells(other.cells_used);
  std::copy_n(other.cell_col.data(), other.cells_used, cell_col.data());
  std::copy_n(other.cell_num.data(), other.cells_used, cell_num.data());
  std::copy_n(other.cell_den.data(), other.cells_used, cell_den.data());
  cells_used = other.cells_used;
  big = other.big;
  live_cells = other.live_cells;
  live_big = other.live_big;
  return *this;
}

void LpRowStore::swap(LpRowStore& other) noexcept {
  row_start.swap(other.row_start);
  row_len.swap(other.row_len);
  cell_col.swap(other.cell_col);
  cell_num.swap(other.cell_num);
  cell_den.swap(other.cell_den);
  std::swap(cells_used, other.cells_used);
  big.swap(other.big);
  std::swap(live_cells, other.live_cells);
  std::swap(live_big, other.live_big);
}

void LpRowStore::Reset(size_t rows) {
  row_start.assign(rows, 0);
  row_len.assign(rows, 0);
  cells_used = 0;
  big.clear();
  live_cells = 0;
  live_big = 0;
}

void LpRowStore::Grow(size_t rows) {
  row_start.resize(rows, cells_used);
  row_len.resize(rows, 0);
}

void LpRowStore::BeginRow(size_t i) {
  const size_t s = row_start[i];
  for (size_t k = s; k < s + row_len[i]; ++k) {
    if (cell_den[k] == 0) --live_big;
  }
  live_cells -= row_len[i];
  row_start[i] = cells_used;
  row_len[i] = 0;
}

void LpRowStore::AppendCell(size_t i, int col, const Num& value) {
  XICC_DCHECK(row_start[i] + row_len[i] == cells_used);
  ReserveCells(1);
  const size_t s = cells_used++;
  cell_col[s] = col;
  StoreCell(this, s, /*was_big=*/false, value);
  ++row_len[i];
  ++live_cells;
}

void LpRowStore::ReserveCells(size_t extra) {
  const size_t need = cells_used + extra;
  if (need <= cell_col.size()) return;
  const size_t grown = std::max(need, 2 * cell_col.size());
  cell_col.resize(grown);
  cell_num.resize(grown);
  cell_den.resize(grown);
}

void LpRowStore::Compact() {
  LpRowStore& out = g_lp_scratch.compacted;
  out.Reset(size());
  out.ReserveCells(live_cells);
  for (size_t i = 0; i < size(); ++i) {
    const size_t s = row_start[i];
    const size_t len = row_len[i];
    const size_t at = out.cells_used;
    std::copy_n(cell_col.data() + s, len, out.cell_col.data() + at);
    std::copy_n(cell_num.data() + s, len, out.cell_num.data() + at);
    std::copy_n(cell_den.data() + s, len, out.cell_den.data() + at);
    for (size_t k = at; k < at + len; ++k) {
      if (out.cell_den[k] != 0) continue;
      Num& value = big[static_cast<size_t>(out.cell_num[k])];
      out.cell_num[k] = static_cast<Word>(out.big.size());
      out.big.push_back(std::move(value));
    }
    out.row_start[i] = at;
    out.row_len[i] = len;
    out.cells_used = at + len;
  }
  out.live_cells = out.cells_used;
  out.live_big = out.big.size();
  swap(out);
}

LpTableauPool::Lease::Lease(LpTableauPool* pool) : pool_(pool) {
  if (pool_->free_.empty()) {
    tab_ = std::make_unique<LpTableau>();
  } else {
    tab_ = std::move(pool_->free_.back());
    pool_->free_.pop_back();
  }
}

LpTableauPool::Lease::~Lease() { pool_->free_.push_back(std::move(tab_)); }

LpPricingConfig GetLpPricingConfig() { return g_lp_pricing_config; }
void SetLpPricingConfig(const LpPricingConfig& config) {
  g_lp_pricing_config = config;
}

LpResult SolveLpFeasibility(const LinearSystem& system, LpTableau* tableau,
                            const StopSignal* stop) {
  const size_t m = system.NumConstraints();
  const size_t n = system.NumVariables();

  // Column plan: structural, then one slack per inequality, then artificials
  // for rows whose slack cannot seed the basis.
  std::vector<LpColumnInfo> columns;
  columns.reserve(n + m);
  for (size_t j = 0; j < n; ++j) {
    columns.push_back(
        {LpColumnInfo::Kind::kStructural, static_cast<int>(j), 0});
  }
  std::vector<int> slack_col(m, -1);
  for (size_t i = 0; i < m; ++i) {
    const RelOp op = system.constraints()[i].op;
    if (op != RelOp::kEq) {
      slack_col[i] = static_cast<int>(columns.size());
      columns.push_back({LpColumnInfo::Kind::kSlack, static_cast<int>(i),
                         op == RelOp::kLe ? -1 : 1});
    }
  }
  const size_t num_structural_slack = columns.size();

  // A ≤-row with rhs ≥ 0 (or a ≥-row with rhs ≤ 0, which flips to one) can
  // use its slack as the initial basic variable; other rows need an
  // artificial. Decide per row, after rhs normalization.
  struct RowPlan {
    bool negate = false;       // Row multiplied by -1 to get rhs ≥ 0.
    bool use_slack = false;    // Slack seeds the basis.
    int artificial_col = -1;   // Otherwise: its artificial column.
  };
  std::vector<RowPlan> plan(m);
  size_t num_artificial = 0;
  for (size_t i = 0; i < m; ++i) {
    const LinearConstraint& c = system.constraints()[i];
    bool rhs_negative = c.rhs.sign() < 0;
    plan[i].negate = rhs_negative;
    // After negation the slack coefficient is +1 for (kLe, rhs ≥ 0) and for
    // (kGe, rhs < 0); only then can the slack start basic.
    if (c.op == RelOp::kLe) {
      plan[i].use_slack = !rhs_negative;
    } else if (c.op == RelOp::kGe) {
      plan[i].use_slack = rhs_negative;
    }
    if (!plan[i].use_slack) ++num_artificial;
  }
  const size_t total = num_structural_slack + num_artificial;
  const size_t rhs_col = total;

  LpResult result;
  SparseKernel kernel(&g_lp_scratch, m + 1, total + 1);
  std::vector<int> basis(m);
  size_t next_artificial = num_structural_slack;
  for (size_t i = 0; i < m; ++i) {
    const LinearConstraint& c = system.constraints()[i];
    const int sign = plan[i].negate ? -1 : 1;
    // Cells arrive in ascending column order (coeffs are var-sorted; slack
    // and artificial columns sit past every structural id), so supports can
    // be appended directly.
    for (const auto& [var, coeff] : c.coeffs) {
      if (coeff.is_zero()) continue;
      kernel.InitCell(i, static_cast<size_t>(var),
                      sign < 0 ? -coeff : coeff, &result.kernel);
      kernel.support(i).push_back(static_cast<int>(var));
    }
    kernel.InitCell(i, rhs_col, plan[i].negate ? -c.rhs : c.rhs,
                    &result.kernel);
    if (slack_col[i] >= 0) {
      // Original slack sign: +1 for ≤, −1 for ≥; then the row negation.
      const int slack_sign = (c.op == RelOp::kLe ? 1 : -1) * sign;
      kernel.InitCell(i, static_cast<size_t>(slack_col[i]), Num(slack_sign),
                      &result.kernel);
      kernel.support(i).push_back(slack_col[i]);
    }
    if (plan[i].use_slack) {
      basis[i] = slack_col[i];
    } else {
      plan[i].artificial_col = static_cast<int>(next_artificial);
      kernel.InitCell(i, next_artificial, Num(1), &result.kernel);
      kernel.support(i).push_back(static_cast<int>(next_artificial));
      basis[i] = static_cast<int>(next_artificial);
      ++next_artificial;
    }
  }
  for (size_t i = 0; i < m; ++i) {
    result.kernel.nnz_cells += kernel.support(i).size();
  }
  result.kernel.total_cells = m * total;

  // Phase-1 objective: minimize the sum of artificial variables. In tableau
  // form the reduced-cost row is -(sum of artificial rows) over
  // non-artificial columns; the objective value sits in the rhs cell.
  {
    std::vector<Num> objective(total + 1);
    for (size_t i = 0; i < m; ++i) {
      if (plan[i].use_slack) continue;
      for (int j : kernel.support(i)) {
        objective[static_cast<size_t>(j)] +=
            kernel.Get(i, static_cast<size_t>(j));
      }
      objective[rhs_col] += kernel.Get(i, rhs_col);
    }
    for (size_t j = 0; j <= rhs_col; ++j) {
      if (j >= num_structural_slack && j < total) continue;  // Artificial.
      if (objective[j].is_zero()) continue;
      kernel.InitCell(m, j, -objective[j], &result.kernel);
      if (j < total) kernel.support(m).push_back(static_cast<int>(j));
    }
  }
  XICC_DCHECK_AUDIT(kernel.AuditSupports());

  // Simplex iterations. Entering selection is Dantzig pricing (most negative
  // reduced cost over the objective row's support) until a degeneracy streak
  // trips the Bland fallback; Bland's smallest-index rule cannot cycle, and
  // it stays engaged until a pivot strictly improves the objective, which
  // restores termination: an infinite run would have an all-degenerate tail,
  // which locks Bland in permanently — contradiction. The ratio test
  // (smallest ratio, ties to the smallest basic index) is unchanged from the
  // dense reference.
  const LpPricingConfig pricing = GetLpPricingConfig();
  bool bland_mode = !pricing.dantzig;
  size_t degenerate_streak = 0;
  for (;;) {
    XICC_FAULT_PROBE(kSimplexPivot);
    // Bounded-cost stop poll: every 64 pivots, two loads and (when a
    // deadline is armed) one clock read — noise next to a pivot.
    if (stop != nullptr && (result.pivots & 63) == 0 && stop->ShouldStop()) {
      result.aborted = true;
      result.feasible = false;
      return result;
    }
    if (pricing.pivot_cap != 0 && result.pivots >= pricing.pivot_cap) {
      result.pivot_cap_hit = true;
      result.aborted = true;
      result.feasible = false;
      return result;
    }
    size_t entering = total;
    if (bland_mode) {
      for (int j : kernel.support(m)) {
        if (kernel.SignAt(m, static_cast<size_t>(j)) < 0) {
          entering = static_cast<size_t>(j);
          break;
        }
      }
    } else {
      Num best;
      for (int j : kernel.support(m)) {
        if (kernel.SignAt(m, static_cast<size_t>(j)) >= 0) continue;
        Num value = kernel.Get(m, static_cast<size_t>(j));
        if (entering == total || value < best) {
          best = std::move(value);
          entering = static_cast<size_t>(j);
        }
      }
    }
    if (entering == total) break;  // Optimal.

    size_t pivot_row = m;
    Num best_ratio;
    for (size_t i = 0; i < m; ++i) {
      if (kernel.SignAt(i, entering) <= 0) continue;
      Num ratio = kernel.Get(i, rhs_col) / kernel.Get(i, entering);
      if (pivot_row == m || ratio < best_ratio ||
          (ratio == best_ratio && basis[i] < basis[pivot_row])) {
        pivot_row = i;
        best_ratio = std::move(ratio);
      }
    }
    if (pivot_row == m) break;  // Phase-1 cannot be unbounded; defensive.

    const bool degenerate = kernel.IsZero(pivot_row, rhs_col);
    ++result.pivots;
    if (bland_mode) {
      ++result.kernel.bland_pivots;
    } else {
      ++result.kernel.dantzig_pivots;
    }
    kernel.PivotApply(pivot_row, entering, &result.kernel);
    basis[pivot_row] = static_cast<int>(entering);
    if (degenerate) {
      ++degenerate_streak;
      if (!bland_mode && pricing.dantzig &&
          pricing.degenerate_streak_limit != 0 &&
          degenerate_streak >= pricing.degenerate_streak_limit) {
        bland_mode = true;
        ++result.kernel.bland_fallbacks;
      }
    } else {
      degenerate_streak = 0;
      bland_mode = !pricing.dantzig;
    }
  }
  XICC_DCHECK_AUDIT(kernel.AuditSupports());

  // Feasible iff the artificial mass is zero (objective value = -tab(m,rhs)).
  if (!kernel.IsZero(m, rhs_col)) {
    result.feasible = false;
    for (size_t i = 0; i <= m; ++i) {
      if (kernel.IsFast(i)) ++result.kernel.fast_rows;
    }
    return result;
  }
  result.feasible = true;

  // Drive degenerate artificials (basic at value 0 — routine for equality
  // rows) out of the basis: pivot on the smallest nonzero structural/slack
  // column in the row — the head of the support list, if it sits below the
  // artificial block. The pivot is at rhs = 0, so no value or feasibility
  // changes — it only makes the exported basis artificial-free, which the
  // dual-simplex warm re-solve requires. A row with no such entry is a
  // redundant constraint and keeps its artificial (basis[i] = -1 below).
  if (tableau != nullptr) {
    for (size_t i = 0; i < m; ++i) {
      if (static_cast<size_t>(basis[i]) < num_structural_slack) continue;
      const std::vector<int>& sup = kernel.support(i);
      if (sup.empty() ||
          sup.front() >= static_cast<int>(num_structural_slack)) {
        continue;  // Redundant row.
      }
      const size_t entering = static_cast<size_t>(sup.front());
      ++result.pivots;
      ++result.kernel.bland_pivots;
      kernel.PivotApply(i, entering, &result.kernel);
      basis[i] = static_cast<int>(entering);
    }
    XICC_DCHECK_AUDIT(kernel.AuditSupports());
  }
  result.values.assign(n, Num());
  for (size_t i = 0; i < m; ++i) {
    if (basis[i] >= 0 && static_cast<size_t>(basis[i]) < n) {
      result.values[basis[i]] = kernel.Get(i, rhs_col);
    }
  }
  for (size_t i = 0; i <= m; ++i) {
    if (kernel.IsFast(i)) ++result.kernel.fast_rows;
  }

  if (tableau != nullptr) {
    tableau->columns = columns;
    tableau->basis.assign(m, -1);
    tableau->rows.Reset(m);
    tableau->rhs.assign(m, Num());
    tableau->num_constraints = m;
    for (size_t i = 0; i < m; ++i) {
      // Rows still basic in an artificial are degenerate (value 0) and are
      // not exported for cuts; they also make the basis unusable for warm
      // re-solves (the artificial column is not exported).
      if (static_cast<size_t>(basis[i]) < num_structural_slack) {
        tableau->basis[i] = basis[i];
      }
      // The support already lists the row's nonzeros in column order; the
      // artificial columns, which are not exported, come last.
      tableau->rows.BeginRow(i);
      for (int j : kernel.support(i)) {
        if (static_cast<size_t>(j) >= num_structural_slack) break;
        tableau->rows.AppendCell(i, j, kernel.Get(i, static_cast<size_t>(j)));
      }
      tableau->rhs[i] = kernel.Get(i, rhs_col);
    }
  }
  return result;
}

WarmResult ReSolveLpFeasibilityDualInPlace(const LinearSystem& system,
                                           LpTableau* tableau,
                                           const StopSignal* stop) {
  WarmResult out;
  const size_t n = system.NumVariables();
  const size_t m_new = system.NumConstraints();

  // Usability: the parent basis must be artificial-free (artificials are not
  // exported, so a row basic in one cannot be re-seeded) and name columns
  // the tableau has, every parent variable must still exist, and the parent
  // must actually be a prefix of `system`. Nothing has been touched yet, so
  // kUnusableBasis leaves the tableau intact. `identity` is the cold
  // export's layout: structural column j is variable j.
  if (tableau->num_constraints > m_new) return out;
  size_t num_structural = 0;
  bool identity = true;
  for (size_t j = 0; j < tableau->columns.size(); ++j) {
    const LpColumnInfo& column = tableau->columns[j];
    if (column.kind != LpColumnInfo::Kind::kStructural) continue;
    ++num_structural;
    if (column.index != static_cast<int>(j)) identity = false;
  }
  if (num_structural > n) return out;
  for (int b : tableau->basis) {
    if (b < 0 || static_cast<size_t>(b) >= tableau->columns.size()) {
      return out;
    }
  }

  const size_t old_rows = tableau->rows.size();
  const size_t old_cols = tableau->columns.size();

  // One working row per parent row, plus one per appended inequality and two
  // per appended equality (split into its ≤ and ≥ halves so each half gets a
  // basic slack — dual simplex needs a basic variable per row).
  struct NewRow {
    size_t constraint;  // Index into system.constraints().
    int sub_sign;       // -1: s = rhs − expr; +1: s = expr − rhs.
  };
  std::vector<NewRow> appended;
  for (size_t k = tableau->num_constraints; k < m_new; ++k) {
    const RelOp op = system.constraints()[k].op;
    if (op == RelOp::kLe || op == RelOp::kEq) appended.push_back({k, -1});
    if (op == RelOp::kGe || op == RelOp::kEq) appended.push_back({k, 1});
  }
  const size_t rows = old_rows + appended.size();
  // Variables created since the parent solve become structural columns
  // past the new slacks, nonbasic at zero. They are absent from every
  // parent row, which predates them, so those rows stay untouched.
  const size_t first_new_var = old_cols + appended.size();
  const size_t total = first_new_var + (n - num_structural);

  // An appended row's cells by VarId: parent variables through the parent's
  // layout, new ones past the slacks. Only a parent that took new variables
  // itself needs a map; the cold export's layout is its own.
  std::vector<int>& var_col = g_lp_scratch.var_col;
  if (!identity) {
    var_col.assign(num_structural, -1);
    for (size_t j = 0; j < old_cols; ++j) {
      const LpColumnInfo& column = tableau->columns[j];
      if (column.kind != LpColumnInfo::Kind::kStructural) continue;
      // Not one of the parent's variables 0..num_structural-1.
      if (static_cast<size_t>(column.index) >= num_structural) return out;
      var_col[column.index] = static_cast<int>(j);
    }
  }
  auto column_of = [&](VarId var) {
    const size_t v = static_cast<size_t>(var);
    if (v >= num_structural) {
      return static_cast<int>(first_new_var + (v - num_structural));
    }
    return identity ? var : var_col[v];
  };

  // Every rewritten row leaves its old run behind as dead cells; drop them
  // here, between re-solves, once they outnumber the live ones.
  LpRowStore& store = tableau->rows;
  if (store.WantsCompaction()) store.Compact();

  // Extend the tableau in place: one slack-basic row per appended half. The
  // fresh slack columns are zero in every parent row, and a sparse row lists
  // only its nonzeros, so the parent rows are not touched.
  store.Grow(rows);
  tableau->rhs.resize(rows);
  std::vector<int>& basis = tableau->basis;
  basis.reserve(rows);
  for (size_t r = 0; r < appended.size(); ++r) {
    const size_t row = old_rows + r;
    const int slack = static_cast<int>(old_cols + r);
    const NewRow& plan = appended[r];
    const LinearConstraint& c = system.constraints()[plan.constraint];
    const int sign = plan.sub_sign < 0 ? 1 : -1;
    // Coefficients are var-sorted, and structural columns keep VarId order
    // (a cold export is the identity; new variables land past everything),
    // so cells arrive in column order once the slack is slotted in between
    // the parent variables and the new ones.
    store.BeginRow(row);
    bool slack_listed = false;
    for (const auto& [var, coeff] : c.coeffs) {
      if (coeff.is_zero()) continue;
      const int col = column_of(var);
      if (!slack_listed && col > slack) {
        store.AppendCell(row, slack, Num(1));
        slack_listed = true;
      }
      store.AppendCell(row, col, sign < 0 ? -coeff : coeff);
    }
    if (!slack_listed) store.AppendCell(row, slack, Num(1));
    tableau->rhs[row] = sign < 0 ? -c.rhs : c.rhs;
    basis.push_back(slack);
    tableau->columns.push_back({LpColumnInfo::Kind::kSlack,
                                static_cast<int>(plan.constraint),
                                plan.sub_sign});
  }
  for (size_t v = num_structural; v < n; ++v) {
    tableau->columns.push_back(
        {LpColumnInfo::Kind::kStructural, static_cast<int>(v), 0});
  }
  tableau->num_constraints = m_new;

  // Price out the parent's basic variables from the appended rows so basic
  // columns stay unit. Parent rows carry zeros in the fresh slack columns,
  // so elimination never spills into other appended rows — it only reads
  // rows < old_rows, which stay untouched until the pivot loop below.
  // Parent row i has zeros in every other parent row's basic column, so
  // the rows to eliminate are fixed by the appended row's cells up front;
  // they run in parent-row order, which keeps the fill-in count stable.
  std::vector<int>& basic_row = g_lp_scratch.basic_row;
  basic_row.assign(old_cols, -1);
  for (size_t i = 0; i < old_rows; ++i) {
    basic_row[basis[i]] = static_cast<int>(i);
  }
  std::vector<int>& pending = g_lp_scratch.pending;
  size_t fill_in = 0;
  for (size_t row = old_rows; row < rows; ++row) {
    pending.clear();
    for (size_t k = 0; k < store.RowSize(row); ++k) {
      const int col = store.Col(row, k);
      if (static_cast<size_t>(col) < old_cols && basic_row[col] >= 0) {
        pending.push_back(basic_row[col]);
      }
    }
    std::sort(pending.begin(), pending.end());
    for (int i : pending) {
      const int at = FindCell(store, row, basis[i]);
      if (at < 0) continue;  // Only a non-unit basis gets here.
      const Num factor = store.Value(row, static_cast<size_t>(at));
      RowAxpy(tableau, row, static_cast<size_t>(i), factor, &fill_in);
    }
  }
  out.lp.kernel.nnz_cells = store.live_cells;
  out.lp.kernel.total_cells = rows * total;
  XICC_DCHECK_AUDIT(AuditTableauRows(*tableau));

  // Dual simplex with Bland's rule, pivoting the tableau's own sparse rows.
  const size_t pivot_cap = 200 + 16 * rows;
  for (;;) {
    XICC_FAULT_PROBE(kSimplexPivot);
    // Aborting leaves the tableau mid-pivot — same discard contract as
    // kPivotLimit, already honored by every in-place caller.
    if (stop != nullptr && (out.lp.pivots & 63) == 0 && stop->ShouldStop()) {
      out.status = WarmStatus::kAborted;
      return out;
    }
    int leaving = -1;
    for (size_t i = 0; i < rows; ++i) {
      if (tableau->rhs[i].sign() < 0 &&
          (leaving < 0 || basis[i] < basis[leaving])) {
        leaving = static_cast<int>(i);
      }
    }
    if (leaving < 0) break;  // Primal feasible again.

    // Entering: the leaving row's smallest column with a negative cell.
    const size_t run = store.row_start[static_cast<size_t>(leaving)];
    const size_t len = store.row_len[static_cast<size_t>(leaving)];
    size_t k = 0;
    while (k < len && CellSign(store, run + k) >= 0) ++k;
    if (k == len) {
      // Exact certificate; the half-pivoted tableau is the caller's to
      // discard, per the in-place contract.
      out.status = WarmStatus::kOk;
      out.lp.feasible = false;
      return out;
    }
    if (out.lp.pivots >= pivot_cap) {
      out.status = WarmStatus::kPivotLimit;
      return out;
    }
    ++out.lp.pivots;
    ++out.lp.kernel.bland_pivots;
    const int entering = store.cell_col[run + k];
    PivotRows(tableau, static_cast<size_t>(leaving), k, &fill_in);
    basis[leaving] = entering;
  }
  out.lp.kernel.fill_in = fill_in;
  XICC_DCHECK_AUDIT(AuditTableauRows(*tableau));

  out.status = WarmStatus::kOk;
  out.lp.feasible = true;
  out.lp.values.assign(n, Num());
  for (size_t i = 0; i < rows; ++i) {
    const LpColumnInfo& column = tableau->columns[basis[i]];
    if (column.kind == LpColumnInfo::Kind::kStructural) {
      out.lp.values[column.index] = tableau->rhs[i];
    }
  }
  return out;
}

}  // namespace xicc
