#include "dense_simplex.h"

#include <vector>

#include "base/faults.h"

namespace xicc {

namespace {

/// Dense phase-1 tableau over the two-tier exact Num: a solve allocates one
/// flat cell block and pivots in place.
///
/// Layout: rows 0..m-1 are constraints, row m is the phase-1 objective
/// (reduced costs). Columns 0..total-1 are variables (structural, then
/// slack, then artificial); column `total` is the rhs.
class DenseTableau {
 public:
  DenseTableau(size_t rows, size_t cols) : cols_(cols), cells_(rows * cols) {}

  Num& At(size_t row, size_t col) { return cells_[row * cols_ + col]; }
  const Num& At(size_t row, size_t col) const {
    return cells_[row * cols_ + col];
  }
  Num* Row(size_t row) { return cells_.data() + row * cols_; }
  const Num* Row(size_t row) const { return cells_.data() + row * cols_; }

 private:
  size_t cols_;
  std::vector<Num> cells_;
};

}  // namespace

LpResult SolveLpFeasibilityDenseBland(const LinearSystem& system,
                                      LpTableau* tableau,
                                      const StopSignal* stop) {
  const size_t m = system.NumConstraints();
  const size_t n = system.NumVariables();

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

  struct RowPlan {
    bool negate = false;
    bool use_slack = false;
    int artificial_col = -1;
  };
  std::vector<RowPlan> plan(m);
  size_t num_artificial = 0;
  for (size_t i = 0; i < m; ++i) {
    const LinearConstraint& c = system.constraints()[i];
    bool rhs_negative = c.rhs.sign() < 0;
    plan[i].negate = rhs_negative;
    if (c.op == RelOp::kLe) {
      plan[i].use_slack = !rhs_negative;
    } else if (c.op == RelOp::kGe) {
      plan[i].use_slack = rhs_negative;
    }
    if (!plan[i].use_slack) ++num_artificial;
  }
  const size_t total = num_structural_slack + num_artificial;
  const size_t rhs_col = total;

  DenseTableau tab(m + 1, total + 1);
  std::vector<int> basis(m);
  size_t next_artificial = num_structural_slack;
  for (size_t i = 0; i < m; ++i) {
    const LinearConstraint& c = system.constraints()[i];
    int sign = plan[i].negate ? -1 : 1;
    for (const auto& [var, coeff] : c.coeffs) {
      tab.At(i, static_cast<size_t>(var)) = sign < 0 ? -coeff : coeff;
    }
    tab.At(i, rhs_col) = plan[i].negate ? -c.rhs : c.rhs;
    if (slack_col[i] >= 0) {
      int slack_sign = (c.op == RelOp::kLe ? 1 : -1) * sign;
      tab.At(i, static_cast<size_t>(slack_col[i])) = Num(slack_sign);
    }
    if (plan[i].use_slack) {
      basis[i] = slack_col[i];
    } else {
      plan[i].artificial_col = static_cast<int>(next_artificial);
      tab.At(i, next_artificial) = Num(1);
      basis[i] = static_cast<int>(next_artificial);
      ++next_artificial;
    }
  }

  for (size_t j = 0; j <= rhs_col; ++j) {
    if (j >= num_structural_slack && j < total) continue;  // Artificial.
    Num sum;
    for (size_t i = 0; i < m; ++i) {
      if (!plan[i].use_slack) sum += tab.At(i, j);
    }
    tab.At(m, j) = -sum;
  }

  LpResult result;

  // Simplex iterations with Bland's rule (smallest entering index; ratio
  // ties broken by smallest basic index) — guarantees no cycling.
  for (;;) {
    XICC_FAULT_PROBE(kSimplexPivot);
    if (stop != nullptr && (result.pivots & 63) == 0 && stop->ShouldStop()) {
      result.aborted = true;
      result.feasible = false;
      return result;
    }
    size_t entering = total;
    for (size_t j = 0; j < total; ++j) {
      if (tab.At(m, j).sign() < 0) {
        entering = j;
        break;
      }
    }
    if (entering == total) break;  // Optimal.

    size_t pivot_row = m;
    Num best_ratio;
    for (size_t i = 0; i < m; ++i) {
      if (tab.At(i, entering).sign() <= 0) continue;
      Num ratio = tab.At(i, rhs_col) / tab.At(i, entering);
      if (pivot_row == m || ratio < best_ratio ||
          (ratio == best_ratio && basis[i] < basis[pivot_row])) {
        pivot_row = i;
        best_ratio = ratio;
      }
    }
    if (pivot_row == m) break;  // Phase-1 cannot be unbounded; defensive.

    ++result.pivots;
    ++result.kernel.bland_pivots;
    Num* pivot_cells = tab.Row(pivot_row);
    const Num pivot = pivot_cells[entering];
    for (size_t j = 0; j <= rhs_col; ++j) {
      Num& cell = pivot_cells[j];
      if (!cell.is_zero()) cell /= pivot;
    }
    for (size_t i = 0; i <= m; ++i) {
      if (i == pivot_row) continue;
      Num* cells = tab.Row(i);
      const Num factor = cells[entering];
      if (factor.is_zero()) continue;
      for (size_t j = 0; j <= rhs_col; ++j) {
        // The tableaus of the cardinality encodings are sparse; skipping
        // zero cells in the pivot row is the single biggest speedup here.
        const Num& p = pivot_cells[j];
        if (p.is_zero()) continue;
        cells[j] -= factor * p;
      }
    }
    basis[pivot_row] = static_cast<int>(entering);
  }

  if (!tab.At(m, rhs_col).is_zero()) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;

  if (tableau != nullptr) {
    for (size_t i = 0; i < m; ++i) {
      if (static_cast<size_t>(basis[i]) < num_structural_slack) continue;
      size_t entering = num_structural_slack;
      for (size_t j = 0; j < num_structural_slack; ++j) {
        if (!tab.At(i, j).is_zero()) {
          entering = j;
          break;
        }
      }
      if (entering == num_structural_slack) continue;  // Redundant row.
      ++result.pivots;
      ++result.kernel.bland_pivots;
      Num* pivot_cells = tab.Row(i);
      const Num pivot = pivot_cells[entering];
      for (size_t j = 0; j <= rhs_col; ++j) {
        Num& cell = pivot_cells[j];
        if (!cell.is_zero()) cell /= pivot;
      }
      for (size_t r = 0; r <= m; ++r) {
        if (r == i) continue;
        Num* cells = tab.Row(r);
        const Num factor = cells[entering];
        if (factor.is_zero()) continue;
        for (size_t j = 0; j <= rhs_col; ++j) {
          const Num& p = pivot_cells[j];
          if (p.is_zero()) continue;
          cells[j] -= factor * p;
        }
      }
      basis[i] = static_cast<int>(entering);
    }
  }
  result.values.assign(n, Num());
  for (size_t i = 0; i < m; ++i) {
    if (basis[i] >= 0 && static_cast<size_t>(basis[i]) < n) {
      result.values[basis[i]] = tab.At(i, rhs_col);
    }
  }

  if (tableau != nullptr) {
    tableau->columns = columns;
    tableau->basis.assign(m, -1);
    tableau->rows.resize(m);
    tableau->rhs.assign(m, Num());
    tableau->num_constraints = m;
    for (size_t i = 0; i < m; ++i) {
      if (static_cast<size_t>(basis[i]) < num_structural_slack) {
        tableau->basis[i] = basis[i];
      }
      LpRow& dst = tableau->rows[i];
      dst.clear();
      for (size_t j = 0; j < num_structural_slack; ++j) {
        if (!tab.At(i, j).is_zero()) {
          dst.Append(static_cast<int>(j), tab.At(i, j));
        }
      }
      tableau->rhs[i] = tab.At(i, rhs_col);
    }
  }
  return result;
}

}  // namespace xicc
