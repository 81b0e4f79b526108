#include "ilp/audit.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "base/num.h"

namespace xicc {

namespace {

std::string RowCol(size_t row, size_t col) {
  return "row " + std::to_string(row) + ", column " + std::to_string(col);
}

/// Canonical-form check for one exact cell: positive denominator, fully
/// reduced, and a well-formed two-tier representation (RepOk catches a
/// big-tier value that should have demoted — a leak of BigInt arithmetic
/// into cells the small tier can serve). A cell that fails this was
/// produced by arithmetic outside Num's normalizing operations — the
/// exactness invariant the NP-upper-bound encodings depend on.
void CheckCell(const Num& value, const std::string& where,
               std::vector<std::string>* out) {
  if (!value.RepOk()) {
    out->push_back("ill-formed two-tier representation at " + where);
    return;
  }
  if (value.den().sign() <= 0) {
    out->push_back("non-positive denominator at " + where);
    return;
  }
  if (!(BigInt::Gcd(value.num(), value.den()) == BigInt(1))) {
    out->push_back("unreduced rational at " + where);
  }
}

}  // namespace

std::vector<std::string> AuditTrail(const LinearSystem& system) {
  return AuditTrail(system.checkpoints(), system.NumVariables(),
                    system.NumConstraints());
}

std::vector<std::string> AuditTrail(
    const std::vector<LinearSystem::Checkpoint>& trail, size_t num_variables,
    size_t num_constraints) {
  std::vector<std::string> out;
  size_t prev_vars = 0;
  size_t prev_rows = 0;
  for (size_t i = 0; i < trail.size(); ++i) {
    const LinearSystem::Checkpoint& cp = trail[i];
    if (cp.num_variables < prev_vars || cp.num_constraints < prev_rows) {
      out.push_back("checkpoint " + std::to_string(i) +
                    " is not monotone: (" + std::to_string(cp.num_variables) +
                    " vars, " + std::to_string(cp.num_constraints) +
                    " rows) below its predecessor (" +
                    std::to_string(prev_vars) + " vars, " +
                    std::to_string(prev_rows) + " rows)");
    }
    if (cp.num_variables > num_variables ||
        cp.num_constraints > num_constraints) {
      out.push_back("checkpoint " + std::to_string(i) + " records (" +
                    std::to_string(cp.num_variables) + " vars, " +
                    std::to_string(cp.num_constraints) +
                    " rows) beyond the live system (" +
                    std::to_string(num_variables) + " vars, " +
                    std::to_string(num_constraints) + " rows)");
    }
    prev_vars = cp.num_variables;
    prev_rows = cp.num_constraints;
  }
  return out;
}

std::vector<std::string> AuditTableau(const LinearSystem& system,
                                      const LpTableau& tableau) {
  std::vector<std::string> out;
  const size_t m = tableau.rows.size();
  const size_t cols = tableau.columns.size();

  if (tableau.num_constraints > system.NumConstraints()) {
    out.push_back("tableau covers " +
                  std::to_string(tableau.num_constraints) +
                  " system rows but the system has only " +
                  std::to_string(system.NumConstraints()));
  }
  if (tableau.basis.size() != m || tableau.rhs.size() != m) {
    out.push_back("shape mismatch: " + std::to_string(m) + " rows vs " +
                  std::to_string(tableau.basis.size()) + " basis entries / " +
                  std::to_string(tableau.rhs.size()) + " rhs entries");
    return out;  // Nothing below indexes safely.
  }

  for (size_t j = 0; j < cols; ++j) {
    const LpColumnInfo& column = tableau.columns[j];
    if (column.kind == LpColumnInfo::Kind::kStructural) {
      if (column.index < 0 ||
          static_cast<size_t>(column.index) >= system.NumVariables()) {
        out.push_back("structural column " + std::to_string(j) +
                      " names unknown variable " +
                      std::to_string(column.index));
      }
    } else {
      if (column.index < 0 ||
          static_cast<size_t>(column.index) >= tableau.num_constraints) {
        out.push_back("slack column " + std::to_string(j) +
                      " names row " + std::to_string(column.index) +
                      " outside the covered prefix");
      }
      if (column.sub_sign != -1 && column.sub_sign != 1) {
        out.push_back("slack column " + std::to_string(j) +
                      " has substitution sign " +
                      std::to_string(column.sub_sign) + " (want ±1)");
      }
    }
  }

  const std::vector<std::string> row_violations = AuditTableauRows(tableau);
  if (!row_violations.empty()) {
    out.insert(out.end(), row_violations.begin(), row_violations.end());
    return out;  // The unit-column walk below assumes well-formed rows.
  }

  std::vector<int> basic_in(cols, -1);
  for (size_t i = 0; i < m; ++i) {
    const int b = tableau.basis[i];
    if (b >= static_cast<int>(cols)) {
      out.push_back("basis entry " + std::to_string(i) +
                    " names column " + std::to_string(b) + " of " +
                    std::to_string(cols));
      continue;
    }
    if (b < 0) {
      // A degenerate artificial still basic: the row must be at value 0.
      if (!tableau.rhs[i].is_zero()) {
        out.push_back("artificial-basic row " + std::to_string(i) +
                      " has nonzero rhs (must be degenerate)");
      }
      continue;
    }
    if (basic_in[b] >= 0) {
      out.push_back("column " + std::to_string(b) + " is basic in rows " +
                    std::to_string(basic_in[b]) + " and " +
                    std::to_string(i));
      continue;
    }
    basic_in[b] = static_cast<int>(i);
  }

  // Unit-column property: a basic column carries 1 in its own row and 0
  // everywhere else — the algebraic core of "x_B = rhs − Σ nonbasic terms".
  // One pass over the stored cells; a basic column whose own-row cell is
  // never met is absent, i.e. zero.
  const LpRowStore& rows = tableau.rows;
  const Num one(1);
  std::vector<bool> unit_seen(cols, false);
  for (size_t i = 0; i < m; ++i) {
    for (size_t k = 0; k < rows.RowSize(i); ++k) {
      const size_t j = static_cast<size_t>(rows.Col(i, k));
      if (basic_in[j] < 0) continue;
      if (i != static_cast<size_t>(basic_in[j])) {
        out.push_back("basic column " + std::to_string(j) +
                      " has a nonzero entry outside its row, at " +
                      RowCol(i, j));
      } else if (rows.Value(i, k) == one) {
        unit_seen[j] = true;
      }
    }
  }
  for (size_t j = 0; j < cols; ++j) {
    if (basic_in[j] >= 0 && !unit_seen[j]) {
      out.push_back("basic column " + std::to_string(j) +
                    " is not unit in its own row " +
                    std::to_string(basic_in[j]));
    }
  }

  for (size_t i = 0; i < m; ++i) {
    if (tableau.rhs[i].sign() < 0) {
      out.push_back("negative rhs in row " + std::to_string(i) +
                    " (an infeasible re-solve leaked into a kept tableau)");
    }
    CheckCell(tableau.rhs[i], "rhs of row " + std::to_string(i), &out);
    for (size_t k = 0; k < rows.RowSize(i); ++k) {
      const size_t j = static_cast<size_t>(rows.Col(i, k));
      CheckCell(rows.Value(i, k), RowCol(i, j), &out);
    }
  }
  return out;
}

std::vector<std::string> AuditTableauRows(const LpTableau& tableau) {
  std::vector<std::string> out;
  const LpRowStore& rows = tableau.rows;
  const size_t width = tableau.columns.size();
  const size_t used = rows.cells_used;
  if (rows.row_len.size() != rows.size() || rows.cell_num.size() < used ||
      rows.cell_den.size() < used || rows.cell_col.size() < used) {
    out.push_back("row store shape mismatch: " +
                  std::to_string(rows.size()) + " run starts, " +
                  std::to_string(rows.row_len.size()) + " run lengths, " +
                  std::to_string(used) + " cells used");
    return out;  // Nothing below indexes safely.
  }
  // Runs: inside the used prefix and pairwise disjoint (sorted by start,
  // each must end before the next begins); their lengths sum to the live
  // count.
  std::vector<std::pair<size_t, size_t>> runs;  // (start, row)
  size_t live = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t start = rows.row_start[i];
    const size_t len = rows.row_len[i];
    if (start > used || len > used - start) {
      out.push_back("row " + std::to_string(i) + " runs over cells [" +
                    std::to_string(start) + ", " +
                    std::to_string(start + len) +
                    ") past the used prefix of " + std::to_string(used));
      continue;
    }
    live += len;
    if (len > 0) runs.emplace_back(start, i);
  }
  if (!out.empty()) return out;
  std::sort(runs.begin(), runs.end());
  for (size_t r = 1; r < runs.size(); ++r) {
    const size_t prev = runs[r - 1].second;
    if (rows.row_start[prev] + rows.row_len[prev] > runs[r].first) {
      out.push_back("rows " + std::to_string(prev) + " and " +
                    std::to_string(runs[r].second) + " share store cells");
    }
  }
  if (live != rows.live_cells) {
    out.push_back("row store counts " + std::to_string(rows.live_cells) +
                  " live cells, but its runs hold " + std::to_string(live));
  }
  size_t live_big = 0;
  std::vector<bool> big_seen(rows.big.size(), false);
  for (size_t i = 0; i < rows.size(); ++i) {
    int prev = -1;
    for (size_t k = 0; k < rows.RowSize(i); ++k) {
      const size_t s = rows.row_start[i] + k;
      const int j = rows.cell_col[s];
      if (j < 0 || static_cast<size_t>(j) >= width) {
        out.push_back("row " + std::to_string(i) + " lists column " +
                      std::to_string(j) + " outside width " +
                      std::to_string(width));
      } else if (j <= prev) {
        out.push_back("row " + std::to_string(i) +
                      " columns are not strictly increasing at column " +
                      std::to_string(j));
      }
      prev = j;
      const std::string where = RowCol(i, static_cast<size_t>(j));
      if (rows.cell_den[s] != 0) {
        if (rows.cell_num[s] == 0) out.push_back("stored zero at " + where);
        continue;
      }
      ++live_big;
      const internal::Word index = rows.cell_num[s];
      if (index < 0 || static_cast<size_t>(index) >= rows.big.size()) {
        out.push_back("big cell at " + where + " names entry " +
                      std::to_string(index) + " of " +
                      std::to_string(rows.big.size()));
        continue;
      }
      if (big_seen[static_cast<size_t>(index)]) {
        out.push_back("big entry " + std::to_string(index) +
                      " is shared, again at " + where);
      }
      big_seen[static_cast<size_t>(index)] = true;
      if (rows.big[static_cast<size_t>(index)].is_small()) {
        out.push_back("big cell at " + where +
                      " holds a value that fits the small tier");
      }
    }
  }
  if (live_big != rows.live_big) {
    out.push_back("row store counts " + std::to_string(rows.live_big) +
                  " live big cells, but its runs hold " +
                  std::to_string(live_big));
  }
  return out;
}

std::vector<std::string> AuditFastLaneOp(char op, internal::Word a,
                                         internal::Word b, internal::Word c,
                                         internal::Word d, internal::Word rn,
                                         internal::Word rd) {
  std::vector<std::string> out;
  const std::string what = std::string("fast-lane ") + op + " of " +
                           std::to_string(a) + "/" + std::to_string(b) +
                           " and " + std::to_string(c) + "/" +
                           std::to_string(d) + " -> " + std::to_string(rn) +
                           "/" + std::to_string(rd);
  if (rd <= 0) {
    out.push_back("non-positive denominator in " + what);
    return out;
  }
  if (rn == INT64_MIN) {
    out.push_back("INT64_MIN numerator (non-canonical small word) in " + what);
    return out;
  }
  const bool reduced =
      rn == 0 ? rd == 1
              : internal::Gcd64(internal::Mag64(rn),
                                static_cast<uint64_t>(rd)) == 1;
  if (!reduced) out.push_back("unreduced fast-lane words in " + what);
  const Rational lhs{BigInt(a), BigInt(b)};
  const Rational rhs{BigInt(c), BigInt(d)};
  const Rational expect = op == '*' ? lhs * rhs : lhs + rhs;
  if (!(expect == Rational(BigInt(rn), BigInt(rd)))) {
    out.push_back("Rational recomputation disagrees with " + what);
  }
  return out;
}

std::vector<std::string> AuditRowSupport(const std::vector<Num>& cells,
                                         size_t width,
                                         const std::vector<int>& support,
                                         size_t row) {
  std::vector<std::string> out;
  std::vector<bool> listed(width, false);
  int prev = -1;
  for (int j : support) {
    if (j <= prev) {
      out.push_back("support of row " + std::to_string(row) +
                    " is not strictly increasing at column " +
                    std::to_string(j));
    }
    prev = j;
    if (j < 0 || static_cast<size_t>(j) >= width) {
      out.push_back("support of row " + std::to_string(row) +
                    " names column " + std::to_string(j) + " outside width " +
                    std::to_string(width));
      continue;
    }
    listed[static_cast<size_t>(j)] = true;
    if (cells[static_cast<size_t>(j)].is_zero()) {
      out.push_back("zero cell listed in support at " + RowCol(row, j));
    }
  }
  for (size_t j = 0; j < width; ++j) {
    if (!listed[j] && !cells[j].is_zero()) {
      out.push_back("nonzero cell missing from support at " +
                    RowCol(row, j));
    }
  }
  return out;
}

}  // namespace xicc
