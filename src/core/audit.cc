#include "core/audit.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xicc {

namespace {

/// FNV-1a, 64-bit.
struct Digest {
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t state = 14695981039346656037ull;

  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= kPrime;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  /// Folds `count` × U64(0) in O(log count). A zero byte's xor is a no-op,
  /// so each U64(0) multiplies the state by kPrime⁸, and a run of them by
  /// (kPrime⁸)^count mod 2⁶⁴ (square-and-multiply).
  void Zeros(uint64_t count) {
    uint64_t base = kPrime * kPrime;
    base *= base;
    base *= base;
    for (; count != 0; count >>= 1) {
      if (count & 1) state *= base;
      base *= base;
    }
  }
};

}  // namespace

uint64_t CompiledDtdDigest(const CompiledDtd& compiled) {
  Digest d;

  // The Σ-independent skeleton: every row and variable of Ψ's shared part.
  d.Str(compiled.skeleton.system.ToString());
  d.U64(compiled.skeleton.system.NumVariables());
  d.U64(compiled.skeleton.system.CheckpointDepth());
  for (const auto& [symbol, var] : compiled.skeleton.ext_var) {
    d.Str(symbol);
    d.U64(static_cast<uint64_t>(var));
  }
  for (const auto& [pair, var] : compiled.skeleton.attr_var) {
    d.Str(pair.first);
    d.Str(pair.second);
    d.U64(static_cast<uint64_t>(var));
  }

  // The factorized skeleton basis every session warm-starts from.
  d.U64(compiled.skeleton_tableau_valid ? 1 : 0);
  const LpTableau& tab = compiled.skeleton_tableau;
  d.U64(tab.num_constraints);
  d.U64(tab.columns.size());
  for (const LpColumnInfo& column : tab.columns) {
    d.U64(column.kind == LpColumnInfo::Kind::kStructural ? 0 : 1);
    d.U64(static_cast<uint64_t>(static_cast<int64_t>(column.index)));
    d.U64(static_cast<uint64_t>(static_cast<int64_t>(column.sub_sign)));
  }
  d.U64(tab.basis.size());
  for (int b : tab.basis) d.U64(static_cast<uint64_t>(static_cast<int64_t>(b)));
  for (const Num& r : tab.rhs) d.Str(r.ToString());
  // Rows fold in as if dense, one mark per column (and the value of each
  // nonzero), so the digest does not depend on how rows are stored; a run of
  // absent cells folds in one step. Cells a well-formed row cannot hold —
  // out of order or past the width — still fold in afterwards, so writing
  // one through the artifact is caught too.
  const int64_t width = static_cast<int64_t>(tab.columns.size());
  const LpRowStore& rows = tab.rows;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t len = rows.RowSize(i);
    size_t k = 0;
    int64_t c = 0;  // Next column of the dense walk.
    for (; k < len && rows.Col(i, k) >= c && rows.Col(i, k) < width; ++k) {
      d.Zeros(static_cast<uint64_t>(rows.Col(i, k) - c));
      d.Str(rows.Value(i, k).ToString());
      d.U64(1);
      c = rows.Col(i, k) + 1;
    }
    d.Zeros(static_cast<uint64_t>(width - c));
    for (; k < len; ++k) {
      d.U64(static_cast<uint64_t>(static_cast<int64_t>(rows.Col(i, k))));
      d.Str(rows.Value(i, k).ToString());
    }
  }

  // The linear-cell facts.
  d.U64(compiled.facts.has_valid_tree ? 1 : 0);
  for (const auto& [symbol, mult] : compiled.facts.multiplicity) {
    d.Str(symbol);
    d.U64(static_cast<uint64_t>(mult));
  }
  return d.state;
}

std::vector<std::string> AuditCompiledDtd(const CompiledDtd& compiled) {
  std::vector<std::string> out;
  const uint64_t now = CompiledDtdDigest(compiled);
  if (compiled.audit_digest != 0 && now != compiled.audit_digest) {
    out.push_back(
        "compiled-DTD digest changed: compiled with " +
        std::to_string(compiled.audit_digest) + ", now " +
        std::to_string(now) +
        " — a session or solver wrote through the shared read-only artifact");
  }
  return out;
}

}  // namespace xicc
