#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "base/num.h"
#include "base/status.h"

namespace xicc {

/// Index of a variable within a LinearSystem.
using VarId = int;

/// A linear combination of variables plus a constant term. Terms with the
/// same variable are merged; zero-coefficient terms are dropped. Builders
/// pass BigInt (or int64) coefficients, which convert to the two-tier Num.
class LinearExpr {
 public:
  LinearExpr() = default;
  explicit LinearExpr(Num constant) : constant_(std::move(constant)) {}

  /// Adds coeff · var.
  LinearExpr& Add(VarId var, Num coeff);
  LinearExpr& AddConstant(const Num& value);

  const std::map<VarId, Num>& terms() const { return terms_; }
  const Num& constant() const { return constant_; }

  /// Convenience: the expression consisting of a single variable.
  static LinearExpr Var(VarId var) {
    LinearExpr e;
    e.Add(var, Num(1));
    return e;
  }

 private:
  std::map<VarId, Num> terms_;
  Num constant_;
};

enum class RelOp {
  kLe,  ///< expr <= rhs
  kGe,  ///< expr >= rhs
  kEq,  ///< expr == rhs
};

/// One row: expr (op) rhs, with rhs folded together with expr's constant.
/// Coefficients are a flat vector sorted by VarId — one allocation per row
/// instead of a map node (plus BigInt limbs) per term, which is what makes
/// trail push/pop and whole-system copies (a session's skeleton) cheap.
struct LinearConstraint {
  std::vector<std::pair<VarId, Num>> coeffs;
  RelOp op;
  Num rhs;
};

/// A system of linear constraints over nonnegative integer variables — the
/// target language of the paper's encodings (all cardinality variables are
/// counts, hence ≥ 0; Section 4 relies on this for the Papadimitriou bound).
class LinearSystem {
 public:
  /// Creates a variable; `name` is used in diagnostics and printouts.
  VarId AddVariable(std::string name);

  /// Adds `expr (op) rhs`. The expression's constant is moved to the rhs.
  void AddConstraint(const LinearExpr& expr, RelOp op, Num rhs);

  /// Adds an already-assembled row (used by the cut generator). `coeffs`
  /// must be sorted by VarId with no duplicates or zeros.
  void AddRaw(LinearConstraint constraint) {
    constraints_.push_back(std::move(constraint));
  }

  /// expr1 == expr2, expr1 <= expr2 conveniences.
  void AddEq(const LinearExpr& lhs, const LinearExpr& rhs);
  void AddLe(const LinearExpr& lhs, const LinearExpr& rhs);

  size_t NumVariables() const { return names_.size(); }
  size_t NumConstraints() const { return constraints_.size(); }
  const std::string& VarName(VarId var) const { return names_[var]; }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

  /// Largest absolute value among coefficients and right-hand sides — the
  /// `a` of the Papadimitriou bound. Rows are integral (the cut generator
  /// clears denominators), so this is the largest |numerator|.
  BigInt MaxAbsValue() const;

  /// Total stored coefficients across all rows — the numerator of the
  /// nonzero density the sparse simplex kernel and the benches report
  /// (coefficient lists carry no zeros, so stored == nonzero).
  size_t NumNonzeros() const;

  /// Trail checkpointing: since rows and variables are only ever appended,
  /// a checkpoint is the pair of current sizes and popping truncates back to
  /// it. This lets the search tree, the Gomory cut loop and the presolve
  /// loop explore by push/solve/pop on ONE system — O(1) amortized per
  /// node — instead of deep-copying O(rows) at every node.
  void PushCheckpoint();
  /// Undoes every AddVariable/AddConstraint/AddRaw since the matching
  /// PushCheckpoint. Must pair with a prior push.
  void PopCheckpoint();
  size_t CheckpointDepth() const { return trail_.size(); }

  /// One trail entry: the system sizes at PushCheckpoint time.
  struct Checkpoint {
    size_t num_variables;
    size_t num_constraints;
  };
  /// The live trail, oldest first — read by AuditTrail (ilp/audit.h) to
  /// machine-check checkpoint discipline in XICC_AUDIT builds.
  const std::vector<Checkpoint>& checkpoints() const { return trail_; }

  /// Human-readable rendering, one constraint per line.
  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<LinearConstraint> constraints_;
  std::vector<Checkpoint> trail_;
};

/// RAII pairing of PushCheckpoint/PopCheckpoint: everything appended to the
/// system while the scope is alive is rolled back when it closes. Used to
/// guarantee a shared system (e.g. a compiled skeleton) is returned to its
/// entry state no matter which path leaves the solver.
class TrailScope {
 public:
  explicit TrailScope(LinearSystem* system) : system_(system) {
    system_->PushCheckpoint();
  }
  ~TrailScope() { system_->PopCheckpoint(); }
  TrailScope(const TrailScope&) = delete;
  TrailScope& operator=(const TrailScope&) = delete;

 private:
  LinearSystem* system_;
};

}  // namespace xicc
