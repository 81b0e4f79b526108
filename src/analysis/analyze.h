#pragma once

// xicc_analyze — the semantic analysis engines over the shared source model.
//
// Where the lint rules check single lines, these engines check properties that
// only exist across statements, functions, and files:
//
//   lock-order       global lock-acquisition graph from MutexLock nesting
//                    plus ACQUIRED_AFTER / `xicc-analyze:` annotations;
//                    cycles, self-nesting, and leaf violations are findings,
//                    and the inferred hierarchy is emitted as LOCK_ORDER.md.
//   stop-poll        every loop in src/ilp + src/core whose body transitively
//                    reaches solver/fan-out work must poll the cancellation
//                    plumbing (ShouldStop / Cancelled) within a bounded
//                    statement window.
//   status-drop      a bare `Foo(...);` statement whose callee returns
//                    Status/Result drops the error — the dataflow cousin of
//                    [[nodiscard]], catching macro and chain contexts.
//   arena-escape     ArenaVector locals / arena-backed pointers stored into
//                    members or out-params, or returned past the ArenaScope
//                    that owns their memory.
//   include-cycle    full include graph over src/: cycles are findings and
//                    the directory-level edge matrix feeds the JSON report.
//
// Suppression reuses the lint mechanism: `// xicc-lint: allow(rule)` on the
// finding's line or the line above. Each engine's soundness envelope — what
// it can and cannot see on top of the non-preprocessing source model — is
// documented in DESIGN.md §11.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lint_rules.h"
#include "analysis/source_model.h"
#include "base/status.h"

namespace xicc {

/// One analyzer finding. `context` is the line-number-independent part of
/// the identity (function, lock pair, cycle path, ...) so baselines survive
/// unrelated edits.
struct Finding {
  std::string rule;
  std::string file;
  size_t line = 0;
  std::string message;
  std::string context;

  /// Line-independent identity used for baseline matching.
  std::string Key() const;
  /// "file:line: [rule] message" — same diagnostic shape as the lint.
  std::string ToString() const;
};

/// The global lock-acquisition graph.
struct LockGraph {
  struct Node {
    std::string name;  ///< Qualified "Class::member" (or bare member).
    std::string file;
    size_t line = 0;
    bool leaf = false;  ///< Annotated `lock-leaf`.
  };
  /// `from` is acquired (or annotated) BEFORE `to`.
  struct Edge {
    std::string from;
    std::string to;
    std::string file;  ///< Evidence site ("" for pure annotations).
    size_t line = 0;
    std::string kind;  ///< "nesting" or "annotation".
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;
};

struct AnalysisReport {
  std::vector<Finding> findings;  ///< All engines + lint, sorted.
  LockGraph lock_graph;
  /// Directory-level include edge counts: matrix[from][to] = #includes.
  std::map<std::string, std::map<std::string, size_t>> include_matrix;
  size_t files_scanned = 0;
};

/// The semantic rules (the lint rules are listed by LintRules()).
const std::vector<LintRuleInfo>& AnalyzeRules();

/// ---- Individual engines (exposed for the fixture tests). ----
void AnalyzeLockOrder(const SourceModel& model, LockGraph* graph,
                      std::vector<Finding>* findings);
void AnalyzeStopPoll(const SourceModel& model, std::vector<Finding>* findings);
void AnalyzeStatusFlow(const SourceModel& model,
                       std::vector<Finding>* findings);
void AnalyzeArenaEscape(const SourceModel& model,
                        std::vector<Finding>* findings);
void AnalyzeIncludeGraph(
    const SourceModel& model,
    std::map<std::string, std::map<std::string, size_t>>* matrix,
    std::vector<Finding>* findings);

/// Runs every engine plus the migrated lint rules over one model; findings
/// come back sorted by (file, line, rule).
AnalysisReport AnalyzeModel(const SourceModel& model);

/// Renders the inferred lock hierarchy as the committed LOCK_ORDER.md.
std::string RenderLockOrderMd(const LockGraph& graph);

/// Machine-readable report. `new_keys` marks which findings are new vs. the
/// baseline (empty set = everything is new / no baseline given).
std::string RenderFindingsJson(const AnalysisReport& report,
                               const std::set<std::string>& baseline);

/// Baseline files are sorted `rule|file|context` lines; '#' starts a
/// comment.
std::set<std::string> ParseBaseline(const std::string& content);
std::string RenderBaseline(const std::vector<Finding>& findings);

/// Findings whose Key() is not covered by `baseline`.
std::vector<Finding> NewFindings(const std::vector<Finding>& findings,
                                 const std::set<std::string>& baseline);

struct AnalyzeRunReport {
  AnalysisReport analysis;
  /// True when LOCK_ORDER.md on disk matched the rendered hierarchy (always
  /// true after --fix rewrote it).
  bool lock_order_fresh = true;
};

/// Builds the model from `root`, runs AnalyzeModel, and checks the committed
/// LOCK_ORDER.md against the inferred hierarchy (stale ⇒ a lock-order-stale
/// finding). With `fix`, applies the mechanical lint fixes and rewrites
/// LOCK_ORDER.md in place instead.
Result<AnalyzeRunReport> AnalyzeRepo(const std::string& root, bool fix);

}  // namespace xicc
