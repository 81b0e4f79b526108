#include "analysis/analyze.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint_rules.h"
#include "analysis/source_model.h"

namespace xicc {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string Finding::Key() const {
  return rule + "|" + file + "|" + context;
}

std::string Finding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<LintRuleInfo>& AnalyzeRules() {
  static const std::vector<LintRuleInfo> kRules = {
      {"lock-order",
       "the global lock-acquisition graph (MutexLock nesting + "
       "ACQUIRED_AFTER annotations) is acyclic, leaf locks stay terminal, "
       "and LOCK_ORDER.md matches it",
       true},
      {"stop-poll",
       "every src/ilp + src/core loop reaching solver/fan-out work polls "
       "the StopSignal within a bounded statement window",
       false},
      {"include-cycle",
       "the quoted-include graph over src/ is acyclic (the layer matrix "
       "ships in the JSON report)",
       false},
  };
  return kRules;
}

AnalysisReport AnalyzeModel(const SourceModel& model) {
  AnalysisReport report;
  report.files_scanned = model.files.size();

  // The migrated lint rules ride the same model pass.
  for (const SourceFile& file : model.files) {
    for (const LintIssue& issue : LintSourceFile(file)) {
      Finding f;
      f.rule = issue.rule;
      f.file = issue.file;
      f.line = issue.line;
      f.message = issue.message;
      f.context = issue.message;
      report.findings.push_back(std::move(f));
    }
  }

  AnalyzeLockOrder(model, &report.lock_graph, &report.findings);
  AnalyzeStopPoll(model, &report.findings);
  AnalyzeIncludeGraph(model, &report.include_matrix, &report.findings);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.context < b.context;
            });
  return report;
}

std::string RenderLockOrderMd(const LockGraph& graph) {
  std::ostringstream out;
  out << "# Lock order\n\n";
  out << "Generated by `xicc_analyze --fix` from MutexLock nesting and\n"
         "`ACQUIRED_AFTER` / `xicc-analyze:` annotations. Do not edit by\n"
         "hand — re-run the tool; CI fails when this file is stale.\n\n";

  out << "## Locks\n\n";
  out << "| lock | declared | leaf |\n";
  out << "|------|----------|------|\n";
  for (const LockGraph::Node& node : graph.nodes) {
    out << "| `" << node.name << "` | ";
    if (node.file.empty()) {
      out << "(external)";
    } else {
      out << node.file << ":" << node.line;
    }
    out << " | " << (node.leaf ? "yes" : "") << " |\n";
  }

  out << "\n## Acquisition edges (first → second)\n\n";
  if (graph.edges.empty()) {
    out << "No lock is ever acquired while another is held: the hierarchy\n"
           "is flat, which is the intended design — every critical section\n"
           "in the repo is a leaf.\n";
  } else {
    out << "| first | second | evidence | kind |\n";
    out << "|-------|--------|----------|------|\n";
    for (const LockGraph::Edge& edge : graph.edges) {
      out << "| `" << edge.from << "` | `" << edge.to << "` | ";
      if (edge.file.empty()) {
        out << "annotation";
      } else {
        out << edge.file << ":" << edge.line;
      }
      out << " | " << edge.kind << " |\n";
    }

    // Topological levels over the locks that participate in edges.
    std::map<std::string, std::set<std::string>> adj;
    std::map<std::string, size_t> indegree;
    for (const LockGraph::Edge& edge : graph.edges) {
      if (adj[edge.from].insert(edge.to).second) indegree[edge.to] += 1;
      indegree[edge.from];  // Ensure presence.
    }
    out << "\n## Hierarchy\n\n";
    out << "Locks listed earlier may be held while acquiring locks listed\n"
           "later; never the reverse.\n\n";
    std::set<std::string> emitted;
    size_t level = 0;
    while (emitted.size() < indegree.size()) {
      std::vector<std::string> ready;
      for (const auto& [name, degree] : indegree) {
        if (emitted.count(name) > 0) continue;
        size_t effective = 0;
        for (const auto& [from, tos] : adj) {
          if (emitted.count(from) > 0) continue;
          if (from != name && tos.count(name) > 0) ++effective;
        }
        if (effective == 0) ready.push_back(name);
      }
      if (ready.empty()) {
        out << "(cycle — see findings)\n";
        break;
      }
      out << ++level << ". ";
      for (size_t i = 0; i < ready.size(); ++i) {
        if (i > 0) out << ", ";
        out << "`" << ready[i] << "`";
        emitted.insert(ready[i]);
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string RenderFindingsJson(const AnalysisReport& report,
                               const std::set<std::string>& baseline) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"files_scanned\": " << report.files_scanned << ",\n";
  out << "  \"findings\": [";
  bool first = true;
  size_t new_count = 0;
  for (const Finding& f : report.findings) {
    const bool is_new = baseline.count(f.Key()) == 0;
    if (is_new) ++new_count;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"rule\": \"" << JsonEscape(f.rule) << "\", \"file\": \""
        << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"new\": " << (is_new ? "true" : "false")
        << ", \"message\": \"" << JsonEscape(f.message)
        << "\", \"context\": \"" << JsonEscape(f.context) << "\"}";
  }
  out << (first ? "" : "\n  ") << "],\n";
  out << "  \"new_findings\": " << new_count << ",\n";

  out << "  \"lock_graph\": {\n    \"nodes\": [";
  first = true;
  for (const LockGraph::Node& node : report.lock_graph.nodes) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "      {\"name\": \"" << JsonEscape(node.name) << "\", \"file\": \""
        << JsonEscape(node.file) << "\", \"line\": " << node.line
        << ", \"leaf\": " << (node.leaf ? "true" : "false") << "}";
  }
  out << (first ? "" : "\n    ") << "],\n    \"edges\": [";
  first = true;
  for (const LockGraph::Edge& edge : report.lock_graph.edges) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "      {\"from\": \"" << JsonEscape(edge.from) << "\", \"to\": \""
        << JsonEscape(edge.to) << "\", \"file\": \"" << JsonEscape(edge.file)
        << "\", \"line\": " << edge.line << ", \"kind\": \""
        << JsonEscape(edge.kind) << "\"}";
  }
  out << (first ? "" : "\n    ") << "]\n  },\n";

  out << "  \"include_matrix\": {";
  first = true;
  for (const auto& [from, row] : report.include_matrix) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    \"" << JsonEscape(from) << "\": {";
    bool first_col = true;
    for (const auto& [to, count] : row) {
      out << (first_col ? "" : ", ");
      first_col = false;
      out << "\"" << JsonEscape(to) << "\": " << count;
    }
    out << "}";
  }
  out << (first ? "" : "\n  ") << "}\n";
  out << "}\n";
  return out.str();
}

std::set<std::string> ParseBaseline(const std::string& content) {
  std::set<std::string> keys;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  return keys;
}

std::string RenderBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) keys.insert(f.Key());
  std::ostringstream out;
  out << "# xicc_analyze baseline: accepted findings, one `rule|file|context`"
         " per line.\n";
  out << "# Regenerate with `xicc_analyze --write-baseline`; keep this file "
         "empty\n";
  out << "# by fixing findings instead of baselining them whenever "
         "possible.\n";
  for (const std::string& key : keys) out << key << "\n";
  return out.str();
}

std::vector<Finding> NewFindings(const std::vector<Finding>& findings,
                                 const std::set<std::string>& baseline) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (baseline.count(f.Key()) == 0) out.push_back(f);
  }
  return out;
}

Result<AnalyzeRunReport> AnalyzeRepo(const std::string& root, bool fix) {
  namespace fs = std::filesystem;
  if (fix) {
    // Mechanical lint fixes first, so the model reflects the fixed tree.
    XICC_ASSIGN_OR_RETURN(LintRunReport unused, RunLint(root, /*fix=*/true));
    (void)unused.files_fixed;  // xicc-lint: allow(void-discard)
  }
  AnalyzeRunReport run;
  XICC_ASSIGN_OR_RETURN(SourceModel model, BuildSourceModelFromDisk(root));
  run.analysis = AnalyzeModel(model);

  const fs::path lock_order_path = fs::path(root) / "LOCK_ORDER.md";
  const std::string rendered = RenderLockOrderMd(run.analysis.lock_graph);
  std::string committed;
  {
    std::ifstream in(lock_order_path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      committed = buffer.str();
    }
  }
  if (fix) {
    if (committed != rendered) {
      std::ofstream out(lock_order_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        return Status::Internal("cannot write '" + lock_order_path.string() +
                                "'");
      }
      out << rendered;
    }
    run.lock_order_fresh = true;
  } else if (committed != rendered) {
    run.lock_order_fresh = false;
    Finding f;
    f.rule = "lock-order";
    f.file = "LOCK_ORDER.md";
    f.line = 1;
    f.message = committed.empty()
                    ? "LOCK_ORDER.md is missing: run `xicc_analyze --fix` "
                      "and commit it"
                    : "LOCK_ORDER.md is stale: the lock graph changed; run "
                      "`xicc_analyze --fix` and commit the result";
    f.context = "lock-order-md";
    run.analysis.findings.push_back(std::move(f));
  }
  return run;
}

}  // namespace xicc
