#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/lint_rules.h"
#include "analysis/source_model.h"

namespace xicc {

void AnalyzeIncludeGraph(
    const SourceModel& model,
    std::map<std::string, std::map<std::string, size_t>>* matrix,
    std::vector<Finding>* findings) {
  // ---- Resolve quoted includes to model files; build adjacency. ----
  std::set<std::string> known;
  for (const SourceFile& file : model.files) known.insert(file.rel_path);
  std::map<std::string, std::vector<std::pair<std::string, size_t>>> adj;
  for (const SourceFile& file : model.files) {
    for (const IncludeRef& include : file.includes) {
      if (!include.quoted) continue;
      // Quoted includes are rooted at src/ ("base/status.h" →
      // "src/base/status.h"); a same-directory include resolves relative to
      // the including file.
      std::string target = "src/" + include.path;
      if (known.count(target) == 0) {
        const size_t slash = file.rel_path.rfind('/');
        if (slash != std::string::npos) {
          target = file.rel_path.substr(0, slash + 1) + include.path;
        }
      }
      if (known.count(target) == 0) continue;
      adj[file.rel_path].emplace_back(target, include.line);
      const std::string from_dir = file.dir.empty() ? "." : file.dir;
      const std::string to_dir = SourceSrcDir(target);
      (*matrix)[from_dir][to_dir.empty() ? "." : to_dir] += 1;
    }
  }

  // ---- Cycle detection over the file graph (path DFS, deterministic). ----
  std::set<std::string> done;
  std::set<std::string> reported;
  for (const SourceFile& root : model.files) {
    if (done.count(root.rel_path) > 0) continue;
    std::vector<std::pair<std::string, size_t>> stack;  // (file, next edge)
    std::set<std::string> on_path;
    stack.emplace_back(root.rel_path, 0);
    on_path.insert(root.rel_path);
    while (!stack.empty()) {
      auto& [name, next] = stack.back();
      const auto& out = adj[name];
      if (next >= out.size()) {
        done.insert(name);
        on_path.erase(name);
        stack.pop_back();
        continue;
      }
      const auto& [target, line] = out[next++];
      if (on_path.count(target) > 0) {
        std::vector<std::string> cycle;
        bool in_cycle = false;
        for (const auto& [n, unused] : stack) {
          if (n == target) in_cycle = true;
          if (in_cycle) cycle.push_back(n);
        }
        cycle.push_back(target);
        std::string path;
        for (const std::string& n : cycle) {
          if (!path.empty()) path += " -> ";
          path += n;
        }
        std::vector<std::string> sorted(cycle.begin(), cycle.end() - 1);
        std::sort(sorted.begin(), sorted.end());
        std::string canon;
        for (const std::string& n : sorted) canon += n + "|";
        if (reported.count(canon) == 0) {
          reported.insert(canon);
          const std::string at_file = cycle.size() >= 2
                                          ? cycle[cycle.size() - 2]
                                          : target;
          const SourceFile* at = model.Find(at_file);
          Finding f;
          f.rule = "include-cycle";
          f.file = at_file;
          f.line = line;
          f.message = "include cycle: " + path +
                      " — break it with a forward declaration or by moving "
                      "the shared piece down a layer";
          f.context = "cycle:" + canon;
          if (at == nullptr || !at->Suppressed(line, "include-cycle")) {
            findings->push_back(f);
          }
        }
        continue;
      }
      if (done.count(target) > 0) continue;
      stack.emplace_back(target, 0);
      on_path.insert(target);
    }
  }
}

}  // namespace xicc
