// Tests for the xicc_analyze source model and semantic rule engines:
// synthetic positive/negative fixtures per engine (seeded defects: deadlock
// cycle, missing poll, include cycle) plus the repo-clean integration gate.
// Dropped statuses are a compile error; tests/CMakeLists.txt checks that.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/lint_rules.h"
#include "analysis/source_model.h"
#include "gtest/gtest.h"

namespace xicc {
namespace {

std::vector<Finding> FindingsFor(const SourceModel& model,
                                 const std::string& rule) {
  AnalysisReport report = AnalyzeModel(model);
  std::vector<Finding> out;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Source model.

TEST(SourceModelTest, DigestsTokenizesAndSkipsDirectives) {
  const std::string content =
      "#pragma once\n"
      "#define MACRO(x) \\\n"
      "  do { broken(); } while (0)\n"
      "int Add(int a, int b) { return a + b; }  // comment with { brace\n"
      "const char* s = \"string with } brace\";\n";
  SourceFile file = BuildSourceFile("src/base/x.h", content);
  // Directive lines (and the continuation) contribute no tokens, so the
  // macro body's unbalanced-looking text never reaches the parser.
  for (const Token& token : file.tokens) {
    EXPECT_NE(token.text, "MACRO");
    EXPECT_NE(token.text, "broken");
  }
  ASSERT_EQ(file.functions.size(), 1u);
  EXPECT_EQ(file.functions[0].name, "Add");
  EXPECT_TRUE(file.functions[0].is_definition);
  EXPECT_EQ(file.functions[0].return_type, "int");
  EXPECT_EQ(file.functions[0].line, 4u);
}

TEST(SourceModelTest, TracksScopesMembersAndCalls) {
  const std::string content =
      "namespace xicc {\n"
      "class Pool {\n"
      " public:\n"
      "  Status Drain();\n"
      "  int Count() const { return Helper(n_); }\n"
      " private:\n"
      "  std::vector<int> items_;\n"
      "  size_t n_ = 0;\n"
      "};\n"
      "Status Pool::Drain() { Flush(); return Status::Ok(); }\n"
      "}  // namespace xicc\n";
  SourceFile file = BuildSourceFile("src/core/pool.cc", content);
  ASSERT_EQ(file.functions.size(), 3u);
  EXPECT_EQ(file.functions[0].name, "Drain");
  EXPECT_EQ(file.functions[0].class_name, "Pool");
  EXPECT_FALSE(file.functions[0].is_definition);
  EXPECT_EQ(file.functions[1].name, "Count");
  EXPECT_TRUE(file.functions[1].is_definition);
  EXPECT_EQ(file.functions[2].name, "Drain");
  EXPECT_EQ(file.functions[2].class_name, "Pool");
  EXPECT_TRUE(file.functions[2].is_definition);
  EXPECT_EQ(file.functions[2].return_type, "Status");

  std::vector<std::string> member_names;
  for (const MemberDecl& member : file.members) {
    member_names.push_back(member.class_name + "::" + member.name);
  }
  EXPECT_TRUE(std::count(member_names.begin(), member_names.end(),
                         "Pool::items_") == 1);
  EXPECT_TRUE(std::count(member_names.begin(), member_names.end(),
                         "Pool::n_") == 1);

  ASSERT_EQ(file.functions[2].calls.size(), 2u);
  EXPECT_EQ(file.functions[2].calls[0].callee, "Flush");
  EXPECT_EQ(file.functions[2].calls[1].callee, "Ok");
}

TEST(SourceModelTest, ExtractsMutexDeclsWithAnnotations) {
  const std::string content =
      "class XICC_CAPABILITY(\"mutex\") Guarded {\n"
      "  Mutex a_;  // xicc-analyze: lock-leaf\n"
      "  // xicc-analyze: acquired-after(Other::first_)\n"
      "  Mutex b_;\n"
      "  Mutex* handle_;\n"
      "};\n";
  SourceFile file = BuildSourceFile("src/base/g.h", content);
  ASSERT_EQ(file.mutexes.size(), 2u);  // The pointer is a handle, not a lock.
  EXPECT_EQ(file.mutexes[0].class_name, "Guarded");
  EXPECT_EQ(file.mutexes[0].name, "a_");
  EXPECT_TRUE(file.mutexes[0].leaf);
  EXPECT_EQ(file.mutexes[1].name, "b_");
  ASSERT_EQ(file.mutexes[1].acquired_after.size(), 1u);
  EXPECT_EQ(file.mutexes[1].acquired_after[0], "Other::first_");
}

TEST(SourceModelTest, SuppressionCoversOwnAndNextLine) {
  const std::string content =
      "int a;  // xicc-lint: allow(some-rule)\n"
      "int b;\n"
      "int c;\n";
  SourceFile file = BuildSourceFile("src/base/s.h", content);
  EXPECT_TRUE(file.Suppressed(1, "some-rule"));
  EXPECT_TRUE(file.Suppressed(2, "some-rule"));
  EXPECT_FALSE(file.Suppressed(3, "some-rule"));
  EXPECT_FALSE(file.Suppressed(1, "other-rule"));
}

// ---------------------------------------------------------------------------
// Lock order.

TEST(LockOrderTest, DetectsDeadlockCycleFromNesting) {
  // Seeded defect #1: two functions taking the same pair in opposite order.
  const std::string content =
      "struct Two {\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "  void First() {\n"
      "    MutexLock la(&a_);\n"
      "    MutexLock lb(&b_);\n"
      "  }\n"
      "  void Second() {\n"
      "    MutexLock lb(&b_);\n"
      "    MutexLock la(&a_);\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/two.cc", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  ASSERT_EQ(graph.edges.size(), 2u);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Two::a_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Two::b_"), std::string::npos);
}

TEST(LockOrderTest, ConsistentNestingIsCleanAndOrdered) {
  const std::string content =
      "struct Two {\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "  void First() {\n"
      "    MutexLock la(&a_);\n"
      "    MutexLock lb(&b_);\n"
      "  }\n"
      "  void Again() {\n"
      "    MutexLock la(&a_);\n"
      "    { MutexLock lb(&b_); }\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/two.cc", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Two::a_");
  EXPECT_EQ(graph.edges[0].to, "Two::b_");
}

TEST(LockOrderTest, ScopeEndsReleaseLocks) {
  // The braces around the first guard end before the second acquisition:
  // no nesting, no edge.
  const std::string content =
      "struct Two {\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "  void Sequential() {\n"
      "    { MutexLock la(&a_); }\n"
      "    { MutexLock lb(&b_); }\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/two.cc", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  EXPECT_TRUE(graph.edges.empty());
  EXPECT_TRUE(findings.empty());
}

TEST(LockOrderTest, AnnotationEdgesJoinTheGraph) {
  const std::string content =
      "struct Wakeable {\n"
      "  // xicc-analyze: acquired-after(Token::mu_)\n"
      "  Mutex sleep_mu_;\n"
      "};\n"
      "struct Token {\n"
      "  Mutex mu_;\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/base/w.h", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Token::mu_");
  EXPECT_EQ(graph.edges[0].to, "Wakeable::sleep_mu_");
  EXPECT_EQ(graph.edges[0].kind, "annotation");
  EXPECT_TRUE(findings.empty());
}

TEST(LockOrderTest, AnnotationConflictingWithNestingIsACycle) {
  // The annotation says token first; the code takes sleep first while
  // holding it acquires the token's lock — a cycle.
  const std::string content =
      "struct Wakeable {\n"
      "  // xicc-analyze: acquired-after(Token::mu_)\n"
      "  Mutex sleep_mu_;\n"
      "};\n"
      "struct Token {\n"
      "  Mutex mu_;\n"
      "  Wakeable* w_;\n"
      "  void Backwards() {\n"
      "    MutexLock ls(&w_->sleep_mu_);\n"
      "    MutexLock lt(&mu_);\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/base/w.h", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
}

TEST(LockOrderTest, LeafLockMustStayTerminal) {
  const std::string content =
      "struct Shardy {\n"
      "  Mutex mu_;  // xicc-analyze: lock-leaf\n"
      "  Mutex other_;\n"
      "  void Nested() {\n"
      "    MutexLock l(&mu_);\n"
      "    MutexLock m(&other_);\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/s.cc", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("lock-leaf"), std::string::npos);
}

TEST(LockOrderTest, SelfNestingIsSelfDeadlock) {
  const std::string content =
      "struct One {\n"
      "  Mutex mu_;\n"
      "  void Twice() {\n"
      "    MutexLock a(&mu_);\n"
      "    MutexLock b(&mu_);\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/one.cc", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("self-deadlock"), std::string::npos);
}

TEST(LockOrderTest, ResolvesLocksThroughMembersAndLocals) {
  // shards_[i].mu must resolve via the member's element type, and a local
  // reference must resolve via its declared type.
  const std::string content =
      "struct Shard {\n"
      "  Mutex mu;\n"
      "};\n"
      "struct Pool {\n"
      "  std::unique_ptr<Shard[]> shards_;\n"
      "  Mutex big_;\n"
      "  void Cross(size_t i) {\n"
      "    MutexLock l(&big_);\n"
      "    Shard& shard = shards_[i];\n"
      "    MutexLock m(&shard.mu);\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/base/p.h", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Pool::big_");
  EXPECT_EQ(graph.edges[0].to, "Shard::mu");
}

TEST(LockOrderTest, RenderedMarkdownIsDeterministic) {
  const std::string content =
      "struct Two {\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "  void First() {\n"
      "    MutexLock la(&a_);\n"
      "    MutexLock lb(&b_);\n"
      "  }\n"
      "};\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/two.cc", content}});
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(model, &graph, &findings);
  const std::string md = RenderLockOrderMd(graph);
  EXPECT_NE(md.find("`Two::a_`"), std::string::npos);
  EXPECT_NE(md.find("| `Two::a_` | `Two::b_` |"), std::string::npos);
  EXPECT_NE(md.find("## Hierarchy"), std::string::npos);

  LockGraph graph2;
  std::vector<Finding> findings2;
  AnalyzeLockOrder(model, &graph2, &findings2);
  EXPECT_EQ(md, RenderLockOrderMd(graph2));
}

// ---------------------------------------------------------------------------
// Stop-poll coverage.

TEST(StopPollTest, FlagsWorkLoopWithoutPoll) {
  // Seeded defect #2: a loop that pivots forever with no poll.
  const std::string content =
      "Status SolveIlp(int x);\n"
      "Status Grind(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    SolveIlp(i);\n"
      "  }\n"
      "  return Status::Ok();\n"
      "}\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/ilp/grind.cc", content}});
  std::vector<Finding> findings = FindingsFor(model, "stop-poll");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("never polls"), std::string::npos);
}

TEST(StopPollTest, DirectPollIsClean) {
  const std::string content =
      "Status SolveIlp(int x);\n"
      "Status Grind(const StopSignal& stop, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (stop.ShouldStop()) return stop.ToStatus();\n"
      "    SolveIlp(i);\n"
      "  }\n"
      "  return Status::Ok();\n"
      "}\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/ilp/grind.cc", content}});
  EXPECT_TRUE(FindingsFor(model, "stop-poll").empty());
}

TEST(StopPollTest, PollThroughCalleeIsClean) {
  // The loop calls a function that itself polls: covered transitively.
  const std::string content =
      "Status SolveIlp(int x);\n"
      "bool Guard(const StopSignal& stop) { return stop.ShouldStop(); }\n"
      "Status Grind(const StopSignal& stop, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (Guard(stop)) break;\n"
      "    SolveIlp(i);\n"
      "  }\n"
      "  return Status::Ok();\n"
      "}\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/ilp/grind.cc", content}});
  EXPECT_TRUE(FindingsFor(model, "stop-poll").empty());
}

TEST(StopPollTest, LoopWithoutWorkIsOutOfScope) {
  const std::string content =
      "int Sum(const std::vector<int>& v) {\n"
      "  int total = 0;\n"
      "  for (int x : v) {\n"
      "    total += x;\n"
      "  }\n"
      "  return total;\n"
      "}\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/core/sum.cc", content}});
  EXPECT_TRUE(FindingsFor(model, "stop-poll").empty());
}

TEST(StopPollTest, FaultProbeMarksInlineWorkLoop) {
  // The simplex pivot loops do their work inline — no solver entry point is
  // called — but they carry a fault probe, which doubles as the work marker.
  const std::string content =
      "int Pivot2(int a, int b) {\n"
      "  for (;;) {\n"
      "    XICC_FAULT_PROBE(kSimplexPivot);\n"
      "    a = a * b + 1;\n"
      "    if (a > b) break;\n"
      "  }\n"
      "  return a;\n"
      "}\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/ilp/pivot.cc", content}});
  std::vector<Finding> findings = FindingsFor(model, "stop-poll");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("never polls"), std::string::npos);
}

TEST(StopPollTest, WorkLoopAnnotationForcesTheCheck) {
  const std::string flagged =
      "int Grind(int n) {\n"
      "  // xicc-analyze: work-loop\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    n = n * 31 + i;\n"
      "  }\n"
      "  return n;\n"
      "}\n";
  SourceModel bad =
      BuildSourceModelFromContents({{"src/ilp/grind.cc", flagged}});
  EXPECT_EQ(FindingsFor(bad, "stop-poll").size(), 1u);

  const std::string polled =
      "int Grind(const StopSignal& stop, int n) {\n"
      "  // xicc-analyze: work-loop\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (stop.ShouldStop()) break;\n"
      "    n = n * 31 + i;\n"
      "  }\n"
      "  return n;\n"
      "}\n";
  SourceModel good =
      BuildSourceModelFromContents({{"src/ilp/grind.cc", polled}});
  EXPECT_TRUE(FindingsFor(good, "stop-poll").empty());
}

TEST(StopPollTest, NetDispatchLoopsMustObserveCancellation) {
  // src/net is in scope: Dispatch/HandleRequest are the daemon's fan-out
  // anchors, so an I/O loop that admits frames without ever checking the
  // connection's token would keep feeding the pool through a cancel/drain.
  const std::string unpolled =
      "void Dispatch(int frame);\n"
      "void PumpConnection(int* frames, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    Dispatch(frames[i]);\n"
      "  }\n"
      "}\n";
  SourceModel bad =
      BuildSourceModelFromContents({{"src/net/pump.cc", unpolled}});
  ASSERT_EQ(FindingsFor(bad, "stop-poll").size(), 1u);

  const std::string polled =
      "void Dispatch(int frame);\n"
      "void PumpConnection(const CancelToken& cancel, int* frames, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (cancel.Cancelled()) break;\n"
      "    Dispatch(frames[i]);\n"
      "  }\n"
      "}\n";
  SourceModel good =
      BuildSourceModelFromContents({{"src/net/pump.cc", polled}});
  EXPECT_TRUE(FindingsFor(good, "stop-poll").empty());

  // The same loop shape outside the scoped directories is not the
  // daemon's admission path and stays quiet.
  SourceModel elsewhere =
      BuildSourceModelFromContents({{"src/tools/pump.cc", unpolled}});
  EXPECT_TRUE(FindingsFor(elsewhere, "stop-poll").empty());
}

TEST(StopPollTest, SuppressionSilencesTheLoop) {
  const std::string content =
      "Status SolveIlp(int x);\n"
      "Status Grind(int n) {\n"
      "  // xicc-lint: allow(stop-poll)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    SolveIlp(i);\n"
      "  }\n"
      "  return Status::Ok();\n"
      "}\n";
  SourceModel model =
      BuildSourceModelFromContents({{"src/ilp/grind.cc", content}});
  EXPECT_TRUE(FindingsFor(model, "stop-poll").empty());
}

// ---------------------------------------------------------------------------
// Include graph.

TEST(IncludeGraphTest, DetectsIncludeCycle) {
  // Seeded defect #5: two headers including each other.
  SourceModel model = BuildSourceModelFromContents({
      {"src/base/a.h", "#pragma once\n#include \"base/b.h\"\n"},
      {"src/base/b.h", "#pragma once\n#include \"base/a.h\"\n"},
  });
  std::map<std::string, std::map<std::string, size_t>> matrix;
  std::vector<Finding> findings;
  AnalyzeIncludeGraph(model, &matrix, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_NE(findings[0].message.find("src/base/a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/base/b.h"), std::string::npos);
}

TEST(IncludeGraphTest, AcyclicGraphBuildsMatrix) {
  SourceModel model = BuildSourceModelFromContents({
      {"src/base/a.h", "#pragma once\n"},
      {"src/ilp/b.h", "#pragma once\n#include \"base/a.h\"\n"},
      {"src/ilp/c.cc", "#include \"ilp/b.h\"\n#include \"base/a.h\"\n"},
  });
  std::map<std::string, std::map<std::string, size_t>> matrix;
  std::vector<Finding> findings;
  AnalyzeIncludeGraph(model, &matrix, &findings);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(matrix["ilp"]["base"], 2u);
  EXPECT_EQ(matrix["ilp"]["ilp"], 1u);
}

// ---------------------------------------------------------------------------
// Report plumbing.

TEST(ReportTest, BaselineRoundTripsAndGatesFindings) {
  SourceModel model = BuildSourceModelFromContents({
      {"src/core/run.cc",
       "Status Commit(int n);\n"
       "void Run(int n) {\n"
       "  (void)Commit(n);\n"
       "}\n"},
  });
  AnalysisReport report = AnalyzeModel(model);
  ASSERT_FALSE(report.findings.empty());

  const std::string baseline_text = RenderBaseline(report.findings);
  const std::set<std::string> baseline = ParseBaseline(baseline_text);
  EXPECT_TRUE(NewFindings(report.findings, baseline).empty());
  EXPECT_EQ(NewFindings(report.findings, {}).size(), report.findings.size());
}

TEST(ReportTest, JsonReportIsWellFormedEnoughToGrep) {
  SourceModel model = BuildSourceModelFromContents({
      {"src/core/run.cc",
       "Status Commit(int n);\n"
       "void Run(int n) {\n"
       "  (void)Commit(n);\n"
       "}\n"},
  });
  AnalysisReport report = AnalyzeModel(model);
  const std::string json = RenderFindingsJson(report, {});
  EXPECT_NE(json.find("\"rule\": \"void-discard\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"new\": true"), std::string::npos);
  EXPECT_NE(json.find("\"include_matrix\""), std::string::npos);
  // Quotes and backslashes in messages must be escaped.
  EXPECT_EQ(json.find("\"message\": \"'"), json.find("\"message\": \"'"));
}

// ---------------------------------------------------------------------------
// Repo integration: the tree itself is clean vs. the committed baseline and
// the committed LOCK_ORDER.md is fresh.

#ifdef XICC_SOURCE_DIR
TEST(RepoAnalyzeTest, RepositoryIsAnalyzeClean) {
  Result<AnalyzeRunReport> run = AnalyzeRepo(XICC_SOURCE_DIR, /*fix=*/false);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->lock_order_fresh)
      << "LOCK_ORDER.md is stale; run xicc_analyze --fix and commit it";

  std::set<std::string> baseline;
  {
    std::ifstream in(std::string(XICC_SOURCE_DIR) + "/ANALYZE_BASELINE.txt",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing ANALYZE_BASELINE.txt";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    baseline = ParseBaseline(buffer.str());
  }
  std::string new_findings;
  for (const Finding& f : NewFindings(run->analysis.findings, baseline)) {
    new_findings += "  " + f.ToString() + "\n";
  }
  EXPECT_EQ(new_findings, "")
      << "new analyzer findings (fix them or baseline them):\n"
      << new_findings;
}

TEST(RepoAnalyzeTest, RepoLockGraphCoversTheConcurrencyStack) {
  Result<SourceModel> model = BuildSourceModelFromDisk(XICC_SOURCE_DIR);
  ASSERT_TRUE(model.ok()) << model.status();
  LockGraph graph;
  std::vector<Finding> findings;
  AnalyzeLockOrder(*model, &graph, &findings);
  std::set<std::string> names;
  for (const LockGraph::Node& node : graph.nodes) names.insert(node.name);
  // The locks the issue names: worksteal shards + sleep protocol, the memo
  // shards, the session pool, and the artifact cache.
  EXPECT_EQ(names.count("Shard::mu"), 1u);
  EXPECT_EQ(names.count("WorkStealingPool::sleep_mu_"), 1u);
  EXPECT_EQ(names.count("MemoShard::mu"), 1u);
  EXPECT_EQ(names.count("SessionPool::mu_"), 1u);
  EXPECT_EQ(names.count("ArtifactCache::mu_"), 1u);
  // The one cross-class ordering in the tree: CancelToken::mu_ is held
  // while the pool's wake callback takes sleep_mu_.
  bool found_edge = false;
  for (const LockGraph::Edge& edge : graph.edges) {
    if (edge.from == "CancelToken::mu_" &&
        edge.to == "WorkStealingPool::sleep_mu_") {
      found_edge = true;
    }
  }
  EXPECT_TRUE(found_edge);
}
#endif  // XICC_SOURCE_DIR

}  // namespace
}  // namespace xicc
