// Tests for the lint rule library (src/analysis/lint_rules.h): each rule
// on a good and a bad fixture with the exact diagnostic asserted, the
// comment/string scanner that decides what counts as code, the suppression
// scope, the --fix guard rewriting, the directory walker — and finally the
// repo itself, which must be lint-clean (the same gate CI runs via
// xicc_analyze).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/lint_rules.h"

namespace xicc {
namespace {

/// The rule names of every issue, in report order.
std::vector<std::string> RuleNames(const std::vector<LintIssue>& issues) {
  std::vector<std::string> names;
  for (const LintIssue& issue : issues) names.push_back(issue.rule);
  return names;
}

TEST(LintRulesTest, RuleTableIsComplete) {
  std::vector<std::string> names;
  for (const LintRuleInfo& rule : LintRules()) {
    names.push_back(rule.name);
    EXPECT_FALSE(std::string(rule.summary).empty()) << rule.name;
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"exact-arithmetic",
                                      "raw-coefficient-words",
                                      "no-nondeterminism", "raw-concurrency",
                                      "raw-blocking", "raw-deserialization",
                                      "void-discard", "pragma-once",
                                      "include-layering"}));
}

TEST(LintRulesTest, ExactArithmeticFlagsOnlyVerdictDirs) {
  const std::string bad = "#pragma once\ndouble x = 0.5;\n";
  auto issues = LintFile("src/ilp/foo.h", bad);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].ToString(),
            "src/ilp/foo.h:2: [exact-arithmetic] 'double' in a verdict path: "
            "the ILP/simplex core is exact BigInt/Rational/Num (two-tier) "
            "arithmetic only");

  // Same token in core/ is flagged; in xml/ (not a verdict path) it is not.
  EXPECT_EQ(RuleNames(LintFile("src/core/foo.cc", "float f;\n")),
            std::vector<std::string>{"exact-arithmetic"});
  EXPECT_TRUE(LintFile("src/xml/foo.cc", "double d;\n").empty());

  // Identifier boundaries: "double_entry" is not the token "double".
  EXPECT_TRUE(LintFile("src/ilp/foo.cc", "int double_entry = 0;\n").empty());
}

TEST(LintRulesTest, RawCoefficientWordsBansBareInt64InIlp) {
  // A bare int64_t on a coefficient path in src/ilp/ is flagged...
  EXPECT_EQ(RuleNames(LintFile("src/ilp/foo.cc", "int64_t coeff = a * b;\n")),
            std::vector<std::string>{"raw-coefficient-words"});
  // ...but the sanctioned cast of a dimension is not, nor is uint64_t (a
  // counter, not a coefficient), nor int64_t outside src/ilp/.
  EXPECT_TRUE(LintFile("src/ilp/foo.cc",
                       "BigInt m(static_cast<int64_t>(rows));\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/ilp/foo.cc", "uint64_t ops = 0;\n").empty());
  EXPECT_TRUE(LintFile("src/core/foo.cc", "int64_t fine = 0;\n").empty());
  // Suppression works like every other rule.
  EXPECT_TRUE(LintFile("src/ilp/foo.cc",
                       "int64_t raw;  // xicc-lint: allow(raw-coefficient-words)\n")
                  .empty());
}

TEST(LintRulesTest, NoNondeterminismFlagsRandomSources) {
  auto issues =
      LintFile("src/core/foo.cc", "#include <random>\nstd::mt19937 gen;\n");
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].line, 1u);  // The <random> include itself.
  EXPECT_EQ(issues[1].ToString(),
            "src/core/foo.cc:2: [no-nondeterminism] 'std::mt19937' in a "
            "verdict path: verdicts must be deterministic and replayable");

  EXPECT_EQ(RuleNames(LintFile("src/ilp/foo.cc", "int x = rand();\n")),
            std::vector<std::string>{"no-nondeterminism"});
  // steady_clock is deterministic enough for timing; only system_clock and
  // the PRNG family are banned.
  EXPECT_TRUE(LintFile("src/ilp/foo.cc",
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(LintRulesTest, RawConcurrencyBannedOutsideBase) {
  auto issues = LintFile("src/core/foo.cc", "std::mutex mu;\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].ToString(),
            "src/core/foo.cc:1: [raw-concurrency] 'std::mutex' outside "
            "src/base/: use the annotated primitives in "
            "base/thread_annotations.h and base/worksteal.h so the "
            "thread-safety analysis sees every lock");

  // The raw headers count too, and every directory but base/ is covered.
  EXPECT_EQ(RuleNames(LintFile("src/tools/foo.cc", "#include <thread>\n")),
            std::vector<std::string>{"raw-concurrency"});
  // base/ is where the annotated wrappers live; raw primitives are fine.
  EXPECT_TRUE(LintFile("src/base/foo.cc", "std::mutex mu;\n").empty());
  // Qualified-name boundary: xicc::Mutex and my_mutex are not std::mutex.
  EXPECT_TRUE(LintFile("src/core/foo.cc", "Mutex mu;\nint my_mutex;\n")
                  .empty());
}

TEST(LintRulesTest, RawBlockingBannedOutsideSanctionedFiles) {
  // A raw sleep anywhere a CancelToken cannot wake it is flagged — even in
  // base/ files other than the sanctioned blocking primitives.
  EXPECT_EQ(RuleNames(LintFile(
                "src/core/foo.cc",
                "std::this_thread::sleep_for(std::chrono::seconds(1));\n")),
            std::vector<std::string>{"raw-blocking"});
  EXPECT_EQ(RuleNames(LintFile("src/base/strings.h",
                               "#pragma once\nusleep(100);\n")),
            std::vector<std::string>{"raw-blocking"});
  // An unbounded CondVar wait outside the sanctioned files is the
  // lost-wakeup shape this rule exists for.
  EXPECT_EQ(RuleNames(LintFile("src/ilp/foo.cc", "CondVar cv;\n")),
            std::vector<std::string>{"raw-blocking"});

  // The sanctioned blocking primitives themselves are exempt: that is
  // where sleeps and waits are wired to cancellation.
  EXPECT_TRUE(LintFile("src/base/worksteal.h",
                       "#pragma once\ncv.Wait(&mu); CondVar done;\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/base/deadline.cc", "CondVar cv;\n").empty());
  EXPECT_TRUE(LintFile("src/base/thread_annotations.h",
                       "#pragma once\nclass CondVar {};\n")
                  .empty());
  // SleepFor (base/deadline.h) is the sanctioned cancellable sleep — its
  // callers are fine anywhere.
  EXPECT_TRUE(LintFile("src/core/foo.cc", "SleepFor(10, cancel);\n").empty());
  // Suppressions work as usual.
  EXPECT_TRUE(LintFile("src/core/foo.cc",
                       "CondVar cv;  // xicc-lint: allow(raw-blocking)\n")
                  .empty());
}

TEST(LintRulesTest, RawSocketSyscallsQuarantinedInBaseSocket) {
  // A bare socket syscall outside base/socket.* is an I/O wait that
  // cancellation, shutdown, and fault injection cannot reach.
  EXPECT_EQ(RuleNames(LintFile("src/net/foo.cc",
                               "int n = ::recv(fd, buf, len, 0);\n")),
            std::vector<std::string>{"raw-blocking"});
  EXPECT_EQ(RuleNames(LintFile("src/net/foo.cc",
                               "::poll(fds.data(), fds.size(), 50);\n")),
            std::vector<std::string>{"raw-blocking"});
  EXPECT_EQ(RuleNames(LintFile("src/tools/foo.cc",
                               "int s = ::socket(AF_INET, SOCK_STREAM, 0);\n"
                               "::connect(s, addr, len);\n"))
                .size(),
            2u);
  // The ::-qualified token is the rule's anchor: an unqualified identifier
  // like a member function `accept` or a local named `poll_ms` is not a
  // syscall and must not fire.
  EXPECT_TRUE(
      LintFile("src/net/foo.cc", "server.accept(conn);\nint poll_ms = 5;\n")
          .empty());
  // base/socket.* is the sanctioned home: EINTR retries and fault probes
  // live there.
  EXPECT_TRUE(LintFile("src/base/socket.h",
                       "#pragma once\nint n = ::recv(fd, buf, len, 0);\n")
                  .empty());
  EXPECT_TRUE(
      LintFile("src/base/socket.cc", "::poll(fds, n, timeout);\n").empty());
  // Suppressions work as usual.
  EXPECT_TRUE(LintFile("src/net/foo.cc",
                       "::shutdown(fd, SHUT_WR);  "
                       "// xicc-lint: allow(raw-blocking)\n")
                  .empty());
}

TEST(LintRulesTest, RawDeserializationQuarantinedInSerde) {
  // memcpy-into-struct decoding outside base/serde is an unaudited parser.
  auto issues =
      LintFile("src/core/foo.cc", "memcpy(&header, bytes, sizeof(header));\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].ToString(),
            "src/core/foo.cc:1: [raw-deserialization] 'memcpy' outside "
            "base/serde: deserialize through serde::Cursor / serde::Reader "
            "(bounds-checked, checksummed) instead of raw byte "
            "reinterpretation");

  // reinterpret_cast decoding is the same hazard, in every directory.
  EXPECT_EQ(RuleNames(LintFile(
                "src/tools/foo.cc",
                "auto* rec = reinterpret_cast<const Record*>(p);\n")),
            std::vector<std::string>{"raw-deserialization"});
  // base/serde.{h,cc} is the one audited home for byte reinterpretation —
  // but the exemption is those two files, not all of base/.
  EXPECT_TRUE(LintFile("src/base/serde.h",
                       "#pragma once\nstd::memcpy(&v, p, sizeof(v));\n")
                  .empty());
  EXPECT_TRUE(
      LintFile("src/base/serde.cc", "reinterpret_cast<const T*>(p);\n")
          .empty());
  EXPECT_EQ(RuleNames(LintFile("src/base/foo.cc",
                               "memcpy(&v, p, sizeof(v));\n")),
            std::vector<std::string>{"raw-deserialization"});
  // Comments and strings are not code, and suppression works as usual.
  EXPECT_TRUE(LintFile("src/core/foo.cc", "// avoids a memcpy here\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/core/foo.cc",
                       "reinterpret_cast<const char*>(d);  "
                       "// xicc-lint: allow(raw-deserialization)\n")
                  .empty());
}

TEST(LintRulesTest, VoidDiscardFlagsMutedCallsNotUnusedParams) {
  auto issues = LintFile("src/dtd/foo.cc", "(void)session.Check(sigma);\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "void-discard");
  EXPECT_EQ(issues[0].line, 1u);

  EXPECT_EQ(RuleNames(LintFile("src/dtd/foo.cc", "  (void)Solve(x);\n")),
            std::vector<std::string>{"void-discard"});
  // The unused-parameter idiom has no call and stays legal.
  EXPECT_TRUE(LintFile("src/dtd/foo.cc", "(void)unused_param;\n").empty());
}

TEST(LintRulesTest, PragmaOnceRequiredInHeadersOnly) {
  auto issues = LintFile("src/xml/foo.h", "#ifndef G\n#define G\n#endif\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].ToString(),
            "src/xml/foo.h:1: [pragma-once] header must open with '#pragma "
            "once' (run --fix to rewrite an #ifndef guard)");

  EXPECT_TRUE(LintFile("src/xml/foo.h", "#pragma once\nint x;\n").empty());
  // A leading comment block before the pragma is fine.
  EXPECT_TRUE(
      LintFile("src/xml/foo.h", "// banner\n\n#pragma once\n").empty());
  // .cc files have no guard requirement.
  EXPECT_TRUE(LintFile("src/xml/foo.cc", "int x;\n").empty());
}

TEST(LintRulesTest, IncludeLayeringFollowsTheLayerOrder) {
  // ilp/ must not reach up into core/.
  auto issues =
      LintFile("src/ilp/foo.cc", "#include \"core/consistency.h\"\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "include-layering");
  EXPECT_NE(issues[0].message.find("layer 'core' is above it"),
            std::string::npos)
      << issues[0].message;

  // Downward and same-layer includes are fine; so are system headers and
  // non-layer quoted includes.
  EXPECT_TRUE(LintFile("src/core/foo.cc",
                       "#include \"ilp/solver.h\"\n"
                       "#include \"core/witness.h\"\n"
                       "#include <vector>\n"
                       "#include \"gtest/gtest.h\"\n")
                  .empty());
  EXPECT_EQ(RuleNames(LintFile("src/base/foo.cc", "#include \"xml/doc.h\"\n")),
            std::vector<std::string>{"include-layering"});
}

TEST(LintRulesTest, CommentsAndStringsAreNotCode) {
  // Tokens inside comments, string literals, and raw strings never fire.
  EXPECT_TRUE(LintFile("src/ilp/foo.cc",
                       "// a double comment\n"
                       "/* double\n   double */\n"
                       "const char* s = \"double\";\n"
                       "const char* r = R\"(std::mutex double)\";\n")
                  .empty());
  // But code after a closed block comment on the same line still counts.
  EXPECT_EQ(RuleNames(LintFile("src/ilp/foo.cc", "/* c */ double d;\n")),
            std::vector<std::string>{"exact-arithmetic"});
}

TEST(LintRulesTest, SuppressionCoversOwnAndNextLine) {
  // Trailing on the offending line.
  EXPECT_TRUE(LintFile("src/ilp/foo.cc",
                       "double ms;  // xicc-lint: allow(exact-arithmetic)\n")
                  .empty());
  // Standalone comment directly above covers the next line only.
  EXPECT_TRUE(LintFile("src/ilp/foo.cc",
                       "// xicc-lint: allow(exact-arithmetic)\n"
                       "double ms;\n")
                  .empty());
  EXPECT_EQ(RuleNames(LintFile("src/ilp/foo.cc",
                               "// xicc-lint: allow(exact-arithmetic)\n"
                               "double a;\n"
                               "double b;\n")),
            std::vector<std::string>{"exact-arithmetic"});
  // Multi-rule allow list, and an allow for a different rule changes nothing.
  EXPECT_TRUE(
      LintFile("src/core/foo.cc",
               "double d; std::mutex m;  // xicc-lint: "
               "allow(exact-arithmetic, raw-concurrency)\n")
          .empty());
  EXPECT_EQ(RuleNames(LintFile("src/ilp/foo.cc",
                               "double d;  // xicc-lint: allow(pragma-once)\n")),
            std::vector<std::string>{"exact-arithmetic"});
}

TEST(LintFixTest, RewritesClassicGuardToPragmaOnce) {
  const std::string guarded =
      "// banner comment\n"
      "#ifndef XICC_XML_FOO_H_\n"
      "#define XICC_XML_FOO_H_\n"
      "\n"
      "int x;\n"
      "\n"
      "#endif  // XICC_XML_FOO_H_\n";
  bool changed = false;
  const std::string fixed = ApplyLintFixes("src/xml/foo.h", guarded, &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(fixed,
            "// banner comment\n"
            "#pragma once\n"
            "\n"
            "int x;\n");
  EXPECT_TRUE(LintFile("src/xml/foo.h", fixed).empty());
}

TEST(LintFixTest, LeavesUnrecognizableGuardsAlone) {
  // #define does not match the #ifndef symbol — not a guard pair; a human
  // must look at it, so --fix keeps its hands off.
  const std::string odd =
      "#ifndef XICC_A_H_\n#define XICC_B_H_\n#endif\n";
  bool changed = true;
  EXPECT_EQ(ApplyLintFixes("src/xml/foo.h", odd, &changed), odd);
  EXPECT_FALSE(changed);

  // Already-clean headers and .cc files are untouched.
  const std::string clean = "#pragma once\nint x;\n";
  EXPECT_EQ(ApplyLintFixes("src/xml/foo.h", clean, &changed), clean);
  EXPECT_FALSE(changed);
  EXPECT_EQ(ApplyLintFixes("src/xml/foo.cc", "int x;\n", &changed), "int x;\n");
  EXPECT_FALSE(changed);
}

/// Writes `content` under dir (creating parents) for the RunLint tests.
void WriteFile(const std::filesystem::path& path, const std::string& content) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

TEST(RunLintTest, WalksFixesAndReports) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "xicc_lint_walk";
  std::filesystem::remove_all(root);
  WriteFile(root / "src/ilp/bad.cc", "double d;\n");
  WriteFile(root / "src/xml/guarded.h",
            "#ifndef XICC_XML_GUARDED_H_\n#define XICC_XML_GUARDED_H_\n"
            "int x;\n#endif\n");
  WriteFile(root / "src/xml/note.txt", "double is fine here\n");  // Skipped.

  auto dry = RunLint(root.string(), /*fix=*/false);
  ASSERT_TRUE(dry.ok()) << dry.status();
  EXPECT_EQ(dry->files_scanned, 2u);
  EXPECT_EQ(dry->files_fixed, 0u);
  EXPECT_EQ(RuleNames(dry->issues),
            (std::vector<std::string>{"exact-arithmetic", "pragma-once"}));
  EXPECT_EQ(dry->issues[0].file, "src/ilp/bad.cc");
  EXPECT_EQ(dry->issues[1].file, "src/xml/guarded.h");

  // --fix repairs the guard in place; the arithmetic finding remains.
  auto fixed = RunLint(root.string(), /*fix=*/true);
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  EXPECT_EQ(fixed->files_fixed, 1u);
  EXPECT_EQ(RuleNames(fixed->issues),
            std::vector<std::string>{"exact-arithmetic"});
  std::ifstream in(root / "src/xml/guarded.h");
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "#pragma once");

  EXPECT_FALSE(RunLint((root / "no-such-dir").string(), false).ok());
  std::filesystem::remove_all(root);
}

// The gate CI enforces with xicc_analyze, kept in the unit suite so
// a plain ctest run catches a violation without the separate tool step.
TEST(RunLintTest, RepositoryIsLintClean) {
#ifdef XICC_SOURCE_DIR
  auto run = RunLint(XICC_SOURCE_DIR, /*fix=*/false);
  ASSERT_TRUE(run.ok()) << run.status();
  std::string rendered;
  for (const LintIssue& issue : run->issues) {
    rendered += issue.ToString() + "\n";
  }
  EXPECT_EQ(run->issues.size(), 0u) << rendered;
  EXPECT_GT(run->files_scanned, 50u);
#else
  GTEST_SKIP() << "XICC_SOURCE_DIR not defined";
#endif
}

}  // namespace
}  // namespace xicc
