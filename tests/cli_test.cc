// Drives the xicc command-line tool through its library entry point.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "tools/cli.h"

namespace xicc {
namespace tools {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xicc_cli_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    // TempDir exists; fan out per-test files by prefix instead of mkdir.
    dtd_path_ = dir_ + ".dtd";
    sigma_path_ = dir_ + ".sigma";
    doc_path_ = dir_ + ".xml";
    WriteFile(dtd_path_, R"(
      <!ELEMENT teachers (teacher+)>
      <!ELEMENT teacher (teach, research)>
      <!ELEMENT teach (subject, subject)>
      <!ELEMENT subject (#PCDATA)>
      <!ELEMENT research (#PCDATA)>
      <!ATTLIST teacher name CDATA #REQUIRED>
      <!ATTLIST subject taught_by CDATA #REQUIRED>
    )");
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << content;
  }

  int Run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string dir_, dtd_path_, sigma_path_, doc_path_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(Run({}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("check"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 2);
}

TEST_F(CliTest, CheckInconsistentSpec) {
  WriteFile(sigma_path_,
            "key teacher(name)\nkey subject(taught_by)\n"
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_}), 1);
  EXPECT_NE(out_.str().find("consistent: no"), std::string::npos);
  EXPECT_NE(out_.str().find("ilp-case-split"), std::string::npos);
}

TEST_F(CliTest, CheckConsistentWithWitnessFile) {
  WriteFile(sigma_path_,
            "key teacher(name)\n"
            "inclusion subject(taught_by) <= teacher(name)\n");
  std::string witness_path = dir_ + ".witness.xml";
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--witness",
                 witness_path}),
            0);
  EXPECT_NE(out_.str().find("consistent: yes"), std::string::npos);
  std::ifstream written(witness_path);
  ASSERT_TRUE(written.good());
  std::string first_line;
  std::getline(written, first_line);
  EXPECT_NE(first_line.find("<?xml"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsMissingFiles) {
  EXPECT_EQ(Run({"check", "/nonexistent/a", "/nonexistent/b"}), 2);
  EXPECT_EQ(Run({"check", dtd_path_}), 2);
  EXPECT_EQ(Run({"check", dtd_path_, dtd_path_, "--bogus"}), 2);
}

TEST_F(CliTest, ImpliesVerdictsAndExitCodes) {
  WriteFile(sigma_path_,
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"implies", dtd_path_, sigma_path_, "key teacher(name)"}),
            0);
  EXPECT_NE(out_.str().find("implied: yes"), std::string::npos);

  EXPECT_EQ(
      Run({"implies", dtd_path_, sigma_path_, "key subject(taught_by)"}),
      1);
  EXPECT_NE(out_.str().find("implied: no"), std::string::npos);

  EXPECT_EQ(Run({"implies", dtd_path_, sigma_path_, "garbage"}), 2);
}

TEST_F(CliTest, ValidateDocument) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  WriteFile(doc_path_, R"(
    <teachers>
      <teacher name="Joe">
        <teach>
          <subject taught_by="Joe">XML</subject>
          <subject taught_by="Joe">DB</subject>
        </teach>
        <research>R</research>
      </teacher>
    </teachers>)");
  EXPECT_EQ(Run({"validate", dtd_path_, sigma_path_, doc_path_}), 0);

  WriteFile(doc_path_, "<teachers><teacher name='X'/></teachers>");
  EXPECT_EQ(Run({"validate", dtd_path_, sigma_path_, doc_path_}), 1);
  EXPECT_NE(out_.str().find("DTD violations"), std::string::npos);
}

TEST_F(CliTest, WitnessWithMinimumSize) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  EXPECT_EQ(Run({"witness", dtd_path_, sigma_path_, "--min-nodes", "15"}),
            0);
  // 15 element nodes require ≥ 3 teachers (1 + 5k ≥ 15 ⇒ k ≥ 3).
  std::string xml = out_.str();
  size_t teachers = 0;
  for (size_t pos = xml.find("<teacher "); pos != std::string::npos;
       pos = xml.find("<teacher ", pos + 1)) {
    ++teachers;
  }
  EXPECT_GE(teachers, 3u);

  EXPECT_EQ(Run({"witness", dtd_path_, sigma_path_, "--min-nodes", "bad"}),
            2);
}

TEST_F(CliTest, WitnessInconsistentSpecExitsOne) {
  WriteFile(sigma_path_,
            "key teacher(name)\nkey subject(taught_by)\n"
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"witness", dtd_path_, sigma_path_}), 1);
}

TEST_F(CliTest, ClassifyReportsClassAndBound) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  EXPECT_EQ(Run({"classify", dtd_path_, sigma_path_}), 0);
  EXPECT_NE(out_.str().find("keys-only"), std::string::npos);
  EXPECT_NE(out_.str().find("linear time"), std::string::npos);
}

TEST_F(CliTest, SimplifyPrintsSimpleDtd) {
  EXPECT_EQ(Run({"simplify", dtd_path_}), 0);
  EXPECT_NE(out_.str().find("synthetic element types"), std::string::npos);
  // The star expansion appears as synthetic names.
  EXPECT_NE(out_.str().find("_teachers"), std::string::npos);
}

TEST_F(CliTest, EncodePrintsSystem) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  EXPECT_EQ(Run({"encode", dtd_path_, sigma_path_}), 0);
  EXPECT_NE(out_.str().find("ext(teachers)"), std::string::npos);
  EXPECT_NE(out_.str().find("conditional"), std::string::npos);
}

TEST_F(CliTest, ClosureListsImplications) {
  WriteFile(sigma_path_,
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"closure", dtd_path_, sigma_path_}), 0);
  // The FK's key component is implied... it is *stated* via the FK, so it
  // is filtered; the interesting rows are the redundancy section.
  EXPECT_NE(out_.str().find("implied keys"), std::string::npos);
  EXPECT_NE(out_.str().find("redundant constraints"), std::string::npos);
}

TEST_F(CliTest, EquivCommand) {
  WriteFile(sigma_path_, "fk subject(taught_by) => teacher(name)\n");
  std::string sigma2 = dir_ + ".sigma2";
  WriteFile(sigma2,
            "inclusion subject(taught_by) <= teacher(name)\n"
            "key teacher(name)\n");
  EXPECT_EQ(Run({"equiv", dtd_path_, sigma_path_, sigma2}), 0);
  EXPECT_NE(out_.str().find("equivalent: yes"), std::string::npos);

  WriteFile(sigma2, "key teacher(name)\n");
  EXPECT_EQ(Run({"equiv", dtd_path_, sigma_path_, sigma2}), 1);
  EXPECT_NE(out_.str().find("separated by"), std::string::npos);

  EXPECT_EQ(Run({"equiv", dtd_path_, sigma_path_}), 2);
}

TEST_F(CliTest, IdrefsTranslation) {
  std::string id_dtd = dir_ + ".ids.dtd";
  WriteFile(id_dtd, R"(
    <!ELEMENT library (book*, loan*)>
    <!ELEMENT book EMPTY>
    <!ELEMENT loan EMPTY>
    <!ATTLIST book isbn ID #REQUIRED>
    <!ATTLIST loan of IDREF #REQUIRED>
  )");
  EXPECT_EQ(Run({"idrefs", id_dtd}), 0);
  EXPECT_NE(out_.str().find("book.isbn -> book"), std::string::npos);
  EXPECT_NE(out_.str().find("loan.of <= book.isbn"), std::string::npos);
}

// A memo hit answers without solving, so repeating a query adds nothing to
// the batch's solve totals: four copies of one FK query report the same
// nodes and pivots as the query alone, and one Σ-delta check.
TEST_F(CliTest, BatchMemoHitsAddNoSolveWork) {
  auto totals = [&](int copies) {
    const std::string queries_path = dir_ + ".queries";
    std::string text;
    for (int i = 0; i < copies; ++i) {
      if (i > 0) text += "---\n";
      text += "key teacher(name)\nfk subject(taught_by) => teacher(name)\n";
    }
    WriteFile(queries_path, text);
    EXPECT_EQ(Run({"batch", dtd_path_, queries_path, "--threads", "1",
                   "--stats"}),
              0)
        << err_.str();
    const std::string out = out_.str();
    const size_t begin = out.find("totals:");
    EXPECT_NE(begin, std::string::npos) << out;
    if (begin == std::string::npos) return std::string();
    return out.substr(begin, out.find('\n', begin) - begin);
  };
  const std::string one = totals(1);
  const std::string four = totals(4);
  EXPECT_NE(one.find("1 sigma-delta"), std::string::npos) << one;
  EXPECT_NE(four.find("1 sigma-delta, 3 memo hits, 1 memo misses"),
            std::string::npos)
      << four;
  // "N ilp nodes, M lp pivots", cut before the warm/cold split and timing.
  auto search = [](const std::string& line) {
    const size_t begin = line.find("memo misses, ");
    if (begin == std::string::npos) return std::string();
    return line.substr(begin, line.find(" (") - begin);
  };
  EXPECT_EQ(search(four), search(one));
  EXPECT_NE(search(one).find("lp pivots"), std::string::npos) << one;
}

// ----------------------------------------------- Numeric flag validation.
// Every numeric flag must reject garbage with exit 2 and a usage hint —
// never crash, never silently clamp, never run with a nonsense value.

class CliFlagTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    WriteFile(sigma_path_, "key teacher(name)\n");
    queries_path_ = dir_ + ".queries";
    WriteFile(queries_path_,
              "key teacher(name)\n---\n"
              "key teacher(name)\n!key teacher(name)\n");
  }

  // Runs `check` with one flag set to `value` and expects rejection that
  // names the flag and points at the usage text.
  void ExpectCheckRejects(const std::string& flag, const std::string& value) {
    EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, flag, value}), 2)
        << flag << "=" << value;
    EXPECT_NE(err_.str().find(flag), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("usage"), std::string::npos) << err_.str();
  }

  void ExpectBatchRejects(const std::string& flag, const std::string& value) {
    EXPECT_EQ(Run({"batch", dtd_path_, queries_path_, flag, value}), 2)
        << flag << "=" << value;
    EXPECT_NE(err_.str().find(flag), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("usage"), std::string::npos) << err_.str();
  }

  std::string queries_path_;
};

TEST_F(CliFlagTest, TimeoutMsRejectsGarbage) {
  ExpectCheckRejects("--timeout-ms", "-5");
  ExpectCheckRejects("--timeout-ms", "0");
  ExpectCheckRejects("--timeout-ms", "soon");
  ExpectCheckRejects("--timeout-ms", "10x");
  ExpectCheckRejects("--timeout-ms", "");
  // Overflows long long: must be ERANGE-rejected, not wrapped or clamped.
  ExpectCheckRejects("--timeout-ms", "99999999999999999999");
  ExpectCheckRejects("--timeout-ms", "-99999999999999999999");
}

TEST_F(CliFlagTest, CancelAfterRejectsGarbage) {
  ExpectCheckRejects("--cancel-after", "-1");
  ExpectCheckRejects("--cancel-after", "1.5");
  ExpectCheckRejects("--cancel-after", "99999999999999999999");
}

// A budget past the clock's range is no budget, not an instant expiry:
// check answers, a cancel timer never fires, and batch items (whose retry
// budget multiplies the item timeout) answer too.
TEST_F(CliFlagTest, BudgetsPastTheClockRangeNeverExpire) {
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--timeout-ms",
                 "9223372036854"}),
            0)
      << err_.str();
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--cancel-after",
                 "9223372036854775807"}),
            0)
      << err_.str();
  EXPECT_EQ(Run({"batch", dtd_path_, queries_path_, "--timeout-ms",
                 "9223372036854775807"}),
            1)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find(": consistent"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find(": inconsistent"), std::string::npos)
      << out_.str();
}

TEST_F(CliFlagTest, MinNodesRejectsGarbageButAcceptsZero) {
  ExpectCheckRejects("--min-nodes", "-1");
  ExpectCheckRejects("--min-nodes", "many");
  ExpectCheckRejects("--min-nodes", "99999999999999999999");
  // Zero is a legitimate "no minimum".
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--min-nodes", "0"}), 0);
}

TEST_F(CliFlagTest, BatchThreadsAndChunkRejectGarbage) {
  ExpectBatchRejects("--threads", "0");
  ExpectBatchRejects("--threads", "-2");
  ExpectBatchRejects("--threads", "2.0");
  ExpectBatchRejects("--threads", "99999999999999999999");
  ExpectBatchRejects("--chunk", "0");
  ExpectBatchRejects("--chunk", "nope");
  ExpectBatchRejects("--chunk", "99999999999999999999");
  // Batch item timeouts ride the same flag; garbage is caught there too.
  ExpectBatchRejects("--timeout-ms", "1e9");
}

TEST_F(CliFlagTest, ValidFlagsStillWork) {
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--timeout-ms", "30000"}),
            0);
  // Exit 1: the second query block is inconsistent (negative verdict, not
  // an error).
  EXPECT_EQ(Run({"batch", dtd_path_, queries_path_, "--threads", "2",
                 "--chunk", "1", "--timeout-ms", "30000"}),
            1);
  EXPECT_NE(out_.str().find(": consistent"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find(": inconsistent"), std::string::npos)
      << out_.str();
}

}  // namespace
}  // namespace tools
}  // namespace xicc
