// Tests for the Ψ(D,Σ) cardinality encoding (Theorem 4.1, Lemmas 4.4–4.6)
// and its two conditional-discharge strategies.

#include <gtest/gtest.h>

#include "core/cardinality_encoding.h"
#include "ilp/solver.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

TEST(EncodingTest, TeacherSystemStructure) {
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma = workloads::TeacherSigma().Normalize();
  auto enc = BuildCardinalityEncoding(d1, sigma);
  ASSERT_TRUE(enc.ok()) << enc.status();

  // ext variables exist for originals, synthetics, and S.
  EXPECT_TRUE(enc->ext_var.count("teachers"));
  EXPECT_TRUE(enc->ext_var.count("teacher"));
  EXPECT_TRUE(enc->ext_var.count("S"));
  EXPECT_EQ(enc->ext_var.size(), enc->simplified.dtd.elements().size() + 1);

  // Mentioned pairs: teacher.name and subject.taught_by.
  EXPECT_EQ(enc->attr_var.size(), 2u);
  EXPECT_EQ(enc->conditionals.size(), 2u);

  // Occurrence variables drive the sum rows; the paper's worked example for
  // D_N1 has 12 (two per binary production, one per S production).
  EXPECT_EQ(enc->occurrences.size(), 12u);
}

TEST(EncodingTest, TeacherSigmaIsInfeasible) {
  // The flagship example: Ψ(D1, Σ1) has no solution (Section 1's cardinality
  // argument: |ext(subject)| = 2|ext(teacher)| vs ≤ |ext(teacher)|).
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma = workloads::TeacherSigma().Normalize();
  auto enc = BuildCardinalityEncoding(d1, sigma);
  ASSERT_TRUE(enc.ok());
  auto solved = SolveWithConditionals(enc->system, enc->conditionals);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_FALSE(solved->feasible);
}

TEST(EncodingTest, TeacherDtdAloneIsFeasible) {
  Dtd d1 = workloads::TeacherDtd();
  auto enc = BuildCardinalityEncoding(d1, ConstraintSet());
  ASSERT_TRUE(enc.ok());
  EXPECT_TRUE(enc->conditionals.empty());
  auto solved = SolveIlp(enc->system);
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->feasible);
  // ext(teachers) = 1, ext(teacher) ≥ 1, ext(subject) = 2·ext(teacher),
  // ext(research) = ext(teacher).
  const BigInt& teachers = solved->values[enc->ext_var.at("teachers")];
  const BigInt& teacher = solved->values[enc->ext_var.at("teacher")];
  const BigInt& subject = solved->values[enc->ext_var.at("subject")];
  const BigInt& research = solved->values[enc->ext_var.at("research")];
  EXPECT_EQ(teachers, BigInt(1));
  EXPECT_GE(teacher, BigInt(1));
  EXPECT_EQ(subject, teacher * BigInt(2));
  EXPECT_EQ(research, teacher);
}

TEST(EncodingTest, InfiniteDtdIsInfeasible) {
  auto enc = BuildCardinalityEncoding(workloads::InfiniteDtd(),
                                      ConstraintSet());
  ASSERT_TRUE(enc.ok());
  auto solved = SolveIlp(enc->system);
  ASSERT_TRUE(solved.ok());
  // Ψ_D2: ext(db)=1, ext(db)=x1(foo,db), ext(foo)=x1(foo,foo)+x1(foo,db),
  // ext(foo)=x1(foo,foo) — forces 1 = 0.
  EXPECT_FALSE(solved->feasible);
}

TEST(EncodingTest, DroppedKeyRestoresFeasibility) {
  // Σ1 without the subject key is consistent over D1.
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma;
  sigma.Add(Constraint::Key("teacher", {"name"}));
  sigma.Add(Constraint::Inclusion("subject", {"taught_by"}, "teacher",
                                  {"name"}));
  auto enc = BuildCardinalityEncoding(d1, sigma);
  ASSERT_TRUE(enc.ok());
  auto solved = SolveWithConditionals(enc->system, enc->conditionals);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->feasible);
}

TEST(EncodingTest, NegatedKeyRows) {
  // ¬(e1.id → e1) over a chain where |ext(e1)| = 1 is unsatisfiable: a
  // clash needs two elements.
  Dtd chain = workloads::ChainDtd(3);
  ConstraintSet sigma;
  sigma.Add(Constraint::NegKey("e1", {"id"}));
  auto enc = BuildCardinalityEncoding(chain, sigma);
  ASSERT_TRUE(enc.ok());
  auto solved = SolveWithConditionals(enc->system, enc->conditionals);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->feasible);
}

TEST(EncodingTest, RejectsUnnormalizedAndNonUnary) {
  Dtd d1 = workloads::TeacherDtd();
  EXPECT_FALSE(
      BuildCardinalityEncoding(d1, workloads::TeacherSigma()).ok());

  ConstraintSet multi;
  multi.Add(Constraint::Key("teacher", {"name"}));
  multi.Add(Constraint::Inclusion("subject", {"taught_by"}, "teacher",
                                  {"name"}));
  // Smuggle in a binary inclusion.
  multi.Add(Constraint{ConstraintKind::kInclusion,
                       "subject",
                       {"taught_by", "taught_by"},
                       "teacher",
                       {"name", "name"}});
  EXPECT_FALSE(BuildCardinalityEncoding(d1, multi).ok());
}

TEST(EncodingTest, BigMAgreesWithCaseSplitOnFeasibility) {
  struct Case {
    ConstraintSet sigma;
    bool feasible;
  };
  Dtd d1 = workloads::TeacherDtd();
  std::vector<Case> cases;
  cases.push_back({workloads::TeacherSigma().Normalize(), false});
  {
    ConstraintSet ok;
    ok.Add(Constraint::Key("teacher", {"name"}));
    ok.Add(Constraint::Inclusion("teacher", {"name"}, "subject",
                                 {"taught_by"}));
    cases.push_back({ok, true});
  }
  for (const Case& c : cases) {
    auto enc = BuildCardinalityEncoding(d1, c.sigma);
    ASSERT_TRUE(enc.ok());
    auto split = SolveWithConditionals(enc->system, enc->conditionals);
    ASSERT_TRUE(split.ok());
    auto big_m = SolveIlp(ApplyBigMLinearization(enc->system, enc->conditionals));
    ASSERT_TRUE(big_m.ok());
    EXPECT_EQ(split->feasible, c.feasible);
    EXPECT_EQ(big_m->feasible, c.feasible);
  }
}

TEST(EncodingTest, ConditionalSemantics) {
  // The inclusion teacher.name ⊆ subject.taught_by forces subjects to carry
  // at least one value once teachers exist — only the conditional rows can
  // express that; without them (plain SolveIlp on the base system) the
  // system is "feasible" with ext(teacher.name) = 0, which the case-split
  // correctly rules in (it IS satisfiable — but with nonzero value sets).
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma;
  sigma.Add(Constraint::Inclusion("teacher", {"name"}, "subject",
                                  {"taught_by"}));
  auto enc = BuildCardinalityEncoding(d1, sigma);
  ASSERT_TRUE(enc.ok());
  auto solved = SolveWithConditionals(enc->system, enc->conditionals);
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->feasible);
  // Teachers exist in every valid tree, so their name-value count is ≥ 1.
  EXPECT_GE(solved->values[enc->attr_var.at({"teacher", "name"})], BigInt(1));
  EXPECT_GE(solved->values[enc->attr_var.at({"subject", "taught_by"})],
            BigInt(1));
}

}  // namespace
}  // namespace xicc
