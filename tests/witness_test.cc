// Unit tests for the witness construction module: minimal trees, the
// Lemma 4.3 synthetic collapse, prefix value sets, and witness invariants.

#include <gtest/gtest.h>

#include "constraints/evaluator.h"
#include "core/consistency.h"
#include "core/encoding_solver.h"
#include "core/witness.h"
#include "dtd/validator.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

TEST(MinimalTreeTest, TeacherMinimalHasOneTeacher) {
  Dtd d1 = workloads::TeacherDtd();
  auto tree = BuildMinimalTree(d1);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_TRUE(ValidateXml(*tree, d1).valid)
      << ValidateXml(*tree, d1).ToString();
  EXPECT_EQ(tree->ExtOfType("teacher").size(), 1u);
  EXPECT_EQ(tree->ExtOfType("subject").size(), 2u);
}

TEST(MinimalTreeTest, StarsCollapseToZero) {
  Dtd school = workloads::SchoolDtd();
  auto tree = BuildMinimalTree(school);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(ValidateXml(*tree, school).valid);
  EXPECT_EQ(tree->size(), 1u);  // <school/> alone.
}

TEST(MinimalTreeTest, UnionPicksCheaperBranch) {
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Union(Regex::Elem("heavy"),
                                       Regex::Elem("light")));
  builder.AddElement("heavy",
                     Regex::Concat(Regex::Elem("light"),
                                   Regex::Concat(Regex::Elem("light"),
                                                 Regex::Elem("light"))));
  builder.AddElement("light", Regex::Epsilon());
  auto dtd = builder.Build();
  ASSERT_TRUE(dtd.ok());
  auto tree = BuildMinimalTree(*dtd);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 2u);  // r + light.
  EXPECT_TRUE(tree->ExtOfType("heavy").empty());
}

TEST(MinimalTreeTest, RecursiveEscape) {
  // list → (item, list) | nil — minimal tree bottoms out at nil.
  DtdBuilder builder;
  builder.SetRoot("r");
  builder.AddElement("r", Regex::Elem("list"));
  builder.AddElement("list",
                     Regex::Union(Regex::Concat(Regex::Elem("item"),
                                                Regex::Elem("list")),
                                  Regex::Elem("nil")));
  builder.AddElement("item", Regex::Epsilon());
  builder.AddElement("nil", Regex::Epsilon());
  auto dtd = builder.Build();
  ASSERT_TRUE(dtd.ok());
  auto tree = BuildMinimalTree(*dtd);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(ValidateXml(*tree, *dtd).valid);
  EXPECT_EQ(tree->ExtOfType("item").size(), 0u);
  EXPECT_EQ(tree->ExtOfType("nil").size(), 1u);
}

TEST(MinimalTreeTest, InvalidDtdRefused) {
  EXPECT_FALSE(BuildMinimalTree(workloads::InfiniteDtd()).ok());
}

TEST(MinimalTreeTest, DistinctAttributeValues) {
  Dtd dtd = workloads::WideDtd(5);
  auto tree = BuildMinimalTree(dtd);
  ASSERT_TRUE(tree.ok());
  // All five keys satisfied by construction.
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(
        Evaluate(*tree, Constraint::Key("e" + std::to_string(i), {"id"}))
            .satisfied);
  }
}

TEST(WitnessTest, PrefixValueSetsArePrefixes) {
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma;
  sigma.Add(Constraint::Inclusion("teacher", {"name"}, "subject",
                                  {"taught_by"}));
  ConstraintSet normalized = sigma.Normalize();
  auto enc = BuildCardinalityEncoding(d1, normalized);
  ASSERT_TRUE(enc.ok());
  EncodingSolveOptions options;
  auto solved = SolveEncodingSystem(*enc, enc->system, options);
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->feasible);
  auto sets = PrefixValueSets(*enc, *solved, MentionedPairs(normalized));
  ASSERT_EQ(sets.size(), 2u);
  const auto& teacher_set = sets.at({"teacher", "name"});
  const auto& subject_set = sets.at({"subject", "taught_by"});
  // Inclusion realized as prefix containment on the global chain.
  ASSERT_LE(teacher_set.size(), subject_set.size());
  for (size_t i = 0; i < teacher_set.size(); ++i) {
    EXPECT_EQ(teacher_set[i], subject_set[i]);
  }
}

TEST(WitnessTest, NodeBudgetEnforced) {
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());
  // Demand a large document but cap materialization below it.
  enc->system.AddConstraint(LinearExpr::Var(enc->ext_var.at("item1")),
                            RelOp::kGe, BigInt(500));
  EncodingSolveOptions solve_options;
  auto solved = SolveEncodingSystem(*enc, enc->system, solve_options);
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(solved->feasible);
  WitnessOptions witness_options;
  witness_options.max_nodes = 100;
  auto tree = BuildWitnessTree(*enc, *solved, {}, witness_options);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kResourceExhausted);
}

TEST(WitnessTest, AuctionWorkloadEndToEnd) {
  Dtd dtd = workloads::AuctionDtd(2);
  ConstraintSet sigma = workloads::AuctionSigma(2);
  ASSERT_TRUE(sigma.CheckAgainst(dtd).ok());
  ConsistencyOptions options;
  options.min_witness_nodes = 20;
  auto result = CheckConsistency(dtd, sigma, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->consistent);
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(ValidateXml(*result->witness, dtd).valid);
  EXPECT_TRUE(Evaluate(*result->witness, sigma).satisfied)
      << Evaluate(*result->witness, sigma).ToString();
  // The sizing forced actual content: at least one person exists whenever
  // an item does (seller FK + conditionals).
  if (!result->witness->ExtOfType("item1").empty()) {
    EXPECT_FALSE(result->witness->ExtOfType("person").empty());
  }
}

TEST(WitnessTest, WitnessHasNoSyntheticLabels) {
  Dtd dtd = workloads::CatalogDtd(3);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(3);
  ConsistencyOptions options;
  options.min_witness_nodes = 25;
  auto result = CheckConsistency(dtd, sigma, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->witness.has_value());
  for (NodeId node = 0; node < result->witness->size(); ++node) {
    if (!result->witness->IsElement(node)) continue;
    EXPECT_TRUE(dtd.HasElement(result->witness->label(node)))
        << "synthetic label leaked: " << result->witness->label(node);
  }
}

}  // namespace
}  // namespace xicc
