// Section 5: unary keys, inclusion constraints, and their negations —
// the region (z_θ) system and its realization (Theorem 5.1, Lemmas 5.2/5.3).

#include <gtest/gtest.h>

#include "constraints/evaluator.h"
#include "core/consistency.h"
#include "core/implication.h"
#include "core/set_representation.h"
#include "core/encoding_solver.h"
#include "dtd/validator.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

TEST(SetRepTest, ComponentDecomposition) {
  Dtd dtd = workloads::CatalogDtd(4);
  ConstraintSet sigma;
  // Component A: items 1–2 linked by a negated inclusion.
  sigma.Add(Constraint::NegInclusion("item1", {"id"}, "item2", {"id"}));
  // Component B: items 3–4 linked by a positive inclusion only.
  sigma.Add(Constraint::Inclusion("item3", {"id"}, "item4", {"id"}));
  auto enc = BuildSetRepresentation(dtd, sigma);
  ASSERT_TRUE(enc.ok()) << enc.status();
  ASSERT_EQ(enc->pairs.size(), 4u);
  ASSERT_EQ(enc->components.size(), 2u);
  int regions = 0;
  for (const auto& comp : enc->components) {
    if (comp.needs_regions) {
      ++regions;
      EXPECT_EQ(comp.pair_idx.size(), 2u);
      EXPECT_EQ(comp.z.size(), 3u);  // 2^2 - 1 masks.
    }
  }
  EXPECT_EQ(regions, 1);
}

TEST(SetRepTest, NegInclusionSatisfiableWithWitness) {
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  sigma.Add(Constraint::NegInclusion("item1", {"id"}, "item2", {"id"}));
  auto result = CheckConsistency(dtd, sigma);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->constraint_class, ConstraintClass::kUnaryWithNegIc);
  EXPECT_EQ(result->method, "set-representation");
  ASSERT_TRUE(result->consistent);
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(ValidateXml(*result->witness, dtd).valid);
  EXPECT_TRUE(Evaluate(*result->witness, sigma).satisfied)
      << Evaluate(*result->witness, sigma).ToString();
}

TEST(SetRepTest, InclusionAndItsNegationContradict) {
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  sigma.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::NegInclusion("item1", {"id"}, "item2", {"id"}));
  auto result = CheckConsistency(dtd, sigma);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->consistent);
}

TEST(SetRepTest, TransitiveChainContradiction) {
  // a ⊆ b, b ⊆ c, a ⊄ c is unsatisfiable; drop any link and it flips.
  Dtd dtd = workloads::CatalogDtd(3);
  ConstraintSet chain;
  chain.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  chain.Add(Constraint::Inclusion("item2", {"id"}, "item3", {"id"}));
  chain.Add(Constraint::NegInclusion("item1", {"id"}, "item3", {"id"}));
  auto result = CheckConsistency(dtd, chain);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->consistent);

  ConstraintSet weaker;
  weaker.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  weaker.Add(Constraint::NegInclusion("item1", {"id"}, "item3", {"id"}));
  auto relaxed = CheckConsistency(dtd, weaker);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->consistent);
  ASSERT_TRUE(relaxed->witness.has_value());
  EXPECT_TRUE(Evaluate(*relaxed->witness, weaker).satisfied);
}

TEST(SetRepTest, MutualNegInclusionsNeedTwoValuesEach) {
  // a ⊄ b and b ⊄ a: both sets need a private value.
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  sigma.Add(Constraint::NegInclusion("item1", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::NegInclusion("item2", {"id"}, "item1", {"id"}));
  auto result = CheckConsistency(dtd, sigma);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->consistent);
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(Evaluate(*result->witness, sigma).satisfied);
  EXPECT_GE(result->witness->ExtOfType("item1").size(), 1u);
  EXPECT_GE(result->witness->ExtOfType("item2").size(), 1u);
}

TEST(SetRepTest, NegInclusionImpossibleWhenSourceEmptyForced) {
  // In ChainDtd every element occurs exactly once; e1.id ⊄ e2.id is
  // satisfiable (distinct singletons), but e1.id ⊄ e1.id never is.
  Dtd chain = workloads::ChainDtd(3);
  ConstraintSet self;
  self.Add(Constraint::NegInclusion("e1", {"id"}, "e1", {"id"}));
  auto result = CheckConsistency(chain, self);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->consistent);

  ConstraintSet cross;
  cross.Add(Constraint::NegInclusion("e1", {"id"}, "e2", {"id"}));
  auto ok = CheckConsistency(chain, cross);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->consistent);
  ASSERT_TRUE(ok->witness.has_value());
  EXPECT_TRUE(Evaluate(*ok->witness, cross).satisfied);
}

TEST(SetRepTest, KeysInteractWithNegInclusions) {
  // key(item1.id), item1.id ⊆ item2.id, item2.id ⊄ item1.id: item2 must
  // carry strictly more values than item1 — satisfiable.
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  sigma.Add(Constraint::Key("item1", {"id"}));
  sigma.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::NegInclusion("item2", {"id"}, "item1", {"id"}));
  auto result = CheckConsistency(dtd, sigma);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->consistent);
  ASSERT_TRUE(result->witness.has_value());
  EXPECT_TRUE(Evaluate(*result->witness, sigma).satisfied)
      << Evaluate(*result->witness, sigma).ToString();
  // item2 has strictly more distinct id values than item1.
  EXPECT_GT(result->witness->ExtOfAttribute("item2", "id").size(),
            result->witness->ExtOfAttribute("item1", "id").size());
}

TEST(SetRepTest, ComponentSizeLimitEnforced) {
  Dtd dtd = workloads::CatalogDtd(6);
  ConstraintSet sigma;
  for (int i = 1; i < 6; ++i) {
    sigma.Add(Constraint::NegInclusion("item" + std::to_string(i), {"id"},
                                       "item" + std::to_string(i + 1),
                                       {"id"}));
  }
  ConsistencyOptions options;
  options.set_representation.max_component_pairs = 3;
  auto result = CheckConsistency(dtd, sigma, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(SetRepTest, RealizedSetsMatchTheUVMatrices) {
  // Lemma 5.2's set representation, verified concretely: solve the region
  // system, realize the value sets, and check that u_ij = |A_i ∩ A_j| and
  // v_ij = |A_i \ A_j| reconstructed from the z_θ solution match the
  // realized sets exactly.
  Dtd dtd = workloads::CatalogDtd(3);
  ConstraintSet sigma;
  sigma.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::NegInclusion("item3", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::NegInclusion("item2", {"id"}, "item1", {"id"}));
  auto enc = BuildSetRepresentation(dtd, sigma.Normalize());
  ASSERT_TRUE(enc.ok()) << enc.status();

  EncodingSolveOptions options;
  auto solved =
      SolveEncodingSystem(enc->base, enc->base.system, options);
  ASSERT_TRUE(solved.ok()) << solved.status();
  ASSERT_TRUE(solved->feasible);
  auto sets = RealizeValueSets(enc->base, *enc, *solved);
  ASSERT_TRUE(sets.ok()) << sets.status();

  for (const auto& comp : enc->components) {
    if (!comp.needs_regions) continue;
    const size_t k = comp.pair_idx.size();
    const size_t num_masks = (size_t{1} << k) - 1;
    // Realized sets per member pair, as std::set for intersection math.
    std::vector<std::set<std::string>> a(k);
    for (size_t i = 0; i < k; ++i) {
      const auto& values = sets->at(enc->pairs[comp.pair_idx[i]]);
      a[i] = std::set<std::string>(values.begin(), values.end());
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        // Reconstruct u_ij and v_ij from the z_θ solution.
        BigInt u(0), v(0);
        for (size_t mask = 1; mask <= num_masks; ++mask) {
          bool has_i = mask & (size_t{1} << i);
          bool has_j = mask & (size_t{1} << j);
          const BigInt& z = solved->values[comp.z[mask - 1]];
          if (has_i && has_j) u += z;
          if (has_i && !has_j) v += z;
        }
        size_t inter = 0, diff = 0;
        for (const std::string& value : a[i]) {
          if (a[j].count(value) > 0) {
            ++inter;
          } else {
            ++diff;
          }
        }
        EXPECT_EQ(u, BigInt(static_cast<int64_t>(inter)))
            << "u[" << i << "][" << j << "]";
        EXPECT_EQ(v, BigInt(static_cast<int64_t>(diff)))
            << "v[" << i << "][" << j << "]";
        // v_ii = 0 (Lemma 5.2's system demands it).
        if (i == j) EXPECT_EQ(v, BigInt(0));
      }
    }
  }
}

TEST(SetRepTest, ImplicationOfUnaryKeysViaSection5) {
  // Theorem 5.4 exercise: Σ = {a.id ⊆ b.id, b.id → b} over the catalog.
  // Does Σ imply a.id → a? Only if the DTD caps duplicates — it does not
  // (items repeat under a star), and two a-items may share an id. Not
  // implied; counterexample checked.
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  sigma.Add(Constraint::ForeignKey("item1", {"id"}, "item2", {"id"}));
  auto result = CheckImplication(dtd, sigma,
                                 Constraint::Key("item1", {"id"}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->implied);
  ASSERT_TRUE(result->counterexample.has_value());
  EXPECT_FALSE(
      Evaluate(*result->counterexample, Constraint::Key("item1", {"id"}))
          .satisfied);
}

}  // namespace
}  // namespace xicc
