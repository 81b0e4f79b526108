// Differential testing of SpecSession against the fresh per-query pipeline:
// the session answers every query by pushing C_Σ rows onto the compiled
// skeleton's trail with a warm-started dual simplex, so the cheap thing to
// get wrong is exactly the verdict. Every test here runs the same (D, Σ)
// through both paths and requires identical verdicts, classes, methods and
// explanations; witnesses may differ byte-wise (a different LP vertex
// realizes a different tree) but must independently check out against D
// and Σ.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/deadline.h"
#include "constraints/evaluator.h"
#include "core/consistency.h"
#include "core/implication.h"
#include "core/incremental.h"
#include "core/spec_session.h"
#include "dtd/validator.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

using Outcome = IncrementalChecker::Outcome;

/// Fresh-vs-session check of one query; `label` names the corpus entry in
/// failure output.
void ExpectSameVerdict(const Dtd& dtd, SpecSession& session,
                       const ConstraintSet& sigma,
                       const ConsistencyOptions& options,
                       const std::string& label,
                       ConsistencyResult* session_out = nullptr) {
  auto fresh = CheckConsistency(dtd, sigma, options);
  auto via_session = session.Check(sigma);
  ASSERT_EQ(fresh.ok(), via_session.ok())
      << label << ": fresh=" << fresh.status()
      << " session=" << via_session.status();
  if (!fresh.ok()) return;
  if (session_out != nullptr) *session_out = *via_session;
  EXPECT_EQ(fresh->consistent, via_session->consistent)
      << label << ": fresh says '" << fresh->explanation
      << "', session says '" << via_session->explanation << "'";
  EXPECT_EQ(fresh->constraint_class, via_session->constraint_class) << label;
  EXPECT_EQ(fresh->method, via_session->method) << label;
  EXPECT_EQ(fresh->explanation, via_session->explanation) << label;
  EXPECT_EQ(fresh->witness.has_value(), via_session->witness.has_value())
      << label;
  if (via_session->witness.has_value()) {
    EXPECT_TRUE(ValidateXml(*via_session->witness, dtd).valid) << label;
    EXPECT_TRUE(Evaluate(*via_session->witness, sigma).satisfied) << label;
  }
}

TEST(SpecSessionDifferentialTest, CatalogRandomUnaryCorpus) {
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ConsistencyOptions options;
  SpecSession session(*compiled, options);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ConstraintSet sigma = workloads::RandomUnarySigma(dtd, seed, 3, 2);
    ExpectSameVerdict(dtd, session, sigma, options,
                      "catalog seed " + std::to_string(seed));
  }
  ExpectSameVerdict(dtd, session, workloads::CatalogFkChainSigma(3), options,
                    "catalog fk chain");
  ExpectSameVerdict(dtd, session, workloads::AllKeysSigma(dtd), options,
                    "catalog all keys");
  ExpectSameVerdict(dtd, session, ConstraintSet(), options, "catalog empty");
  EXPECT_GT(session.stats().sigma_delta_checks, 0u);
}

TEST(SpecSessionDifferentialTest, AuctionCorpus) {
  Dtd dtd = workloads::AuctionDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ConsistencyOptions options;
  SpecSession session(*compiled, options);
  ExpectSameVerdict(dtd, session, workloads::AuctionSigma(2), options,
                    "auction sigma");
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    ConstraintSet sigma = workloads::RandomUnarySigma(dtd, seed, 4, 3);
    ExpectSameVerdict(dtd, session, sigma, options,
                      "auction seed " + std::to_string(seed));
  }
}

TEST(SpecSessionDifferentialTest, ChainAndTeacher) {
  Dtd chain = workloads::ChainDtd(5);
  auto compiled_chain = CompileDtd(chain);
  ASSERT_TRUE(compiled_chain.ok());
  ConsistencyOptions options;
  SpecSession chain_session(*compiled_chain, options);
  ExpectSameVerdict(chain, chain_session, workloads::AllKeysSigma(chain),
                    options, "chain all keys");

  // Σ1 over D1 is the paper's flagship inconsistent instance; the session
  // must reproduce the fresh explanation, not just the bit.
  Dtd teacher = workloads::TeacherDtd();
  auto compiled_teacher = CompileDtd(teacher);
  ASSERT_TRUE(compiled_teacher.ok());
  SpecSession teacher_session(*compiled_teacher, options);
  auto fresh = CheckConsistency(teacher, workloads::TeacherSigma(), options);
  auto via_session = teacher_session.Check(workloads::TeacherSigma());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(via_session.ok());
  EXPECT_FALSE(via_session->consistent);
  EXPECT_EQ(fresh->explanation, via_session->explanation);
}

TEST(SpecSessionDifferentialTest, LipGadgets) {
  // NP-hardness gadgets force real case-split search through the trail path.
  ConsistencyOptions options;
  for (uint64_t seed = 2; seed <= 5; ++seed) {
    workloads::LipEncoding lip =
        workloads::EncodeLipAsConsistency(workloads::RandomLip(seed, 3, 4, 2));
    auto compiled = CompileDtd(lip.dtd);
    ASSERT_TRUE(compiled.ok());
    SpecSession session(*compiled, options);
    ExpectSameVerdict(lip.dtd, session, lip.sigma, options,
                      "lip seed " + std::to_string(seed));
  }
}

TEST(SpecSessionDifferentialTest, NegatedConstraintsAndFallback) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  ConsistencyOptions options;
  SpecSession session(*compiled, options);

  // Negated keys ride the trail (kUnaryWithNegKey)...
  ConstraintSet neg_key;
  neg_key.Add(Constraint::Key("item1", {"id"}));
  neg_key.Add(Constraint::NegKey("item2", {"id"}));
  ExpectSameVerdict(dtd, session, neg_key, options, "negated key");

  // ...and so do negated inclusions: the Section 5 region variables and
  // rows are pushed onto the skeleton too, and the re-solve stays warm.
  ConstraintSet neg_inc;
  neg_inc.Add(Constraint::Inclusion("item1", {"ref"}, "item2", {"id"}));
  neg_inc.Add(Constraint::NegInclusion("item1", {"id"}, "item2", {"id"}));
  const size_t delta_checks = session.stats().sigma_delta_checks;
  ConsistencyResult solved;
  ExpectSameVerdict(dtd, session, neg_inc, options, "negated inclusion",
                    &solved);
  EXPECT_EQ(session.stats().sigma_delta_checks, delta_checks + 1);
  EXPECT_EQ(solved.stats.sigma_delta_checks, 1u);
  EXPECT_EQ(solved.stats.cold_restarts, 0u);
  EXPECT_GT(solved.stats.warm_starts, 0u);
}

TEST(SpecSessionDifferentialTest, MinWitnessNodesParity) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  ConsistencyOptions options;
  options.min_witness_nodes = 12;
  SpecSession session(*compiled, options);

  // Keys-only cell: Σ itself is linear-cell but the size bound rides the
  // trail as the one delta row.
  ConstraintSet keys = workloads::AllKeysSigma(dtd);
  ExpectSameVerdict(dtd, session, keys, options, "min-size keys-only");
  auto sized = session.Check(keys);
  ASSERT_TRUE(sized.ok());
  ASSERT_TRUE(sized->witness.has_value());
  EXPECT_GE(sized->witness->size(), 12u);

  // NP cell with the same bound.
  ExpectSameVerdict(dtd, session, workloads::CatalogFkChainSigma(2), options,
                    "min-size fk chain");

  // Every document of r → e1 → e2 → e3 has four elements, so the bound is
  // out of reach; both paths must say so in the same words, in the linear
  // cell and in the NP cell.
  Dtd chain = workloads::ChainDtd(3);
  auto compiled_chain = CompileDtd(chain);
  ASSERT_TRUE(compiled_chain.ok());
  SpecSession chain_session(*compiled_chain, options);
  ConstraintSet chain_keys = workloads::AllKeysSigma(chain);
  ExpectSameVerdict(chain, chain_session, chain_keys, options,
                    "min-size out of reach, keys-only");
  auto too_large = chain_session.Check(chain_keys);
  ASSERT_TRUE(too_large.ok());
  EXPECT_FALSE(too_large->consistent);
  EXPECT_EQ(too_large->explanation,
            "the DTD admits no document with the requested minimum size");
  ConstraintSet chain_fk;
  chain_fk.Add(Constraint::ForeignKey("e1", {"id"}, "e2", {"id"}));
  ExpectSameVerdict(chain, chain_session, chain_fk, options,
                    "min-size out of reach, fk");
}

TEST(SpecSessionTest, MemoHitsAndEviction) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  SpecSession session(*compiled, ConsistencyOptions(), /*memo_capacity=*/2);

  ConstraintSet a = workloads::AllKeysSigma(dtd);
  ConstraintSet b = workloads::CatalogFkChainSigma(2);
  ConstraintSet c;
  c.Add(Constraint::Key("item1", {"id"}));

  ASSERT_TRUE(session.Check(a).ok());
  auto again = session.Check(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session.stats().memo_hits, 1u);
  // The memo answer reports zero incremental cost.
  EXPECT_EQ(again->stats.memo_hits, 1u);
  EXPECT_EQ(again->stats.compile_ms, 0.0);

  // A repeated FK query solves once; the hit reports none of that solve.
  auto solved = session.Check(b);
  ASSERT_TRUE(solved.ok());
  EXPECT_GT(solved->stats.lp_pivots, 0u);
  EXPECT_EQ(solved->stats.sigma_delta_checks, 1u);
  auto hit = session.Check(b);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->consistent, solved->consistent);
  EXPECT_EQ(hit->stats.memo_hits, 1u);
  EXPECT_EQ(hit->stats.memo_misses, 0u);
  EXPECT_EQ(hit->stats.lp_pivots, 0u);
  EXPECT_EQ(hit->stats.ilp_nodes, 0u);
  EXPECT_EQ(hit->stats.sigma_delta_checks, 0u);

  // Capacity 2: a third distinct key evicts the least recently used.
  ASSERT_TRUE(session.Check(c).ok());
  EXPECT_GE(session.stats().memo_evictions, 1u);
  EXPECT_EQ(session.stats().queries, 5u);
}

TEST(SpecSessionTest, MemoKeyIsCanonical) {
  // The same Σ in a different order and with FKs split into parts must hit.
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  SpecSession session(*compiled);

  ConstraintSet as_fk;
  as_fk.Add(Constraint::ForeignKey("item1", {"ref"}, "item2", {"id"}));
  ConstraintSet as_parts;
  as_parts.Add(Constraint::Key("item2", {"id"}));
  as_parts.Add(Constraint::Inclusion("item1", {"ref"}, "item2", {"id"}));

  ASSERT_TRUE(session.Check(as_fk).ok());
  ASSERT_TRUE(session.Check(as_parts).ok());
  EXPECT_EQ(session.stats().memo_hits, 1u);
}

TEST(SpecSessionTest, CommitLayersAndRollback) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  SpecSession session(*compiled);

  ConstraintSet keys;
  keys.Add(Constraint::Key("item2", {"id"}));
  ASSERT_TRUE(session.Commit(keys).ok());

  // Committed constraints join every later query: check of just the
  // inclusion is evaluated as key + inclusion.
  ConstraintSet inclusion;
  inclusion.Add(Constraint::Inclusion("item1", {"ref"}, "item2", {"id"}));
  auto combined = session.Check(inclusion);
  ASSERT_TRUE(combined.ok());
  EXPECT_TRUE(combined->consistent);
  ASSERT_TRUE(combined->witness.has_value());
  ConstraintSet both = keys;
  both.Add(Constraint::Inclusion("item1", {"ref"}, "item2", {"id"}));
  EXPECT_TRUE(Evaluate(*combined->witness, both).satisfied);

  session.Rollback();
  EXPECT_TRUE(session.committed().empty());
}

TEST(SpecSessionTest, ImpliesMatchesFreshImplication) {
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  SpecSession session(*compiled);

  ConstraintSet sigma;
  sigma.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::Inclusion("item2", {"id"}, "item3", {"id"}));
  sigma.Add(Constraint::Key("item3", {"id"}));
  ASSERT_TRUE(session.Commit(sigma).ok());

  std::vector<Constraint> phis = {
      // Implied: transitivity of the inclusions.
      Constraint::Inclusion("item1", {"id"}, "item3", {"id"}),
      // Implied: FK = inclusion + key of the target.
      Constraint::ForeignKey("item2", {"id"}, "item3", {"id"}),
      // Not implied: nothing keys item1.
      Constraint::Key("item1", {"id"}),
      // Not implied: the reverse inclusion.
      Constraint::Inclusion("item3", {"id"}, "item1", {"id"}),
  };
  for (const Constraint& phi : phis) {
    auto fresh = CheckImplication(dtd, sigma, phi);
    auto via_session = session.Implies(phi);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(via_session.ok()) << via_session.status();
    EXPECT_EQ(fresh->implied, via_session->implied) << phi.ToString();
    EXPECT_EQ(fresh->method, via_session->method) << phi.ToString();
    EXPECT_EQ(fresh->explanation, via_session->explanation) << phi.ToString();
    if (via_session->counterexample.has_value()) {
      // Counterexamples satisfy Σ and violate φ.
      EXPECT_TRUE(ValidateXml(*via_session->counterexample, dtd).valid);
      EXPECT_TRUE(Evaluate(*via_session->counterexample, sigma).satisfied);
      EXPECT_FALSE(Evaluate(*via_session->counterexample, phi).satisfied);
    }
  }
}

TEST(SpecSessionTest, KeysOnlyImplicationLemma37) {
  // Lemma 3.7 fast path: keys-only committed set, key φ.
  Dtd dtd = workloads::TeacherDtd();
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  SpecSession session(*compiled);
  ConstraintSet keys;
  keys.Add(Constraint::Key("teacher", {"name"}));
  ASSERT_TRUE(session.Commit(keys).ok());

  auto stated = session.Implies(Constraint::Key("teacher", {"name"}));
  auto fresh_stated =
      CheckImplication(dtd, keys, Constraint::Key("teacher", {"name"}));
  ASSERT_TRUE(stated.ok());
  ASSERT_TRUE(fresh_stated.ok());
  EXPECT_TRUE(stated->implied);
  EXPECT_EQ(fresh_stated->method, stated->method);
  EXPECT_EQ(fresh_stated->explanation, stated->explanation);

  auto unstated = session.Implies(Constraint::Key("subject", {"taught_by"}));
  auto fresh =
      CheckImplication(dtd, keys, Constraint::Key("subject", {"taught_by"}));
  ASSERT_TRUE(unstated.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->implied, unstated->implied);
  EXPECT_EQ(fresh->method, unstated->method);
  EXPECT_EQ(fresh->explanation, unstated->explanation);
  EXPECT_EQ(unstated->counterexample.has_value(),
            fresh->counterexample.has_value());
}

// ------------------------------------------ Implication differential.

/// What one implication corpus exercised.
struct ImpliesTally {
  size_t implied = 0;
  size_t not_implied = 0;
  size_t counterexamples = 0;
  size_t fk_refutations = 0;
  size_t fk_warm_starts = 0;
};

/// Fresh-vs-session implication of `phi` over (D, session.committed()): the
/// same verdict, method and explanation, a counterexample on both sides or
/// on neither, and the session's counterexample checked independently.
void ExpectSameImplication(const Dtd& dtd, SpecSession& session,
                           const Constraint& phi,
                           const ConsistencyOptions& options,
                           const std::string& label, ImpliesTally* tally) {
  const ConstraintSet sigma = session.committed();
  auto fresh = CheckImplication(dtd, sigma, phi, options);
  auto via_session = session.Implies(phi);
  ASSERT_EQ(fresh.ok(), via_session.ok())
      << label << ": fresh=" << fresh.status()
      << " session=" << via_session.status();
  if (!fresh.ok()) {
    EXPECT_EQ(fresh.status().code(), via_session.status().code()) << label;
    return;
  }
  EXPECT_EQ(fresh->implied, via_session->implied)
      << label << ": fresh says '" << fresh->explanation
      << "', session says '" << via_session->explanation << "'";
  EXPECT_EQ(fresh->method, via_session->method) << label;
  EXPECT_EQ(fresh->explanation, via_session->explanation) << label;
  EXPECT_EQ(fresh->counterexample.has_value(),
            via_session->counterexample.has_value())
      << label;
  ++(via_session->implied ? tally->implied : tally->not_implied);
  if (via_session->counterexample.has_value()) {
    ++tally->counterexamples;
    const XmlTree& tree = *via_session->counterexample;
    EXPECT_TRUE(ValidateXml(tree, dtd).valid) << label;
    EXPECT_TRUE(Evaluate(tree, sigma).satisfied) << label;
    EXPECT_FALSE(Evaluate(tree, phi).satisfied) << label;
  }
  if (phi.kind == ConstraintKind::kForeignKey &&
      via_session->method == "refutation") {
    // Both components ride the skeleton: the inclusion through the region
    // system, the key through the negated-key cell.
    ++tally->fk_refutations;
    EXPECT_EQ(via_session->stats.cold_restarts, 0u) << label;
    tally->fk_warm_starts += via_session->stats.warm_starts;
  }
}

/// One session over `dtd`, asked key and foreign-key goals after each
/// edit: nothing committed (the Lemma 3.7 branch for keys), a layer of
/// keys, a layer of foreign keys, a layer with a negated inclusion, then
/// two rollbacks. Committed constraints are asked back too (implied).
void RunImpliesCorpus(const Dtd& dtd, bool witnesses, uint64_t seed,
                      const std::string& name, ImpliesTally* tally) {
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ConsistencyOptions options;
  options.build_witness = witnesses;
  SpecSession session(*compiled, options);
  const std::vector<std::pair<std::string, std::string>> pairs =
      dtd.AllAttributePairs();
  std::mt19937_64 rng(seed);
  auto pick = [&] { return pairs[rng() % pairs.size()]; };
  auto ask = [&](const std::string& stage) {
    for (int g = 0; g < 3; ++g) {
      const auto [t1, a1] = pick();
      const auto [t2, a2] = pick();
      const Constraint key = Constraint::Key(t1, {a1});
      const Constraint fk = Constraint::ForeignKey(t1, {a1}, t2, {a2});
      ExpectSameImplication(dtd, session, key, options,
                            name + " " + stage + ": " + key.ToString(), tally);
      ExpectSameImplication(dtd, session, fk, options,
                            name + " " + stage + ": " + fk.ToString(), tally);
    }
    const std::vector<Constraint>& committed =
        session.committed().constraints();
    for (size_t i = 0; i < committed.size() && i < 3; ++i) {
      if (committed[i].kind == ConstraintKind::kNegInclusion) continue;
      ExpectSameImplication(dtd, session, committed[i], options,
                            name + " " + stage + " committed: " +
                                committed[i].ToString(),
                            tally);
    }
  };

  ask("empty");
  const ConstraintSet sigma =
      workloads::RandomUnarySigma(dtd, seed, /*keys=*/3, /*fks=*/2);
  ConstraintSet keys;
  ConstraintSet fks;
  for (const Constraint& c : sigma.constraints()) {
    (c.kind == ConstraintKind::kKey ? keys : fks).Add(c);
  }
  ASSERT_TRUE(session.Commit(keys).ok());
  ask("keys");
  ASSERT_TRUE(session.Commit(fks).ok());
  ask("keys+fks");
  const auto [t1, a1] = pick();
  const auto [t2, a2] = pick();
  ConstraintSet negated;
  negated.Add(Constraint::NegInclusion(t1, {a1}, t2, {a2}));
  ASSERT_TRUE(session.Commit(negated).ok());
  ask("keys+fks+neg");
  session.Rollback();
  session.Rollback();
  ask("rolled back");
}

TEST(SpecSessionImpliesDifferentialTest, CatalogAndAuctionFamilies) {
  // Witnesses alternate with the size, so each family runs both ways.
  ImpliesTally tally;
  for (size_t sections = 6; sections <= 20; ++sections) {
    RunImpliesCorpus(workloads::CatalogDtd(sections), sections % 2 == 0,
                     /*seed=*/100 + sections,
                     "catalog " + std::to_string(sections), &tally);
    ASSERT_FALSE(HasFatalFailure());
  }
  for (size_t regions = 3; regions <= 10; ++regions) {
    RunImpliesCorpus(workloads::AuctionDtd(regions), regions % 2 == 1,
                     /*seed=*/200 + regions,
                     "auction " + std::to_string(regions), &tally);
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_GT(tally.implied, 50u);
  EXPECT_GT(tally.not_implied, 50u);
  EXPECT_GT(tally.counterexamples, 50u);
  EXPECT_GT(tally.fk_refutations, 50u);
  EXPECT_GT(tally.fk_warm_starts, 0u);
}

TEST(SpecSessionImpliesDifferentialTest, OversizedRegionComponentIsExhausted) {
  // item1.id ⊆ … ⊆ item5.id joins five pairs; the goal's negated inclusion
  // adds item6.id, one component of six pairs against a limit of three.
  Dtd dtd = workloads::CatalogDtd(6);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  ConsistencyOptions options;
  options.set_representation.max_component_pairs = 3;
  SpecSession session(*compiled, options);
  ConstraintSet chain;
  for (int i = 1; i < 5; ++i) {
    chain.Add(Constraint::Inclusion("item" + std::to_string(i), {"id"},
                                    "item" + std::to_string(i + 1), {"id"}));
  }
  ASSERT_TRUE(session.Commit(chain).ok());
  const Constraint phi =
      Constraint::ForeignKey("item6", {"id"}, "item1", {"id"});
  auto fresh = CheckImplication(dtd, chain, phi, options);
  auto via_session = session.Implies(phi);
  ASSERT_FALSE(fresh.ok());
  ASSERT_FALSE(via_session.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(via_session.status().code(), StatusCode::kResourceExhausted);

  // The failed query left the session system as it found it.
  ImpliesTally tally;
  ExpectSameImplication(dtd, session,
                        Constraint::Inclusion("item1", {"id"}, "item3", {"id"}),
                        options, "after the exhausted query", &tally);
  ExpectSameImplication(dtd, session, Constraint::Key("item2", {"id"}),
                        options, "after the exhausted query", &tally);
}

TEST(SpecSessionImpliesTest, PreFiredCancelStopsTheCounterexampleSolve) {
  // Σ = ∅ and a key goal take the Lemma 3.7 branch, whose only solve is
  // the two-element counterexample; a fired stop must end it on both paths.
  Dtd dtd = workloads::CatalogDtd(4);
  const Constraint phi = Constraint::Key("item1", {"id"});
  CancelToken token;
  token.Cancel();
  ConsistencyOptions options;
  options.stop.cancel = &token;
  auto fresh = CheckImplication(dtd, ConstraintSet(), phi, options);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kCancelled);

  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  SpecSession session(*compiled, options);
  auto stopped = session.Implies(phi);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);

  // Disarmed, the same session answers, and the counterexample's solve ran
  // warm on the skeleton.
  session.SetStop(StopSignal());
  auto answered = session.Implies(phi);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_FALSE(answered->implied);
  ASSERT_TRUE(answered->counterexample.has_value());
  EXPECT_FALSE(Evaluate(*answered->counterexample, phi).satisfied);
  EXPECT_EQ(answered->stats.cold_restarts, 0u);
  EXPECT_GT(answered->stats.warm_starts, 0u);
}

TEST(SpecSessionImpliesTest, PreFiredStopEndsTheQueryBeforeAnyVerdict) {
  // Without witnesses the Lemma 3.7 branch runs no solve at all, so only
  // the query's own stop check keeps a fired stop from answering: for a
  // goal the branch would call not implied, and for a subsumed one.
  Dtd dtd = workloads::CatalogDtd(4);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  const Constraint phi = Constraint::Key("item1", {"id"});
  ConstraintSet subsuming;
  subsuming.Add(phi);
  CancelToken token;
  token.Cancel();
  ConsistencyOptions options;
  options.build_witness = false;
  options.stop.cancel = &token;
  for (const ConstraintSet& sigma : {ConstraintSet(), subsuming}) {
    const std::string what = sigma.constraints().empty() ? "not implied"
                                                         : "subsumed";
    auto fresh = CheckImplication(dtd, sigma, phi, options);
    ASSERT_FALSE(fresh.ok()) << what;
    EXPECT_EQ(fresh.status().code(), StatusCode::kCancelled) << what;

    SpecSession session(*compiled, options);
    ASSERT_TRUE(session.Commit(sigma).ok());
    auto via_session = session.Implies(phi);
    ASSERT_FALSE(via_session.ok()) << what;
    EXPECT_EQ(via_session.status().code(), StatusCode::kCancelled) << what;
  }
}

TEST(SpecSessionImpliesTest, ForeignKeyStatsSumBothComponents) {
  // A foreign-key goal is decided as its inclusion and its key component;
  // its report counts the work of both.
  Dtd dtd = workloads::CatalogDtd(3);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  ConstraintSet sigma;
  sigma.Add(Constraint::Inclusion("item1", {"id"}, "item2", {"id"}));
  sigma.Add(Constraint::Key("item2", {"id"}));
  sigma.Add(Constraint::NegKey("item3", {"id"}));
  const Constraint fk =
      Constraint::ForeignKey("item1", {"id"}, "item2", {"id"});
  const Constraint inclusion =
      Constraint::Inclusion("item1", {"id"}, "item2", {"id"});
  const Constraint key = Constraint::Key("item2", {"id"});
  ConsistencyOptions options;
  options.build_witness = false;

  auto fresh_fk = CheckImplication(dtd, sigma, fk, options);
  auto fresh_inclusion = CheckImplication(dtd, sigma, inclusion, options);
  auto fresh_key = CheckImplication(dtd, sigma, key, options);
  ASSERT_TRUE(fresh_fk.ok()) << fresh_fk.status();
  ASSERT_TRUE(fresh_inclusion.ok()) << fresh_inclusion.status();
  ASSERT_TRUE(fresh_key.ok()) << fresh_key.status();
  EXPECT_TRUE(fresh_fk->implied);
  EXPECT_GT(fresh_inclusion->stats.lp_pivots, 0u);
  EXPECT_GT(fresh_key->stats.lp_pivots, 0u);
  EXPECT_EQ(fresh_fk->stats.lp_pivots,
            fresh_inclusion->stats.lp_pivots + fresh_key->stats.lp_pivots);

  SpecSession session(*compiled, options, /*memo_capacity=*/0);
  ASSERT_TRUE(session.Commit(sigma).ok());
  auto session_fk = session.Implies(fk);
  auto session_inclusion = session.Implies(inclusion);
  auto session_key = session.Implies(key);
  ASSERT_TRUE(session_fk.ok()) << session_fk.status();
  ASSERT_TRUE(session_inclusion.ok()) << session_inclusion.status();
  ASSERT_TRUE(session_key.ok()) << session_key.status();
  EXPECT_TRUE(session_fk->implied);
  EXPECT_EQ(session_fk->stats.lp_pivots, session_inclusion->stats.lp_pivots +
                                             session_key->stats.lp_pivots);
}

// ------------------------------------------- IncrementalChecker ablation.

TEST(IncrementalSessionTest, SessionAndFreshModesAgreeOnOutcomeSequences) {
  Dtd dtd = workloads::CatalogDtd(3);
  std::vector<Constraint> additions = {
      Constraint::Key("item1", {"id"}),
      Constraint::Key("item2", {"id"}),
      Constraint::ForeignKey("item1", {"ref"}, "item2", {"id"}),
      Constraint::ForeignKey("item1", {"ref"}, "item2", {"id"}),  // duplicate
      Constraint::Inclusion("item1", {"ref"}, "item2", {"id"}),   // implied
      Constraint::Key("item3", {"id"}),
  };
  IncrementalChecker session_mode(&dtd, {}, /*check_redundancy=*/true,
                                  IncrementalChecker::Mode::kSession);
  IncrementalChecker fresh_mode(&dtd, {}, /*check_redundancy=*/true,
                                IncrementalChecker::Mode::kFresh);
  for (const Constraint& c : additions) {
    auto via_session = session_mode.TryAdd(c);
    auto via_fresh = fresh_mode.TryAdd(c);
    ASSERT_TRUE(via_session.ok()) << c.ToString() << ": "
                                  << via_session.status();
    ASSERT_TRUE(via_fresh.ok()) << c.ToString() << ": " << via_fresh.status();
    EXPECT_EQ(via_session->outcome, via_fresh->outcome) << c.ToString();
  }
  EXPECT_EQ(session_mode.accepted().ToString(),
            fresh_mode.accepted().ToString());
  EXPECT_GT(session_mode.session_stats().sigma_delta_checks, 0u);
  EXPECT_EQ(fresh_mode.session_stats().queries, 0u);

  // Negated keys cannot be tested for redundancy (¬¬k is not a constraint —
  // both modes reject that identically), so they ride with redundancy off.
  IncrementalChecker session_neg(&dtd, {}, /*check_redundancy=*/false,
                                 IncrementalChecker::Mode::kSession);
  IncrementalChecker fresh_neg(&dtd, {}, /*check_redundancy=*/false,
                               IncrementalChecker::Mode::kFresh);
  std::vector<Constraint> with_neg = {
      Constraint::Key("item1", {"id"}),
      Constraint::NegKey("item3", {"ref"}),
      Constraint::ForeignKey("item1", {"ref"}, "item2", {"id"}),
  };
  for (const Constraint& c : with_neg) {
    auto via_session = session_neg.TryAdd(c);
    auto via_fresh = fresh_neg.TryAdd(c);
    ASSERT_TRUE(via_session.ok()) << c.ToString() << ": "
                                  << via_session.status();
    ASSERT_TRUE(via_fresh.ok()) << c.ToString() << ": " << via_fresh.status();
    EXPECT_EQ(via_session->outcome, via_fresh->outcome) << c.ToString();
  }
  EXPECT_EQ(session_neg.accepted().ToString(), fresh_neg.accepted().ToString());
}

TEST(IncrementalSessionTest, Sigma1RejectionParity) {
  // The paper's Σ1-over-D1 authoring story must play out identically in
  // both modes, including which addition is the fatal one.
  Dtd d1 = workloads::TeacherDtd();
  for (auto mode : {IncrementalChecker::Mode::kSession,
                    IncrementalChecker::Mode::kFresh}) {
    IncrementalChecker checker(&d1, {}, true, mode);
    std::vector<Constraint> sigma1 = workloads::TeacherSigma().constraints();
    std::vector<Outcome> outcomes;
    for (const Constraint& c : sigma1) {
      auto result = checker.TryAdd(c);
      ASSERT_TRUE(result.ok()) << result.status();
      outcomes.push_back(result->outcome);
    }
    EXPECT_EQ(outcomes, (std::vector<Outcome>{Outcome::kAccepted,
                                              Outcome::kAccepted,
                                              Outcome::kRejected}));
    EXPECT_EQ(checker.accepted().size(), 2u);
  }
}

TEST(IncrementalSessionTest, AcceptedAdditionsCarryCheckedWitnesses) {
  // The small fix: TryAdd no longer force-disables witness building, so an
  // accepted addition reports a witness of the whole accepted set.
  Dtd dtd = workloads::CatalogDtd(2);
  ConsistencyOptions options;
  options.min_witness_nodes = 8;
  IncrementalChecker checker(&dtd, options);

  auto key = checker.TryAdd(Constraint::Key("item2", {"id"}));
  ASSERT_TRUE(key.ok()) << key.status();
  ASSERT_EQ(key->outcome, Outcome::kAccepted);
  ASSERT_TRUE(key->witness.has_value());
  EXPECT_GE(key->witness->size(), 8u);
  EXPECT_TRUE(ValidateXml(*key->witness, dtd).valid);

  auto fk = checker.TryAdd(
      Constraint::ForeignKey("item1", {"ref"}, "item2", {"id"}));
  ASSERT_TRUE(fk.ok()) << fk.status();
  ASSERT_EQ(fk->outcome, Outcome::kAccepted);
  ASSERT_TRUE(fk->witness.has_value());
  EXPECT_TRUE(ValidateXml(*fk->witness, dtd).valid);
  EXPECT_TRUE(Evaluate(*fk->witness, checker.accepted()).satisfied);
}

TEST(SpecSessionTest, EmptyLanguageDtdCompilesAndAnswers) {
  // D2: db → foo, foo → foo — no finite tree. Compilation succeeds and the
  // precomputed facts answer every query without touching the solver.
  Dtd d2 = workloads::InfiniteDtd();
  auto compiled = CompileDtd(d2);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  SpecSession session(*compiled);
  auto fresh = CheckConsistency(d2, ConstraintSet());
  auto via_session = session.Check(ConstraintSet());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(via_session.ok());
  EXPECT_FALSE(via_session->consistent);
  EXPECT_EQ(fresh->explanation, via_session->explanation);
}

TEST(SpecSessionMemoTest, ConcurrentStressKeepsExactAccounting) {
  // 16 threads hammer one small sharded memo with colliding keys — hits,
  // misses, stores, duplicate stores, and evictions all in flight at once.
  // The memo's counters are exact by contract (atomic, never sampled), so
  // at quiescence the books must balance to the last operation, and every
  // payload ever returned must match the key it was stored under. TSan
  // runs this binary in CI, so the lock-free-read path is exercised under
  // the race detector, not just under load.
  constexpr size_t kThreads = 16;
  constexpr size_t kOpsPerThread = 400;
  constexpr size_t kKeySpace = 48;
  // Capacity far below the key space, few shards: every shard sees
  // insert-at-capacity evictions while other threads read it.
  SharedSigmaMemo memo(/*capacity=*/12, /*num_shards=*/4);

  std::vector<size_t> lookups(kThreads, 0);
  std::vector<size_t> observed_hits(kThreads, 0);
  std::vector<size_t> store_attempts(kThreads, 0);
  std::vector<std::string> payload_errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        // Deterministic per-thread walk over a shared key space; odd ops
        // store, even ops look up, so both paths interleave on every key.
        const size_t k = (t * 131 + op * 17) % kKeySpace;
        const std::string key = "sigma-" + std::to_string(k);
        if (op % 2 == 0) {
          ++lookups[t];
          std::shared_ptr<const ConsistencyResult> found =
              memo.LookupShared(key);
          if (found != nullptr) {
            ++observed_hits[t];
            if (found->explanation != key) {
              payload_errors[t] = "key " + key + " returned payload for " +
                                  found->explanation;
              return;
            }
          }
        } else {
          ++store_attempts[t];
          ConsistencyResult result;
          result.consistent = true;
          result.explanation = key;  // Payload-integrity marker.
          memo.Store(key, result);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t total_lookups = 0, total_observed_hits = 0, total_stores = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(payload_errors[t].empty())
        << "thread " << t << ": " << payload_errors[t];
    total_lookups += lookups[t];
    total_observed_hits += observed_hits[t];
    total_stores += store_attempts[t];
  }
  const SharedSigmaMemo::Stats stats = memo.TotalStats();
  // Exact accounting: every lookup is a hit or a miss, every store attempt
  // an insert or a duplicate, and what the threads saw is what was counted.
  EXPECT_EQ(stats.hits + stats.misses, total_lookups);
  EXPECT_EQ(stats.hits, total_observed_hits);
  EXPECT_EQ(stats.stores + stats.duplicate_stores, total_stores);
  // Far more inserts than capacity → evictions must have happened, and
  // never more than there were inserts.
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.evictions, stats.stores);
  // The colliding key space guarantees both hits and duplicate stores.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.duplicate_stores, 0u);
}

TEST(SpecSessionMemoTest, CapacityZeroBypassesFromEveryWorker) {
  // The PR-4 contract, now under concurrency: a capacity-0 memo is a true
  // bypass — no shard locks, no hashing, no counters — no matter how many
  // workers hit it at once. Every lookup must miss, every store must be a
  // no-op, and the books must read all-zero afterwards (a nonzero counter
  // would mean the bypass path regressed into touching shard state).
  constexpr size_t kThreads = 16;
  SharedSigmaMemo memo(/*capacity=*/0);
  EXPECT_EQ(memo.capacity(), 0u);

  std::vector<int> saw_phantom(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t op = 0; op < 200; ++op) {
        const std::string key = "k" + std::to_string(op % 8);
        ConsistencyResult result;
        result.explanation = key;
        if (memo.Store(key, result) != 0) saw_phantom[t] = 1;
        if (memo.LookupShared(key) != nullptr) saw_phantom[t] = 1;
        ConsistencyResult out;
        if (memo.Lookup(key, &out)) saw_phantom[t] = 1;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(saw_phantom[t], 0) << "thread " << t;
  }
  const SharedSigmaMemo::Stats stats = memo.TotalStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, 0u);
  EXPECT_EQ(stats.duplicate_stores, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

}  // namespace
}  // namespace xicc
