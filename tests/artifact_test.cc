// Differential testing of the CompiledDtd artifact layer: a bundle that
// went through Store → Load must behave EXACTLY like the compile it came
// from — identical verdicts over the spec_session Σ-suite, identical
// semantic digest (so session warm starts see bit-identical inputs), and
// every corrupted/mismatched container must come back kInvalidArgument and
// fall back to a recompile, never UB (the ASan job runs this suite too).

#include "core/artifact.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/serde.h"
#include "constraints/evaluator.h"
#include "core/artifact_cache.h"
#include "core/audit.h"
#include "core/consistency.h"
#include "core/spec_session.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

std::string FreshDir(const std::string& name) {
  // mkdtemp: unique per invocation, so artifacts from a previous test run
  // can never satisfy this run's cold-path expectations.
  std::string pattern = testing::TempDir() + name + ".XXXXXX";
  const char* dir = ::mkdtemp(pattern.data());
  EXPECT_NE(dir, nullptr);
  return pattern;
}

/// Serialize → deserialize (copying decode; no backing) and demand the
/// loaded bundle is semantically identical to the compiled one. Decodes in
/// kDeep mode, so the layer-3 semantic-digest recompute runs on every
/// artifact shape the suite produces — the guarantee that lets the default
/// load path skip it.
std::shared_ptr<const CompiledDtd> RoundTrip(
    const std::shared_ptr<const CompiledDtd>& compiled) {
  auto bytes = SerializeCompiledDtd(*compiled);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  if (!bytes.ok()) return nullptr;
  auto loaded = DeserializeCompiledDtd(*bytes, /*backing=*/nullptr,
                                       ArtifactVerify::kDeep);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return nullptr;
  EXPECT_EQ(CompiledDtdDigest(**loaded), CompiledDtdDigest(*compiled));
  EXPECT_EQ((*loaded)->audit_digest, compiled->audit_digest);
  EXPECT_EQ((*loaded)->skeleton_tableau_valid,
            compiled->skeleton_tableau_valid);
  EXPECT_EQ((*loaded)->facts.has_valid_tree, compiled->facts.has_valid_tree);
  EXPECT_EQ((*loaded)->dtd.ToString(), compiled->dtd.ToString());
  return *loaded;
}

/// Fresh pipeline vs. a session over the LOADED artifact: same verdict,
/// class, and method; witnesses re-verified independently.
void ExpectSameVerdict(const Dtd& dtd, SpecSession& session,
                       const ConstraintSet& sigma, const std::string& label) {
  ConsistencyOptions options;
  auto fresh = CheckConsistency(dtd, sigma, options);
  auto via_loaded = session.Check(sigma);
  ASSERT_EQ(fresh.ok(), via_loaded.ok())
      << label << ": fresh=" << fresh.status()
      << " loaded=" << via_loaded.status();
  if (!fresh.ok()) return;
  EXPECT_EQ(fresh->consistent, via_loaded->consistent)
      << label << ": fresh says '" << fresh->explanation
      << "', loaded-artifact session says '" << via_loaded->explanation
      << "'";
  EXPECT_EQ(fresh->constraint_class, via_loaded->constraint_class) << label;
  EXPECT_EQ(fresh->method, via_loaded->method) << label;
  if (via_loaded->witness.has_value()) {
    EXPECT_TRUE(ValidateXml(*via_loaded->witness, dtd).valid) << label;
    EXPECT_TRUE(Evaluate(*via_loaded->witness, sigma).satisfied) << label;
  }
}

void RunSuiteOverLoaded(const Dtd& dtd,
                        const std::vector<ConstraintSet>& suite,
                        const std::string& label) {
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::shared_ptr<const CompiledDtd> loaded = RoundTrip(*compiled);
  ASSERT_NE(loaded, nullptr);
  SpecSession session(loaded, ConsistencyOptions{});
  for (size_t i = 0; i < suite.size(); ++i) {
    ExpectSameVerdict(dtd, session, suite[i],
                      label + "[" + std::to_string(i) + "]");
  }
}

TEST(ArtifactRoundTripTest, CatalogSigmaSuiteVerdictParity) {
  Dtd dtd = workloads::CatalogDtd(3);
  std::vector<ConstraintSet> suite;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    suite.push_back(workloads::RandomUnarySigma(dtd, seed, 3, 2));
  }
  suite.push_back(workloads::CatalogFkChainSigma(3));
  suite.push_back(workloads::AllKeysSigma(dtd));
  suite.push_back(ConstraintSet());
  RunSuiteOverLoaded(dtd, suite, "catalog");
}

TEST(ArtifactRoundTripTest, AuctionSigmaSuiteVerdictParity) {
  Dtd dtd = workloads::AuctionDtd(2);
  std::vector<ConstraintSet> suite;
  suite.push_back(workloads::AuctionSigma(2));
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    suite.push_back(workloads::RandomUnarySigma(dtd, seed, 4, 3));
  }
  RunSuiteOverLoaded(dtd, suite, "auction");
}

TEST(ArtifactRoundTripTest, TeacherAndChainVerdictParity) {
  Dtd teacher = workloads::TeacherDtd();
  RunSuiteOverLoaded(teacher, {workloads::TeacherSigma()}, "teacher");
  Dtd chain = workloads::ChainDtd(5);
  RunSuiteOverLoaded(chain, {workloads::AllKeysSigma(chain)}, "chain");
}

TEST(ArtifactRoundTripTest, MmapLoadPathVerdictParity) {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  ASSERT_TRUE(compiled.ok());
  const std::string dir = FreshDir("artifact_mmap_parity");
  const std::string path = dir + "/" + ArtifactFileName(dtd);
  ASSERT_TRUE(StoreCompiledDtd(**compiled, path).ok());

  ArtifactLoadInfo info;
  auto loaded = LoadCompiledDtd(path, &info, ArtifactVerify::kDeep);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(info.mmap);
  EXPECT_GT(info.bytes, 0u);
  EXPECT_EQ(CompiledDtdDigest(**loaded), CompiledDtdDigest(**compiled));

  SpecSession session(*loaded, ConsistencyOptions{});
  ExpectSameVerdict(dtd, session, workloads::AllKeysSigma(dtd), "mmap keys");
  ExpectSameVerdict(dtd, session, workloads::CatalogFkChainSigma(2),
                    "mmap fk chain");
}

TEST(ArtifactRoundTripTest, ContentHashIsStableAndFileNameVersioned) {
  Dtd dtd = workloads::CatalogDtd(2);
  EXPECT_EQ(DtdContentHash(dtd), DtdContentHash(workloads::CatalogDtd(2)));
  EXPECT_NE(DtdContentHash(dtd), DtdContentHash(workloads::CatalogDtd(3)));
  const std::string name = ArtifactFileName(dtd);
  EXPECT_NE(name.find("-v" + std::to_string(kArtifactFormatVersion) + ".xac"),
            std::string::npos)
      << name;
}

// ---------------------------------------------------------------------------
// Rejection: corrupt and mismatched containers

std::string SerializedCatalog() {
  Dtd dtd = workloads::CatalogDtd(2);
  auto compiled = CompileDtd(dtd);
  EXPECT_TRUE(compiled.ok());
  auto bytes = SerializeCompiledDtd(**compiled);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(ArtifactRejectionTest, TruncationAlwaysInvalidArgument) {
  const std::string bytes = SerializedCatalog();
  // Every prefix, stepping fast through the bulk and fine through the
  // header/table region where field boundaries live.
  for (size_t len = 0; len < bytes.size();
       len += (len < 512 ? 1 : 769)) {
    auto loaded =
        DeserializeCompiledDtd(std::string_view(bytes.data(), len));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ArtifactRejectionTest, BitFlipsAlwaysInvalidArgument) {
  const std::string bytes = SerializedCatalog();
  // Every header/table byte, then a co-prime stride through the payload —
  // each section digest covers every payload byte, so any stride must trip.
  for (size_t i = 0; i < bytes.size(); i += (i < 512 ? 1 : 131)) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    auto loaded = DeserializeCompiledDtd(mutated);
    ASSERT_FALSE(loaded.ok()) << "undetected flip at byte " << i;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ArtifactRejectionTest, FormatVersionMismatchIsSpecific) {
  std::string bytes = SerializedCatalog();
  // Header layout: magic(8) endian(4) version(4) — bump the version field.
  bytes[12] = static_cast<char>(bytes[12] + 1);
  auto loaded = DeserializeCompiledDtd(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status();
}

TEST(ArtifactRejectionTest, ForeignEndianHeaderIsSpecific) {
  std::string bytes = SerializedCatalog();
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  auto loaded = DeserializeCompiledDtd(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("foreign-endian"),
            std::string::npos)
      << loaded.status();
}

TEST(ArtifactRejectionTest, EmptyAndGarbageInputs) {
  EXPECT_EQ(DeserializeCompiledDtd("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCompiledDtd("not an artifact at all").status().code(),
            StatusCode::kInvalidArgument);
  const std::string zeros(4096, '\0');
  EXPECT_EQ(DeserializeCompiledDtd(zeros).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ArtifactCache

TEST(ArtifactCacheTest, ColdThenMmapThenMemory) {
  Dtd dtd = workloads::CatalogDtd(2);
  const std::string dir = FreshDir("artifact_cache_tiers");

  ArtifactCache first(ArtifactCache::Options{dir, 4});
  auto cold = first.GetOrCompile(dtd);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->source, ArtifactSource::kCold);
  EXPECT_GT(cold->compiled->compile_ms, 0.0);
  struct stat st;
  EXPECT_EQ(::stat(first.DiskPathFor(dtd).c_str(), &st), 0)
      << "cold compile must persist the artifact";

  // Same cache instance: memory tier, same shared bundle.
  auto memory = first.GetOrCompile(dtd);
  ASSERT_TRUE(memory.ok());
  EXPECT_EQ(memory->source, ArtifactSource::kMemory);
  EXPECT_EQ(memory->compiled.get(), cold->compiled.get());

  // Fresh cache instance (fresh process, in effect): disk tier via mmap.
  ArtifactCache second(ArtifactCache::Options{dir, 4});
  StageTally tally;
  auto warm = second.GetOrCompile(dtd, &tally);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->source, ArtifactSource::kMmap);
  EXPECT_EQ(CompiledDtdDigest(*warm->compiled),
            CompiledDtdDigest(*cold->compiled));
  // Loading compiled nothing, so it reports no compile time.
  EXPECT_EQ(warm->compiled->compile_ms, 0.0);
  EXPECT_EQ(tally.CountFor(Stage::kArtifactLoad), 1u);
  EXPECT_EQ(tally.CountFor(Stage::kArtifactStore), 0u);

  const ArtifactCacheStats stats = second.stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.cold_compiles, 0u);
}

TEST(ArtifactCacheTest, CorruptFileRecompilesAndHeals) {
  Dtd dtd = workloads::CatalogDtd(2);
  const std::string dir = FreshDir("artifact_cache_corrupt");
  const std::string path = dir + "/" + ArtifactFileName(dtd);
  {
    ArtifactCache warmup(ArtifactCache::Options{dir, 4});
    ASSERT_TRUE(warmup.GetOrCompile(dtd).ok());
  }
  // Flip one payload byte on disk.
  {
    auto bytes = serde::ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[bytes->size() / 2] ^= 0x01;
    ASSERT_TRUE(serde::WriteFileAtomic(path, *bytes).ok());
  }
  ArtifactCache cache(ArtifactCache::Options{dir, 4});
  auto lookup = cache.GetOrCompile(dtd);
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  EXPECT_EQ(lookup->source, ArtifactSource::kCold);
  EXPECT_EQ(cache.stats().corrupt_rejected, 1u);
  EXPECT_EQ(cache.stats().cold_compiles, 1u);

  // The overwrite healed the file: a third cache loads it warm again.
  ArtifactCache healed(ArtifactCache::Options{dir, 4});
  auto reloaded = healed.GetOrCompile(dtd);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->source, ArtifactSource::kMmap);
}

TEST(ArtifactCacheTest, WrongSlotArtifactCannotServeForeignDtd) {
  Dtd catalog = workloads::CatalogDtd(2);
  Dtd chain = workloads::ChainDtd(3);
  const std::string dir = FreshDir("artifact_cache_wrong_slot");
  {
    ArtifactCache warmup(ArtifactCache::Options{dir, 4});
    ASSERT_TRUE(warmup.GetOrCompile(catalog).ok());
  }
  // Plant the catalog artifact in the chain DTD's slot.
  const std::string catalog_path = dir + "/" + ArtifactFileName(catalog);
  const std::string chain_path = dir + "/" + ArtifactFileName(chain);
  ASSERT_EQ(::rename(catalog_path.c_str(), chain_path.c_str()), 0);

  ArtifactCache cache(ArtifactCache::Options{dir, 4});
  auto lookup = cache.GetOrCompile(chain);
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->source, ArtifactSource::kCold)
      << "a renamed artifact must never serve a foreign DTD";
  EXPECT_EQ(lookup->compiled->dtd.ToString(), chain.ToString());
  EXPECT_EQ(cache.stats().corrupt_rejected, 1u);
}

TEST(ArtifactCacheTest, DtdsDifferingOnlyInTheirRootGetTheirOwnSlots) {
  // Same declarations, two roots. Under root a every document has two c
  // elements, which may share an id; under root b there is only one, so the
  // negated key cannot hold. A cache keyed without the root would serve
  // root a's artifact for root b and answer "consistent".
  const std::string decls =
      "<!ELEMENT a (c, c)> <!ELEMENT b (c)> <!ELEMENT c (#PCDATA)> "
      "<!ATTLIST c id CDATA #REQUIRED>";
  auto root_a = ParseDtd("<!DOCTYPE a [" + decls + "]>");
  auto root_b = ParseDtd("<!DOCTYPE b [" + decls + "]>");
  ASSERT_TRUE(root_a.ok()) << root_a.status();
  ASSERT_TRUE(root_b.ok()) << root_b.status();
  EXPECT_NE(DtdContentHash(*root_a), DtdContentHash(*root_b));

  ArtifactCache cache(ArtifactCache::Options{"", 4});
  auto a = cache.GetOrCompile(*root_a);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = cache.GetOrCompile(*root_b);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->source, ArtifactSource::kCold);
  EXPECT_EQ(b->compiled->dtd.root(), "b");

  ConstraintSet sigma;
  sigma.Add(Constraint::NegKey("c", {"id"}));
  SpecSession on_a(a->compiled);
  SpecSession on_b(b->compiled);
  auto verdict_a = on_a.Check(sigma);
  auto verdict_b = on_b.Check(sigma);
  ASSERT_TRUE(verdict_a.ok()) << verdict_a.status();
  ASSERT_TRUE(verdict_b.ok()) << verdict_b.status();
  EXPECT_TRUE(verdict_a->consistent);
  EXPECT_FALSE(verdict_b->consistent);
}

TEST(ArtifactCacheTest, MemoryOnlyModeNeverTouchesDisk) {
  Dtd dtd = workloads::CatalogDtd(2);
  ArtifactCache cache(ArtifactCache::Options{"", 2});
  EXPECT_EQ(cache.DiskPathFor(dtd), "");
  auto first = cache.GetOrCompile(dtd);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->source, ArtifactSource::kCold);
  auto second = cache.GetOrCompile(dtd);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, ArtifactSource::kMemory);
}

TEST(ArtifactCacheTest, LruEvictsLeastRecentlyUsed) {
  ArtifactCache cache(ArtifactCache::Options{"", 2});
  Dtd a = workloads::CatalogDtd(1);
  Dtd b = workloads::CatalogDtd(2);
  Dtd c = workloads::CatalogDtd(3);
  ASSERT_TRUE(cache.GetOrCompile(a).ok());
  ASSERT_TRUE(cache.GetOrCompile(b).ok());
  ASSERT_TRUE(cache.GetOrCompile(a).ok());  // Touch a; b is now LRU.
  ASSERT_TRUE(cache.GetOrCompile(c).ok());  // Evicts b.
  EXPECT_EQ(cache.GetOrCompile(a)->source, ArtifactSource::kMemory);
  EXPECT_EQ(cache.GetOrCompile(b)->source, ArtifactSource::kCold);
}

TEST(ArtifactCacheTest, SourceNamesAreStable) {
  EXPECT_STREQ(ArtifactSourceName(ArtifactSource::kCold), "cold");
  EXPECT_STREQ(ArtifactSourceName(ArtifactSource::kMemory), "memory");
  EXPECT_STREQ(ArtifactSourceName(ArtifactSource::kDiskCache), "disk-cache");
  EXPECT_STREQ(ArtifactSourceName(ArtifactSource::kMmap), "mmap");
}

}  // namespace
}  // namespace xicc
