// The XICC_FAULTS deterministic fault-injection harness. In a normal build
// every probe is the compile-time constant `false` — the first test is the
// whole story. Under -DXICC_FAULTS=ON the seed-driven sites must fire
// deterministically (same seed → same hit pattern) without changing any
// verdict, and the disruptive cancel-at-pivot/node injections must drive
// the real cancellation plumbing end to end.

#include <gtest/gtest.h>

#include "base/deadline.h"
#include "base/faults.h"
#include "core/consistency.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

TEST(FaultsTest, ProbesCompileOutInReleaseBuilds) {
#if !XICC_FAULTS_ENABLED
  // The macro must be a constant false — usable in a condition with no
  // runtime library behind it.
  EXPECT_FALSE(XICC_FAULT_FIRES(kNumPromote));
  EXPECT_FALSE(XICC_FAULT_FIRES(kSimplexPivot));
#else
  GTEST_SKIP() << "faults build: probes are live";
#endif
}

#if XICC_FAULTS_ENABLED

workloads::LipEncoding SearchySpec() {
  return workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/7, /*rows=*/6, /*cols=*/12,
                           /*ones_per_row=*/3));
}

/// Restores a zeroed config after each test so the suite's faults never
/// leak into other tests in this binary (or the env-driven defaults).
class FaultsFixture : public ::testing::Test {
 protected:
  void TearDown() override {
    faults::RegisterCancelTarget(nullptr);
    faults::SetConfig(faults::FaultConfig{});
  }
};

TEST_F(FaultsFixture, SeedDrivenSitesFireDeterministically) {
  faults::FaultConfig config;
  config.seed = 42;
  faults::SetConfig(config);
  auto first = CheckConsistency(SearchySpec().dtd, SearchySpec().sigma);
  ASSERT_TRUE(first.ok()) << first.status();
  uint64_t promote_hits = faults::Hits(faults::Site::kNumPromote);
  uint64_t pivot_hits = faults::Hits(faults::Site::kSimplexPivot);
  EXPECT_GT(pivot_hits, 0u) << "the pivot probe never ran";

  // Same seed, same work → same counters; and the faults were
  // value-preserving: the verdict is the unfaulted one.
  faults::SetConfig(config);
  auto second = CheckConsistency(SearchySpec().dtd, SearchySpec().sigma);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->consistent, first->consistent);
  EXPECT_EQ(faults::Hits(faults::Site::kNumPromote), promote_hits);
  EXPECT_EQ(faults::Hits(faults::Site::kSimplexPivot), pivot_hits);

  faults::SetConfig(faults::FaultConfig{});  // seed 0: sites go quiet.
  auto off = CheckConsistency(SearchySpec().dtd, SearchySpec().sigma);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->consistent, first->consistent);
}

TEST_F(FaultsFixture, InjectedCancelAtPivotStopsTheCheck) {
  CancelToken token;
  faults::RegisterCancelTarget(&token);
  faults::FaultConfig config;
  config.cancel_at_pivot = 40;  // Mid-search, past the first LP solve.
  faults::SetConfig(config);

  ConsistencyOptions options;
  options.stop.cancel = &token;
  ConsistencyStats partial;
  options.partial_stats = &partial;
  workloads::LipEncoding spec = SearchySpec();
  auto result = CheckConsistency(spec.dtd, spec.sigma, options);
  ASSERT_FALSE(result.ok())
      << "the injected cancel at pivot 40 never bit — the probe is "
         "disconnected from the pivot loop";
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultsFixture, InjectedCancelAtNodeStopsTheCheck) {
  CancelToken token;
  faults::RegisterCancelTarget(&token);
  faults::FaultConfig config;
  config.cancel_at_node = 2;
  faults::SetConfig(config);

  ConsistencyOptions options;
  options.stop.cancel = &token;
  workloads::LipEncoding spec = SearchySpec();
  auto result = CheckConsistency(spec.dtd, spec.sigma, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultsFixture, PromoteFaultsPreserveVerdicts) {
  // Hammer the representation path: every-few-ops Num promotion. Verdict
  // must match the quiet run exactly.
  auto quiet = CheckConsistency(SearchySpec().dtd, SearchySpec().sigma);
  ASSERT_TRUE(quiet.ok());

  faults::FaultConfig config;
  config.seed = 1;  // Small seed → short periods → maximum pressure.
  faults::SetConfig(config);
  auto faulted = CheckConsistency(SearchySpec().dtd, SearchySpec().sigma);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->consistent, quiet->consistent);
  EXPECT_EQ(faulted->method, quiet->method);
}

#endif  // XICC_FAULTS_ENABLED

}  // namespace
}  // namespace xicc
