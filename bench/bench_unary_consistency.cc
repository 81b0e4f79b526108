// Figure 5, NP-complete consistency cells (Theorems 4.1/4.7, Corollary 4.8):
// unary keys + foreign keys through the Ψ(D,Σ) integer encoding.
//
// Two regimes:
//  - naturalistic specifications (catalog foreign-key chains) stay easy —
//    the LP relaxation is integral and no search happens;
//  - the crafted Theorem 4.7 gadget embeds 0/1-LIP, and the checker's
//    verdicts must track the brute-force oracle exactly.
//
// The warm-start ablation section re-solves both families with the
// dual-simplex warm start disabled; the pivot-count ratio is the headline
// number of the incremental-search work (EXPERIMENTS.md §warm-start).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "core/artifact_cache.h"
#include "core/consistency.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

void RunCatalog(bench::JsonReport& report) {
  bench::Header("F5-C2: naturalistic unary specs (catalog FK chains)");
  std::printf("%10s %12s %12s %12s %10s\n", "sections", "constraints",
              "sys vars", "time(ms)", "verdict");
  for (size_t n : {2, 4, 8, 12, 16, 24, 32}) {
    Dtd dtd = workloads::CatalogDtd(n);
    ConstraintSet sigma = workloads::CatalogFkChainSigma(n);
    ConsistencyOptions options;
    options.build_witness = false;
    ConsistencyResult result;
    double ms = bench::BestTimeMs(3, [&] {
      auto r = CheckConsistency(dtd, sigma, options);
      if (!r.ok()) std::abort();
      result = std::move(*r);
    });
    std::printf("%10zu %12zu %12zu %12.3f %10s\n", n, sigma.size(),
                result.stats.system_variables, ms,
                result.consistent ? "SAT" : "UNSAT");
    report.AddRow("catalog")
        .Set("sections", n)
        .Set("constraints", sigma.size())
        .Set("system_variables", result.stats.system_variables)
        .Set("lp_pivots", result.stats.lp_pivots)
        .Set("warm_starts", result.stats.warm_starts)
        .Set("cold_restarts", result.stats.cold_restarts)
        .Set("time_ms", ms)
        .Set("consistent", result.consistent);
  }
}

void RunAuction(bench::JsonReport& report) {
  bench::Header("F5-C2: auction-site specs (XMark-flavored, with witness)");
  std::printf("%10s %12s %12s %14s %10s\n", "regions", "constraints",
              "time(ms)", "witness nodes", "verdict");
  for (size_t n : {1, 2, 4, 8, 16}) {
    Dtd dtd = workloads::AuctionDtd(n);
    ConstraintSet sigma = workloads::AuctionSigma(n);
    ConsistencyOptions options;
    options.min_witness_nodes = 10 * n;
    ConsistencyResult result;
    double ms = bench::TimeMs([&] {
      auto r = CheckConsistency(dtd, sigma, options);
      if (!r.ok() || !r->consistent) std::abort();
      result = std::move(*r);
    });
    size_t witness_nodes =
        result.witness.has_value() ? result.witness->size() : 0;
    std::printf("%10zu %12zu %12.3f %14zu %10s\n", n, sigma.size(), ms,
                witness_nodes, "SAT");
    report.AddRow("auction")
        .Set("regions", n)
        .Set("constraints", sigma.size())
        .Set("witness_nodes", witness_nodes)
        .Set("lp_pivots", result.stats.lp_pivots)
        .Set("time_ms", ms)
        .Set("consistent", true);
  }
}

void RunPrimary(bench::JsonReport& report) {
  bench::Header(
      "F5-C3 / Cor 4.8: primary-key restriction (one key per type)");
  std::printf("%10s %12s %12s %10s %10s\n", "sections", "primary?",
              "time(ms)", "verdict", "class");
  for (size_t n : {4, 8, 16, 32}) {
    Dtd dtd = workloads::CatalogDtd(n);
    ConstraintSet sigma = workloads::CatalogFkChainSigma(n);
    ConsistencyOptions options;
    options.build_witness = false;
    ConsistencyResult result;
    double ms = bench::BestTimeMs(3, [&] {
      auto r = CheckConsistency(dtd, sigma, options);
      if (!r.ok()) std::abort();
      result = std::move(*r);
    });
    std::printf("%10zu %12s %12.3f %10s %10s\n", n,
                sigma.SatisfiesPrimaryKeyRestriction() ? "yes" : "no", ms,
                result.consistent ? "SAT" : "UNSAT",
                ConstraintClassName(result.constraint_class));
    report.AddRow("primary")
        .Set("sections", n)
        .Set("primary", sigma.SatisfiesPrimaryKeyRestriction())
        .Set("time_ms", ms)
        .Set("consistent", result.consistent);
  }
}

void RunFlagship(bench::JsonReport& report) {
  bench::Header("the flagship inconsistency (D1, Σ1) and its relaxation");
  struct Case {
    const char* label;
    ConstraintSet sigma;
    bool expect;
  };
  ConstraintSet relaxed;
  relaxed.Add(Constraint::Key("teacher", {"name"}));
  relaxed.Add(
      Constraint::Inclusion("subject", {"taught_by"}, "teacher", {"name"}));
  Case cases[] = {
      {"D1 + Sigma1 (inconsistent)", workloads::TeacherSigma(), false},
      {"D1 + relaxed (consistent)", relaxed, true},
  };
  std::printf("%-30s %12s %10s\n", "case", "time(ms)", "verdict");
  for (const Case& c : cases) {
    Dtd dtd = workloads::TeacherDtd();
    ConsistencyResult result;
    double ms = bench::BestTimeMs(5, [&] {
      auto r = CheckConsistency(dtd, c.sigma);
      if (!r.ok() || r->consistent != c.expect) std::abort();
      result = std::move(*r);
    });
    std::printf("%-30s %12.3f %10s\n", c.label, ms,
                result.consistent ? "SAT" : "UNSAT");
    report.AddRow("flagship")
        .Set("case", c.label)
        .Set("time_ms", ms)
        .Set("consistent", result.consistent);
  }
}

void RunLipGadget(bench::JsonReport& report) {
  bench::Header(
      "F5-C2 hard side / Thm 4.7: the 0/1-LIP gadget (crafted instances)");
  std::printf("%6s %6s %10s %12s %12s %10s %8s\n", "rows", "cols",
              "constraints", "ilp nodes", "time(ms)", "verdict", "oracle");
  for (size_t rows : {2, 3, 4, 5, 6}) {
    size_t cols = rows + 2;
    workloads::BinaryLipInstance instance =
        workloads::RandomLip(/*seed=*/rows * 977 + 13, rows, cols,
                             /*ones_per_row=*/3);
    workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
    bool oracle = workloads::LipHasBinarySolution(instance);
    ConsistencyOptions options;
    options.build_witness = false;
    ConsistencyResult result;
    double ms = bench::TimeMs([&] {
      auto r = CheckConsistency(enc.dtd, enc.sigma, options);
      if (!r.ok()) std::abort();
      result = std::move(*r);
    });
    if (result.consistent != oracle) std::abort();
    std::printf("%6zu %6zu %10zu %12zu %12.3f %10s %8s\n", rows, cols,
                enc.sigma.size(), result.stats.ilp_nodes, ms,
                result.consistent ? "SAT" : "UNSAT",
                oracle ? "SAT" : "UNSAT");
    report.AddRow("lip_gadget")
        .Set("rows", rows)
        .Set("cols", cols)
        .Set("ilp_nodes", result.stats.ilp_nodes)
        .Set("lp_pivots", result.stats.lp_pivots)
        .Set("warm_starts", result.stats.warm_starts)
        .Set("cold_restarts", result.stats.cold_restarts)
        .Set("time_ms", ms)
        .Set("consistent", result.consistent);
  }
}

// Warm-start ablation: identical workload with the dual-simplex warm start
// on vs. off. Verdicts must agree exactly; the aggregate pivot ratio is the acceptance
// number for the incremental search (target: ≥ 2× fewer pivots warm).
void RunWarmStartAblation(bench::JsonReport& report) {
  bench::Header("warm-start ablation: dual-simplex re-solve vs cold phase-1");
  // Artifact provenance: with XICC_BENCH_ARTIFACT_DIR set, the flagship
  // catalog DTD is resolved through an ArtifactCache rooted there and the
  // serving tier ("cold" on the priming run, "mmap" once the artifact
  // persists) is recorded, so a run that warm-started from disk artifacts
  // can never be mistaken for a cold one.
  const char* cache_env = std::getenv("XICC_BENCH_ARTIFACT_DIR");
  const std::string cache_dir = cache_env == nullptr ? "" : cache_env;
  const char* artifact_source = "cold";
  if (!cache_dir.empty()) {
    ArtifactCache cache(ArtifactCache::Options{cache_dir, 4});
    auto lookup = cache.GetOrCompile(workloads::CatalogDtd(8));
    if (lookup.ok()) artifact_source = ArtifactSourceName(lookup->source);
  }
  report.AddRow("config")
      .Set("artifact_source", artifact_source)
      .Set("artifact_cache_dir", cache_dir);
  std::printf("%-28s %6s %12s %12s %12s %12s\n", "instance", "warm",
              "lp pivots", "warm solves", "cold solves", "time(ms)");

  struct Totals {
    size_t pivots = 0;
    size_t warm = 0;
    size_t cold = 0;
    double ms = 0.0;
  };
  Totals totals[2];

  auto run_case = [&](const std::string& label, const Dtd& dtd,
                      const ConstraintSet& sigma) {
    bool verdicts[2] = {false, false};
    for (int warm_on = 1; warm_on >= 0; --warm_on) {
      ConsistencyOptions options;
      options.build_witness = false;
      options.ilp.warm_start = warm_on != 0;
      ConsistencyResult result;
      double ms = bench::TimeMs([&] {
        auto r = CheckConsistency(dtd, sigma, options);
        if (!r.ok()) std::abort();
        result = std::move(*r);
      });
      verdicts[warm_on] = result.consistent;
      Totals& t = totals[warm_on];
      t.pivots += result.stats.lp_pivots;
      t.warm += result.stats.warm_starts;
      t.cold += result.stats.cold_restarts;
      t.ms += ms;
      std::printf("%-28s %6s %12zu %12zu %12zu %12.3f\n", label.c_str(),
                  warm_on ? "on" : "off", result.stats.lp_pivots,
                  result.stats.warm_starts, result.stats.cold_restarts, ms);
      report.AddRow("warm_ablation")
          .Set("instance", label)
          .Set("warm_start", warm_on != 0)
          .Set("lp_pivots", result.stats.lp_pivots)
          .Set("warm_starts", result.stats.warm_starts)
          .Set("cold_restarts", result.stats.cold_restarts)
          .Set("ilp_nodes", result.stats.ilp_nodes)
          .Set("time_ms", ms)
          .Set("consistent", result.consistent);
    }
    // Warm start may not change the verdict, ever.
    if (verdicts[0] != verdicts[1]) std::abort();
  };

  for (size_t n : {8, 16, 32}) {
    run_case("catalog-" + std::to_string(n), workloads::CatalogDtd(n),
             workloads::CatalogFkChainSigma(n));
  }
  for (size_t rows : {3, 4, 5, 6}) {
    size_t cols = rows + 2;
    workloads::BinaryLipInstance instance =
        workloads::RandomLip(/*seed=*/rows * 977 + 13, rows, cols,
                             /*ones_per_row=*/3);
    workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
    run_case("lip-" + std::to_string(rows) + "x" + std::to_string(cols),
             enc.dtd, enc.sigma);
  }

  double ratio = totals[1].pivots > 0
                     ? static_cast<double>(totals[0].pivots) /
                           static_cast<double>(totals[1].pivots)
                     : 0.0;
  std::printf(
      "\ntotal pivots: cold=%zu warm=%zu  →  %.2fx reduction "
      "(warm solves=%zu, cold fallbacks=%zu)\n",
      totals[0].pivots, totals[1].pivots, ratio, totals[1].warm,
      totals[1].cold);
  report.AddRow("warm_ablation_summary")
      .Set("total_pivots_cold", totals[0].pivots)
      .Set("total_pivots_warm", totals[1].pivots)
      .Set("pivot_reduction_x", ratio)
      .Set("warm_starts", totals[1].warm)
      .Set("cold_fallbacks", totals[1].cold)
      .Set("time_ms_cold", totals[0].ms)
      .Set("time_ms_warm", totals[1].ms);
}

}  // namespace
}  // namespace xicc

int main() {
  std::printf(
      "bench_unary_consistency — the NP-complete consistency cells\n"
      "paper claim: NP-complete (Thm 4.7), NP-hard already under primary\n"
      "keys (Cor 4.8); naturalistic instances stay fast, the LIP gadget\n"
      "forces search, verdicts match a brute-force oracle.\n");
  xicc::bench::JsonReport report("unary_consistency");
  xicc::RunFlagship(report);
  xicc::RunCatalog(report);
  xicc::RunAuction(report);
  xicc::RunPrimary(report);
  xicc::RunLipGadget(report);
  xicc::RunWarmStartAblation(report);
  report.Write();
  return 0;
}
