// Exact-arithmetic hot-loop bench: the rational simplex + branch & bound
// substrate in isolation (Thm 4.7 / Cor 4.11 reduce the decidable cells to
// integer linear programming, so this is where nearly all solver time goes).
//
// Sections:
//  - "lp": cold phase-1 simplex factorizations of the Ψ(D,∅) skeleton —
//    pure pivot arithmetic, no search.
//  - "consistency": full NP-cell checks (case-split + B&B + Gomory cuts)
//    over random unary Σ, single-threaded.
//  - "warm-ablation": the same queries with warm starts disabled; verdicts
//    must be identical (the ablation only counts if both answer the same).
//
// Each row carries the PR 3 (pre-Num, pre-arena) baseline wall time so the
// before/after of the small-word fast path is machine-readable.

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/cardinality_encoding.h"
#include "core/consistency.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "tests/dense_simplex.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

/// PR 3 baselines measured on the reference container (best of 3, ms).
/// 0.0 = no recorded baseline for this row.
struct Baseline {
  const char* row;
  double ms;
};
const Baseline kPr3Baselines[] = {
    {"lp:catalog-10", 7.099},        {"lp:catalog-14", 16.261},
    {"lp:auction-6", 3.282},         {"consistency:catalog-8", 72.157},
    {"consistency:catalog-12", 142.591}, {"consistency:auction-5", 41.721},
};

double Pr3Baseline(const std::string& row) {
  for (const Baseline& b : kPr3Baselines) {
    if (row == b.row) return b.ms;
  }
  return 0.0;
}

void RunLpSection(bench::JsonReport& report) {
  bench::Header("cold LP factorization of the Ψ(D,∅) skeleton");
  std::printf("%16s %8s %8s %12s %12s %12s %10s %10s %8s\n", "dtd", "rows",
              "cols", "time(ms)", "dense(ms)", "pivots", "vs-pr3", "vs-dense",
              "nnz");
  struct Case {
    const char* name;
    Dtd dtd;
  };
  std::vector<Case> cases;
  cases.push_back({"catalog-10", workloads::CatalogDtd(10)});
  cases.push_back({"catalog-14", workloads::CatalogDtd(14)});
  cases.push_back({"auction-6", workloads::AuctionDtd(6)});
  for (Case& c : cases) {
    auto encoding =
        BuildCardinalityEncoding(c.dtd, ConstraintSet(),
                                 c.dtd.AllAttributePairs());
    if (!encoding.ok()) std::abort();
    const LinearSystem& sys = encoding->system;
    LpResult kept;
    // Tier tallies for one representative solve (thread-local deltas).
    SolveCounters traffic;
    double ms = bench::BestTimeMs(5, [&] {
      traffic = SolveCounters();
      const ThreadTraffic measure;
      LpResult lp = SolveLpFeasibility(sys);
      measure.AddTo(&traffic);
      kept = std::move(lp);
    });
    if (!kept.feasible) std::abort();

    // Dense-Bland reference solve of the same system: the seed kernel the
    // sparse one replaced, timed under identical conditions. The verdict
    // must agree — the kernel swap is a performance change, not a semantic
    // one.
    bool dense_feasible = false;
    double dense_ms = bench::BestTimeMs(5, [&] {
      LpResult lp = SolveLpFeasibilityDenseBland(sys);
      dense_feasible = lp.feasible;
    });
    if (dense_feasible != kept.feasible) std::abort();
    const double speedup_vs_dense =  // xicc-lint: allow(exact-arithmetic)
        ms > 0 ? dense_ms / ms : 0.0;

    const std::string row = std::string("lp:") + c.name;
    double base = Pr3Baseline(row);
    const double promo_rate =  // xicc-lint: allow(exact-arithmetic)
        traffic.num_small_ops > 0
            ? static_cast<double>(traffic.num_promotions) /
                  traffic.num_small_ops
            : 0.0;
    const LpKernelStats& k = kept.kernel;
    const double nnz_density =  // xicc-lint: allow(exact-arithmetic)
        k.total_cells > 0 ? static_cast<double>(k.nnz_cells) / k.total_cells
                          : 0.0;
    std::printf("%16s %8zu %8zu %12.3f %12.3f %12zu %9.2fx %9.2fx %8.4f\n",
                c.name, sys.NumConstraints(), sys.NumVariables(), ms, dense_ms,
                kept.pivots, base > 0 ? base / ms : 0.0, speedup_vs_dense,
                nnz_density);
    report.AddRow("lp")
        .Set("dtd", c.name)
        .Set("rows", sys.NumConstraints())
        .Set("cols", sys.NumVariables())
        .Set("time_ms", ms)
        .Set("dense_time_ms", dense_ms)
        .Set("speedup_vs_dense_x", speedup_vs_dense)
        .Set("pivots", kept.pivots)
        .Set("dantzig_pivots", k.dantzig_pivots)
        .Set("bland_pivots", k.bland_pivots)
        .Set("bland_fallbacks", k.bland_fallbacks)
        .Set("nnz_density", nnz_density)
        .Set("fill_in", k.fill_in)
        .Set("fast_rows", k.fast_rows)
        .Set("fast_row_promotions", k.fast_row_promotions)
        .Set("verdicts_identical", dense_feasible == kept.feasible)
        .Set("pr3_baseline_ms", base)
        .Set("speedup_vs_pr3_x", base > 0 ? base / ms : 0.0)
        .Set("small_ops", traffic.num_small_ops)
        .Set("big_ops", traffic.num_big_ops)
        .Set("promotion_rate", promo_rate);
  }
}

void RunConsistencySection(bench::JsonReport& report) {
  bench::Header("NP-cell consistency checks (case-split + B&B), 1 thread");
  std::printf("%18s %8s %12s %12s %10s %10s\n", "dtd", "queries",
              "time(ms)", "pivots", "vs-pr3", "promo");
  struct Case {
    const char* name;
    Dtd dtd;
    uint64_t seed;
  };
  std::vector<Case> cases;
  cases.push_back({"catalog-8", workloads::CatalogDtd(8), 7});
  cases.push_back({"catalog-12", workloads::CatalogDtd(12), 11});
  cases.push_back({"auction-5", workloads::AuctionDtd(5), 13});

  ConsistencyOptions check;
  check.build_witness = false;

  for (Case& c : cases) {
    std::vector<ConstraintSet> queries;
    for (uint64_t s = 0; s < 8; ++s) {
      queries.push_back(workloads::RandomUnarySigma(c.dtd, c.seed + s, 4, 4));
    }
    SolveCounters total;
    std::vector<char> verdicts(queries.size());
    double ms = bench::BestTimeMs(3, [&] {
      total = SolveCounters();
      for (size_t i = 0; i < queries.size(); ++i) {
        auto r = CheckConsistency(c.dtd, queries[i], check);
        if (!r.ok()) std::abort();
        verdicts[i] = r->consistent ? 1 : 0;
        total.Add(r->stats);
      }
    });

    // Warm-start ablation: identical verdicts with warm starts disabled.
    ConsistencyOptions cold = check;
    cold.ilp.warm_start = false;
    bool verdicts_identical = true;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = CheckConsistency(c.dtd, queries[i], cold);
      if (!r.ok()) std::abort();
      if ((r->consistent ? 1 : 0) != verdicts[i]) verdicts_identical = false;
    }
    if (!verdicts_identical) std::abort();

    const std::string row = std::string("consistency:") + c.name;
    double base = Pr3Baseline(row);
    const double promo_rate =  // xicc-lint: allow(exact-arithmetic)
        total.num_small_ops > 0
            ? static_cast<double>(total.num_promotions) / total.num_small_ops
            : 0.0;
    const LpKernelStats& kernel = total.lp_kernel;
    std::printf("%18s %8zu %12.3f %12zu %9.2fx %10.2e\n", c.name,
                queries.size(), ms, total.lp_pivots,
                base > 0 ? base / ms : 0.0, promo_rate);
    report.AddRow("consistency")
        .Set("dtd", c.name)
        .Set("queries", queries.size())
        .Set("time_ms", ms)
        .Set("pivots", total.lp_pivots)
        .Set("pr3_baseline_ms", base)
        .Set("speedup_vs_pr3_x", base > 0 ? base / ms : 0.0)
        .Set("small_ops", total.num_small_ops)
        .Set("big_ops", total.num_big_ops)
        .Set("promotion_rate", promo_rate)
        .Set("demotions", total.num_demotions)
        .Set("dantzig_pivots", kernel.dantzig_pivots)
        .Set("bland_pivots", kernel.bland_pivots)
        .Set("bland_fallbacks", kernel.bland_fallbacks)
        .Set("fill_in", kernel.fill_in)
        .Set("nnz_density",  // xicc-lint: allow(exact-arithmetic)
             kernel.total_cells > 0
                 ? static_cast<double>(kernel.nnz_cells) / kernel.total_cells
                 : 0.0)
        .Set("fast_rows", kernel.fast_rows)
        .Set("fast_row_promotions", kernel.fast_row_promotions)
        .Set("verdicts_identical", verdicts_identical);
  }
}

}  // namespace
}  // namespace xicc

int main() {
  std::printf(
      "bench_ilp — the exact-arithmetic hot loop in isolation\n"
      "claim: the decidable cells are ILP (Thm 4.7), so rational-pivot\n"
      "arithmetic dominates; the small-word fast path removes its\n"
      "allocations.\n");
  xicc::bench::JsonReport report("ilp");
  xicc::RunLpSection(report);
  xicc::RunConsistencySection(report);
  report.Write();
  return 0;
}
