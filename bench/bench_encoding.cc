// Theorem 4.1 construction costs and the design ablations of DESIGN.md:
//  - Ψ(D,Σ) construction time and size vs input size (the paper gives an
//    O(s²·log s) bound; the implementation is near-linear since the big-M
//    constant is only materialized in the big-M strategy);
//  - simplified-DTD blowup factor (Lemma 4.3's rewriting is linear);
//  - case-split vs big-M conditional discharge;
//  - Gomory cuts on vs off (parity-style infeasibilities).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/cardinality_encoding.h"
#include "core/encoding_solver.h"
#include "dtd/simplify.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

void RunConstruction(bench::JsonReport& report) {
  bench::Header("Thm 4.1: encoding construction cost vs |D| + |Σ|");
  std::printf("%10s %10s %10s %10s %12s\n", "sections", "|D|", "sys vars",
              "sys rows", "build(ms)");
  for (size_t n : {4, 8, 16, 32, 64, 128}) {
    Dtd dtd = workloads::CatalogDtd(n);
    ConstraintSet sigma = workloads::CatalogFkChainSigma(n).Normalize();
    size_t vars = 0;
    size_t rows = 0;
    double ms = bench::BestTimeMs(3, [&] {
      auto enc = BuildCardinalityEncoding(dtd, sigma);
      if (!enc.ok()) std::abort();
      vars = enc->system.NumVariables();
      rows = enc->system.NumConstraints();
    });
    std::printf("%10zu %10zu %10zu %10zu %12.3f\n", n, dtd.Size(), vars,
                rows, ms);
    report.AddRow("construction")
        .Set("sections", n)
        .Set("dtd_size", dtd.Size())
        .Set("system_variables", vars)
        .Set("system_rows", rows)
        .Set("build_ms", ms);
  }
}

void RunSimplification(bench::JsonReport& report) {
  bench::Header("Lemma 4.3 ablation: simplified-DTD size blowup");
  std::printf("%10s %10s %12s %10s\n", "elements", "|D|", "|D_N|", "ratio");
  for (uint64_t seed : {1, 2, 3, 4}) {
    Dtd dtd = workloads::RandomDtd(seed, 40, 2);
    auto simplified = SimplifyDtd(dtd);
    if (!simplified.ok()) std::abort();
    double ratio =
        static_cast<double>(simplified->dtd.Size()) / dtd.Size();
    std::printf("%10zu %10zu %12zu %10.2f\n", dtd.elements().size(),
                dtd.Size(), simplified->dtd.Size(), ratio);
    report.AddRow("simplification")
        .Set("seed", static_cast<size_t>(seed))
        .Set("dtd_size", dtd.Size())
        .Set("simplified_size", simplified->dtd.Size())
        .Set("ratio", ratio);
  }
}

void RunStrategies(bench::JsonReport& report) {
  bench::Header(
      "Thm 4.1 ablation: case-split (9_X DFS) vs big-M (c·y ≥ x rows)");
  std::printf("%10s %14s %12s %12s\n", "sections", "split(ms)", "bigM(ms)",
              "agree");
  for (size_t n : {2, 4, 6, 8}) {
    Dtd dtd = workloads::CatalogDtd(n);
    ConstraintSet sigma = workloads::CatalogFkChainSigma(n).Normalize();
    auto enc = BuildCardinalityEncoding(dtd, sigma);
    if (!enc.ok()) std::abort();

    EncodingSolveOptions split;
    bool sat_split = false;
    double split_ms = bench::TimeMs([&] {
      auto r = SolveEncodingSystem(*enc, enc->system, split);
      if (!r.ok()) std::abort();
      sat_split = r->feasible;
    });

    EncodingSolveOptions big_m;
    big_m.strategy = SolveStrategy::kBigM;
    bool sat_big_m = false;
    double big_m_ms = bench::TimeMs([&] {
      auto r = SolveEncodingSystem(*enc, enc->system, big_m);
      if (!r.ok()) std::abort();
      sat_big_m = r->feasible;
    });
    std::printf("%10zu %14.3f %12.3f %12s\n", n, split_ms, big_m_ms,
                sat_split == sat_big_m ? "yes" : "NO!");
    report.AddRow("strategies")
        .Set("sections", n)
        .Set("split_ms", split_ms)
        .Set("big_m_ms", big_m_ms)
        .Set("agree", sat_split == sat_big_m);
  }
}

void RunCutsAblation(bench::JsonReport& report) {
  bench::Header("ILP ablation: Gomory cuts on vs off (parity system)");
  // 2x = 2y + 1 embedded among padding rows.
  auto build = [] {
    LinearSystem sys;
    VarId x = sys.AddVariable("x");
    VarId y = sys.AddVariable("y");
    LinearExpr expr;
    expr.Add(x, BigInt(2)).Add(y, BigInt(-2));
    sys.AddConstraint(expr, RelOp::kEq, BigInt(1));
    return sys;
  };
  {
    LinearSystem sys = build();
    IlpOptions with_cuts;
    size_t nodes = 0;
    double ms = bench::BestTimeMs(3, [&] {
      auto r = SolveIlp(sys, with_cuts);
      if (!r.ok() || r->feasible) std::abort();
      nodes = r->ilp_nodes;
    });
    std::printf("cuts on : %10.3f ms, %zu nodes (infeasibility certified)\n",
                ms, nodes);
    report.AddRow("cuts_ablation").Set("cuts", true).Set("time_ms", ms).Set(
        "nodes", nodes);
  }
  {
    LinearSystem sys = build();
    IlpOptions no_cuts;
    no_cuts.max_cut_rounds = 0;
    no_cuts.max_nodes = 5000;
    double ms = bench::TimeMs([&] {
      auto r = SolveIlp(sys, no_cuts);
      // Without cuts the search climbs the box bound and exhausts the node
      // budget (or eventually the bound).
      if (r.ok() && r->feasible) std::abort();
    });
    std::printf("cuts off: %10.3f ms (exhausts %d-node budget)\n", ms, 5000);
    report.AddRow("cuts_ablation").Set("cuts", false).Set("time_ms", ms);
  }
}

}  // namespace
}  // namespace xicc

int main() {
  std::printf("bench_encoding — encoding construction and design ablations\n");
  xicc::bench::JsonReport report("encoding");
  xicc::RunConstruction(report);
  xicc::RunSimplification(report);
  xicc::RunStrategies(report);
  xicc::RunCutsAblation(report);
  report.Write();
  return 0;
}
