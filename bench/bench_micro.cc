// google-benchmark microbenchmarks for the substrates: exact arithmetic,
// content-model matching, grammar analyses, parsing, simplex pivoting.

#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "base/rational.h"
#include "constraints/evaluator.h"
#include "core/streaming_validator.h"
#include "dtd/analysis.h"
#include "dtd/glushkov.h"
#include "dtd/simplify.h"
#include "dtd/validator.h"
#include "ilp/simplex.h"
#include "tests/dense_simplex.h"
#include "workloads/generators.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xicc {
namespace {

void BM_BigIntMultiply(benchmark::State& state) {
  const int limbs = static_cast<int>(state.range(0));
  std::mt19937_64 rng(42);
  BigInt a(1), b(1);
  for (int i = 0; i < limbs; ++i) {
    a = a * BigInt::Pow(BigInt(2), 64) + BigInt(static_cast<int64_t>(rng() >> 1));
    b = b * BigInt::Pow(BigInt(2), 64) + BigInt(static_cast<int64_t>(rng() >> 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMultiply)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_BigIntDivMod(benchmark::State& state) {
  const int limbs = static_cast<int>(state.range(0));
  std::mt19937_64 rng(7);
  BigInt a(1), b(1);
  for (int i = 0; i < 2 * limbs; ++i) {
    a = a * BigInt::Pow(BigInt(2), 64) + BigInt(static_cast<int64_t>(rng() >> 1));
  }
  for (int i = 0; i < limbs; ++i) {
    b = b * BigInt::Pow(BigInt(2), 64) + BigInt(static_cast<int64_t>(rng() >> 1));
  }
  for (auto _ : state) {
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(2)->Arg(8)->Arg(32);

void BM_RationalPivotKernel(benchmark::State& state) {
  // The simplex inner loop: t -= f * p over rationals.
  Rational t(BigInt(355), BigInt(113));
  Rational f(BigInt(22), BigInt(7));
  Rational p(BigInt(-3), BigInt(8));
  for (auto _ : state) {
    Rational result = t - f * p;
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RationalPivotKernel);

void BM_GlushkovMatch(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  // (a | b)* (a, b) — needs NFA simulation.
  RegexPtr regex = Regex::Concat(
      Regex::Star(Regex::Union(Regex::Elem("a"), Regex::Elem("b"))),
      Regex::Concat(Regex::Elem("a"), Regex::Elem("b")));
  ContentModelMatcher matcher(regex);
  std::vector<std::string> word;
  for (size_t i = 0; i < len; ++i) word.push_back(i % 2 ? "b" : "a");
  word.push_back("a");
  word.push_back("b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Matches(word));
  }
}
BENCHMARK(BM_GlushkovMatch)->Arg(8)->Arg(64)->Arg(512);

void BM_GrammarEmptiness(benchmark::State& state) {
  Dtd dtd = workloads::ChainDtd(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtdHasValidTree(dtd));
  }
}
BENCHMARK(BM_GrammarEmptiness)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SimplifyDtd(benchmark::State& state) {
  Dtd dtd = workloads::RandomDtd(11, static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto simplified = SimplifyDtd(dtd);
    benchmark::DoNotOptimize(simplified);
  }
}
BENCHMARK(BM_SimplifyDtd)->Arg(10)->Arg(100)->Arg(1000);

void BM_XmlParseSerialize(benchmark::State& state) {
  // Round-trip a catalog-ish document.
  std::string doc = "<catalog>";
  for (int i = 0; i < state.range(0); ++i) {
    doc += "<item id=\"i" + std::to_string(i) + "\" ref=\"i" +
           std::to_string(i + 1) + "\">text &amp; more</item>";
  }
  doc += "</catalog>";
  for (auto _ : state) {
    auto tree = ParseXml(doc);
    if (!tree.ok()) std::abort();
    benchmark::DoNotOptimize(SerializeXml(*tree));
  }
}
BENCHMARK(BM_XmlParseSerialize)->Arg(10)->Arg(100)->Arg(1000);

std::string LargeCatalogDoc(int items) {
  std::string doc = "<catalog><section1>";
  for (int i = 0; i < items; ++i) {
    doc += "<item1 id=\"i" + std::to_string(i) + "\" ref=\"j" +
           std::to_string(i % (items / 2 + 1)) + "\"/>";
  }
  doc += "</section1><section2>";
  for (int i = 0; i < items; ++i) {
    doc += "<item2 id=\"j" + std::to_string(i) + "\" ref=\"j0\"/>";
  }
  doc += "</section2></catalog>";
  return doc;
}

void BM_ValidateTreePipeline(benchmark::State& state) {
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(2);
  std::string doc = LargeCatalogDoc(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto tree = ParseXml(doc);
    if (!tree.ok()) std::abort();
    bool ok = ValidateXml(*tree, dtd).valid &&
              Evaluate(*tree, sigma).satisfied;
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ValidateTreePipeline)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ValidateStreaming(benchmark::State& state) {
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(2);
  std::string doc = LargeCatalogDoc(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto summary = ValidateStream(doc, dtd, sigma);
    if (!summary.ok()) std::abort();
    benchmark::DoNotOptimize(summary->conforms);
  }
}
BENCHMARK(BM_ValidateStreaming)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SimplexFeasibility(benchmark::State& state) {
  // A transportation-like feasibility system.
  const int n = static_cast<int>(state.range(0));
  LinearSystem sys;
  for (int i = 0; i < n; ++i) sys.AddVariable("x" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) {
    LinearExpr expr;
    expr.Add(i, BigInt(1)).Add(i + 1, BigInt(-1));
    sys.AddConstraint(expr, RelOp::kLe, BigInt(1));
  }
  LinearExpr total;
  for (int i = 0; i < n; ++i) total.Add(i, BigInt(1));
  sys.AddConstraint(total, RelOp::kGe, BigInt(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLpFeasibility(sys));
  }
}
BENCHMARK(BM_SimplexFeasibility)->Arg(4)->Arg(16)->Arg(64);

void BM_SimplexSparseVsDense(benchmark::State& state) {
  // The same transportation-like system as BM_SimplexFeasibility, solved by
  // the sparse pricing-driven kernel (arg bit 0 clear) or by the dense
  // Bland reference it replaced (arg bit 0 set) — side-by-side rows expose
  // the kernel swap's gain at each size.
  const int n = static_cast<int>(state.range(0));
  const bool dense = state.range(1) != 0;
  LinearSystem sys;
  for (int i = 0; i < n; ++i) sys.AddVariable("x" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) {
    LinearExpr expr;
    expr.Add(i, BigInt(1)).Add(i + 1, BigInt(-1));
    sys.AddConstraint(expr, RelOp::kLe, BigInt(1));
  }
  LinearExpr total;
  for (int i = 0; i < n; ++i) total.Add(i, BigInt(1));
  sys.AddConstraint(total, RelOp::kGe, BigInt(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense ? SolveLpFeasibilityDenseBland(sys)
                                   : SolveLpFeasibility(sys));
  }
}
BENCHMARK(BM_SimplexSparseVsDense)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

}  // namespace
}  // namespace xicc

// BENCHMARK_MAIN, except the JSON sidecar defaults on (BENCH_micro.json,
// same convention as the JsonReport benches); command-line flags still
// override since they come later in argv.
int main(int argc, char** argv) {
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
