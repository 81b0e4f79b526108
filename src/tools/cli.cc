#include "tools/cli.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "base/deadline.h"
#include "constraints/constraint_parser.h"
#include "constraints/id_idref.h"
#include "core/artifact.h"
#include "core/artifact_cache.h"
#include "core/batch.h"
#include "core/cardinality_encoding.h"
#include "core/closure.h"
#include "core/incremental.h"
#include "core/spec.h"
#include "core/spec_session.h"
#include "core/streaming_validator.h"
#include "dtd/dtd_parser.h"
#include "dtd/simplify.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xicc {
namespace tools {

namespace {

constexpr int kOk = 0;
constexpr int kNegative = 1;
constexpr int kError = 2;

constexpr const char* kUsage = R"(usage: xicc <command> ...

  check    <dtd> <constraints> [--witness FILE] [--min-nodes N] [--big-m]
           [--stats] [--timeout-ms N] [--cancel-after N]
           [--artifact-cache DIR]
           Is the specification consistent? (exit 0 yes / 1 no)
  batch    <dtd> <queries> [--threads N] [--chunk N] [--big-m] [--stats]
           [--timeout-ms N] [--cancel-after N] [--artifact-cache DIR]
           Answer many consistency queries against one compiled DTD.
           <queries> holds constraint blocks separated by lines of `---`;
           the DTD is compiled once and shared by all worker sessions.
  compile  <dtd> [--artifact-cache DIR] [--out FILE]
           Compile the DTD into a persistent artifact (grammar facts,
           frozen DFAs, minimal-tree plan, LP skeleton + warm-start basis)
           and store it in the cache directory and/or an explicit file.
           Later check/batch runs with --artifact-cache DIR warm-start
           from the artifact instead of recompiling.
  implies  <dtd> <constraints> <phi> [--counterexample FILE]
           Does the specification imply the constraint <phi>?
  validate <dtd> <constraints> <document.xml> [--stream]
           Check a concrete document against DTD and constraints
           (--stream: single pass, no tree materialized).
  witness  <dtd> <constraints> [--min-nodes N]
           Print an example document satisfying the specification.
  classify <dtd> <constraints>
           Report the Figure-5 constraint class and decidability.
  simplify <dtd>
           Print the Section 4.1 simplified DTD.
  encode   <dtd> <constraints>
           Print the Ψ(D,Σ) cardinality system (Theorem 4.1).
  closure  <dtd> <constraints> [--no-inclusions]
           List implied-but-unstated unary keys/inclusions and redundant
           constraints.
  equiv    <dtd> <constraints1> <constraints2>
           Are two constraint sets equivalent over the DTD? (exit 0/1)
  idrefs   <dtd>
           Translate ID/IDREF attribute declarations into constraints.

Constraint syntax (one per line):
  key teacher(name)
  fk subject(taught_by) => teacher(name)
  inclusion a(x) <= b(y)
  !key a(x)          !inclusion a(x) <= b(y)

--timeout-ms bounds one check's wall clock (for batch: EACH query's,
measured from when that query starts). A check that outlives its budget
reports "no verdict" with the partial search statistics — it never turns
into a consistency answer. --cancel-after arms a timer that cancels the
whole run after N ms; batch returns promptly, keeping every verdict
that finished and recording the rest as cancelled.

--artifact-cache names a directory of compiled-DTD artifacts keyed by DTD
content hash. A hit mmaps the artifact (integrity-checked: container
checksums, content key, and a recomputed semantic digest) instead of
compiling; a miss or a corrupt file falls back to a cold compile and
(re)writes the artifact. Cache trouble never changes verdicts.

--stats prints the solver counters behind a verdict (system size, ILP
nodes, warm/cold LP solves, compile-vs-query time, sigma-delta and memo
hits). Verdict soundness itself is machine-checked separately: xicc_analyze
gates the source invariants (exact arithmetic, determinism, annotated
concurrency), -DXICC_THREAD_SAFETY=ON makes clang verify the locking, and
a -DXICC_AUDIT=ON build re-checks solver invariants at every checkpoint —
see "Verifying correctness" in README.md.
)";

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::InvalidArgument("cannot write '" + path + "'");
  }
  out << content;
  return Status::Ok();
}

/// Positional / flag splitter: flags may carry one value.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // --name -> value ("" if bare).
};

Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args,
                             size_t from,
                             const std::map<std::string, bool>& known_flags) {
  ParsedArgs out;
  for (size_t i = from; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    auto it = known_flags.find(arg);
    if (it == known_flags.end()) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (it->second) {  // Takes a value.
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag '" + arg + "' needs a value");
      }
      out.flags[arg] = args[++i];
    } else {
      out.flags[arg] = "";
    }
  }
  return out;
}

Result<XmlSpec> LoadSpec(const std::string& dtd_path,
                         const std::string& constraints_path) {
  XICC_ASSIGN_OR_RETURN(std::string dtd_text, ReadFile(dtd_path));
  XICC_ASSIGN_OR_RETURN(std::string sigma_text, ReadFile(constraints_path));
  return XmlSpec::Parse(dtd_text, sigma_text);
}

/// Parses a flag value that must be an integer >= `min`. Rejects empty
/// values, trailing junk ("10x"), and out-of-range magnitudes (ERANGE or
/// beyond the int64 the callers store), each with a usage hint so the
/// operator sees what shape was expected.
Result<int64_t> ParseIntFlag(const std::string& name, const std::string& text,
                             int64_t min, const std::string& expected) {
  errno = 0;
  char* end = nullptr;
  long long n = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(name + " needs " + expected + ", got '" +
                                   text + "' (run `xicc` for usage)");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument(name + " value '" + text +
                                   "' is out of range (run `xicc` for usage)");
  }
  if (n < min) {
    return Status::InvalidArgument(name + " needs " + expected + ", got '" +
                                   text + "' (run `xicc` for usage)");
  }
  return static_cast<int64_t>(n);
}

/// Parses an optional positive-integer flag; 0 means "not given".
Result<int64_t> PositiveMsFlag(const ParsedArgs& parsed,
                               const std::string& name) {
  auto it = parsed.flags.find(name);
  if (it == parsed.flags.end()) return int64_t{0};
  return ParseIntFlag(name, it->second, 1, "a positive integer (ms)");
}

/// The --timeout-ms / --cancel-after plumbing shared by check and batch:
/// owns the cancel token and its timer so the StopSignal pointers given to
/// the solver stack stay valid for the command's whole run.
struct StopPlumbing {
  CancelToken token;
  std::optional<CancelTimer> timer;  // Armed iff --cancel-after was given.
  int64_t timeout_ms = 0;
  int64_t cancel_after_ms = 0;

  Status Arm(const ParsedArgs& parsed) {
    XICC_ASSIGN_OR_RETURN(timeout_ms, PositiveMsFlag(parsed, "--timeout-ms"));
    XICC_ASSIGN_OR_RETURN(cancel_after_ms,
                          PositiveMsFlag(parsed, "--cancel-after"));
    if (cancel_after_ms > 0) timer.emplace(&token, cancel_after_ms);
    return Status::Ok();
  }
};

Result<ConsistencyOptions> OptionsFromFlags(const ParsedArgs& parsed) {
  ConsistencyOptions options;
  if (parsed.flags.count("--big-m")) {
    options.strategy = SolveStrategy::kBigM;
  }
  auto it = parsed.flags.find("--min-nodes");
  if (it != parsed.flags.end()) {
    XICC_ASSIGN_OR_RETURN(int64_t n,
                          ParseIntFlag("--min-nodes", it->second, 0,
                                       "a nonnegative integer"));
    options.min_witness_nodes = static_cast<size_t>(n);
  }
  return options;
}

/// The `arithmetic:` and `lp kernel:` lines of a solve-counter block, shared
/// by the per-check stats and the batch totals.
void PrintSolveCounters(const SolveCounters& c, std::ostream& out) {
  out << "arithmetic: " << c.num_small_ops << " small ops, " << c.num_big_ops
      << " big ops, " << c.num_promotions << " promotions / "
      << c.num_demotions << " demotions, arena " << c.arena_bytes
      << " bytes\n";
  const LpKernelStats& k = c.lp_kernel;
  out << "lp kernel:  " << k.dantzig_pivots << " dantzig / " << k.bland_pivots
      << " bland pivots, " << k.bland_fallbacks << " fallbacks, fill-in "
      << k.fill_in << ", nnz " << k.nnz_cells << "/" << k.total_cells
      << " cells, fast rows " << k.fast_rows << " (" << k.fast_row_promotions
      << " promoted)\n";
}

void PrintStats(const ConsistencyStats& stats, std::ostream& out) {
  out << "stats:      " << stats.system_variables << " vars, "
      << stats.system_constraints << " rows, " << stats.ilp_nodes
      << " ilp nodes, " << stats.lp_pivots << " lp pivots ("
      << stats.warm_starts << " warm / " << stats.cold_restarts
      << " cold), depth " << stats.search_depth << ", ilp "
      << stats.ilp_wall_ms << " ms\n";
  PrintSolveCounters(stats, out);
  out << "session:    compile " << stats.compile_ms << " ms, "
      << stats.sigma_delta_checks << " sigma-delta, " << stats.memo_hits
      << " memo hits, " << stats.memo_misses << " memo misses\n";
  out << "stages:     setup " << stats.session_setup_ms << " ms, memo key "
      << stats.memo_key_ms << " ms, lookup " << stats.memo_lookup_ms
      << " ms, store " << stats.memo_store_ms << " ms\n";
}

int CmdCheck(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  auto parsed = ParseArgs(args, 1,
                          {{"--witness", true},
                           {"--min-nodes", true},
                           {"--big-m", false},
                           {"--stats", false},
                           {"--timeout-ms", true},
                           {"--cancel-after", true},
                           {"--artifact-cache", true}});
  if (!parsed.ok() || parsed->positional.size() != 2) {
    err << (parsed.ok() ? std::string("check needs <dtd> <constraints>")
                        : parsed.status().message())
        << "\n";
    return kError;
  }
  auto spec = LoadSpec(parsed->positional[0], parsed->positional[1]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  auto options = OptionsFromFlags(*parsed);
  if (!options.ok()) {
    err << options.status() << "\n";
    return kError;
  }
  StopPlumbing plumbing;
  Status armed = plumbing.Arm(*parsed);
  if (!armed.ok()) {
    err << armed << "\n";
    return kError;
  }
  ConsistencyStats partial;
  if (plumbing.timeout_ms > 0 || plumbing.cancel_after_ms > 0) {
    if (plumbing.timeout_ms > 0) {
      options->stop.deadline = Deadline::After(plumbing.timeout_ms);
    }
    options->stop.cancel = &plumbing.token;
    options->partial_stats = &partial;
  }
  // With --artifact-cache the check routes through a SpecSession over the
  // cached CompiledDtd (verdict-identical to CheckConsistent's dispatch);
  // without it, the classic compile-inline path.
  auto cache_flag = parsed->flags.find("--artifact-cache");
  std::optional<SpecSession> session;
  std::optional<ArtifactSource> artifact_source;
  auto result = [&]() -> Result<ConsistencyResult> {
    if (cache_flag == parsed->flags.end()) {
      return spec->CheckConsistent(*options);
    }
    ArtifactCache cache(ArtifactCache::Options{cache_flag->second, 16});
    XICC_ASSIGN_OR_RETURN(ArtifactCache::Lookup lookup,
                          cache.GetOrCompile(spec->dtd));
    artifact_source = lookup.source;
    session.emplace(std::move(lookup.compiled), *options);
    return session->Check(spec->constraints);
  }();
  if (session.has_value() && !result.ok()) partial = session->LastPartialStats();
  if (!result.ok()) {
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      // A stopped check has decided nothing; report how far it got, never
      // a verdict.
      err << "no verdict: " << result.status().message() << "\n";
      if (parsed->flags.count("--stats")) PrintStats(partial, err);
      return kError;
    }
    err << result.status() << "\n";
    return kError;
  }
  out << "class:      " << ConstraintClassName(result->constraint_class)
      << "\n";
  out << "method:     " << result->method << "\n";
  out << "consistent: " << (result->consistent ? "yes" : "no") << "\n";
  if (!result->explanation.empty()) {
    out << "why:        " << result->explanation << "\n";
  }
  if (parsed->flags.count("--stats")) {
    PrintStats(result->stats, out);
    if (artifact_source.has_value()) {
      out << "artifact:   " << ArtifactSourceName(*artifact_source) << " ("
          << cache_flag->second << ")\n";
    }
  }
  auto witness_flag = parsed->flags.find("--witness");
  if (witness_flag != parsed->flags.end() && result->witness.has_value()) {
    Status written =
        WriteFile(witness_flag->second, SerializeXml(*result->witness));
    if (!written.ok()) {
      err << written << "\n";
      return kError;
    }
    out << "witness:    " << witness_flag->second << " ("
        << result->witness->size() << " nodes)\n";
  }
  return result->consistent ? kOk : kNegative;
}

/// Splits the batch query file into blocks on lines that are exactly `---`
/// (ignoring surrounding whitespace). Blank blocks are kept: an empty Σ is a
/// legitimate (trivially consistent) query.
std::vector<std::string> SplitQueryBlocks(const std::string& text) {
  std::vector<std::string> blocks;
  std::string current;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::string trimmed = line;
    size_t begin = trimmed.find_first_not_of(" \t\r");
    size_t end = trimmed.find_last_not_of(" \t\r");
    trimmed = begin == std::string::npos
                  ? std::string()
                  : trimmed.substr(begin, end - begin + 1);
    if (trimmed == "---") {
      blocks.push_back(current);
      current.clear();
    } else {
      current += line;
      current += '\n';
    }
  }
  blocks.push_back(current);
  return blocks;
}

int CmdBatch(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  auto parsed = ParseArgs(args, 1,
                          {{"--threads", true},
                           {"--chunk", true},
                           {"--big-m", false},
                           {"--stats", false},
                           {"--timeout-ms", true},
                           {"--cancel-after", true},
                           {"--artifact-cache", true}});
  if (!parsed.ok() || parsed->positional.size() != 2) {
    err << (parsed.ok() ? std::string("batch needs <dtd> <queries>")
                        : parsed.status().message())
        << "\n";
    return kError;
  }
  auto dtd_text = ReadFile(parsed->positional[0]);
  if (!dtd_text.ok()) {
    err << dtd_text.status() << "\n";
    return kError;
  }
  auto dtd = ParseDtd(*dtd_text);
  if (!dtd.ok()) {
    err << dtd.status() << "\n";
    return kError;
  }
  auto queries_text = ReadFile(parsed->positional[1]);
  if (!queries_text.ok()) {
    err << queries_text.status() << "\n";
    return kError;
  }
  std::vector<ConstraintSet> queries;
  for (const std::string& block : SplitQueryBlocks(*queries_text)) {
    auto sigma = ParseConstraints(block);
    if (!sigma.ok()) {
      err << "query " << queries.size() << ": " << sigma.status() << "\n";
      return kError;
    }
    queries.push_back(std::move(*sigma));
  }

  BatchOptions options;
  if (parsed->flags.count("--big-m")) {
    options.check.strategy = SolveStrategy::kBigM;
  }
  auto threads_flag = parsed->flags.find("--threads");
  if (threads_flag != parsed->flags.end()) {
    auto n = ParseIntFlag("--threads", threads_flag->second, 1,
                          "a positive integer");
    if (!n.ok()) {
      err << n.status() << "\n";
      return kError;
    }
    options.num_threads = static_cast<size_t>(*n);
  }
  auto chunk_flag = parsed->flags.find("--chunk");
  if (chunk_flag != parsed->flags.end()) {
    auto n = ParseIntFlag("--chunk", chunk_flag->second, 1,
                          "a positive integer");
    if (!n.ok()) {
      err << n.status() << "\n";
      return kError;
    }
    options.chunk_size = static_cast<size_t>(*n);
  }
  StopPlumbing plumbing;
  Status armed = plumbing.Arm(*parsed);
  if (!armed.ok()) {
    err << armed << "\n";
    return kError;
  }
  options.item_timeout_ms = plumbing.timeout_ms;
  if (plumbing.cancel_after_ms > 0) options.cancel = &plumbing.token;

  auto cache_flag = parsed->flags.find("--artifact-cache");
  std::optional<ArtifactSource> artifact_source;
  StageTally artifact_tally;
  auto compiled = [&]() -> Result<std::shared_ptr<const CompiledDtd>> {
    if (cache_flag == parsed->flags.end()) return CompileDtd(*dtd);
    ArtifactCache cache(ArtifactCache::Options{cache_flag->second, 16});
    XICC_ASSIGN_OR_RETURN(ArtifactCache::Lookup lookup,
                          cache.GetOrCompile(*dtd, &artifact_tally));
    artifact_source = lookup.source;
    return std::move(lookup.compiled);
  }();
  if (!compiled.ok()) {
    err << compiled.status() << "\n";
    return kError;
  }
  BatchDegradedStats degraded;
  BatchRunStats run;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded, &run);
  // Charge the pre-batch artifact traffic to the run's stage report, so
  // the stages line sums to the whole command, not just the pool section.
  run.stages.Merge(artifact_tally);

  bool any_error = false;
  bool all_consistent = true;
  ConsistencyStats total;
  for (size_t i = 0; i < results.size(); ++i) {
    const BatchItemResult& item = results[i];
    if (!item.status.ok()) {
      out << "[" << i << "] error: " << item.status.message();
      const StatusCode code = item.status.code();
      if (code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kCancelled ||
          code == StatusCode::kResourceExhausted) {
        // The quarantined item's partial progress, inline: enough to see
        // whether the budget was merely tight or the query truly explodes.
        out << " (partial: " << item.partial.ilp_nodes << " ilp nodes, "
            << item.partial.lp_pivots << " lp pivots, depth "
            << item.partial.search_depth << ")";
      }
      out << "\n";
      any_error = true;
      continue;
    }
    out << "[" << i << "] "
        << ConstraintClassName(item.result.constraint_class) << " via "
        << item.result.method << ": "
        << (item.result.consistent ? "consistent" : "inconsistent");
    if (!item.result.consistent && !item.result.explanation.empty()) {
      out << " (" << item.result.explanation << ")";
    }
    out << "\n";
    all_consistent = all_consistent && item.result.consistent;
    total.Add(item.result.stats);
  }
  out << "queries:    " << results.size() << "\n";
  if (parsed->flags.count("--stats")) {
    out << "compile:    " << (*compiled)->compile_ms << " ms (once)\n";
    if (artifact_source.has_value()) {
      out << "artifact:   " << ArtifactSourceName(*artifact_source) << " ("
          << cache_flag->second << "), load "
          << artifact_tally.MsFor(Stage::kArtifactLoad) << " ms, store "
          << artifact_tally.MsFor(Stage::kArtifactStore) << " ms\n";
    }
    out << "totals:     " << total.sigma_delta_checks << " sigma-delta, "
        << total.memo_hits << " memo hits, " << total.memo_misses
        << " memo misses, " << total.ilp_nodes << " ilp nodes, "
        << total.lp_pivots << " lp pivots (" << total.warm_starts
        << " warm / " << total.cold_restarts << " cold), ilp "
        << total.ilp_wall_ms << " ms\n";
    PrintSolveCounters(total, out);
    out << "degraded:   " << degraded.quarantined << " quarantined ("
        << degraded.deadline_exceeded << " deadline, " << degraded.cancelled
        << " cancelled, " << degraded.resource_exhausted << " exhausted), "
        << degraded.retries << " retries / " << degraded.retry_rescues
        << " rescued\n";
    out << "schedule:   " << run.workers << " workers (hardware "
        << run.hardware_threads << "), " << run.chunks << " chunks of "
        << run.chunk_size << ", " << run.sessions_created
        << " sessions created / " << run.session_reuses << " reused, memo "
        << run.memo_hits << " hits / " << run.memo_misses << " misses / "
        << run.memo_evictions << " evicted\n";
    out << "stages:    ";
    for (size_t s = 0; s < static_cast<size_t>(Stage::kCount); ++s) {
      const Stage stage = static_cast<Stage>(s);
      out << " " << StageName(stage) << " " << run.stages.MsFor(stage)
          << " ms";
    }
    out << "\n";
  }
  if (any_error) return kError;
  return all_consistent ? kOk : kNegative;
}

int CmdCompile(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  auto parsed = ParseArgs(args, 1,
                          {{"--artifact-cache", true}, {"--out", true}});
  if (!parsed.ok() || parsed->positional.size() != 1) {
    err << (parsed.ok() ? std::string("compile needs <dtd>")
                        : parsed.status().message())
        << "\n";
    return kError;
  }
  auto cache_flag = parsed->flags.find("--artifact-cache");
  auto out_flag = parsed->flags.find("--out");
  if (cache_flag == parsed->flags.end() && out_flag == parsed->flags.end()) {
    err << "compile needs --artifact-cache DIR and/or --out FILE\n";
    return kError;
  }
  auto dtd_text = ReadFile(parsed->positional[0]);
  if (!dtd_text.ok()) {
    err << dtd_text.status() << "\n";
    return kError;
  }
  auto dtd = ParseDtd(*dtd_text);
  if (!dtd.ok()) {
    err << dtd.status() << "\n";
    return kError;
  }

  std::shared_ptr<const CompiledDtd> compiled;
  StageTally tally;
  char key_hex[17];
  std::snprintf(key_hex, sizeof(key_hex), "%016llx",
                static_cast<unsigned long long>(DtdContentHash(*dtd)));
  out << "content:    " << key_hex << " (format v" << kArtifactFormatVersion
      << ")\n";
  if (cache_flag != parsed->flags.end()) {
    ArtifactCache cache(ArtifactCache::Options{cache_flag->second, 1});
    auto lookup = cache.GetOrCompile(*dtd, &tally);
    if (!lookup.ok()) {
      err << lookup.status() << "\n";
      return kError;
    }
    compiled = std::move(lookup->compiled);
    out << "artifact:   " << cache.DiskPathFor(*dtd) << " ("
        << ArtifactSourceName(lookup->source) << ")\n";
    if (cache.stats().store_failures > 0) {
      err << "warning: artifact could not be stored in '"
          << cache_flag->second << "'\n";
    }
  } else {
    auto fresh = CompileDtd(*dtd);
    if (!fresh.ok()) {
      err << fresh.status() << "\n";
      return kError;
    }
    compiled = std::move(*fresh);
  }
  if (out_flag != parsed->flags.end()) {
    StageTimer timer(&tally, Stage::kArtifactStore);
    Status stored = StoreCompiledDtd(*compiled, out_flag->second);
    if (!stored.ok()) {
      err << stored << "\n";
      return kError;
    }
    out << "artifact:   " << out_flag->second << "\n";
  }
  out << "compile:    " << compiled->compile_ms << " ms, load "
      << tally.MsFor(Stage::kArtifactLoad) << " ms, store "
      << tally.MsFor(Stage::kArtifactStore) << " ms\n";
  return kOk;
}

int CmdImplies(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  auto parsed = ParseArgs(args, 1, {{"--counterexample", true}});
  if (!parsed.ok() || parsed->positional.size() != 3) {
    err << (parsed.ok()
                ? std::string("implies needs <dtd> <constraints> <phi>")
                : parsed.status().message())
        << "\n";
    return kError;
  }
  auto spec = LoadSpec(parsed->positional[0], parsed->positional[1]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  auto result = spec->Implies(parsed->positional[2]);
  if (!result.ok()) {
    err << result.status() << "\n";
    return kError;
  }
  out << "method:  " << result->method << "\n";
  out << "implied: " << (result->implied ? "yes" : "no") << "\n";
  if (!result->explanation.empty()) {
    out << "why:     " << result->explanation << "\n";
  }
  auto flag = parsed->flags.find("--counterexample");
  if (flag != parsed->flags.end() && result->counterexample.has_value()) {
    Status written =
        WriteFile(flag->second, SerializeXml(*result->counterexample));
    if (!written.ok()) {
      err << written << "\n";
      return kError;
    }
    out << "counterexample: " << flag->second << "\n";
  }
  return result->implied ? kOk : kNegative;
}

int CmdValidate(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  auto parsed = ParseArgs(args, 1, {{"--stream", false}});
  if (!parsed.ok() || parsed->positional.size() != 3) {
    err << (parsed.ok()
                ? std::string("validate needs <dtd> <constraints> "
                              "<document.xml> [--stream]")
                : parsed.status().message())
        << "\n";
    return kError;
  }
  auto spec = LoadSpec(parsed->positional[0], parsed->positional[1]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  auto text = ReadFile(parsed->positional[2]);
  if (!text.ok()) {
    err << text.status() << "\n";
    return kError;
  }
  if (parsed->flags.count("--stream")) {
    auto summary = ValidateStream(*text, spec->dtd, spec->constraints);
    if (!summary.ok()) {
      err << summary.status() << "\n";
      return kError;
    }
    out << summary->ToString() << "\n";
    out << "(streamed " << summary->elements_seen << " elements)\n";
    return summary->conforms ? kOk : kNegative;
  }
  auto tree = ParseXml(*text);
  if (!tree.ok()) {
    err << tree.status() << "\n";
    return kError;
  }
  auto report = spec->CheckDocument(*tree);
  out << report.details << "\n";
  return report.conforms ? kOk : kNegative;
}

int CmdWitness(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  auto parsed = ParseArgs(args, 1, {{"--min-nodes", true}});
  if (!parsed.ok() || parsed->positional.size() != 2) {
    err << (parsed.ok() ? std::string("witness needs <dtd> <constraints>")
                        : parsed.status().message())
        << "\n";
    return kError;
  }
  auto spec = LoadSpec(parsed->positional[0], parsed->positional[1]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  auto options = OptionsFromFlags(*parsed);
  if (!options.ok()) {
    err << options.status() << "\n";
    return kError;
  }
  auto result = spec->CheckConsistent(*options);
  if (!result.ok()) {
    err << result.status() << "\n";
    return kError;
  }
  if (!result->consistent) {
    err << "inconsistent: " << result->explanation << "\n";
    return kNegative;
  }
  if (!result->witness.has_value()) {
    err << "consistent, but the witness could not be materialized: "
        << result->explanation << "\n";
    return kError;
  }
  out << SerializeXml(*result->witness);
  return kOk;
}

int CmdClassify(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.size() != 3) {
    err << "classify needs <dtd> <constraints>\n";
    return kError;
  }
  auto spec = LoadSpec(args[1], args[2]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  ConstraintClass klass = spec->constraints.Classify();
  out << "class:   " << ConstraintClassName(klass) << "\n";
  out << "primary: "
      << (spec->constraints.SatisfiesPrimaryKeyRestriction() ? "yes" : "no")
      << "\n";
  switch (klass) {
    case ConstraintClass::kEmpty:
    case ConstraintClass::kKeysOnly:
      out << "consistency: decidable in linear time (Theorem 3.5)\n";
      break;
    case ConstraintClass::kUnaryKeyFk:
    case ConstraintClass::kUnaryWithNegKey:
      out << "consistency: NP-complete (Theorem 4.7 / Corollary 4.9)\n";
      break;
    case ConstraintClass::kUnaryWithNegIc:
      out << "consistency: NP-complete (Theorem 5.1)\n";
      break;
    case ConstraintClass::kMultiAttribute:
      out << "consistency: undecidable (Theorem 3.1); dynamic document\n"
             "validation remains available\n";
      break;
  }
  return kOk;
}

int CmdSimplify(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.size() != 2) {
    err << "simplify needs <dtd>\n";
    return kError;
  }
  auto text = ReadFile(args[1]);
  if (!text.ok()) {
    err << text.status() << "\n";
    return kError;
  }
  auto dtd = ParseDtd(*text);
  if (!dtd.ok()) {
    err << dtd.status() << "\n";
    return kError;
  }
  auto simplified = SimplifyDtd(*dtd);
  if (!simplified.ok()) {
    err << simplified.status() << "\n";
    return kError;
  }
  out << simplified->dtd.ToString();
  out << "<!-- synthetic element types: " << simplified->synthetic.size()
      << " -->\n";
  return kOk;
}

int CmdEncode(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  if (args.size() != 3) {
    err << "encode needs <dtd> <constraints>\n";
    return kError;
  }
  auto spec = LoadSpec(args[1], args[2]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  auto enc =
      BuildCardinalityEncoding(spec->dtd, spec->constraints.Normalize());
  if (!enc.ok()) {
    err << enc.status() << "\n";
    return kError;
  }
  out << "# Ψ(D,Σ): " << enc->system.NumVariables() << " variables, "
      << enc->system.NumConstraints() << " rows, "
      << enc->conditionals.size() << " conditionals\n";
  out << enc->system.ToString() << "\n";
  for (const Conditional& cond : enc->conditionals) {
    // Conditionals have single-variable sides in Ψ(D,Σ).
    out << "# conditional: premise>0 -> conclusion>0 over vars";
    for (const auto& [var, coeff] : cond.premise.terms()) {
      out << " " << enc->system.VarName(var);
    }
    out << " ->";
    for (const auto& [var, coeff] : cond.conclusion.terms()) {
      out << " " << enc->system.VarName(var);
    }
    out << "\n";
  }
  return kOk;
}

int CmdClosure(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  auto parsed = ParseArgs(args, 1, {{"--no-inclusions", false}});
  if (!parsed.ok() || parsed->positional.size() != 2) {
    err << (parsed.ok() ? std::string("closure needs <dtd> <constraints>")
                        : parsed.status().message())
        << "\n";
    return kError;
  }
  auto spec = LoadSpec(parsed->positional[0], parsed->positional[1]);
  if (!spec.ok()) {
    err << spec.status() << "\n";
    return kError;
  }
  ClosureOptions options;
  options.include_inclusions = parsed->flags.count("--no-inclusions") == 0;
  auto closure = ComputeUnaryClosure(spec->dtd, spec->constraints, options);
  if (!closure.ok()) {
    err << closure.status() << "\n";
    return kError;
  }
  out << "implied keys (" << closure->implied_keys.size() << "):\n";
  for (const Constraint& c : closure->implied_keys) {
    out << "  " << c.ToString() << "\n";
  }
  out << "implied inclusions (" << closure->implied_inclusions.size()
      << "):\n";
  for (const Constraint& c : closure->implied_inclusions) {
    out << "  " << c.ToString() << "\n";
  }
  auto redundant = FindRedundantConstraints(spec->dtd, spec->constraints);
  if (!redundant.ok()) {
    err << redundant.status() << "\n";
    return kError;
  }
  out << "redundant constraints (" << redundant->size() << "):\n";
  for (const Constraint& c : *redundant) {
    out << "  " << c.ToString() << "\n";
  }
  return kOk;
}

int CmdEquiv(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.size() != 4) {
    err << "equiv needs <dtd> <constraints1> <constraints2>\n";
    return kError;
  }
  auto spec1 = LoadSpec(args[1], args[2]);
  if (!spec1.ok()) {
    err << spec1.status() << "\n";
    return kError;
  }
  auto sigma2_text = ReadFile(args[3]);
  if (!sigma2_text.ok()) {
    err << sigma2_text.status() << "\n";
    return kError;
  }
  auto sigma2 = ParseConstraints(*sigma2_text);
  if (!sigma2.ok()) {
    err << sigma2.status() << "\n";
    return kError;
  }
  Status against = sigma2->CheckAgainst(spec1->dtd);
  if (!against.ok()) {
    err << against << "\n";
    return kError;
  }
  auto result = CheckEquivalence(spec1->dtd, spec1->constraints, *sigma2);
  if (!result.ok()) {
    err << result.status() << "\n";
    return kError;
  }
  out << "equivalent: " << (result->equivalent ? "yes" : "no") << "\n";
  if (!result->equivalent) {
    out << "separated by: " << result->separating_constraint << "\n";
  }
  return result->equivalent ? kOk : kNegative;
}

int CmdIdrefs(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  if (args.size() != 2) {
    err << "idrefs needs <dtd>\n";
    return kError;
  }
  auto text = ReadFile(args[1]);
  if (!text.ok()) {
    err << text.status() << "\n";
    return kError;
  }
  auto dtd = ParseDtd(*text);
  if (!dtd.ok()) {
    err << dtd.status() << "\n";
    return kError;
  }
  auto translation = DeriveIdConstraints(*dtd);
  if (!translation.ok()) {
    err << translation.status() << "\n";
    return kError;
  }
  out << translation->constraints.ToString() << "\n";
  for (const std::string& note : translation->notes) {
    out << "# note: " << note << "\n";
  }
  return kOk;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return kError;
  }
  const std::string& command = args[0];
  if (command == "check") return CmdCheck(args, out, err);
  if (command == "batch") return CmdBatch(args, out, err);
  if (command == "compile") return CmdCompile(args, out, err);
  if (command == "implies") return CmdImplies(args, out, err);
  if (command == "validate") return CmdValidate(args, out, err);
  if (command == "witness") return CmdWitness(args, out, err);
  if (command == "classify") return CmdClassify(args, out, err);
  if (command == "simplify") return CmdSimplify(args, out, err);
  if (command == "encode") return CmdEncode(args, out, err);
  if (command == "closure") return CmdClosure(args, out, err);
  if (command == "equiv") return CmdEquiv(args, out, err);
  if (command == "idrefs") return CmdIdrefs(args, out, err);
  if (command == "help" || command == "--help" || command == "-h") {
    out << kUsage;
    return kOk;
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return kError;
}

}  // namespace tools
}  // namespace xicc
