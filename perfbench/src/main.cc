// xicc_perfbench: one run of one workload.
//
//   xicc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--trace-out PATH]
//
// Prints a `provenance {...}` line, then, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}. A verdict that
// disagrees with the expected-verdict record stops the run: the result
// then says "correct": false and the exit code is 1. perfbench/run.py
// builds this program and is the benchmark's entry point.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/worksteal.h"
#include "harness.h"
#include "workloads.h"

namespace xbench {

namespace {

/// The samples of windows [begin, end) of `sample` (windows are contiguous).
std::vector<double> WindowSamples(const OpSample& sample, size_t begin,
                                  size_t end) {
  const OpSample::Window& last = sample.windows[end - 1];
  return std::vector<double>(
      sample.latency_ms.begin() +
          static_cast<std::ptrdiff_t>(sample.windows[begin].first),
      sample.latency_ms.begin() +
          static_cast<std::ptrdiff_t>(last.first + last.count));
}

/// The window ranges of the run's tail blocks. A tail block is the shortest
/// run of consecutive windows that holds kMinP99Samples operations, so its
/// p99 has ten samples beyond it; windows left over at the end of the run
/// join the last block (a run below kMinP99Samples is one block).
std::vector<std::pair<size_t, size_t>> TailBlocks(const OpSample& sample) {
  std::vector<std::pair<size_t, size_t>> blocks;
  size_t begin = 0;
  size_t held = 0;
  for (size_t w = 0; w < sample.windows.size(); ++w) {
    held += sample.windows[w].count;
    if (held >= kMinP99Samples) {
      blocks.emplace_back(begin, w + 1);
      begin = w + 1;
      held = 0;
    }
  }
  if (begin < sample.windows.size()) {
    if (blocks.empty()) {
      blocks.emplace_back(begin, sample.windows.size());
    } else {
      blocks.back().second = sample.windows.size();
    }
  }
  return blocks;
}

}  // namespace

void AddEndToEnd(const RunConfig& config, const OpSample& sample,
                 const std::vector<double>& setup_s, RunResult* result) {
  result->attempted = sample.attempted;
  result->failed = sample.failed;
  // Every figure is a median over parts of the run, so a burst of
  // interference from the rest of the machine moves one part, not the
  // run: throughput and median latency over windows (repetitions of
  // comparable work), p99 over tail blocks of windows.
  std::vector<double> window_rate;
  std::vector<double> window_p50;
  for (size_t w = 0; w < sample.windows.size(); ++w) {
    window_rate.push_back(Ratio(sample.windows[w].completed,
                                sample.windows[w].ms / 1000.0));
    window_p50.push_back(Quantile(WindowSamples(sample, w, w + 1), 0.50));
  }
  result->Add("ops_per_s", MedianOf(window_rate), "1/s");
  result->Add("latency_p50_ms", MedianOf(window_p50), "ms");
  result->Note("windows", static_cast<double>(sample.windows.size()));
  if (sample.latency_ms.size() >= kMinP99Samples || config.smoke) {
    std::vector<double> block_p99;
    for (const auto& [begin, end] : TailBlocks(sample)) {
      block_p99.push_back(Quantile(WindowSamples(sample, begin, end), 0.99));
    }
    result->Add("latency_p99_ms", MedianOf(block_p99), "ms");
    result->Note("tail_blocks", static_cast<double>(block_p99.size()));
  }
  result->Add("completed_share",
              Ratio(static_cast<double>(sample.attempted - sample.failed),
                    static_cast<double>(sample.attempted)),
              "ratio");
  // The median of the run's set-ups; the first one, the only one in a
  // process that has not set up before, goes to the provenance.
  result->Add("setup_s", MedianOf(setup_s), "s");
  if (!setup_s.empty()) result->Note("setup_first_s", setup_s.front());
  // Reported, not gated: on fresh_oneshot the peak is set by where glibc's
  // heap ratchets on the run's heaviest checks, and moved 28-44 MiB between
  // seeds of unchanged code.
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  result->Note("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  result->Note("latency_samples", static_cast<double>(sample.latency_ms.size()));
  result->Note("timed_s", sample.timed_ms / 1000.0);
  result->Note("failed_share",
               Ratio(static_cast<double>(sample.failed),
                     static_cast<double>(sample.attempted)));
}

namespace {

cpu_set_t g_started_cpus;
bool g_pinned = false;

}  // namespace

// Every workload is one closed-loop caller with one worker, so it has no
// parallelism to lose; on a shared virtual machine a hand-off between
// threads on different CPUs waits for the host to wake an idle virtual CPU,
// and that wait, not the program, set most of the run-to-run spread of
// sub-millisecond requests.
void PinToOneCpu() {
  CPU_ZERO(&g_started_cpus);
  if (sched_getaffinity(0, sizeof(g_started_cpus), &g_started_cpus) != 0) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &g_started_cpus)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  g_pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
}

void UnpinCpus() {
  if (g_pinned) {
    (void)sched_setaffinity(0, sizeof(g_started_cpus), &g_started_cpus);
  }
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Print(const RunConfig& config, const RunResult& result) {
  std::string prov = "provenance {";
  prov += "\"workload\":" + Quoted(config.workload);
  prov += ",\"seed\":" + std::to_string(config.seed);
  prov += ",\"seconds\":" + Number(config.seconds);
  prov += ",\"trace\":" + std::string(config.trace ? "1" : "0");
  prov += ",\"smoke\":" + std::string(config.smoke ? "true" : "false");
  prov += ",\"build_type\":" + Quoted(XBENCH_BUILD_TYPE);
  prov += ",\"compiler\":" + Quoted(XBENCH_COMPILER);
  prov += ",\"hardware_concurrency\":" +
          std::to_string(xicc::HardwareConcurrency());
  prov += ",\"timed_operations\":" + std::to_string(result.attempted);
  for (const auto& [key, value] : result.notes) {
    prov += "," + Quoted(key) + ":" + Number(value);
  }
  if (!result.correct) prov += ",\"gate\":" + Quoted(result.gate_message);
  prov += "}";
  std::printf("%s\n", prov.c_str());

  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: xicc_perfbench --workload "
               "authoring_session|gadget_oneshot|batch_bulk|fresh_oneshot "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace xbench

int main(int argc, char** argv) {
  using namespace xbench;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage();
    if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out") {
      config.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (!(config.seconds > 0.0)) return Usage();

  PinToOneCpu();
  RunResult result;
  if (config.workload == "authoring_session") {
    result = RunAuthoringSession(config);
  } else if (config.workload == "gadget_oneshot") {
    result = RunGadgetOneshot(config);
  } else if (config.workload == "batch_bulk") {
    result = RunBatchBulk(config);
  } else if (config.workload == "fresh_oneshot") {
    result = RunFreshOneshot(config);
  } else {
    return Usage();
  }
  if (result.attempted == 0 && result.correct) {
    result.GateFailure("no operation completed");
  }
  Print(config, result);
  if (!result.correct) {
    std::fprintf(stderr, "verdict gate: %s\n", result.gate_message.c_str());
    return 1;
  }
  return 0;
}
