#pragma once

// Shared plumbing of the end-to-end benchmark: seeded randomness, clocks,
// order statistics, the span recorder of the traced runs, and the result
// record every workload fills in.
//
// The benchmark measures the xicc modules from outside: it times calls into
// their public functions and reads the counters those functions already
// return. Nothing here reaches into the program.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace xbench {

// ---- Randomness -----------------------------------------------------------

/// splitmix64: the one mixing step every seeded choice goes through, so the
/// same --seed gives the same inputs on every platform and library.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() {
    state_ = Mix(state_);
    return state_;
  }
  /// Uniform in [lo, hi] (inclusive).
  size_t Uniform(size_t lo, size_t hi) {
    return lo + static_cast<size_t>(Next() % (hi - lo + 1));
  }
  bool Percent(size_t pct) { return Next() % 100 < pct; }

 private:
  uint64_t state_;
};

// ---- Clocks and statistics ------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// ---- Spans ----------------------------------------------------------------

/// One timed interval of a traced run. Spans of one operation share
/// `request`; `parent` is the index of the enclosing span (-1 for an
/// operation's root).
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t request;
};

/// In-memory span store. Disabled tracers record nothing, so the untraced
/// passes of a run pay two branch checks per call and no clock reads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Switches recording on or off between operations.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Starts a new operation; its spans carry the returned id.
  uint32_t BeginRequest() { return ++request_; }

  int32_t Open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, current_, request_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void Close(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }

  /// Writes every span as one tab-separated line:
  /// request, index, parent, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "request\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.request, i,
                   s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  int32_t current_ = -1;
  uint32_t request_ = 0;
};

/// RAII span around one call.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~Span() { tracer_->Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Per-name totals over a tracer's spans: count, total duration, and self
/// time (duration minus the part covered by direct children).
struct SpanTotals {
  struct Entry {
    std::string name;
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<Entry> entries;

  const Entry* Find(const std::string& name) const {
    for (const Entry& e : entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }
  double MeanMs(const std::string& name) const {
    const Entry* e = Find(name);
    return e == nullptr ? 0.0 : Ratio(e->total_ms, static_cast<double>(e->count));
  }
  double TotalMs(const std::string& name) const {
    const Entry* e = Find(name);
    return e == nullptr ? 0.0 : e->total_ms;
  }
  size_t Count(const std::string& name) const {
    const Entry* e = Find(name);
    return e == nullptr ? 0 : e->count;
  }
};

inline SpanTotals SumSpans(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  SpanTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    SpanTotals::Entry* entry = nullptr;
    for (SpanTotals::Entry& e : totals.entries) {
      if (e.name == s.name) entry = &e;
    }
    if (entry == nullptr) {
      totals.entries.push_back({s.name, 0, 0.0, 0.0});
      entry = &totals.entries.back();
    }
    entry->count += 1;
    entry->total_ms += NsToMs(s.end_ns - s.start_ns);
    entry->self_ms += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
  }
  return totals;
}

// ---- CPU placement ----------------------------------------------------------

/// Pins the process, and every thread it starts afterwards, to one CPU.
void PinToOneCpu();
/// Restores the CPU set the process started with.
void UnpinCpus();

// ---- Run configuration and result -----------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// A handful of operations per workload: exercises every metric and the
  /// verdict gate in seconds (the benchmark's own tests use it).
  bool smoke = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  /// False once the verdict gate saw a mismatch; the run stops there.
  bool correct = true;
  std::string gate_message;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra provenance fields (sample counts, per-verb splits, ...).
  std::vector<std::pair<std::string, double>> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, double value) {
    notes.emplace_back(key, value);
  }
  /// Records a verdict-gate mismatch; the workload stops at its next check.
  void GateFailure(const std::string& message) {
    if (correct) gate_message = message;
    correct = false;
  }
};

/// The timed-operation sample a workload collects: per-operation latency
/// (ms) in completion order, the summed timed wall time, and the same split
/// into windows. A window is one repetition of the workload's input pool
/// (or a fixed block of operations), so windows of one run do comparable
/// work and their medians reject short bursts of interference from the
/// rest of the machine. A run closes its last, partial window when it ends.
struct OpSample {
  std::vector<double> latency_ms;
  double timed_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  struct Window {
    double ms = 0.0;
    double completed = 0.0;
    /// The window's samples: latency_ms[first, first + count).
    size_t first = 0;
    size_t count = 0;
  };
  std::vector<Window> windows;

  /// One timed call that attempted `ops` operations, `bad` of them failed.
  void Record(double ms, uint64_t ops, uint64_t bad) {
    latency_ms.push_back(ms);
    timed_ms += ms;
    attempted += ops;
    failed += bad;
    open_.ms += ms;
    open_.completed += static_cast<double>(ops - bad);
  }

  /// Ends the current window (no-op when it is empty).
  void CloseWindow() {
    if (latency_ms.size() == open_.first) return;
    open_.count = latency_ms.size() - open_.first;
    windows.push_back(open_);
    open_ = Window();
    open_.first = latency_ms.size();
  }

 private:
  Window open_;
};

/// Set-up repetitions per run; setup_s is their median.
constexpr size_t kSetupReps = 5;

/// Mean operation time in traced windows over that in untraced windows,
/// minus one: what tracing added. Traced runs alternate the two kinds of
/// window, so slow spells of the machine fall on both sides alike.
inline double Overhead(const OpSample& traced, const OpSample& plain) {
  const double t =
      Ratio(traced.timed_ms, static_cast<double>(traced.latency_ms.size()));
  const double u =
      Ratio(plain.timed_ms, static_cast<double>(plain.latency_ms.size()));
  return Ratio(t, u) - 1.0;
}

/// p99 needs ten samples beyond it: a tail block (see AddEndToEnd) holds
/// at least this many operations, and below it in a whole run only the
/// smoke mode reports p99 (its values are not measurements).
constexpr size_t kMinP99Samples = 1000;

/// Fills the end-to-end metrics shared by every workload from the timed
/// sample and the set-up repetitions, and notes the process's peak RSS.
void AddEndToEnd(const RunConfig& config, const OpSample& sample,
                 const std::vector<double>& setup_s, RunResult* result);

/// Median of `values`; 0 when empty.
inline double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace xbench
