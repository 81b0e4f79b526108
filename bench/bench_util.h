#ifndef XICC_BENCH_BENCH_UTIL_H_
#define XICC_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <ctime>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/worksteal.h"

namespace xicc {
namespace bench {

/// Wall-clock milliseconds of one invocation of `fn`.
inline double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Best-of-`repeats` timing, for small fast operations.
inline double BestTimeMs(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    double t = TimeMs(fn);
    if (t < best) best = t;
  }
  return best;
}

inline void Header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

/// Machine-readable sidecar for a bench run: collects flat key/value rows
/// and writes them to BENCH_<name>.json in the working directory, so the
/// ablation tables in EXPERIMENTS.md can be regenerated without scraping
/// the human-oriented stdout tables. A top-level "provenance" object says
/// where the numbers came from: hardware threads, build type, compiler,
/// the git revision the build was configured at, and a UTC timestamp.
///
///   JsonReport report("unary_consistency");
///   report.AddRow("catalog").Set("sections", n).Set("time_ms", ms);
///   ...
///   report.Write();  // or rely on the destructor
class JsonReport {
 public:
  class Row {
   public:
    Row& Set(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, Quote(value));
      return *this;
    }
    Row& Set(const std::string& key, const char* value) {
      return Set(key, std::string(value));
    }
    Row& Set(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& Set(const std::string& key, size_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Row& Set(const std::string& key, int value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Row& Set(const std::string& key, bool value) {
      fields_.emplace_back(key, value ? "true" : "false");
      return *this;
    }

   private:
    friend class JsonReport;
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      out.push_back('"');
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() {
    if (!written_) Write();
  }

  /// Starts a new row tagged with `section`; the returned reference stays
  /// valid for the lifetime of the report.
  Row& AddRow(const std::string& section) {
    rows_.emplace_back();
    rows_.back().fields_.emplace_back("section", Row::Quote(section));
    return rows_.back();
  }

  void Write() {
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"provenance\": %s,\n", Provenance().c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {");
      const auto& fields = rows_[i].fields_;
      for (size_t j = 0; j < fields.size(); ++j) {
        std::fprintf(f, "%s\"%s\": %s", j == 0 ? "" : ", ",
                     fields[j].first.c_str(), fields[j].second.c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\n[json] wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  /// XICC_BENCH_GIT_SHA, _BUILD_TYPE and _COMPILER are defined for every
  /// bench by bench/CMakeLists.txt when it is configured.
  static std::string Provenance() {
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc) != nullptr) {
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    return "{\"hardware_threads\": " + std::to_string(HardwareConcurrency()) +
           ", \"build_type\": " + Row::Quote(XICC_BENCH_BUILD_TYPE) +
           ", \"compiler\": " + Row::Quote(XICC_BENCH_COMPILER) +
           ", \"git_sha\": " + Row::Quote(XICC_BENCH_GIT_SHA) +
           ", \"timestamp\": " + Row::Quote(stamp) + "}";
  }

  std::string name_;
  std::deque<Row> rows_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace xicc

#endif  // XICC_BENCH_BENCH_UTIL_H_
