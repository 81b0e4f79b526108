#pragma once

// Lightweight per-stage wall-clock attribution for the batch pipeline.
//
// The batch scaling bench showed flat speedup curves with every layer of
// parallel machinery (worksteal pool, sharded memo, per-thread solver scratch) in
// place — and no way to tell WHERE the serialized time was going. This is
// the instrument that makes batch time attributable: a fixed taxonomy of
// pipeline stages (session setup, memo key rendering, memo lookup/store
// lock time, solve, witness) and a tally that any session or worker can
// accumulate into with two steady_clock reads per stage.
//
// Timing only, never verdicts: nothing here may influence a consistency
// answer. Tallies are single-owner (one per session / per worker) and
// merged after the parallel section — no locks, no atomics, no sharing on
// the hot path.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace xicc {

/// The stages of answering one batch query, in pipeline order. Every
/// millisecond of a batch run should be attributable to one of these (plus
/// the solver's own ilp_wall_ms, which kSolve contains).
enum class Stage : size_t {
  /// Constructing a worker SpecSession: copying the skeleton LinearSystem
  /// and the factorized tableau out of the shared CompiledDtd. This is the
  /// per-stripe setup cost that chunked scheduling exists to amortize.
  kSessionSetup = 0,
  /// Rendering + sorting the canonical Σ memo key (CPU, no locks).
  kMemoKey,
  /// SharedSigmaMemo::Lookup — includes shard lock wait + hold, so memo
  /// read contention shows up here and nowhere else.
  kMemoLookup,
  /// SharedSigmaMemo::Store — shard lock wait + hold on the insert path.
  kMemoStore,
  /// The dispatch + solve of a non-memoized query (CheckUncached): grammar
  /// facts, Σ-delta trail solve or fresh fallback, witness build + verify.
  kSolve,
  /// Writing the finished result into the batch's result slot.
  kResultWrite,
  /// Loading a CompiledDtd artifact (header validation, section decode,
  /// mmap fix-ups, digest recompute) instead of compiling from scratch.
  kArtifactLoad,
  /// Serializing + persisting a freshly compiled CompiledDtd to the
  /// artifact cache (encode, checksum, atomic file write).
  kArtifactStore,
  kCount
};

/// Human-readable stage name ("session_setup", "memo_lookup", ...) for
/// stats lines and bench JSON field names.
const char* StageName(Stage stage);

/// Per-owner accumulator: milliseconds and entry counts per stage. Plain
/// data, merged single-threadedly after a parallel section.
struct StageTally {
  double ms[static_cast<size_t>(Stage::kCount)] = {};
  uint64_t count[static_cast<size_t>(Stage::kCount)] = {};

  void Add(Stage stage, double elapsed_ms) {
    ms[static_cast<size_t>(stage)] += elapsed_ms;
    count[static_cast<size_t>(stage)] += 1;
  }
  void Merge(const StageTally& other) {
    for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
      ms[i] += other.ms[i];
      count[i] += other.count[i];
    }
  }
  double MsFor(Stage stage) const { return ms[static_cast<size_t>(stage)]; }
  uint64_t CountFor(Stage stage) const {
    return count[static_cast<size_t>(stage)];
  }
};

/// RAII stage measurement: adds the scope's wall time to `tally` (and,
/// when `out_ms` is non-null, also accumulates into `*out_ms` — the hook
/// that fills per-query ConsistencyStats fields without a second clock
/// read). A null tally makes the timer a no-op so callers can keep one
/// code path whether attribution is wanted or not.
class StageTimer {
 public:
  StageTimer(StageTally* tally, Stage stage, double* out_ms = nullptr)
      : tally_(tally), out_ms_(out_ms), stage_(stage) {
    if (tally_ != nullptr || out_ms_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~StageTimer() {
    if (tally_ == nullptr && out_ms_ == nullptr) return;
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (tally_ != nullptr) tally_->Add(stage_, elapsed);
    if (out_ms_ != nullptr) *out_ms_ += elapsed;
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageTally* tally_;
  double* out_ms_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace xicc
