#include "base/faults.h"

#if XICC_FAULTS_ENABLED

#include <atomic>
#include <cstdlib>

#include "base/deadline.h"

namespace xicc {
namespace faults {

namespace {

/// splitmix64 — a fixed, seed-stable mixer so a given XICC_FAULTS seed
/// always produces the same firing pattern on every platform.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t EnvU64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  return std::strtoull(value, nullptr, 10);
}

struct State {
  std::atomic<uint64_t> hits[kSiteCount];
  /// Firing period per site; 0 = the site's value fault never fires.
  std::atomic<uint64_t> period[kSiteCount];
  std::atomic<uint64_t> seed{0};
  std::atomic<uint64_t> cancel_at_pivot{0};
  std::atomic<uint64_t> cancel_at_node{0};
  std::atomic<uint64_t> slow_pivot_every{0};
  std::atomic<int64_t> slow_pivot_ms{1};
  std::atomic<uint64_t> net_fault_every{0};
  std::atomic<uint64_t> file_write_error_every{0};
  std::atomic<CancelToken*> cancel_target{nullptr};

  State() {
    FaultConfig config;
    config.seed = EnvU64("XICC_FAULTS");
    config.cancel_at_pivot = EnvU64("XICC_FAULT_CANCEL_AT_PIVOT");
    config.cancel_at_node = EnvU64("XICC_FAULT_CANCEL_AT_NODE");
    config.slow_pivot_every = EnvU64("XICC_FAULT_SLOW_PIVOT_EVERY");
    const uint64_t ms = EnvU64("XICC_FAULT_SLOW_PIVOT_MS");
    if (ms != 0) config.slow_pivot_ms = static_cast<int64_t>(ms);
    config.net_fault_every = EnvU64("XICC_FAULT_NET_EVERY");
    config.file_write_error_every = EnvU64("XICC_FAULT_FILE_WRITE_EVERY");
    Install(config);
  }

  void Install(const FaultConfig& config) {
    seed.store(config.seed, std::memory_order_relaxed);
    cancel_at_pivot.store(config.cancel_at_pivot, std::memory_order_relaxed);
    cancel_at_node.store(config.cancel_at_node, std::memory_order_relaxed);
    slow_pivot_every.store(config.slow_pivot_every,
                           std::memory_order_relaxed);
    slow_pivot_ms.store(config.slow_pivot_ms, std::memory_order_relaxed);
    net_fault_every.store(config.net_fault_every, std::memory_order_relaxed);
    file_write_error_every.store(config.file_write_error_every,
                                 std::memory_order_relaxed);
    for (int s = 0; s < kSiteCount; ++s) {
      hits[s].store(0, std::memory_order_relaxed);
      const bool value_site = s == static_cast<int>(Site::kNumPromote);
      const bool net_site = s >= static_cast<int>(Site::kNetAccept) &&
                            s <= static_cast<int>(Site::kFrameDecode);
      uint64_t p = 0;
      if (value_site && config.seed != 0) {
        p = 2 + Mix(config.seed ^ (static_cast<uint64_t>(s) *
                                   0xd1342543de82ef95ull)) %
                    127;
      } else if (net_site && config.net_fault_every != 0) {
        // Stagger the four net sites so one configured period does not fire
        // every probe class in lockstep; the offset keeps each site's
        // effective period within [every, every + 16].
        p = config.net_fault_every +
            Mix(config.net_fault_every ^
                (static_cast<uint64_t>(s) * 0x9e3779b97f4a7c15ull)) %
                17;
      } else if (s == static_cast<int>(Site::kFileWrite)) {
        p = config.file_write_error_every;
      }
      period[s].store(p, std::memory_order_relaxed);
    }
  }
};

State& S() {
  static State state;
  return state;
}

}  // namespace

void SetConfig(const FaultConfig& config) { S().Install(config); }

FaultConfig GetConfig() {
  State& s = S();
  FaultConfig config;
  config.seed = s.seed.load(std::memory_order_relaxed);
  config.cancel_at_pivot = s.cancel_at_pivot.load(std::memory_order_relaxed);
  config.cancel_at_node = s.cancel_at_node.load(std::memory_order_relaxed);
  config.slow_pivot_every =
      s.slow_pivot_every.load(std::memory_order_relaxed);
  config.slow_pivot_ms = s.slow_pivot_ms.load(std::memory_order_relaxed);
  config.net_fault_every = s.net_fault_every.load(std::memory_order_relaxed);
  config.file_write_error_every =
      s.file_write_error_every.load(std::memory_order_relaxed);
  return config;
}

void ResetCounters() {
  for (int s = 0; s < kSiteCount; ++s) {
    S().hits[s].store(0, std::memory_order_relaxed);
  }
}

uint64_t Hits(Site site) {
  return S().hits[static_cast<int>(site)].load(std::memory_order_relaxed);
}

void RegisterCancelTarget(CancelToken* token) {
  S().cancel_target.store(token, std::memory_order_release);
}

bool Probe(Site site) {
  State& s = S();
  const uint64_t count =
      1 + s.hits[static_cast<int>(site)].fetch_add(
              1, std::memory_order_relaxed);
  switch (site) {
    case Site::kNumPromote:
    case Site::kNetAccept:
    case Site::kNetRead:
    case Site::kNetWrite:
    case Site::kFrameDecode:
    case Site::kFileWrite: {
      const uint64_t p =
          s.period[static_cast<int>(site)].load(std::memory_order_relaxed);
      return p != 0 && count % p == 0;
    }
    case Site::kSimplexPivot: {
      const uint64_t at = s.cancel_at_pivot.load(std::memory_order_relaxed);
      if (at != 0 && count == at) {
        CancelToken* target =
            s.cancel_target.load(std::memory_order_acquire);
        if (target != nullptr) target->Cancel();
      }
      const uint64_t every =
          s.slow_pivot_every.load(std::memory_order_relaxed);
      if (every != 0 && count % every == 0) {
        const bool cancelled = SleepFor(
            s.slow_pivot_ms.load(std::memory_order_relaxed), nullptr);
        (void)cancelled;  // xicc-lint: allow(void-discard)
      }
      return false;
    }
    case Site::kBnbNode: {
      const uint64_t at = s.cancel_at_node.load(std::memory_order_relaxed);
      if (at != 0 && count == at) {
        CancelToken* target =
            s.cancel_target.load(std::memory_order_acquire);
        if (target != nullptr) target->Cancel();
      }
      return false;
    }
  }
  return false;
}

}  // namespace faults
}  // namespace xicc

#endif  // XICC_FAULTS_ENABLED
