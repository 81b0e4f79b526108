#pragma once

// XICC_FAULTS: deterministic fault injection for robustness testing.
//
// Configure with -DXICC_FAULTS=ON and drive with the XICC_FAULTS=<seed>
// environment variable (or programmatically via faults::SetConfig in
// tests). Probe points sit on the paths a production deployment fears:
//
//   kNumPromote   forces the two-tier Num off its small fast path, so every
//                 op takes the promote/demote BigInt route (value-preserving
//                 by construction — the slow path recomputes exactly).
//   kSimplexPivot fires inside the simplex pivot loops: optionally cancels
//                 a registered CancelToken at the Nth pivot (exercising the
//                 real cancellation plumbing end to end, workers' wakeups
//                 included) and/or sleeps to simulate a slow pivot.
//   kBnbNode      same, at branch-and-bound node granularity.
//
// The seed-driven site (kNumPromote) fires periodically with a period
// derived from the seed and the site index, so ctest stays green under any
// seed — the fault stresses representation paths, never verdicts. The
// disruptive sites (injected cancel, slow pivot) fire only when explicitly
// configured, via SetConfig or the XICC_FAULT_CANCEL_AT_PIVOT /
// XICC_FAULT_CANCEL_AT_NODE / XICC_FAULT_SLOW_PIVOT_EVERY /
// XICC_FAULT_SLOW_PIVOT_MS variables.
//
// In a normal build every probe compiles to the constant `false` — zero
// cost, no atomics, no branches survive optimization.

#include <cstdint>

#if defined(XICC_FAULTS) && XICC_FAULTS
#define XICC_FAULTS_ENABLED 1
#else
#define XICC_FAULTS_ENABLED 0
#endif

namespace xicc {

class CancelToken;

namespace faults {

/// Site values index the probe tables and seed each site's period, so they
/// stay fixed: value 1 is unused.
enum class Site : int {
  kNumPromote = 0,
  kSimplexPivot = 2,
  kBnbNode = 3,
  /// Network-facing probes on the xiccd daemon's I/O paths. Firing one
  /// injects a TRANSIENT failure the server must absorb into a structured
  /// error or a clean connection teardown — never a hang, a leak, or UB.
  /// They fire only when net_fault_every is configured (SetConfig or
  /// XICC_FAULT_NET_EVERY), so the rest of the suite is unaffected by a
  /// bare XICC_FAULTS seed; the chaos soak derives its period from the
  /// seed itself.
  kNetAccept = 4,
  kNetRead = 5,
  kNetWrite = 6,
  kFrameDecode = 7,
  /// Forces WriteFileAtomic onto its failure path (simulated ENOSPC): the
  /// temp file must be cleaned up and a kUnavailable status returned.
  /// Fires only when file_write_error_every is configured.
  kFileWrite = 8,
};
inline constexpr int kSiteCount = 9;

#if XICC_FAULTS_ENABLED

struct FaultConfig {
  /// Drives the value-preserving sites; 0 disables them.
  uint64_t seed = 0;
  /// Cancel the registered token at the Nth kSimplexPivot probe (0: never).
  uint64_t cancel_at_pivot = 0;
  /// Cancel the registered token at the Nth kBnbNode probe (0: never).
  uint64_t cancel_at_node = 0;
  /// Sleep at every Nth kSimplexPivot probe (0: never)…
  uint64_t slow_pivot_every = 0;
  /// …for this long.
  int64_t slow_pivot_ms = 1;
  /// Fire each net site (kNetAccept/kNetRead/kNetWrite/kFrameDecode) at a
  /// site-dependent period derived from this value (0: never). Also
  /// settable via XICC_FAULT_NET_EVERY.
  uint64_t net_fault_every = 0;
  /// Fire kFileWrite every Nth probe (0: never). Also settable via
  /// XICC_FAULT_FILE_WRITE_EVERY.
  uint64_t file_write_error_every = 0;
};

/// Replaces the active configuration (first use otherwise reads the
/// environment) and zeroes the probe counters.
void SetConfig(const FaultConfig& config);
FaultConfig GetConfig();

/// Per-site probe hit counts since the last SetConfig/ResetCounters.
void ResetCounters();
uint64_t Hits(Site site);

/// Counts the probe and returns true when the site's value-preserving fault
/// fires; disruptive side effects (cancel, sleep) happen inside.
bool Probe(Site site);

/// The token the injected-cancel faults fire on; nullptr unregisters. The
/// token must stay alive until unregistered.
void RegisterCancelTarget(CancelToken* token);

#endif  // XICC_FAULTS_ENABLED

}  // namespace faults
}  // namespace xicc

#if XICC_FAULTS_ENABLED
#define XICC_FAULT_FIRES(site) \
  (::xicc::faults::Probe(::xicc::faults::Site::site))
#else
#define XICC_FAULT_FIRES(site) false
#endif

/// Statement form for pure probe points (counting / side effects only).
#define XICC_FAULT_PROBE(site)      \
  do {                              \
    if (XICC_FAULT_FIRES(site)) {   \
    }                               \
  } while (0)
