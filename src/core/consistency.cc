#include "core/consistency.h"

#include "core/verdict.h"

namespace xicc {

void ConsistencyStats::Add(const ConsistencyStats& other) {
  SolveCounters::Add(other);
  sigma_delta_checks += other.sigma_delta_checks;
  memo_hits += other.memo_hits;
  memo_misses += other.memo_misses;
}

Result<ConsistencyResult> CheckConsistency(const Dtd& dtd,
                                           const ConstraintSet& sigma,
                                           const ConsistencyOptions& options) {
  // An already-expired deadline (or pre-fired cancel) exits before any
  // compilation work; the partial report is honestly all-zero.
  XICC_RETURN_IF_ERROR(CheckNotStopped(options));
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(dtd));
  FreshPath path(dtd);
  return DecideConsistency(path, sigma, options);
}

}  // namespace xicc
