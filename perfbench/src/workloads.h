#pragma once

// The four workloads. Each returns a filled RunResult: end-to-end metrics
// for an untraced run, per-layer metrics for a traced one.

#include "harness.h"

namespace xbench {

RunResult RunAuthoringSession(const RunConfig& config);
RunResult RunGadgetOneshot(const RunConfig& config);
RunResult RunBatchBulk(const RunConfig& config);
RunResult RunFreshOneshot(const RunConfig& config);

}  // namespace xbench
