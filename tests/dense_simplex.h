#pragma once

#include "base/deadline.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"

namespace xicc {

/// The pre-sparse reference solver: dense row-major tableau, always-Bland
/// pricing, all-Num arithmetic — byte-for-byte the algorithm the sparse
/// kernel replaced. Kept as the differential-fuzz oracle and the dense
/// baseline the benches time the sparse kernel against; production callers
/// use SolveLpFeasibility.
LpResult SolveLpFeasibilityDenseBland(const LinearSystem& system,
                                      LpTableau* tableau = nullptr,
                                      const StopSignal* stop = nullptr);

}  // namespace xicc
