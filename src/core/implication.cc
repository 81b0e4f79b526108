#include "core/implication.h"

#include "core/verdict.h"

namespace xicc {

Result<ImplicationResult> CheckImplication(const Dtd& dtd,
                                           const ConstraintSet& sigma,
                                           const Constraint& phi,
                                           const ConsistencyOptions& options) {
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(dtd));
  FreshPath path(dtd);
  return DecideImplication(path, sigma, phi, options);
}

}  // namespace xicc
