// Shapes of a Status or Result call statement, for the StatusFlowTest.*
// compile checks in tests/CMakeLists.txt. Each check compiles this file with
// the build's own warning options and one SHAPE_* macro defined. Status and
// Result are class-level [[nodiscard]] and the build makes -Wunused-result
// an error, so the three shapes that drop a value must fail to compile and
// the two that do not must compile cleanly. This file is never linked.

#include "base/status.h"

namespace xicc {

Status Commit(int n);
void Log(int n);

struct Session {
  Result<int> Check(int n);
};

#if defined(SHAPE_BARE_CALL)
void Run(int n) {
  Commit(n);
}
#elif defined(SHAPE_MEMBER_CALL)
void Run(Session* session, int n) {
  session->Check(n);
}
#elif defined(SHAPE_IF_BODY)
void Run(bool go, int n) {
  if (go) Commit(n);
}
#elif defined(SHAPE_CONSUMED)
Status Run(Session* session, int n) {
  Status st = Commit(n);
  if (!st.ok()) return st;
  if (Commit(n + 1).ok()) return Status::Ok();
  XICC_RETURN_IF_ERROR(Commit(n + 2));
  XICC_ASSIGN_OR_RETURN(int checked, session->Check(n + 3));
  return Commit(checked);
}
#elif defined(SHAPE_NON_STATUS)
void Run(int n) {
  Log(n);
}
#else
#error "define one SHAPE_* macro"
#endif

}  // namespace xicc
