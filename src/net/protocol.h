#pragma once

// The xiccd wire protocol: request envelopes, verbs, and the Status →
// wire-error mapping.
//
// Transport: one JSON object per newline-terminated line, both directions.
// Every request line yields exactly one response line carrying the same
// "id" member (echoed verbatim; null if the request had none). A response
// is either a result ({"ok":true, ...}) or an error:
//
//   {"id":..., "error":"<wire class>", "code":"<status code name>",
//    "message":"...", ["retry_after_ms":N], ["partial":{...}]}
//
// The wire classes form the closed set the chaos soak asserts over — every
// request, however mangled, times out, or cancelled, ends in exactly one of:
//
//   result | INVALID_ARGUMENT | DEADLINE_EXCEEDED | CANCELLED | UNAVAILABLE
//
// (INTERNAL exists as the escape hatch for bugs; the soak asserts it never
// appears.) UNAVAILABLE responses carry retry_after_ms — the admission
// controller's backpressure hint, which the client library honors.
// DEADLINE_EXCEEDED responses from check/implies carry "partial": the
// ConsistencyStats of the stopped search (nodes, pivots, depth), because a
// timed-out check that explored 40k nodes is operationally very different
// from one that never got scheduled.
//
// Verbs:
//   ping                                          → {"ok":true}
//   open     dtd [memo] [witness]                 → {"ok":true,"session":N}
//   check    (session | dtd) sigma [timeout_ms] [min_witness_nodes]
//            [witness]
//            → {"ok":true,"consistent":b,"class","method",
//               ["witness_nodes":N],"stats":{}}
//   implies  (session | dtd+sigma) phi [timeout_ms] [witness]
//            → {"ok":true,"implied":b,"method",
//               ["counterexample_nodes":N],"stats":{}}
//   commit   session sigma                        → {"ok":true}
//   rollback session                              → {"ok":true}
//   close    session                              → {"ok":true}
//   batch    dtd sigmas[] [timeout_ms item_timeout_ms threads]
//   stats                                         → {"ok":true,"stats":{}}
//   shutdown                                      → {"ok":true} + drain
//
// witness_nodes / counterexample_nodes give the size of the checked
// witness document (consistent) or counterexample (not implied) the query
// built. A session builds them when opened with "witness": true, a one-shot
// check or implies when it carries "witness": true.

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "net/json.h"

namespace xicc {
namespace net {

enum class Verb {
  kPing,
  kOpen,
  kCheck,
  kImplies,
  kCommit,
  kRollback,
  kClose,
  kBatch,
  kStats,
  kShutdown,
};

const char* VerbName(Verb v);

/// One parsed, type-checked request envelope. Field presence is validated
/// per verb by ParseRequest; sizes/limits are validated by the server (it
/// owns the configured caps).
struct Request {
  Verb verb = Verb::kPing;
  /// Echoed verbatim into the response ("id" member); null when absent.
  JsonValue id;
  uint64_t session = 0;
  bool has_session = false;
  std::string dtd;
  bool has_dtd = false;
  std::string sigma;
  bool has_sigma = false;
  std::string phi;
  std::vector<std::string> sigmas;  // batch only
  int64_t timeout_ms = 0;           // 0 = no deadline
  int64_t item_timeout_ms = 0;      // batch per-item deadline
  size_t threads = 0;               // batch workers (0 = server default)
  size_t memo = 0;                  // open: session memo capacity
  size_t min_witness_nodes = 0;
  bool build_witness = false;
};

/// Envelope → Request. kInvalidArgument on unknown verb, missing required
/// member, or wrong member type — with a message naming the offender. Never
/// inspects DTD/constraint *content*; that is the dispatcher's job.
Result<Request> ParseRequest(const JsonValue& envelope);

/// The closed wire-error vocabulary. kOk maps to nullptr (not an error).
/// Everything retryable (kUnavailable, kResourceExhausted) → "UNAVAILABLE";
/// everything caller-fixable (kInvalidArgument, kParseError,
/// kUndecidableClass) → "INVALID_ARGUMENT"; kDeadline /
/// kCancelled map to themselves; the rest → "INTERNAL".
const char* WireErrorClass(StatusCode code);

/// Builds the error response for `status`, echoing `id`. retry_after_ms > 0
/// attaches the backpressure hint (meaningful only for UNAVAILABLE).
JsonValue MakeErrorResponse(const JsonValue& id, const Status& status,
                            int64_t retry_after_ms = 0);

/// Starts a result response: {"id":..., "ok":true}.
JsonValue MakeOkResponse(const JsonValue& id);

}  // namespace net
}  // namespace xicc
