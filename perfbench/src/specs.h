#pragma once

// Seeded inputs of the four workloads and the expected-verdict record they
// are checked against.
//
// Sizes cover their ranges evenly and the same way for every seed: a median
// then never sits between two equal clusters, and a seed changes what the
// constraints say, not how much work a run holds.

#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "dtd/dtd.h"
#include "harness.h"
#include "net/json.h"
#include "workloads/generators.h"

namespace xbench {

/// Seed of the set-up warm-up inputs: the same for every run, so set-up
/// does equal work whatever the run's seed.
constexpr uint64_t kWarmUpSeed = 0x77a3;

/// Every daemon request carries this budget: far above the slowest observed
/// latency (≈100 ms), so a hang becomes a counted failure, not a stall.
constexpr int64_t kRequestTimeoutMs = 10'000;

/// One catalog or auction schema of a run.
struct Schema {
  std::string name;
  xicc::Dtd dtd;
  /// The DTD as the wire carries it: `<!DOCTYPE root [...]>`.
  std::string wire_text;
  std::vector<std::pair<std::string, std::string>> pairs;
};

/// The 16 schemas of every run: catalog 6, 8, ..., 20 and auction 3–10.
/// Sixteen is the daemon's artifact memory tier, so after the warm-up pass
/// every session `open` is a memory hit.
std::vector<Schema> MakeSchemas();

/// `<!DOCTYPE root [decls]>`. Dtd::ToString() alone emits declarations in
/// declaration order with no DOCTYPE, and ParseDtd then takes the first
/// declared element as the root — for CatalogDtd/AuctionDtd that is not the
/// root, and the text is rejected.
std::string WireDtdText(const xicc::Dtd& dtd);

/// Renders constraints in the grammar ParseConstraints accepts.
std::string SigmaText(const xicc::ConstraintSet& sigma);
std::string ConstraintText(const xicc::Constraint& c);

// ---- authoring_session ------------------------------------------------------

struct ScriptStep {
  enum class Kind { kCheck, kCommit, kImplies, kRollback };
  Kind kind = Kind::kCheck;
  /// check / commit: the Σ-delta; implies: φ as its one constraint.
  xicc::ConstraintSet sigma;
  std::string text;  // the wire rendering of `sigma` (or of φ)
  /// Expected verdict (consistent / implied) from the record; check and
  /// implies only.
  bool expect = false;
};

struct Script {
  size_t schema = 0;
  bool witness = false;
  std::vector<ScriptStep> steps;
};

/// `count` seeded scripts, schemas in a balanced cycle, witness on every
/// other script. Each script: 24 checks of 1–3 unary keys/FKs (every 5th a
/// repeat of its commit epoch); every 10th delta rolls back the last
/// commit, every 5th is committed, every 7th is followed by an `implies`.
std::vector<Script> MakeScripts(const std::vector<Schema>& schemas,
                                uint64_t seed, size_t count);

// ---- gadget_oneshot ---------------------------------------------------------

/// One Theorem 4.7 gadget: EncodeLipAsConsistency(RandomLip(rows 3–5,
/// cols 4–8, 2 ones per row)) with its brute-force oracle verdict.
struct Gadget {
  std::string dtd_text;
  std::string sigma_text;
  bool expect = false;
};

/// The k-th gadget of a seed. Every index gives a distinct instance.
Gadget MakeGadget(uint64_t seed, uint64_t k);

// ---- batch_bulk / fresh_oneshot ---------------------------------------------

/// One recorded consistency question over a schema.
struct Spec {
  size_t schema = 0;
  /// Figure 5 cell label: keys_only, unary, neg_key, neg_ic.
  const char* cell = "unary";
  xicc::ConstraintSet sigma;
  std::string sigma_text;
  bool expect = false;
};

/// Per schema, `per_schema` Σ-deltas of 1–3 unary keys/FKs (the CheckBatch
/// item pool; batches sample it with 25% in-batch repeats).
std::vector<Spec> MakeBatchPool(const std::vector<Schema>& schemas,
                                uint64_t seed, size_t per_schema);

/// `count` specs cycling schema × cell (keys_only, unary, neg_key, neg_ic)
/// so every seed holds each cell of every schema equally often.
std::vector<Spec> MakeFreshPool(const std::vector<Schema>& schemas,
                                uint64_t seed, size_t count);

// ---- The expected-verdict record -------------------------------------------

/// The record is computed once per run, before the timed phase, in a forked
/// child process with one thread per CPU, so neither its time nor its
/// memory is counted as the workload's. Both functions return false (with
/// `*why`) when a path fails or the paths disagree.

/// Fills `expect` for every check and implies step of every script by
/// replaying the script through an in-process SpecSession and through fresh
/// CheckConsistency / CheckImplication on the committed set.
bool RecordScripts(const std::vector<Schema>& schemas,
                   std::vector<Script>* scripts, std::string* why);

/// Fills `expect` for every spec from an in-process SpecSession, a one-shot
/// check through xiccd, and — unless the timed loop is that path itself —
/// fresh CheckConsistency.
bool RecordSpecs(const std::vector<Schema>& schemas, bool with_fresh,
                 std::vector<Spec>* specs, std::string* why);

/// A one-shot wire check request.
xicc::net::JsonValue OneShotCheck(int64_t id, const std::string& dtd_text,
                                  const std::string& sigma_text);

}  // namespace xbench
