#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/stage_timer.h"
#include "base/thread_annotations.h"
#include "core/consistency.h"
#include "core/implication.h"
#include "core/witness.h"
#include "dtd/compiled.h"
#include "ilp/simplex.h"

namespace xicc {

struct SolvedPsi;

/// Everything about a DTD that consistency and implication queries reuse,
/// compiled once and shared read-only — the systems realization of
/// Corollary 4.11's fixed-DTD regime ("one often defines the DTD of a
/// specification at one time, but writes constraints in stages"). All
/// members are immutable after CompileDtd returns; a single instance may be
/// shared by any number of sessions and threads.
struct CompiledDtd {
  /// Owning copy of the source DTD (regex ASTs are shared RegexPtr nodes,
  /// so pointer-keyed tables below stay valid for this copy).
  Dtd dtd;
  /// Section 3 grammar facts: productive/reachable sets, emptiness,
  /// Lemma 3.6 multiplicities.
  DtdFacts facts;
  /// Frozen Glushkov DFAs, one per content model (thread-safe matching).
  CompiledContentModels content_models;
  /// Knuth shortest-derivation table for minimal-witness construction.
  MinimalTreePlan minimal_plan;
  /// The Σ-independent skeleton of Ψ(D,Σ): simplified DTD, ext and
  /// occurrence variables with their production/root/sum rows, unproductive
  /// pins, and — unlike a fresh per-query encoding — ext(τ.l) variables with
  /// their ext(τ.l) ≤ ext(τ) bound rows for EVERY declared attribute pair.
  /// Pre-creating all pairs means a query only ever appends ROWS, never
  /// variables, which is exactly the precondition for dual-simplex warm
  /// starts from the skeleton basis. (Unmentioned pairs are sound: their
  /// variables are constrained only by 0 ≤ ext(τ.l) ≤ ext(τ), so any
  /// solution of the mentioned-pairs-only system extends to one here and
  /// vice versa by projection — verdicts are identical.)
  CardinalityEncoding skeleton;
  /// The skeleton LP's optimal basis, factorized cold exactly once at
  /// compile time. Valid for warm re-solves of any skeleton + C_Σ system
  /// because the skeleton rows form a prefix of every session system.
  LpTableau skeleton_tableau;
  bool skeleton_tableau_valid = false;
  /// Wall time CompileDtd spent in this process, for the compile-vs-query
  /// ablation. A bundle loaded from an artifact file reports 0: the file
  /// keeps the compiling process's time, but loading compiled nothing.
  double compile_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)
  /// Content digest stamped by CompileDtd (core/audit.h); XICC_AUDIT builds
  /// re-check it before and after every session query to machine-check the
  /// artifact's immutability-under-sharing contract. 0 = not yet stamped.
  uint64_t audit_digest = 0;
};

/// Compiles `dtd` into the shared artifact bundle. Fails only if the DTD
/// cannot be simplified (SimplifyDtd) — an empty-language DTD still compiles
/// (facts.has_valid_tree = false answers every query immediately).
Result<std::shared_ptr<const CompiledDtd>> CompileDtd(const Dtd& dtd);

/// Session-cumulative counters, aggregated across every query answered.
struct SpecSessionStats {
  size_t queries = 0;
  /// Queries answered by pushing only C_Σ rows (and, for negated
  /// inclusions, the region variables and rows) onto the compiled
  /// skeleton's trail (one PushCheckpoint / append / solve / PopCheckpoint
  /// round).
  size_t sigma_delta_checks = 0;
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  size_t memo_evictions = 0;
};

/// Thread-safe memo of canonicalized-Σ keys → consistency results,
/// hash-sharded so concurrent sessions (CheckBatch worker chunks) share
/// cached verdicts without contending on one lock. The hot hit path is
/// read-mostly by construction: entries hold their payload behind a
/// `shared_ptr<const ConsistencyResult>`, so a Lookup's critical section is
/// a hash find + an O(1) stamp write + a refcount bump — the payload copy
/// (method string, stats, possibly a whole witness tree) happens OUTSIDE
/// the shard lock. Recency is a per-entry stamp from a shard-local clock
/// (second-chance/CLOCK flavor) instead of an LRU list: no splice, no list
/// node churn, and eviction pays an O(shard-entries) min-stamp scan only on
/// the rare insert-at-capacity path. Capacity is split evenly across
/// shards; hit/miss/store/eviction counters are exact (atomic, never
/// sampled) so concurrency tests can assert accounting to the last lookup.
class SharedSigmaMemo {
 public:
  /// Exact cross-shard totals. hits + misses equals the number of Lookup /
  /// LookupShared calls against a capacity > 0 memo; a capacity-0 memo
  /// bypasses shards, hashing, and counters entirely.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t duplicate_stores = 0;
    uint64_t evictions = 0;
  };

  /// `capacity` = total entries across shards (0 = memoization off);
  /// `num_shards` is clamped to [1, capacity].
  explicit SharedSigmaMemo(size_t capacity, size_t num_shards = 16);

  size_t capacity() const { return capacity_; }

  /// The read-mostly hit path: returns the cached payload (shared,
  /// immutable) or null on miss. The shard lock covers O(1) work only.
  std::shared_ptr<const ConsistencyResult> LookupShared(
      const std::string& key);

  /// Copies the cached result into `*out`; false on miss. The copy is made
  /// outside every lock (convenience wrapper over LookupShared).
  bool Lookup(const std::string& key, ConsistencyResult* out);

  /// Inserts (first writer wins — a duplicate store is a no-op, the results
  /// are identical by determinism). The payload copy is made before the
  /// shard lock is taken. Returns the number of entries evicted (0 or 1)
  /// so callers can tally evictions.
  size_t Store(const std::string& key, const ConsistencyResult& result);

  /// Sums the per-shard counters. Exact at quiescence (no in-flight
  /// Lookup/Store), which is when tests and stats reporters read it.
  Stats TotalStats() const;

 private:
  struct MemoEntry {
    std::shared_ptr<const ConsistencyResult> result;
    /// Shard-clock value of the last touch; the insert-at-capacity scan
    /// evicts the minimum (approximate LRU without list maintenance).
    uint64_t stamp = 0;
  };
  /// Padded to a cache line: adjacent shards' mutexes must not false-share.
  struct alignas(64) MemoShard {
    Mutex mu;  // xicc-analyze: lock-leaf
    std::unordered_map<std::string, MemoEntry> entries XICC_GUARDED_BY(mu);
    uint64_t clock XICC_GUARDED_BY(mu) = 0;
    /// Exact accounting, bumped outside the lock (atomics lose nothing).
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> stores{0};
    std::atomic<uint64_t> duplicate_stores{0};
    std::atomic<uint64_t> evictions{0};
  };

  MemoShard& ShardFor(const std::string& key);

  size_t capacity_;
  size_t num_shards_;
  size_t per_shard_capacity_;
  /// Heap array (not vector): MemoShard is neither movable nor copyable.
  std::unique_ptr<MemoShard[]> shards_;
};

/// A consistency-checking session against one compiled DTD.
///
/// The session owns ONE mutable copy of the skeleton system; each Check
/// pushes a checkpoint, appends the query's C_Σ rows (Lemma 4.4: keys
/// ext(τ.l) = ext(τ), inclusions ext(τ1.l1) ≤ ext(τ2.l2), negated keys
/// ext(τ.l) ≤ ext(τ) − 1), solves in place warm-started from the compiled
/// skeleton basis, and pops — Θ(|Σ|) incremental work where a fresh check
/// rebuilds and refactorizes the full Ψ(D,Σ).
///
/// Verdicts are identical to CheckConsistency on the same (D, Σ); witness
/// *bytes* may differ (a different LP vertex realizes a different tree), but
/// session witnesses are verified the same way (re-validated against the DTD
/// and re-evaluated on Σ) before being returned.
///
/// Committed constraints (Commit/Rollback) become part of every later
/// query — the incremental-authoring workflow: commit the accepted set,
/// Check each candidate as a one-constraint delta.
///
/// Not thread-safe: one session per thread. Sessions sharing a CompiledDtd
/// are cheap (one LinearSystem + one tableau copy, no solving).
class SpecSession {
 public:
  /// Private memo of `memo_capacity` entries (0 = memoization off, and the
  /// session skips canonical-key hashing entirely).
  explicit SpecSession(std::shared_ptr<const CompiledDtd> compiled,
                       const ConsistencyOptions& options = {},
                       size_t memo_capacity = 128);

  /// Shares `memo` with other sessions (CheckBatch worker stripes): repeated
  /// queries hit regardless of which session answered first. A null memo
  /// disables memoization, same as capacity 0.
  SpecSession(std::shared_ptr<const CompiledDtd> compiled,
              const ConsistencyOptions& options,
              std::shared_ptr<SharedSigmaMemo> memo);

  const CompiledDtd& compiled() const { return *compiled_; }
  const ConsistencyOptions& options() const { return options_; }

  /// Arms (or replaces) the stop signal every later query runs under — the
  /// per-item deadline hook CheckBatch uses between items. Pass a default
  /// StopSignal to disarm.
  void SetStop(const StopSignal& stop) { options_.stop = stop; }

  /// Statistics of the most recent query that ended WITHOUT a verdict
  /// (kDeadlineExceeded / kCancelled / kResourceExhausted): how many nodes,
  /// pivots, and search levels the stopped check got through. Meaningful
  /// only immediately after a failed Check/Implies.
  const ConsistencyStats& LastPartialStats() const { return last_partial_; }

  /// Session-cumulative per-stage wall-time attribution: setup (skeleton +
  /// tableau copy), memo key rendering, memo lookup/store lock time, solve.
  /// CheckBatch merges worker sessions' tallies into its BatchRunStats; the
  /// non-const overload lets the batch front-end charge its own stages
  /// (result writes) to the session doing the work.
  const StageTally& stage_tally() const { return stage_tally_; }
  StageTally& stage_tally() { return stage_tally_; }

  /// Consistency of committed() ∪ `sigma` over the compiled DTD. Same
  /// dispatch as CheckConsistency (Figure 5), with the NP cells answered by
  /// the Σ-delta path and the linear cells by the precomputed facts.
  Result<ConsistencyResult> Check(const ConstraintSet& sigma);

  /// (D, committed()) ⊢ φ, same dispatch as CheckImplication; the
  /// refutation path reuses Check (and therefore the skeleton + memo).
  Result<ImplicationResult> Implies(const Constraint& phi);

  /// Makes `sigma` part of every later query, as one layer. Does NOT check
  /// consistency — pair with Check first when that matters.
  ///
  /// Committing is what makes the authoring loop Σ-delta rather than
  /// Σ-rebuild: the layer's C_Σ rows are appended to the session system
  /// permanently (under a commit checkpoint), so every later Check pushes
  /// only its own delta's rows onto the trail; the committed rows ride the
  /// solver's dual re-solve from the skeleton basis.
  Status Commit(const ConstraintSet& sigma);
  /// Drops the most recent Commit layer (no-op with nothing committed).
  void Rollback();
  const ConstraintSet& committed() const { return committed_; }

  const SpecSessionStats& stats() const { return stats_; }

 private:
  /// The session's facts and Σ-delta solver, as the shared verdict path
  /// (core/verdict.h) consumes them; defined in spec_session.cc.
  class Path;

  /// The Σ-delta solve of Ψ(D, `encoded`): pushes `encoded`'s C_Σ rows
  /// (committed ones are already below) and the min-size row onto the
  /// session system, solves warm from the skeleton basis, pops. With
  /// `regions` non-null it is the Section 5 system Ψ'(D, `encoded`): the
  /// region variables and rows are pushed too and their layout is kept in
  /// `*regions`. The solution's variables are the skeleton's, then the
  /// regions'.
  Result<SolvedPsi> SolveDelta(
      const ConstraintSet& encoded, const EncodingSolveOptions& solve,
      const ConsistencyOptions& options, ConsistencyStats* stats,
      std::optional<SetRepresentationRegions>* regions);

  /// Ψ_D plus ext(`type`) ≥ 2 for the Lemma 3.7 counterexample: one row
  /// pushed onto the session system, solved warm from the skeleton basis,
  /// popped.
  Result<SolvedPsi> SolveWithTwo(const std::string& type,
                                 const EncodingSolveOptions& solve);

  /// Appends the one C_Σ row of a normalized unary key / negated key /
  /// inclusion to the session system (Lemma 4.4 shapes). The caller decides
  /// which checkpoint the row lives under.
  void AppendConstraintRow(const Constraint& c);

  std::shared_ptr<const CompiledDtd> compiled_;
  ConsistencyOptions options_;
  /// Session working system: the skeleton rows, with per-query C_Σ rows
  /// living and dying above trail checkpoints.
  LinearSystem system_;
  /// The compiled skeleton basis wrapped for the solver; valid = true, so
  /// the search reuses it read-only and never overwrites it. Its tableau
  /// pool keeps the search's node buffers across queries.
  CaseSplitWarmContext warm_;
  ConstraintSet committed_;
  std::vector<size_t> commit_layers_;  // Size of committed_ before each layer.
  /// Normalized committed constraints whose C_Σ rows sit permanently in
  /// system_ (rendered via ToString); Σ-delta solves skip re-pushing these.
  std::set<std::string> encoded_committed_;

  /// Null when memoization is off — Check then skips computing the
  /// canonical key altogether (rendering + sorting the combined set costs
  /// real time on large Σ, so capacity 0 must not pay for hashing it).
  std::shared_ptr<SharedSigmaMemo> memo_;

  SpecSessionStats stats_;
  /// Per-stage wall-time tally (see stage_tally()). Single-owner: the
  /// session is not thread-safe, so neither is its tally.
  StageTally stage_tally_;
  /// Sink for no-verdict statistics (see LastPartialStats); options_'s
  /// partial_stats pointer is re-aimed here at construction, where the
  /// shared verdict path writes it.
  ConsistencyStats last_partial_;
  bool charged_compile_ = false;  // compile_ms reported on the first query.
};

}  // namespace xicc
