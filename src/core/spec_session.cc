#include "core/spec_session.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <utility>

#include "base/debug.h"
#include "core/audit.h"
#include "core/encoding_solver.h"
#include "core/verdict.h"
#include "ilp/audit.h"

namespace xicc {

namespace {

// Timing only, never a verdict. xicc-lint: allow(exact-arithmetic)
double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Canonical cache key: the normalized constraints rendered and sorted, so
/// permutations and foreign-key spellings of the same Σ share an entry.
std::string CanonicalKey(const ConstraintSet& combined) {
  ConstraintSet normalized = combined.Normalize();
  std::vector<std::string> lines;
  lines.reserve(normalized.size());
  for (const Constraint& c : normalized.constraints()) {
    lines.push_back(c.ToString());
  }
  std::sort(lines.begin(), lines.end());
  std::string key;
  for (const std::string& line : lines) {
    key += line;
    key += '\n';
  }
  return key;
}

/// Whether a normalized constraint has a C_Σ row on the skeleton (unary
/// keys, negated keys and inclusions; see AppendConstraintRow).
bool HasSkeletonRow(const Constraint& c) {
  return c.IsUnary() && (c.kind == ConstraintKind::kKey ||
                         c.kind == ConstraintKind::kNegKey ||
                         c.kind == ConstraintKind::kInclusion);
}

}  // namespace

Result<std::shared_ptr<const CompiledDtd>> CompileDtd(const Dtd& dtd) {
  const auto start = std::chrono::steady_clock::now();

  DtdFacts facts = ComputeDtdFacts(dtd);
  CompiledContentModels models = CompiledContentModels::Build(dtd);
  // The Σ-independent skeleton: the builder over the empty constraint set
  // with every declared attribute pair forced produces exactly the
  // production/root/sum/pin rows, the ext(τ.l) variables, and their bound
  // rows — no C_Σ content.
  XICC_ASSIGN_OR_RETURN(
      CardinalityEncoding skeleton,
      BuildCardinalityEncoding(dtd, ConstraintSet(), dtd.AllAttributePairs()));

  auto out = std::make_shared<CompiledDtd>(CompiledDtd{
      dtd, std::move(facts), std::move(models), MinimalTreePlan(dtd),
      std::move(skeleton), LpTableau{}, /*skeleton_tableau_valid=*/false,
      /*compile_ms=*/0.0});

  // Factorize the skeleton LP once; its basis warm-seeds every query of
  // every session. Infeasibility (an empty-language DTD: ext(r) = 1 clashes
  // with an unproductive root pin) just means queries run cold — and the
  // linear-cell fast paths answer them without an LP anyway.
  LpResult lp = SolveLpFeasibility(out->skeleton.system, &out->skeleton_tableau);
  out->skeleton_tableau_valid = lp.feasible;
  out->compile_ms = ElapsedMs(start);
  out->audit_digest = CompiledDtdDigest(*out);
  return std::shared_ptr<const CompiledDtd>(std::move(out));
}

SharedSigmaMemo::SharedSigmaMemo(size_t capacity, size_t num_shards)
    : capacity_(capacity),
      num_shards_(capacity == 0
                      ? 1
                      : (num_shards == 0
                             ? 1
                             : (num_shards > capacity ? capacity
                                                      : num_shards))),
      per_shard_capacity_(
          capacity == 0 ? 0 : (capacity + num_shards_ - 1) / num_shards_),
      shards_(new MemoShard[num_shards_]) {}

SharedSigmaMemo::MemoShard& SharedSigmaMemo::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % num_shards_];
}

std::shared_ptr<const ConsistencyResult> SharedSigmaMemo::LookupShared(
    const std::string& key) {
  // The capacity-0 bypass: no hashing, no shard touch, no counters — a
  // memo-off batch must not pay for the machinery it turned off.
  if (capacity_ == 0) return nullptr;
  MemoShard& shard = ShardFor(key);
  std::shared_ptr<const ConsistencyResult> found;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      // O(1) recency touch — no LRU list to splice under the lock.
      it->second.stamp = ++shard.clock;
      found = it->second.result;
    }
  }
  if (found != nullptr) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
  }
  return found;
}

bool SharedSigmaMemo::Lookup(const std::string& key, ConsistencyResult* out) {
  std::shared_ptr<const ConsistencyResult> found = LookupShared(key);
  if (found == nullptr) return false;
  *out = *found;  // Payload copy outside every lock.
  return true;
}

size_t SharedSigmaMemo::Store(const std::string& key,
                              const ConsistencyResult& result) {
  if (capacity_ == 0) return 0;
  // The payload copy (stats, strings, possibly a witness tree) happens
  // before the lock; a racing duplicate store wastes one copy, which is the
  // right trade against serializing every reader behind a big memcpy.
  auto value = std::make_shared<const ConsistencyResult>(result);
  MemoShard& shard = ShardFor(key);
  size_t evicted = 0;
  bool inserted = false;
  {
    MutexLock lock(&shard.mu);
    auto [it, fresh] = shard.entries.try_emplace(key);
    inserted = fresh;
    if (fresh) {
      it->second.result = std::move(value);
      it->second.stamp = ++shard.clock;
      if (shard.entries.size() > per_shard_capacity_) {
        // Evict the stalest entry (min stamp). O(shard entries), but only
        // on the insert-at-capacity path — hits never pay for it.
        auto victim = shard.entries.end();
        for (auto e = shard.entries.begin(); e != shard.entries.end(); ++e) {
          if (e == it) continue;
          if (victim == shard.entries.end() ||
              e->second.stamp < victim->second.stamp) {
            victim = e;
          }
        }
        if (victim != shard.entries.end()) {
          shard.entries.erase(victim);
          evicted = 1;
        }
      }
    }
  }
  if (inserted) {
    shard.stores.fetch_add(1, std::memory_order_relaxed);
    if (evicted != 0) shard.evictions.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.duplicate_stores.fetch_add(1, std::memory_order_relaxed);
  }
  return evicted;
}

SharedSigmaMemo::Stats SharedSigmaMemo::TotalStats() const {
  Stats total;
  for (size_t i = 0; i < num_shards_; ++i) {
    const MemoShard& shard = shards_[i];
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.stores += shard.stores.load(std::memory_order_relaxed);
    total.duplicate_stores +=
        shard.duplicate_stores.load(std::memory_order_relaxed);
    total.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  return total;
}

SpecSession::SpecSession(std::shared_ptr<const CompiledDtd> compiled,
                         const ConsistencyOptions& options,
                         size_t memo_capacity)
    : SpecSession(std::move(compiled), options,
                  memo_capacity == 0
                      ? nullptr
                      : std::make_shared<SharedSigmaMemo>(memo_capacity,
                                                          /*num_shards=*/1)) {}

SpecSession::SpecSession(std::shared_ptr<const CompiledDtd> compiled,
                         const ConsistencyOptions& options,
                         std::shared_ptr<SharedSigmaMemo> memo)
    : compiled_(std::move(compiled)),
      options_(options),
      memo_(std::move(memo)) {
  // The skeleton system + tableau copies are the per-session setup cost the
  // batch scheduler amortizes over chunks; time them so a batch run can
  // attribute setup vs. solve (Stage::kSessionSetup in the tally).
  StageTimer timer(&stage_tally_, Stage::kSessionSetup);
  system_ = compiled_->skeleton.system;
  warm_.base_tableau = compiled_->skeleton_tableau;
  warm_.valid = compiled_->skeleton_tableau_valid;
  // Every no-verdict exit — Σ-delta or fresh fallback — reports its partial
  // work into the session's own sink, exposed via LastPartialStats().
  options_.partial_stats = &last_partial_;
}

/// The session's side of the one verdict path (core/verdict.h): facts from
/// the compiled DTD, and every Ψ solve as rows pushed onto the compiled
/// skeleton and re-solved warm from its basis. The cardinality cells push
/// their C_Σ rows; the Section 5 region system pushes them and its z_θ
/// variables and u/v rows, which the warm re-solve takes as new columns;
/// the Lemma 3.7 counterexample pushes ext(τ) ≥ 2. Nothing is rebuilt from
/// the DTD.
class SpecSession::Path final : public FreshPath {
 public:
  explicit Path(SpecSession* session)
      : FreshPath(session->compiled_->dtd), session_(*session) {}

  const CompiledContentModels* content_models() const override {
    return &session_.compiled_->content_models;
  }
  bool HasValidTree() const override {
    return session_.compiled_->facts.has_valid_tree;
  }
  bool CanHaveTwo(const std::string& type) const override {
    const auto& multiplicity = session_.compiled_->facts.multiplicity;
    auto it = multiplicity.find(type);
    return it != multiplicity.end() && it->second == Multiplicity::kAtLeastTwo;
  }
  Result<XmlTree> MinimalTree() const override {
    return session_.compiled_->minimal_plan.Build(dtd());
  }

  Result<SolvedPsi> SolveCardinality(const ConstraintSet& encoded,
                                     const EncodingSolveOptions& solve,
                                     const ConsistencyOptions& options,
                                     ConsistencyStats* stats) override {
    return session_.SolveDelta(encoded, solve, options, stats,
                               /*regions=*/nullptr);
  }
  Result<SolvedPsi> SolveRegions(const ConstraintSet& encoded,
                                 const EncodingSolveOptions& solve,
                                 const ConsistencyOptions& options,
                                 ConsistencyStats* stats) override {
    return session_.SolveDelta(encoded, solve, options, stats, &regions_);
  }
  Result<SolvedPsi> SolveWithTwo(const std::string& type,
                                 const EncodingSolveOptions& solve) override {
    return session_.SolveWithTwo(type, solve);
  }

  /// Answered by the session's own Check of the one-constraint delta, so the
  /// refutation rides the skeleton and the memo (`sigma` is committed()).
  Result<ConsistencyResult> Refute(const ConstraintSet& /*sigma*/,
                                   const Constraint& negated,
                                   const ConsistencyOptions& /*options*/)
      override {
    ConstraintSet delta;
    delta.Add(negated);
    return session_.Check(delta);
  }

 private:
  SpecSession& session_;
  /// The region layer this path's query pushed; a returned SolvedPsi points
  /// into it.
  std::optional<SetRepresentationRegions> regions_;
};

Result<SolvedPsi> SpecSession::SolveDelta(
    const ConstraintSet& encoded, const EncodingSolveOptions& solve,
    const ConsistencyOptions& options, ConsistencyStats* stats,
    std::optional<SetRepresentationRegions>* regions) {
  if (regions == nullptr) XICC_RETURN_IF_ERROR(CheckEncodable(encoded));
  const CardinalityEncoding& sk = compiled_->skeleton;

  // Everything below the checkpoint is this query's: the region variables
  // and rows, the C_Σ rows, the min-size row, and whatever the in-place
  // solver pushes. Audit builds check the trail and the warm basis at this
  // boundary — the exact precondition of the Σ-delta warm re-solve.
  XICC_DCHECK_AUDIT(AuditTrail(system_));
  if (warm_.valid) {
    XICC_DCHECK_AUDIT(AuditTableau(system_, warm_.base_tableau));
  }
  TrailScope scope(&system_);
  if (regions != nullptr) {
    // The region builder validates `encoded` before it appends anything.
    XICC_ASSIGN_OR_RETURN(*regions,
                          AppendRegionSystem(sk, encoded,
                                             options.set_representation,
                                             &system_));
  }
  ++stats_.sigma_delta_checks;
  stats->sigma_delta_checks = 1;

  // Committed constraints' rows are already materialized below every
  // checkpoint (see Commit); only the true delta rides the trail.
  for (const Constraint& c : encoded.constraints()) {
    if (encoded_committed_.count(c.ToString()) > 0) continue;
    AppendConstraintRow(c);
  }
  AddMinimumSizeRow(sk, options.min_witness_nodes, &system_);

  // Conditionals only for the mentioned pairs (negated inclusions' endpoints
  // included), exactly as the fresh encoding carries them; unmentioned
  // pairs stay slack (0 ≤ y ≤ x).
  std::vector<Conditional> conditionals;
  for (const auto& pair : MentionedPairs(encoded)) {
    conditionals.push_back({LinearExpr::Var(sk.ext_var.at(pair.first)),
                            LinearExpr::Var(sk.attr_var.at(pair))});
  }
  stats->system_variables = system_.NumVariables();
  stats->system_constraints = system_.NumConstraints() + conditionals.size();

  // A stopped or exhausted solve unwinds the trail via `scope` exactly as a
  // verdict does.
  Result<IlpSolution> solved =
      SolveEncodingSystemInPlace(sk, &system_, conditionals, solve, &warm_);
  XICC_DCHECK_AUDIT(AuditTrail(system_));
  if (warm_.valid) {
    XICC_DCHECK_AUDIT(AuditTableau(system_, warm_.base_tableau));
  }
  if (!solved.ok()) return solved.status();
  return SolvedPsi{std::move(*solved), &sk,
                   regions == nullptr ? nullptr : &**regions};
}

Result<SolvedPsi> SpecSession::SolveWithTwo(const std::string& type,
                                            const EncodingSolveOptions& solve) {
  // Only a keys-only Σ asks for this. Its committed rows ext(τ.l) = ext(τ)
  // fix attribute variables no other row constrains, so every solution of
  // Ψ_D extends to the session system. No pair is mentioned, so no
  // conditionals.
  const CardinalityEncoding& sk = compiled_->skeleton;
  TrailScope scope(&system_);
  system_.AddConstraint(LinearExpr::Var(sk.ext_var.at(type)), RelOp::kGe,
                        BigInt(2));
  XICC_ASSIGN_OR_RETURN(
      IlpSolution solution,
      SolveEncodingSystemInPlace(sk, &system_, /*conditionals=*/{}, solve,
                                 &warm_));
  return SolvedPsi{std::move(solution), &sk, /*regions=*/nullptr};
}

Result<ConsistencyResult> SpecSession::Check(const ConstraintSet& sigma) {
  XICC_RETURN_IF_ERROR(CheckNotStopped(options_));
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(compiled_->dtd));
  ConstraintSet combined = committed_;
  for (const Constraint& c : sigma.constraints()) combined.Add(c);
  ++stats_.queries;

  // With memoization off the canonical key is never needed — rendering and
  // sorting the combined set is measurable on large Σ, so skip it outright.
  double memo_key_ms = 0.0;     // xicc-lint: allow(exact-arithmetic)
  double memo_lookup_ms = 0.0;  // xicc-lint: allow(exact-arithmetic)
  std::string key;
  if (memo_ != nullptr) {
    {
      StageTimer timer(&stage_tally_, Stage::kMemoKey, &memo_key_ms);
      key = CanonicalKey(combined);
    }
    std::shared_ptr<const ConsistencyResult> cached;
    {
      // Lock wait + hold + refcount bump; the payload copy below is
      // deliberately OUTSIDE this timer so memo_lookup_ms is lock time,
      // not memcpy time.
      StageTimer timer(&stage_tally_, Stage::kMemoLookup, &memo_lookup_ms);
      cached = memo_->LookupShared(key);
    }
    if (cached != nullptr) {
      ++stats_.memo_hits;
      // The cached verdict, but not the cached cost: this query ran no
      // solve, so its stats are the lookup's alone.
      ConsistencyResult hit = *cached;
      hit.stats = ConsistencyStats{};
      hit.stats.memo_hits = 1;
      hit.stats.memo_key_ms = memo_key_ms;
      hit.stats.memo_lookup_ms = memo_lookup_ms;
      return hit;
    }
  }
  ++stats_.memo_misses;

  XICC_DCHECK_AUDIT(AuditCompiledDtd(*compiled_));
  Result<ConsistencyResult> result = [&] {
    StageTimer timer(&stage_tally_, Stage::kSolve);
    Path path(this);
    return DecideConsistency(path, combined, options_);
  }();
  // The query must leave the shared artifact untouched and the session trail
  // balanced (every push the solve made was popped).
  XICC_DCHECK_AUDIT(AuditCompiledDtd(*compiled_));
  XICC_DCHECK_AUDIT(AuditTrail(system_));
  if (result.ok()) {
    result->stats.memo_misses = 1;
    result->stats.memo_key_ms = memo_key_ms;
    result->stats.memo_lookup_ms = memo_lookup_ms;
    if (!charged_compile_) {
      result->stats.compile_ms = compiled_->compile_ms;
      result->stats.session_setup_ms = stage_tally_.MsFor(Stage::kSessionSetup);
      charged_compile_ = true;
    }
    if (memo_ != nullptr) {
      StageTimer timer(&stage_tally_, Stage::kMemoStore,
                       &result->stats.memo_store_ms);
      stats_.memo_evictions += memo_->Store(key, *result);
    }
  }
  return result;
}

Result<ImplicationResult> SpecSession::Implies(const Constraint& phi) {
  Path path(this);
  return DecideImplication(path, committed_, phi, options_);
}

void SpecSession::AppendConstraintRow(const Constraint& c) {
  const CardinalityEncoding& sk = compiled_->skeleton;
  VarId y1 = sk.attr_var.at({c.type1, c.attrs1[0]});
  VarId x1 = sk.ext_var.at(c.type1);
  switch (c.kind) {
    case ConstraintKind::kKey:
      system_.AddEq(LinearExpr::Var(y1), LinearExpr::Var(x1));
      break;
    case ConstraintKind::kNegKey: {
      LinearExpr rhs;
      rhs.Add(x1, BigInt(1));
      rhs.AddConstant(BigInt(-1));
      system_.AddLe(LinearExpr::Var(y1), rhs);
      break;
    }
    case ConstraintKind::kInclusion: {
      VarId y2 = sk.attr_var.at({c.type2, c.attrs2[0]});
      system_.AddLe(LinearExpr::Var(y1), LinearExpr::Var(y2));
      break;
    }
    default:
      break;
  }
}

Status SpecSession::Commit(const ConstraintSet& sigma) {
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(compiled_->dtd));
  commit_layers_.push_back(committed_.size());
  for (const Constraint& c : sigma.constraints()) committed_.Add(c);

  // Materialize the layer's encodable C_Σ rows below every later Check
  // checkpoint, so Checks re-push only their delta. The commit checkpoint
  // pairs with Rollback's pop. Constraints without a skeleton row stay out:
  // a multi-attribute key needs no row (Theorem 3.5's keys-only cell), a
  // query with any other multi-attribute constraint is rejected, and
  // negated inclusions live in the region rows each query pushes anew.
  system_.PushCheckpoint();
  ConstraintSet layer = sigma.Normalize();
  for (const Constraint& c : layer.constraints()) {
    if (!HasSkeletonRow(c)) continue;
    std::string rendered = c.ToString();
    if (encoded_committed_.count(rendered) > 0) continue;
    AppendConstraintRow(c);
    encoded_committed_.insert(std::move(rendered));
  }

  // The warm basis deliberately stays on the skeleton prefix: committed
  // rows are priced out by each query's dual re-solve, which measures as
  // ~free next to the alternative of extending the basis at commit time
  // (an extension pays real dual pivots per commit and saves none later —
  // the query's own re-solve repairs feasibility over the same rows either
  // way).
  return Status::Ok();
}

void SpecSession::Rollback() {
  if (commit_layers_.empty()) return;
  system_.PopCheckpoint();
  size_t keep = commit_layers_.back();
  commit_layers_.pop_back();
  const auto& all = committed_.constraints();
  committed_ = ConstraintSet(
      std::vector<Constraint>(all.begin(), all.begin() + keep));

  // Rows of surviving layers are still on the trail; rebuild the index from
  // what remains. The extended warm basis may cover popped rows, so fall
  // back to the skeleton prefix (the next Commit re-extends over everything
  // current).
  encoded_committed_.clear();
  ConstraintSet remaining = committed_.Normalize();
  for (const Constraint& c : remaining.constraints()) {
    if (HasSkeletonRow(c)) encoded_committed_.insert(c.ToString());
  }
  warm_.base_tableau = compiled_->skeleton_tableau;
  warm_.valid = compiled_->skeleton_tableau_valid;
}

}  // namespace xicc
