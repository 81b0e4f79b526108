#include "specs.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "base/worksteal.h"

#include "core/consistency.h"
#include "core/implication.h"
#include "core/spec_session.h"
#include "daemon.h"

namespace xbench {

using xicc::Constraint;
using xicc::ConstraintKind;
using xicc::ConstraintSet;
using xicc::Dtd;
using xicc::net::JsonValue;

namespace {

Schema MakeSchema(std::string name, Dtd dtd) {
  Schema schema;
  schema.name = std::move(name);
  schema.wire_text = WireDtdText(dtd);
  schema.pairs = dtd.AllAttributePairs();
  schema.dtd = std::move(dtd);
  return schema;
}

std::string AttrList(const std::vector<std::string>& attrs) {
  std::string out = "(";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += attrs[i];
  }
  return out + ")";
}

const std::pair<std::string, std::string>& PickPair(const Schema& schema,
                                                    Rng* rng) {
  return schema.pairs[rng->Uniform(0, schema.pairs.size() - 1)];
}

/// One fresh Σ-delta of `size` unary keys/FKs from SigmaDeltaBatch's
/// generator (⌊size/2⌋ + 1 keys, the rest foreign keys).
ConstraintSet Delta(const Schema& schema, size_t size, Rng* rng) {
  return xicc::workloads::SigmaDeltaBatch(schema.dtd, rng->Next(), 1, size,
                                          size, 0)[0];
}

size_t RecordParts() { return std::max<size_t>(1, xicc::HardwareConcurrency()); }

bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Computes a verdict record in a forked child process, on one thread per
/// CPU: the record's threads and memory never touch the measured process,
/// so its peak RSS stays the workload's. `prepare()` runs once in the
/// child; `compute(part, parts, out)` fills the bytes of the items of its
/// part (one byte per item, 1 = consistent / implied). Either returns ""
/// or an error, which ends the record.
bool RecordInChild(
    size_t items, const std::function<std::string()>& prepare,
    const std::function<std::string(size_t, size_t, std::vector<uint8_t>*)>&
        compute,
    std::vector<uint8_t>* verdicts, std::string* why) {
  int fds[2];
  if (pipe(fds) != 0) {
    *why = "record: pipe failed";
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *why = "record: fork failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    UnpinCpus();
    std::string error = prepare();
    std::vector<uint8_t> out(items, 0);
    if (error.empty()) {
      const size_t parts = RecordParts();
      std::vector<std::string> errors(parts);
      std::vector<std::thread> threads;
      for (size_t p = 0; p < parts; ++p) {
        threads.emplace_back(
            [&, p] { errors[p] = compute(p, parts, &out); });
      }
      for (std::thread& t : threads) t.join();
      for (const std::string& e : errors) {
        if (!e.empty() && error.empty()) error = e;
      }
    }
    const std::string message =
        error.empty() ? std::string(1, '\0') + std::string(out.begin(), out.end())
                      : std::string(1, '\1') + error;
    const bool sent = WriteAll(fds[1], message);
    close(fds[1]);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::string message;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    message.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (message.empty() || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *why = "record process ended without a record";
    return false;
  }
  if (message[0] != '\0') {
    *why = message.substr(1);
    return false;
  }
  if (message.size() != items + 1) {
    *why = "record process sent a short record";
    return false;
  }
  verdicts->assign(message.begin() + 1, message.end());
  return true;
}

}  // namespace

std::vector<Schema> MakeSchemas() {
  // An even grid over catalog 6–20 and every auction size 3–10. The grid
  // is the same for every seed: with sizes drawn per seed, the largest
  // catalog (19 or 20) decided the p99 of whole runs.
  std::vector<Schema> schemas;
  for (size_t n = 6; n <= 20; n += 2) {
    schemas.push_back(MakeSchema("catalog-" + std::to_string(n),
                                 xicc::workloads::CatalogDtd(n)));
  }
  for (size_t n = 3; n <= 10; ++n) {
    schemas.push_back(MakeSchema("auction-" + std::to_string(n),
                                 xicc::workloads::AuctionDtd(n)));
  }
  return schemas;
}

std::string WireDtdText(const Dtd& dtd) {
  return "<!DOCTYPE " + dtd.root() + " [\n" + dtd.ToString() + "]>\n";
}

std::string ConstraintText(const Constraint& c) {
  switch (c.kind) {
    case ConstraintKind::kKey:
      return "key " + c.type1 + AttrList(c.attrs1);
    case ConstraintKind::kNegKey:
      return "!key " + c.type1 + AttrList(c.attrs1);
    case ConstraintKind::kInclusion:
      return "inclusion " + c.type1 + AttrList(c.attrs1) + " <= " + c.type2 +
             AttrList(c.attrs2);
    case ConstraintKind::kNegInclusion:
      return "!inclusion " + c.type1 + AttrList(c.attrs1) + " <= " +
             c.type2 + AttrList(c.attrs2);
    case ConstraintKind::kForeignKey:
      return "fk " + c.type1 + AttrList(c.attrs1) + " => " + c.type2 +
             AttrList(c.attrs2);
  }
  return "";
}

std::string SigmaText(const ConstraintSet& sigma) {
  std::string out;
  for (const Constraint& c : sigma.constraints()) {
    out += ConstraintText(c);
    out += "\n";
  }
  return out;
}

// ---- authoring_session ------------------------------------------------------

std::vector<Script> MakeScripts(const std::vector<Schema>& schemas,
                                uint64_t seed, size_t count) {
  // The shape of every script is fixed — 24 checks, delta sizes cycling
  // 1, 2, 3 (only size 3 holds a foreign key), the repeat, commit, rollback
  // and implies positions, witness on every other script — so a seed
  // changes what the constraints say, never the mix of verbs, memo hits
  // and keys-only deltas. The median request sits where cheap requests
  // (memo hits, commits, keys-only checks) give way to solved checks; a
  // mix that moved with the seed moved the median by 2x between seeds.
  constexpr size_t kChecks = 24;
  Rng rng(Mix(seed) ^ 0xa07);
  std::vector<Script> scripts;
  scripts.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    Script script;
    script.schema = s % schemas.size();
    script.witness = (s / schemas.size() + s) % 2 == 0;
    const Schema& schema = schemas[script.schema];
    std::vector<ConstraintSet> epoch;  // Deltas since the last commit.
    for (size_t k = 1; k <= kChecks; ++k) {
      ScriptStep check;
      check.kind = ScriptStep::Kind::kCheck;
      // Every 5th check (k = 4, 9, ...) repeats a delta of the same commit
      // epoch: 20% repeats, each one a memo hit.
      check.sigma = k % 5 == 4 && !epoch.empty()
                        ? epoch[rng.Uniform(0, epoch.size() - 1)]
                        : Delta(schema, 1 + (k - 1) % 3, &rng);
      check.text = SigmaText(check.sigma);
      epoch.push_back(check.sigma);
      script.steps.push_back(check);
      if (k % 10 == 0) {
        ScriptStep rollback;
        rollback.kind = ScriptStep::Kind::kRollback;
        script.steps.push_back(std::move(rollback));
      }
      if (k % 5 == 0) {
        ScriptStep commit = check;
        commit.kind = ScriptStep::Kind::kCommit;
        script.steps.push_back(std::move(commit));
        epoch.clear();
      }
      if (k % 7 == 0) {
        // Alternate key and foreign-key goals: the refutation of a key goal
        // runs the negated-key cell, of an FK goal the inclusion cell.
        const auto& [t1, a1] = PickPair(schema, &rng);
        const auto& [t2, a2] = PickPair(schema, &rng);
        ScriptStep implies;
        implies.kind = ScriptStep::Kind::kImplies;
        implies.sigma.Add((k / 7) % 2 == 1
                              ? Constraint::Key(t1, {a1})
                              : Constraint::ForeignKey(t1, {a1}, t2, {a2}));
        implies.text = ConstraintText(implies.sigma.constraints()[0]);
        script.steps.push_back(std::move(implies));
      }
    }
    scripts.push_back(std::move(script));
  }
  return scripts;
}

bool RecordScripts(const std::vector<Schema>& schemas,
                   std::vector<Script>* scripts, std::string* why) {
  // One verdict byte per step, scripts laid out back to back.
  std::vector<size_t> offset;
  size_t steps = 0;
  for (const Script& script : *scripts) {
    offset.push_back(steps);
    steps += script.steps.size();
  }
  std::vector<std::shared_ptr<const xicc::CompiledDtd>> compiled;
  auto compute = [&](size_t part, size_t parts,
                     std::vector<uint8_t>* out) -> std::string {
    xicc::ConsistencyOptions fresh_options;
    fresh_options.build_witness = false;
    for (size_t s = part; s < scripts->size(); s += parts) {
      const Script& script = (*scripts)[s];
      const Schema& schema = schemas[script.schema];
      xicc::ConsistencyOptions session_options;
      session_options.build_witness = script.witness;
      xicc::SpecSession session(compiled[script.schema], session_options, 128);
      std::vector<ConstraintSet> layers;
      auto committed = [&layers] {
        ConstraintSet all;
        for (const ConstraintSet& layer : layers) {
          for (const Constraint& c : layer.constraints()) all.Add(c);
        }
        return all;
      };
      for (size_t i = 0; i < script.steps.size(); ++i) {
        const ScriptStep& step = script.steps[i];
        bool via_session = false;
        bool via_fresh = false;
        std::string error;
        switch (step.kind) {
          case ScriptStep::Kind::kCheck: {
            auto a = session.Check(step.sigma);
            ConstraintSet all = committed();
            for (const Constraint& c : step.sigma.constraints()) all.Add(c);
            auto b = xicc::CheckConsistency(schema.dtd, all, fresh_options);
            if (!a.ok() || !b.ok()) {
              return schema.name + ": record check failed: " +
                     (a.ok() ? b.status() : a.status()).ToString();
            }
            via_session = a->consistent;
            via_fresh = b->consistent;
            break;
          }
          case ScriptStep::Kind::kCommit: {
            const xicc::Status status = session.Commit(step.sigma);
            if (!status.ok()) {
              return schema.name + ": record commit failed: " +
                     status.ToString();
            }
            layers.push_back(step.sigma);
            continue;
          }
          case ScriptStep::Kind::kRollback:
            session.Rollback();
            if (!layers.empty()) layers.pop_back();
            continue;
          case ScriptStep::Kind::kImplies: {
            const Constraint& phi = step.sigma.constraints()[0];
            auto a = session.Implies(phi);
            auto b = xicc::CheckImplication(schema.dtd, committed(), phi,
                                            fresh_options);
            if (!a.ok() || !b.ok()) {
              return schema.name + ": record implies failed: " +
                     (a.ok() ? b.status() : a.status()).ToString();
            }
            via_session = a->implied;
            via_fresh = b->implied;
            break;
          }
        }
        if (via_session != via_fresh) {
          return schema.name + ": session and fresh disagree on " + step.text;
        }
        (*out)[offset[s] + i] = via_fresh ? 1 : 0;
      }
    }
    return "";
  };
  auto prepare = [&]() -> std::string {
    for (const Schema& schema : schemas) {
      auto c = xicc::CompileDtd(schema.dtd);
      if (!c.ok()) return schema.name + ": " + c.status().ToString();
      compiled.push_back(std::move(*c));
    }
    return "";
  };
  std::vector<uint8_t> verdicts;
  if (!RecordInChild(steps, prepare, compute, &verdicts, why)) return false;
  for (size_t s = 0; s < scripts->size(); ++s) {
    Script& script = (*scripts)[s];
    for (size_t i = 0; i < script.steps.size(); ++i) {
      script.steps[i].expect = verdicts[offset[s] + i] != 0;
    }
  }
  return true;
}

// ---- gadget_oneshot ---------------------------------------------------------

Gadget MakeGadget(uint64_t seed, uint64_t k) {
  Rng rng(Mix(seed) ^ Mix(k + 0x6ad6e7));
  Gadget gadget;
  const size_t rows = rng.Uniform(3, 5);
  const size_t cols = rng.Uniform(4, 8);
  const xicc::workloads::BinaryLipInstance instance =
      xicc::workloads::RandomLip(rng.Next(), rows, cols, 2);
  const xicc::workloads::LipEncoding encoding =
      xicc::workloads::EncodeLipAsConsistency(instance);
  gadget.dtd_text = WireDtdText(encoding.dtd);
  gadget.sigma_text = SigmaText(encoding.sigma);
  gadget.expect = xicc::workloads::LipHasBinarySolution(instance);
  return gadget;
}

// ---- batch_bulk / fresh_oneshot ---------------------------------------------

std::vector<Spec> MakeBatchPool(const std::vector<Schema>& schemas,
                                uint64_t seed, size_t per_schema) {
  std::vector<Spec> pool;
  for (size_t s = 0; s < schemas.size(); ++s) {
    const std::vector<ConstraintSet> items = xicc::workloads::SigmaDeltaBatch(
        schemas[s].dtd, Mix(seed) ^ Mix(s + 0xba7c), per_schema, 1, 3, 0);
    for (const ConstraintSet& sigma : items) {
      Spec spec;
      spec.schema = s;
      spec.sigma = sigma;
      spec.sigma_text = SigmaText(sigma);
      pool.push_back(std::move(spec));
    }
  }
  return pool;
}

std::vector<Spec> MakeFreshPool(const std::vector<Schema>& schemas,
                                uint64_t seed, size_t count) {
  static const char* const kCells[] = {"keys_only", "unary", "neg_key",
                                       "neg_ic"};
  static const xicc::ConstraintClass kClasses[] = {
      xicc::ConstraintClass::kKeysOnly, xicc::ConstraintClass::kUnaryKeyFk,
      xicc::ConstraintClass::kUnaryWithNegKey,
      xicc::ConstraintClass::kUnaryWithNegIc};
  Rng rng(Mix(seed) ^ 0xf7e5);
  std::vector<Spec> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Spec spec;
    spec.schema = i % schemas.size();
    const size_t cell = (i / schemas.size()) % 4;
    spec.cell = kCells[cell];
    const Schema& schema = schemas[spec.schema];
    if (cell == 0) {
      const size_t keys = rng.Uniform(1, 4);
      for (size_t k = 0; k < keys; ++k) {
        const auto& [type, attr] = PickPair(schema, &rng);
        spec.sigma.Add(Constraint::Key(type, {attr}));
      }
    } else {
      // 3-5 constraints: SigmaDeltaBatch makes ⌊size/2⌋ + 1 of them keys,
      // so every base holds a foreign key and the spec is in its cell.
      spec.sigma = xicc::workloads::SigmaDeltaBatch(schema.dtd, rng.Next(),
                                                    1, 3, 5, 0)[0];
      const auto& [t1, a1] = PickPair(schema, &rng);
      const auto& [t2, a2] = PickPair(schema, &rng);
      if (cell == 2) spec.sigma.Add(Constraint::NegKey(t1, {a1}));
      if (cell == 3) {
        spec.sigma.Add(Constraint::NegInclusion(t1, {a1}, t2, {a2}));
      }
    }
    // Spans and fresh.check_ms.* are named by the cell, so a spec outside
    // its cell would measure another decision procedure under its name.
    if (spec.sigma.Classify() != kClasses[cell]) {
      std::fprintf(stderr, "fresh spec %zu is not in cell %s\n", i,
                   spec.cell);
      std::abort();
    }
    spec.sigma_text = SigmaText(spec.sigma);
    pool.push_back(std::move(spec));
  }
  return pool;
}

JsonValue OneShotCheck(int64_t id, const std::string& dtd_text,
                       const std::string& sigma_text) {
  JsonValue v = JsonValue::Object();
  v.Set("verb", JsonValue::Str("check"))
      .Set("id", JsonValue::Int(id))
      .Set("dtd", JsonValue::Str(dtd_text))
      .Set("sigma", JsonValue::Str(sigma_text))
      .Set("timeout_ms", JsonValue::Int(kRequestTimeoutMs));
  return v;
}

bool RecordSpecs(const std::vector<Schema>& schemas, bool with_fresh,
                 std::vector<Spec>* specs, std::string* why) {
  std::vector<std::shared_ptr<const xicc::CompiledDtd>> compiled;
  LocalDaemon daemon;
  auto prepare = [&]() -> std::string {
    for (const Schema& schema : schemas) {
      auto c = xicc::CompileDtd(schema.dtd);
      if (!c.ok()) return schema.name + ": " + c.status().ToString();
      compiled.push_back(std::move(*c));
    }
    const xicc::Status started = daemon.Start(RecordParts());
    if (!started.ok()) return "record daemon: " + started.ToString();
    return "";
  };
  auto compute = [&](size_t part, size_t parts,
                     std::vector<uint8_t>* out) -> std::string {
    xicc::ConsistencyOptions options;
    options.build_witness = false;
    std::vector<std::unique_ptr<xicc::SpecSession>> sessions;
    for (const auto& c : compiled) {
      sessions.push_back(std::make_unique<xicc::SpecSession>(c, options, 0));
    }
    auto client = daemon.NewClient();
    if (!client.ok()) return "record client: " + client.status().ToString();
    int64_t id = 0;
    for (size_t i = part; i < specs->size(); i += parts) {
      const Spec& spec = (*specs)[i];
      const Schema& schema = schemas[spec.schema];
      std::vector<std::pair<const char*, bool>> verdicts;
      if (with_fresh) {
        auto r = xicc::CheckConsistency(schema.dtd, spec.sigma, options);
        if (!r.ok()) {
          return schema.name + ": fresh record failed: " +
                 r.status().ToString();
        }
        verdicts.emplace_back("fresh", r->consistent);
      }
      {
        auto r = sessions[spec.schema]->Check(spec.sigma);
        if (!r.ok()) {
          return schema.name + ": session record failed: " +
                 r.status().ToString();
        }
        verdicts.emplace_back("session", r->consistent);
      }
      {
        auto r = (*client)->Call(
            OneShotCheck(++id, schema.wire_text, spec.sigma_text));
        if (!r.ok() || !r->GetBool("ok", false)) {
          return schema.name + ": daemon record failed: " +
                 (r.ok() ? r->Dump() : r.status().ToString());
        }
        verdicts.emplace_back("daemon", r->GetBool("consistent", false));
      }
      for (const auto& [path, verdict] : verdicts) {
        if (verdict != verdicts[0].second) {
          return schema.name + ": " + path + " and " + verdicts[0].first +
                 " disagree on " + spec.sigma_text;
        }
      }
      (*out)[i] = verdicts[0].second ? 1 : 0;
    }
    return "";
  };
  std::vector<uint8_t> verdicts;
  if (!RecordInChild(specs->size(), prepare, compute, &verdicts, why)) {
    return false;
  }
  for (size_t i = 0; i < specs->size(); ++i) {
    (*specs)[i].expect = verdicts[i] != 0;
  }
  return true;
}

}  // namespace xbench
