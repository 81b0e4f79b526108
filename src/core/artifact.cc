#include "core/artifact.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/num.h"
#include "base/serde.h"
#include "core/audit.h"
#include "core/cardinality_encoding.h"
#include "core/witness.h"
#include "dtd/compiled.h"
#include "dtd/glushkov.h"
#include "dtd/regex.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"

namespace xicc {

namespace {

constexpr char kMagic[serde::kMagicSize] = {'X', 'I', 'C', 'C',
                                            'A', 'R', 'T', '1'};

// Section tags. Append-only: reusing a retired tag for different content
// requires a kArtifactFormatVersion bump anyway.
enum : uint32_t {
  kSecDtd = 1,
  kSecFacts = 2,
  kSecDfas = 3,
  kSecPlan = 4,
  kSecSkeleton = 5,
  kSecTableau = 6,
  kSecMeta = 7,
};

// Flat little-endian records (see base/serde.h on why host layout is safe).
struct RawNum {
  int64_t n;
  int64_t d;  // 0 escapes to the big-value side table.
};
struct RawColumn {
  int32_t kind;
  int32_t index;
  int32_t sub_sign;
  int32_t reserved;
};

// Far above anything a real compile produces; bounds hostile counts before
// any allocation sized from them.
constexpr uint64_t kMaxDim = uint64_t{1} << 24;

// ---------------------------------------------------------------------------
// Num

void WriteNum(serde::Writer& w, const Num& value) {
  int64_t n = 0;
  int64_t d = 0;
  if (value.SmallWords(&n, &d)) {
    w.I64(n);
    w.I64(d);
    return;
  }
  w.I64(0);
  w.I64(0);  // d == 0: big tier, rendered exactly as a decimal string.
  w.Str(value.ToString());
}

Result<Num> ParseNumString(const std::string& text) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos) {
    XICC_ASSIGN_OR_RETURN(BigInt n, BigInt::FromString(text));
    return Num(std::move(n));
  }
  XICC_ASSIGN_OR_RETURN(BigInt n, BigInt::FromString(text.substr(0, slash)));
  XICC_ASSIGN_OR_RETURN(BigInt d, BigInt::FromString(text.substr(slash + 1)));
  return Num(std::move(n), std::move(d));
}

Result<Num> ReadNum(serde::Cursor& cursor) {
  const int64_t n = cursor.I64();
  const int64_t d = cursor.I64();
  if (!cursor.status().ok()) return cursor.status();
  if (d == 0) {
    const std::string text = cursor.Str();
    if (!cursor.status().ok()) return cursor.status();
    return ParseNumString(text);
  }
  if (d < 0 || n == INT64_MIN) {
    return Status::InvalidArgument("artifact Num words are not canonical");
  }
  return Num::FromCanonicalWords(n, d);
}

// Flat Num arrays: the common (small-tier) values go into one contiguous
// RawNum block read back without parsing; the rare big-tier values escape
// into an (index, string) side list.
struct NumArrayEnc {
  std::vector<RawNum> raw;
  std::vector<std::pair<uint64_t, std::string>> escapes;

  void Append(const Num& value) {
    int64_t n = 0;
    int64_t d = 0;
    if (value.SmallWords(&n, &d)) {
      raw.push_back(RawNum{n, d});
    } else {
      escapes.emplace_back(raw.size(), value.ToString());
      raw.push_back(RawNum{0, 0});
    }
  }
};

void WriteNumArray(serde::Writer& w, const NumArrayEnc& enc) {
  w.FlatArray(enc.raw.data(), enc.raw.size());
  w.U32(static_cast<uint32_t>(enc.escapes.size()));
  for (const auto& [index, text] : enc.escapes) {
    w.U64(index);
    w.Str(text);
  }
}

// The flat block plus its decoded escape side list; `raw` points into the
// cursor's buffer and is valid as long as the underlying bytes are.
struct NumFlatView {
  const RawNum* raw = nullptr;
  size_t count = 0;
  std::map<uint64_t, Num> escapes;
};

Result<NumFlatView> ReadNumFlat(serde::Cursor& cursor,
                                int64_t expected_count) {
  NumFlatView view;
  view.raw = cursor.FlatArray<RawNum>(&view.count, expected_count);
  const uint32_t escape_count = cursor.U32();
  if (!cursor.status().ok()) return cursor.status();
  for (uint32_t i = 0; i < escape_count; ++i) {
    const uint64_t index = cursor.U64();
    const std::string text = cursor.Str();
    if (!cursor.status().ok()) return cursor.status();
    if (index >= view.count) {
      return Status::InvalidArgument("artifact Num escape index out of range");
    }
    XICC_ASSIGN_OR_RETURN(Num value, ParseNumString(text));
    view.escapes.insert_or_assign(index, std::move(value));
  }
  return view;
}

// Decodes flat slot `index` into `*out`. The d > 0 fast path is the whole
// cost of a warm tableau load, so it stays branch-lean: one comparison pair
// per slot.
Status DecodeNumSlot(const NumFlatView& view, size_t index, Num* out) {
  const RawNum& slot = view.raw[index];
  if (slot.d > 0 && slot.n != INT64_MIN) {
    *out = Num::FromCanonicalWords(slot.n, slot.d);
    return Status::Ok();
  }
  if (slot.d != 0) {
    return Status::InvalidArgument("artifact Num words are not canonical");
  }
  auto it = view.escapes.find(index);
  if (it == view.escapes.end()) {
    return Status::InvalidArgument(
        "artifact Num escape missing for flat slot");
  }
  *out = it->second;
  return Status::Ok();
}

Result<std::vector<Num>> ReadNumArray(serde::Cursor& cursor,
                                      int64_t expected_count) {
  XICC_ASSIGN_OR_RETURN(NumFlatView view,
                        ReadNumFlat(cursor, expected_count));
  std::vector<Num> out(view.count);
  for (size_t i = 0; i < view.count; ++i) {
    XICC_RETURN_IF_ERROR(DecodeNumSlot(view, i, &out[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dtd (regex DAG with shared-node dedup)

void WriteDtd(serde::Writer& w, const Dtd& dtd) {
  // Postorder walk over all content models; shared RegexPtr nodes (the DTD
  // parser and simplifier reuse subtrees) are emitted exactly once.
  std::map<const Regex*, uint32_t> ids;
  std::vector<const Regex*> order;
  std::function<void(const RegexPtr&)> visit = [&](const RegexPtr& node) {
    if (ids.count(node.get()) > 0) return;
    switch (node->kind()) {
      case Regex::Kind::kUnion:
      case Regex::Kind::kConcat:
        visit(node->left());
        visit(node->right());
        break;
      case Regex::Kind::kStar:
        visit(node->child());
        break;
      default:
        break;
    }
    ids.emplace(node.get(), static_cast<uint32_t>(order.size()));
    order.push_back(node.get());
  };
  for (const std::string& type : dtd.elements()) visit(dtd.ContentOf(type));

  w.U32(static_cast<uint32_t>(order.size()));
  for (const Regex* node : order) {
    w.U8(static_cast<uint8_t>(node->kind()));
    switch (node->kind()) {
      case Regex::Kind::kElement:
        w.Str(node->name());
        break;
      case Regex::Kind::kUnion:
      case Regex::Kind::kConcat:
        w.U32(ids.at(node->left().get()));
        w.U32(ids.at(node->right().get()));
        break;
      case Regex::Kind::kStar:
        w.U32(ids.at(node->child().get()));
        break;
      default:
        break;
    }
  }

  w.Str(dtd.root());
  w.U32(static_cast<uint32_t>(dtd.elements().size()));
  for (const std::string& type : dtd.elements()) {
    w.Str(type);
    w.U32(ids.at(dtd.ContentOf(type).get()));
    const std::vector<std::string>& attrs = dtd.AttributesOf(type);
    w.U32(static_cast<uint32_t>(attrs.size()));
    for (const std::string& attr : attrs) {
      w.Str(attr);
      w.U8(static_cast<uint8_t>(dtd.AttributeKind(type, attr)));
    }
  }
}

Result<Dtd> ReadDtd(serde::Cursor& cursor) {
  const uint32_t node_count = cursor.U32();
  if (node_count > kMaxDim) {
    return Status::InvalidArgument("artifact regex table implausibly large");
  }
  std::vector<RegexPtr> nodes;
  nodes.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    const uint8_t kind = cursor.U8();
    if (!cursor.status().ok()) return cursor.status();
    // Children must precede their parent (postorder), which also makes the
    // decoded structure an acyclic DAG by construction.
    const auto child = [&](const char* what) -> Result<RegexPtr> {
      const uint32_t id = cursor.U32();
      if (!cursor.status().ok()) return cursor.status();
      if (id >= i) {
        return Status::InvalidArgument(
            std::string("artifact regex ") + what + " is not in postorder");
      }
      return nodes[id];
    };
    switch (static_cast<Regex::Kind>(kind)) {
      case Regex::Kind::kEpsilon:
        nodes.push_back(Regex::Epsilon());
        break;
      case Regex::Kind::kString:
        nodes.push_back(Regex::Str());
        break;
      case Regex::Kind::kElement:
        nodes.push_back(Regex::Elem(cursor.Str()));
        break;
      case Regex::Kind::kUnion: {
        XICC_ASSIGN_OR_RETURN(RegexPtr left, child("union left"));
        XICC_ASSIGN_OR_RETURN(RegexPtr right, child("union right"));
        nodes.push_back(Regex::Union(std::move(left), std::move(right)));
        break;
      }
      case Regex::Kind::kConcat: {
        XICC_ASSIGN_OR_RETURN(RegexPtr left, child("concat left"));
        XICC_ASSIGN_OR_RETURN(RegexPtr right, child("concat right"));
        nodes.push_back(Regex::Concat(std::move(left), std::move(right)));
        break;
      }
      case Regex::Kind::kStar: {
        XICC_ASSIGN_OR_RETURN(RegexPtr operand, child("star operand"));
        nodes.push_back(Regex::Star(std::move(operand)));
        break;
      }
      default:
        return Status::InvalidArgument("artifact regex kind unknown");
    }
  }

  const std::string root = cursor.Str();
  const uint32_t element_count = cursor.U32();
  if (element_count > kMaxDim) {
    return Status::InvalidArgument("artifact element count implausible");
  }
  DtdBuilder builder;
  for (uint32_t i = 0; i < element_count; ++i) {
    const std::string name = cursor.Str();
    const uint32_t content = cursor.U32();
    const uint32_t attr_count = cursor.U32();
    if (!cursor.status().ok()) return cursor.status();
    if (content >= nodes.size()) {
      return Status::InvalidArgument("artifact content model id out of range");
    }
    if (attr_count > kMaxDim) {
      return Status::InvalidArgument("artifact attribute count implausible");
    }
    builder.AddElement(name, nodes[content]);
    for (uint32_t a = 0; a < attr_count; ++a) {
      const std::string attr = cursor.Str();
      const uint8_t kind = cursor.U8();
      if (!cursor.status().ok()) return cursor.status();
      if (kind > static_cast<uint8_t>(AttrKind::kOther)) {
        return Status::InvalidArgument("artifact attribute kind unknown");
      }
      builder.AddAttribute(name, attr, static_cast<AttrKind>(kind));
    }
  }
  builder.SetRoot(root);
  // DtdBuilder::Build re-runs full validation (declared references, root
  // discipline, name syntax) — decoded DTDs earn the same invariants as
  // parsed ones.
  return builder.Build();
}

// ---------------------------------------------------------------------------
// DtdFacts

void WriteStringSet(serde::Writer& w, const std::set<std::string>& values) {
  w.U32(static_cast<uint32_t>(values.size()));
  for (const std::string& value : values) w.Str(value);
}

Result<std::set<std::string>> ReadStringSet(serde::Cursor& cursor) {
  const uint32_t count = cursor.U32();
  std::set<std::string> out;
  for (uint32_t i = 0; i < count; ++i) {
    std::string value = cursor.Str();
    if (!cursor.status().ok()) return cursor.status();
    out.insert(std::move(value));
  }
  return out;
}

void WriteFacts(serde::Writer& w, const DtdFacts& facts) {
  WriteStringSet(w, facts.productive);
  WriteStringSet(w, facts.reachable);
  w.Bool(facts.has_valid_tree);
  w.U32(static_cast<uint32_t>(facts.multiplicity.size()));
  for (const auto& [type, mult] : facts.multiplicity) {
    w.Str(type);
    w.U8(static_cast<uint8_t>(mult));
  }
}

Result<DtdFacts> ReadFacts(serde::Cursor& cursor) {
  DtdFacts facts;
  XICC_ASSIGN_OR_RETURN(facts.productive, ReadStringSet(cursor));
  XICC_ASSIGN_OR_RETURN(facts.reachable, ReadStringSet(cursor));
  facts.has_valid_tree = cursor.Bool();
  const uint32_t count = cursor.U32();
  for (uint32_t i = 0; i < count; ++i) {
    const std::string type = cursor.Str();
    const uint8_t mult = cursor.U8();
    if (!cursor.status().ok()) return cursor.status();
    if (mult > static_cast<uint8_t>(Multiplicity::kAtLeastTwo)) {
      return Status::InvalidArgument("artifact multiplicity unknown");
    }
    facts.multiplicity[type] = static_cast<Multiplicity>(mult);
  }
  return facts;
}

// ---------------------------------------------------------------------------
// Frozen Glushkov DFAs

void WriteDfas(serde::Writer& w, const CompiledContentModels& models) {
  w.U32(static_cast<uint32_t>(models.matchers().size()));
  for (const auto& [type, matcher] : models.matchers()) {
    w.Str(type);
    const ContentModelMatcher::DenseFrozen dense = matcher->ExportFrozen();
    w.U32(static_cast<uint32_t>(dense.symbols.size()));
    for (const std::string& symbol : dense.symbols) w.Str(symbol);
    w.U32(static_cast<uint32_t>(dense.alphabet.size()));
    for (const std::string& symbol : dense.alphabet) w.Str(symbol);
    w.Bool(dense.nullable);
    w.U64(dense.num_states);
    for (size_t s = 0; s < dense.num_states; ++s) {
      w.U8(dense.accepting[s] ? 1 : 0);
    }
    w.FlatArray(dense.start_row.data(), dense.start_row.size());
    w.FlatArray(dense.transitions.data(), dense.transitions.size());
  }
}

Status ReadDfas(serde::Cursor& cursor,
                const std::shared_ptr<const void>& backing,
                CompiledContentModels* models) {
  const uint32_t matcher_count = cursor.U32();
  if (matcher_count > kMaxDim) {
    return Status::InvalidArgument("artifact DFA count implausible");
  }
  for (uint32_t m = 0; m < matcher_count; ++m) {
    const std::string type = cursor.Str();
    if (!cursor.status().ok()) return cursor.status();

    ContentModelMatcher::FrozenView view;
    const uint32_t symbol_count = cursor.U32();
    if (symbol_count > kMaxDim) {
      return Status::InvalidArgument("artifact DFA symbol count implausible");
    }
    view.symbols.reserve(symbol_count);
    for (uint32_t i = 0; i < symbol_count; ++i) {
      view.symbols.push_back(cursor.Str());
      if (!cursor.status().ok()) return cursor.status();
    }
    const uint32_t alphabet_count = cursor.U32();
    if (alphabet_count > kMaxDim) {
      return Status::InvalidArgument(
          "artifact DFA alphabet count implausible");
    }
    view.alphabet.reserve(alphabet_count);
    for (uint32_t i = 0; i < alphabet_count; ++i) {
      view.alphabet.push_back(cursor.Str());
      if (!cursor.status().ok()) return cursor.status();
    }
    view.nullable = cursor.Bool();
    const uint64_t num_states = cursor.U64();
    if (!cursor.status().ok()) return cursor.status();
    if (num_states > kMaxDim) {
      return Status::InvalidArgument("artifact DFA state count implausible");
    }
    view.num_states = static_cast<size_t>(num_states);
    view.accepting.reserve(view.num_states);
    for (uint64_t s = 0; s < num_states; ++s) {
      view.accepting.push_back(cursor.U8() != 0);
    }
    size_t count = 0;
    view.start_row = cursor.FlatArray<int32_t>(
        &count, static_cast<int64_t>(alphabet_count));
    view.transitions = cursor.FlatArray<int32_t>(
        &count,
        static_cast<int64_t>(num_states * alphabet_count));
    if (!cursor.status().ok()) return cursor.status();
    view.backing = backing;
    XICC_ASSIGN_OR_RETURN(std::shared_ptr<const ContentModelMatcher> matcher,
                          ContentModelMatcher::FromFrozenView(std::move(view)));
    models->InsertLoaded(type, std::move(matcher));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// MinimalTreePlan

void WritePlan(serde::Writer& w, const MinimalTreePlan& plan) {
  const MinimalTreePlan::Snapshot snapshot = plan.TakeSnapshot();
  w.U32(static_cast<uint32_t>(snapshot.type_cost.size()));
  for (const auto& [type, cost] : snapshot.type_cost) {
    w.Str(type);
    w.I64(cost);
  }
  w.FlatArray(snapshot.union_chosen.data(), snapshot.union_chosen.size());
}

Result<MinimalTreePlan> ReadPlan(serde::Cursor& cursor, const Dtd& dtd) {
  MinimalTreePlan::Snapshot snapshot;
  const uint32_t cost_count = cursor.U32();
  for (uint32_t i = 0; i < cost_count; ++i) {
    const std::string type = cursor.Str();
    const int64_t cost = cursor.I64();
    if (!cursor.status().ok()) return cursor.status();
    snapshot.type_cost[type] = cost;
  }
  size_t chosen_count = 0;
  const int8_t* chosen = cursor.FlatArray<int8_t>(&chosen_count);
  if (!cursor.status().ok()) return cursor.status();
  snapshot.union_chosen.assign(chosen, chosen + chosen_count);
  return MinimalTreePlan::FromSnapshot(dtd, snapshot);
}

// ---------------------------------------------------------------------------
// LinearSystem / LinearExpr

void WriteLinearSystem(serde::Writer& w, const LinearSystem& system) {
  w.U32(static_cast<uint32_t>(system.NumVariables()));
  for (size_t v = 0; v < system.NumVariables(); ++v) {
    w.Str(system.VarName(static_cast<VarId>(v)));
  }
  w.U32(static_cast<uint32_t>(system.constraints().size()));
  for (const LinearConstraint& row : system.constraints()) {
    w.U8(static_cast<uint8_t>(row.op));
    WriteNum(w, row.rhs);
    w.U32(static_cast<uint32_t>(row.coeffs.size()));
    for (const auto& [var, coeff] : row.coeffs) {
      w.I32(var);
      WriteNum(w, coeff);
    }
  }
}

Result<LinearSystem> ReadLinearSystem(serde::Cursor& cursor) {
  LinearSystem system;
  const uint32_t var_count = cursor.U32();
  if (var_count > kMaxDim) {
    return Status::InvalidArgument("artifact variable count implausible");
  }
  for (uint32_t v = 0; v < var_count; ++v) {
    std::string name = cursor.Str();
    if (!cursor.status().ok()) return cursor.status();
    system.AddVariable(std::move(name));
  }
  const uint32_t row_count = cursor.U32();
  if (row_count > kMaxDim) {
    return Status::InvalidArgument("artifact row count implausible");
  }
  for (uint32_t r = 0; r < row_count; ++r) {
    const uint8_t op = cursor.U8();
    if (!cursor.status().ok()) return cursor.status();
    if (op > static_cast<uint8_t>(RelOp::kEq)) {
      return Status::InvalidArgument("artifact row operator unknown");
    }
    LinearConstraint row;
    row.op = static_cast<RelOp>(op);
    XICC_ASSIGN_OR_RETURN(row.rhs, ReadNum(cursor));
    const uint32_t term_count = cursor.U32();
    if (term_count > var_count) {
      return Status::InvalidArgument("artifact row has too many terms");
    }
    row.coeffs.reserve(term_count);
    VarId prev = -1;
    for (uint32_t t = 0; t < term_count; ++t) {
      const VarId var = cursor.I32();
      XICC_ASSIGN_OR_RETURN(Num coeff, ReadNum(cursor));
      // AddRaw's contract: sorted by VarId, no duplicates, all declared.
      if (var <= prev || var >= static_cast<VarId>(var_count)) {
        return Status::InvalidArgument("artifact row terms malformed");
      }
      prev = var;
      row.coeffs.emplace_back(var, std::move(coeff));
    }
    system.AddRaw(std::move(row));
  }
  return system;
}

void WriteExpr(serde::Writer& w, const LinearExpr& expr) {
  w.U32(static_cast<uint32_t>(expr.terms().size()));
  for (const auto& [var, coeff] : expr.terms()) {
    w.I32(var);
    WriteNum(w, coeff);
  }
  WriteNum(w, expr.constant());
}

Result<LinearExpr> ReadExpr(serde::Cursor& cursor, size_t var_count) {
  LinearExpr expr;
  const uint32_t term_count = cursor.U32();
  if (term_count > var_count) {
    return Status::InvalidArgument("artifact expression has too many terms");
  }
  for (uint32_t t = 0; t < term_count; ++t) {
    const VarId var = cursor.I32();
    XICC_ASSIGN_OR_RETURN(Num coeff, ReadNum(cursor));
    if (var < 0 || var >= static_cast<VarId>(var_count)) {
      return Status::InvalidArgument(
          "artifact expression variable out of range");
    }
    expr.Add(var, std::move(coeff));
  }
  XICC_ASSIGN_OR_RETURN(Num constant, ReadNum(cursor));
  expr.AddConstant(constant);
  return expr;
}

// ---------------------------------------------------------------------------
// CardinalityEncoding (the Ψ skeleton)

void WriteSkeleton(serde::Writer& w, const CardinalityEncoding& skeleton) {
  WriteDtd(w, skeleton.simplified.dtd);
  WriteStringSet(w, skeleton.simplified.synthetic);
  WriteLinearSystem(w, skeleton.system);
  w.U32(static_cast<uint32_t>(skeleton.ext_var.size()));
  for (const auto& [type, var] : skeleton.ext_var) {
    w.Str(type);
    w.I32(var);
  }
  w.U32(static_cast<uint32_t>(skeleton.attr_var.size()));
  for (const auto& [pair, var] : skeleton.attr_var) {
    w.Str(pair.first);
    w.Str(pair.second);
    w.I32(var);
  }
  w.U32(static_cast<uint32_t>(skeleton.conditionals.size()));
  for (const Conditional& cond : skeleton.conditionals) {
    WriteExpr(w, cond.premise);
    WriteExpr(w, cond.conclusion);
  }
  w.U32(static_cast<uint32_t>(skeleton.occurrences.size()));
  for (const CardinalityEncoding::Occurrence& occ : skeleton.occurrences) {
    w.Str(occ.child);
    w.Str(occ.parent);
    w.I32(occ.slot);
    w.I32(occ.var);
  }
}

Result<CardinalityEncoding> ReadSkeleton(serde::Cursor& cursor) {
  CardinalityEncoding skeleton;
  XICC_ASSIGN_OR_RETURN(skeleton.simplified.dtd, ReadDtd(cursor));
  XICC_ASSIGN_OR_RETURN(skeleton.simplified.synthetic, ReadStringSet(cursor));
  XICC_ASSIGN_OR_RETURN(skeleton.system, ReadLinearSystem(cursor));
  const VarId var_count = static_cast<VarId>(skeleton.system.NumVariables());
  const auto valid_var = [&](VarId var) { return var >= 0 && var < var_count; };

  const uint32_t ext_count = cursor.U32();
  if (ext_count > kMaxDim) {
    return Status::InvalidArgument("artifact ext_var count implausible");
  }
  for (uint32_t i = 0; i < ext_count; ++i) {
    const std::string type = cursor.Str();
    const VarId var = cursor.I32();
    if (!cursor.status().ok()) return cursor.status();
    if (!valid_var(var)) {
      return Status::InvalidArgument("artifact ext_var out of range");
    }
    skeleton.ext_var[type] = var;
  }
  const uint32_t attr_count = cursor.U32();
  if (attr_count > kMaxDim) {
    return Status::InvalidArgument("artifact attr_var count implausible");
  }
  for (uint32_t i = 0; i < attr_count; ++i) {
    std::string type = cursor.Str();
    std::string attr = cursor.Str();
    const VarId var = cursor.I32();
    if (!cursor.status().ok()) return cursor.status();
    if (!valid_var(var)) {
      return Status::InvalidArgument("artifact attr_var out of range");
    }
    skeleton.attr_var[{std::move(type), std::move(attr)}] = var;
  }
  const uint32_t cond_count = cursor.U32();
  if (cond_count > kMaxDim) {
    return Status::InvalidArgument("artifact conditional count implausible");
  }
  skeleton.conditionals.reserve(cond_count);
  for (uint32_t i = 0; i < cond_count; ++i) {
    Conditional cond;
    XICC_ASSIGN_OR_RETURN(cond.premise, ReadExpr(cursor, var_count));
    XICC_ASSIGN_OR_RETURN(cond.conclusion, ReadExpr(cursor, var_count));
    skeleton.conditionals.push_back(std::move(cond));
  }
  const uint32_t occ_count = cursor.U32();
  if (occ_count > kMaxDim) {
    return Status::InvalidArgument("artifact occurrence count implausible");
  }
  skeleton.occurrences.reserve(occ_count);
  for (uint32_t i = 0; i < occ_count; ++i) {
    CardinalityEncoding::Occurrence occ;
    occ.child = cursor.Str();
    occ.parent = cursor.Str();
    occ.slot = cursor.I32();
    occ.var = cursor.I32();
    if (!cursor.status().ok()) return cursor.status();
    if (!valid_var(occ.var)) {
      return Status::InvalidArgument(
          "artifact occurrence variable out of range");
    }
    skeleton.occurrences.push_back(std::move(occ));
  }
  return skeleton;
}

// ---------------------------------------------------------------------------
// LpTableau (the warm-start basis)

Status WriteTableau(serde::Writer& w, const LpTableau& tableau) {
  const size_t cols = tableau.columns.size();
  const size_t rows = tableau.rows.size();
  if (tableau.basis.size() != rows || tableau.rhs.size() != rows) {
    return Status::Internal("tableau rows/basis/rhs skew at serialization");
  }
  std::vector<RawColumn> raw_columns;
  raw_columns.reserve(cols);
  for (const LpColumnInfo& column : tableau.columns) {
    raw_columns.push_back(RawColumn{static_cast<int32_t>(column.kind),
                                    column.index, column.sub_sign, 0});
  }
  w.FlatArray(raw_columns.data(), raw_columns.size());
  std::vector<int32_t> basis(tableau.basis.begin(), tableau.basis.end());
  w.FlatArray(basis.data(), basis.size());
  w.U64(tableau.num_constraints);
  w.U64(rows);

  NumArrayEnc rhs;
  for (const Num& value : tableau.rhs) rhs.Append(value);
  WriteNumArray(w, rhs);

  // The section stays dense (format v1): every row writes one cell per
  // column, zeros included.
  NumArrayEnc cells;
  const Num zero;
  const LpRowStore& store = tableau.rows;
  for (size_t r = 0; r < rows; ++r) {
    const size_t len = store.RowSize(r);
    size_t k = 0;
    for (size_t c = 0; c < cols; ++c) {
      const bool listed = k < len && store.Col(r, k) == static_cast<int>(c);
      cells.Append(listed ? store.Value(r, k++) : zero);
    }
    if (k != len) {
      return Status::Internal("tableau row width skew at serialization");
    }
  }
  WriteNumArray(w, cells);
  return Status::Ok();
}

Result<LpTableau> ReadTableau(serde::Cursor& cursor) {
  LpTableau tableau;
  size_t col_count = 0;
  const RawColumn* columns = cursor.FlatArray<RawColumn>(&col_count);
  if (!cursor.status().ok()) return cursor.status();
  if (col_count > kMaxDim) {
    return Status::InvalidArgument("artifact tableau width implausible");
  }
  tableau.columns.reserve(col_count);
  for (size_t c = 0; c < col_count; ++c) {
    const RawColumn& raw = columns[c];
    if (raw.kind < 0 ||
        raw.kind > static_cast<int32_t>(LpColumnInfo::Kind::kSlack) ||
        raw.sub_sign < -1 || raw.sub_sign > 1) {
      return Status::InvalidArgument("artifact tableau column malformed");
    }
    tableau.columns.push_back(
        LpColumnInfo{static_cast<LpColumnInfo::Kind>(raw.kind), raw.index,
                     raw.sub_sign});
  }

  size_t row_count_basis = 0;
  const int32_t* basis = cursor.FlatArray<int32_t>(&row_count_basis);
  if (!cursor.status().ok()) return cursor.status();
  if (row_count_basis > kMaxDim) {
    return Status::InvalidArgument("artifact tableau height implausible");
  }
  tableau.basis.reserve(row_count_basis);
  for (size_t r = 0; r < row_count_basis; ++r) {
    if (basis[r] < -1 || basis[r] >= static_cast<int32_t>(col_count)) {
      return Status::InvalidArgument("artifact tableau basis out of range");
    }
    tableau.basis.push_back(basis[r]);
  }

  tableau.num_constraints = static_cast<size_t>(cursor.U64());
  const uint64_t row_count = cursor.U64();
  if (!cursor.status().ok()) return cursor.status();
  if (row_count != row_count_basis || tableau.num_constraints > kMaxDim) {
    return Status::InvalidArgument("artifact tableau geometry skew");
  }

  XICC_ASSIGN_OR_RETURN(tableau.rhs,
                        ReadNumArray(cursor,
                                     static_cast<int64_t>(row_count)));
  // Cells decode straight from the dense flat block into sparse rows: every
  // slot is validated, and only the nonzeros are kept. This loop is the
  // bulk of a warm load on bench-sized DTDs.
  XICC_ASSIGN_OR_RETURN(
      NumFlatView cells,
      ReadNumFlat(cursor, static_cast<int64_t>(row_count * col_count)));
  LpRowStore& store = tableau.rows;
  store.Reset(row_count);
  for (uint64_t r = 0; r < row_count; ++r) {
    store.BeginRow(r);
    for (size_t c = 0; c < col_count; ++c) {
      const size_t slot = r * col_count + c;
      const RawNum& raw = cells.raw[slot];
      if (raw.n == 0 && raw.d == 1) continue;  // Canonical zero.
      Num value;
      XICC_RETURN_IF_ERROR(DecodeNumSlot(cells, slot, &value));
      if (!value.is_zero()) store.AppendCell(r, static_cast<int>(c), value);
    }
  }
  return tableau;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

uint64_t DtdContentHash(const Dtd& dtd) {
  return serde::Fnv1a64(dtd.ToString());
}

std::string ArtifactFileName(const Dtd& dtd) {
  const uint64_t hash = DtdContentHash(dtd);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));  // NOLINT
  return std::string("xicc-") + hex + "-v" +
         std::to_string(kArtifactFormatVersion) + ".xac";
}

Result<std::string> SerializeCompiledDtd(const CompiledDtd& compiled) {
  serde::Writer w(kMagic, kArtifactFormatVersion,
                  DtdContentHash(compiled.dtd));
  w.BeginSection(kSecDtd);
  WriteDtd(w, compiled.dtd);
  w.EndSection();
  w.BeginSection(kSecFacts);
  WriteFacts(w, compiled.facts);
  w.EndSection();
  w.BeginSection(kSecDfas);
  WriteDfas(w, compiled.content_models);
  w.EndSection();
  w.BeginSection(kSecPlan);
  WritePlan(w, compiled.minimal_plan);
  w.EndSection();
  w.BeginSection(kSecSkeleton);
  WriteSkeleton(w, compiled.skeleton);
  w.EndSection();
  w.BeginSection(kSecTableau);
  XICC_RETURN_IF_ERROR(WriteTableau(w, compiled.skeleton_tableau));
  w.EndSection();
  w.BeginSection(kSecMeta);
  w.Bool(compiled.skeleton_tableau_valid);
  w.F64(compiled.compile_ms);
  w.U64(compiled.audit_digest);
  w.EndSection();
  return std::move(w).Finish();
}

Result<std::shared_ptr<const CompiledDtd>> DeserializeCompiledDtd(
    std::string_view bytes, std::shared_ptr<const void> backing,
    ArtifactVerify verify) {
  XICC_ASSIGN_OR_RETURN(
      serde::Reader reader,
      serde::Reader::Open(bytes, kMagic, kArtifactFormatVersion));

  XICC_ASSIGN_OR_RETURN(serde::Cursor dtd_cursor,
                        reader.Section(kSecDtd, "artifact dtd"));
  XICC_ASSIGN_OR_RETURN(Dtd dtd, ReadDtd(dtd_cursor));
  XICC_RETURN_IF_ERROR(dtd_cursor.Finish());
  if (DtdContentHash(dtd) != reader.content_key()) {
    return Status::InvalidArgument(
        "artifact content key does not match its DTD");
  }

  XICC_ASSIGN_OR_RETURN(serde::Cursor facts_cursor,
                        reader.Section(kSecFacts, "artifact facts"));
  XICC_ASSIGN_OR_RETURN(DtdFacts facts, ReadFacts(facts_cursor));
  XICC_RETURN_IF_ERROR(facts_cursor.Finish());

  XICC_ASSIGN_OR_RETURN(serde::Cursor dfa_cursor,
                        reader.Section(kSecDfas, "artifact dfas"));
  CompiledContentModels models;
  XICC_RETURN_IF_ERROR(ReadDfas(dfa_cursor, backing, &models));
  XICC_RETURN_IF_ERROR(dfa_cursor.Finish());

  XICC_ASSIGN_OR_RETURN(serde::Cursor plan_cursor,
                        reader.Section(kSecPlan, "artifact plan"));
  XICC_ASSIGN_OR_RETURN(MinimalTreePlan plan, ReadPlan(plan_cursor, dtd));
  XICC_RETURN_IF_ERROR(plan_cursor.Finish());

  XICC_ASSIGN_OR_RETURN(serde::Cursor skel_cursor,
                        reader.Section(kSecSkeleton, "artifact skeleton"));
  XICC_ASSIGN_OR_RETURN(CardinalityEncoding skeleton,
                        ReadSkeleton(skel_cursor));
  XICC_RETURN_IF_ERROR(skel_cursor.Finish());

  XICC_ASSIGN_OR_RETURN(serde::Cursor tab_cursor,
                        reader.Section(kSecTableau, "artifact tableau"));
  XICC_ASSIGN_OR_RETURN(LpTableau tableau, ReadTableau(tab_cursor));
  XICC_RETURN_IF_ERROR(tab_cursor.Finish());

  XICC_ASSIGN_OR_RETURN(serde::Cursor meta_cursor,
                        reader.Section(kSecMeta, "artifact meta"));
  const bool tableau_valid = meta_cursor.Bool();
  // The compiling process's compile time is stored but not restored: this
  // process compiled nothing, so the loaded bundle reports compile_ms = 0.
  meta_cursor.F64();
  const uint64_t stored_digest = meta_cursor.U64();
  XICC_RETURN_IF_ERROR(meta_cursor.Finish());

  auto out = std::make_shared<CompiledDtd>(CompiledDtd{
      std::move(dtd), std::move(facts), std::move(models), std::move(plan),
      std::move(skeleton), std::move(tableau), tableau_valid,
      /*compile_ms=*/0.0, 0});

  // Layer 3 (kDeep only): recompute the semantic digest over the decoded
  // skeleton system, variable tables, tableau, and facts and demand
  // equality with the digest stamped at compile time. Passing this means
  // the loaded bundle is a bit-identical input to session warm starts. The
  // checksum layers already reject every corrupted byte, so the default
  // path trusts the stored stamp and skips the recompute.
  if (verify == ArtifactVerify::kDeep &&
      CompiledDtdDigest(*out) != stored_digest) {
    return Status::InvalidArgument(
        "artifact semantic digest mismatch after decode");
  }
  out->audit_digest = stored_digest;
  return std::shared_ptr<const CompiledDtd>(std::move(out));
}

Status StoreCompiledDtd(const CompiledDtd& compiled, const std::string& path) {
  XICC_ASSIGN_OR_RETURN(std::string bytes, SerializeCompiledDtd(compiled));
  return serde::WriteFileAtomic(path, bytes);
}

Result<std::shared_ptr<const CompiledDtd>> LoadCompiledDtd(
    const std::string& path, ArtifactLoadInfo* info, ArtifactVerify verify) {
  auto mapped_result = serde::MappedFile::Map(path);
  if (mapped_result.ok()) {
    auto mapped = std::make_shared<serde::MappedFile>(
        std::move(mapped_result).value());
    if (info != nullptr) {
      info->mmap = true;
      info->bytes = mapped->view().size();
    }
    return DeserializeCompiledDtd(mapped->view(), mapped, verify);
  }
  // mmap unavailable (exotic filesystem, resource limits): buffered read.
  XICC_ASSIGN_OR_RETURN(std::string bytes, serde::ReadFileToString(path));
  auto owned = std::make_shared<std::string>(std::move(bytes));
  if (info != nullptr) {
    info->mmap = false;
    info->bytes = owned->size();
  }
  return DeserializeCompiledDtd(*owned, owned, verify);
}

}  // namespace xicc
