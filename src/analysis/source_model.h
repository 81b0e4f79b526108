#pragma once

// The shared source-model pass under xicc_analyze's engines and lint rules.
//
// Every analysis in src/analysis/ used to re-read and re-scan the tree per
// rule; this header is the single substrate they now share: one walk of the
// repo, one comment/string digestion, one tokenization, one brace-matched
// block parse per file. The model is deliberately NOT a C++ front end — no
// preprocessing, no name lookup, no templates — it is the checkable fragment
// of the language the repo's style guarantees (one declaration per line,
// RAII locking through MutexLock, Status/Result plumbing by value), exactly
// the paper's move of trading generality for a fragment that can be decided
// mechanically. DESIGN.md §11 documents each consumer's soundness envelope
// on top of this model.
//
// What the model provides per file:
//   - digested lines (comments / string / char literals blanked out of
//     `code`, suppression comments collected),
//   - a token stream with line numbers (preprocessor lines skipped),
//   - quoted / angle includes,
//   - brace-matched function definitions and declarations with enclosing
//     namespace/class scope, return-type text, parameter text, body token
//     ranges, and extracted call sites,
//   - class member declarations (with type text) and, specifically, Mutex
//     members with their lock-order annotations,
//   - `xicc-analyze:` comment annotations by line.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"

namespace xicc {

/// One physical line, pre-digested for token rules: `code` has comments,
/// string literals (including raw strings), and char literals blanked out;
/// `raw` is the original text; `allows` the `xicc-lint: allow(...)` rule
/// names present on the line (shared by lint and analyze rules).
struct SourceLine {
  std::string code;
  std::string raw;
  std::set<std::string> allows;
};

/// Splits `content` into digested lines. Preprocessor continuations are NOT
/// special-cased here; the tokenizer skips directive lines itself.
std::vector<SourceLine> DigestLines(const std::string& content);

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  size_t line = 0;  ///< 1-based.
};

struct IncludeRef {
  size_t line = 0;
  std::string path;
  bool quoted = false;  ///< `"..."` (repo-relative) vs `<...>` (system).
};

/// A call site inside a function body: the unqualified callee name (the
/// identifier directly before the '('; `a.b->Foo(x)` records `Foo`).
struct CallSite {
  std::string callee;
  size_t token = 0;  ///< Index of the callee identifier in `tokens`.
  size_t line = 0;
};

struct FunctionInfo {
  std::string name;        ///< Unqualified (`Check`, not `SpecSession::Check`).
  std::string class_name;  ///< Enclosing class/struct, or the `Foo::` scope of
                           ///< an out-of-line definition; "" for free funcs.
  std::string return_type;  ///< Leading declaration tokens joined with ' '
                            ///< ("Result < ConsistencyResult >"); "" for
                            ///< constructors/destructors.
  std::string params;       ///< Parenthesized parameter list text.
  size_t line = 0;          ///< Line of the function name.
  bool is_definition = false;
  /// Token indices of the body's '{' and matching '}' (inclusive);
  /// body_end == 0 for declarations.
  size_t body_begin = 0;
  size_t body_end = 0;
  std::vector<CallSite> calls;  ///< Call sites inside the body (definitions).
};

/// A class/struct member declaration: `std::deque<Task> queue
/// XICC_GUARDED_BY(mu);` records type "std :: deque < Task >", name "queue".
struct MemberDecl {
  std::string class_name;
  std::string type;
  std::string name;
  size_t line = 0;
};

/// A `Mutex foo_;` member (or function-local) with its ordering annotations.
struct MutexDecl {
  std::string class_name;  ///< "" for a function-local mutex.
  std::string name;
  size_t line = 0;
  /// Locks this one may only be acquired AFTER (i.e. they come first in the
  /// global order). Merged from XICC_ACQUIRED_AFTER(...) macro arguments and
  /// `// xicc-analyze: acquired-after(Class::member)` comment annotations.
  std::vector<std::string> acquired_after;
  /// `// xicc-analyze: lock-leaf`: no other lock may be acquired while this
  /// one is held (a terminal node of the lock hierarchy).
  bool leaf = false;
};

struct SourceFile {
  std::string rel_path;  ///< Repo-relative, forward slashes.
  std::string dir;       ///< Top-level src/ subdirectory ("" if outside src/).
  bool is_header = false;
  std::string content;  ///< Raw bytes, kept so fixers can rewrite in place.
  std::vector<SourceLine> lines;
  std::vector<Token> tokens;
  std::vector<IncludeRef> includes;
  std::vector<FunctionInfo> functions;
  std::vector<MemberDecl> members;
  std::vector<MutexDecl> mutexes;
  /// `xicc-analyze: <note>` comment annotations, keyed by 1-based line.
  std::map<size_t, std::vector<std::string>> notes;

  /// True when `rule` is suppressed at `line` (1-based): an allow on the
  /// line itself or on the line directly above (same scope as the lint rules).
  bool Suppressed(size_t line, const std::string& rule) const;
};

struct SourceModel {
  std::vector<SourceFile> files;

  const SourceFile* Find(const std::string& rel_path) const;
};

/// Top-level directory of a repo-relative "src/..." path, or "" if the file
/// is not under src/.
std::string SourceSrcDir(const std::string& rel_path);

bool SourceIsHeader(const std::string& rel_path);

/// Builds the full per-file model: digestion, tokens, includes, functions,
/// members, mutexes, annotations.
SourceFile BuildSourceFile(const std::string& rel_path,
                           const std::string& content);

/// Builds a model from in-memory (path, content) pairs — the substrate for
/// the synthetic rule fixtures in tests.
SourceModel BuildSourceModelFromContents(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Walks `root`/src for .h/.cc files (sorted, deterministic) and builds the
/// model — the ONE repo walk every rule engine shares. Fails only on I/O
/// errors.
Result<SourceModel> BuildSourceModelFromDisk(const std::string& root);

}  // namespace xicc
