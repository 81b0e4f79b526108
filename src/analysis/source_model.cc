#include "analysis/source_model.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xicc {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Collects every `xicc-lint: allow(a, b)` rule name on the line.
void CollectAllows(SourceLine* line) {
  const std::string tag = "xicc-lint: allow(";
  size_t at = line->raw.find(tag);
  while (at != std::string::npos) {
    const size_t open = at + tag.size();
    const size_t close = line->raw.find(')', open);
    if (close == std::string::npos) break;
    std::string name;
    for (size_t i = open; i <= close; ++i) {
      const char c = line->raw[i];
      if (c == ',' || c == ')') {
        const size_t first = name.find_first_not_of(' ');
        const size_t last = name.find_last_not_of(' ');
        if (first != std::string::npos) {
          line->allows.insert(name.substr(first, last - first + 1));
        }
        name.clear();
      } else {
        name.push_back(c);
      }
    }
    at = line->raw.find(tag, close);
  }
}

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",       "switch",      "return",
      "sizeof",   "alignof",  "catch",       "do",          "else",
      "case",     "default",  "new",         "delete",      "throw",
      "co_await", "co_return"};
  return kKeywords;
}

const std::set<std::string>& DeclSpecifiers() {
  static const std::set<std::string> kSpecs = {
      "static",   "inline",   "virtual", "explicit", "constexpr",
      "friend",   "mutable",  "extern",  "typename", "const",
      "volatile", "register", "thread_local"};
  return kSpecs;
}

/// Joins tokens with single spaces, except that '::', '<', '>', '*', '&'
/// attach tightly enough to read ("Result < T >" stays readable as-is; we
/// keep the simple space join — consumers match on token membership, and
/// tests pin the rendering).
std::string JoinTokens(const std::vector<Token>& tokens, size_t begin,
                       size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (!out.empty()) out += ' ';
    out += tokens[i].text;
  }
  return out;
}

/// Extracts `xicc-analyze: <note>` comment annotations from a raw line.
void CollectNotes(const std::string& raw, size_t line_no,
                  std::map<size_t, std::vector<std::string>>* notes) {
  const std::string tag = "xicc-analyze:";
  size_t at = raw.find(tag);
  while (at != std::string::npos) {
    size_t start = at + tag.size();
    while (start < raw.size() && raw[start] == ' ') ++start;
    // A note runs to the end of the comment text; balanced parens keep
    // `acquired-after(Foo::mu_)` intact.
    size_t end = raw.size();
    std::string note = raw.substr(start, end - start);
    while (!note.empty() && (note.back() == ' ' || note.back() == '\r')) {
      note.pop_back();
    }
    if (!note.empty()) (*notes)[line_no].push_back(note);
    at = raw.find(tag, start);
  }
}

/// The file-scope parser state: a stack of brace scopes.
struct ScopeFrame {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;
  /// Index into SourceFile::functions for kFunction frames.
  size_t function_index = 0;
  /// Statement accumulator for kClass/kNamespace frames: token indices since
  /// the last statement boundary at this scope's depth. Nested brace groups
  /// collapse to a single "{}" placeholder so member declarations with brace
  /// initializers survive.
  std::vector<size_t> stmt;
};

bool IsXiccMacro(const std::string& text) {
  return text.compare(0, 5, "XICC_") == 0;
}

/// True when the statement `stmt` (token indices into `tokens`) declares or
/// defines a function: it contains a parameter-list `(...)` directly after
/// an identifier, and after the matching `)` only signature-suffix tokens
/// remain. `paren_at` receives the index WITHIN STMT of the '('.
bool LooksLikeFunctionSignature(const std::vector<Token>& tokens,
                                const std::vector<size_t>& stmt,
                                size_t* name_in_stmt, size_t* paren_in_stmt) {
  if (stmt.size() < 3) return false;
  const std::string& first = tokens[stmt[0]].text;
  if (Keywords().count(first) > 0 || first == "using" || first == "typedef" ||
      first == "namespace" || first == "public" || first == "private" ||
      first == "protected" || first == "static_assert" || first == "enum") {
    return false;
  }
  // Find the first '(' preceded by a non-keyword identifier that is not an
  // XICC_ attribute macro (those wrap the DECLARATION, not the name).
  for (size_t k = 1; k < stmt.size(); ++k) {
    if (tokens[stmt[k]].text != "(") continue;
    const Token& prev = tokens[stmt[k - 1]];
    if (prev.kind != Token::Kind::kIdent) return false;
    if (Keywords().count(prev.text) > 0) return false;
    if (IsXiccMacro(prev.text)) {
      // Skip the macro's argument group and keep scanning.
      size_t close = k;
      size_t depth = 0;
      for (; close < stmt.size(); ++close) {
        if (tokens[stmt[close]].text == "(") ++depth;
        if (tokens[stmt[close]].text == ")" && --depth == 0) break;
      }
      k = close;
      continue;
    }
    // `std::function<void()> fn;`-shaped members: the '(' sits inside a
    // template argument list, so an unmatched '<' is open at this point.
    int angle = 0;
    for (size_t j = 0; j < k; ++j) {
      if (tokens[stmt[j]].text == "<") ++angle;
      if (tokens[stmt[j]].text == ">") --angle;
    }
    if (angle > 0) return false;
    *name_in_stmt = k - 1;
    *paren_in_stmt = k;
    return true;
  }
  return false;
}

}  // namespace

std::vector<SourceLine> DigestLines(const std::string& content) {
  std::vector<SourceLine> lines(1);
  enum class State { kCode, kLineComment, kBlockComment, kQuote, kRawString };
  State state = State::kCode;
  char quote = 0;
  bool escaped = false;
  std::string raw_terminator;  // ")delim\"" of the active raw string.
  size_t block_open_at = 0;    // Index of the '/' that opened the comment.
  const size_t n = content.size();

  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      CollectAllows(&lines.back());
      // Line comments and (unterminated) ordinary literals end at newline;
      // block comments and raw strings continue.
      if (state == State::kLineComment || state == State::kQuote) {
        state = State::kCode;
      }
      lines.emplace_back();
      continue;
    }
    SourceLine& cur = lines.back();
    cur.raw.push_back(c);
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          state = State::kLineComment;
          cur.code.push_back(' ');
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          block_open_at = i;
          cur.code.push_back(' ');
        } else if (c == '\'' && i > 0 &&
                   std::isdigit(static_cast<unsigned char>(content[i - 1]))) {
          cur.code.push_back(c);  // Digit separator, not a char literal.
        } else if (c == '"' && i > 0 && content[i - 1] == 'R') {
          // R"delim( ... )delim" — find the delimiter.
          size_t open = content.find('(', i + 1);
          raw_terminator =
              ")" + content.substr(i + 1, open == std::string::npos
                                              ? 0
                                              : open - i - 1) +
              "\"";
          state = State::kRawString;
          cur.code.push_back('"');
        } else if (c == '"' || c == '\'') {
          state = State::kQuote;
          quote = c;
          escaped = false;
          cur.code.push_back(c);
        } else {
          cur.code.push_back(c);
        }
        break;
      case State::kLineComment:
      case State::kBlockComment:
        cur.code.push_back(' ');
        if (state == State::kBlockComment && c == '/' && i > 0 &&
            content[i - 1] == '*' && i >= block_open_at + 3) {
          state = State::kCode;
        }
        break;
      case State::kQuote:
        if (escaped) {
          escaped = false;
          cur.code.push_back(' ');
        } else if (c == '\\') {
          escaped = true;
          cur.code.push_back(' ');
        } else if (c == quote) {
          state = State::kCode;
          cur.code.push_back(quote);
        } else {
          cur.code.push_back(' ');
        }
        break;
      case State::kRawString:
        cur.code.push_back(' ');
        if (c == '"' &&
            i + 1 >= raw_terminator.size() &&
            content.compare(i + 1 - raw_terminator.size(),
                            raw_terminator.size(), raw_terminator) == 0) {
          state = State::kCode;
        }
        break;
    }
  }
  CollectAllows(&lines.back());
  return lines;
}

bool SourceFile::Suppressed(size_t line, const std::string& rule) const {
  if (line == 0 || line > lines.size()) return false;
  if (lines[line - 1].allows.count(rule) > 0) return true;
  return line >= 2 && lines[line - 2].allows.count(rule) > 0;
}

const SourceFile* SourceModel::Find(const std::string& rel_path) const {
  for (const SourceFile& file : files) {
    if (file.rel_path == rel_path) return &file;
  }
  return nullptr;
}

std::string SourceSrcDir(const std::string& rel_path) {
  const std::string prefix = "src/";
  if (rel_path.compare(0, prefix.size(), prefix) != 0) return "";
  size_t slash = rel_path.find('/', prefix.size());
  if (slash == std::string::npos) return "";
  return rel_path.substr(prefix.size(), slash - prefix.size());
}

bool SourceIsHeader(const std::string& rel_path) {
  return rel_path.size() > 2 &&
         rel_path.compare(rel_path.size() - 2, 2, ".h") == 0;
}

SourceFile BuildSourceFile(const std::string& rel_path,
                           const std::string& content) {
  SourceFile file;
  file.rel_path = rel_path;
  file.dir = SourceSrcDir(rel_path);
  file.is_header = SourceIsHeader(rel_path);
  file.content = content;
  file.lines = DigestLines(content);

  // ---- Includes and comment annotations (from raw lines). ----
  for (size_t k = 0; k < file.lines.size(); ++k) {
    const std::string& raw = file.lines[k].raw;
    CollectNotes(raw, k + 1, &file.notes);
    size_t hash = raw.find_first_not_of(" \t");
    if (hash == std::string::npos || raw[hash] != '#') continue;
    size_t inc = raw.find("include", hash);
    if (inc == std::string::npos) continue;
    size_t open = raw.find_first_of("\"<", inc + 7);
    if (open == std::string::npos) continue;
    const char close_char = raw[open] == '"' ? '"' : '>';
    size_t close = raw.find(close_char, open + 1);
    if (close == std::string::npos) continue;
    IncludeRef ref;
    ref.line = k + 1;
    ref.path = raw.substr(open + 1, close - open - 1);
    ref.quoted = raw[open] == '"';
    file.includes.push_back(ref);
  }

  // ---- Tokenization (preprocessor lines and their continuations skipped,
  // so multi-line macro definitions never unbalance the brace matching). ----
  bool in_directive = false;
  for (size_t k = 0; k < file.lines.size(); ++k) {
    const std::string& code = file.lines[k].code;
    const std::string& raw = file.lines[k].raw;
    const bool continued = !raw.empty() && raw.back() == '\\';
    if (in_directive) {
      in_directive = continued;
      continue;
    }
    const size_t first = code.find_first_not_of(" \t");
    if (first != std::string::npos && code[first] == '#') {
      in_directive = continued;
      continue;
    }
    for (size_t i = 0; i < code.size();) {
      const char c = code[i];
      if (c == ' ' || c == '\t' || c == '"' || c == '\'' || c == '\\') {
        ++i;
        continue;
      }
      Token token;
      token.line = k + 1;
      if (IsIdentStart(c)) {
        size_t j = i;
        while (j < code.size() && IsIdentChar(code[j])) ++j;
        token.kind = Token::Kind::kIdent;
        token.text = code.substr(i, j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        size_t j = i;
        while (j < code.size() && (IsIdentChar(code[j]) || code[j] == '.' ||
                                   code[j] == '\'')) {
          ++j;
        }
        token.kind = Token::Kind::kNumber;
        token.text = code.substr(i, j - i);
        i = j;
      } else if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        token.text = "::";
        i += 2;
      } else if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        token.text = "->";
        i += 2;
      } else {
        token.text = std::string(1, c);
        ++i;
      }
      file.tokens.push_back(std::move(token));
    }
  }

  // ---- Scope / function / member parse. ----
  const std::vector<Token>& tokens = file.tokens;
  std::vector<ScopeFrame> scopes;
  std::vector<size_t> stmt;  // Token indices since the last boundary.

  auto enclosing_class = [&]() -> std::string {
    for (size_t s = scopes.size(); s-- > 0;) {
      if (scopes[s].kind == ScopeFrame::Kind::kClass) return scopes[s].name;
    }
    return "";
  };
  auto at_decl_scope = [&]() {
    return scopes.empty() || scopes.back().kind == ScopeFrame::Kind::kClass ||
           scopes.back().kind == ScopeFrame::Kind::kNamespace;
  };

  /// Parses `stmt` as a member / local declaration and records Mutex decls
  /// (and, in class scope, general members for type resolution).
  auto record_declaration = [&](const std::vector<size_t>& s, bool in_class) {
    if (s.empty()) return;
    const std::string& first = tokens[s[0]].text;
    if (Keywords().count(first) > 0 || first == "using" ||
        first == "typedef" || first == "friend" || first == "template" ||
        first == "static_assert" || first == "public" || first == "private" ||
        first == "protected" || first == "enum" || first == "class" ||
        first == "struct" || first == "namespace") {
      return;
    }
    // Strip trailing XICC_* macro groups, brace-init placeholders, and
    // `= ...` initializers to expose the declared name.
    size_t end = s.size();
    for (;;) {
      if (end == 0) return;
      const std::string& t = tokens[s[end - 1]].text;
      if (t == "}" || t == "{") {  // Collapsed nested group.
        --end;
        continue;
      }
      if (t == ")") {
        // Scan back to the matching '('; if the group is an XICC_* macro,
        // drop it, otherwise this is a paren-init or function — stop.
        size_t depth = 0;
        size_t open = end;
        for (size_t j = end; j-- > 0;) {
          if (tokens[s[j]].text == ")") ++depth;
          if (tokens[s[j]].text == "(" && --depth == 0) {
            open = j;
            break;
          }
        }
        if (open > 0 && IsXiccMacro(tokens[s[open - 1]].text)) {
          end = open - 1;
          continue;
        }
        return;  // Paren-initialized declaration or function-ish: skip.
      }
      break;
    }
    // Drop an `= init` tail (e.g. `uint64_t clock = 0`).
    for (size_t j = 0; j < end; ++j) {
      if (tokens[s[j]].text == "=") {
        end = j;
        break;
      }
    }
    if (end < 2) return;
    const Token& name_tok = tokens[s[end - 1]];
    if (name_tok.kind != Token::Kind::kIdent) return;
    std::string type = JoinTokens(tokens, 0, 0);
    {
      std::vector<Token> type_tokens;
      for (size_t j = 0; j + 1 < end; ++j) type_tokens.push_back(tokens[s[j]]);
      std::string joined;
      for (const Token& t : type_tokens) {
        if (!joined.empty()) joined += ' ';
        joined += t.text;
      }
      type = joined;
    }
    const std::string class_name = in_class ? enclosing_class() : "";
    if (in_class) {
      MemberDecl member;
      member.class_name = class_name;
      member.type = type;
      member.name = name_tok.text;
      member.line = name_tok.line;
      file.members.push_back(member);
    }
    // A lock declaration: type is exactly `Mutex` (modulo `mutable`), never
    // a pointer/reference (those are handles to someone else's lock).
    std::vector<std::string> type_words;
    {
      std::istringstream in(type);
      std::string w;
      while (in >> w) {
        if (w != "mutable" && w != "const") type_words.push_back(w);
      }
    }
    if (type_words.size() == 1 && type_words[0] == "Mutex") {
      MutexDecl mutex;
      mutex.class_name = class_name;
      mutex.name = name_tok.text;
      mutex.line = name_tok.line;
      // Macro annotations on the declaration statement.
      for (size_t j = 0; j + 1 < s.size(); ++j) {
        if (tokens[s[j]].text != "XICC_ACQUIRED_AFTER" ||
            tokens[s[j + 1]].text != "(") {
          continue;
        }
        size_t depth = 0;
        std::string arg;
        for (size_t j2 = j + 1; j2 < s.size(); ++j2) {
          const std::string& t = tokens[s[j2]].text;
          if (t == "(") {
            if (depth++ == 0) continue;
          }
          if (t == ")" && --depth == 0) {
            if (!arg.empty()) mutex.acquired_after.push_back(arg);
            break;
          }
          if (t == "," && depth == 1) {
            if (!arg.empty()) mutex.acquired_after.push_back(arg);
            arg.clear();
            continue;
          }
          arg += t;
        }
      }
      // Comment annotations on the declaration line or the line above.
      for (size_t line = mutex.line >= 1 ? mutex.line - 1 : 0;
           line <= mutex.line; ++line) {
        auto it = file.notes.find(line);
        if (it == file.notes.end()) continue;
        for (const std::string& note : it->second) {
          const std::string after_tag = "acquired-after(";
          if (note.compare(0, after_tag.size(), after_tag) == 0) {
            size_t close = note.find(')', after_tag.size());
            if (close != std::string::npos) {
              std::string arg =
                  note.substr(after_tag.size(), close - after_tag.size());
              std::string tight;
              for (char c : arg) {
                if (c != ' ') tight.push_back(c);
              }
              if (!tight.empty()) mutex.acquired_after.push_back(tight);
            }
          } else if (note.compare(0, 9, "lock-leaf") == 0) {
            mutex.leaf = true;
          }
        }
      }
      file.mutexes.push_back(std::move(mutex));
    }
  };

  /// Emits a FunctionInfo from a signature statement. `paren_in_stmt` is the
  /// parameter-list '('; `definition` says a body follows.
  auto record_function = [&](const std::vector<size_t>& s, size_t name_in_stmt,
                             size_t paren_in_stmt, bool definition) {
    FunctionInfo fn;
    const Token& name_tok = tokens[s[name_in_stmt]];
    fn.name = name_tok.text;
    fn.line = name_tok.line;
    fn.is_definition = definition;
    // Qualified out-of-line definitions: `Class :: Name (` — collect the
    // chain left of the name.
    size_t type_end = name_in_stmt;
    if (name_in_stmt >= 2 && tokens[s[name_in_stmt - 1]].text == "::" &&
        tokens[s[name_in_stmt - 2]].kind == Token::Kind::kIdent) {
      size_t q = name_in_stmt;
      std::vector<std::string> chain;
      while (q >= 2 && tokens[s[q - 1]].text == "::" &&
             tokens[s[q - 2]].kind == Token::Kind::kIdent) {
        chain.push_back(tokens[s[q - 2]].text);
        q -= 2;
      }
      fn.class_name = chain.empty() ? "" : chain.front();
      // Innermost scope left of the name is the class (chain is collected
      // right-to-left, so front() is the token nearest the name).
      type_end = q;
    } else {
      fn.class_name = enclosing_class();
    }
    // Return type: leading declaration tokens minus specifiers.
    size_t type_begin = 0;
    while (type_begin < type_end &&
           DeclSpecifiers().count(tokens[s[type_begin]].text) > 0 &&
           tokens[s[type_begin]].text != "const") {
      ++type_begin;
    }
    {
      std::string joined;
      for (size_t j = type_begin; j < type_end; ++j) {
        if (!joined.empty()) joined += ' ';
        joined += tokens[s[j]].text;
      }
      fn.return_type = joined;
    }
    // Parameter list text.
    {
      size_t depth = 0;
      std::string joined;
      for (size_t j = paren_in_stmt; j < s.size(); ++j) {
        const std::string& t = tokens[s[j]].text;
        if (t == "(") ++depth;
        if (depth > 0) {
          if (!joined.empty()) joined += ' ';
          joined += t;
        }
        if (t == ")" && --depth == 0) break;
      }
      fn.params = joined;
    }
    file.functions.push_back(std::move(fn));
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& text = tokens[i].text;
    if (text == "{") {
      // Decide what scope this brace opens from the pending statement.
      ScopeFrame frame;
      frame.kind = ScopeFrame::Kind::kBlock;
      if (!stmt.empty() && at_decl_scope()) {
        const std::string& first = tokens[stmt[0]].text;
        bool handled = false;
        if (first == "namespace") {
          frame.kind = ScopeFrame::Kind::kNamespace;
          for (size_t j = 1; j < stmt.size(); ++j) {
            if (tokens[stmt[j]].kind == Token::Kind::kIdent) {
              frame.name = tokens[stmt[j]].text;
            }
          }
          handled = true;
        }
        if (!handled) {
          // `class X {` / `struct X : Base {` — but not `enum class X {`.
          for (size_t j = 0; j < stmt.size() && !handled; ++j) {
            const std::string& t = tokens[stmt[j]].text;
            if (t == "enum") break;
            if (t != "class" && t != "struct" && t != "union") continue;
            frame.kind = ScopeFrame::Kind::kClass;
            for (size_t k2 = j + 1; k2 < stmt.size(); ++k2) {
              const Token& cand = tokens[stmt[k2]];
              if (cand.text == ":") break;
              if (cand.kind == Token::Kind::kIdent) {
                if (cand.text == "final") continue;
                if (k2 + 1 < stmt.size() && tokens[stmt[k2 + 1]].text == "(") {
                  // Attribute macro: skip its group.
                  size_t depth = 0;
                  size_t j2 = k2 + 1;
                  for (; j2 < stmt.size(); ++j2) {
                    if (tokens[stmt[j2]].text == "(") ++depth;
                    if (tokens[stmt[j2]].text == ")" && --depth == 0) break;
                  }
                  k2 = j2;
                  continue;
                }
                frame.name = cand.text;
              }
            }
            handled = true;
          }
        }
        if (!handled) {
          size_t name_in_stmt = 0;
          size_t paren_in_stmt = 0;
          if (LooksLikeFunctionSignature(tokens, stmt, &name_in_stmt,
                                         &paren_in_stmt)) {
            record_function(stmt, name_in_stmt, paren_in_stmt,
                            /*definition=*/true);
            frame.kind = ScopeFrame::Kind::kFunction;
            frame.function_index = file.functions.size() - 1;
            file.functions.back().body_begin = i;
          }
        }
      }
      scopes.push_back(std::move(frame));
      stmt.clear();
      continue;
    }
    if (text == "}") {
      if (!scopes.empty()) {
        if (scopes.back().kind == ScopeFrame::Kind::kFunction) {
          file.functions[scopes.back().function_index].body_end = i;
        }
        const bool was_block = scopes.back().kind == ScopeFrame::Kind::kBlock;
        scopes.pop_back();
        if (was_block && at_decl_scope()) {
          // Collapse the nested group so `std::atomic<bool> x{false};`
          // still parses as one member declaration.
          stmt.push_back(i);
          continue;
        }
      }
      stmt.clear();
      continue;
    }
    if (text == ";") {
      if (at_decl_scope() && !stmt.empty()) {
        size_t name_in_stmt = 0;
        size_t paren_in_stmt = 0;
        if (LooksLikeFunctionSignature(tokens, stmt, &name_in_stmt,
                                       &paren_in_stmt)) {
          record_function(stmt, name_in_stmt, paren_in_stmt,
                          /*definition=*/false);
        } else {
          record_declaration(
              stmt, !scopes.empty() &&
                        scopes.back().kind == ScopeFrame::Kind::kClass);
        }
      }
      stmt.clear();
      continue;
    }
    if (text == ":" && at_decl_scope() && stmt.size() == 1 &&
        (tokens[stmt[0]].text == "public" ||
         tokens[stmt[0]].text == "private" ||
         tokens[stmt[0]].text == "protected")) {
      stmt.clear();
      continue;
    }
    stmt.push_back(i);
  }

  // ---- Call extraction per function body. ----
  for (FunctionInfo& fn : file.functions) {
    if (!fn.is_definition || fn.body_end <= fn.body_begin) continue;
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (tokens[i].text != "(" || i == 0) continue;
      const Token& callee = tokens[i - 1];
      if (callee.kind != Token::Kind::kIdent) continue;
      if (Keywords().count(callee.text) > 0) continue;
      // `Type name(args)` is a declaration with paren-init, not a call: the
      // token before the callee is then itself an identifier or a
      // type-closing '>' / '*' / '&'.
      if (i >= 2) {
        const Token& before = tokens[i - 2];
        if (before.kind == Token::Kind::kIdent &&
            Keywords().count(before.text) == 0 && before.text != "in" &&
            tokens[i - 2].text != "operator") {
          continue;
        }
        if (before.text == ">" || before.text == "*" || before.text == "&") {
          continue;
        }
      }
      CallSite call;
      call.callee = callee.text;
      call.token = i - 1;
      call.line = callee.line;
      fn.calls.push_back(std::move(call));
    }
  }

  return file;
}

SourceModel BuildSourceModelFromContents(
    const std::vector<std::pair<std::string, std::string>>& files) {
  SourceModel model;
  model.files.reserve(files.size());
  for (const auto& [path, content] : files) {
    model.files.push_back(BuildSourceFile(path, content));
  }
  return model;
}

Result<SourceModel> BuildSourceModelFromDisk(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    return Status::InvalidArgument("no src/ directory under '" + root + "'");
  }
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(src, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) {
      return Status::Internal("walking '" + src.string() +
                              "': " + ec.message());
    }
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());

  SourceModel model;
  model.files.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::Internal("cannot read '" + path.string() + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel =
        fs::relative(path, fs::path(root), ec).generic_string();
    model.files.push_back(BuildSourceFile(rel, buffer.str()));
  }
  return model;
}

}  // namespace xicc
