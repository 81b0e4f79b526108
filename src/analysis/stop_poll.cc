#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/source_model.h"

namespace xicc {

namespace {

/// Tokens that ARE a cancellation poll when they appear as a call.
const std::set<std::string>& PollIdents() {
  static const std::set<std::string> kPolls = {"ShouldStop", "Cancelled",
                                               "Expired"};
  return kPolls;
}

/// The work anchors: callees that stand for unbounded solver / fan-out work.
/// A loop that transitively reaches one of these must poll. Curated, not
/// inferred — the repo's work entry points are a closed set.
const std::set<std::string>& WorkAnchors() {
  static const std::set<std::string> kAnchors = {
      "SolveIlp",
      "SolveLpFeasibility",
      "ReSolveLpFeasibilityDualInPlace",
      "CheckConsistency",
      "CheckImplication",
      "DecideConsistency",
      "DecideImplication",
      "Explore",
      "RunChunk",
      "CompileDtd",
      "GetOrCompile",
      "Check",
      "Implies",
      "Pivot",
      // src/net: admitting a frame to the worker pool and executing a
      // request are the daemon's fan-out points; every I/O-thread loop that
      // can reach them must observe cancellation (the Dispatch admission
      // path polls the connection's token, so loops calling it inherit the
      // poll).
      "Dispatch",
      "HandleRequest",
      // The fault-injection probes are placed exactly at the unbounded hot
      // sites (pivot iterations, branch-and-bound nodes); a loop that does
      // its work inline — like the simplex pivot loops — calls no solver
      // entry point, but it does carry a probe. Both harnesses mark the
      // same places, so the probe doubles as a work marker here.
      "XICC_FAULT_PROBE",
  };
  return kAnchors;
}

/// A loop annotated `// xicc-analyze: work-loop` (on its own line or the
/// line above) is treated as reaching work regardless of what it calls —
/// the escape hatch for inline-work loops with no probe and no anchor call.
bool WorkLoopAnnotated(const SourceFile& file, size_t line) {
  for (size_t l = (line > 1 ? line - 1 : line); l <= line; ++l) {
    if (l == 0 || l > file.lines.size()) continue;
    if (file.lines[l - 1].raw.find("xicc-analyze: work-loop") !=
        std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Statements a loop may run before its first poll. Purely syntactic: the
/// number of ';' tokens between the loop body's '{' and the first poll site.
constexpr size_t kPollWindow = 64;

bool InScope(const SourceFile& file) {
  return file.dir == "ilp" || file.dir == "core" || file.dir == "net";
}

struct LoopSite {
  size_t begin = 0;  ///< Token index of the body '{' (or first stmt token).
  size_t end = 0;    ///< Token index one past the body.
  size_t line = 0;   ///< Line of the loop keyword.
};

/// Finds for/while/do loops in a function body; loops whose body is a single
/// unbraced statement are covered too (body = up to the ';').
std::vector<LoopSite> FindLoops(const SourceFile& file,
                                const FunctionInfo& fn) {
  std::vector<LoopSite> loops;
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    const std::string& t = tokens[i].text;
    size_t body_at = 0;
    if ((t == "for" || t == "while") && i + 1 < fn.body_end &&
        tokens[i + 1].text == "(") {
      // `while (...)` after a do-body is the do-loop's tail; the do branch
      // below already covered that body, and a tail `while (...) ;` has an
      // empty body, so skipping it here is harmless either way.
      if (i > fn.body_begin + 1 && tokens[i - 1].text == "}" && t == "while") {
        // Heuristic: genuine `} while (...)` tails end with ';'.
        int paren = 0;
        size_t close = i + 1;
        for (; close < fn.body_end; ++close) {
          if (tokens[close].text == "(") ++paren;
          if (tokens[close].text == ")" && --paren == 0) break;
        }
        if (close + 1 < fn.body_end && tokens[close + 1].text == ";") {
          continue;
        }
      }
      int paren = 0;
      size_t close = i + 1;
      for (; close < fn.body_end; ++close) {
        if (tokens[close].text == "(") ++paren;
        if (tokens[close].text == ")" && --paren == 0) break;
      }
      body_at = close + 1;
    } else if (t == "do" && i + 1 < fn.body_end &&
               tokens[i + 1].text == "{") {
      body_at = i + 1;
    } else {
      continue;
    }
    if (body_at >= fn.body_end) continue;
    LoopSite loop;
    loop.line = tokens[i].line;
    if (tokens[body_at].text == "{") {
      int brace = 0;
      size_t close = body_at;
      for (; close < fn.body_end; ++close) {
        if (tokens[close].text == "{") ++brace;
        if (tokens[close].text == "}" && --brace == 0) break;
      }
      loop.begin = body_at;
      loop.end = close + 1;
    } else {
      size_t close = body_at;
      while (close < fn.body_end && tokens[close].text != ";") ++close;
      loop.begin = body_at;
      loop.end = close + 1;
    }
    loops.push_back(loop);
  }
  return loops;
}

}  // namespace

void AnalyzeStopPoll(const SourceModel& model,
                     std::vector<Finding>* findings) {
  // ---- Pass 1: which function NAMES poll, which reach work anchors. ----
  // Matching is by unqualified callee name — an over-approximation in both
  // directions that DESIGN.md §11 spells out.
  std::set<std::string> polling;   // Function names that (transitively) poll.
  std::set<std::string> reaching;  // Function names that reach an anchor.
  std::map<std::string, std::set<std::string>> callees_of;
  for (const SourceFile& file : model.files) {
    if (!InScope(file)) continue;
    for (const FunctionInfo& fn : file.functions) {
      if (!fn.is_definition) continue;
      std::set<std::string>& callees = callees_of[fn.name];
      for (const CallSite& call : fn.calls) {
        callees.insert(call.callee);
        if (PollIdents().count(call.callee) > 0) polling.insert(fn.name);
        if (WorkAnchors().count(call.callee) > 0) reaching.insert(fn.name);
      }
    }
  }
  // Transitive closure, bounded depth (call chains deeper than this are
  // outside the checkable fragment).
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (const auto& [name, callees] : callees_of) {
      for (const std::string& callee : callees) {
        if (polling.count(callee) > 0 && polling.insert(name).second) {
          changed = true;
        }
        if (reaching.count(callee) > 0 && reaching.insert(name).second) {
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // ---- Pass 2: every work loop must poll within the window. ----
  for (const SourceFile& file : model.files) {
    if (!InScope(file)) continue;
    const std::vector<Token>& tokens = file.tokens;
    for (const FunctionInfo& fn : file.functions) {
      if (!fn.is_definition) continue;
      for (const LoopSite& loop : FindLoops(file, fn)) {
        // Does the loop body reach work?
        bool reaches_work = WorkLoopAnnotated(file, loop.line);
        for (size_t i = loop.begin; i < loop.end; ++i) {
          if (tokens[i].kind != Token::Kind::kIdent) continue;
          if (i + 1 >= loop.end || tokens[i + 1].text != "(") continue;
          if (WorkAnchors().count(tokens[i].text) > 0 ||
              reaching.count(tokens[i].text) > 0) {
            reaches_work = true;
            break;
          }
        }
        if (!reaches_work) continue;
        // Find the first poll: a direct poll call or a call into a polling
        // function. Count statements up to it.
        size_t statements_before = 0;
        bool polled = false;
        bool within_window = false;
        for (size_t i = loop.begin; i < loop.end; ++i) {
          const std::string& t = tokens[i].text;
          if (t == ";") {
            ++statements_before;
            continue;
          }
          if (tokens[i].kind != Token::Kind::kIdent) continue;
          const bool is_call = i + 1 < loop.end && tokens[i + 1].text == "(";
          if (!is_call) continue;
          if (PollIdents().count(t) > 0 || polling.count(t) > 0) {
            polled = true;
            within_window = statements_before <= kPollWindow;
            break;
          }
        }
        if (polled && within_window) continue;
        if (file.Suppressed(loop.line, "stop-poll")) continue;
        Finding f;
        f.rule = "stop-poll";
        f.file = file.rel_path;
        f.line = loop.line;
        const std::string where =
            fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
        if (!polled) {
          f.message = "loop in " + where +
                      " reaches solver/fan-out work but never polls the "
                      "StopSignal (ShouldStop/Cancelled): cancellation and "
                      "deadlines cannot reach it";
          f.context = where + " loop-no-poll";
        } else {
          f.message = "loop in " + where + " runs " +
                      std::to_string(statements_before) +
                      " statements before its first StopSignal poll "
                      "(window: " +
                      std::to_string(kPollWindow) +
                      "): move the poll to the top of the body";
          f.context = where + " loop-late-poll";
        }
        findings->push_back(f);
      }
    }
  }
}

}  // namespace xicc
