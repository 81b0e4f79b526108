#pragma once

#include <map>
#include <memory>
#include <string>

#include "dtd/analysis.h"
#include "dtd/dtd.h"
#include "dtd/glushkov.h"

namespace xicc {

/// One Glushkov matcher per element type, frozen into an immutable DFA so a
/// single instance can serve concurrent validations. Content models whose
/// subset construction blows past the state cap are simply not cached —
/// MatcherFor returns nullptr and the caller builds a private lazy matcher.
class CompiledContentModels {
 public:
  CompiledContentModels() = default;

  /// Builds and freezes a matcher for every element type of `dtd`.
  /// `max_states` caps the eager subset construction per content model.
  static CompiledContentModels Build(const Dtd& dtd, size_t max_states = 4096);

  /// The frozen matcher for `type`, or nullptr when the type is unknown or
  /// its DFA exceeded the freeze cap. Never returns an unfrozen matcher.
  const ContentModelMatcher* MatcherFor(const std::string& type) const;

  size_t size() const { return matchers_.size(); }

  /// Artifact-load hook (core/artifact): installs an already-frozen matcher
  /// for `type`, as Build would have. The matcher must be frozen; types the
  /// artifact omits (freeze-cap overflows at compile time) simply stay
  /// absent, preserving MatcherFor's nullptr contract.
  void InsertLoaded(const std::string& type,
                    std::shared_ptr<const ContentModelMatcher> matcher);

  /// Iteration for artifact serialization, in deterministic (sorted) order.
  const std::map<std::string, std::shared_ptr<const ContentModelMatcher>>&
  matchers() const {
    return matchers_;
  }

 private:
  // shared_ptr so CompiledContentModels itself stays cheaply copyable while
  // the (large) frozen DFAs are built exactly once.
  std::map<std::string, std::shared_ptr<const ContentModelMatcher>> matchers_;
};

}  // namespace xicc
