#include "dtd/compiled.h"

namespace xicc {

CompiledContentModels CompiledContentModels::Build(const Dtd& dtd,
                                                   size_t max_states) {
  CompiledContentModels out;
  for (const std::string& type : dtd.elements()) {
    auto matcher = std::make_shared<ContentModelMatcher>(dtd.ContentOf(type));
    if (matcher->Freeze(max_states)) {
      out.matchers_.emplace(type, std::move(matcher));
    }
  }
  return out;
}

void CompiledContentModels::InsertLoaded(
    const std::string& type,
    std::shared_ptr<const ContentModelMatcher> matcher) {
  matchers_.insert_or_assign(type, std::move(matcher));
}

const ContentModelMatcher* CompiledContentModels::MatcherFor(
    const std::string& type) const {
  auto it = matchers_.find(type);
  return it == matchers_.end() ? nullptr : it->second.get();
}

}  // namespace xicc
