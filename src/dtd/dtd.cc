#include "dtd/dtd.h"

#include <functional>

#include "base/strings.h"

namespace xicc {

const std::vector<std::string>& Dtd::AttributesOf(
    const std::string& name) const {
  static const std::vector<std::string> kEmpty;
  auto it = attributes_.find(name);
  return it == attributes_.end() ? kEmpty : it->second;
}

bool Dtd::HasAttribute(const std::string& element,
                       const std::string& attr) const {
  auto it = attributes_.find(element);
  if (it == attributes_.end()) return false;
  for (const std::string& a : it->second) {
    if (a == attr) return true;
  }
  return false;
}

AttrKind Dtd::AttributeKind(const std::string& element,
                            const std::string& attr) const {
  auto it = attr_kinds_.find({element, attr});
  return it == attr_kinds_.end() ? AttrKind::kCdata : it->second;
}

size_t Dtd::Size() const {
  size_t size = elements_.size();
  for (const auto& [name, content] : content_) size += content->Size();
  for (const auto& [name, attrs] : attributes_) size += attrs.size();
  return size;
}

std::vector<std::pair<std::string, std::string>> Dtd::AllAttributePairs()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& element : elements_) {
    for (const std::string& attr : AttributesOf(element)) {
      out.emplace_back(element, attr);
    }
  }
  return out;
}

std::string Dtd::ToString() const {
  std::string out;
  auto declare = [&](const std::string& element) {
    out += "<!ELEMENT " + element + " ";
    const RegexPtr& content = content_.at(element);
    switch (content->kind()) {
      case Regex::Kind::kString:
        out += "(#PCDATA)";
        break;
      case Regex::Kind::kElement:
        // Bare names are not valid DTD content syntax; wrap them.
        out += "(" + content->ToString() + ")";
        break;
      default:
        out += content->ToString();
    }
    out += ">\n";
    const auto& attrs = AttributesOf(element);
    if (!attrs.empty()) {
      out += "<!ATTLIST " + element;
      for (const std::string& attr : attrs) {
        const char* type = "CDATA";
        switch (AttributeKind(element, attr)) {
          case AttrKind::kId:
            type = "ID";
            break;
          case AttrKind::kIdref:
            type = "IDREF";
            break;
          default:
            break;
        }
        out += " " + attr + " " + type + " #REQUIRED";
      }
      out += ">\n";
    }
  };
  // The root's declarations come first: without a <!DOCTYPE>, the parser
  // takes the first declared element as the root, so the text names its
  // root and ParseDtd(ToString()) round-trips.
  declare(root_);
  for (const std::string& element : elements_) {
    if (element != root_) declare(element);
  }
  return out;
}

DtdBuilder& DtdBuilder::AddElement(const std::string& name, RegexPtr content) {
  if (content_.emplace(name, content).second) {
    order_.push_back(name);
  } else {
    content_[name] = std::move(content);
  }
  return *this;
}

DtdBuilder& DtdBuilder::AddAttribute(const std::string& name,
                                     const std::string& attr, AttrKind kind) {
  attributes_[name].insert(attr);
  if (kind != AttrKind::kCdata) attr_kinds_[{name, attr}] = kind;
  return *this;
}

DtdBuilder& DtdBuilder::SetRoot(const std::string& name) {
  root_ = name;
  return *this;
}

Result<Dtd> DtdBuilder::Build() const {
  if (order_.empty()) {
    return Status::InvalidArgument("DTD declares no element types");
  }
  std::string root = root_.empty() ? order_.front() : root_;
  if (content_.find(root) == content_.end()) {
    return Status::InvalidArgument("root element type '" + root +
                                   "' is not declared");
  }

  // Validate names and content-model references; detect root occurrences.
  for (const std::string& name : order_) {
    if (!IsValidName(name)) {
      return Status::InvalidArgument("invalid element type name '" + name +
                                     "'");
    }
  }
  Status deferred = Status::Ok();
  std::function<void(const Regex&, const std::string&)> visit =
      [&](const Regex& node, const std::string& owner) {
        if (!deferred.ok()) return;
        switch (node.kind()) {
          case Regex::Kind::kElement:
            if (content_.find(node.name()) == content_.end()) {
              deferred = Status::InvalidArgument(
                  "content model of '" + owner +
                  "' references undeclared element type '" + node.name() +
                  "'");
            } else if (node.name() == root) {
              deferred = Status::InvalidArgument(
                  "root element type '" + root +
                  "' occurs in the content model of '" + owner +
                  "' (the model requires the root to be top-level only)");
            }
            break;
          case Regex::Kind::kUnion:
          case Regex::Kind::kConcat:
            visit(*node.left(), owner);
            visit(*node.right(), owner);
            break;
          case Regex::Kind::kStar:
            visit(*node.child(), owner);
            break;
          case Regex::Kind::kEpsilon:
          case Regex::Kind::kString:
            break;
        }
      };
  for (const auto& [name, content] : content_) visit(*content, name);
  if (!deferred.ok()) return deferred;

  for (const auto& [element, attrs] : attributes_) {
    if (content_.find(element) == content_.end()) {
      return Status::InvalidArgument(
          "attributes declared for undeclared element type '" + element +
          "'");
    }
    for (const std::string& attr : attrs) {
      if (!IsValidName(attr)) {
        return Status::InvalidArgument("invalid attribute name '" + attr +
                                       "' on element type '" + element + "'");
      }
    }
  }

  Dtd dtd;
  dtd.root_ = std::move(root);
  dtd.elements_ = order_;
  dtd.content_ = content_;
  for (const auto& [element, attrs] : attributes_) {
    dtd.attributes_[element] =
        std::vector<std::string>(attrs.begin(), attrs.end());
  }
  dtd.attr_kinds_ = attr_kinds_;
  return dtd;
}

}  // namespace xicc
