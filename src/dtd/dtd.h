#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "dtd/regex.h"

namespace xicc {

/// Declared type of an attribute. The paper's model treats every attribute
/// as string-valued and required; the kinds are retained so the ID/IDREF
/// sublanguage of DTDs can be translated into constraints (see
/// constraints/id_idref.h and footnote 1 of the paper).
enum class AttrKind {
  kCdata,  ///< Plain string (the model's native notion).
  kId,     ///< XML ID: document-wide unique.
  kIdref,  ///< XML IDREF: must match some ID in the document.
  kOther,  ///< Enumerations, NMTOKEN, IDREFS, … — treated as strings.
};

/// A DTD D = (E, A, P, R, r) per Definition 2.1:
///  - E: element types, in declaration order;
///  - A: attributes (the union of all R(τ));
///  - P: element type definitions (content-model regexes);
///  - R: attributes defined for each element type;
///  - r: the root element type.
///
/// Invariants established by DtdBuilder::Build:
///  - every element type mentioned in a content model is declared;
///  - the root is declared and occurs in no content model (the paper's
///    standing assumption);
///  - names are valid XML names.
class Dtd {
 public:
  const std::string& root() const { return root_; }
  /// E, in declaration order.
  const std::vector<std::string>& elements() const { return elements_; }
  bool HasElement(const std::string& name) const {
    return content_.count(name) > 0;
  }
  /// P(τ). τ must be declared.
  const RegexPtr& ContentOf(const std::string& name) const {
    return content_.at(name);
  }
  /// R(τ), sorted. τ must be declared.
  const std::vector<std::string>& AttributesOf(const std::string& name) const;
  bool HasAttribute(const std::string& element,
                    const std::string& attr) const;
  /// Declared kind of (element, attr); kCdata when undeclared.
  AttrKind AttributeKind(const std::string& element,
                         const std::string& attr) const;

  /// |D|: the size measure used in the complexity results — element count
  /// plus total content-model AST size plus attribute count.
  size_t Size() const;

  /// All (τ, l) pairs with l ∈ R(τ), in deterministic order.
  std::vector<std::pair<std::string, std::string>> AllAttributePairs() const;

  /// Renders as `<!ELEMENT ...>` / `<!ATTLIST ...>` declarations, the
  /// root's first, so ParseDtd reads the same root back and DTDs that differ
  /// only in their root render differently.
  std::string ToString() const;

 private:
  friend class DtdBuilder;

  std::string root_;
  std::vector<std::string> elements_;
  std::map<std::string, RegexPtr> content_;
  std::map<std::string, std::vector<std::string>> attributes_;
  std::map<std::pair<std::string, std::string>, AttrKind> attr_kinds_;
};

/// Incremental construction of a Dtd with validation at Build time.
class DtdBuilder {
 public:
  /// Declares element type `name` with content model `content`. Redeclaring
  /// a name overwrites its content model.
  DtdBuilder& AddElement(const std::string& name, RegexPtr content);
  /// Declares attribute `attr` for element type `name` (idempotent; a
  /// redeclaration may upgrade the kind).
  DtdBuilder& AddAttribute(const std::string& name, const std::string& attr,
                           AttrKind kind = AttrKind::kCdata);
  /// Sets the root element type. Defaults to the first declared element.
  DtdBuilder& SetRoot(const std::string& name);

  /// Validates and produces the Dtd. Fails if a content model references an
  /// undeclared element type, the root is missing or occurs in a content
  /// model, an attribute is declared for an undeclared element, or a name is
  /// not a valid XML name.
  Result<Dtd> Build() const;

 private:
  std::string root_;
  std::vector<std::string> order_;
  std::map<std::string, RegexPtr> content_;
  std::map<std::string, std::set<std::string>> attributes_;
  std::map<std::pair<std::string, std::string>, AttrKind> attr_kinds_;
};

}  // namespace xicc
