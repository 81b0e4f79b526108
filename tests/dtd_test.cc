#include <gtest/gtest.h>

#include "dtd/dtd.h"
#include "dtd/dtd_parser.h"
#include "dtd/regex.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

// ------------------------------------------------------------------ Regex.

TEST(RegexTest, KindsAndAccessors) {
  RegexPtr r = Regex::Concat(Regex::Elem("a"),
                             Regex::Star(Regex::Union(Regex::Elem("b"),
                                                      Regex::Epsilon())));
  EXPECT_EQ(r->kind(), Regex::Kind::kConcat);
  EXPECT_EQ(r->left()->name(), "a");
  EXPECT_EQ(r->right()->kind(), Regex::Kind::kStar);
  EXPECT_EQ(r->right()->child()->kind(), Regex::Kind::kUnion);
}

TEST(RegexTest, Nullable) {
  EXPECT_TRUE(Regex::Epsilon()->Nullable());
  EXPECT_FALSE(Regex::Str()->Nullable());
  EXPECT_FALSE(Regex::Elem("a")->Nullable());
  EXPECT_TRUE(Regex::Star(Regex::Elem("a"))->Nullable());
  EXPECT_TRUE(
      Regex::Union(Regex::Elem("a"), Regex::Epsilon())->Nullable());
  EXPECT_FALSE(
      Regex::Concat(Regex::Elem("a"), Regex::Epsilon())->Nullable());
  EXPECT_TRUE(Regex::Concat(Regex::Epsilon(), Regex::Star(Regex::Elem("a")))
                  ->Nullable());
}

TEST(RegexTest, DesugarOptionalPlus) {
  RegexPtr opt = Regex::Optional(Regex::Elem("a"));
  EXPECT_EQ(opt->kind(), Regex::Kind::kUnion);
  EXPECT_EQ(opt->right()->kind(), Regex::Kind::kEpsilon);

  RegexPtr plus = Regex::Plus(Regex::Elem("a"));
  EXPECT_EQ(plus->kind(), Regex::Kind::kConcat);
  EXPECT_EQ(plus->right()->kind(), Regex::Kind::kStar);
}

TEST(RegexTest, FoldsAreRightNested) {
  RegexPtr seq = Regex::ConcatAll(
      {Regex::Elem("a"), Regex::Elem("b"), Regex::Elem("c")});
  EXPECT_EQ(seq->kind(), Regex::Kind::kConcat);
  EXPECT_EQ(seq->left()->name(), "a");
  EXPECT_EQ(seq->right()->kind(), Regex::Kind::kConcat);
  EXPECT_EQ(Regex::ConcatAll({})->kind(), Regex::Kind::kEpsilon);
  EXPECT_EQ(Regex::ConcatAll({Regex::Elem("x")})->name(), "x");
}

TEST(RegexTest, SizeAndToString) {
  RegexPtr r = Regex::Concat(Regex::Elem("a"), Regex::Star(Regex::Elem("b")));
  EXPECT_EQ(r->Size(), 4u);
  EXPECT_EQ(r->ToString(), "(a, (b)*)");
  EXPECT_EQ(Regex::Epsilon()->ToString(), "EMPTY");
  EXPECT_EQ(Regex::Str()->ToString(), "#PCDATA");
}

TEST(RegexTest, StructuralEquality) {
  RegexPtr a = Regex::Union(Regex::Elem("x"), Regex::Str());
  RegexPtr b = Regex::Union(Regex::Elem("x"), Regex::Str());
  RegexPtr c = Regex::Union(Regex::Str(), Regex::Elem("x"));
  EXPECT_TRUE(Regex::Equal(*a, *b));
  EXPECT_FALSE(Regex::Equal(*a, *c));
}

// -------------------------------------------------------------- DtdBuilder.

TEST(DtdBuilderTest, BuildsTeacherDtd) {
  Dtd dtd = workloads::TeacherDtd();
  EXPECT_EQ(dtd.root(), "teachers");
  EXPECT_EQ(dtd.elements().size(), 5u);
  EXPECT_TRUE(dtd.HasAttribute("teacher", "name"));
  EXPECT_TRUE(dtd.HasAttribute("subject", "taught_by"));
  EXPECT_FALSE(dtd.HasAttribute("teach", "name"));
  EXPECT_EQ(dtd.AttributesOf("research").size(), 0u);
  auto pairs = dtd.AllAttributePairs();
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(DtdBuilderTest, RejectsUndeclaredReference) {
  DtdBuilder builder;
  builder.AddElement("r", Regex::Elem("ghost"));
  auto dtd = builder.Build();
  ASSERT_FALSE(dtd.ok());
  EXPECT_NE(dtd.status().message().find("ghost"), std::string::npos);
}

TEST(DtdBuilderTest, RejectsRootInContentModel) {
  DtdBuilder builder;
  builder.AddElement("r", Regex::Elem("a"));
  builder.AddElement("a", Regex::Elem("r"));
  auto dtd = builder.Build();
  ASSERT_FALSE(dtd.ok());
  EXPECT_EQ(dtd.status().code(), StatusCode::kInvalidArgument);
}

TEST(DtdBuilderTest, RejectsMissingRootAndEmptyDtd) {
  EXPECT_FALSE(DtdBuilder().Build().ok());
  DtdBuilder builder;
  builder.AddElement("a", Regex::Epsilon());
  builder.SetRoot("missing");
  EXPECT_FALSE(builder.Build().ok());
}

TEST(DtdBuilderTest, RejectsAttributesOnUndeclaredElement) {
  DtdBuilder builder;
  builder.AddElement("r", Regex::Epsilon());
  builder.AddAttribute("ghost", "id");
  EXPECT_FALSE(builder.Build().ok());
}

TEST(DtdBuilderTest, DefaultRootIsFirstElement) {
  DtdBuilder builder;
  builder.AddElement("first", Regex::Elem("second"));
  builder.AddElement("second", Regex::Epsilon());
  auto dtd = builder.Build();
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(dtd->root(), "first");
}

TEST(DtdTest, SizeAccountsForContentAndAttributes) {
  Dtd dtd = workloads::TeacherDtd();
  // 5 elements + content sizes + 2 attributes.
  EXPECT_GT(dtd.Size(), 7u);
}

// -------------------------------------------------------------- DtdParser.

TEST(DtdParserTest, ParsesTeacherSyntax) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT teachers (teacher+)>
    <!ELEMENT teacher (teach, research)>
    <!ELEMENT teach (subject, subject)>
    <!ELEMENT subject (#PCDATA)>
    <!ELEMENT research (#PCDATA)>
    <!ATTLIST teacher name CDATA #REQUIRED>
    <!ATTLIST subject taught_by CDATA #REQUIRED>
  )");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->root(), "teachers");
  EXPECT_EQ(dtd->ContentOf("teacher")->ToString(), "(teach, research)");
  // a+ desugars to (a, a*).
  EXPECT_EQ(dtd->ContentOf("teachers")->kind(), Regex::Kind::kConcat);
  EXPECT_TRUE(dtd->HasAttribute("subject", "taught_by"));
}

TEST(DtdParserTest, DoctypeWrapperSetsRoot) {
  auto dtd = ParseDtd(R"(<!DOCTYPE b [
    <!ELEMENT a EMPTY>
    <!ELEMENT b (a?)>
  ]>)");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->root(), "b");
}

TEST(DtdParserTest, OccurrenceOperators) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT r (a?, b*, c+)>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
    <!ELEMENT c EMPTY>
  )");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  // a? renders back as "(a)?" — the round-trippable form (nested "EMPTY"
  // is not valid content syntax).
  EXPECT_EQ(dtd->ContentOf("r")->ToString(),
            "((a)?, ((b)*, (c, (c)*)))");
}

TEST(DtdParserTest, MixedContentAndNestedGroups) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT r ((#PCDATA | a)*, (a | b))>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
  )");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->ContentOf("r")->kind(), Regex::Kind::kConcat);
}

TEST(DtdParserTest, AttlistVariants) {
  auto dtd = ParseDtd(R"(
    <!ELEMENT r EMPTY>
    <!ATTLIST r
      id    ID           #REQUIRED
      kind  (alpha|beta) "alpha"
      note  CDATA        #IMPLIED
      fixed CDATA        #FIXED "x">
  )");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->AttributesOf("r").size(), 4u);
}

TEST(DtdParserTest, RejectsAnyAndMixedSeparators) {
  EXPECT_FALSE(ParseDtd("<!ELEMENT r ANY>").ok());
  auto mixed = ParseDtd(R"(
    <!ELEMENT r (a, b | c)>
    <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>
  )");
  EXPECT_FALSE(mixed.ok());
}

TEST(DtdParserTest, ErrorPositionsAndGarbage) {
  auto bad = ParseDtd("<!ELEMENT r (a>");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("dtd:1:"), std::string::npos);
  EXPECT_FALSE(ParseDtd("hello").ok());
}

TEST(DtdParserTest, RoundTripThroughToString) {
  // The generated catalog and auction schemas declare their root last;
  // without a <!DOCTYPE> the parser takes the first declaration as the root.
  for (const Dtd& original : {workloads::SchoolDtd(), workloads::CatalogDtd(4),
                              workloads::AuctionDtd(3)}) {
    auto reparsed = ParseDtd(original.ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n"
                               << original.ToString();
    EXPECT_EQ(reparsed->root(), original.root());
    EXPECT_EQ(reparsed->elements().size(), original.elements().size());
    for (const std::string& element : original.elements()) {
      EXPECT_TRUE(
          Regex::Equal(*reparsed->ContentOf(element),
                       *original.ContentOf(element)))
          << element;
      EXPECT_EQ(reparsed->AttributesOf(element),
                original.AttributesOf(element));
    }
  }
}


TEST(DtdParserLimitsTest, GroupNestingBombIsRejectedNotOverflowed) {
  // (((((...a...))))) 100k deep: each level is a ParseGroupOrAtom frame.
  constexpr size_t kDepth = 100'000;
  std::string bomb = "<!ELEMENT r ";
  bomb += std::string(kDepth, '(');
  bomb += "a";
  bomb += std::string(kDepth, ')');
  bomb += ">";
  auto dtd = ParseDtd(bomb);
  ASSERT_FALSE(dtd.ok());
  EXPECT_EQ(dtd.status().code(), StatusCode::kInvalidArgument);
}

TEST(DtdParserLimitsTest, ReasonableNestingStillParses) {
  auto dtd = ParseDtd("<!ELEMENT r ((((a, b) | c)*, d)?)>"
                      "<!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
                      "<!ELEMENT c EMPTY><!ELEMENT d EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
}

}  // namespace
}  // namespace xicc
