// XML parser: well-formedness, references, CDATA, DOCTYPE capture, errors.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace xr::xml {
namespace {

TEST(XmlParser, MinimalDocument) {
    auto doc = parse_document("<a/>");
    ASSERT_NE(doc->root(), nullptr);
    EXPECT_EQ(doc->root()->name(), "a");
    EXPECT_TRUE(doc->root()->children().empty());
}

TEST(XmlParser, DeclarationCaptured) {
    auto doc = parse_document("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    EXPECT_EQ(doc->xml_version(), "1.0");
    EXPECT_EQ(doc->encoding(), "UTF-8");
}

TEST(XmlParser, NestedElementsAndText) {
    auto doc = parse_document("<a><b>hello</b><c>world</c></a>");
    auto* root = doc->root();
    ASSERT_EQ(root->child_elements().size(), 2u);
    EXPECT_EQ(root->first_child("b")->text(), "hello");
    EXPECT_EQ(root->first_child("c")->text(), "world");
}

TEST(XmlParser, AttributesParsedAndOrdered) {
    auto doc = parse_document("<a x=\"1\" y='2'/>");
    const auto& attrs = doc->root()->attributes();
    ASSERT_EQ(attrs.size(), 2u);
    EXPECT_EQ(attrs[0].name, "x");
    EXPECT_EQ(attrs[1].name, "y");
    EXPECT_EQ(*doc->root()->attribute("y"), "2");
    EXPECT_EQ(doc->root()->attribute("z"), nullptr);
}

TEST(XmlParser, DuplicateAttributeRejected) {
    EXPECT_THROW(parse_document("<a x=\"1\" x=\"2\"/>"), ParseError);
}

TEST(XmlParser, MismatchedTagsRejected) {
    EXPECT_THROW(parse_document("<a><b></a></b>"), ParseError);
}

TEST(XmlParser, UnterminatedElementRejected) {
    EXPECT_THROW(parse_document("<a><b>"), ParseError);
}

TEST(XmlParser, ContentAfterRootRejected) {
    EXPECT_THROW(parse_document("<a/><b/>"), ParseError);
    EXPECT_THROW(parse_document("<a/>junk"), ParseError);
}

TEST(XmlParser, PredefinedEntitiesDecoded) {
    auto doc = parse_document("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos;</a>");
    EXPECT_EQ(doc->root()->text(), "<tag> & \"q\" 's'");
}

TEST(XmlParser, CharacterReferencesDecimalAndHex) {
    auto doc = parse_document("<a>&#65;&#x42;</a>");
    EXPECT_EQ(doc->root()->text(), "AB");
}

TEST(XmlParser, CharacterReferenceUtf8Encoding) {
    auto doc = parse_document("<a>&#233;</a>");  // é
    EXPECT_EQ(doc->root()->text(), "\xC3\xA9");
}

TEST(XmlParser, UndefinedEntityRejected) {
    EXPECT_THROW(parse_document("<a>&nosuch;</a>"), ParseError);
}

TEST(XmlParser, UserEntitiesExpandRecursively) {
    ParseOptions options;
    options.entities["inner"] = "X";
    options.entities["outer"] = "a&inner;b";
    auto doc = parse_document("<a>&outer;</a>", options);
    EXPECT_EQ(doc->root()->text(), "aXb");
}

TEST(XmlParser, EntityExpansionBombRejected) {
    ParseOptions options;
    options.entities["a"] = std::string(1000, 'x');
    options.entities["b"] = "&a;&a;&a;&a;&a;&a;&a;&a;&a;&a;";
    options.entities["c"] = "&b;&b;&b;&b;&b;&b;&b;&b;&b;&b;";
    options.entities["d"] = "&c;&c;&c;&c;&c;&c;&c;&c;&c;&c;";
    options.max_entity_expansion = 1 << 16;
    EXPECT_THROW(parse_document("<a>&d;</a>", options), ParseError);
}

TEST(XmlParser, AttributeValueReferencesDecoded) {
    auto doc = parse_document("<a x=\"1 &amp; 2\"/>");
    EXPECT_EQ(*doc->root()->attribute("x"), "1 & 2");
}

TEST(XmlParser, LtInAttributeValueRejected) {
    EXPECT_THROW(parse_document("<a x=\"<\"/>"), ParseError);
}

TEST(XmlParser, CDataPreservedVerbatim) {
    auto doc = parse_document("<a><![CDATA[<not> & parsed]]></a>");
    ASSERT_EQ(doc->root()->children().size(), 1u);
    EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kCData);
    EXPECT_EQ(doc->root()->text(), "<not> & parsed");
}

TEST(XmlParser, CommentsKeptByDefaultAndDroppable) {
    auto doc = parse_document("<a><!-- note --></a>");
    ASSERT_EQ(doc->root()->children().size(), 1u);
    EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kComment);

    ParseOptions options;
    options.keep_comments = false;
    auto doc2 = parse_document("<a><!-- note --></a>", options);
    EXPECT_TRUE(doc2->root()->children().empty());
}

TEST(XmlParser, DoubleHyphenInCommentRejected) {
    EXPECT_THROW(parse_document("<a><!-- a -- b --></a>"), ParseError);
}

TEST(XmlParser, ProcessingInstructions) {
    auto doc = parse_document("<?pi some data?><a><?target x?></a>");
    ASSERT_EQ(doc->prolog().size(), 1u);
    const auto& pi = static_cast<const ProcessingInstruction&>(*doc->prolog()[0]);
    EXPECT_EQ(pi.target(), "pi");
    EXPECT_EQ(pi.data(), "some data");
}

TEST(XmlParser, WhitespaceTextDroppedByDefaultKeptOnRequest) {
    auto doc = parse_document("<a>\n  <b/>\n</a>");
    EXPECT_EQ(doc->root()->children().size(), 1u);

    ParseOptions options;
    options.keep_whitespace_text = true;
    auto doc2 = parse_document("<a>\n  <b/>\n</a>", options);
    EXPECT_EQ(doc2->root()->children().size(), 3u);
}

TEST(XmlParser, DoctypeWithSystemId) {
    auto doc = parse_document("<!DOCTYPE root SYSTEM \"root.dtd\"><root/>");
    EXPECT_EQ(doc->doctype().root_name, "root");
    EXPECT_EQ(doc->doctype().system_id, "root.dtd");
}

TEST(XmlParser, DoctypeInternalSubsetCapturedVerbatim) {
    const char* text =
        "<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA \"]\">]><a/>";
    auto doc = parse_document(text);
    EXPECT_NE(doc->doctype().internal_subset.find("<!ELEMENT a (#PCDATA)>"),
              std::string::npos);
    // The ']' inside the quoted default must not terminate the subset.
    EXPECT_NE(doc->doctype().internal_subset.find("\"]\""), std::string::npos);
}

TEST(XmlParser, DoctypePublicId) {
    auto doc = parse_document(
        "<!DOCTYPE html PUBLIC \"-//W3C//DTD\" \"http://x/dtd\"><html/>");
    EXPECT_EQ(doc->doctype().public_id, "-//W3C//DTD");
    EXPECT_EQ(doc->doctype().system_id, "http://x/dtd");
}

TEST(XmlParser, MaxDepthEnforced) {
    std::string text;
    for (int i = 0; i < 64; ++i) text += "<a>";
    text += "x";
    for (int i = 0; i < 64; ++i) text += "</a>";
    ParseOptions options;
    options.max_depth = 32;
    EXPECT_THROW(parse_document(text, options), ParseError);
    options.max_depth = 128;
    EXPECT_NO_THROW(parse_document(text, options));
}

TEST(XmlParser, MaxAttributesEnforced) {
    std::string text = "<a";
    for (int i = 0; i < 8; ++i)
        text += " k" + std::to_string(i) + "=\"v\"";
    text += "/>";
    ParseOptions options;
    options.max_attributes = 4;
    try {
        parse_document(text, options);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("maximum attribute count"),
                  std::string::npos);
    }
    options.max_attributes = 8;
    EXPECT_NO_THROW(parse_document(text, options));
    // The stock defaults accept an ordinary document.
    EXPECT_NO_THROW(parse_document(text));
}

TEST(XmlParser, MaxChildrenEnforced) {
    // The limit is per element: six siblings trip a cap of four even
    // though each nested level is well under it.
    std::string text = "<a>";
    for (int i = 0; i < 6; ++i) text += "<b><c/></b>";
    text += "</a>";
    ParseOptions options;
    options.max_children = 4;
    try {
        parse_document(text, options);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("maximum child-element count"),
                  std::string::npos);
    }
    options.max_children = 6;
    EXPECT_NO_THROW(parse_document(text, options));
    EXPECT_NO_THROW(parse_document(text));
}

TEST(XmlParser, LoaderAppliesParseLimits) {
    // BulkLoadOptions::parse reaches the parser: a corpus whose documents
    // exceed the configured depth fails document-scoped, not globally.
    test::Stack stack(gen::paper_dtd());
    std::string deep = "<article><title>";
    for (int i = 0; i < 6; ++i) deep += "<x>";
    deep += "t";
    for (int i = 0; i < 6; ++i) deep += "</x>";
    deep += "</title></article>";
    loader::BulkLoadOptions options =
        test::one_worker(loader::FailurePolicy::kSkip);
    options.parse.max_depth = 4;
    loader::LoadReport report = test::load_texts(stack, {deep}, options);
    EXPECT_EQ(report.loaded, 0u);
    EXPECT_EQ(report.failed, 1u);
}

TEST(XmlParser, LocationsPointAtTags) {
    auto doc = parse_document("<a>\n  <b/>\n</a>");
    auto* b = doc->root()->first_child("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->location().line, 2u);
}

TEST(XmlParser, EventStreamOrder) {
    struct Recorder : EventHandler {
        std::string log;
        void on_start_element(std::string_view name, std::vector<Attribute>,
                              SourceLocation) override {
            log += "<" + std::string(name) + ">";
        }
        void on_end_element(std::string_view name) override {
            log += "</" + std::string(name) + ">";
        }
        void on_text(std::string_view content, bool, SourceLocation) override {
            log += std::string(content);
        }
    } recorder;
    parse("<a><b>x</b><c/></a>", recorder);
    EXPECT_EQ(recorder.log, "<a><b>x</b><c></c></a>");
}

}  // namespace
}  // namespace xr::xml
