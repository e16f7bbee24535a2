// Error-path coverage across subsystems: every user-facing failure mode
// should raise the right exception type with a useful message, never
// crash or silently corrupt.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hpp"
#include "loader/reconstruct.hpp"
#include "sql/executor.hpp"
#include "xml/serializer.hpp"
#include "xquery/sql_translate.hpp"

namespace xr {
namespace {

using test::Stack;

/// A corpus that exercises every document-scoped failure mode: two good
/// articles, a malformed text, a validation failure (duplicate title) and
/// an element the paper DTD never declares.  Good documents sit at
/// indices 0 and 3.
std::vector<std::string> mixed_corpus() {
    return {
        "<article><title>t0</title>"
        "<author id=\"a0\"><name><lastname>L0</lastname></name></author>"
        "<contactauthor authorid=\"a0\"/></article>",
        "<article><title>t1</title></unclosed>",  // malformed XML
        "<article><title>dup</title><title>dup</title></article>",  // invalid
        "<article><title>t3</title>"
        "<author id=\"a3\"><name><lastname>L3</lastname></name></author>"
        "<contactauthor authorid=\"a3\"/></article>",
        "<bogus><x/></bogus>",  // parses, but maps to nothing
    };
}

std::vector<std::string> good_only(const std::vector<std::string>& corpus,
                                   std::initializer_list<std::size_t> good) {
    std::vector<std::string> out;
    for (std::size_t i : good) out.push_back(corpus[i]);
    return out;
}

TEST(XmlErrors, MalformedInputs) {
    for (const char* bad : {
             "",                          // no root
             "<",                         // truncated
             "<1tag/>",                   // invalid name
             "<a b=c/>",                  // unquoted attribute
             "<a><!-- unterminated",      //
             "<a><![CDATA[open</a>",      //
             "<a>&#xZZ;</a>",             // bad char ref
             "<a></b>",                   // mismatched tags
             "<?xml version=\"1.0\"?>",   // declaration only
             "text only",                 // no element
         }) {
        EXPECT_THROW((void)xml::parse_document(bad), ParseError) << bad;
    }
}

TEST(XmlErrors, LocationsAreActionable) {
    try {
        (void)xml::parse_document("<a>\n  <b>\n</a>");
        FAIL();
    } catch (const ParseError& e) {
        EXPECT_GE(e.where().line, 2u);
        EXPECT_NE(std::string(e.what()).find(":"), std::string::npos);
    }
}

TEST(DtdErrors, MalformedDeclarations) {
    for (const char* bad : {
             "<!ELEMENT>",                        // no name
             "<!ELEMENT a>",                      // no content spec
             "<!ELEMENT a (b,)>",                 // dangling separator
             "<!ELEMENT a (b | c, d)>",           // mixed separators
             "<!ELEMENT a (#PCDATA | b)>",        // mixed without '*'
             "<!ATTLIST a x BOGUS #IMPLIED>",     // unknown attr type
             "<!ATTLIST a x CDATA>",              // missing default
             "<!ENTITY e>",                       // no value
             "<!NOTATION n>",                     // no identifier
             "<!WHAT a EMPTY>",                   // unknown declaration
         }) {
        EXPECT_THROW((void)dtd::parse_dtd(bad), Error) << bad;
    }
}

TEST(MappingErrors, DuplicateElementsRejectedBeforeMapping) {
    EXPECT_THROW((void)dtd::parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a EMPTY>"),
                 SchemaError);
}

TEST(LoaderErrors, WrongDocumentForDtd) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document("<order id=\"o1\"/>");
    EXPECT_THROW(stack.loader->load(*doc), ValidationError);
    // And without validation, strict loading still refuses unmapped roots.
    loader::LoadOptions options;
    options.validate = false;
    EXPECT_THROW(stack.loader->load(*doc, options), ValidationError);
}

TEST(LoaderErrors, NothingPersistedFromRejectedDocument) {
    // Validation happens before any row is written, so a rejected document
    // leaves the database untouched.
    Stack stack(gen::paper_dtd());
    auto bad = xml::parse_document("<article><title>t</title></article>");
    EXPECT_THROW(stack.loader->load(*bad), ValidationError);
    EXPECT_EQ(stack.db.require("article").row_count(), 0u);
    EXPECT_EQ(stack.loader->stats().documents, 0u);
}

TEST(LoaderErrors, MidDocumentFailureRollsBackPartialRows) {
    // The unmapped element sits after loadable content, so rows for the
    // article and its author are already written when the shred fails —
    // the load unit must erase them all.
    Stack stack(gen::paper_dtd());
    auto before = test::db_fingerprint(stack.db);
    auto bad = xml::parse_document(
        "<article><title>t</title>"
        "<author id=\"a1\"><name><lastname>L</lastname></name></author>"
        "<bogus/></article>");
    loader::LoadOptions options;
    options.validate = false;  // let the strict shredder hit <bogus/> itself
    EXPECT_THROW(stack.loader->load(*bad, options), ValidationError);
    EXPECT_EQ(test::db_fingerprint(stack.db), before);
    EXPECT_EQ(stack.loader->stats().documents, 0u);

    // Doc ids and pk counters rewound too: a good document now loads
    // exactly as it would into a fresh database.
    auto good = xml::parse_document(mixed_corpus()[0]);
    EXPECT_EQ(stack.loader->load(*good), 1);
    Stack fresh(gen::paper_dtd());
    auto good2 = xml::parse_document(mixed_corpus()[0]);
    fresh.loader->load(*good2);
    EXPECT_EQ(test::db_fingerprint(stack.db), test::db_fingerprint(fresh.db));
}

TEST(LoaderErrors, FailFastCorpusLoadIsAtomic) {
    Stack stack(gen::paper_dtd());
    loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema,
                            stack.db);
    auto before = test::db_fingerprint(stack.db);
    EXPECT_THROW(bulk.load_texts(mixed_corpus(), test::one_worker()), Error);
    EXPECT_EQ(test::db_fingerprint(stack.db), before);
    EXPECT_EQ(bulk.stats().documents, 0u);
}

TEST(LoaderErrors, SkipPolicyMatchesGoodOnlyLoadByteForByte) {
    std::vector<std::string> corpus = mixed_corpus();

    Stack mixed(gen::paper_dtd());
    loader::BulkLoader mixed_loader(mixed.logical, mixed.mapping,
                                    mixed.schema, mixed.db);
    loader::LoadReport report = mixed_loader.load_texts(
        corpus, test::one_worker(loader::FailurePolicy::kSkip));
    EXPECT_EQ(report.attempted, 5u);
    EXPECT_EQ(report.loaded, 2u);
    EXPECT_EQ(report.failed, 3u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.outcomes.size(), 5u);
    EXPECT_EQ(report.outcomes[0].doc, 1);
    EXPECT_EQ(report.outcomes[1].error_type, "parse");
    EXPECT_EQ(report.outcomes[2].error_type, "validation");
    EXPECT_EQ(report.outcomes[3].doc, 2);  // dense over the survivors
    EXPECT_EQ(report.outcomes[4].error_type, "validation");
    EXPECT_EQ(report.errors.size(), 3u);

    Stack good(gen::paper_dtd());
    loader::BulkLoader good_loader(good.logical, good.mapping, good.schema,
                                   good.db);
    loader::LoadReport good_report =
        good_loader.load_texts(good_only(corpus, {0, 3}), test::one_worker());
    EXPECT_TRUE(good_report.ok());
    EXPECT_EQ(test::db_fingerprint(mixed.db), test::db_fingerprint(good.db));

    // The rejected documents left no trace in the loader either: stats
    // match a loader that never saw them.
    EXPECT_EQ(mixed_loader.stats().documents, 2u);
    EXPECT_EQ(mixed_loader.stats().elements_visited,
              good_loader.stats().elements_visited);
}

TEST(LoaderErrors, QuarantinePolicyRecordsRejectedDocuments) {
    std::vector<std::string> corpus = mixed_corpus();
    Stack stack(gen::paper_dtd());
    loader::LoadReport report = test::load_texts(
        stack, corpus, test::one_worker(loader::FailurePolicy::kQuarantine));
    EXPECT_EQ(report.loaded, 2u);
    EXPECT_EQ(report.quarantined, 3u);

    const rdb::Table* q = stack.db.table(loader::kQuarantineTable);
    ASSERT_NE(q, nullptr);
    ASSERT_EQ(q->row_count(), 3u);
    int idx = q->def().column_index("idx");
    int type = q->def().column_index("error_type");
    int raw = q->def().column_index("raw_xml");
    EXPECT_EQ(q->row(0)[idx].as_integer(), 1);
    EXPECT_EQ(q->row(0)[type].to_string(), "parse");
    EXPECT_EQ(q->row(0)[raw].to_string(), corpus[1]);
    EXPECT_EQ(q->row(1)[idx].as_integer(), 2);
    EXPECT_EQ(q->row(2)[idx].as_integer(), 4);

    // Everything except the quarantine table matches the good-only load.
    Stack good(gen::paper_dtd());
    test::load_texts(good, good_only(corpus, {0, 3}));
    std::vector<std::string> data_rows;
    for (const auto& line : test::db_fingerprint(stack.db))
        if (line.rfind(loader::kQuarantineTable, 0) != 0)
            data_rows.push_back(line);
    EXPECT_EQ(data_rows, test::db_fingerprint(good.db));
}

TEST(LoaderErrors, AllFailingCorpusIsANoOp) {
    Stack stack(gen::paper_dtd());
    auto before = test::db_fingerprint(stack.db);
    std::vector<std::string> corpus = {mixed_corpus()[1], mixed_corpus()[2]};
    loader::LoadReport report = test::load_texts(
        stack, corpus, test::one_worker(loader::FailurePolicy::kSkip));
    EXPECT_EQ(report.loaded, 0u);
    EXPECT_EQ(report.failed, 2u);
    EXPECT_EQ(test::db_fingerprint(stack.db), before);
}

TEST(ReconstructErrors, MissingRowAndUnknownEntity) {
    Stack stack(gen::paper_dtd());
    loader::Reconstructor reconstructor(stack.mapping, stack.schema, stack.db);
    EXPECT_THROW((void)reconstructor.reconstruct_element("author", 7),
                 SchemaError);
    EXPECT_THROW((void)reconstructor.reconstruct_element("ghost", 1),
                 SchemaError);
    EXPECT_THROW((void)reconstructor.reconstruct(1), SchemaError);
}

TEST(SqlErrors, MessagesNameTheProblem) {
    Stack stack(gen::paper_dtd());
    try {
        (void)sql::execute(stack.db, "SELECT bogus FROM article");
        FAIL();
    } catch (const QueryError& e) {
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    }
    try {
        (void)sql::execute(stack.db, "SELECT * FROM ghost");
        FAIL();
    } catch (const QueryError& e) {
        EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    }
}

TEST(QueryErrors, TranslatorNamesTheUntranslatablePiece) {
    Stack stack(gen::paper_dtd());
    xquery::SqlTranslator tr(stack.mapping, stack.schema);
    try {
        (void)tr.translate(xquery::parse_query("/article/ghost"));
        FAIL();
    } catch (const QueryError& e) {
        EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    }
}

TEST(RdbErrors, ConstraintMessagesNameTableAndColumn) {
    rdb::TableDef def;
    def.name = "t";
    def.columns = {{"pk", rdb::ValueType::kInteger, true, true},
                   {"v", rdb::ValueType::kText, true, false}};
    rdb::Table table(def);
    try {
        table.insert({rdb::Value::null(), rdb::Value::null()});
        FAIL();
    } catch (const SchemaError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("'v'"), std::string::npos);
        EXPECT_NE(what.find("'t'"), std::string::npos);
    }
}

TEST(GenErrors, RequiredRecursionDetected) {
    // A DTD that *requires* unbounded depth cannot be instantiated; the
    // generator reports it instead of overflowing the stack.
    dtd::Dtd d = dtd::parse_dtd("<!ELEMENT a (a)>");
    gen::DocGenParams params;
    params.max_depth = 64;
    EXPECT_THROW((void)gen::generate_document(d, "a", params), SchemaError);
}

TEST(ValidatorErrors, EveryIssueCarriesContext) {
    Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(
        "<article><title>t</title><title>dup</title></article>");
    validate::Validator validator(stack.logical);
    auto result = validator.validate(*doc);
    ASSERT_FALSE(result.ok());
    for (const auto& issue : result.issues) {
        EXPECT_FALSE(issue.message.empty());
        EXPECT_TRUE(issue.where.valid());
    }
}

}  // namespace
}  // namespace xr
