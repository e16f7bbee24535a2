// Structural interval indexing (DESIGN.md §10): Dietz (pre, post, level)
// label assignment, the ordered pre index and its range scans, interval
// plan selection, label equivalence between the serial and bulk loaders,
// gap tolerance across fault paths, and label / index survival through
// snapshot + WAL recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "loader/bulk_loader.hpp"
#include "query/service.hpp"
#include "rdb/snapshot.hpp"
#include "sql/executor.hpp"
#include "xml/serializer.hpp"
#include "xquery/dom_eval.hpp"
#include "xquery/query.hpp"
#include "xquery/sql_translate.hpp"

namespace xr {
namespace {

using test::DurableStack;
using test::Stack;
using test::TempDir;

struct Interval {
    std::int64_t pre = 0;
    std::int64_t post = 0;
    std::int64_t level = 0;
    std::string entity;

    bool operator<(const Interval& o) const { return pre < o.pre; }
};

/// Every entity row's labels, sorted by pre.
template <typename StackT>
std::vector<Interval> collect_intervals(const StackT& stack) {
    std::vector<Interval> out;
    for (const auto& t : stack.schema.tables()) {
        if (t.kind != rel::TableKind::kEntity) continue;
        const rdb::Table& table = stack.db.require(t.name);
        int pre = table.def().column_index("pre");
        int post = table.def().column_index("post");
        int level = table.def().column_index("level");
        if (pre < 0) continue;
        for (rdb::RowId id = 0; id < table.row_count(); ++id) {
            auto row = table.row(id);
            Interval iv;
            iv.pre = row[static_cast<std::size_t>(pre)].as_integer();
            iv.post = row[static_cast<std::size_t>(post)].as_integer();
            iv.level = row[static_cast<std::size_t>(level)].as_integer();
            iv.entity = t.name;
            out.push_back(iv);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// The Dietz invariants: labels are unique, every interval is well formed
/// (pre < post), and intervals either nest or are disjoint — never
/// partially overlap.  Level must equal the nesting depth implied by the
/// enclosing intervals.
void expect_proper_nesting(const std::vector<Interval>& ivs) {
    std::set<std::int64_t> labels;
    for (const auto& iv : ivs) {
        EXPECT_LT(iv.pre, iv.post) << iv.entity;
        EXPECT_TRUE(labels.insert(iv.pre).second) << iv.entity;
        EXPECT_TRUE(labels.insert(iv.post).second) << iv.entity;
    }
    std::vector<Interval> stack;
    for (const auto& iv : ivs) {  // sorted by pre
        while (!stack.empty() && stack.back().post < iv.pre) stack.pop_back();
        if (!stack.empty())
            EXPECT_LT(iv.post, stack.back().post)
                << iv.entity << " straddles " << stack.back().entity;
        EXPECT_EQ(iv.level, static_cast<std::int64_t>(stack.size()))
            << iv.entity;
        stack.push_back(iv);
    }
}

// -- label assignment --------------------------------------------------------

TEST(StructIndex, SerialLoaderAssignsProperlyNestedLabels) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(8, 120, 33);
    for (auto& doc : corpus) stack.loader->load(*doc);

    std::vector<Interval> ivs = collect_intervals(stack);
    ASSERT_FALSE(ivs.empty());
    expect_proper_nesting(ivs);

    // Per-document bases in xrel_docs cover the assigned labels exactly.
    const rdb::Table& docs = stack.db.require("xrel_docs");
    int base_col = docs.def().column_index("label_base");
    int span_col = docs.def().column_index("label_span");
    ASSERT_GE(base_col, 0);
    std::int64_t max_label = 0;
    for (rdb::RowId id = 0; id < docs.row_count(); ++id) {
        auto row = docs.row(id);
        std::int64_t base = row[static_cast<std::size_t>(base_col)].as_integer();
        std::int64_t span = row[static_cast<std::size_t>(span_col)].as_integer();
        EXPECT_GT(span, 0);
        max_label = std::max(max_label, base + span);
    }
    for (const auto& iv : ivs) EXPECT_LT(iv.post, max_label);
}

TEST(StructIndex, BulkLoadMatchesSerialLabelsExactly) {
    auto corpus = gen::bibliography_corpus(10, 150, 34);
    std::vector<std::string> texts;
    for (auto& doc : corpus) texts.push_back(xml::serialize(*doc));

    Stack serial(gen::paper_dtd());
    for (const auto& text : texts) {
        auto doc = xml::parse_document(text);
        serial.loader->load(*doc);
    }

    Stack bulk(gen::paper_dtd());
    loader::BulkLoader bulk_loader(bulk.logical, bulk.mapping, bulk.schema,
                                   bulk.db);
    loader::BulkLoadOptions opts;
    opts.jobs = 3;
    bulk_loader.load_texts(texts, opts);

    // Same corpus → identical label geometry, regardless of worker
    // interleaving (bulk merge shifts per-document labels to the same
    // dense bases the serial loader would have assigned).
    std::vector<Interval> a = collect_intervals(serial);
    std::vector<Interval> b = collect_intervals(bulk);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pre, b[i].pre);
        EXPECT_EQ(a[i].post, b[i].post);
        EXPECT_EQ(a[i].level, b[i].level);
        EXPECT_EQ(a[i].entity, b[i].entity);
    }
}

TEST(StructIndex, EntityTablesCarryAnOrderedPreIndex) {
    Stack stack(gen::paper_dtd());
    const rdb::Table& authors = stack.db.require("author");
    EXPECT_TRUE(authors.has_ordered_index("pre"));
    // Range machinery answers directly (empty table → empty range).
    rdb::Value lo(static_cast<std::int64_t>(0));
    EXPECT_TRUE(authors.index_range_lookup("pre", &lo, false, nullptr, false)
                    .empty());
}

// -- plan selection ----------------------------------------------------------

TEST(StructIndex, DescendantPicksIntervalPlanWhenLabelsExist) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(6, 120, 35);
    std::vector<const xml::Document*> views;
    for (auto& doc : corpus) {
        stack.loader->load(*doc);
        views.push_back(doc.get());
    }
    xquery::SqlTranslator tr(stack.mapping, stack.schema);

    // Root '//author': a bare table scan — no joins, no DISTINCT.
    xquery::Translation root = tr.translate(xquery::parse_query("//author"));
    EXPECT_TRUE(root.interval_plan);
    EXPECT_EQ(root.join_count, 0u);
    EXPECT_EQ(root.sql.find("DISTINCT"), std::string::npos) << root.sql;

    // Non-root '/article//author': one containment join on (pre, post).
    xquery::Translation t =
        tr.translate(xquery::parse_query("/article//author"));
    EXPECT_TRUE(t.interval_plan);
    EXPECT_EQ(t.join_count, 1u);
    EXPECT_NE(t.sql.find(".pre"), std::string::npos) << t.sql;
    EXPECT_NE(t.plan_notes.find("interval"), std::string::npos);

    std::size_t dom = xquery::evaluate(views, xquery::parse_query(
                                                  "/article//author"))
                          .size();
    EXPECT_EQ(sql::execute(stack.db, t.sql).row_count(), dom);
}

TEST(StructIndex, AncestorPredicateTranslatesViaIntervals) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(6, 120, 36);
    std::vector<const xml::Document*> views;
    for (auto& doc : corpus) {
        stack.loader->load(*doc);
        views.push_back(doc.get());
    }
    xquery::SqlTranslator tr(stack.mapping, stack.schema);
    xquery::PathQuery q = xquery::parse_query("//name[ancestor::author]");
    xquery::Translation t = tr.translate(q);
    EXPECT_TRUE(t.interval_plan);
    EXPECT_EQ(sql::execute(stack.db, t.sql).row_count(),
              xquery::evaluate(views, q).size());
}

TEST(StructIndex, ServiceServesIntervalPlansAndCountsRangeScans) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(6, 120, 37);
    for (auto& doc : corpus) stack.loader->load(*doc);

    query::ServiceOptions sopts;
    sopts.threads = 1;
    sopts.result_cache_bytes = 0;  // every path() must really execute
    query::QueryService service(stack.db, stack.mapping, stack.schema, sopts);

    xquery::Translation t = service.translate("/article//author");
    EXPECT_TRUE(t.interval_plan);
    EXPECT_GT(service.path("/article//author")->row_count(), 0u);
    EXPECT_GT(service.stats().exec.range_scans.load(), 0u);
}

// -- fault paths -------------------------------------------------------------

TEST(StructIndex, SkippedDocumentsLeaveHarmlessLabelGaps) {
    Stack stack(gen::paper_dtd());
    auto make = [](int n) {
        std::string i = std::to_string(n);
        return "<article><title>t" + i + "</title><author id=\"a" + i +
               "\"><name><lastname>L" + i +
               "</lastname></name></author></article>";
    };
    loader::LoadReport report = test::load_texts(
        stack, {make(0), "<article><broken", make(1), "<nope/>", make(2)},
        test::one_worker(loader::FailurePolicy::kSkip));
    EXPECT_EQ(report.loaded, 3u);
    EXPECT_EQ(report.failed, 2u);

    // Survivors keep disjoint, properly nested intervals; '//' counts
    // exactly the surviving rows.
    expect_proper_nesting(collect_intervals(stack));
    xquery::SqlTranslator tr(stack.mapping, stack.schema);
    xquery::Translation t = tr.translate(xquery::parse_query("count(//author)"));
    EXPECT_EQ(sql::execute(stack.db, t.sql).scalar().as_integer(), 3);

    // A later load continues past the gaps without colliding.
    ASSERT_NO_THROW(test::load_texts(stack, {make(3)}));
    expect_proper_nesting(collect_intervals(stack));
    EXPECT_EQ(
        sql::execute(stack.db,
                     tr.translate(xquery::parse_query("count(//author)")).sql)
            .scalar()
            .as_integer(),
        4);
}

// -- durability --------------------------------------------------------------

TEST(StructIndex, LabelsAndOrderedIndexSurviveSnapshotAndWalReplay) {
    TempDir dir;
    auto corpus = gen::bibliography_corpus(6, 120, 38);
    std::vector<std::string> texts;
    for (auto& doc : corpus) texts.push_back(xml::serialize(*doc));

    std::vector<Interval> before;
    std::int64_t count_before = 0;
    {
        DurableStack stack(gen::paper_dtd(), dir.path());
        // Half the corpus into the snapshot, half into the WAL tail, so
        // recovery exercises both persistence paths.
        test::load_texts(stack, {texts.begin(), texts.begin() + 3});
        stack.db.checkpoint();
        test::load_texts(stack, {texts.begin() + 3, texts.end()});
        before = collect_intervals(stack);
    }
    {
        DurableStack stack(gen::paper_dtd(), dir.path());
        EXPECT_GT(stack.recovery.records_replayed, 0u);
        std::vector<Interval> after = collect_intervals(stack);
        ASSERT_EQ(before.size(), after.size());
        for (std::size_t i = 0; i < before.size(); ++i) {
            EXPECT_EQ(before[i].pre, after[i].pre);
            EXPECT_EQ(before[i].post, after[i].post);
            EXPECT_EQ(before[i].level, after[i].level);
        }
        expect_proper_nesting(after);
        // The ordered index came back too, and interval plans run on it.
        EXPECT_TRUE(stack.db.require("author").has_ordered_index("pre"));
        xquery::SqlTranslator tr(stack.mapping, stack.schema);
        sql::ExecStats stats;
        xquery::Translation t =
            tr.translate(xquery::parse_query("/article//author"));
        (void)sql::execute(stack.db, t.sql, &stats);
        EXPECT_GT(stats.range_scans.load(), 0u);

        // Labels keep extending seamlessly after recovery.
        count_before = sql::execute(stack.db,
                                    tr.translate(xquery::parse_query(
                                                     "count(//author)"))
                                        .sql)
                           .scalar()
                           .as_integer();
        test::load_texts(stack, {texts.front()});
        expect_proper_nesting(collect_intervals(stack));
        EXPECT_GT(sql::execute(stack.db,
                               tr.translate(xquery::parse_query(
                                                "count(//author)"))
                                   .sql)
                      .scalar()
                      .as_integer(),
                  count_before);
    }
}

}  // namespace
}  // namespace xr
