// Cost-based planner (DESIGN.md §13): the KMV distinct-count sketch,
// incremental vs full-rebuild statistics, epoch bumps, persistence of
// the xrel_stats catalog through snapshot + WAL recovery, golden plan
// shapes from plan_select(), planner-on/off result equivalence, and
// translation-cache entries that outlive a statistics rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "query/service.hpp"
#include "rdb/snapshot.hpp"
#include "rdb/stats.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"
#include "xml/parser.hpp"
#include "xquery/sql_translate.hpp"

namespace xr {
namespace {

using rdb::Value;

TEST(NdvSketch, ExactBelowK) {
    rdb::NdvSketch s;
    for (int pass = 0; pass < 3; ++pass)  // duplicates must not inflate
        for (int i = 0; i < 200; ++i) s.add(Value(i));
    EXPECT_EQ(s.estimate(), 200u);
}

TEST(NdvSketch, EstimateWithinFifteenPercentAtScale) {
    rdb::NdvSketch s;
    constexpr std::int64_t kDistinct = 50000;
    for (std::int64_t i = 0; i < kDistinct; ++i) s.add(Value(i));
    std::uint64_t est = s.estimate();
    EXPECT_GT(est, static_cast<std::uint64_t>(kDistinct * 0.85));
    EXPECT_LT(est, static_cast<std::uint64_t>(kDistinct * 1.15));
}

TEST(NdvSketch, NullsAndClear) {
    rdb::NdvSketch s;
    EXPECT_TRUE(s.empty());
    s.add(Value(1));
    s.add(Value("x"));
    EXPECT_EQ(s.estimate(), 2u);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.estimate(), 0u);
}

// Hand-built skewed schema: `big` (2000 rows, near-unique indexed `val`,
// 10-way `fk`) joining `small` (10 rows).  Written small-first, the only
// sargable predicate sits on the *last* join input — exactly the shape
// the path translator emits for tail predicates.
class PlannerFixture : public ::testing::Test {
protected:
    rdb::Database db;

    void SetUp() override {
        sql::execute(db,
                     "CREATE TABLE small (pk INTEGER PRIMARY KEY, tag TEXT)");
        sql::execute(
            db, "CREATE TABLE big (pk INTEGER PRIMARY KEY, fk INTEGER, "
                "val TEXT, note TEXT)");
        for (int i = 0; i < 10; ++i)
            sql::execute(db, "INSERT INTO small VALUES (" +
                                 std::to_string(i) + ", 'g" +
                                 std::to_string(i) + "')");
        for (int base = 0; base < 2000; base += 100) {
            std::string ins = "INSERT INTO big (fk, val, note) VALUES ";
            for (int i = base; i < base + 100; ++i) {
                if (i != base) ins += ", ";
                std::string val =
                    i == 1234 ? "needle" : "v" + std::to_string(i);
                ins += "(" + std::to_string(i % 10) + ", '" + val + "', " +
                       (i % 4 == 0 ? "NULL" : "'n'") + ")";
            }
            sql::execute(db, ins);
        }
        sql::execute(db, "CREATE INDEX ON big (val)");
    }
};

TEST_F(PlannerFixture, AnalyzeRebuildsAccurateStats) {
    rdb::AnalyzeReport report = db.analyze();
    EXPECT_EQ(report.tables, 2u);  // the xrel_stats catalog is excluded
    EXPECT_NE(db.table(rdb::Database::kStatsTable), nullptr);
    EXPECT_FALSE(report.persisted);  // in-memory database

    const rdb::TableStats& st = db.require("big").stats();
    ASSERT_EQ(st.columns.size(), 4u);
    EXPECT_EQ(st.rows, 2000u);
    EXPECT_FALSE(st.stale);
    const rdb::ColumnStats& fk = st.columns[1];
    EXPECT_EQ(fk.ndv(), 10u);  // exact below the sketch's k
    EXPECT_EQ(fk.min.as_integer(), 0);
    EXPECT_EQ(fk.max.as_integer(), 9);
    EXPECT_EQ(fk.nulls, 0u);
    const rdb::ColumnStats& val = st.columns[2];
    EXPECT_GT(val.ndv(), 1700u);
    EXPECT_LT(val.ndv(), 2300u);
    EXPECT_EQ(st.columns[3].nulls, 500u);  // note NULL every 4th row
}

TEST_F(PlannerFixture, ReordersToDriveFromSelectiveIndex) {
    db.analyze();
    sql::SelectStmt stmt = sql::parse_select(
        "SELECT s.tag FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.val = 'needle'");
    sql::PlanInfo info = sql::plan_select(db, stmt);
    ASSERT_TRUE(info.planned);
    EXPECT_TRUE(info.reordered);
    EXPECT_EQ(info.shape(), "index_eq(b.val) probe(s.pk)");
    EXPECT_LT(info.est_rows, 10.0);  // near-unique predicate
    EXPECT_EQ(info.stats_epoch, db.stats_epoch());
    // EXPLAIN rendering carries the cost columns.
    std::string text = info.to_string();
    EXPECT_NE(text.find("cost="), std::string::npos);
    EXPECT_NE(text.find("(reordered)"), std::string::npos);
    EXPECT_NE(text.find("index_eq"), std::string::npos);

    // The reordered statement still computes the right answer: row 1234
    // has fk = 1234 % 10 = 4, and small.pk 4 carries tag 'g4'.
    sql::ResultSet rs = sql::execute_select(db, stmt);
    ASSERT_EQ(rs.row_count(), 1u);
    EXPECT_EQ(rs.rows[0][0].as_text(), "g4");
}

TEST_F(PlannerFixture, AsWrittenOrderKeptWhenAlreadyBest) {
    db.analyze();
    sql::SelectStmt stmt = sql::parse_select(
        "SELECT b.pk FROM big b JOIN small s ON b.fk = s.pk "
        "WHERE b.val = 'needle'");
    sql::PlanInfo info = sql::plan_select(db, stmt);
    ASSERT_TRUE(info.planned);
    EXPECT_FALSE(info.reordered);
    EXPECT_EQ(info.shape(), "index_eq(b.val) probe(s.pk)");
    EXPECT_EQ(info.to_string().find("(reordered)"), std::string::npos);
}

TEST_F(PlannerFixture, SelectStarIsCostedButNeverReordered) {
    db.analyze();
    // Driving from `big` would be cheaper, but the output column order
    // of SELECT * depends on the written table order — the pass costs
    // the statement for EXPLAIN yet must leave the order alone.
    sql::SelectStmt stmt = sql::parse_select(
        "SELECT * FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.val = 'needle'");
    sql::PlanInfo info = sql::plan_select(db, stmt);
    EXPECT_TRUE(info.planned);
    EXPECT_FALSE(info.reordered);
    ASSERT_EQ(stmt.from.alias, "s");  // order untouched
}

TEST_F(PlannerFixture, PlannerOnAndOffAgree) {
    db.analyze();
    const char* kQueries[] = {
        "SELECT s.tag FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.val = 'needle'",
        "SELECT s.tag, b.val FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.pk < 25 ORDER BY b.pk",
        "SELECT COUNT(*) FROM small s JOIN big b ON b.fk = s.pk",
        "SELECT DISTINCT s.tag FROM small s JOIN big b ON b.fk = s.pk "
        "WHERE b.note IS NULL",
    };
    for (const char* q : kQueries) {
        sql::PlannerOptions on;
        sql::PlannerOptions off;
        off.enable = false;
        sql::SelectStmt s1 = sql::parse_select(q);
        sql::SelectStmt s2 = sql::parse_select(q);
        sql::ResultSet r1 = sql::execute_select(db, s1, nullptr, {}, &on);
        sql::ResultSet r2 = sql::execute_select(db, s2, nullptr, {}, &off);
        auto key = [](const rdb::Row& row) {
            std::string k;
            for (const Value& v : row) k += v.to_string() + "|";
            return k;
        };
        std::vector<std::string> a;
        std::vector<std::string> b;
        for (const auto& row : r1.rows) a.push_back(key(row));
        for (const auto& row : r2.rows) b.push_back(key(row));
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << q;
    }
}

TEST_F(PlannerFixture, AnalyzeBumpsEpoch) {
    std::uint64_t before = db.stats_epoch();
    db.analyze();
    std::uint64_t first = db.stats_epoch();
    EXPECT_GT(first, before);
    db.analyze();
    EXPECT_EQ(db.stats_epoch(), first + 1);
}

// Loading document-by-document (one commit unit each) must fold the same
// statistics a bulk load followed by analyze() computes.
TEST(PlannerStats, IncrementalFoldMatchesFullRebuild) {
    auto docs = gen::bibliography_corpus(40, 300, 7);
    test::Stack serial(gen::paper_dtd());
    for (const auto& doc : docs) serial.loader->load(*doc);

    test::Stack bulk(gen::paper_dtd());
    for (const auto& doc : docs) bulk.loader->load(*doc);
    bulk.db.analyze();

    for (const auto& name : serial.db.table_names()) {
        const rdb::Table& a = serial.db.require(name);
        const rdb::Table& b = bulk.db.require(name);
        const rdb::TableStats& sa = a.stats();
        const rdb::TableStats& sb = b.stats();
        EXPECT_EQ(sa.rows, a.row_count()) << name;
        EXPECT_EQ(sa.rows, sb.rows) << name;
        ASSERT_EQ(sa.columns.size(), sb.columns.size()) << name;
        for (std::size_t c = 0; c < sa.columns.size(); ++c) {
            EXPECT_EQ(sa.columns[c].nulls, sb.columns[c].nulls)
                << name << " col " << c;
            EXPECT_EQ(sa.columns[c].ndv(), sb.columns[c].ndv())
                << name << " col " << c;
            EXPECT_EQ(sa.columns[c].min.to_string(),
                      sb.columns[c].min.to_string())
                << name << " col " << c;
            EXPECT_EQ(sa.columns[c].max.to_string(),
                      sb.columns[c].max.to_string())
                << name << " col " << c;
        }
    }
}

TEST(PlannerStats, SurviveWalOnlyRecovery) {
    test::TempDir dir;
    std::uint64_t author_ndv = 0;
    std::uint64_t author_rows = 0;
    std::uint64_t epoch = 0;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        auto docs = gen::bibliography_corpus(20, 300, 7);
        for (const auto& doc : docs) stack.loader->load(*doc);
        rdb::AnalyzeReport report = stack.db.analyze();
        EXPECT_TRUE(report.persisted);
        const rdb::TableStats& st = stack.db.require("author").stats();
        author_rows = st.rows;
        ASSERT_GT(st.columns.size(), 0u);
        author_ndv = st.columns[0].ndv();
        epoch = report.epoch;  // the epoch the catalog persisted
        ASSERT_GT(author_rows, 0u);
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_TRUE(reopened.recovery.snapshot_path.empty());
    const rdb::TableStats& st = reopened.db.require("author").stats();
    EXPECT_EQ(st.rows, author_rows);
    EXPECT_EQ(st.rows, reopened.db.require("author").row_count());
    EXPECT_EQ(st.columns[0].ndv(), author_ndv);
    EXPECT_GE(reopened.db.stats_epoch(), epoch);
}

TEST(PlannerStats, SurviveCheckpointRecovery) {
    test::TempDir dir;
    std::uint64_t name_ndv = 0;
    std::uint64_t name_rows = 0;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        auto docs = gen::bibliography_corpus(20, 300, 7);
        for (const auto& doc : docs) stack.loader->load(*doc);
        stack.db.analyze();
        const rdb::TableStats& st = stack.db.require("name").stats();
        name_rows = st.rows;
        name_ndv = st.columns.back().ndv();
        (void)stack.db.checkpoint();
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_FALSE(reopened.recovery.snapshot_path.empty());
    const rdb::TableStats& st = reopened.db.require("name").stats();
    EXPECT_EQ(st.rows, name_rows);
    EXPECT_EQ(st.columns.back().ndv(), name_ndv);
}

// Translation reads only the mapping and schema, and planning runs on
// every execution, so new statistics must not evict cached translations:
// a query translated before analyze() is a plan-cache hit after it, with
// identical SQL.
TEST(PlannerCache, TranslationSurvivesAnalyze) {
    test::Stack stack(gen::paper_dtd());
    auto doc = xml::parse_document(gen::paper_sample_document());
    stack.loader->load(*doc);
    query::ServiceOptions opts;
    opts.threads = 0;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    const std::string q = "/article/author[name/lastname = 'Smith']";
    xquery::Translation before = service.translate(q);
    std::uint64_t epoch = stack.db.stats_epoch();
    stack.db.analyze();
    ASSERT_GT(stack.db.stats_epoch(), epoch);
    xquery::Translation after = service.translate(q);
    EXPECT_EQ(after.sql, before.sql);
    EXPECT_EQ(service.stats().plan_cache.hits, 1u);
    EXPECT_EQ(service.stats().plan_cache.misses, 1u);
}

}  // namespace
}  // namespace xr
