// Deterministic fault-injection coverage (DESIGN.md §7): every named
// fault point is armed in turn and the database must come out either
// untouched (kFailFast, or any corpus-scoped point) or row-for-row
// equivalent to loading only the documents that survived (kSkip /
// kQuarantine).  The hook itself — countdown, one-shot disarm, env
// parsing — is covered first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "helpers.hpp"
#include "loader/bulk_loader.hpp"
#include "rdb/snapshot.hpp"
#include "rel/translate.hpp"
#include "sql/executor.hpp"
#include "xquery/query.hpp"
#include "xquery/sql_translate.hpp"

namespace xr {
namespace {

/// Arms on construction, disarms on destruction so a failing assertion
/// can't leak an armed fault into the next test.
struct ArmedFault {
    explicit ArmedFault(std::string_view point, long countdown = 1) {
        fault::arm(point, countdown);
    }
    ~ArmedFault() { fault::disarm(); }
};

/// A small fixed-shape article with one same-document IDREF, so both the
/// loader.shred and loader.resolve points are exercised.
std::string article(int n) {
    std::string i = std::to_string(n);
    return "<article><title>t" + i + "</title><author id=\"a" + i +
           "\"><name><lastname>L" + i +
           "</lastname></name></author><contactauthor authorid=\"a" + i +
           "\"/></article>";
}

std::vector<std::string> corpus(int n) {
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) out.push_back(article(i));
    return out;
}

// -- the hook itself ---------------------------------------------------------

TEST(FaultInjection, FiresOnceThenDisarms) {
    ArmedFault armed("xml.parse");
    EXPECT_TRUE(fault::armed());
    EXPECT_THROW((void)xml::parse_document("<a/>"), fault::InjectedFault);
    EXPECT_FALSE(fault::armed());
    EXPECT_TRUE(fault::fired());
    EXPECT_EQ(fault::hits(), 1);
    // Disarmed now: the same call succeeds.
    EXPECT_NO_THROW((void)xml::parse_document("<a/>"));
}

TEST(FaultInjection, CountdownTargetsTheNthHit) {
    ArmedFault armed("xml.parse", 3);
    EXPECT_NO_THROW((void)xml::parse_document("<a/>"));
    EXPECT_NO_THROW((void)xml::parse_document("<a/>"));
    EXPECT_THROW((void)xml::parse_document("<a/>"), fault::InjectedFault);
    EXPECT_EQ(fault::hits(), 3);
}

TEST(FaultInjection, UnarmedPointsAreFree) {
    ArmedFault armed("xml.parse");
    fault::disarm();
    EXPECT_NO_THROW((void)xml::parse_document("<a/>"));
    EXPECT_FALSE(fault::fired());
}

TEST(FaultInjection, UnknownPointIsRejectedWithoutArming) {
    // A typo'd XMLREL_FAULT_INJECT used to arm a point nothing ever hits
    // — the test run silently measured nothing.  arm() now refuses.
    EXPECT_FALSE(fault::arm("some.other.point"));
    EXPECT_FALSE(fault::armed());
    EXPECT_NO_THROW((void)xml::parse_document("<a/>"));
    EXPECT_FALSE(fault::fired());
    // And rejecting clears any stale arming instead of inheriting it.
    EXPECT_TRUE(fault::arm("xml.parse"));
    EXPECT_TRUE(fault::armed());
    EXPECT_FALSE(fault::arm("another.typo"));
    EXPECT_FALSE(fault::armed());
}

TEST(FaultInjection, KnownPointsCatalogueIsSortedAndArmable) {
    const auto& points = fault::known_points();
    ASSERT_FALSE(points.empty());
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
    for (std::string_view p : points) {
        EXPECT_TRUE(fault::arm(p)) << p;
        EXPECT_TRUE(fault::armed()) << p;
    }
    fault::disarm();
}

TEST(FaultInjection, InjectedFaultIsClassifiedRetryable) {
    test::Stack stack(gen::paper_dtd());
    ArmedFault armed("loader.shred");
    loader::LoadReport report = test::load_texts(
        stack, {article(0)}, test::one_worker(loader::FailurePolicy::kSkip));
    ASSERT_EQ(report.failed, 1u);
    EXPECT_EQ(report.retryable, 1u);
    EXPECT_EQ(report.outcomes[0].error_type, "fault");
    EXPECT_TRUE(report.outcomes[0].retryable);
}

// -- one-worker matrix -------------------------------------------------------

/// loader.shred hits per article(): fires once per load_element call, and
/// how many of the article's elements get their own call depends on the
/// mapping (distilled children do not).  Probe once instead of guessing.
long shred_hits_per_doc() {
    static long hits = [] {
        test::Stack probe(gen::paper_dtd());
        fault::arm("loader.shred", 1 << 30);  // count without firing
        test::load_texts(probe, {article(0)});
        long h = fault::hits();
        fault::disarm();
        return h;
    }();
    return hits;
}

struct DocPoint {
    const char* point;
    long countdown;
    std::size_t failing_index;
};

/// Countdowns landing inside document 1 of a one-worker load: the other
/// documents survive.  The shred countdown deliberately lands
/// mid-document, after some of document 1's rows are already staged.
std::vector<DocPoint> doc_points() {
    long per_doc = shred_hits_per_doc();
    return {
        {"xml.parse", 2, 1},  // parse of document 1
        {"loader.shred", per_doc + std::max<long>(per_doc / 2, 1), 1},
    };
}

TEST(FaultInjection, OneWorkerFailFastLeavesDatabaseUntouched) {
    for (const auto& p : doc_points()) {
        test::Stack stack(gen::paper_dtd());
        loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema,
                              stack.db);
        auto before = test::db_fingerprint(stack.db);
        ArmedFault armed(p.point, p.countdown);
        EXPECT_THROW(bl.load_texts(corpus(5), test::one_worker()),
                     fault::InjectedFault)
            << p.point;
        EXPECT_TRUE(fault::fired()) << p.point;
        EXPECT_EQ(test::db_fingerprint(stack.db), before) << p.point;
        EXPECT_EQ(bl.stats().documents, 0u);
    }
}

TEST(FaultInjection, OneWorkerSkipMatchesLoadLoopByteForByte) {
    // The reference is Loader::load over the good documents, one durable
    // unit each: one worker must reproduce it cell for cell, surrogate
    // keys and doc ids included, with every reserved key handed back.
    for (const auto& p : doc_points()) {
        test::Stack stack(gen::paper_dtd());
        ArmedFault armed(p.point, p.countdown);
        loader::LoadReport report = test::load_texts(
            stack, corpus(5), test::one_worker(loader::FailurePolicy::kSkip));
        fault::disarm();
        EXPECT_EQ(report.loaded, 4u) << p.point;
        ASSERT_EQ(report.failed, 1u) << p.point;
        EXPECT_EQ(report.outcomes[p.failing_index].error_type, "fault");
        EXPECT_EQ(report.leaked_pks, 0u) << p.point;

        std::vector<std::string> good = corpus(5);
        good.erase(good.begin() + static_cast<std::ptrdiff_t>(p.failing_index));
        test::Stack reference(gen::paper_dtd());
        for (const auto& text : good) {
            auto doc = xml::parse_document(text);
            reference.loader->load(*doc);
        }
        EXPECT_EQ(test::db_fingerprint(stack.db),
                  test::db_fingerprint(reference.db))
            << p.point;
    }
}

TEST(FaultInjection, OneWorkerQuarantineKeepsFaultedDocumentText) {
    test::Stack stack(gen::paper_dtd());
    ArmedFault armed("loader.shred", shred_hits_per_doc() + 1);
    loader::LoadReport report = test::load_texts(
        stack, corpus(3), test::one_worker(loader::FailurePolicy::kQuarantine));
    fault::disarm();
    EXPECT_EQ(report.quarantined, 1u);
    const rdb::Table* q = stack.db.table(loader::kQuarantineTable);
    ASSERT_NE(q, nullptr);
    ASSERT_EQ(q->row_count(), 1u);
    EXPECT_EQ(q->row(0)[q->def().column_index("raw_xml")].to_string(),
              article(1));
    EXPECT_EQ(q->row(0)[q->def().column_index("error_type")].to_string(),
              "fault");
}

TEST(FaultInjection, QuarantineRowsSurviveRestart) {
    // Quarantine writes go through their own WAL-flushed unit, so a
    // reopened data directory still knows which document was rejected and
    // why — the round trip covers both the WAL replay path and (after a
    // checkpoint) the snapshot path.
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ArmedFault armed("loader.shred", shred_hits_per_doc() + 1);
        loader::LoadReport report = test::load_texts(
            stack, corpus(3),
            test::one_worker(loader::FailurePolicy::kQuarantine));
        fault::disarm();
        ASSERT_EQ(report.quarantined, 1u);
    }
    for (bool checkpoint : {false, true}) {
        test::DurableStack reopened(gen::paper_dtd(), dir.path());
        const rdb::Table* q = reopened.db.table(loader::kQuarantineTable);
        ASSERT_NE(q, nullptr) << "checkpoint=" << checkpoint;
        ASSERT_EQ(q->row_count(), 1u) << "checkpoint=" << checkpoint;
        EXPECT_EQ(q->row(0)[q->def().column_index("raw_xml")].to_string(),
                  article(1));
        EXPECT_EQ(q->row(0)[q->def().column_index("error_type")].to_string(),
                  "fault");
        // Second pass reopens from a snapshot instead of pure WAL replay.
        if (!checkpoint) reopened.db.checkpoint();
    }
}

TEST(FaultInjection, SingleLoadResolveFaultUndoesRowUpdates) {
    // Same through Loader::load, where resolution runs per document.
    test::Stack stack(gen::paper_dtd());
    auto before = test::db_fingerprint(stack.db);
    auto doc = xml::parse_document(article(0));
    ArmedFault armed("loader.resolve");
    EXPECT_THROW(stack.loader->load(*doc), fault::InjectedFault);
    EXPECT_EQ(test::db_fingerprint(stack.db), before);
}

// -- bulk loader matrix ------------------------------------------------------

void expect_bulk_equivalent(const rdb::Database& a, const rdb::Database& b) {
    ASSERT_EQ(a.table_names(), b.table_names());
    for (const auto& name : a.table_names())
        EXPECT_EQ(a.require(name).row_count(), b.require(name).row_count())
            << "table " << name;
    auto registry = [](const rdb::Database& db) {
        std::vector<std::string> out;
        const rdb::Table* reg = db.table(rel::kIdRegistryTable);
        if (reg == nullptr) return out;
        int doc = reg->def().column_index("doc");
        int idval = reg->def().column_index("idval");
        for (rdb::RowId id = 0; id < reg->row_count(); ++id) {
            auto row = reg->row(id);
            out.push_back(row[doc].to_string() + "|" + row[idval].to_string());
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(registry(a), registry(b));
}

TEST(FaultInjection, BulkFailFastLeavesDatabaseUntouched) {
    for (const char* point :
         {"xml.parse", "loader.shred", "bulk.merge", "rdb.index_rebuild",
          "loader.resolve"}) {
        for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            test::Stack stack(gen::paper_dtd());
            loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema,
                                  stack.db);
            auto before = test::db_fingerprint(stack.db);
            loader::BulkLoadOptions options;
            options.jobs = jobs;
            ArmedFault armed(point, 2);
            EXPECT_THROW(bl.load_texts(corpus(6), options),
                         fault::InjectedFault)
                << point << " jobs " << jobs;
            fault::disarm();
            EXPECT_EQ(test::db_fingerprint(stack.db), before)
                << point << " jobs " << jobs;
            EXPECT_EQ(bl.stats().documents, 0u);
        }
    }
}

TEST(FaultInjection, BulkSkipMatchesLoadingOnlySurvivors) {
    // With several workers the fault lands in a nondeterministic document;
    // the report says which one, and loading the others into a fresh
    // database must be equivalent.
    for (const char* point : {"xml.parse", "loader.shred"}) {
        for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            test::Stack stack(gen::paper_dtd());
            loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema,
                                  stack.db);
            loader::BulkLoadOptions options;
            options.jobs = jobs;
            options.on_error = loader::FailurePolicy::kSkip;
            ArmedFault armed(point, 2);
            loader::LoadReport report = bl.load_texts(corpus(6), options);
            fault::disarm();
            ASSERT_EQ(report.failed, 1u) << point << " jobs " << jobs;
            EXPECT_EQ(report.loaded, 5u);
            // A single worker's chunk tail is always returnable; with
            // several workers a tail below another live reservation
            // legitimately becomes a gap (reported, not asserted zero).
            if (jobs == 1) EXPECT_EQ(report.leaked_pks, 0u);

            std::vector<std::string> good;
            std::vector<std::string> all = corpus(6);
            for (const auto& outcome : report.outcomes)
                if (outcome.status ==
                    loader::DocumentOutcome::Status::kLoaded)
                    good.push_back(all[outcome.index]);
            test::Stack reference(gen::paper_dtd());
            loader::BulkLoader br(reference.logical, reference.mapping,
                                  reference.schema, reference.db);
            loader::BulkLoadOptions ropt;
            ropt.jobs = jobs;
            loader::LoadReport ref_report = br.load_texts(good, ropt);
            EXPECT_TRUE(ref_report.ok());
            expect_bulk_equivalent(stack.db, reference.db);
        }
    }
}

TEST(FaultInjection, BulkCorpusScopedFaultsAbortUnderEveryPolicy) {
    // Merge, index rebuild and reference resolution are corpus-scoped: a
    // fault there aborts the load under every policy, undoing the
    // in-place row updates the resolver already made.
    for (const char* point :
         {"bulk.merge", "rdb.index_rebuild", "loader.resolve"}) {
        for (auto policy : {loader::FailurePolicy::kSkip,
                            loader::FailurePolicy::kQuarantine}) {
            for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
                test::Stack stack(gen::paper_dtd());
                loader::BulkLoader bl(stack.logical, stack.mapping,
                                      stack.schema, stack.db);
                auto before = test::db_fingerprint(stack.db);
                loader::BulkLoadOptions options;
                options.jobs = jobs;
                options.on_error = policy;
                ArmedFault armed(point, 2);
                EXPECT_THROW(bl.load_texts(corpus(6), options),
                             fault::InjectedFault)
                    << point << " jobs " << jobs;
                fault::disarm();
                EXPECT_EQ(test::db_fingerprint(stack.db), before)
                    << point << " jobs " << jobs;
            }
        }
    }
}

TEST(FaultInjection, BulkQuarantineRecordsFaultedDocument) {
    test::Stack stack(gen::paper_dtd());
    loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema,
                          stack.db);
    loader::BulkLoadOptions options;
    options.jobs = 4;
    options.on_error = loader::FailurePolicy::kQuarantine;
    ArmedFault armed("loader.shred", 2);
    loader::LoadReport report = bl.load_texts(corpus(6), options);
    fault::disarm();
    ASSERT_EQ(report.quarantined, 1u);
    const rdb::Table* q = stack.db.table(loader::kQuarantineTable);
    ASSERT_NE(q, nullptr);
    ASSERT_EQ(q->row_count(), 1u);
    std::size_t failed_index = report.outcomes.size();
    for (const auto& outcome : report.outcomes)
        if (outcome.status == loader::DocumentOutcome::Status::kQuarantined)
            failed_index = outcome.index;
    ASSERT_LT(failed_index, 6u);
    EXPECT_EQ(q->row(0)[q->def().column_index("raw_xml")].to_string(),
              article(static_cast<int>(failed_index)));
}

// Quarantined / rolled-back documents must not corrupt the structural
// interval labels (DESIGN.md §10): the survivors' (pre, post) intervals
// stay unique, well formed, and properly nested — a failed document only
// leaves a harmless gap in the label space — and interval descendant
// plans keep counting exactly the surviving rows.
TEST(FaultInjection, FaultedDocumentsPreserveIntervalLabelOrdering) {
    for (auto policy : {loader::FailurePolicy::kSkip,
                        loader::FailurePolicy::kQuarantine}) {
        for (int jobs : {1, 4}) {
            test::Stack stack(gen::paper_dtd());
            loader::BulkLoader bl(stack.logical, stack.mapping, stack.schema,
                                  stack.db);
            loader::BulkLoadOptions options;
            options.jobs = jobs;
            options.on_error = policy;
            ArmedFault armed("loader.shred", 2);
            loader::LoadReport report = bl.load_texts(corpus(6), options);
            fault::disarm();
            ASSERT_EQ(report.loaded, 5u) << "jobs " << jobs;

            // Collect every entity row's labels and re-check the Dietz
            // invariants across the gap the faulted document left behind.
            struct Interval {
                std::int64_t pre, post, level;
            };
            std::vector<Interval> ivs;
            for (const auto& t : stack.schema.tables()) {
                if (t.kind != rel::TableKind::kEntity) continue;
                const rdb::Table& table = stack.db.require(t.name);
                int pre = table.def().column_index("pre");
                int post = table.def().column_index("post");
                int level = table.def().column_index("level");
                if (pre < 0) continue;
                for (rdb::RowId id = 0; id < table.row_count(); ++id) {
                    auto row = table.row(id);
                    ivs.push_back(
                        {row[static_cast<std::size_t>(pre)].as_integer(),
                         row[static_cast<std::size_t>(post)].as_integer(),
                         row[static_cast<std::size_t>(level)].as_integer()});
                }
            }
            ASSERT_FALSE(ivs.empty());
            std::sort(ivs.begin(), ivs.end(),
                      [](const Interval& a, const Interval& b) {
                          return a.pre < b.pre;
                      });
            std::set<std::int64_t> labels;
            std::vector<Interval> open;
            for (const auto& iv : ivs) {
                EXPECT_LT(iv.pre, iv.post);
                EXPECT_TRUE(labels.insert(iv.pre).second);
                EXPECT_TRUE(labels.insert(iv.post).second);
                while (!open.empty() && open.back().post < iv.pre)
                    open.pop_back();
                if (!open.empty()) EXPECT_LT(iv.post, open.back().post);
                EXPECT_EQ(iv.level, static_cast<std::int64_t>(open.size()));
                open.push_back(iv);
            }

            // The interval descendant plan sees only survivors, and a
            // follow-up load continues cleanly past the gap.
            xquery::SqlTranslator tr(stack.mapping, stack.schema);
            xquery::Translation t =
                tr.translate(xquery::parse_query("count(//author)"));
            EXPECT_EQ(sql::execute(stack.db, t.sql).scalar().as_integer(), 5);
            ASSERT_NO_THROW(bl.load_texts({article(7)}, {}));
            EXPECT_EQ(sql::execute(stack.db, t.sql).scalar().as_integer(), 6);
        }
    }
}

}  // namespace
}  // namespace xr
