// Crash matrix (DESIGN.md §8): every durability fault point × {per-document
// Loader::load, bulk jobs=1, bulk jobs=4}, asserting the two recovery
// invariants the WAL design promises:
//
//   1. no silent data loss — everything the loader reported committed is
//      there again after reopening the data directory;
//   2. no replay of uncommitted units — a load that rolled back (or was
//      killed mid-unit) leaves no trace after recovery.
//
// The in-process matrix provokes a failure, lets the loader roll back,
// and requires the recovered database to equal the post-rollback
// in-memory one byte for byte.  The kill matrix forks a child that
// aborts mid-corpus (fault abort mode) and requires the parent's
// recovery to equal a clean load of exactly the committed prefix.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "helpers.hpp"
#include "loader/bulk_loader.hpp"
#include "rdb/wal.hpp"

namespace xr {
namespace {

struct ArmedFault {
    explicit ArmedFault(std::string_view point, long countdown = 1) {
        fault::arm(point, countdown);
    }
    ~ArmedFault() { fault::disarm(); }
};

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

/// WAL appends one Loader::load costs (unit frames + row records);
/// probed once so wal.append countdowns land mid-document instead of
/// guessing at the mapping's row fan-out.
long appends_per_doc() {
    static const long per = [] {
        test::TempDir dir;
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        fault::arm("wal.append", 1 << 30);  // count without firing
        auto doc = xml::parse_document(article(0));
        stack.loader->load(*doc);
        long h = fault::hits();
        fault::disarm();
        return h;
    }();
    return per;
}

/// Points that can interrupt a run of durable Loader::load calls, with
/// countdowns that land strictly inside the run (after some documents
/// already committed).
struct CrashPoint {
    const char* point;
    long countdown;
};

std::vector<CrashPoint> per_document_points() {
    return {
        {"xml.parse", 2},
        {"loader.shred", 8},
        {"loader.resolve", 2},
        {"wal.append", appends_per_doc() + appends_per_doc() / 2},
        {"wal.fsync", 1},
    };
}

std::vector<CrashPoint> bulk_points() {
    return {
        {"xml.parse", 2},
        {"loader.shred", 8},
        {"bulk.merge", 2},
        {"rdb.index_rebuild", 2},
        {"loader.resolve", 2},
        // Bulk logging happens in the single-threaded merge; this lands
        // partway through it.
        {"wal.append", appends_per_doc()},
        {"wal.fsync", 1},
    };
}

// -- in-process matrix -------------------------------------------------------

TEST(CrashMatrix, PerDocumentFaultsRecoverToPostRollbackState) {
    // Loader::load is the durable write path of a single document: each
    // call commits (and fsyncs) its own unit.  A fault rolls back only the
    // document in flight, so the state to recover is everything committed
    // before it.
    for (const auto& p : per_document_points()) {
        test::TempDir dir;
        std::vector<std::string> after_rollback;
        {
            test::DurableStack stack(gen::paper_dtd(), dir.path());
            for (int i = 0; i < 2; ++i) {
                auto doc = xml::parse_document(article(i));
                stack.loader->load(*doc);
            }
            std::vector<std::string> committed;
            auto load_rest = [&] {
                for (int i = 2; i < 5; ++i) {
                    committed = test::db_fingerprint(stack.db);
                    auto doc = xml::parse_document(article(i));
                    stack.loader->load(*doc);
                }
            };
            ArmedFault armed(p.point, p.countdown);
            EXPECT_THROW(load_rest(), fault::InjectedFault) << p.point;
            fault::disarm();
            after_rollback = test::db_fingerprint(stack.db);
            // The rollback restored the state before the failing document.
            EXPECT_EQ(after_rollback, committed) << p.point;
        }
        test::DurableStack recovered(gen::paper_dtd(), dir.path());
        EXPECT_EQ(test::db_fingerprint(recovered.db), after_rollback)
            << p.point;
    }
}

TEST(CrashMatrix, SkipPolicyCommitsSurvivorsDurably) {
    // The fault consumes one document; the others commit and must be on
    // disk.
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        test::TempDir dir;
        std::vector<std::string> in_memory;
        std::size_t loaded = 0;
        {
            test::DurableStack stack(gen::paper_dtd(), dir.path());
            loader::BulkLoadOptions options =
                test::one_worker(loader::FailurePolicy::kSkip);
            options.jobs = jobs;
            ArmedFault armed("loader.shred", 8);
            loader::LoadReport report =
                test::load_texts(stack, corpus(4), options);
            fault::disarm();
            EXPECT_EQ(report.failed, 1u) << "jobs " << jobs;
            loaded = report.loaded;
            in_memory = test::db_fingerprint(stack.db);
        }
        ASSERT_EQ(loaded, 3u) << "jobs " << jobs;
        test::DurableStack recovered(gen::paper_dtd(), dir.path());
        EXPECT_EQ(test::db_fingerprint(recovered.db), in_memory)
            << "jobs " << jobs;
    }
}

TEST(CrashMatrix, BulkFaultsRecoverToPostRollbackState) {
    for (const auto& p : bulk_points()) {
        for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            test::TempDir dir;
            std::vector<std::string> after_rollback;
            {
                test::DurableStack stack(gen::paper_dtd(), dir.path());
                loader::BulkLoader bl(stack.logical, stack.mapping,
                                      stack.schema, stack.db);
                loader::BulkLoadOptions warmup;
                warmup.jobs = jobs;
                ASSERT_TRUE(bl.load_texts(corpus(2), warmup).ok());
                auto committed = test::db_fingerprint(stack.db);
                loader::BulkLoadOptions options;
                options.jobs = jobs;
                ArmedFault armed(p.point, p.countdown);
                EXPECT_THROW(bl.load_texts({article(2), article(3),
                                            article(4), article(5)},
                                           options),
                             fault::InjectedFault)
                    << p.point << " jobs " << jobs;
                fault::disarm();
                after_rollback = test::db_fingerprint(stack.db);
                EXPECT_EQ(after_rollback, committed)
                    << p.point << " jobs " << jobs;
            }
            test::DurableStack recovered(gen::paper_dtd(), dir.path());
            EXPECT_EQ(test::db_fingerprint(recovered.db), after_rollback)
                << p.point << " jobs " << jobs;
        }
    }
}

// -- kill-based matrix -------------------------------------------------------

/// Fork a child that loads `total` documents one at a time (each load is
/// one fsynced unit) with `point` armed in abort mode, then recover in
/// the parent and compare against a clean load of the committed prefix.
void run_kill_test(const char* point, long countdown, int total) {
    test::TempDir dir;
    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: never returns to gtest.  An abort here is the expected
        // "crash"; exiting normally means the fault never fired.
        {
            test::DurableStack stack(gen::paper_dtd(), dir.path());
            fault::arm(point, countdown, /*abort_instead=*/true);
            for (int i = 0; i < total; ++i) {
                auto doc = xml::parse_document(article(i));
                stack.loader->load(*doc);
            }
        }
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
        << point << ": child did not abort (status " << status << ")";

    // Parent: recover and determine the committed prefix from xrel_docs.
    test::DurableStack recovered(gen::paper_dtd(), dir.path());
    const rdb::Table* docs = recovered.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr) << point;
    auto committed = docs->row_count();
    ASSERT_LT(committed, static_cast<std::size_t>(total))
        << point << ": the crash lost no documents at all?";

    // No silent loss, no phantom replay: the recovered database equals a
    // clean uninterrupted load of exactly the first `committed` docs.
    test::Stack reference(gen::paper_dtd());
    for (std::size_t i = 0; i < committed; ++i) {
        auto doc = xml::parse_document(article(static_cast<int>(i)));
        reference.loader->load(*doc);
    }
    EXPECT_EQ(test::db_fingerprint(recovered.db),
              test::db_fingerprint(reference.db))
        << point;

    // And the recovered database keeps working: finish the corpus.
    for (std::size_t i = committed; i < static_cast<std::size_t>(total); ++i) {
        auto doc = xml::parse_document(article(static_cast<int>(i)));
        recovered.loader->load(*doc);
    }
    test::Stack full(gen::paper_dtd());
    for (int i = 0; i < total; ++i) {
        auto doc = xml::parse_document(article(i));
        full.loader->load(*doc);
    }
    EXPECT_EQ(test::db_fingerprint(recovered.db), test::db_fingerprint(full.db))
        << point;
}

TEST(CrashMatrix, KilledDuringCommitFsyncKeepsCommittedPrefix) {
    // The 3rd outermost fsync is document 3's commit (the schema flush
    // happens via flush_wal, not a commit): documents 1-2 survive.
    run_kill_test("wal.fsync", 3, 6);
}

TEST(CrashMatrix, KilledMidDocumentKeepsCommittedPrefix) {
    // wal.append fires inside document 3's unit, before its commit.
    run_kill_test("wal.append",
                  2 * appends_per_doc() + std::max(appends_per_doc() / 2, 2L),
                  6);
}

}  // namespace
}  // namespace xr
