// Overload-resilience tests (ctest label `overload`): admission control
// shedding with typed Overloaded, deadline expiry at the queue and inside
// the executor, cooperative cancellation of abandoned submissions while a
// retrying write holds the write latch, bounded write retry (success and
// exhaustion), typed shutdown rejection racing submitters, and exactness
// of the OverloadStats accounting under concurrency.  Runs in both
// sanitizer lanes driven by scripts/sanitize_lane.sh.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "query/service.hpp"

namespace xr {
namespace {

using test::Stack;

constexpr const char* kCount = "SELECT COUNT(*) FROM article";

/// A disarmed-on-exit guard so a failing test never leaks an armed fault
/// point into the next one.
struct FaultGuard {
    ~FaultGuard() { fault::disarm(); }
};

// A service with no workers never drains its queue, which makes the
// admission bound exactly observable: max_queue submissions are admitted,
// the next is shed with the typed Overloaded carrying the observed depth
// and a non-zero retry-after hint.
TEST(Overload, QueueFullShedsWithTypedOverloaded) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 0;
    opts.max_queue = 2;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    query::QueryService::Submission a = service.submit_sql(kCount);
    query::QueryService::Submission b = service.submit_sql(kCount);
    try {
        query::QueryService::Submission c = service.submit_sql(kCount);
        FAIL() << "third submission should have been shed";
    } catch (const Overloaded& e) {
        EXPECT_EQ(e.queue_depth(), 2u);
        EXPECT_GE(e.retry_after_ms(), 1u);
    }

    // The `service.admit` fault point sheds exactly like a full queue —
    // how the bench and ops drills provoke Overloaded on demand.
    FaultGuard guard;
    fault::arm("service.admit");
    EXPECT_THROW((void)service.submit_sql(kCount), Overloaded);
    EXPECT_TRUE(fault::fired());

    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.overload.admitted, 2u);
    EXPECT_EQ(st.overload.shed, 2u);
    EXPECT_EQ(st.overload.queue_high_water, 2u);
    // a and b are abandoned on scope exit; their tokens get cancelled and
    // the never-started tasks are dropped at service destruction.
}

// An already-expired deadline terminates a descendant ('//') path query
// with DeadlineExceeded before any row is produced, and a healthy query
// on the same service is unaffected — a dead query never blocks the pool.
TEST(Overload, DeadlineExpiresDescendantQuery) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(8, 60, 11);
    for (auto& doc : corpus) stack.loader->load(*doc);

    query::ServiceOptions opts;
    opts.threads = 2;
    opts.result_cache_bytes = 0;  // always execute, never serve cached
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    CancelToken dead = CancelToken::make(
        {Deadline::after(std::chrono::microseconds(1)), 0, 0});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_THROW((void)service.path("//author", dead), DeadlineExceeded);

    query::QueryService::Submission healthy =
        service.submit_path("count(//author)");
    EXPECT_GT(healthy.get()->scalar().as_integer(), 0);
}

// The executor really polls its token mid-join: a huge-countdown arm on
// `exec.cancel_poll` never fires but records every checkpoint reached,
// and the service-level ExecStats counter agrees.
TEST(Overload, ExecutorReachesCancelCheckpointsMidJoin) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(8, 60, 13);
    for (auto& doc : corpus) stack.loader->load(*doc);

    query::ServiceOptions opts;
    opts.threads = 0;
    opts.result_cache_bytes = 0;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    FaultGuard guard;
    fault::arm("exec.cancel_poll", 1000000000L);
    (void)service.path("/article/author");
    EXPECT_GT(fault::hits(), 0) << "no cancellation checkpoint was reached";
    EXPECT_FALSE(fault::fired());
    fault::disarm();
    EXPECT_GT(service.stats().exec.cancel_polls, 0u);
}

// Materialization budgets cut a query off deterministically: a row budget
// smaller than the result raises ResourceExhausted, as does a byte budget
// smaller than one fat text row.
TEST(Overload, MaterializationBudgetsBound) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(12, 30, 17);  // 12 article rows
    for (auto& doc : corpus) stack.loader->load(*doc);

    query::ServiceOptions opts;
    opts.threads = 0;
    opts.result_cache_bytes = 0;
    opts.row_budget = 5;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);
    EXPECT_THROW((void)service.sql("SELECT * FROM article"),
                 ResourceExhausted);
    // Under the budget nothing fires.
    EXPECT_EQ(service.sql(kCount)->scalar().as_integer() > 0, true);

    query::ServiceOptions bopts;
    bopts.threads = 0;
    bopts.result_cache_bytes = 0;
    bopts.byte_budget = 64;
    query::QueryService bytes_svc(stack.db, stack.mapping, stack.schema,
                                  bopts);
    EXPECT_THROW((void)bytes_svc.sql("SELECT * FROM article"),
                 ResourceExhausted);
}

// A deadline stamped at admission keeps counting through the queue wait:
// while the single worker is stuck in write-retry backoff (the injected
// transient fault — the write latch is held the whole time), a queued
// SELECT's deadline lapses and it terminates with DeadlineExceeded
// without ever executing.
TEST(Overload, DeadlineExpiresInQueueBehindRetryingWrite) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 1;
    opts.default_deadline = std::chrono::milliseconds(5);
    opts.write_retry_limit = 3;
    opts.write_retry_backoff = std::chrono::milliseconds(25);
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);
    service.execute_write("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)",
                          CancelToken{});

    FaultGuard guard;
    fault::arm("write.retry", 1);
    query::QueryService::Submission write =
        service.submit_sql("INSERT INTO kv (k, v) VALUES (1, 'a')");
    query::QueryService::Submission read = service.submit_sql(kCount);

    // The write faults once, sleeps its 25ms backoff, and then trips its
    // own 5ms deadline; the read sat queued past its deadline either way.
    EXPECT_THROW((void)write.get(), DeadlineExceeded);
    EXPECT_THROW((void)read.get(), DeadlineExceeded);
    fault::disarm();

    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.overload.expired, 2u);
    EXPECT_EQ(st.overload.shed, 0u);
    EXPECT_LE(st.overload.write_retries, 1u);
    EXPECT_GE(st.overload.queue_high_water, 1u);
    EXPECT_GT(st.overload.p99_queue_wait_us, 0u);

    // The faulted write rolled back: no partial row became visible.
    EXPECT_EQ(service.sql("SELECT COUNT(*) FROM kv", CancelToken{})
                  ->scalar()
                  .as_integer(),
              0);
}

// Abandoning a Submission cancels the query it names: a read queued
// behind a slow (retrying, latch-holding) write is dropped before its
// handle's destruction resolves it, and the worker classifies it as
// cancelled without executing it.  The write itself retries to success.
TEST(Overload, AbandonedSubmissionIsCancelledWhileWriteHoldsLatch) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 1;
    opts.write_retry_limit = 3;
    opts.write_retry_backoff = std::chrono::milliseconds(25);
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);
    service.execute_write("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)",
                          CancelToken{});

    FaultGuard guard;
    fault::arm("write.retry", 1, false, 2);  // two transient faults
    query::QueryService::Submission write =
        service.submit_sql("INSERT INTO kv (k, v) VALUES (1, 'a')");
    {
        // Queued behind ≥75ms of retry backoff, then abandoned.
        query::QueryService::Submission dropped =
            service.submit_sql(kCount);
        EXPECT_TRUE(dropped.valid());
    }
    (void)write.get();  // the write survives its transient faults
    fault::disarm();

    // FIFO: once this resolves, the abandoned job was already classified.
    query::QueryService::Submission after = service.submit_sql(kCount);
    EXPECT_GE(after.get()->scalar().as_integer(), 0);

    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.overload.cancelled, 1u);
    EXPECT_EQ(st.overload.write_retries, 2u);
    EXPECT_EQ(service.sql("SELECT COUNT(*) FROM kv")->scalar().as_integer(),
              1);
}

// Retry exhaustion: when the fault keeps firing past write_retry_limit,
// the last error surfaces to the caller and every attempt rolled back.
TEST(Overload, WriteRetryExhaustionSurfacesAndRollsBack) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 0;
    opts.write_retry_limit = 2;
    opts.write_retry_backoff = std::chrono::milliseconds(1);
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);
    service.execute_write("CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");

    FaultGuard guard;
    fault::arm("write.retry", 1, false, 100);  // never stops failing
    EXPECT_THROW(
        service.execute_write("INSERT INTO kv (k, v) VALUES (1, 'a')"),
        fault::InjectedFault);
    fault::disarm();

    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.overload.write_retries, 2u);
    EXPECT_EQ(service.sql("SELECT COUNT(*) FROM kv")->scalar().as_integer(),
              0);
}

// The shutdown race (TSan regression): submitters hammering the service
// while another thread shuts it down either get their result (admitted
// before the stop, drained by the workers) or the typed ShuttingDown —
// never a future that hangs.  shutdown() is idempotent and the service
// keeps rejecting with the typed error afterwards.
TEST(Overload, ShutdownRacingSubmittersRejectsTyped) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 2;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    constexpr int kSubmitters = 4;
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> rejected{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int i = 0; i < kSubmitters; ++i)
        submitters.emplace_back([&] {
            for (int n = 0; n < 100000; ++n) {
                try {
                    query::QueryService::Submission s =
                        service.submit_sql(kCount);
                    (void)s.get();
                    served.fetch_add(1, std::memory_order_relaxed);
                } catch (const ShuttingDown&) {
                    rejected.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
            }
        });

    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    service.shutdown();
    for (auto& t : submitters) t.join();
    service.shutdown();  // idempotent

    EXPECT_THROW((void)service.submit_sql(kCount), ShuttingDown);
    EXPECT_GT(served.load(), 0u);
    EXPECT_EQ(rejected.load(), kSubmitters);
}

// OverloadStats bookkeeping is exact under concurrency: across racing
// submitters every attempt is classified exactly once, so
// admitted == completed and shed == observed Overloaded throws.
TEST(Overload, StatsExactUnderConcurrentShedding) {
    Stack stack(gen::paper_dtd());
    auto corpus = gen::bibliography_corpus(2, 30, 19);
    for (auto& doc : corpus) stack.loader->load(*doc);

    query::ServiceOptions opts;
    opts.threads = 2;
    opts.max_queue = 4;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 200;
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::vector<std::thread> submitters;
    for (int i = 0; i < kSubmitters; ++i)
        submitters.emplace_back([&] {
            for (int n = 0; n < kPerThread; ++n) {
                try {
                    query::QueryService::Submission s =
                        service.submit_path("count(/article/author)");
                    (void)s.get();
                    ok.fetch_add(1, std::memory_order_relaxed);
                } catch (const Overloaded& e) {
                    EXPECT_LE(e.queue_depth(), 4u);
                    shed.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    for (auto& t : submitters) t.join();

    EXPECT_EQ(ok.load() + shed.load(),
              static_cast<std::uint64_t>(kSubmitters) * kPerThread);
    query::ServiceStats st = service.stats();
    EXPECT_EQ(st.overload.admitted, ok.load());
    EXPECT_EQ(st.overload.shed, shed.load());
    EXPECT_EQ(st.overload.expired, 0u);
    EXPECT_EQ(st.overload.cancelled, 0u);
    EXPECT_LE(st.overload.queue_high_water, 4u);
}

// A dead query is refused before translation: the service checks the
// token ahead of the plan-cache lookup, so a cancelled query neither
// translates nor touches the cache counters.
TEST(Overload, TranslationHonoursCancelToken) {
    Stack stack(gen::paper_dtd());
    query::ServiceOptions opts;
    opts.threads = 0;
    query::QueryService service(stack.db, stack.mapping, stack.schema, opts);

    CancelToken cancelled = CancelToken::make();
    cancelled.request_cancel();
    EXPECT_THROW((void)service.path("//author", cancelled), QueryCancelled);
    xquery::PlanCacheStats plans = service.stats().plan_cache;
    EXPECT_EQ(plans.hits + plans.misses, 0u);
}

}  // namespace
}  // namespace xr
