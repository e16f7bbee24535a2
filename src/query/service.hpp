// Concurrent query serving over a loaded database (DESIGN.md §9, §11).
//
// QueryService is the session layer the paper's "query processing"
// section implies once documents are relational: clients hand it SQL or
// path-query text; a pool of worker threads executes them against the
// shared MiniRDB instance.  Three mechanisms make that safe and fast:
//
//   * every SELECT runs under a rdb::ReadSnapshot — a shared latch plus
//     the commit watermark observed at acquisition, so a query sees one
//     committed state even while loads or checkpoints run;
//   * translated plans are cached (xquery::TranslationCache) keyed by
//     normalized path-query text — translation is pure, so plan entries
//     never go stale;
//   * result sets are cached under a byte budget, each entry tagged with
//     the commit watermark it was computed at.  A lookup whose entry
//     carries an older watermark is an *invalidation*: the entry is
//     dropped and the query re-executes.  The watermark bumps on every
//     outermost commit and DDL, so a commit implicitly flushes every
//     stale result without the writers knowing the cache exists.
//
// On top of that sits the overload discipline (DESIGN.md §11): admission
// control sheds submissions past a bounded queue with a typed Overloaded
// carrying the observed depth and a retry-after hint; every admitted
// query gets a CancelToken wound with the service deadline and budgets,
// which the executor polls cooperatively; submissions return a Submission
// handle whose destruction cancels an abandoned in-flight query; and
// writes that hit a transient (injected) failure retry under bounded
// exponential backoff before surfacing the error.
//
// Writes (INSERT / CREATE ...) funnel through execute_write(), which
// serializes them on an internal mutex and brackets each in a load unit —
// honouring the single-writer contract of rdb's unit machinery and giving
// readers atomic visibility of each statement.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "mapping/pipeline.hpp"
#include "rdb/database.hpp"
#include "rel/schema.hpp"
#include "sql/executor.hpp"
#include "xquery/plan_cache.hpp"
#include "xquery/sql_translate.hpp"

namespace xr::query {

struct ServiceOptions {
    /// Worker threads for submit_*() handles (sync calls run inline on
    /// the caller's thread and need no workers).
    std::size_t threads = 4;
    /// Result-cache byte budget; 0 disables result caching.
    std::size_t result_cache_bytes = 16u << 20;
    /// Plan-cache entry capacity; 0 disables plan caching.
    std::size_t plan_cache_entries = 256;

    // ---- Overload discipline (DESIGN.md §11) ----

    /// Admission bound: submissions past this queue depth are shed with
    /// xr::Overloaded instead of queued.  0 means unbounded (no shedding).
    std::size_t max_queue = 0;
    /// Deadline stamped on every query at *admission* (queue wait counts
    /// against it — an overloaded service expires stale work instead of
    /// executing it).  Zero means no deadline.
    std::chrono::milliseconds default_deadline{0};
    /// Per-query materialization budgets (rows / approximate bytes);
    /// exceeding one raises xr::ResourceExhausted.  0 means unlimited.
    std::size_t row_budget = 0;
    std::size_t byte_budget = 0;
    /// Retries (beyond the first attempt) for a write that fails with a
    /// transient fault, each preceded by an exponentially growing backoff
    /// starting at write_retry_backoff (capped at 100ms).
    std::size_t write_retry_limit = 3;
    std::chrono::milliseconds write_retry_backoff{1};
};

/// Result-cache counters (plan-cache counters live in PlanCacheStats).
struct ResultCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidated = 0;  ///< dropped on watermark mismatch
    std::uint64_t evicted = 0;      ///< dropped by the byte budget
    std::uint64_t oversized = 0;    ///< never admitted: entry alone > budget

    [[nodiscard]] double hit_ratio() const {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
};

/// Overload / lifecycle counters (DESIGN.md §11).  `shed` counts
/// admission rejections (queue full or the `service.admit` fault point);
/// `expired` and `cancelled` count queries that *terminated* with
/// DeadlineExceeded / QueryCancelled after admission.
struct OverloadStats {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t write_retries = 0;     ///< individual retry attempts
    std::size_t queue_high_water = 0;    ///< max observed queue depth
    std::uint64_t p50_queue_wait_us = 0; ///< over a recent-window ring
    std::uint64_t p99_queue_wait_us = 0;
};

struct ServiceStats {
    std::uint64_t sql_queries = 0;   ///< SELECTs served (cached or not)
    std::uint64_t path_queries = 0;  ///< path queries served
    std::uint64_t writes = 0;        ///< statements through execute_write
    ResultCacheStats result_cache;
    xquery::PlanCacheStats plan_cache;
    OverloadStats overload;
    sql::ExecStats exec;  ///< aggregate over all served queries
};

class QueryService {
public:
    /// Results are shared immutable snapshots: the cache and any number
    /// of clients may hold the same ResultSet concurrently.
    using Result = std::shared_ptr<const sql::ResultSet>;

    /// Handle on an asynchronously submitted query: the future plus the
    /// query's CancelToken.  Destroying (or overwriting) the handle
    /// before collecting the result counts as *abandoning* the query —
    /// the token is cancelled so a queued or in-flight execution unwinds
    /// at its next poll instead of computing a result nobody will read.
    class Submission {
    public:
        Submission() = default;
        Submission(std::future<Result> future, CancelToken token)
            : future_(std::move(future)), token_(std::move(token)) {}
        Submission(Submission&&) noexcept = default;
        Submission& operator=(Submission&& other) noexcept {
            if (this != &other) {
                abandon();
                future_ = std::move(other.future_);
                token_ = std::move(other.token_);
            }
            return *this;
        }
        ~Submission() { abandon(); }

        /// True until get() consumes the result.
        [[nodiscard]] bool valid() const { return future_.valid(); }
        /// Wait and return the result, or rethrow what execution threw.
        Result get() { return future_.get(); }
        /// Explicitly cancel the query; a later get() surfaces
        /// QueryCancelled (unless the result was already computed).
        void cancel() const noexcept { token_.request_cancel(); }
        [[nodiscard]] const CancelToken& token() const { return token_; }
        [[nodiscard]] std::future<Result>& future() { return future_; }

    private:
        void abandon() noexcept {
            if (future_.valid()) token_.request_cancel();
        }

        std::future<Result> future_;
        CancelToken token_;
    };

    /// SQL-only service (no path queries; path()/translate() throw).
    explicit QueryService(rdb::Database& db, ServiceOptions options = {});

    /// Full service: path queries translate through `mapping`/`schema`,
    /// which must outlive the service and stay frozen while it runs.
    QueryService(rdb::Database& db, const mapping::MappingResult& mapping,
                 const rel::RelationalSchema& schema,
                 ServiceOptions options = {});

    ~QueryService();
    QueryService(const QueryService&) = delete;
    QueryService& operator=(const QueryService&) = delete;

    /// Execute a SELECT synchronously on the caller's thread.  Throws
    /// xr::Error subclasses on parse/execution failure.  Non-SELECT
    /// statements are routed to execute_write() (and never cached).
    /// The no-token overload derives a token from the service options
    /// (deadline / budgets); pass an explicit token to override.
    Result sql(const std::string& text);
    Result sql(const std::string& text, const CancelToken& cancel);

    /// Execute a path query (translated to SQL) synchronously.
    Result path(const std::string& text);
    Result path(const std::string& text, const CancelToken& cancel);

    /// Translate a path query without executing it (CLI/EXPLAIN use);
    /// hits the plan cache like path() does.
    [[nodiscard]] xquery::Translation translate(const std::string& text);

    /// Enqueue for a worker thread.  Admission control applies here:
    /// throws xr::ShuttingDown after shutdown() began, xr::Overloaded
    /// when the queue is at max_queue (the exception carries the depth
    /// and a retry-after hint from the recent average job time).  The
    /// returned Submission's future carries the result or the exception
    /// the sync call would have thrown.
    Submission submit_sql(std::string text);
    Submission submit_path(std::string text);

    /// Execute a mutating statement: serialized against other writes,
    /// wrapped in its own load unit (commit bumps the watermark, which
    /// invalidates affected cached results on their next lookup).  A
    /// transiently failing write (fault::InjectedFault — the injected
    /// stand-in for I/O hiccups) is rolled back and retried up to
    /// write_retry_limit times under exponential backoff; persistent
    /// failure rethrows the last error.
    void execute_write(const std::string& text);
    void execute_write(const std::string& text, const CancelToken& cancel);

    /// Stop admitting work, drain the queue, and join the workers.
    /// Idempotent and safe to race with submitters: concurrent
    /// submissions either enqueue before the stop (and are drained) or
    /// observe xr::ShuttingDown.  The destructor calls this.
    void shutdown();

    [[nodiscard]] ServiceStats stats() const;
    /// Drop every cached result (plan cache is left alone — plans cannot
    /// go stale).  Mostly for tests and benches.
    void clear_result_cache();

private:
    struct CacheEntry {
        std::string key;
        std::uint64_t watermark = 0;
        std::size_t bytes = 0;
        Result result;
    };

    /// A queued unit of work: the task, the query's token (for deadline
    /// accounting across the queue wait) and its admission time.
    struct Job {
        std::packaged_task<Result()> task;
        CancelToken token;
        std::chrono::steady_clock::time_point enqueued;
    };

    /// Queue-wait samples kept for the p50/p99 estimate — a fixed ring
    /// so stats stay O(1) in served volume.
    static constexpr std::size_t kQueueWaitRing = 512;

    /// Build a token from the service options; inert when no deadline or
    /// budget is configured unless `force_active` (submissions always
    /// need a live token so abandon-cancel works).
    [[nodiscard]] CancelToken make_token(bool force_active) const;

    Result run_select(const std::string& cache_key,
                      const std::function<sql::ResultSet()>& exec,
                      const rdb::ReadSnapshot& snapshot);
    Result lookup_cache(const std::string& key, std::uint64_t watermark);
    void insert_cache(const std::string& key, std::uint64_t watermark,
                      const Result& result);
    [[nodiscard]] xquery::Translation translate_with(
        const std::string& text, const CancelToken& cancel);
    std::future<Result> enqueue(std::function<Result()> job,
                                const CancelToken& token);
    [[nodiscard]] std::uint64_t retry_after_ms(std::size_t depth) const;
    void worker_loop();

    rdb::Database& db_;
    ServiceOptions options_;
    std::unique_ptr<xquery::SqlTranslator> translator_;
    std::unique_ptr<xquery::TranslationCache> plan_cache_;

    // Result cache (front of lru_ = most recently used).
    mutable std::mutex cache_mu_;
    std::list<CacheEntry> lru_;
    std::map<std::string, std::list<CacheEntry>::iterator> cache_index_;
    std::size_t cache_bytes_ = 0;
    ResultCacheStats cache_stats_;

    // Counters outside the cache lock.
    std::atomic<std::uint64_t> sql_queries_{0};
    std::atomic<std::uint64_t> path_queries_{0};
    std::atomic<std::uint64_t> writes_{0};
    sql::ExecStats exec_stats_;

    // Overload counters (lifecycle classification happens in the job
    // wrapper; shedding in enqueue).
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> cancelled_{0};
    std::atomic<std::uint64_t> write_retries_{0};
    /// EWMA of job execution time in µs — feeds the retry-after hint.
    std::atomic<std::uint64_t> avg_job_us_{0};

    std::mutex write_mu_;  ///< serializes execute_write() callers

    // Worker pool.  queue_mu_ also guards the wait ring and high-water
    // mark (both touched only at enqueue/dequeue, which hold it anyway);
    // mutable so stats() can read them.
    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;
    bool stopping_ = false;
    std::size_t queue_high_water_ = 0;
    std::array<std::uint64_t, kQueueWaitRing> wait_ring_{};
    std::size_t wait_ring_pos_ = 0;
    /// Serializes shutdown() (and the dtor) against each other; workers_
    /// is only mutated under it after construction.
    std::mutex shutdown_mu_;
    std::vector<std::thread> workers_;
};

}  // namespace xr::query
