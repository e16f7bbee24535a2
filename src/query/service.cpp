#include "query/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "sql/parser.hpp"
#include "xquery/query.hpp"

namespace xr::query {

namespace {

/// Approximate heap footprint of a result set, for the cache byte budget.
std::size_t estimate_bytes(const sql::ResultSet& rs) {
    std::size_t bytes = sizeof(sql::ResultSet);
    for (const auto& c : rs.columns) bytes += sizeof(std::string) + c.size();
    for (const auto& row : rs.rows) {
        bytes += sizeof(rdb::Row) + row.size() * sizeof(rdb::Value);
        for (const auto& v : row)
            if (v.type() == rdb::ValueType::kText) bytes += v.as_text().size();
    }
    return bytes;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
    auto d = std::chrono::steady_clock::now() - since;
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

}  // namespace

QueryService::QueryService(rdb::Database& db, ServiceOptions options)
    : db_(db), options_(options) {
    for (std::size_t i = 0; i < options_.threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

QueryService::QueryService(rdb::Database& db,
                           const mapping::MappingResult& mapping,
                           const rel::RelationalSchema& schema,
                           ServiceOptions options)
    : QueryService(db, options) {
    translator_ = std::make_unique<xquery::SqlTranslator>(mapping, schema);
    plan_cache_ = std::make_unique<xquery::TranslationCache>(
        *translator_, options_.plan_cache_entries);
}

QueryService::~QueryService() { shutdown(); }

void QueryService::shutdown() {
    // shutdown_mu_ makes concurrent shutdown() calls (and the dtor)
    // block until the first finishes joining, so no caller ever returns
    // while workers are still running.
    std::lock_guard<std::mutex> guard(shutdown_mu_);
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
}

CancelToken QueryService::make_token(bool force_active) const {
    CancelToken::Limits limits;
    bool any = false;
    if (options_.default_deadline.count() > 0) {
        limits.deadline = Deadline::after(options_.default_deadline);
        any = true;
    }
    if (options_.row_budget > 0) {
        limits.row_budget = options_.row_budget;
        any = true;
    }
    if (options_.byte_budget > 0) {
        limits.byte_budget = options_.byte_budget;
        any = true;
    }
    if (!any && !force_active) return {};
    return CancelToken::make(limits);
}

QueryService::Result QueryService::sql(const std::string& text) {
    return sql(text, make_token(/*force_active=*/false));
}

QueryService::Result QueryService::sql(const std::string& text,
                                       const CancelToken& cancel) {
    sql::Statement stmt = sql::parse(text);
    if (stmt.kind != sql::Statement::Kind::kSelect) {
        execute_write(text, cancel);
        return std::make_shared<const sql::ResultSet>();
    }
    sql_queries_.fetch_add(1, std::memory_order_relaxed);
    cancel.check();  // don't take the latch for an already-dead query
    rdb::ReadSnapshot snapshot = db_.read_snapshot();
    // The parsed statement is private to this call, so executing it
    // directly (instead of re-parsing inside sql::execute) is safe.  The
    // snapshot's view pins a published DatabaseVersion: the whole
    // plan+execute runs latch-free against that epoch, concurrent writers
    // never block it and it never observes their partial state.
    return run_select(
        "sql:" + text,
        [&] {
            return sql::execute_select(snapshot.view(), stmt.select,
                                       &exec_stats_, cancel);
        },
        snapshot);
}

QueryService::Result QueryService::path(const std::string& text) {
    return path(text, make_token(/*force_active=*/false));
}

QueryService::Result QueryService::path(const std::string& text,
                                        const CancelToken& cancel) {
    xquery::Translation t = translate_with(text, cancel);
    path_queries_.fetch_add(1, std::memory_order_relaxed);
    cancel.check();
    rdb::ReadSnapshot snapshot = db_.read_snapshot();
    // Keyed by the *normalized* query (embedded in the translated SQL via
    // the plan cache): textual variants of one query share an entry.
    return run_select(
        "path:" + t.sql,
        [&] {
            return sql::execute_read(snapshot.view(), t.sql, &exec_stats_,
                                     cancel);
        },
        snapshot);
}

xquery::Translation QueryService::translate(const std::string& text) {
    return translate_with(text, make_token(/*force_active=*/false));
}

xquery::Translation QueryService::translate_with(const std::string& text,
                                                 const CancelToken& cancel) {
    if (translator_ == nullptr)
        throw QueryError(
            "this query service was built without a mapping; "
            "path queries are not available");
    cancel.check();  // refuse a dead query before translating it
    xquery::PathQuery q = xquery::parse_query(text);
    if (plan_cache_ != nullptr) return plan_cache_->get(q);
    return translator_->translate(q);
}

QueryService::Submission QueryService::submit_sql(std::string text) {
    CancelToken token = make_token(/*force_active=*/true);
    std::future<Result> future = enqueue(
        [this, text = std::move(text), token] { return sql(text, token); },
        token);
    return Submission(std::move(future), std::move(token));
}

QueryService::Submission QueryService::submit_path(std::string text) {
    CancelToken token = make_token(/*force_active=*/true);
    std::future<Result> future = enqueue(
        [this, text = std::move(text), token] { return path(text, token); },
        token);
    return Submission(std::move(future), std::move(token));
}

void QueryService::execute_write(const std::string& text) {
    execute_write(text, make_token(/*force_active=*/false));
}

void QueryService::execute_write(const std::string& text,
                                 const CancelToken& cancel) {
    std::lock_guard<std::mutex> lock(write_mu_);
    writes_.fetch_add(1, std::memory_order_relaxed);
    std::chrono::milliseconds backoff = options_.write_retry_backoff;
    if (backoff.count() <= 0) backoff = std::chrono::milliseconds(1);
    for (std::size_t attempt = 0;; ++attempt) {
        cancel.check();
        try {
            // The injected stand-in for a transient write failure (an I/O
            // hiccup, a torn latch): armed via the `write.retry` point.
            fault::maybe_fail("write.retry");
            db_.begin_unit();
            try {
                sql::execute(db_, text, &exec_stats_, cancel);
            } catch (...) {
                if (db_.in_unit()) db_.rollback_unit();
                throw;
            }
            db_.commit_unit();  // watermark bump → cached results go stale
            return;
        } catch (const fault::InjectedFault&) {
            if (attempt >= options_.write_retry_limit) throw;
            write_retries_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(backoff);
            backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
        }
        // Any other exception (parse error, constraint violation, an
        // exceeded deadline) is not transient: it propagates immediately.
    }
}

QueryService::Result QueryService::run_select(
    const std::string& cache_key,
    const std::function<sql::ResultSet()>& exec,
    const rdb::ReadSnapshot& snapshot) {
    bool caching = options_.result_cache_bytes > 0;
    if (caching) {
        if (Result hit = lookup_cache(cache_key, snapshot.watermark()))
            return hit;
    }
    Result result = std::make_shared<const sql::ResultSet>(exec());
    if (caching) insert_cache(cache_key, snapshot.watermark(), result);
    return result;
}

QueryService::Result QueryService::lookup_cache(const std::string& key,
                                                std::uint64_t watermark) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_index_.find(key);
    if (it == cache_index_.end()) {
        ++cache_stats_.misses;
        return nullptr;
    }
    if (it->second->watermark != watermark) {
        // Computed against an older committed state: invalidate lazily.
        ++cache_stats_.invalidated;
        ++cache_stats_.misses;
        cache_bytes_ -= it->second->bytes;
        lru_.erase(it->second);
        cache_index_.erase(it);
        return nullptr;
    }
    ++cache_stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->result;
}

void QueryService::insert_cache(const std::string& key,
                                std::uint64_t watermark,
                                const Result& result) {
    std::size_t bytes = estimate_bytes(*result);
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (bytes > options_.result_cache_bytes) {
        // Admitting it would evict the whole cache for one entry that
        // likely never amortizes; count it so operators can see a budget
        // that is too small for the workload.
        ++cache_stats_.oversized;
        return;
    }
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
        // Raced with another miss on the same key; keep the newer entry.
        cache_bytes_ -= it->second->bytes;
        lru_.erase(it->second);
        cache_index_.erase(it);
    }
    lru_.push_front(CacheEntry{key, watermark, bytes, result});
    cache_index_.emplace(key, lru_.begin());
    cache_bytes_ += bytes;
    while (cache_bytes_ > options_.result_cache_bytes && lru_.size() > 1) {
        cache_bytes_ -= lru_.back().bytes;
        cache_index_.erase(lru_.back().key);
        lru_.pop_back();
        ++cache_stats_.evicted;
    }
}

std::uint64_t QueryService::retry_after_ms(std::size_t depth) const {
    // Rough service-time model: the backlog ahead of a resubmission is
    // `depth` jobs spread over the worker pool, each costing the recent
    // average.  Coarse, but it gives clients a better hint than a
    // constant — and it degrades to 1ms on a cold service.
    std::uint64_t avg = avg_job_us_.load(std::memory_order_relaxed);
    std::size_t workers = options_.threads == 0 ? 1 : options_.threads;
    std::uint64_t us = avg * (depth + 1) / workers;
    return us / 1000 + 1;
}

std::future<QueryService::Result> QueryService::enqueue(
    std::function<Result()> job, const CancelToken& token) {
    // The wrapper runs on a worker: it re-checks the token first (the
    // client may have abandoned, or the deadline may have passed in the
    // queue) and classifies the terminal outcome for OverloadStats.
    auto wrapped = [this, job = std::move(job), token]() -> Result {
        try {
            token.check();
            return job();
        } catch (const DeadlineExceeded&) {
            expired_.fetch_add(1, std::memory_order_relaxed);
            throw;
        } catch (const QueryCancelled&) {
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            throw;
        }
    };
    std::packaged_task<Result()> task(std::move(wrapped));
    std::future<Result> future = task.get_future();
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (stopping_)
            throw ShuttingDown(
                "query service is shutting down; submission refused");
        try {
            fault::maybe_fail("service.admit");
        } catch (const fault::InjectedFault&) {
            // Injected admission failure: shed exactly like a full queue
            // so clients exercise their Overloaded handling.
            shed_.fetch_add(1, std::memory_order_relaxed);
            throw Overloaded(queue_.size(), retry_after_ms(queue_.size()));
        }
        if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
            shed_.fetch_add(1, std::memory_order_relaxed);
            throw Overloaded(queue_.size(), retry_after_ms(queue_.size()));
        }
        admitted_.fetch_add(1, std::memory_order_relaxed);
        queue_.push_back(
            Job{std::move(task), token, std::chrono::steady_clock::now()});
        queue_high_water_ = std::max(queue_high_water_, queue_.size());
    }
    queue_cv_.notify_one();
    return future;
}

void QueryService::worker_loop() {
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping, queue drained
            job = std::move(queue_.front());
            queue_.pop_front();
            wait_ring_[wait_ring_pos_ % kQueueWaitRing] =
                elapsed_us(job.enqueued);
            ++wait_ring_pos_;
        }
        auto start = std::chrono::steady_clock::now();
        job.task();  // exceptions land in the future
        // EWMA (alpha 1/8) of execution time; racy updates between
        // workers only blur an estimate that is already approximate.
        std::uint64_t run_us = elapsed_us(start);
        std::uint64_t prev = avg_job_us_.load(std::memory_order_relaxed);
        std::uint64_t next = prev == 0 ? run_us : prev - prev / 8 + run_us / 8;
        avg_job_us_.store(next, std::memory_order_relaxed);
    }
}

ServiceStats QueryService::stats() const {
    ServiceStats s;
    s.sql_queries = sql_queries_.load(std::memory_order_relaxed);
    s.path_queries = path_queries_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(cache_mu_);
        s.result_cache = cache_stats_;
    }
    if (plan_cache_ != nullptr) s.plan_cache = plan_cache_->stats();
    s.overload.admitted = admitted_.load(std::memory_order_relaxed);
    s.overload.shed = shed_.load(std::memory_order_relaxed);
    s.overload.expired = expired_.load(std::memory_order_relaxed);
    s.overload.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.overload.write_retries = write_retries_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        s.overload.queue_high_water = queue_high_water_;
        std::size_t n = std::min(wait_ring_pos_, kQueueWaitRing);
        if (n > 0) {
            std::vector<std::uint64_t> waits(wait_ring_.begin(),
                                             wait_ring_.begin() +
                                                 static_cast<long>(n));
            std::sort(waits.begin(), waits.end());
            s.overload.p50_queue_wait_us = waits[n / 2];
            s.overload.p99_queue_wait_us = waits[(n * 99) / 100];
        }
    }
    s.exec = exec_stats_;
    return s;
}

void QueryService::clear_result_cache() {
    std::lock_guard<std::mutex> lock(cache_mu_);
    lru_.clear();
    cache_index_.clear();
    cache_bytes_ = 0;
}

}  // namespace xr::query
