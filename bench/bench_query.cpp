// Experiment §5-query — the paper's open question: "How is the
// performance on querying and searching the XML data ... in relational
// databases comparing to directly querying the XML documents?"
//
// Four query shapes over the bibliography corpus, evaluated as SQL over
// the mapped schema and as direct DOM traversal, across corpus sizes:
//   Q1 point     — selective predicate on a distilled attribute
//   Q2 path      — full path chase across relationship tables
//   Q3 scan      — predicate on a nested value (join + filter)
//   Q4 reference — IDREF dereference via the reference table
//
// Expected shape: DOM wins on tiny corpora (no join overhead); SQL wins as
// the corpus grows when the predicate is selective and indexed; full-path
// enumeration stays DOM-friendly.  The crossover is the result.
// The cold-path section times descendant ('//') queries with every
// cache disabled: the structural-index interval plans, cold (parse +
// translate + execute) and warm (execute only), plus two unindexed
// filtered scans, one through a full scan and one through range lookups,
// whose warm time per row scanned is the executor's per-row cost.  A
// second table runs perfbench's four analytic patterns on a base shaped
// like its serve_cold one (2 000 bulk-loaded documents of ~200 elements,
// article.title and name.lastname indexed), so the plans timed are the
// plans that workload serves.  Every time is the median of five short
// batches.  The serving section
// answers the follow-on question: what does the relational side buy
// once queries arrive *concurrently*?
// N client threads replay a mixed workload through query::QueryService;
// the shared result cache turns each distinct query's cost into one cold
// execution plus cheap hits, so aggregate throughput scales with the
// client count even on a single core.  Results land in BENCH_query.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "loader/bulk_loader.hpp"
#include "query/service.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"
#include "xquery/dom_eval.hpp"
#include "xquery/sql_translate.hpp"
#include "xml/serializer.hpp"

namespace {

using namespace xr;
using Clock = std::chrono::steady_clock;

struct QueryCase {
    const char* id;
    const char* text;
};

constexpr QueryCase kCases[] = {
    {"Q1 point", "/article[title = 'XML RDBMS']/author"},
    {"Q2 path", "count(/article/author/name)"},
    {"Q3 scan", "/article/author[name/lastname = 'Smith']"},
    {"Q4 reference", "/article/contactauthor/@authorid"},
};

struct Loaded {
    bench::Stack stack;
    std::vector<std::unique_ptr<xml::Document>> docs;
    std::vector<const xml::Document*> views;

    explicit Loaded(std::size_t doc_count) : stack(gen::paper_dtd()) {
        docs.push_back(xml::parse_document(gen::paper_sample_document()));
        for (auto& doc : gen::bibliography_corpus(doc_count, 300, 7))
            docs.push_back(std::move(doc));
        for (auto& doc : docs) {
            loader::LoadOptions options;
            options.validate = false;
            options.resolve_references = false;
            stack.loader->load(*doc, options);
            views.push_back(doc.get());
        }
        stack.loader->resolve_references();
        // Index the selective predicate column — the paper's "is there a
        // need of index structures for XML data?" made concrete.
        stack.db.require("article").create_index("title");
        stack.db.require("name").create_index("lastname");
    }
};

/// Microseconds per call of `fn`: the median over `batches` short batches
/// of each batch's mean, so one host stall spoils a batch, not the record.
double time_us(const std::function<void()>& fn, int batches = 5, int reps = 4) {
    std::vector<double> means;
    for (int b = 0; b < batches; ++b) {
        auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) fn();
        means.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
            reps);
    }
    std::nth_element(means.begin(), means.begin() + batches / 2, means.end());
    return means[batches / 2];
}

void print_report() {
    std::cout
        << "=== §5-query: SQL over mapped schema vs direct DOM traversal ===\n";
    TablePrinter table({"corpus docs", "query", "results", "dom us", "sql us",
                        "sql/dom", "joins"});

    for (std::size_t docs : {8, 64, 512}) {
        Loaded loaded(docs);
        xquery::SqlTranslator translator(loaded.stack.mapping,
                                         loaded.stack.schema);
        for (const QueryCase& c : kCases) {
            xquery::PathQuery q = xquery::parse_query(c.text);
            xquery::Translation t = translator.translate(q);
            sql::SelectStmt stmt = sql::parse_select(t.sql);

            std::size_t dom_n = xquery::evaluate(loaded.views, q).size();
            double dom_us =
                time_us([&] { (void)xquery::evaluate(loaded.views, q); });
            double sql_us = time_us(
                [&] { sql::execute_select(loaded.stack.db, stmt); });

            table.add_row({std::to_string(loaded.views.size()), c.id,
                           std::to_string(dom_n), format_double(dom_us, 1),
                           format_double(sql_us, 1),
                           format_double(sql_us / dom_us, 2),
                           std::to_string(t.join_count)});
        }
    }
    std::cout << table.to_string() << "\n";
}

// ---------------------------------------------------------------------------
// Cold path: descendant queries with every cache disabled.  "Cold" pays
// the full pipeline — parse, translate, SQL parse, execute — exactly what
// a first-seen query costs through the service; "warm" re-executes the
// already-translated plan.  The structural index turns a root '//x' into
// a bare table scan and a nested '//' into one (pre, post) range probe.

struct ColdRecord {
    std::string query;
    std::size_t rows = 0;
    std::size_t interval_joins = 0;
    double interval_cold_us = 0;
    double interval_warm_us = 0;
    std::size_t rows_scanned = 0;  ///< ExecStats::rows_scanned per execution
    [[nodiscard]] double warm_ns_per_row_scanned() const {
        return rows_scanned == 0 ? 0 : interval_warm_us * 1000.0 / rows_scanned;
    }
};

/// Times each query of `queries` cold (translate + execute) and warm
/// (execute the parsed SQL) on the stack's database.
std::vector<ColdRecord> time_cold_queries(
    bench::Stack& stack, const std::vector<std::string>& queries) {
    xquery::SqlTranslator translator(stack.mapping, stack.schema);
    std::vector<ColdRecord> records;
    for (const std::string& text : queries) {
        ColdRecord rec;
        rec.query = text;
        xquery::Translation t = translator.translate(xquery::parse_query(text));
        rec.rows = sql::execute(stack.db, t.sql).row_count();
        rec.interval_joins = t.join_count;
        rec.interval_cold_us = time_us([&] {
            xquery::Translation cold =
                translator.translate(xquery::parse_query(text));
            (void)sql::execute(stack.db, cold.sql);
        });
        sql::SelectStmt stmt = sql::parse_select(t.sql);
        sql::ExecStats stats;
        (void)sql::execute_select(stack.db, stmt, &stats);
        rec.rows_scanned = stats.rows_scanned;
        rec.interval_warm_us =
            time_us([&] { (void)sql::execute_select(stack.db, stmt); });
        records.push_back(rec);
    }
    return records;
}

std::vector<ColdRecord> cold_path_records(Loaded& loaded) {
    std::vector<std::string> queries = {
        "//author",
        "//name",
        "/article//author",
        "/article[title = 'XML RDBMS']//author",
        "count(//name)",
    };
    // The unindexed filtered scans (the shapes of perfbench's analytic
    // queries): firstname is not indexed, so every name row is scanned and
    // compared, by a full scan in the first query and by the (pre, post)
    // range lookup under each article in the second.  The values come from
    // the last name row of a generated document, so, as in perfbench, they
    // are generated text longer than the small-string buffer (the
    // hand-written sample document's are not).
    const rdb::Table& names = loaded.stack.db.require("name");
    for (rdb::RowId id = names.row_count(); id-- > 0;) {
        const rdb::Value& first = names.at(id, "firstname");
        if (first.is_null()) continue;
        std::string preds = "[firstname = '" + first.as_text() +
                            "'][lastname != '" +
                            names.at(id, "lastname").as_text() + "']";
        queries.push_back("count(//name" + preds + ")");
        queries.push_back("/article//name" + preds + "/lastname");
        break;
    }
    return time_cold_queries(loaded.stack, queries);
}

/// perfbench serve_cold's base: 2 000 generated documents of ~200
/// elements, bulk-loaded from their XML text by one job with validation
/// on, then the article.title and name.lastname indexes.
struct ServeColdBase {
    bench::Stack stack{gen::paper_dtd()};

    ServeColdBase() {
        std::vector<std::string> texts;
        for (const auto& doc : gen::bibliography_corpus(2000, 200, 1201))
            texts.push_back(xml::serialize(*doc));
        loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema,
                                stack.db);
        loader::BulkLoadOptions opts;
        opts.jobs = 1;
        opts.validate = true;
        if (!bulk.load_texts(texts, opts).ok())
            throw std::runtime_error("serve_cold base failed to load");
        stack.db.require("article").create_index("title");
        stack.db.require("name").create_index("lastname");
    }
};

/// perfbench's four analytic (whole-table scan) patterns, with values
/// from the last name row that has both names.
std::vector<ColdRecord> serve_cold_records(ServeColdBase& base) {
    const rdb::Table& names = base.stack.db.require("name");
    std::string f, l;
    for (rdb::RowId id = names.row_count(); id-- > 0;) {
        const rdb::Value& first = names.at(id, "firstname");
        const rdb::Value& last = names.at(id, "lastname");
        if (first.is_null() || last.is_null()) continue;
        f = first.as_text();
        l = last.as_text();
        break;
    }
    const std::string preds =
        "[firstname = '" + f + "'][lastname != '" + l + "']";
    return time_cold_queries(
        base.stack,
        {"/article//name" + preds + "/lastname",
         "count(//author[name/firstname = '" + f + "'][name/lastname != '" +
             l + "'])",
         "//name[ancestor::article]" + preds, "count(//name" + preds + ")"});
}

// ---------------------------------------------------------------------------
// Cost-based planner: as-translated join order vs the planner's pick.
// The translator emits joins in path order (root outward), so a selective
// predicate at the *tail* of the path — e.g. an indexed lastname — leaves
// the as-written plan scanning the root table and filtering last.  The
// planner drives from the selective table instead.  Timings are cold-path
// (SQL parse + plan + execute per rep); q_error is max(est/actual,
// actual/est) of the planner's join-cardinality estimate vs the actual
// result rows, the standard estimate-quality metric.

struct PlannerRecord {
    std::string query;
    std::size_t rows = 0;
    std::size_t joins = 0;
    bool reordered = false;
    std::string shape;
    double est_rows = 0;
    double q_error = 0;
    double planner_us = 0;
    double as_written_us = 0;

    double speedup() const {
        return planner_us == 0 ? 1.0 : as_written_us / planner_us;
    }
};

std::vector<PlannerRecord> planner_records(Loaded& loaded) {
    const char* kJoinQueries[] = {
        "/article/author[name/lastname = 'Smith']",
        "/article/author/name[lastname = 'Smith']",
        "/article[title = 'XML RDBMS']/author",
        "count(/article/author/name)",
        "/article/contactauthor",
    };
    // Fresh full-scan statistics (the incremental per-commit folds are
    // already in place; analyze pins exact counts for the report).
    loaded.stack.db.analyze();
    xquery::SqlTranslator translator(loaded.stack.mapping,
                                     loaded.stack.schema);

    std::vector<PlannerRecord> records;
    for (const char* text : kJoinQueries) {
        xquery::Translation t =
            translator.translate(xquery::parse_query(text));
        auto run = [&](bool enable) {
            sql::PlannerOptions popts;
            popts.enable = enable;
            return time_us([&] {
                sql::SelectStmt stmt = sql::parse_select(t.sql);
                (void)sql::execute_select(loaded.stack.db, stmt, nullptr, {},
                                          &popts);
            });
        };

        PlannerRecord rec;
        rec.query = text;
        rec.joins = t.join_count;
        sql::SelectStmt stmt = sql::parse_select(t.sql);
        sql::PlanInfo info = sql::plan_select(loaded.stack.db, stmt);
        rec.reordered = info.reordered;
        rec.shape = info.shape();
        rec.est_rows = info.est_rows;
        rec.rows = sql::execute_select(loaded.stack.db, stmt).row_count();
        // DISTINCT/aggregates make actual rows a lower bound on the join
        // cardinality the estimate targets; clamp so q_error >= 1.
        double actual = std::max<double>(1.0, rec.rows);
        double est = std::max(1.0, rec.est_rows);
        rec.q_error = std::max(est / actual, actual / est);
        rec.as_written_us = run(false);
        rec.planner_us = run(true);
        records.push_back(rec);
    }
    return records;
}

// ---------------------------------------------------------------------------
// Concurrent serving: queries/sec at 1/2/4/8 client threads.

/// Distinct queries per client round — enough variety that the result
/// cache is exercised as a cache, not a single memoized value.
std::vector<std::string> serving_workload() {
    std::vector<std::string> w;
    for (const QueryCase& c : kCases) w.emplace_back(c.text);
    for (int i = 0; i < 4; ++i) {
        w.push_back("/article/author[name/lastname = 'Miss" +
                    std::to_string(i) + "']");
        w.push_back("/article[title = 'Title" + std::to_string(i) +
                    "']/author");
    }
    w.emplace_back("count(/article/author)");
    w.emplace_back("count(/article)");
    w.emplace_back("/article/author/name/lastname");
    w.emplace_back("/article/title");
    return w;
}

struct ServeRecord {
    std::size_t threads = 0;
    std::size_t jobs = 0;
    double seconds = 0;
    double qps = 0;
    double speedup = 1.0;
    double result_hit_ratio = 0;
    double plan_hit_ratio = 0;
    double cold_us = 0;
    double warm_us = 0;
};

/// `threads` clients each replay the workload `rounds` times through a
/// service sized to match; one shared result cache soaks the repeats.
ServeRecord serve_once(Loaded& loaded, std::size_t threads,
                       std::size_t rounds) {
    std::vector<std::string> workload = serving_workload();
    query::ServiceOptions opts;
    opts.threads = threads;
    query::QueryService service(loaded.stack.db, loaded.stack.mapping,
                                loaded.stack.schema, opts);

    // Cold / warm single-query latency, before the throughput run.
    double cold_us = 0;
    for (const auto& q : workload) {
        auto t0 = Clock::now();
        (void)service.path(q);
        cold_us += std::chrono::duration<double, std::micro>(Clock::now() - t0)
                       .count();
    }
    cold_us /= static_cast<double>(workload.size());
    double warm_us =
        time_us([&] { (void)service.path(workload.front()); }) ;
    service.clear_result_cache();

    // Submit batches until the run is long enough to trust: a fixed round
    // count gave the low-thread configs only ~100 jobs each, so their qps
    // was dominated by scheduler noise rather than service throughput.
    // Every config now runs at least kMinJobs jobs *and* kMinSeconds of
    // wall clock, whichever bound bites later.
    constexpr double kMinSeconds = 0.25;
    constexpr std::size_t kMinJobs = 2000;
    std::vector<query::QueryService::Submission> futures;
    futures.reserve(threads * rounds * workload.size());
    std::size_t jobs = 0;
    double seconds = 0;
    auto t0 = Clock::now();
    do {
        futures.clear();
        for (std::size_t r = 0; r < rounds; ++r)
            for (std::size_t c = 0; c < threads; ++c)
                // Each client starts at its own offset so concurrent
                // clients are not in lockstep on the same key.
                for (std::size_t i = 0; i < workload.size(); ++i)
                    futures.push_back(service.submit_path(
                        workload[(i + c) % workload.size()]));
        for (auto& f : futures) (void)f.get();
        jobs += futures.size();
        seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (seconds < kMinSeconds || jobs < kMinJobs);

    query::ServiceStats st = service.stats();
    ServeRecord rec;
    rec.threads = threads;
    rec.jobs = jobs;
    rec.seconds = seconds;
    rec.qps = static_cast<double>(jobs) / seconds;
    rec.result_hit_ratio = st.result_cache.hit_ratio();
    rec.plan_hit_ratio = st.plan_cache.hit_ratio();
    rec.cold_us = cold_us;
    rec.warm_us = warm_us;
    return rec;
}

// ---------------------------------------------------------------------------
// MVCC serving (DESIGN.md §15): qps with a concurrent bulk-load writer
// vs fully quiesced, at 1/4/8 client threads.  Result caching is off on
// both sides — the commit stream would invalidate the cache every few
// queries, so a cached run would measure invalidation churn, not the
// read path.  What remains is the pure question: how much serving
// throughput does a non-stop writer cost when readers pin epochs
// instead of taking a latch?  The acceptance bar is ≥ 70% of quiesced
// at 8 threads.

struct MvccRecord {
    std::size_t threads = 0;
    std::size_t quiesced_jobs = 0;
    std::size_t loaded_jobs = 0;
    double quiesced_qps = 0;
    double loaded_qps = 0;
    std::uint64_t writer_commits = 0;       ///< commits during the loaded run
    std::uint64_t versions_published = 0;   ///< epochs cut during it
    std::uint64_t chunks_cowed = 0;         ///< row chunks copied during it
    [[nodiscard]] double ratio() const {
        return quiesced_qps == 0 ? 0 : loaded_qps / quiesced_qps;
    }
};

/// One uncached throughput run; every job re-executes on the epoch its
/// snapshot pinned.  Returns {jobs, qps}.
std::pair<std::size_t, double> mvcc_measure(query::QueryService& service,
                                            std::size_t threads) {
    std::vector<std::string> workload = serving_workload();
    constexpr double kMinSeconds = 0.25;
    constexpr std::size_t kMinJobs = 400;
    std::vector<query::QueryService::Submission> futures;
    futures.reserve(threads * workload.size());
    std::size_t jobs = 0;
    double seconds = 0;
    auto t0 = Clock::now();
    do {
        futures.clear();
        for (std::size_t c = 0; c < threads; ++c)
            for (std::size_t i = 0; i < workload.size(); ++i)
                futures.push_back(service.submit_path(
                    workload[(i + c) % workload.size()]));
        for (auto& f : futures) (void)f.get();
        jobs += futures.size();
        seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (seconds < kMinSeconds || jobs < kMinJobs);
    return {jobs, static_cast<double>(jobs) / seconds};
}

MvccRecord mvcc_serve_once(std::size_t threads) {
    // A fresh corpus per configuration: the loaded leg grows the tables,
    // and reusing one corpus would hand later configs a bigger baseline.
    Loaded loaded(128);
    query::ServiceOptions opts;
    opts.threads = threads;
    opts.result_cache_bytes = 0;  // measure execution, not cache churn
    query::QueryService service(loaded.stack.db, loaded.stack.mapping,
                                loaded.stack.schema, opts);

    MvccRecord rec;
    rec.threads = threads;
    std::tie(rec.quiesced_jobs, rec.quiesced_qps) =
        mvcc_measure(service, threads);

    // The concurrent leg: a writer thread commits one document per unit,
    // non-stop, while the same workload replays.  Under the versioned
    // read path the writer never waits for readers and vice versa.
    auto extra = gen::bibliography_corpus(64, 300, 99);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> commits{0};
    rdb::MvccStats before = loaded.stack.db.mvcc_stats();
    std::thread writer([&] {
        loader::LoadOptions options;
        options.validate = false;
        options.resolve_references = false;
        std::size_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
            loaded.stack.loader->load(*extra[i % extra.size()], options);
            commits.fetch_add(1, std::memory_order_relaxed);
            ++i;
        }
    });
    std::tie(rec.loaded_jobs, rec.loaded_qps) = mvcc_measure(service, threads);
    stop.store(true, std::memory_order_release);
    writer.join();
    rdb::MvccStats after = loaded.stack.db.mvcc_stats();
    rec.writer_commits = commits.load();
    rec.versions_published = after.versions_published -
                             before.versions_published;
    rec.chunks_cowed = after.chunks_cowed - before.chunks_cowed;
    return rec;
}

std::vector<MvccRecord> mvcc_report() {
    std::cout << "=== §15-mvcc: serving qps with a concurrent bulk load vs "
                 "quiesced (caches off) ===\n";
    TablePrinter table({"threads", "quiesced qps", "loaded qps", "ratio",
                        "writer commits", "epochs", "chunks cowed"});
    std::vector<MvccRecord> records;
    for (std::size_t threads : {1, 4, 8}) {
        MvccRecord rec = mvcc_serve_once(threads);
        table.add_row({std::to_string(rec.threads),
                       format_double(rec.quiesced_qps, 0),
                       format_double(rec.loaded_qps, 0),
                       format_double(rec.ratio(), 2),
                       std::to_string(rec.writer_commits),
                       std::to_string(rec.versions_published),
                       std::to_string(rec.chunks_cowed)});
        records.push_back(rec);
    }
    std::cout << table.to_string() << "\n";
    return records;
}

// ---------------------------------------------------------------------------
// Overload sweep (§6): clients at 1×/2×/4×/8× worker capacity against a
// bounded admission queue and a per-query deadline.  The questions the
// sweep answers: how much offered load gets shed (typed Overloaded, not
// queue collapse), how many admitted queries still miss their deadline,
// and — the resilience acceptance bar — whether the latency of the
// queries the service *does* admit stays near the unloaded baseline
// instead of degrading with offered load.

struct OverloadRecord {
    std::size_t clients = 0;
    std::size_t offered = 0;       ///< submissions attempted
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    double shed_rate = 0;          ///< shed / offered
    double miss_rate = 0;          ///< expired / admitted
    double p50_us = 0;             ///< completed-query client latency
    double p99_us = 0;
};

double percentile(std::vector<double>& v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

std::vector<OverloadRecord> overload_sweep(Loaded& loaded,
                                           double& unloaded_p99) {
    constexpr std::size_t kWorkers = 2;
    constexpr int kRounds = 20;
    std::vector<std::string> workload = serving_workload();

    // Unloaded baseline: one client, unbounded service, warm caches —
    // the p99 the overloaded runs are held against.
    {
        query::ServiceOptions opts;
        opts.threads = kWorkers;
        query::QueryService service(loaded.stack.db, loaded.stack.mapping,
                                    loaded.stack.schema, opts);
        for (const auto& q : workload) (void)service.path(q);
        std::vector<double> lat;
        for (int r = 0; r < kRounds; ++r)
            for (const auto& q : workload) {
                auto t0 = Clock::now();
                (void)service.submit_path(q).get();
                lat.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - t0)
                                  .count());
            }
        unloaded_p99 = percentile(lat, 0.99);
    }

    std::vector<OverloadRecord> records;
    for (std::size_t mult : {1, 2, 4, 8}) {
        query::ServiceOptions opts;
        opts.threads = kWorkers;
        opts.max_queue = 8;
        opts.default_deadline = std::chrono::milliseconds(20);
        query::QueryService service(loaded.stack.db, loaded.stack.mapping,
                                    loaded.stack.schema, opts);
        // Warm up with an inert token: the 20 ms default deadline is for
        // the sweep, and a slow cold query on a busy host must not abort
        // the bench with DeadlineExceeded.
        for (const auto& q : workload) (void)service.path(q, CancelToken{});

        std::size_t clients = kWorkers * mult;
        std::vector<std::vector<double>> lats(clients);
        std::atomic<std::uint64_t> offered{0};
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (std::size_t c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                for (int r = 0; r < kRounds; ++r)
                    for (std::size_t i = 0; i < workload.size(); ++i) {
                        offered.fetch_add(1, std::memory_order_relaxed);
                        auto t0 = Clock::now();
                        try {
                            (void)service
                                .submit_path(
                                    workload[(i + c) % workload.size()])
                                .get();
                            lats[c].push_back(
                                std::chrono::duration<double, std::micro>(
                                    Clock::now() - t0)
                                    .count());
                        } catch (const Overloaded&) {
                            // Shed at admission — the resilient outcome.
                        } catch (const CancelledError&) {
                            // Deadline missed after admission; counted by
                            // the service as expired.
                        }
                    }
            });
        for (auto& t : threads) t.join();

        query::ServiceStats st = service.stats();
        OverloadRecord rec;
        rec.clients = clients;
        rec.offered = offered.load();
        rec.admitted = st.overload.admitted;
        rec.shed = st.overload.shed;
        rec.expired = st.overload.expired;
        rec.shed_rate = rec.offered == 0
                            ? 0
                            : static_cast<double>(rec.shed) /
                                  static_cast<double>(rec.offered);
        rec.miss_rate = rec.admitted == 0
                            ? 0
                            : static_cast<double>(rec.expired) /
                                  static_cast<double>(rec.admitted);
        std::vector<double> all;
        for (auto& l : lats) all.insert(all.end(), l.begin(), l.end());
        rec.p50_us = percentile(all, 0.5);
        rec.p99_us = percentile(all, 0.99);
        records.push_back(rec);
    }
    return records;
}

Loaded& corpus512();

void overload_report(std::vector<OverloadRecord>& out, double& unloaded_p99) {
    std::cout << "=== §6-overload: saturating clients vs bounded admission "
                 "(2 workers, queue 8, 20ms deadline) ===\n";
    out = overload_sweep(corpus512(), unloaded_p99);
    TablePrinter table({"clients", "offered", "admitted", "shed", "expired",
                        "shed rate", "miss rate", "p50 us", "p99 us",
                        "p99 vs unloaded"});
    for (const OverloadRecord& r : out)
        table.add_row({std::to_string(r.clients), std::to_string(r.offered),
                       std::to_string(r.admitted), std::to_string(r.shed),
                       std::to_string(r.expired),
                       format_double(r.shed_rate, 3),
                       format_double(r.miss_rate, 3),
                       format_double(r.p50_us, 1), format_double(r.p99_us, 1),
                       format_double(unloaded_p99 == 0
                                         ? 0
                                         : r.p99_us / unloaded_p99,
                                     2)});
    std::cout << table.to_string();
    std::cout << "unloaded p99: " << format_double(unloaded_p99, 1)
              << " us\n\n";
}

void emit_json(const std::vector<ServeRecord>& serving,
               const std::vector<ColdRecord>& cold,
               const std::vector<ColdRecord>& serve_cold,
               const std::vector<PlannerRecord>& planner,
               const std::vector<OverloadRecord>& overload,
               double unloaded_p99, const std::vector<MvccRecord>& mvcc) {
    std::ofstream out("BENCH_query.json");
    out << "{\n  \"serving\": [\n";
    for (std::size_t i = 0; i < serving.size(); ++i) {
        const ServeRecord& r = serving[i];
        out << "    {\"threads\": " << r.threads << ", \"jobs\": " << r.jobs
            << ", \"seconds\": " << r.seconds << ", \"qps\": " << r.qps
            << ", \"speedup_vs_1\": " << r.speedup
            << ", \"result_hit_ratio\": " << r.result_hit_ratio
            << ", \"plan_hit_ratio\": " << r.plan_hit_ratio
            << ", \"cold_us\": " << r.cold_us
            << ", \"warm_us\": " << r.warm_us << "}"
            << (i + 1 < serving.size() ? "," : "") << "\n";
    }
    auto cold_section = [&](const char* name,
                            const std::vector<ColdRecord>& records) {
        out << "  ],\n  \"" << name << "\": [\n";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const ColdRecord& r = records[i];
            out << "    {\"query\": \"" << r.query << "\", \"rows\": "
                << r.rows << ", \"interval_joins\": " << r.interval_joins
                << ", \"interval_cold_us\": " << r.interval_cold_us
                << ", \"interval_warm_us\": " << r.interval_warm_us
                << ", \"rows_scanned\": " << r.rows_scanned
                << ", \"warm_ns_per_row_scanned\": "
                << r.warm_ns_per_row_scanned() << "}"
                << (i + 1 < records.size() ? "," : "") << "\n";
        }
    };
    cold_section("cold_path", cold);
    cold_section("serve_cold_path", serve_cold);
    out << "  ],\n  \"planner\": [\n";
    for (std::size_t i = 0; i < planner.size(); ++i) {
        const PlannerRecord& r = planner[i];
        out << "    {\"query\": \"" << r.query << "\", \"rows\": " << r.rows
            << ", \"joins\": " << r.joins
            << ", \"reordered\": " << (r.reordered ? "true" : "false")
            << ", \"shape\": \"" << r.shape << "\""
            << ", \"est_rows\": " << r.est_rows
            << ", \"q_error\": " << r.q_error
            << ", \"planner_cold_us\": " << r.planner_us
            << ", \"as_written_cold_us\": " << r.as_written_us
            << ", \"speedup\": " << r.speedup() << "}"
            << (i + 1 < planner.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"mvcc\": [\n";
    for (std::size_t i = 0; i < mvcc.size(); ++i) {
        const MvccRecord& r = mvcc[i];
        out << "    {\"threads\": " << r.threads
            << ", \"quiesced_jobs\": " << r.quiesced_jobs
            << ", \"quiesced_qps\": " << r.quiesced_qps
            << ", \"loaded_jobs\": " << r.loaded_jobs
            << ", \"loaded_qps\": " << r.loaded_qps
            << ", \"loaded_over_quiesced\": " << r.ratio()
            << ", \"writer_commits\": " << r.writer_commits
            << ", \"versions_published\": " << r.versions_published
            << ", \"chunks_cowed\": " << r.chunks_cowed << "}"
            << (i + 1 < mvcc.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"overload\": {\n    \"unloaded_p99_us\": "
        << unloaded_p99 << ",\n    \"sweep\": [\n";
    for (std::size_t i = 0; i < overload.size(); ++i) {
        const OverloadRecord& r = overload[i];
        out << "      {\"clients\": " << r.clients
            << ", \"offered\": " << r.offered
            << ", \"admitted\": " << r.admitted << ", \"shed\": " << r.shed
            << ", \"expired\": " << r.expired
            << ", \"shed_rate\": " << r.shed_rate
            << ", \"deadline_miss_rate\": " << r.miss_rate
            << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
            << "}" << (i + 1 < overload.size() ? "," : "") << "\n";
    }
    out << "    ]\n  }\n}\n";
}

Loaded& corpus512();

void print_cold_records(const std::vector<ColdRecord>& records) {
    TablePrinter table({"query", "rows", "ivl joins", "ivl cold us",
                        "ivl warm us", "scanned", "warm ns/row"});
    for (const ColdRecord& r : records)
        table.add_row({r.query, std::to_string(r.rows),
                       std::to_string(r.interval_joins),
                       format_double(r.interval_cold_us, 1),
                       format_double(r.interval_warm_us, 1),
                       std::to_string(r.rows_scanned),
                       format_double(r.warm_ns_per_row_scanned(), 1)});
    std::cout << table.to_string() << "\n";
}

std::vector<ColdRecord> cold_path_report() {
    std::cout << "=== §5-cold: descendant queries, caches off — interval "
                 "plans ===\n";
    std::vector<ColdRecord> records = cold_path_records(corpus512());
    print_cold_records(records);
    return records;
}

std::vector<ColdRecord> serve_cold_report() {
    std::cout << "=== §5-cold: perfbench serve_cold's analytic patterns on a "
                 "bulk-loaded 2000-document base ===\n";
    ServeColdBase base;
    std::vector<ColdRecord> records = serve_cold_records(base);
    print_cold_records(records);
    return records;
}

std::vector<PlannerRecord> planner_report() {
    std::cout << "=== §13-plan: cost-based join order vs as-translated "
                 "(cold path, stats analyzed) ===\n";
    std::vector<PlannerRecord> records = planner_records(corpus512());
    TablePrinter table({"query", "rows", "joins", "reord", "q_err",
                        "planned us", "as written us", "speedup", "shape"});
    for (const PlannerRecord& r : records)
        table.add_row({r.query, std::to_string(r.rows),
                       std::to_string(r.joins), r.reordered ? "yes" : "no",
                       format_double(r.q_error, 1),
                       format_double(r.planner_us, 1),
                       format_double(r.as_written_us, 1),
                       format_double(r.speedup(), 2), r.shape});
    std::cout << table.to_string() << "\n";
    return records;
}

void serving_report(const std::vector<ColdRecord>& cold,
                    const std::vector<ColdRecord>& serve_cold,
                    const std::vector<PlannerRecord>& planner,
                    const std::vector<OverloadRecord>& overload,
                    double unloaded_p99,
                    const std::vector<MvccRecord>& mvcc) {
    std::cout << "=== §5-serve: concurrent serving through the query "
                 "service (shared caches) ===\n";
    Loaded loaded(256);
    TablePrinter table({"threads", "jobs", "qps", "speedup", "result hit",
                        "plan hit", "cold us", "warm us"});
    std::vector<ServeRecord> records;
    // Few rounds per client: a lone client pays the cold misses across a
    // large share of its jobs, while concurrent clients split the same
    // cold cost across T× the jobs — the cache-amplification effect that
    // makes aggregate throughput scale even on one core.
    for (std::size_t threads : {1, 2, 4, 8}) {
        ServeRecord rec = serve_once(loaded, threads, 6);
        if (!records.empty()) rec.speedup = rec.qps / records.front().qps;
        table.add_row({std::to_string(rec.threads), std::to_string(rec.jobs),
                       format_double(rec.qps, 0),
                       format_double(rec.speedup, 2),
                       format_double(rec.result_hit_ratio, 3),
                       format_double(rec.plan_hit_ratio, 3),
                       format_double(rec.cold_us, 1),
                       format_double(rec.warm_us, 1)});
        records.push_back(rec);
    }
    std::cout << table.to_string();
    emit_json(records, cold, serve_cold, planner, overload, unloaded_p99,
              mvcc);
    std::cout << "wrote BENCH_query.json (" << records.size() << " serving + "
              << cold.size() + serve_cold.size() << " cold-path + "
              << planner.size()
              << " planner + " << overload.size() << " overload + "
              << mvcc.size() << " mvcc records)\n\n";
}

// google-benchmark series at a fixed, substantial corpus size.
Loaded& corpus512() {
    static Loaded loaded(512);
    return loaded;
}

void BM_Dom(benchmark::State& state) {
    Loaded& loaded = corpus512();
    xquery::PathQuery q =
        xquery::parse_query(kCases[state.range(0)].text);
    for (auto _ : state)
        benchmark::DoNotOptimize(xquery::evaluate(loaded.views, q));
    state.SetLabel(kCases[state.range(0)].id);
}
BENCHMARK(BM_Dom)->DenseRange(0, 3);

void BM_Sql(benchmark::State& state) {
    Loaded& loaded = corpus512();
    xquery::SqlTranslator translator(loaded.stack.mapping, loaded.stack.schema);
    xquery::Translation t =
        translator.translate(xquery::parse_query(kCases[state.range(0)].text));
    sql::SelectStmt stmt = sql::parse_select(t.sql);
    for (auto _ : state)
        benchmark::DoNotOptimize(sql::execute_select(loaded.stack.db, stmt));
    state.SetLabel(kCases[state.range(0)].id);
}
BENCHMARK(BM_Sql)->DenseRange(0, 3);

void BM_SqlTranslate(benchmark::State& state) {
    Loaded& loaded = corpus512();
    xquery::SqlTranslator translator(loaded.stack.mapping, loaded.stack.schema);
    xquery::PathQuery q = xquery::parse_query(kCases[2].text);
    for (auto _ : state) benchmark::DoNotOptimize(translator.translate(q));
}
BENCHMARK(BM_SqlTranslate);

}  // namespace

int main(int argc, char** argv) {
    print_report();
    std::vector<ColdRecord> cold = cold_path_report();
    std::vector<ColdRecord> serve_cold = serve_cold_report();
    std::vector<PlannerRecord> planner = planner_report();
    std::vector<OverloadRecord> overload;
    double unloaded_p99 = 0;
    overload_report(overload, unloaded_p99);
    std::vector<MvccRecord> mvcc = mvcc_report();
    serving_report(cold, serve_cold, planner, overload, unloaded_p99, mvcc);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
