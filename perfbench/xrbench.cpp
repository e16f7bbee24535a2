// xrbench — the xmlrel benchmark.
//
//   xrbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//           [--trace-out FILE]
//   xrbench --dump-inputs --workload W --seed N
//   xrbench --recover DIR
//
// One run sets the workload up several times on a fresh durable data
// directory (default DurabilityOptions: WAL on, fsync on every commit,
// checkpoint verification on), measures it for S seconds, checks the
// program's outputs outside the timed region, and prints one JSON line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  A traced run measures the workload twice on fresh set-ups,
// S/2 seconds each: once untraced and once with spans recorded around
// every call the benchmark makes into a layer; it reports the difference
// as the tracing overhead.  Spans stay in memory and go to --trace-out at exit.
//
// Workloads (README.md has the reasoning):
//   ingest       closed-loop durable Loader::load per document into a
//                bulk-loaded base, checkpoint every 32 documents, in
//                episodes of 256 documents on fresh set-ups
//   serve_cold   2 clients, 2 service workers, every query text distinct
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gen/corpora.hpp"
#include "inputs.hpp"
#include "loader/bulk_loader.hpp"
#include "loader/loader.hpp"
#include "loader/reconstruct.hpp"
#include "mapping/pipeline.hpp"
#include "query/service.hpp"
#include "rdb/database.hpp"
#include "rdb/snapshot.hpp"
#include "rel/materialize.hpp"
#include "rel/translate.hpp"
#include "sql/executor.hpp"
#include "sql/parser.hpp"
#include "sql/planner.hpp"
#include "validate/validator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xquery/dom_eval.hpp"
#include "xquery/query.hpp"
#include "xquery/sql_translate.hpp"

namespace {

using namespace xr;
namespace pb = perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Timed reopens, each in a process of its own: after the run, or on ingest
// after every episode; recover_s is their median.
constexpr std::size_t kReopens = 11;
constexpr std::size_t kReopensPerEpisode = 3;
// Every kSampleStride-th read keeps its result for the DOM oracle.
constexpr std::size_t kSampleStride = 97;
constexpr std::size_t kMaxSamples = 200;
// The traced pass decomposes every read: that keeps the client's layer
// calls as warm as the service's own, at the price of a larger tracing
// overhead.
// Cold query texts generated ahead of the timed window, per second.
constexpr std::size_t kColdPrefillPerSecond = 6000;

double seconds_of(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
}
double ms_of(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Throughput and latency of a pass's primary operation.
struct Summary {
    double ops_per_s = 0;
    double p50_ms = 0;
    double p99_ms = 0;
};

/// With window_s > 0 each figure is the median over the whole windows of
/// that length: a stall of the host that hits one or two windows moves the
/// result no more than any other outlier window.  With window_s == 0 the
/// whole pass is one window.
Summary summarize(const std::vector<double>& op_ms,
                  const std::vector<double>& op_end_s, double elapsed_s,
                  double window_s) {
    if (window_s <= 0 || elapsed_s < 2 * window_s)
        return {op_ms.size() / elapsed_s, percentile(op_ms, 0.50),
                percentile(op_ms, 0.99)};
    auto windows = static_cast<std::size_t>(elapsed_s / window_s);
    std::vector<std::vector<double>> by_window(windows);
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
        auto w = static_cast<std::size_t>(op_end_s[i] / window_s);
        if (w < windows) by_window[w].push_back(op_ms[i]);
    }
    std::vector<double> rate, p50, p99;
    for (const auto& lat : by_window) {
        rate.push_back(lat.size() / window_s);
        p50.push_back(percentile(lat, 0.50));
        p99.push_back(percentile(lat, 0.99));
    }
    return {median(rate), median(p50), median(p99)};
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into a layer.

struct Span {
    std::uint64_t op = 0;          ///< shared by the spans of one operation
    const char* name = "";
    const char* parent = "";       ///< name of the op's root span ("" = root)
    Clock::time_point start, end;
};

/// One thread's span buffer; inert (records nothing) when null.
using SpanLog = std::vector<Span>;

class Scope {
public:
    Scope(SpanLog* log, std::uint64_t op, const char* name,
          const char* parent = "")
        : log_(log), op_(op), name_(name), parent_(parent),
          start_(log != nullptr ? Clock::now() : Clock::time_point{}) {}
    ~Scope() {
        if (log_ != nullptr)
            log_->push_back({op_, name_, parent_, start_, Clock::now()});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    SpanLog* log_;
    std::uint64_t op_;
    const char* name_;
    const char* parent_;
    Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// The serve_cold read stream: distinct texts, generated ahead of the timed
// window, then on demand if a run outpaces that.

class Queries {
public:
    Queries(pb::QueryStream stream, std::size_t prefill)
        : stream_(std::move(stream)) {
        for (std::size_t i = 0; i < prefill; ++i) list_.push_back(stream_.next());
    }

    std::string next(std::size_t* seq) {
        std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        *seq = i;
        if (i < list_.size()) return list_[i];
        std::lock_guard<std::mutex> guard(mu_);
        return stream_.next();
    }

private:
    std::vector<std::string> list_;  ///< written only by the constructor
    std::atomic<std::size_t> next_{0};
    std::mutex mu_;
    pb::QueryStream stream_;
};

// ---------------------------------------------------------------------------
// A set-up workload: mapping, a durable database, and for serve_* the
// query service.

struct Env {
    dtd::Dtd dtd;
    mapping::MappingResult mapping;
    rel::RelationalSchema schema;
    std::unique_ptr<rdb::Database> db;
    std::unique_ptr<query::QueryService> service;
    std::string dir;
    std::uint64_t snapshot_bytes = 0;  ///< image written by the last checkpoint
    std::size_t docs = 0;              ///< documents loaded (ids 1..docs)
    std::size_t xml_bytes = 0;         ///< their XML text
    double setup_s = 0;
    double bulk_load_s = 0;
};

std::unique_ptr<Env> setup(const pb::Shape& shape, const pb::Corpus& base,
                           const std::string& dir) {
    fs::remove_all(dir);
    auto env = std::make_unique<Env>();
    env->dir = dir;
    auto t0 = Clock::now();
    env->dtd = gen::paper_dtd();
    env->mapping = mapping::map_dtd(env->dtd);
    env->schema = rel::translate(env->mapping);
    env->db = std::make_unique<rdb::Database>();
    env->db->open(dir);  // default DurabilityOptions
    rel::materialize(env->schema, env->mapping, *env->db);
    env->db->flush_wal();

    auto tb = Clock::now();
    loader::BulkLoader bulk(env->dtd, env->mapping, env->schema, *env->db);
    loader::BulkLoadOptions opts;
    opts.jobs = 1;
    opts.validate = true;
    loader::LoadReport report = bulk.load_texts(base.texts, opts);
    env->bulk_load_s = seconds_of(Clock::now() - tb);
    if (!report.ok() || report.loaded != base.texts.size())
        throw std::runtime_error("bulk load of the base corpus failed: " +
                                 (report.errors.empty() ? std::string("?")
                                                        : report.errors[0]));

    // The indexes bench_query creates for its point predicates.
    env->db->begin_unit();
    env->db->require("article").create_index("title");
    env->db->require("name").create_index("lastname");
    env->db->commit_unit();
    env->snapshot_bytes = env->db->checkpoint().bytes;

    if (shape.clients > 0) {
        query::ServiceOptions so;
        so.threads = shape.workers;
        env->service = std::make_unique<query::QueryService>(
            *env->db, env->mapping, env->schema, so);
    }
    env->setup_s = seconds_of(Clock::now() - t0);
    env->docs = base.texts.size();
    env->xml_bytes = base.bytes;
    return env;
}

// ---------------------------------------------------------------------------
// Measured passes.

struct Sample {
    std::string query;
    query::QueryService::Result result;
};

/// Per-layer counters gathered beside the spans of a traced pass.
struct LayerCounts {
    std::size_t commits = 0;
    std::uint64_t rows_loaded = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t indexes_cowed = 0;  ///< MvccStats deltas
    std::uint64_t chunks_cowed = 0;
    std::uint64_t tables_republished = 0;
    std::size_t decomposed = 0;
    std::uint64_t rows_scanned = 0;
    std::uint64_t rows_returned = 0;
    std::uint64_t index_lookups = 0;
    std::uint64_t range_scans = 0;
    std::vector<double> q_error;
    std::vector<double> versions_live;

    void merge(const LayerCounts& o) {
        commits += o.commits;
        rows_loaded += o.rows_loaded;
        wal_bytes += o.wal_bytes;
        indexes_cowed += o.indexes_cowed;
        chunks_cowed += o.chunks_cowed;
        tables_republished += o.tables_republished;
        decomposed += o.decomposed;
        rows_scanned += o.rows_scanned;
        rows_returned += o.rows_returned;
        index_lookups += o.index_lookups;
        range_scans += o.range_scans;
        q_error.insert(q_error.end(), o.q_error.begin(), o.q_error.end());
        versions_live.insert(versions_live.end(), o.versions_live.begin(),
                             o.versions_live.end());
    }
};

template <class T>
void append(std::vector<T>& to, std::vector<T>& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

struct Pass {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string first_error;
    double elapsed_s = 0;
    Summary summary;               ///< filled when the pass ends
    std::vector<double> op_ms;     ///< the workload's primary operation
    std::vector<double> op_end_s;  ///< ... when each one completed
    std::vector<Sample> samples;
    std::vector<Span> spans;
    LayerCounts layers;
    query::ServiceStats svc0, svc1;

    void fail(const std::exception& e) {
        ++failed;
        if (first_error.empty()) first_error = e.what();
    }

    /// Fold in what one thread of the pass gathered.
    void merge(Pass& o) {
        attempted += o.attempted;
        failed += o.failed;
        if (first_error.empty()) first_error = o.first_error;
        append(op_ms, o.op_ms);
        append(op_end_s, o.op_end_s);
        append(samples, o.samples);
        append(spans, o.spans);
        layers.merge(o.layers);
    }
};

/// One durable document write.  Untraced it is the public single-call
/// path: parse, then Loader::load (validate, shred, commit).  Traced,
/// the same work runs one layer at a time so each gets a span: the
/// document is validated first, then shredded with validation off inside
/// a unit the benchmark holds open, so that commit_unit (WAL fsync and
/// version publication) is timed on its own.
void write_doc(Env& env, loader::Loader& loader,
               const validate::Validator& validator, const std::string& text,
               SpanLog* log, std::uint64_t op, const char* root,
               LayerCounts& counts) {
    rdb::Database& db = *env.db;
    if (log == nullptr) {
        auto doc = xml::parse_document(text);
        loader.load(*doc);
        return;
    }
    std::unique_ptr<xml::Document> doc;
    {
        Scope s(log, op, "xml.parse", root);
        doc = xml::parse_document(text);
    }
    {
        Scope s(log, op, "validate", root);
        validate::ValidateOptions vo;
        vo.apply_defaults = true;  // as Loader::load does
        validator.check(*doc, vo);
    }
    std::uint64_t wal0 = db.wal_bytes_appended();
    std::uint64_t rows0 = loader.stats().total_rows();
    db.begin_unit();
    try {
        {
            Scope s(log, op, "loader.shred", root);
            loader::LoadOptions lo;
            lo.validate = false;
            loader.load(*doc, lo);
        }
        {
            Scope s(log, op, "rdb.commit", root);
            db.commit_unit();
        }
    } catch (...) {
        if (db.in_unit()) db.rollback_unit();
        throw;
    }
    ++counts.commits;
    counts.rows_loaded += loader.stats().total_rows() - rows0;
    counts.wal_bytes += db.wal_bytes_appended() - wal0;
}

/// One episode of ingest: shape.episode_docs durable writes into the
/// fresh set-up `env`, with a checkpoint every shape.checkpoint_every.
void ingest_episode(Env& env, const pb::Shape& shape, const pb::Corpus& writes,
                    bool traced, std::atomic<std::uint64_t>& ops, Pass& p) {
    rdb::Database& db = *env.db;
    loader::Loader loader(env.dtd, env.mapping, env.schema, db);
    validate::Validator validator(env.dtd);
    SpanLog log;
    SpanLog* lp = traced ? &log : nullptr;
    rdb::MvccStats m0 = db.mvcc_stats();
    auto start = Clock::now();
    for (std::size_t i = 0; i < shape.episode_docs; ++i) {
        const std::string& text = writes.texts[i];
        std::uint64_t op = ops.fetch_add(1);
        ++p.attempted;
        auto t0 = Clock::now();
        try {
            Scope s(lp, op, "ingest.op");
            write_doc(env, loader, validator, text, lp, op, "ingest.op",
                      p.layers);
            ++env.docs;
            env.xml_bytes += text.size();
            if ((i + 1) % shape.checkpoint_every == 0) {
                Scope c(lp, op, "rdb.checkpoint", "ingest.op");
                env.snapshot_bytes = db.checkpoint().bytes;
            }
            p.op_ms.push_back(ms_of(Clock::now() - t0));
        } catch (const std::exception& e) {
            p.fail(e);
        }
    }
    p.elapsed_s += seconds_of(Clock::now() - start);
    rdb::MvccStats m1 = db.mvcc_stats();
    p.layers.indexes_cowed += m1.indexes_cowed - m0.indexes_cowed;
    p.layers.chunks_cowed += m1.chunks_cowed - m0.chunks_cowed;
    p.layers.tables_republished += m1.tables_republished - m0.tables_republished;
    append(p.spans, log);
}

/// Commit shape.replay_docs more writes, which a reopen replays from the
/// WAL: ingest episodes end on a checkpoint (episode_docs is a multiple
/// of checkpoint_every).
void write_replay_tail(Env& env, const pb::Shape& shape,
                       const pb::Corpus& writes) {
    loader::Loader loader(env.dtd, env.mapping, env.schema, *env.db);
    validate::Validator validator(env.dtd);
    for (std::size_t i = 0; i < shape.replay_docs; ++i) {
        const std::string& text = writes.texts[shape.episode_docs + i];
        LayerCounts ignored;
        write_doc(env, loader, validator, text, nullptr, 0, "", ignored);
        ++env.docs;
        env.xml_bytes += text.size();
    }
}

/// The layers the service runs for a path query, called one at a time
/// against a pinned snapshot so each gets a span.
void decompose(Env& env, const xquery::SqlTranslator& translator,
               const std::string& text, SpanLog& log, std::uint64_t op,
               LayerCounts& counts) {
    const char* root = "serve.op";
    std::optional<rdb::ReadSnapshot> snap;
    {
        Scope s(&log, op, "rdb.read_snapshot", root);
        snap.emplace(env.db->read_snapshot());
    }
    xquery::PathQuery pq;
    {
        Scope s(&log, op, "xquery.parse", root);
        pq = xquery::parse_query(text);
    }
    xquery::Translation t;
    {
        Scope s(&log, op, "xquery.translate", root);
        t = translator.translate(pq);
    }
    sql::SelectStmt stmt;
    {
        Scope s(&log, op, "sql.parse", root);
        stmt = sql::parse_select(t.sql);
    }
    sql::PlanInfo plan;
    {
        Scope s(&log, op, "sql.plan", root);
        plan = sql::plan_select(snap->view(), stmt);
    }
    sql::ExecStats stats;
    sql::ResultSet rs;
    {
        // Already planned: run the chosen order as it stands.
        sql::PlannerOptions as_planned;
        as_planned.enable = false;
        Scope s(&log, op, "sql.execute", root);
        rs = sql::execute_select(snap->view(), stmt, &stats, {}, &as_planned);
    }
    ++counts.decomposed;
    counts.rows_scanned += stats.rows_scanned.load();
    counts.rows_returned += rs.row_count();
    counts.index_lookups += stats.index_lookups.load();
    counts.range_scans += stats.range_scans.load();
    if (plan.planned) {
        double actual = t.yield == xquery::Translation::Yield::kCount
                            ? static_cast<double>(rs.scalar().as_integer())
                            : static_cast<double>(rs.row_count());
        double est = std::max(plan.est_rows, 1.0);
        actual = std::max(actual, 1.0);
        counts.q_error.push_back(std::max(est / actual, actual / est));
    }
}

void serve_pass(Env& env, const pb::Shape& shape,
                Queries& queries, double seconds, bool traced,
                std::atomic<std::uint64_t>& ops, Pass& p) {
    query::QueryService& svc = *env.service;
    std::mutex mu;  // guards p while threads fold their results in
    p.svc0 = svc.stats();
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));

    auto client = [&] {
        Pass mine;
        xquery::SqlTranslator translator(env.mapping, env.schema);
        while (Clock::now() < deadline) {
            std::size_t seq = 0;
            std::string q = queries.next(&seq);
            std::uint64_t op = ops.fetch_add(1);
            ++mine.attempted;
            SpanLog* lp = traced ? &mine.spans : nullptr;
            try {
                Scope root(lp, op, "serve.op");
                auto t0 = Clock::now();
                query::QueryService::Result r;
                {
                    Scope s(lp, op, "query.request", "serve.op");
                    r = svc.submit_path(q).get();
                }
                auto t1 = Clock::now();
                mine.op_ms.push_back(ms_of(t1 - t0));
                mine.op_end_s.push_back(seconds_of(t1 - start));
                if (seq % kSampleStride == 0 &&
                    mine.samples.size() < kMaxSamples)
                    mine.samples.push_back({q, r});
                if (lp == nullptr) continue;
                decompose(env, translator, q, *lp, op, mine.layers);
                if (seq % 64 == 0)
                    mine.layers.versions_live.push_back(static_cast<double>(
                        env.db->mvcc_stats().versions_live));
            } catch (const std::exception& e) {
                mine.fail(e);
            }
        }
        std::lock_guard<std::mutex> guard(mu);
        p.merge(mine);
    };

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < shape.clients; ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();
    p.elapsed_s = seconds_of(Clock::now() - start);
    p.svc1 = svc.stats();
}

// ---------------------------------------------------------------------------
// Output checks, run after the timed window.

struct Checks {
    std::vector<std::string> failures;
    void expect(bool ok, const std::string& what) {
        if (!ok && failures.size() < 20) failures.push_back(what);
    }
};

std::string compact(const xml::Document& doc) {
    xml::SerializeOptions o;
    o.indent.clear();
    o.declaration = false;
    o.doctype = false;
    return xml::serialize(doc, o);
}

/// SQL result vs DOM result, as the differential fuzzer compares them.
bool agrees(const xquery::Translation& t, const sql::ResultSet& rs,
            const xquery::DomResult& dom) {
    using Yield = xquery::Translation::Yield;
    if (t.yield == Yield::kCount)
        return static_cast<std::size_t>(rs.scalar().as_integer()) == dom.size();
    if (t.yield == Yield::kStrings) {
        std::multiset<std::string> want(dom.strings.begin(), dom.strings.end());
        if (want.empty())
            for (const auto* n : dom.nodes) want.insert(n->text());
        std::multiset<std::string> got;
        for (const auto& row : rs.rows)
            if (!row.back().is_null()) got.insert(row.back().to_string());
        return got == want;
    }
    return rs.row_count() == dom.size();
}

void check_samples(Env& env, const pb::Corpus& base,
                   const std::vector<Sample>& samples, Checks& checks) {
    xquery::SqlTranslator translator(env.mapping, env.schema);
    std::vector<const xml::Document*> corpus;
    for (const auto& d : base.docs) corpus.push_back(d.get());
    for (const auto& s : samples) {
        xquery::PathQuery pq = xquery::parse_query(s.query);
        xquery::Translation t = translator.translate(pq);
        checks.expect(agrees(t, *s.result, xquery::evaluate(corpus, pq)),
                      "result disagrees with the DOM evaluator: " + s.query);
    }
}

/// Runs this program again with `args`, waits for it, and returns its
/// standard output; throws if it does not exit with 0.
std::string run_self(const std::vector<std::string>& args) {
    std::string exe = fs::read_symlink("/proc/self/exe").string();
    std::vector<char*> argv{exe.data()};
    std::vector<std::string> copy = args;
    for (auto& a : copy) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    char buf[256];
    for (ssize_t n; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error(exe + " " + args[0] + " failed");
    return out;
}

/// --recover: opens a data directory once, as a restarted process would,
/// and prints the seconds it took and the WAL records it replayed.
int recover(const std::string& dir) {
    rdb::Database db;
    auto t0 = Clock::now();
    rdb::RecoveryReport rr = db.open(dir);
    std::printf("%.9f %zu\n", seconds_of(Clock::now() - t0),
                static_cast<std::size_t>(rr.records_replayed));
    return 0;
}

struct Finish {
    double recover_s = 0;
    double replay_ms_per_10k = 0;  ///< ingest, traced runs only
    double db_bytes_per_xml_byte = 0;
};

std::map<std::string, std::size_t> row_counts(const rdb::Database& db) {
    std::map<std::string, std::size_t> rows;
    for (const auto& name : db.table_names())
        rows[name] = db.require(name).row_count();
    return rows;
}

/// Seconds of `n` opens of `dir`, each in a process of its own as after
/// a restart; `records` gets the WAL records each replayed.
std::vector<double> time_reopens(const std::string& dir, std::size_t n,
                                 std::size_t* records) {
    std::vector<double> opens;
    for (std::size_t i = 0; i < n; ++i) {
        std::istringstream out(run_self({"--recover", dir}));
        double seconds = 0;
        out >> seconds >> *records;
        opens.push_back(seconds);
    }
    return opens;
}

/// Post-run checks shared by every workload: integrity, reopens with the
/// same per-table row counts, and a reconstructed document that round
/// trips.  recover_s is the median of `opens` (reopens of the directory
/// as the run left it, just checkpointed), timed here if the run took
/// none.  On ingest, the writes of write_replay_tail follow, and a traced
/// run times reopens that replay them as well.  Closes the live database.
Finish finish(Env& env, const pb::Shape& shape, const pb::Corpus& base,
              const pb::Corpus& writes, std::vector<double> opens,
              std::uint64_t seed, bool traced, Checks& checks) {
    Finish f;
    f.db_bytes_per_xml_byte =
        static_cast<double>(env.snapshot_bytes + env.db->wal_bytes_appended()) /
        static_cast<double>(env.xml_bytes);
    rdb::IntegrityReport integrity = env.db->verify();
    checks.expect(integrity.clean(), "verify(): " + integrity.to_string());
    std::map<std::string, std::size_t> rows = row_counts(*env.db);
    env.service.reset();
    env.db.reset();

    std::size_t records = 0;
    if (opens.empty()) opens = time_reopens(env.dir, kReopens, &records);
    f.recover_s = median(opens);

    env.db = std::make_unique<rdb::Database>();
    env.db->open(env.dir);
    checks.expect(row_counts(*env.db) == rows,
                  "reopened directory has different per-table row counts");
    write_replay_tail(env, shape, writes);
    rows = row_counts(*env.db);
    env.db.reset();
    if (traced && shape.replay_docs > 0) {
        double replaying = median(time_reopens(env.dir, kReopens, &records));
        if (records > 0)
            f.replay_ms_per_10k = (replaying - f.recover_s) * 1e3 * 1e4 /
                                  static_cast<double>(records);
    }

    // Documents to round-trip: one of the base corpus, and the last one
    // written if the workload writes.
    std::vector<std::pair<std::int64_t, const std::string*>> round_trip;
    std::size_t pick = seed % base.texts.size();
    round_trip.emplace_back(static_cast<std::int64_t>(pick + 1),
                            &base.texts[pick]);
    if (env.docs > base.texts.size())
        round_trip.emplace_back(
            static_cast<std::int64_t>(env.docs),
            &writes.texts[env.docs - base.texts.size() - 1]);

    rdb::Database reopened;
    reopened.open(env.dir);
    checks.expect(row_counts(reopened) == rows,
                  "directory reopened past its WAL has different per-table "
                  "row counts");
    loader::Reconstructor rec(env.mapping, env.schema, reopened);
    for (const auto& [id, text] : round_trip) {
        std::string want = compact(*xml::parse_document(*text));
        std::string got = compact(*rec.reconstruct(id));
        checks.expect(got == want, "document " + std::to_string(id) +
                                       " does not round-trip");
    }
    return f;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0) out << ", ";
        out << "\"" << metrics[i].name << "\": {\"value\": "
            << json_number(metrics[i].value) << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer metrics of a traced pass.  Layers a workload does not
/// exercise report 0 (README.md lists which workload moves which).
std::vector<Metric> layer_metrics(const Pass& p, const Pass& untraced,
                                  const Finish& f,
                                  const std::vector<double>& bulk_load_s) {
    std::map<std::string, std::vector<double>> ms;  // span name → durations
    for (const auto& s : p.spans) ms[s.name].push_back(ms_of(s.end - s.start));
    auto med_ms = [&](const char* name) { return median(ms[name]); };
    auto med_us = [&](const char* name) { return 1e3 * median(ms[name]); };

    const auto& r0 = p.svc0.result_cache;
    const auto& r1 = p.svc1.result_cache;
    std::uint64_t res_hits = r1.hits - r0.hits;
    std::uint64_t res_lookups = res_hits + (r1.misses - r0.misses);
    std::uint64_t plan_hits = p.svc1.plan_cache.hits - p.svc0.plan_cache.hits;
    std::uint64_t plan_lookups =
        plan_hits + (p.svc1.plan_cache.misses - p.svc0.plan_cache.misses);
    double res_hit = ratio(res_hits, res_lookups);
    double plan_hit = ratio(plan_hits, plan_lookups);

    // Service self time of each decomposed request: its duration minus
    // the layer spans the service would have run for it, weighted by how
    // often the caches let it skip them during the pass.
    std::vector<double> self_us;
    std::map<std::uint64_t, std::map<std::string, double>> by_op;
    for (const auto& s : p.spans)
        if (std::string_view(s.parent) == "serve.op")
            by_op[s.op][s.name] = 1e3 * ms_of(s.end - s.start);
    for (auto& [op, d] : by_op) {
        if (!d.count("query.request") || !d.count("sql.execute")) continue;
        self_us.push_back(d["query.request"] - d["rdb.read_snapshot"] -
                          (1 - plan_hit) *
                              (d["xquery.parse"] + d["xquery.translate"]) -
                          (1 - res_hit) * (d["sql.parse"] + d["sql.plan"] +
                                           d["sql.execute"]));
    }

    const auto& L = p.layers;
    double commits = static_cast<double>(L.commits);
    auto per_commit = [&](std::uint64_t n) {
        return L.commits == 0 ? 0.0 : static_cast<double>(n) / commits;
    };
    const Summary u = untraced.summary, t = p.summary;

    return {
        {"xml.parse_ms", med_ms("xml.parse"), "ms"},
        {"validate.ms", med_ms("validate"), "ms"},
        {"loader.shred_ms", med_ms("loader.shred"), "ms"},
        {"loader.rows_per_doc", ratio(L.rows_loaded, L.commits), "count"},
        {"loader.bulk_load_s", median(bulk_load_s), "s"},
        {"rdb.commit_ms", med_ms("rdb.commit"), "ms"},
        {"rdb.indexes_cowed_per_commit", per_commit(L.indexes_cowed), "count"},
        {"rdb.chunks_cowed_per_commit", per_commit(L.chunks_cowed), "count"},
        {"rdb.tables_republished_per_commit", per_commit(L.tables_republished),
         "count"},
        {"rdb.checkpoint_ms", med_ms("rdb.checkpoint"), "ms"},
        {"rdb.recover_ms_per_10k_records", f.replay_ms_per_10k, "ms"},
        {"rdb.wal_bytes_per_doc", ratio(L.wal_bytes, L.commits), "B"},
        {"rdb.read_snapshot_us", med_us("rdb.read_snapshot"), "us"},
        {"rdb.versions_live", median(L.versions_live), "count"},
        {"xquery.parse_us", med_us("xquery.parse"), "us"},
        {"xquery.translate_us", med_us("xquery.translate"), "us"},
        {"sql.parse_us", med_us("sql.parse"), "us"},
        {"sql.plan_us", med_us("sql.plan"), "us"},
        {"sql.execute_ms", med_ms("sql.execute"), "ms"},
        {"sql.rows_scanned_per_row_returned",
         ratio(L.rows_scanned, L.rows_returned), "ratio"},
        {"sql.index_lookups_per_query", ratio(L.index_lookups, L.decomposed),
         "count"},
        {"sql.range_scans_per_query", ratio(L.range_scans, L.decomposed),
         "count"},
        {"sql.q_error_p50", median(L.q_error), "ratio"},
        {"query.service_self_us", median(self_us), "us"},
        {"query.queue_wait_p50_us",
         static_cast<double>(p.svc1.overload.p50_queue_wait_us), "us"},
        {"query.queue_wait_p99_us",
         static_cast<double>(p.svc1.overload.p99_queue_wait_us), "us"},
        {"query.result_hit_ratio", res_hit, "ratio"},
        {"query.plan_hit_ratio", plan_hit, "ratio"},
        {"trace.overhead_ops_pct",
         100.0 * (u.ops_per_s - t.ops_per_s) / u.ops_per_s, "%"},
        {"trace.overhead_p50_pct",
         100.0 * (t.p50_ms - u.p50_ms) / u.p50_ms, "%"},
        {"trace.spans", static_cast<double>(p.spans.size()), "count"},
    };
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point epoch) {
    std::ofstream out(path);
    out << "op,name,parent,start_ns,end_ns\n";
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count();
    };
    for (const auto& s : spans)
        out << s.op << ',' << s.name << ',' << s.parent << ',' << ns(s.start)
            << ',' << ns(s.end) << '\n';
}

// ---------------------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool dump_inputs = false;
    std::string work_dir;
    std::string trace_out;
    std::string recover_dir;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "xrbench: " << why
              << "\nusage: xrbench --workload W --seed N --seconds S --trace "
                 "0|1 --work-dir DIR [--trace-out FILE]\n"
                 "       xrbench --dump-inputs --workload W --seed N\n"
                 "       xrbench --recover DIR\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--dump-inputs") {
            a.dump_inputs = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload") a.workload = v;
            else if (k == "--seed") a.seed = std::stoull(v);
            else if (k == "--seconds") a.seconds = std::stod(v);
            else if (k == "--trace") a.trace = std::stoi(v) != 0;
            else if (k == "--work-dir") a.work_dir = v;
            else if (k == "--trace-out") a.trace_out = v;
            else if (k == "--recover") a.recover_dir = v;
            else usage("unknown option " + k);
        } catch (const std::logic_error&) {
            usage("bad value for " + k + ": " + v);
        }
    }
    return a;
}

/// Digest of every input a workload consumes, for the determinism test.
void dump_inputs(pb::Workload w, std::uint64_t seed) {
    pb::Shape shape = shape_of(w);
    pb::Corpus base = pb::make_docs(seed, 0, shape.base_docs);
    auto digest = [](const std::vector<std::string>& items) {
        std::uint64_t h = pb::fnv1a("");
        for (const auto& s : items) h = pb::fnv1a(s + '\n', h);
        return h;
    };
    auto line = [](const char* what, std::size_t n, std::uint64_t h) {
        std::printf("%s %zu %016llx\n", what, n,
                    static_cast<unsigned long long>(h));
    };
    line("base_docs", base.texts.size(), digest(base.texts));
    switch (w) {
        case pb::Workload::kIngest: {
            pb::Corpus writes = pb::make_docs(
                seed, shape.base_docs, shape.episode_docs + shape.replay_docs);
            line("write_docs", writes.texts.size(), digest(writes.texts));
            break;
        }
        case pb::Workload::kServeCold: {
            pb::QueryStream stream(seed, pb::vocabulary(base));
            std::vector<std::string> cold;
            for (int i = 0; i < 4096; ++i) cold.push_back(stream.next());
            line("cold_queries", cold.size(), digest(cold));
            break;
        }
    }
}

int run(const Args& args) {
    if (!args.recover_dir.empty()) return recover(args.recover_dir);
    pb::Workload w;
    if (!pb::parse_workload(args.workload, &w))
        usage("unknown workload '" + args.workload + "'");
    if (args.dump_inputs) {
        dump_inputs(w, args.seed);
        return 0;
    }
    if (args.work_dir.empty()) usage("--work-dir is required");
    if (!(args.seconds > 0)) usage("--seconds must be positive");
    const pb::Shape shape = pb::shape_of(w);
    const bool serve = shape.clients > 0;
    fs::create_directories(args.work_dir);

    // Inputs (excluded from every timing).
    pb::Corpus base = pb::make_docs(args.seed, 0, shape.base_docs);
    pb::Corpus writes =
        pb::make_docs(args.seed, shape.base_docs,
                      shape.episode_docs + shape.replay_docs);
    std::unique_ptr<Queries> queries;
    if (serve)
        queries = std::make_unique<Queries>(
            pb::QueryStream(args.seed, pb::vocabulary(base)),
            static_cast<std::size_t>(args.seconds * kColdPrefillPerSecond));

    // Set up repeatedly; setup_s is the median, the last set-up is kept.
    std::vector<double> setup_s, bulk_s;
    std::unique_ptr<Env> env;
    std::size_t setup_no = 0;
    auto fresh = [&] {
        env.reset();
        std::string dir = args.work_dir + "/db" + std::to_string(setup_no++);
        if (setup_no > 1)
            fs::remove_all(args.work_dir + "/db" + std::to_string(setup_no - 2));
        env = setup(shape, base, dir);
        setup_s.push_back(env->setup_s);
        bulk_s.push_back(env->bulk_load_s);
    };
    for (std::size_t i = 0; i < shape.setups; ++i) fresh();

    std::atomic<std::uint64_t> ops{0};
    std::vector<double> opens;
    // A traced run splits its time between an untraced and a traced pass,
    // so that it takes no longer than an untraced run.
    const double pass_s = args.trace ? args.seconds / 2 : args.seconds;
    auto measure = [&](bool traced, Pass& p) {
        if (serve) {
            serve_pass(*env, shape, *queries, pass_s, traced, ops, p);
        } else {
            // Whole episodes until the time is up, each on a fresh set-up
            // but the first, which uses the one made before.
            for (bool first = true; first || p.elapsed_s < pass_s;
                 first = false) {
                if (!first) fresh();
                ingest_episode(*env, shape, writes, traced, ops, p);
                // Every episode leaves the same directory, just
                // checkpointed.  Reopening it after each one spreads
                // recover_s over the run; the idle writer's files are
                // only read.
                std::size_t records = 0;
                auto more = time_reopens(env->dir, kReopensPerEpisode, &records);
                opens.insert(opens.end(), more.begin(), more.end());
            }
        }
        p.summary = summarize(p.op_ms, p.op_end_s, p.elapsed_s, shape.window_s);
    };

    Pass untraced, traced;
    Clock::time_point epoch = Clock::now();
    measure(false, untraced);
    Pass& main = args.trace ? traced : untraced;
    if (args.trace) {
        // The traced pass gets a set-up of its own: ingest grows the
        // database as it runs.
        fresh();
        measure(true, traced);
    }

    Checks checks;
    if (serve) {
        check_samples(*env, base, main.samples, checks);
        checks.expect(!main.samples.empty(), "no read was sampled");
    }
    Finish f = finish(*env, shape, base, writes, opens, args.seed, args.trace,
                      checks);
    if (!args.trace_out.empty() && args.trace)
        write_spans(args.trace_out, traced.spans, epoch);

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = layer_metrics(traced, untraced, f, bulk_s);
    } else {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"ops_per_s", untraced.summary.ops_per_s, "1/s"},
            {"op_p50_ms", untraced.summary.p50_ms, "ms"},
            {"op_p99_ms", untraced.summary.p99_ms, "ms"},
            {"recover_s", f.recover_s, "s"},
            {"db_bytes_per_xml_byte", f.db_bytes_per_xml_byte, "ratio"},
        };
    }

    std::size_t attempted = untraced.attempted + traced.attempted;
    std::size_t failed = untraced.failed + traced.failed;
    if (failed > 0)
        std::cerr << "xrbench: " << failed << " operation(s) failed, first: "
                  << (untraced.first_error.empty() ? traced.first_error
                                                   : untraced.first_error)
                  << "\n";
    for (const auto& msg : checks.failures)
        std::cerr << "xrbench: check failed: " << msg << "\n";
    bool correct = checks.failures.empty();
    print_result(correct, attempted, failed, metrics);
    fs::remove_all(args.work_dir);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "xrbench: " << e.what() << "\n";
        return 1;
    }
}
