// Experiment §5-load — data-loading throughput and data volume: the
// paper's mapping (serial and parallel-bulk pipelines) vs the VLDB'99
// inlining baselines on identical corpora, across corpus sizes.  The
// expected shape: inlining loads faster and stores fewer rows (it
// collapses subtrees into wide rows); the mapping stores more rows but
// preserves every relationship and the ordering metadata — that trade is
// the paper's design position.  The bulk pipeline exists to close the
// throughput gap without giving up the mapping.
//
// Besides the human-readable table, the report is emitted as
// BENCH_loading.json so the perf trajectory is machine-trackable; the
// per-document commit cost section writes BENCH_commit_cost.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baseline/inline_loader.hpp"
#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "loader/bulk_loader.hpp"
#include "rdb/integrity.hpp"
#include "rdb/snapshot.hpp"
#include "xml/serializer.hpp"

namespace {

using namespace xr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct LoadRecord {
    std::size_t corpus_docs = 0;
    std::size_t elements = 0;
    std::string strategy;
    std::size_t rows = 0;
    double ms = 0;
    double elem_per_s = 0;
    double null_fraction = 0;
};

double mean_null_fraction(const rdb::Database& db) {
    double nulls = 0;
    std::size_t tables = 0;
    for (const auto& name : db.table_names()) {
        const rdb::Table& t = db.require(name);
        if (t.row_count() == 0) continue;
        nulls += t.null_fraction();
        ++tables;
    }
    return nulls / std::max<std::size_t>(tables, 1);
}

void emit_json(const std::vector<LoadRecord>& records,
               const std::string& path) {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const LoadRecord& r = records[i];
        out << "  {\"corpus_docs\": " << r.corpus_docs
            << ", \"elements\": " << r.elements << ", \"strategy\": \""
            << r.strategy << "\", \"rows\": " << r.rows << ", \"ms\": " << r.ms
            << ", \"elem_per_s\": " << static_cast<std::int64_t>(r.elem_per_s)
            << ", \"null_fraction\": " << r.null_fraction << "}"
            << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "]\n";
}

void print_report() {
    std::cout << "=== §5-load: loading throughput, mapping vs inlining ===\n";
    TablePrinter table({"corpus", "elements", "strategy", "rows", "ms",
                        "k elem/s", "null frac"});
    std::vector<LoadRecord> records;

    auto add = [&](std::size_t docs, std::size_t elements,
                   const std::string& strategy, std::size_t rows, double s,
                   double null_fraction) {
        records.push_back({docs, elements, strategy, rows, s * 1e3,
                           elements / s, null_fraction});
        table.add_row({std::to_string(docs) + " docs", std::to_string(elements),
                       strategy, std::to_string(rows), format_double(s * 1e3, 1),
                       format_double(elements / s / 1000.0, 1),
                       format_double(null_fraction, 3)});
    };

    std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    for (std::size_t docs : {16, 64, 256}) {
        bench::Corpus corpus = bench::Corpus::bibliography(docs, 400);

        // Paper mapping, serial row-at-a-time loader.
        {
            bench::Stack stack(gen::paper_dtd());
            auto t0 = Clock::now();
            for (auto& doc : corpus.docs) {
                loader::LoadOptions options;
                options.validate = false;
                options.resolve_references = false;
                stack.loader->load(*doc, options);
            }
            stack.loader->resolve_references();
            double s = seconds_since(t0);
            add(docs, corpus.total_elements, "mapping serial",
                stack.loader->stats().total_rows(), s,
                mean_null_fraction(stack.db));
        }

        // Paper mapping, bulk pipeline (staged batches + deferred index
        // rebuild), single worker and one worker per hardware thread.
        std::vector<std::size_t> job_counts{1};
        if (hw > 1) job_counts.push_back(hw);  // else identical run, skip
        for (std::size_t jobs : job_counts) {
            bench::Stack stack(gen::paper_dtd());
            loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema,
                                    stack.db);
            loader::BulkLoadOptions options;
            options.jobs = jobs;
            options.validate = false;
            std::vector<xml::Document*> views;
            for (auto& doc : corpus.docs) views.push_back(doc.get());
            auto t0 = Clock::now();
            loader::LoadStats st = bulk.load_corpus(views, options).stats;
            double s = seconds_since(t0);
            add(docs, corpus.total_elements,
                "mapping bulk x" + std::to_string(jobs), st.total_rows(), s,
                mean_null_fraction(stack.db));
        }

        // Bulk pipeline with the skip policy armed: measures the cost of
        // per-document staging marks on an all-good corpus.
        {
            bench::Stack stack(gen::paper_dtd());
            loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema,
                                    stack.db);
            loader::BulkLoadOptions options;
            options.jobs = 1;
            options.validate = false;
            options.on_error = loader::FailurePolicy::kSkip;
            std::vector<xml::Document*> views;
            for (auto& doc : corpus.docs) views.push_back(doc.get());
            auto t0 = Clock::now();
            loader::LoadStats st = bulk.load_corpus(views, options).stats;
            double s = seconds_since(t0);
            add(docs, corpus.total_elements, "mapping bulk x1 skip",
                st.total_rows(), s, mean_null_fraction(stack.db));
        }

        // Inlining baselines.
        for (baseline::InliningMode mode :
             {baseline::InliningMode::kBasic, baseline::InliningMode::kShared,
              baseline::InliningMode::kHybrid}) {
            baseline::InliningResult r = baseline::inline_dtd(gen::paper_dtd(), mode);
            rdb::Database db;
            baseline::InlineLoader loader(r, db);
            auto t0 = Clock::now();
            for (const auto& doc : corpus.docs) loader.load(*doc);
            double s = seconds_since(t0);
            add(docs, corpus.total_elements,
                std::string(to_string(mode)) + " inlining", loader.stats().rows,
                s, mean_null_fraction(db));
        }
    }
    std::cout << table.to_string() << "\n";
    emit_json(records, "BENCH_loading.json");
    std::cout << "wrote BENCH_loading.json (" << records.size()
              << " records)\n\n";
}

// === per-document commit cost: serial loading as the tables grow ==========
//
// Each serial Loader::load is one committed load unit, and each commit
// publishes an MVCC epoch (DESIGN.md §15).  With copy-on-write B+tree
// indexes and append-without-copy row chunks, a commit copies
// O(tree height) index nodes and no rows, so the per-document cost must
// stay flat from 16 to 1024 documents; bulk x1 (one unit, deferred index
// rebuild) is the floor serial loading is compared against.  Numbers come
// from MvccStats, the counters a running database exposes.
void print_commit_cost_report() {
    std::cout << "=== per-document commit cost: serial loader, one unit per "
                 "document ===\n";
    TablePrinter table({"corpus", "serial ms/doc", "last 16 ms/doc",
                        "bulk x1 ms/doc", "serial / bulk", "index nodes/commit",
                        "chunks/commit"});
    std::ofstream json("BENCH_commit_cost.json");
    json << "[\n";
    const std::size_t sizes[] = {16, 256, 1024};
    for (std::size_t docs : sizes) {
        bench::Corpus corpus = bench::Corpus::bibliography(docs, 400);
        loader::LoadOptions options;
        options.validate = false;

        bench::Stack stack(gen::paper_dtd());
        rdb::MvccStats m0 = stack.db.mvcc_stats();
        std::vector<double> per_doc;
        per_doc.reserve(docs);
        for (auto& doc : corpus.docs) {
            auto t0 = Clock::now();
            stack.loader->load(*doc, options);
            per_doc.push_back(seconds_since(t0) * 1e3);
        }
        rdb::MvccStats m1 = stack.db.mvcc_stats();
        double serial_ms = 0;
        for (double ms : per_doc) serial_ms += ms;
        double last16_ms = 0;
        for (std::size_t i = docs - 16; i < docs; ++i) last16_ms += per_doc[i];

        bench::Stack bulk_stack(gen::paper_dtd());
        loader::BulkLoader bulk(bulk_stack.logical, bulk_stack.mapping,
                                bulk_stack.schema, bulk_stack.db);
        loader::BulkLoadOptions bulk_options;
        bulk_options.jobs = 1;
        bulk_options.validate = false;
        std::vector<xml::Document*> views;
        for (auto& doc : corpus.docs) views.push_back(doc.get());
        auto t0 = Clock::now();
        (void)bulk.load_corpus(views, bulk_options);
        double bulk_ms = seconds_since(t0) * 1e3;

        double n = static_cast<double>(docs);
        double nodes = static_cast<double>(m1.indexes_cowed - m0.indexes_cowed) / n;
        double chunks = static_cast<double>(m1.chunks_cowed - m0.chunks_cowed) / n;
        table.add_row({std::to_string(docs) + " docs",
                       format_double(serial_ms / n, 3),
                       format_double(last16_ms / 16.0, 3),
                       format_double(bulk_ms / n, 3),
                       format_double(serial_ms / bulk_ms, 2),
                       format_double(nodes, 1), format_double(chunks, 2)});
        json << "  {\"corpus_docs\": " << docs
             << ", \"serial_ms_per_doc\": " << serial_ms / n
             << ", \"serial_last16_ms_per_doc\": " << last16_ms / 16.0
             << ", \"bulk_x1_ms_per_doc\": " << bulk_ms / n
             << ", \"serial_over_bulk_x1\": " << serial_ms / bulk_ms
             << ", \"index_nodes_cowed_per_commit\": " << nodes
             << ", \"chunks_cowed_per_commit\": " << chunks << "}"
             << (docs != sizes[std::size(sizes) - 1] ? "," : "") << "\n";
    }
    json << "]\n";
    std::cout << table.to_string()
              << "flat: 'last 16 ms/doc' at 1024 docs within 2x of 16 docs; "
                 "serial within 2x of bulk x1\n"
              << "wrote BENCH_commit_cost.json\n\n";
}

/// Self-deleting scratch directory for the durability measurements.
struct BenchDir {
    std::string path;
    BenchDir() {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "xmlrel-bench-XXXXXX")
                               .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed");
        path = buf.data();
    }
    ~BenchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/// The larger durability leg: cold recovery of a WAL-only directory, then
/// a checkpoint of the recovered state.
struct LargeLeg {
    std::uint64_t records = 0;  ///< WAL records replayed
    double recover_ms = 0;
    rdb::SnapshotStats checkpoint;
};

/// Load `docs` documents of `elems` elements into a WAL-only directory,
/// then time a strict open() that replays every record, and checkpoint.
/// The load commits without fsync: the records are the same, only faster
/// to produce.
LargeLeg time_large_leg(std::size_t docs, std::size_t elems) {
    bench::Corpus corpus = bench::Corpus::bibliography(docs, elems);
    BenchDir dir;
    {
        rdb::Database db;
        bench::Stack proto(gen::paper_dtd());
        rdb::DurabilityOptions dopts;
        dopts.sync_on_commit = false;
        db.open(dir.path, dopts);
        rel::materialize(proto.schema, proto.mapping, db);
        loader::Loader loader(proto.logical, proto.mapping, proto.schema, db);
        for (auto& doc : corpus.docs) {
            loader::LoadOptions options;
            options.validate = false;
            loader.load(*doc, options);
        }
    }
    LargeLeg leg;
    rdb::Database db;
    auto t0 = Clock::now();
    leg.records = db.open(dir.path).records_replayed;
    leg.recover_ms = seconds_since(t0) * 1e3;
    leg.checkpoint = db.checkpoint();
    return leg;
}

// === durability: what the WAL costs and what recovery buys back =============
//
// Loads one corpus three ways (in-memory, WAL per-commit fsync, no-WAL
// with a single final snapshot), then times a cold recovery of the
// WAL-backed directory and a checkpoint of the recovered state, phase
// by phase.  A second WAL-only corpus, 15 times larger (about 100k WAL
// records), shows how recovery and the checkpoint phases scale.  The
// derived figures — WAL append throughput, snapshot write MB/s,
// checkpoint phases, recovery ms per 10k records at both sizes — land
// in BENCH_durability.json.
void print_durability_report() {
    std::cout << "=== durability: WAL / snapshot / recovery cost ===\n";
    constexpr std::size_t kDocs = 64, kElems = 400;
    bench::Corpus corpus = bench::Corpus::bibliography(kDocs, kElems);

    // In-memory baseline: the same serial load with no durability at all.
    double mem_s;
    {
        bench::Stack stack(gen::paper_dtd());
        auto t0 = Clock::now();
        for (auto& doc : corpus.docs) {
            loader::LoadOptions options;
            options.validate = false;
            stack.loader->load(*doc, options);
        }
        mem_s = seconds_since(t0);
    }

    // WAL-backed load: every document commit appends + fsyncs.
    BenchDir wal_dir;
    double wal_s;
    std::uint64_t wal_bytes;
    {
        rdb::Database db;
        bench::Stack proto(gen::paper_dtd());
        db.open(wal_dir.path);
        rel::materialize(proto.schema, proto.mapping, db);
        db.flush_wal();
        loader::Loader loader(proto.logical, proto.mapping, proto.schema, db);
        auto t0 = Clock::now();
        for (auto& doc : corpus.docs) {
            loader::LoadOptions options;
            options.validate = false;
            loader.load(*doc, options);
        }
        wal_s = seconds_since(t0);
        wal_bytes = db.wal_bytes_appended();
    }

    // No-WAL load: nothing durable until one snapshot at the end.
    BenchDir snap_dir;
    double nowal_s;
    {
        rdb::Database db;
        bench::Stack proto(gen::paper_dtd());
        rdb::DurabilityOptions dopts;
        dopts.use_wal = false;
        db.open(snap_dir.path, dopts);
        rel::materialize(proto.schema, proto.mapping, db);
        loader::Loader loader(proto.logical, proto.mapping, proto.schema, db);
        auto t0 = Clock::now();
        for (auto& doc : corpus.docs) {
            loader::LoadOptions options;
            options.validate = false;
            loader.load(*doc, options);
        }
        db.checkpoint();
        nowal_s = seconds_since(t0);
    }

    // A pre-recovery copy of the WAL directory, with one byte flipped
    // mid-WAL, for the salvage-path timing below.  (The strict recovery
    // that follows rotates the original directory's chain in place.)
    BenchDir salvage_dir;
    {
        std::filesystem::copy(wal_dir.path, salvage_dir.path,
                              std::filesystem::copy_options::recursive |
                                  std::filesystem::copy_options::overwrite_existing);
        for (const auto& entry :
             std::filesystem::directory_iterator(salvage_dir.path)) {
            if (entry.path().filename().string().rfind("wal-", 0) != 0)
                continue;
            auto size = std::filesystem::file_size(entry.path());
            std::fstream f(entry.path(),
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekp(static_cast<std::streamoff>(size / 2));
            f.put('\x5A');
            break;
        }
    }

    // Cold recovery of the WAL-backed directory, then a checkpoint of the
    // recovered state for the snapshot-write rate, then a full online
    // verify() pass over the recovered database.
    double recover_s, verify_s;
    rdb::RecoveryReport recovery;
    rdb::SnapshotStats snap;
    rdb::IntegrityReport integrity;
    {
        rdb::Database db;
        auto t0 = Clock::now();
        recovery = db.open(wal_dir.path);
        recover_s = seconds_since(t0);
        snap = db.checkpoint();
        t0 = Clock::now();
        integrity = db.verify();
        verify_s = seconds_since(t0);
    }

    // Salvage recovery of the corrupted copy: skip the damaged records,
    // quarantine what they touched, re-checkpoint a clean chain.
    double salvage_s;
    rdb::RecoveryReport salvage;
    {
        rdb::Database db;
        rdb::DurabilityOptions dopts;
        dopts.recovery = rdb::RecoveryMode::kSalvage;
        auto t0 = Clock::now();
        salvage = db.open(salvage_dir.path, dopts);
        salvage_s = seconds_since(t0);
    }

    LargeLeg big = time_large_leg(kDocs * 15, kElems);
    double big_per_10k =
        big.records == 0 ? 0 : big.recover_ms / (big.records / 1e4);

    double wal_mb_s = wal_bytes / wal_s / 1e6;
    double wal_rec_s = recovery.records_replayed / wal_s;
    // Encoding plus the durable write; the verify and rotate phases that
    // follow inside checkpoint() are reported on their own below.
    double snap_mb_s =
        snap.bytes / ((snap.serialize_ms + snap.write_ms) / 1e3) / 1e6;
    double rec_per_10k = recovery.records_replayed == 0
                             ? 0
                             : recover_s * 1e3 /
                                   (recovery.records_replayed / 1e4);

    TablePrinter table({"metric", "value", "unit"});
    std::vector<std::pair<std::string, std::string>> rows = {
        {"load, in-memory", format_double(corpus.total_elements / mem_s / 1e3, 1) + " k elem/s"},
        {"load, WAL fsync-per-commit", format_double(corpus.total_elements / wal_s / 1e3, 1) + " k elem/s"},
        {"load, no-WAL + final snapshot", format_double(corpus.total_elements / nowal_s / 1e3, 1) + " k elem/s"},
        {"WAL append throughput", format_double(wal_mb_s, 1) + " MB/s (" + format_double(wal_rec_s / 1e3, 1) + " k rec/s)"},
        {"snapshot write", format_double(snap_mb_s, 1) + " MB/s"},
        {"recovery", format_double(rec_per_10k, 2) + " ms / 10k records (" + std::to_string(recovery.records_replayed) + " records)"},
        {"recovery, 15x corpus", format_double(big_per_10k, 2) + " ms / 10k records (" + std::to_string(big.records) + " records)"},
        {"verify (online check)", format_double(verify_s * 1e3, 2) + " ms (" + std::to_string(integrity.rows_checked) + " rows)"},
        {"salvage recovery", format_double(salvage_s * 1e3, 2) + " ms (" + std::to_string(salvage.salvage.docs_quarantined) + " doc(s) quarantined)"},
    };
    for (const auto& [metric, value] : rows) {
        auto space = value.find(' ');
        table.add_row({metric, value.substr(0, space), value.substr(space + 1)});
    }
    std::cout << table.to_string() << "\n";

    // Checkpoint phases, for the recovered state of both corpora.
    TablePrinter phases({"checkpoint", "MB", "serialize ms", "write+fsync ms",
                         "verify ms", "rotate ms"});
    auto phase_row = [&](const std::string& what, const rdb::SnapshotStats& s) {
        phases.add_row({what, format_double(s.bytes / 1e6, 2),
                        format_double(s.serialize_ms, 2),
                        format_double(s.write_ms, 2),
                        format_double(s.verify_ms, 2),
                        format_double(s.rotate_ms, 2)});
    };
    phase_row("corpus", snap);
    phase_row("15x corpus", big.checkpoint);
    std::cout << phases.to_string() << "\n";

    auto phase_json = [](const rdb::SnapshotStats& s) {
        std::ostringstream o;
        o << "{\"bytes\": " << s.bytes << ", \"serialize_ms\": "
          << s.serialize_ms << ", \"write_ms\": " << s.write_ms
          << ", \"verify_ms\": " << s.verify_ms
          << ", \"rotate_ms\": " << s.rotate_ms << "}";
        return o.str();
    };
    std::ofstream out("BENCH_durability.json");
    out << "{\n"
        << "  \"corpus_docs\": " << kDocs << ",\n"
        << "  \"corpus_elements\": " << corpus.total_elements << ",\n"
        << "  \"load_elem_per_s_memory\": "
        << static_cast<std::int64_t>(corpus.total_elements / mem_s) << ",\n"
        << "  \"load_elem_per_s_wal\": "
        << static_cast<std::int64_t>(corpus.total_elements / wal_s) << ",\n"
        << "  \"load_elem_per_s_nowal_snapshot\": "
        << static_cast<std::int64_t>(corpus.total_elements / nowal_s) << ",\n"
        << "  \"wal_append_mb_per_s\": " << wal_mb_s << ",\n"
        << "  \"wal_append_records_per_s\": "
        << static_cast<std::int64_t>(wal_rec_s) << ",\n"
        << "  \"wal_records\": " << recovery.records_replayed << ",\n"
        << "  \"wal_bytes\": " << wal_bytes << ",\n"
        << "  \"snapshot_write_mb_per_s\": " << snap_mb_s << ",\n"
        << "  \"snapshot_bytes\": " << snap.bytes << ",\n"
        << "  \"recovery_ms\": " << recover_s * 1e3 << ",\n"
        << "  \"recovery_rows_restored\": " << recovery.rows_restored << ",\n"
        << "  \"recovery_ms_per_10k_records\": " << rec_per_10k << ",\n"
        << "  \"recovery_large_wal_records\": " << big.records << ",\n"
        << "  \"recovery_large_ms\": " << big.recover_ms << ",\n"
        << "  \"recovery_large_ms_per_10k_records\": " << big_per_10k
        << ",\n"
        << "  \"checkpoint\": " << phase_json(snap) << ",\n"
        << "  \"checkpoint_large\": " << phase_json(big.checkpoint) << ",\n"
        << "  \"recovery\": {\n"
        << "    \"strict_ms\": " << recover_s * 1e3 << ",\n"
        << "    \"verify_ms\": " << verify_s * 1e3 << ",\n"
        << "    \"verify_rows_checked\": " << integrity.rows_checked << ",\n"
        << "    \"verify_errors\": " << integrity.errors() << ",\n"
        << "    \"salvage_ms\": " << salvage_s * 1e3 << ",\n"
        << "    \"salvage_wal_bytes_dropped\": "
        << salvage.salvage.wal_bytes_dropped << ",\n"
        << "    \"salvage_docs_quarantined\": "
        << salvage.salvage.docs_quarantined << "\n"
        << "  }\n"
        << "}\n";
    std::cout << "wrote BENCH_durability.json\n\n";
}

void BM_Load_Mapping(benchmark::State& state) {
    bench::Corpus corpus =
        bench::Corpus::bibliography(static_cast<std::size_t>(state.range(0)), 400);
    for (auto _ : state) {
        state.PauseTiming();
        bench::Stack stack(gen::paper_dtd());
        state.ResumeTiming();
        for (auto& doc : corpus.docs) {
            loader::LoadOptions options;
            options.validate = false;
            options.resolve_references = false;
            stack.loader->load(*doc, options);
        }
        stack.loader->resolve_references();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(corpus.total_elements * state.iterations()));
}
BENCHMARK(BM_Load_Mapping)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Load_MappingBulk(benchmark::State& state) {
    bench::Corpus corpus =
        bench::Corpus::bibliography(static_cast<std::size_t>(state.range(0)), 400);
    std::vector<xml::Document*> views;
    for (auto& doc : corpus.docs) views.push_back(doc.get());
    for (auto _ : state) {
        state.PauseTiming();
        bench::Stack stack(gen::paper_dtd());
        loader::BulkLoader bulk(stack.logical, stack.mapping, stack.schema,
                                stack.db);
        state.ResumeTiming();
        loader::BulkLoadOptions options;
        options.jobs = static_cast<std::size_t>(state.range(1));
        options.validate = false;
        bulk.load_corpus(views, options);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(corpus.total_elements * state.iterations()));
}
BENCHMARK(BM_Load_MappingBulk)
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({64, 0})  // 0 = one worker per hardware thread
    ->Unit(benchmark::kMillisecond);

void BM_Load_SharedInlining(benchmark::State& state) {
    bench::Corpus corpus =
        bench::Corpus::bibliography(static_cast<std::size_t>(state.range(0)), 400);
    baseline::InliningResult r =
        baseline::inline_dtd(gen::paper_dtd(), baseline::InliningMode::kShared);
    for (auto _ : state) {
        state.PauseTiming();
        rdb::Database db;
        baseline::InlineLoader loader(r, db);
        state.ResumeTiming();
        for (const auto& doc : corpus.docs) loader.load(*doc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(corpus.total_elements * state.iterations()));
}
BENCHMARK(BM_Load_SharedInlining)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Load_WithValidation(benchmark::State& state) {
    bench::Corpus corpus = bench::Corpus::bibliography(16, 400);
    for (auto _ : state) {
        state.PauseTiming();
        bench::Stack stack(gen::paper_dtd());
        state.ResumeTiming();
        for (auto& doc : corpus.docs) stack.loader->load(*doc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(corpus.total_elements * state.iterations()));
}
BENCHMARK(BM_Load_WithValidation)->Unit(benchmark::kMillisecond);

void BM_XmlParse(benchmark::State& state) {
    // Parsing cost for context: text → DOM for one 400-element document.
    auto doc = gen::bibliography_corpus(1, 400, 3);
    std::string text = xml::serialize(*doc[0]);
    for (auto _ : state) benchmark::DoNotOptimize(xml::parse_document(text));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(text.size() * state.iterations()));
}
BENCHMARK(BM_XmlParse);

}  // namespace

int main(int argc, char** argv) {
    print_report();
    print_commit_cost_report();
    print_durability_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
