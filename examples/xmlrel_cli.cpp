// xmlrel_cli — a small command-line front end over the whole library, the
// shape of tool a downstream user would wrap around the paper's system.
//
//   xmlrel_cli map <dtd-file>
//       Print the converted DTD (Example 2 form), the ER diagram, the
//       Graphviz DOT and the relational DDL for a DTD.
//
//   xmlrel_cli load <dtd-file> <xml-file>... [--jobs N]
//                               [--on-error fail|skip|quarantine]
//                               [--data-dir DIR] [--checkpoint-every N]
//                               [--no-wal] [--max-depth N]
//                               [--sql "SELECT ..."]... [--query "/path"]...
//                               [--reconstruct N]
//                               [--serve-threads N] [--cache-mb M]
//       Map the DTD, validate and load the documents, then run SQL
//       statements and/or path queries (shown with their generated SQL),
//       and optionally reconstruct document N back to XML.  Every load
//       goes through the bulk-load pipeline: --jobs N shredding workers
//       (default 1, run inline; 0 = one per hardware thread), batched
//       appends, one index rebuild, one IDREF resolution pass.
//       --on-error picks the failure policy: fail (default) rolls the
//       whole load back on the first bad document, skip drops bad
//       documents and keeps the rest, quarantine additionally records
//       each rejected document's text and error in xrel_quarantine.
//       --data-dir makes the database durable: the directory is recovered
//       on startup (checksummed snapshot + write-ahead-log replay, with
//       the recovery report printed), every committed load survives a
//       crash, and queries run against the recovered state.
//       --checkpoint-every N writes a fresh snapshot after every N
//       documents, bounding WAL replay time; --no-wal skips per-commit
//       logging and persists through a single final snapshot instead
//       (faster, but a crash mid-run loses the whole run).  --max-depth
//       caps element nesting during parsing (a malformed-input guard;
//       over-limit documents fail document-scoped under skip/quarantine).
//       --serve-threads N runs the --sql/--query workload through the
//       concurrent query service instead of inline: N worker threads,
//       snapshot-isolated reads, plan + result caches (sized by
//       --cache-mb, default 16), with cache statistics printed at the
//       end.  Serve mode prints result rows rather than materialized
//       XML for path queries.  --deadline-ms bounds each served query
//       (expired queries report "deadline exceeded"), --max-queue bounds
//       the admission queue (excess submissions are shed with a
//       retry-after hint), and --row-budget caps the rows any one query
//       may materialize; the end-of-run statistics include the
//       admitted/shed/expired counts and queue-wait percentiles.
//       --explain prints an EXPLAIN line per path query: the translation
//       summary plus the cost-based plan (per-stage access path,
//       estimated rows and cost).  --analyze rebuilds table statistics
//       (ANALYZE) after loading and prints the report; --no-planner
//       disables the cost-based join reordering so statements run exactly
//       as translated/written (inline mode and --explain only; it is a
//       usage error with --serve-threads).
//       --verify runs the online integrity checker after loading and
//       prints the report (exit 1 if it finds errors); --salvage opens
//       --data-dir in salvage mode — corrupt snapshot sections and WAL
//       records are skipped instead of failing recovery, documents they
//       damaged are quarantined in xrel_quarantine, and the repaired
//       state is re-checkpointed.  With --data-dir the <xml-file> list
//       may be empty, so `load schema.dtd --data-dir d --verify` checks
//       an existing database and `... --salvage --verify` repairs one.
//
//   xmlrel_cli validate <dtd-file> <xml-file>...
//       Validate documents against the DTD and report every issue.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>

#include "dtd/parser.hpp"
#include "er/dot.hpp"
#include "loader/bulk_loader.hpp"
#include "loader/loader.hpp"
#include "loader/reconstruct.hpp"
#include "mapping/pipeline.hpp"
#include "query/service.hpp"
#include "rdb/integrity.hpp"
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
#include "xquery/materialize.hpp"
#include "xquery/sql_translate.hpp"

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw xr::Error("cannot open file: " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

int usage() {
    std::cerr << "usage:\n"
              << "  xmlrel_cli map <dtd-file>\n"
              << "  xmlrel_cli validate <dtd-file> <xml-file>...\n"
              << "  xmlrel_cli load <dtd-file> <xml-file>... [--jobs N] "
                 "[--on-error fail|skip|quarantine] "
                 "[--data-dir DIR] [--checkpoint-every N] [--no-wal] "
                 "[--max-depth N] "
                 "[--sql STMT]... [--query PATH]... [--reconstruct N] "
                 "[--serve-threads N] [--cache-mb M] "
                 "[--deadline-ms N] [--max-queue N] [--row-budget N] "
                 "[--explain] [--analyze] "
                 "[--no-planner] [--verify] [--salvage]\n"
              << "    (with --data-dir the <xml-file> list may be empty: "
                 "--verify checks an\n"
              << "     existing database, --salvage repairs a corrupted "
                 "one)\n";
    return 2;
}

int cmd_map(const std::string& dtd_path) {
    xr::dtd::Dtd dtd = xr::dtd::parse_dtd(read_file(dtd_path));
    for (const auto& issue : dtd.lint())
        std::cerr << "lint: " << issue << "\n";
    xr::mapping::MappingResult m = xr::mapping::map_dtd(dtd);
    std::cout << "-- converted DTD --------------------------------------\n"
              << m.converted.to_string()
              << "-- ER model -------------------------------------------\n"
              << m.model.to_string()
              << "-- Graphviz DOT ---------------------------------------\n"
              << xr::er::to_dot(m.model)
              << "-- relational DDL -------------------------------------\n"
              << xr::rel::translate(m).ddl();
    return 0;
}

int cmd_validate(const std::string& dtd_path,
                 const std::vector<std::string>& xml_paths) {
    xr::dtd::Dtd dtd = xr::dtd::parse_dtd(read_file(dtd_path));
    xr::validate::Validator validator(dtd);
    int bad = 0;
    for (const auto& path : xml_paths) {
        auto doc = xr::xml::parse_document(read_file(path));
        auto result = validator.validate(*doc);
        if (result.ok()) {
            std::cout << path << ": valid\n";
        } else {
            ++bad;
            std::cout << path << ": INVALID\n";
            for (const auto& issue : result.issues)
                std::cout << "  " << issue.to_string() << "\n";
        }
    }
    return bad == 0 ? 0 : 1;
}

int cmd_load(const std::vector<std::string>& args) {
    std::string dtd_path;
    std::vector<std::string> xml_paths;
    std::vector<std::string> sql_statements;
    std::vector<std::string> path_queries;
    std::int64_t reconstruct_doc = -1;
    std::int64_t jobs = 1;  // 0 = all hardware threads
    xr::loader::FailurePolicy on_error = xr::loader::FailurePolicy::kFailFast;
    std::string data_dir;
    std::int64_t checkpoint_every = 0;  // 0 = only where --no-wal requires one
    bool use_wal = true;
    std::int64_t max_depth = 0;   // 0 = parser default
    std::int64_t serve_threads = 0;  // 0 = inline execution (no service)
    std::int64_t cache_mb = 16;
    std::int64_t deadline_ms = 0;  // 0 = no per-query deadline
    std::int64_t max_queue = 0;    // 0 = unbounded admission
    std::int64_t row_budget = 0;   // 0 = unlimited materialization
    bool explain = false;
    bool analyze = false;
    bool planner_enabled = true;
    bool verify = false;
    bool salvage = false;

    auto parse_policy = [&](const std::string& name) {
        if (name == "fail")
            on_error = xr::loader::FailurePolicy::kFailFast;
        else if (name == "skip")
            on_error = xr::loader::FailurePolicy::kSkip;
        else if (name == "quarantine")
            on_error = xr::loader::FailurePolicy::kQuarantine;
        else
            return false;
        return true;
    };

    // Integer option value; nullopt (→ usage) on missing or non-numeric.
    auto int_arg = [&](std::size_t& i) -> std::optional<std::int64_t> {
        if (i + 1 >= args.size()) return std::nullopt;
        try {
            return std::stoll(args[++i]);
        } catch (const std::exception&) {
            return std::nullopt;
        }
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--sql" && i + 1 < args.size()) {
            sql_statements.push_back(args[++i]);
        } else if (args[i] == "--query" && i + 1 < args.size()) {
            path_queries.push_back(args[++i]);
        } else if (args[i] == "--reconstruct") {
            auto v = int_arg(i);
            if (!v) return usage();
            reconstruct_doc = *v;
        } else if (args[i] == "--jobs") {
            auto v = int_arg(i);
            if (!v || *v < 0) return usage();
            jobs = *v;
        } else if (args[i] == "--data-dir" && i + 1 < args.size()) {
            data_dir = args[++i];
        } else if (args[i] == "--checkpoint-every") {
            auto v = int_arg(i);
            if (!v || *v <= 0) return usage();
            checkpoint_every = *v;
        } else if (args[i] == "--no-wal") {
            use_wal = false;
        } else if (args[i] == "--max-depth") {
            auto v = int_arg(i);
            if (!v || *v <= 0) return usage();
            max_depth = *v;
        } else if (args[i] == "--serve-threads") {
            auto v = int_arg(i);
            if (!v || *v <= 0) return usage();
            serve_threads = *v;
        } else if (args[i] == "--cache-mb") {
            auto v = int_arg(i);
            if (!v || *v < 0) return usage();
            cache_mb = *v;
        } else if (args[i] == "--deadline-ms") {
            auto v = int_arg(i);
            if (!v || *v <= 0) return usage();
            deadline_ms = *v;
        } else if (args[i] == "--max-queue") {
            auto v = int_arg(i);
            if (!v || *v <= 0) return usage();
            max_queue = *v;
        } else if (args[i] == "--row-budget") {
            auto v = int_arg(i);
            if (!v || *v <= 0) return usage();
            row_budget = *v;
        } else if (args[i] == "--explain") {
            explain = true;
        } else if (args[i] == "--analyze") {
            analyze = true;
        } else if (args[i] == "--no-planner") {
            planner_enabled = false;
        } else if (args[i] == "--verify") {
            verify = true;
        } else if (args[i] == "--salvage") {
            salvage = true;
        } else if (args[i] == "--on-error" && i + 1 < args.size()) {
            if (!parse_policy(args[++i])) return usage();
        } else if (args[i].rfind("--on-error=", 0) == 0) {
            if (!parse_policy(args[i].substr(sizeof("--on-error=") - 1)))
                return usage();
        } else if (args[i].rfind("--", 0) == 0) {
            return usage();  // unknown flag, not a file path
        } else if (dtd_path.empty()) {
            dtd_path = args[i];
        } else {
            xml_paths.push_back(args[i]);
        }
    }
    // Without --data-dir there is nothing to do but load, so documents
    // are required; with one, a document-less run can still recover,
    // verify or salvage an existing database.
    if (dtd_path.empty()) return usage();
    if (xml_paths.empty() && data_dir.empty()) return usage();

    if ((checkpoint_every > 0 || !use_wal) && data_dir.empty()) {
        std::cerr << "error: --checkpoint-every and --no-wal require "
                     "--data-dir\n";
        return 2;
    }
    if (salvage && data_dir.empty()) {
        std::cerr << "error: --salvage requires --data-dir\n";
        return 2;
    }
    if (!planner_enabled && serve_threads > 0) {
        std::cerr << "error: --no-planner is not available with "
                     "--serve-threads\n";
        return 2;
    }

    xr::dtd::Dtd dtd = xr::dtd::parse_dtd(read_file(dtd_path));
    xr::mapping::MappingResult m = xr::mapping::map_dtd(dtd);
    xr::rel::RelationalSchema schema = xr::rel::translate(m);
    xr::rdb::Database db;
    if (!data_dir.empty()) {
        xr::rdb::DurabilityOptions dopts;
        dopts.use_wal = use_wal;
        if (salvage) dopts.recovery = xr::rdb::RecoveryMode::kSalvage;
        xr::rdb::RecoveryReport recovery = db.open(data_dir, dopts);
        std::cout << recovery.to_string() << "\n";
        if (db.table_count() == 0) {
            xr::rel::materialize(schema, m, db);
            db.flush_wal();
        }
    } else {
        xr::rel::materialize(schema, m, db);
    }
    std::vector<std::string> texts;
    texts.reserve(xml_paths.size());
    for (const auto& path : xml_paths) texts.push_back(read_file(path));

    // One load per --checkpoint-every chunk, snapshotting between chunks
    // so recovery never replays more than a chunk's worth of WAL.
    std::size_t chunk = checkpoint_every > 0
                            ? static_cast<std::size_t>(checkpoint_every)
                            : texts.size();
    xr::loader::LoadReport report;
    report.policy = on_error;
    auto merge_chunk = [&](xr::loader::LoadReport&& part, std::size_t base) {
        report.stats.merge(part.stats);
        report.stats.unresolved_references = part.stats.unresolved_references;
        report.attempted += part.attempted;
        report.loaded += part.loaded;
        report.failed += part.failed;
        report.quarantined += part.quarantined;
        report.retryable += part.retryable;
        report.leaked_pks += part.leaked_pks;
        for (auto& o : part.outcomes) {
            o.index += base;
            report.outcomes.push_back(std::move(o));
        }
        for (auto& e : part.errors) report.errors.push_back(std::move(e));
    };

    xr::loader::BulkLoader bulk_loader(dtd, m, schema, db);
    xr::loader::BulkLoadOptions opt;
    opt.jobs = static_cast<std::size_t>(jobs);
    opt.validate = true;
    opt.on_error = on_error;
    if (max_depth > 0)
        opt.parse.max_depth = static_cast<std::size_t>(max_depth);
    for (std::size_t base = 0; base < texts.size(); base += chunk) {
        std::vector<std::string> part(
            texts.begin() + static_cast<std::ptrdiff_t>(base),
            texts.begin() + static_cast<std::ptrdiff_t>(
                                std::min(base + chunk, texts.size())));
        merge_chunk(bulk_loader.load_texts(part, opt), base);
        if (checkpoint_every > 0 && base + chunk < texts.size()) {
            xr::rdb::SnapshotStats snap = db.checkpoint();
            std::cout << "checkpoint: " << snap.tables << " table(s), "
                      << snap.rows << " row(s), " << snap.bytes << " bytes\n";
        }
    }
    std::cout << "bulk-loaded " << report.loaded << " document(s) with "
              << (jobs == 0 ? "all hardware threads"
                            : std::to_string(jobs) + " worker(s)")
              << "\n";
    // Without a WAL nothing has reached disk yet; with --checkpoint-every
    // the final chunk's WAL tail is folded into a last snapshot too.
    if (!data_dir.empty() && (!use_wal || checkpoint_every > 0)) {
        xr::rdb::SnapshotStats snap = db.checkpoint();
        std::cout << "final snapshot: " << snap.rows << " row(s), "
                  << snap.bytes << " bytes\n";
    }
    for (const auto& o : report.outcomes) {
        using Status = xr::loader::DocumentOutcome::Status;
        if (o.status == Status::kLoaded) {
            std::cout << "loaded " << xml_paths[o.index] << " as doc " << o.doc
                      << "\n";
        } else {
            std::cout << (o.status == Status::kQuarantined ? "quarantined "
                                                           : "skipped ")
                      << xml_paths[o.index] << ": [" << o.error_type << "] "
                      << o.error << "\n";
        }
    }
    const xr::loader::LoadStats& st = report.stats;
    std::cout << st.documents << " documents, " << st.elements_visited
              << " elements, " << st.total_rows() << " rows, "
              << st.resolved_references << " references resolved";
    if (report.failed > 0)
        std::cout << " (" << report.failed << " document(s) rejected under "
                  << xr::loader::to_string(report.policy) << ")";
    std::cout << "\n";

    if (analyze) std::cout << db.analyze().to_string() << "\n";

    if (verify) {
        xr::rdb::IntegrityReport integrity = db.verify();
        std::cout << "\n" << integrity.to_string() << "\n";
        if (!integrity.clean()) return 1;
    }

    // EXPLAIN rendering for a translated path query: the translation
    // summary plus the cost-based plan over the generated SQL.
    auto print_explain = [&](const xr::xquery::Translation& t) {
        std::cout << "  plan: "
                  << (t.interval_plan ? "interval" : "navigational") << ", "
                  << t.join_count << " join(s)"
                  << (t.plan_notes.empty() ? "" : "; " + t.plan_notes) << "\n";
        try {
            xr::sql::SelectStmt stmt = xr::sql::parse_select(t.sql);
            xr::sql::PlannerOptions popts;
            popts.enable = planner_enabled;
            xr::sql::PlanInfo info = xr::sql::plan_select(db, stmt, popts);
            std::cout << "  " << info.to_string() << "\n";
        } catch (const xr::Error& e) {
            std::cout << "  plan: (not costed: " << e.what() << ")\n";
        }
    };

    // Parsed DOM views back the --query DOM-evaluation fallback; under
    // skip/quarantine a rejected document may not parse at all.
    std::vector<std::unique_ptr<xr::xml::Document>> docs;
    if (!path_queries.empty()) {
        for (const auto& text : texts) {
            try {
                docs.push_back(xr::xml::parse_document(text));
            } catch (const xr::Error&) {
            }
        }
    }

    if (serve_threads > 0) {
        // Serve mode: the whole --sql/--query workload goes through the
        // query service — submitted up front, drained by the worker pool,
        // results printed in submission order.
        xr::query::ServiceOptions sopts;
        sopts.threads = static_cast<std::size_t>(serve_threads);
        sopts.result_cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
        sopts.default_deadline = std::chrono::milliseconds(deadline_ms);
        sopts.max_queue = static_cast<std::size_t>(max_queue);
        sopts.row_budget = static_cast<std::size_t>(row_budget);
        xr::query::QueryService service(db, m, schema, sopts);
        // A shed submission never yields a handle; keep slots aligned
        // with the workload so results print in submission order.
        std::vector<std::optional<xr::query::QueryService::Submission>>
            sql_subs;
        std::vector<std::optional<xr::query::QueryService::Submission>>
            path_subs;
        auto submit = [&](auto&& fn) {
            try {
                return std::optional<xr::query::QueryService::Submission>(
                    fn());
            } catch (const xr::Overloaded& e) {
                std::cout << "  shed: " << e.what() << "\n";
                return std::optional<xr::query::QueryService::Submission>();
            }
        };
        for (const auto& stmt : sql_statements)
            sql_subs.push_back(submit([&] { return service.submit_sql(stmt); }));
        for (const auto& text : path_queries)
            path_subs.push_back(
                submit([&] { return service.submit_path(text); }));
        for (std::size_t i = 0; i < sql_subs.size(); ++i) {
            std::cout << "\nsql> " << sql_statements[i] << "\n";
            if (!sql_subs[i]) {
                std::cout << "  shed at admission\n";
                continue;
            }
            try {
                std::cout << sql_subs[i]->get()->to_string();
            } catch (const xr::Error& e) {
                std::cout << "  error: " << e.what() << "\n";
            }
        }
        for (std::size_t i = 0; i < path_subs.size(); ++i) {
            std::cout << "\nquery> " << path_queries[i] << "\n";
            if (!path_subs[i]) {
                std::cout << "  shed at admission\n";
                continue;
            }
            try {
                xr::xquery::Translation t = service.translate(path_queries[i]);
                std::cout << "  sql: " << t.sql << "\n";
                if (explain) {
                    // Plan under a read snapshot: statistics and tables
                    // stay stable while the service is draining writes.
                    xr::rdb::ReadSnapshot snap = db.read_snapshot();
                    print_explain(t);
                }
                std::cout << path_subs[i]->get()->to_string();
            } catch (const xr::QueryError& e) {
                std::cout << "  not translatable (" << e.what() << ")\n";
            } catch (const xr::CancelledError& e) {
                std::cout << "  " << e.what() << "\n";
            }
        }
        xr::query::ServiceStats sst = service.stats();
        std::cout << "\nserved " << sst.sql_queries << " sql + "
                  << sst.path_queries << " path queries on " << serve_threads
                  << " thread(s); result cache " << sst.result_cache.hits
                  << " hit(s) / " << sst.result_cache.misses
                  << " miss(es); plan cache " << sst.plan_cache.hits
                  << " hit(s) / " << sst.plan_cache.misses << " miss(es)\n";
        const xr::query::OverloadStats& ov = sst.overload;
        std::cout << "admission: " << ov.admitted << " admitted, " << ov.shed
                  << " shed, " << ov.expired << " expired, " << ov.cancelled
                  << " cancelled; queue high-water " << ov.queue_high_water
                  << ", wait p50 " << ov.p50_queue_wait_us << "us / p99 "
                  << ov.p99_queue_wait_us << "us\n";
    }

    xr::sql::PlannerOptions planner_opts;
    planner_opts.enable = planner_enabled;
    if (serve_threads == 0)
        for (const auto& stmt : sql_statements) {
            std::cout << "\nsql> " << stmt << "\n";
            std::cout << xr::sql::execute(db, stmt, nullptr, {}, &planner_opts)
                             .to_string();
        }

    if (serve_threads == 0 && !path_queries.empty()) {
        xr::xquery::SqlTranslator translator(m, schema);
        xr::loader::Reconstructor reconstructor(m, schema, db);
        for (const auto& text : path_queries) {
            std::cout << "\nquery> " << text << "\n";
            auto q = xr::xquery::parse_query(text);
            try {
                auto t = translator.translate(q);
                std::cout << "  sql: " << t.sql << "\n";
                if (explain) print_explain(t);
                auto results =
                    xr::xquery::materialize_results(db, t, reconstructor);
                std::cout << xr::xml::serialize(*results,
                                                {.declaration = false});
            } catch (const xr::QueryError& e) {
                std::cout << "  not translatable (" << e.what()
                          << "); DOM evaluation:\n";
                std::vector<const xr::xml::Document*> views;
                for (auto& d : docs) views.push_back(d.get());
                auto dom = xr::xquery::evaluate(views, q);
                std::cout << "  " << dom.size() << " result(s)\n";
            }
        }
    }

    if (reconstruct_doc > 0) {
        xr::loader::Reconstructor reconstructor(m, schema, db);
        std::cout << "\n-- reconstructed doc " << reconstruct_doc
                  << " ----------------------------\n"
                  << xr::xml::serialize(*reconstructor.reconstruct(reconstruct_doc),
                                        {.declaration = false});
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage();
    try {
        if (args[0] == "map" && args.size() == 2) return cmd_map(args[1]);
        if (args[0] == "validate" && args.size() >= 3)
            return cmd_validate(args[1], {args.begin() + 2, args.end()});
        if (args[0] == "load" && args.size() >= 3)
            return cmd_load({args.begin() + 1, args.end()});
        return usage();
    } catch (const xr::Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
