#include "loader/bulk_loader.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace xr::loader {

namespace {

/// Thread-local staging: rows buffer per table, primary keys drawn from
/// pre-reserved ranges so the shared counter is touched once per chunk.
///
/// Each document is bracketed by begin_doc() / commit_doc() /
/// rollback_doc().  Rollback truncates the staged rows back to the mark
/// and rewinds key reservations: keys drawn from a chunk that is still
/// current are reused outright, a chunk the failed document itself opened
/// is rewound to its start, and only the abandoned tail of a chunk left
/// behind mid-document is lost (counted in leaked()).
class StagingSink final : public RowSink {
public:
    std::int64_t allocate_pk(rdb::Table& table) override {
        PkRange& r = ranges_[&table];
        if (r.next == r.end) {
            r.next = table.allocate_pk_range(kPkChunk);
            r.end = r.next + kPkChunk;
            r.chunk_start = r.next;
        }
        ++r.allocated;
        return r.next++;
    }

    void append(rdb::Table& table, rdb::Row row) override {
        staged_[&table].push_back(std::move(row));
    }

    void begin_doc() {
        saved_ranges_ = ranges_;
        saved_sizes_.clear();
        for (const auto& [table, rows] : staged_)
            saved_sizes_[table] = rows.size();
    }

    void commit_doc() {}  // marks are overwritten by the next begin_doc()

    void rollback_doc() {
        for (auto& [table, rows] : staged_) {
            auto it = saved_sizes_.find(table);
            rows.resize(it == saved_sizes_.end() ? 0 : it->second);
        }
        for (auto& [table, r] : ranges_) {
            auto it = saved_ranges_.find(table);
            const PkRange* saved = it == saved_ranges_.end() ? nullptr
                                                             : &it->second;
            std::int64_t consumed =
                r.allocated - (saved != nullptr ? saved->allocated : 0);
            if (consumed == 0) continue;
            std::int64_t reclaimed;
            if (saved != nullptr && r.end == saved->end) {
                // Same chunk as at the mark: every key the document drew
                // comes straight back.
                r.next = saved->next;
                reclaimed = consumed;
            } else {
                // The document opened at least one new chunk.  Reuse the
                // current chunk from its start; anything before it (the
                // old chunk's tail, fully-consumed chunks in between) is
                // unreachable now and counts as leaked.
                reclaimed = r.next - r.chunk_start;
                r.next = r.chunk_start;
            }
            r.allocated -= reclaimed;
            leaked_ += static_cast<std::size_t>(consumed - reclaimed);
        }
    }

    /// Hand unused chunk tails back to the shared counters (worker is
    /// done; call from the worker thread).  Returns total keys this sink
    /// leaked: rollback losses plus any tail another worker's reservation
    /// blocked from returning.
    std::size_t release_tails() {
        std::size_t leaked = leaked_;
        for (auto& [table, r] : ranges_) {
            if (r.next < r.end && !table->try_release_pk_range(r.next, r.end))
                leaked += static_cast<std::size_t>(r.end - r.next);
            r.next = r.end;
        }
        return leaked;
    }

    [[nodiscard]] std::vector<rdb::Row>* staged_for(rdb::Table* table) {
        auto it = staged_.find(table);
        return it == staged_.end() ? nullptr : &it->second;
    }

private:
    struct PkRange {
        std::int64_t next = 0, end = 0;
        std::int64_t chunk_start = 0;  ///< first key of the current chunk
        std::int64_t allocated = 0;    ///< keys handed out, net of rewinds
    };
    std::size_t leaked_ = 0;
    std::unordered_map<rdb::Table*, PkRange> ranges_;
    std::unordered_map<rdb::Table*, std::vector<rdb::Row>> staged_;
    std::unordered_map<rdb::Table*, PkRange> saved_ranges_;
    std::unordered_map<rdb::Table*, std::size_t> saved_sizes_;
};

}  // namespace

BulkLoader::BulkLoader(const dtd::Dtd& logical,
                       const mapping::MappingResult& mapping,
                       const rel::RelationalSchema& schema, rdb::Database& db)
    : db_(db), schema_(schema), loader_(logical, mapping, schema, db) {}

LoadReport BulkLoader::load_corpus(const std::vector<xml::Document*>& docs,
                                   const BulkLoadOptions& options) {
    return run(
        docs.size(),
        [&](std::size_t i, std::int64_t doc_id, RowSink& sink,
            LoadStats& stats, const LoadOptions& lopt) {
            loader_.shred_document(*docs[i], doc_id, lopt, sink, stats);
        },
        [&](std::size_t i) { return xml::serialize(*docs[i]); }, options);
}

LoadReport BulkLoader::load_texts(const std::vector<std::string>& texts,
                                  const BulkLoadOptions& options) {
    return run(
        texts.size(),
        [&](std::size_t i, std::int64_t doc_id, RowSink& sink,
            LoadStats& stats, const LoadOptions& lopt) {
            auto doc = xml::parse_document(texts[i], options.parse);
            loader_.shred_document(*doc, doc_id, lopt, sink, stats);
        },
        [&](std::size_t i) { return texts[i]; }, options);
}

LoadReport BulkLoader::run(
    std::size_t count, const ShredOne& shred_one,
    const std::function<std::string(std::size_t)>& raw_text,
    const BulkLoadOptions& options) {
    LoadOptions lopt;
    lopt.validate = options.validate;
    lopt.strict = options.strict;
    lopt.resolve_references = false;

    LoadReport report;
    report.policy = options.on_error;
    report.attempted = count;

    std::size_t jobs = options.jobs != 0
                           ? options.jobs
                           : std::max(1u, std::thread::hardware_concurrency());
    jobs = std::clamp<std::size_t>(jobs, 1, std::max<std::size_t>(count, 1));
    const Watermark next = next_watermark(db_);
    const std::int64_t base = next.doc;

    std::vector<StagingSink> sinks(jobs);
    struct WorkerState {
        LoadStats stats;                       ///< successful documents only
        std::vector<DocumentOutcome> outcomes;
        std::size_t leaked = 0;
    };
    std::vector<WorkerState> workers(jobs);

    // Documents are striped across workers (worker w takes w, w+jobs, ...):
    // deterministic assignment, balanced for homogeneous corpora.
    //
    // `failed` is the kFailFast stop signal.  The release store happens
    // after the failing worker has published its exception under
    // error_mutex; the acquire load lets other workers observe the flag
    // and stop early.  That pairing only makes the *stop* prompt and safe
    // to act on — the joins below are what actually synchronize all
    // worker-written state (sinks, stats, outcomes) with this thread.
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    // The whole load runs inside one atomic unit, opened BEFORE any key
    // reservation so a corpus-scoped rollback also restores the pk
    // counters the workers advanced.  Workers are always joined before
    // rollback_unit(), as Table's unit contract requires.
    db_.begin_unit();
    auto worker = [&](std::size_t w) {
        WorkerState& state = workers[w];
        for (std::size_t i = w; i < count; i += jobs) {
            if (failed.load(std::memory_order_acquire)) break;
            DocumentOutcome outcome;
            outcome.index = i;
            LoadStats doc_stats;
            sinks[w].begin_doc();
            try {
                std::int64_t doc_id = base + static_cast<std::int64_t>(i);
                shred_one(i, doc_id, sinks[w], doc_stats, lopt);
                sinks[w].commit_doc();
                state.stats.merge(doc_stats);
                outcome.doc = doc_id;
                outcome.label_span = doc_stats.label_span;
            } catch (...) {
                sinks[w].rollback_doc();
                LoadErrorInfo info = classify_load_error();
                outcome.status = options.on_error == FailurePolicy::kQuarantine
                                     ? DocumentOutcome::Status::kQuarantined
                                     : DocumentOutcome::Status::kFailed;
                outcome.error_type = std::move(info.type);
                outcome.error = std::move(info.message);
                outcome.where = info.where;
                outcome.retryable = info.retryable;
                state.outcomes.push_back(std::move(outcome));
                if (options.on_error == FailurePolicy::kFailFast) {
                    {
                        std::scoped_lock lock(error_mutex);
                        if (!first_error)
                            first_error = std::current_exception();
                    }
                    failed.store(true, std::memory_order_release);
                    break;
                }
                continue;
            }
            state.outcomes.push_back(std::move(outcome));
        }
        state.leaked = sinks[w].release_tails();
    };

    try {
        if (jobs == 1) {
            worker(0);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(jobs);
            for (std::size_t w = 0; w < jobs; ++w) pool.emplace_back(worker, w);
            for (auto& t : pool) t.join();
        }
        // Every worker's error is in its outcome list; under kFailFast the
        // first one also propagates as the original exception.
        if (first_error) std::rethrow_exception(first_error);

        // Collate per-worker outcomes back into corpus order.
        for (auto& state : workers) {
            report.stats.merge(state.stats);
            report.leaked_pks += state.leaked;
            for (auto& outcome : state.outcomes)
                report.outcomes.push_back(std::move(outcome));
        }
        std::sort(report.outcomes.begin(), report.outcomes.end(),
                  [](const DocumentOutcome& a, const DocumentOutcome& b) {
                      return a.index < b.index;
                  });
        for (const auto& outcome : report.outcomes) {
            if (outcome.status == DocumentOutcome::Status::kLoaded) {
                ++report.loaded;
                continue;
            }
            ++report.failed;
            if (outcome.retryable) ++report.retryable;
            if (report.errors.size() < options.max_errors)
                report.errors.push_back(format_outcome(outcome));
        }

        if (report.loaded == 0) {
            // Nothing survived: make the load a no-op, reclaiming every
            // key reservation instead of committing an empty merge.
            db_.rollback_unit();
            report.leaked_pks = 0;
        } else {
            // Documents were shredded under provisional ids (base + corpus
            // index).  Re-number the survivors densely so the result is
            // indistinguishable from a corpus that never contained the
            // failed documents.
            std::map<std::int64_t, std::int64_t> doc_remap;
            // Workers labelled each document starting at 0; survivors now
            // get consecutive global intervals in corpus order — the same
            // bases loading only these documents would assign.
            std::map<std::int64_t, std::int64_t> label_shift;  // prov doc → base
            std::int64_t label_cursor = next.label;
            for (auto& outcome : report.outcomes) {
                if (outcome.status != DocumentOutcome::Status::kLoaded)
                    continue;
                std::int64_t dense =
                    base + static_cast<std::int64_t>(doc_remap.size());
                doc_remap[outcome.doc] = dense;
                label_shift[outcome.doc] = label_cursor;
                label_cursor += outcome.label_span;
                outcome.doc = dense;
            }
            bool identity = true;
            for (const auto& [from, to] : doc_remap)
                if (from != to) identity = false;
            bool any_shift = false;
            for (const auto& [doc, shift] : label_shift)
                if (shift != 0) any_shift = true;

            // Merge: batched appends with index maintenance deferred to
            // one rebuild pass.  Rows come from the trusted shredding
            // plans, so per-row cell validation is skipped (batch shape is
            // still checked).
            db_.begin_bulk();
            for (const std::string& name : db_.table_names()) {
                fault::maybe_fail("bulk.merge");
                rdb::Table* table = db_.table(name);
                int doc_col = table->def().column_index("doc");
                // Label columns that need the per-document shift: the
                // entity tables' pre/post (role-checked — an XML attribute
                // that happens to be called "pre" is untouched) and
                // xrel_docs' recorded label_base.
                std::vector<int> shift_cols;
                if (const rel::TableSchema* ts = schema_.table(name)) {
                    for (const char* lc : {"pre", "post"}) {
                        const rel::Column* c = ts->column(lc);
                        if (c != nullptr && c->role == rel::ColumnRole::kLabel)
                            shift_cols.push_back(ts->column_index(lc));
                    }
                    if (name == "xrel_docs") {
                        int c = ts->column_index("label_base");
                        if (c >= 0) shift_cols.push_back(c);
                    }
                }
                if (!any_shift) shift_cols.clear();
                std::size_t total = 0;
                for (auto& sink : sinks) {
                    if (auto* rows = sink.staged_for(table))
                        total += rows->size();
                }
                if (total == 0) continue;
                table->reserve_rows(total);
                for (auto& sink : sinks) {
                    auto* rows = sink.staged_for(table);
                    if (rows == nullptr || rows->empty()) continue;
                    if (doc_col >= 0 && (!identity || !shift_cols.empty())) {
                        for (rdb::Row& row : *rows) {
                            if (row[doc_col].is_null()) continue;
                            std::int64_t prov = row[doc_col].as_integer();
                            if (!shift_cols.empty()) {
                                auto sit = label_shift.find(prov);
                                if (sit != label_shift.end()) {
                                    for (int c : shift_cols) {
                                        if (row[c].is_null()) continue;
                                        row[c] = rdb::Value(
                                            row[c].as_integer() + sit->second);
                                    }
                                }
                            }
                            if (!identity) {
                                auto it = doc_remap.find(prov);
                                if (it != doc_remap.end())
                                    row[doc_col] = rdb::Value(it->second);
                            }
                        }
                    }
                    table->insert_batch(std::move(*rows),
                                        /*validate_rows=*/false);
                }
            }
            db_.end_bulk();

            // Single resolution pass over the merged ID registry; a
            // failure here is corpus-scoped and rolls everything back
            // regardless of policy.
            loader_.resolve_references(report.stats);
            db_.commit_unit();
        }
    } catch (...) {
        db_.rollback_unit();
        throw;
    }

    // Lifetime stats absorb only what committed; unresolved_references
    // stays a snapshot of the latest resolution pass.
    if (report.loaded > 0) {
        std::size_t unresolved_snapshot = report.stats.unresolved_references;
        stats_.merge(report.stats);
        stats_.unresolved_references = unresolved_snapshot;
    }

    // Quarantine records are written after the load unit closed, so they
    // persist while the rejected documents' rows do not — and vanish with
    // everything else if the load itself aborts.  Their own unit makes the
    // writes atomic and flushes them through the WAL at commit.
    if (options.on_error == FailurePolicy::kQuarantine) {
        bool any = false;
        for (const auto& outcome : report.outcomes)
            any |= outcome.status == DocumentOutcome::Status::kQuarantined;
        if (any) {
            db_.begin_unit();
            try {
                for (const auto& outcome : report.outcomes) {
                    if (outcome.status != DocumentOutcome::Status::kQuarantined)
                        continue;
                    quarantine_document(db_, outcome, raw_text(outcome.index));
                    ++report.quarantined;
                }
                db_.commit_unit();
            } catch (...) {
                db_.rollback_unit();
                throw;
            }
        }
    }
    return report;
}

}  // namespace xr::loader
