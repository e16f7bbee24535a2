// Corpus loading: the one driver every corpus goes through.
//
// The paper's Section 5 loader walks one document at a time; that walk is
// Loader::load, kept as the per-document durable path and the reference
// the corpus driver is tested against.  BulkLoader keeps the exact same
// shredding semantics (it reuses Loader's plans and traversal) but
// restructures a corpus load as the classic bulk-load pipeline:
//
//   1. parse/shred documents on a fixed-size worker pool (inline with one
//      job); each worker stages rows in thread-local per-table buffers,
//      drawing primary keys from pre-reserved ranges
//      (Table::allocate_pk_range) so workers never contend on shared
//      state;
//   2. merge the staging buffers into table storage through the batched
//      insert fast path (Table::insert_batch) with secondary-index
//      maintenance deferred (Database::begin_bulk/end_bulk);
//   3. rebuild every index once after the append;
//   4. resolve IDREFs in a single pass over the merged ID registry.
//
// Fault tolerance (DESIGN.md §7): the whole load runs inside an atomic
// load unit, so any corpus-scoped failure — merge, index rebuild,
// reference resolution, or the first document error under kFailFast —
// rolls the database back to its pre-load state, including primary-key
// counters.  Document-scoped failures under kSkip / kQuarantine discard
// only that document's staged rows and rewind its key reservations where
// possible (LoadReport::leaked_pks counts the remainder).  The load
// commits as one unit: one WAL fsync per corpus.
//
// The loaded database is row-for-row equivalent to what a loop of
// Loader::load produces on the same corpus, up to row order within a
// table and the numeric values of surrogate keys (ranges are handed out
// per worker, so key sequences interleave differently); with one job it
// is byte-identical.  That equivalence holds for partial loads too: after
// a kSkip / kQuarantine load, doc ids are dense over the surviving
// documents, exactly as if only they were submitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "loader/loader.hpp"
#include "xml/parser.hpp"

namespace xr::loader {

/// Keys each worker reserves from a table's shared counter at a time.
inline constexpr std::int64_t kPkChunk = 256;

struct BulkLoadOptions {
    /// Worker threads for the parse/shred phase; 0 means one per hardware
    /// thread.  With 1 the pipeline runs inline but still benefits from
    /// staged batch appends and deferred index builds.
    std::size_t jobs = 0;
    /// Validate each document against the logical DTD before shredding.
    bool validate = false;
    /// Fail on unmapped elements (strict) or divert them to overflow.
    bool strict = true;
    /// What to do with a document that fails to parse, validate or shred.
    FailurePolicy on_error = FailurePolicy::kFailFast;
    /// Cap on formatted error strings kept in LoadReport::errors.
    std::size_t max_errors = 8;
    /// Parser guards (nesting depth, attribute and child fan-out, entity
    /// expansion) applied by load_texts; a document over a limit is a
    /// document-scoped parse failure, handled per `on_error`.
    xml::ParseOptions parse;
};

class BulkLoader {
public:
    /// Same contract as Loader: `mapping`, `schema` and `db` must derive
    /// from `logical`, and all references must outlive the BulkLoader.
    BulkLoader(const dtd::Dtd& logical, const mapping::MappingResult& mapping,
               const rel::RelationalSchema& schema, rdb::Database& db);

    /// Load a corpus of parsed documents; doc ids are assigned densely in
    /// corpus order over the documents that survive, starting after the
    /// highest id already in xrel_docs.  Under kFailFast the first failure
    /// rolls the whole load back and rethrows; see LoadReport for the
    /// per-document outcomes the other policies produce.
    LoadReport load_corpus(const std::vector<xml::Document*>& docs,
                           const BulkLoadOptions& options = {});

    /// Parse raw XML texts on the worker pool, then load them as above —
    /// the parse phase usually dominates, so this is the fastest entry.
    LoadReport load_texts(const std::vector<std::string>& texts,
                          const BulkLoadOptions& options = {});

    /// Cumulative stats over every committed load (same convention as
    /// Loader::stats()).
    [[nodiscard]] const LoadStats& stats() const { return stats_; }

private:
    rdb::Database& db_;
    const rel::RelationalSchema& schema_;
    Loader loader_;
    LoadStats stats_;

    /// Shred corpus document `i` under provisional doc id `doc_id`.
    using ShredOne = std::function<void(std::size_t i, std::int64_t doc_id,
                                        RowSink&, LoadStats&,
                                        const LoadOptions&)>;
    LoadReport run(std::size_t count, const ShredOne& shred_one,
                   const std::function<std::string(std::size_t)>& raw_text,
                   const BulkLoadOptions& options);
};

}  // namespace xr::loader
