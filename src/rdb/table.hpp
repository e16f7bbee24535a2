// MiniRDB tables: row storage, constraints, and indexes.
//
// Column-major storage in copy-on-write chunks (DESIGN.md §15).  Each
// table may declare one auto-increment INTEGER primary key; inserts
// validate types, NOT NULL and primary-key uniqueness.  Secondary
// indexes are declared hash (equality lookups, used for ID resolution
// during loading) or ordered (equality and range scans); both kinds,
// and the primary-key index, are copy-on-write B+trees (cow_btree.hpp).
//
// MVCC read path: publish() snapshots the table into an immutable
// frozen clone that structurally shares row chunks and index nodes with
// the live table.  The single writer then copies a chunk (or an index
// node) the first time it mutates one that a published version still
// references, so readers of any pinned version never see a concurrent
// mutation and never take a latch.
#pragma once

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "rdb/cow_btree.hpp"
#include "rdb/stats.hpp"
#include "rdb/value.hpp"

namespace xr::rdb {

struct ColumnDef {
    std::string name;
    ValueType type = ValueType::kText;
    bool not_null = false;
    bool primary_key = false;  ///< at most one; INTEGER, auto-increment
};

struct TableDef {
    std::string name;
    std::vector<ColumnDef> columns;

    [[nodiscard]] int column_index(std::string_view name) const;
    [[nodiscard]] const ColumnDef* column(std::string_view name) const;
};

/// An owned row: what inserts take, the WAL logs and results return.
using Row = std::vector<Value>;

/// Rows per RowStore chunk, as a shift.
inline constexpr std::size_t kChunkShift = 10;
inline constexpr std::size_t kChunkRows = std::size_t{1} << kChunkShift;
inline constexpr std::size_t kChunkMask = kChunkRows - 1;

/// A stored row, borrowed from its column-major chunk: cell `c` sits
/// `c * kChunkRows` Values past cell 0.  Valid while the table version
/// it came from is alive and the writer has not changed the row;
/// to_row() makes an owned copy.
class RowView {
public:
    /// Strided walk over the row's cells.
    class iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Value;
        using difference_type = std::ptrdiff_t;
        using pointer = const Value*;
        using reference = const Value&;

        iterator() = default;
        iterator(const Value* first, std::size_t column)
            : first_(first), column_(column) {}
        reference operator*() const { return first_[column_ << kChunkShift]; }
        pointer operator->() const { return &**this; }
        iterator& operator++() {
            ++column_;
            return *this;
        }
        iterator operator++(int) {
            iterator old = *this;
            ++*this;
            return old;
        }
        friend bool operator==(iterator a, iterator b) {
            return a.first_ == b.first_ && a.column_ == b.column_;
        }

    private:
        const Value* first_ = nullptr;
        std::size_t column_ = 0;  ///< no pointer past the chunk is formed
    };

    RowView(const Value* first, std::size_t columns)
        : first_(first), columns_(columns) {}

    [[nodiscard]] const Value& operator[](std::size_t c) const {
        return first_[c << kChunkShift];
    }
    [[nodiscard]] std::size_t size() const { return columns_; }
    [[nodiscard]] iterator begin() const { return iterator(first_, 0); }
    [[nodiscard]] iterator end() const { return iterator(first_, columns_); }
    [[nodiscard]] Row to_row() const { return Row(begin(), end()); }

private:
    const Value* first_;
    std::size_t columns_;
};

// -- row checks that need only the definition --------------------------------
// Table::insert and the snapshot checker share these, so a row the
// checker accepts is exactly a row an insert accepts.

/// The primary-key column of `def`, or -1.  Throws SchemaError when it
/// declares more than one, or one that is not INTEGER.
[[nodiscard]] int primary_key_column(const TableDef& def);

[[noreturn]] void throw_arity_mismatch(const TableDef& def, std::size_t cells);
[[noreturn]] void throw_cell_mismatch(const TableDef& def, std::size_t column,
                                      ValueType got);

/// Throws SchemaError unless a row of `cells` values fits `def`.
inline void validate_arity(const TableDef& def, std::size_t cells) {
    if (cells != def.columns.size()) throw_arity_mismatch(def, cells);
}

/// Throws SchemaError unless a value of type `got` (kNull for NULL) may sit
/// in `column`: NULL needs a nullable column, except that the primary key
/// may be NULL (the insert assigns it); REAL also takes INTEGER.
inline void validate_cell(const TableDef& def, int pk_column,
                          std::size_t column, ValueType got) {
    const ColumnDef& col = def.columns[column];
    bool ok;
    if (got == ValueType::kNull)
        ok = !col.not_null || static_cast<int>(column) == pk_column;
    else if (col.type == ValueType::kReal)
        ok = got == ValueType::kReal || got == ValueType::kInteger;
    else
        ok = col.type != ValueType::kNull && got == col.type;
    if (!ok) throw_cell_mismatch(def, column, got);
}

enum class IndexKind { kHash, kOrdered };

class Table;
struct IntegrityReport;

/// Observer of durable table mutations, implemented by the write-ahead
/// log and attached by Database when a data directory is open.  Hooks run
/// *after* the in-memory mutation succeeded (redo logging): a logged
/// record that never commits is discarded by recovery, and an in-memory
/// mutation whose logging throws is undone by the enclosing load unit's
/// rollback.  Calls follow the same single-threaded contract as the
/// mutations themselves.
class MutationLog {
public:
    virtual ~MutationLog() = default;
    virtual void log_insert(const Table& table, RowView row) = 0;
    virtual void log_update(const Table& table, RowId row, int column,
                            const Value& value) = 0;
    virtual void log_delete_where(const Table& table, int column,
                                  const Value& value) = 0;
    virtual void log_create_index(const Table& table, std::string_view column,
                                  IndexKind kind) = 0;
};

/// Column-major chunked row storage with per-chunk copy-on-write
/// (DESIGN.md §15).
///
/// A chunk is one fixed array of `columns × kChunkRows` Values behind a
/// shared_ptr, cell (r, c) at `c * kChunkRows + r`, so a scan of one
/// column walks contiguous cells.  A chunk never moves or resizes.
/// Inserts scatter a Row's cells into their columns; readers borrow
/// cells in place (cell(), or a RowView of the whole row).  publish()
/// marks every chunk shared and returns a structurally sharing copy for
/// a frozen table version — O(#chunks), no cell copies.  A published
/// version never reads past its own size, so the writer appends into a
/// shared tail chunk in place and rewrites rows past the last publish()
/// (`shared_`) in place too.  Only mut() of a published row clones its
/// chunk, once per publish (`owned` flags), so a published cell is
/// immutable for its whole lifetime and concurrent readers of pinned
/// versions are race-free by construction.  Ownership state is
/// writer-private: no refcount inspection, no atomics, deterministic
/// under TSan.
class RowStore {
public:
    explicit RowStore(std::size_t columns) : columns_(columns) {}

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t columns() const { return columns_; }
    /// Cell `c` of row `i`, in place.
    [[nodiscard]] const Value& cell(std::size_t i, std::size_t c) const {
        return slots_[i >> kChunkShift]
            .cells[(c << kChunkShift) | (i & kChunkMask)];
    }
    [[nodiscard]] RowView operator[](std::size_t i) const {
        return RowView(&cell(i, 0), columns_);
    }
    /// Mutable cell for the writer; copies the containing chunk first
    /// when the row is published and the chunk still shared.
    [[nodiscard]] Value& mut(std::size_t i, std::size_t c) {
        Slot& s = slots_[i >> kChunkShift];
        if (!s.owned && i < shared_) own(i >> kChunkShift);
        return s.cells[(c << kChunkShift) | (i & kChunkMask)];
    }

    /// Append a row of NULL cells and return its cell 0 for the writer
    /// to fill; cell `c` sits `c << kChunkShift` Values further on.
    [[nodiscard]] Value* append() {
        if ((size_ & kChunkMask) == 0)
            slots_.push_back(Slot{new_chunk(), true});
        return &slots_.back().cells[size_++ & kChunkMask];
    }
    /// Truncate to `n` rows (unit rollback); whole chunks past the cut
    /// are dropped.  Cells no version published are cleared in place; a
    /// cut below the last publish() clones the shared tail chunk.
    void truncate(std::size_t n);
    void reserve(std::size_t additional) {
        slots_.reserve((size_ + additional + kChunkRows - 1) >> kChunkShift);
    }

    /// Mark every chunk shared and return a structurally sharing copy
    /// for a frozen version.  Writer-side only.
    [[nodiscard]] RowStore publish();

    /// Chunks cloned by copy-on-write since construction (MVCC metric).
    [[nodiscard]] std::uint64_t chunks_cowed() const { return chunks_cowed_; }

private:
    struct Slot {
        std::shared_ptr<Value[]> cells;  ///< columns_ × kChunkRows
        bool owned = true;  ///< writer-private: cloned since the last publish
    };

    /// Replace shared chunk `c` with a private copy of its live rows.
    void own(std::size_t c);
    /// A chunk of NULL cells; a table without columns still gets one
    /// column's worth, so a row's cell 0 is always inside its chunk.
    [[nodiscard]] std::shared_ptr<Value[]> new_chunk() const {
        return std::make_shared<Value[]>(std::max<std::size_t>(columns_, 1)
                                         << kChunkShift);
    }

    std::size_t columns_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t shared_ = 0;  ///< rows a published version may read
    std::uint64_t chunks_cowed_ = 0;
};

class Table {
public:
    /// The pk counter of a new table: the first key an insert assigns.
    static constexpr std::int64_t kFirstPk = 1;

    explicit Table(TableDef def);

    [[nodiscard]] const TableDef& def() const { return def_; }
    [[nodiscard]] const std::string& name() const { return def_.name; }
    [[nodiscard]] std::size_t row_count() const { return store_.size(); }
    [[nodiscard]] std::size_t column_count() const { return def_.columns.size(); }

    /// Insert a row (one value per column, in declared order).  A NULL in
    /// the auto-increment primary-key column is assigned the next key.
    /// Returns the primary-key value (or the row index if no PK declared).
    std::int64_t insert(Row row);

    /// Append a whole batch of rows.  The batch's shape is validated once
    /// (arity of the first row); per-row cell validation runs only when
    /// `validate_rows` is set — staging pipelines that built the rows from
    /// a trusted plan skip it.  Rows with a NULL auto-increment primary key
    /// are assigned keys; returns the number of rows appended.
    std::size_t insert_batch(std::vector<Row> rows, bool validate_rows = true);

    /// Append one row whose cell `c` is `decode(c)`, decoded straight into
    /// storage with no Row in between (snapshot and WAL recovery).  The
    /// caller has checked the arity; everything else is checked as by
    /// insert(), and a row that fails leaves the table unchanged.
    template <class Decode>
    std::int64_t insert_decoded(Decode&& decode) {
        Value* first = store_.append();
        try {
            for (std::size_t c = 0; c < def_.columns.size(); ++c)
                first[c << kChunkShift] = decode(c);
        } catch (...) {
            store_.truncate(store_.size() - 1);
            throw;
        }
        return admit_appended(true);
    }

    /// Reserve the next primary-key value without inserting — bulk loaders
    /// allocate keys up front so child rows can reference a parent row that
    /// is still being assembled.  Thread safe.
    std::int64_t allocate_pk() {
        return next_pk_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Reserve `count` consecutive primary keys and return the first.
    /// Thread safe — parallel shredders reserve disjoint ranges up front
    /// and hand keys out locally without touching shared state again.
    std::int64_t allocate_pk_range(std::int64_t count) {
        return next_pk_.fetch_add(count, std::memory_order_relaxed);
    }

    /// Return the unused tail [first, end) of a reserved range.  Succeeds
    /// only when no later reservation happened (the counter still sits at
    /// `end`); callers count a failed return as leaked key space.
    bool try_release_pk_range(std::int64_t first, std::int64_t end) {
        std::int64_t expected = end;
        return first < end &&
               next_pk_.compare_exchange_strong(expected, first,
                                                std::memory_order_relaxed);
    }

    /// Pre-size row storage for `additional` upcoming inserts.
    void reserve_rows(std::size_t additional) { store_.reserve(additional); }

    // -- bulk (deferred-index) mode ------------------------------------------
    /// Between begin_bulk() and end_bulk(), inserts skip secondary-index
    /// maintenance; end_bulk() rebuilds every index in one pass.  The
    /// primary-key index stays live so duplicate keys are still rejected.
    /// end_bulk() keeps the bulk flag set until the rebuild succeeds, so
    /// an interrupted rebuild is recoverable via rollback_unit().
    void begin_bulk() { bulk_ = true; }
    void end_bulk();
    [[nodiscard]] bool in_bulk() const { return bulk_; }

    // -- atomic load units (savepoint / undo) --------------------------------
    /// begin_unit() records a watermark — row count, pk counter, undo-log
    /// position; rollback_unit() truncates back to it: cell updates made
    /// since are undone (update() logs old values while a unit is open),
    /// appended rows are removed from storage and every index, and the
    /// pk counter is restored.  Units nest (a per-document unit inside a
    /// per-corpus unit); commit_unit() folds the frame into its parent.
    ///
    /// Thread-safety contract: begin/commit/rollback and any logged
    /// mutation are single-threaded operations.  Concurrent workers may
    /// only touch allocate_pk_range() while a unit is open, and must be
    /// joined before rollback_unit() restores the counter (which is how
    /// the bulk loader reclaims reserved ranges of a failed load).
    void begin_unit();
    void commit_unit();
    void rollback_unit();
    [[nodiscard]] bool in_unit() const { return !units_.empty(); }

    /// Drop and repopulate every secondary index from current row storage.
    void rebuild_indexes();

    /// Row `id`, borrowed in place (see RowView for its lifetime).
    [[nodiscard]] RowView row(RowId id) const { return store_[id]; }
    /// Cell `column` of row `id`, in place: a scan's cheapest read.
    [[nodiscard]] const Value& cell(RowId id, std::size_t column) const {
        return store_.cell(id, column);
    }

    /// Value of the named column in row `id`.
    [[nodiscard]] const Value& at(RowId id, std::string_view column) const;

    /// Row id of the row with the given primary-key value, if any.
    [[nodiscard]] std::optional<RowId> find_pk_rowid(std::int64_t pk) const;

    /// In-place update of one cell (keeps indexes consistent).
    void update(RowId id, std::string_view column, Value value);

    /// Delete every row whose `column` equals `value`; returns the number
    /// removed.  Row ids are compacted (all indexes rebuilt), so previously
    /// held RowIds are invalidated — primary keys remain stable handles.
    /// Refused while a load unit is open (compaction would invalidate the
    /// unit's watermarks).
    std::size_t delete_where(std::string_view column, const Value& value);

    // -- secondary indexes ----------------------------------------------------
    void create_index(std::string_view column, IndexKind kind = IndexKind::kHash);
    [[nodiscard]] bool has_index(std::string_view column) const;

    /// Declared secondary indexes, in creation order — the snapshot writer
    /// persists these so a recovered table has identical access paths.
    struct IndexDef {
        std::string column;
        IndexKind kind = IndexKind::kHash;
    };
    [[nodiscard]] std::vector<IndexDef> index_defs() const {
        std::vector<IndexDef> defs;
        defs.reserve(indexes_.size());
        for (const SecondaryIndex& idx : indexes_)
            defs.push_back({def_.columns[idx.column].name, idx.kind});
        return defs;
    }
    /// Matching row ids via index; throws SchemaError if not indexed.
    [[nodiscard]] std::vector<RowId> index_lookup(std::string_view column,
                                                  const Value& value) const;
    /// True when `column` carries an *ordered* secondary index (range scans).
    [[nodiscard]] bool has_ordered_index(std::string_view column) const;
    /// Row ids whose `column` value lies in the given range, found by
    /// binary search on the ordered index.  A null bound pointer leaves
    /// that side unbounded; `*_strict` selects < / > over <= / >=.  Throws
    /// SchemaError when the column has no ordered index.
    [[nodiscard]] std::vector<RowId> index_range_lookup(
        std::string_view column, const Value* lo, bool lo_strict,
        const Value* hi, bool hi_strict) const;
    /// Position of the secondary index on column number `column` (only an
    /// ordered one when `ordered`), or -1.  A position is stable for the
    /// life of this table object, so a query resolves its index once and
    /// probes by position.
    [[nodiscard]] int index_position(int column, bool ordered = false) const;
    /// index_lookup / index_range_lookup through a resolved position.
    [[nodiscard]] std::vector<RowId> index_lookup_at(int position,
                                                     const Value& value) const;
    [[nodiscard]] std::vector<RowId> index_range_lookup_at(
        int position, const Value* lo, bool lo_strict, const Value* hi,
        bool hi_strict) const;
    /// Matching row ids using the index when present, else a scan.
    [[nodiscard]] std::vector<RowId> lookup(std::string_view column,
                                            const Value& value) const;

    /// Attach (or detach, with nullptr) the mutation observer.  Owned by
    /// Database; plain Tables stay log-free.
    void set_mutation_log(MutationLog* log) { log_ = log; }

    /// Restore the pk counter from a snapshot.  Recovery only: the saved
    /// counter may sit above max(pk)+1 when ranges leaked before the
    /// snapshot, and re-creating those gaps keeps key allocation
    /// bit-identical across a restart.
    void restore_next_pk(std::int64_t next) {
        next_pk_.store(next, std::memory_order_relaxed);
        dirty_ = true;
    }
    [[nodiscard]] std::int64_t peek_next_pk() const {
        return next_pk_.load(std::memory_order_relaxed);
    }

    // -- MVCC versioning (DESIGN.md §15) --------------------------------------
    /// Snapshot this table into an immutable frozen clone sharing row
    /// chunks and index nodes (O(#chunks + #indexes), no data copies).  While the table is unchanged since the last publish the
    /// cached clone is returned, so an idle table costs one shared_ptr
    /// copy per database publication.  Writer-side only (the caller
    /// holds writer exclusivity); subsequent writer mutations trigger
    /// copy-on-write and never disturb the clone.
    [[nodiscard]] std::shared_ptr<const Table> publish();

    /// True when a mutation since the last publish() means the next
    /// publication must cut a fresh frozen clone.
    [[nodiscard]] bool version_dirty() const { return dirty_; }

    /// Index nodes (primary-key and secondary B+tree nodes) cloned by
    /// copy-on-write since construction.
    [[nodiscard]] std::uint64_t indexes_cowed() const;
    /// Row chunks cloned by copy-on-write since construction.
    [[nodiscard]] std::uint64_t chunks_cowed() const {
        return store_.chunks_cowed();
    }

    // -- statistics (DESIGN.md §13) -------------------------------------------
    /// Current statistics; may cover fewer rows than row_count() between
    /// folds.  Reading is safe wherever reading rows is (the planner reads
    /// a frozen version's copy; folds happen under writer exclusivity).
    [[nodiscard]] const TableStats& stats() const { return stats_; }
    /// Fold rows appended since the last fold into the statistics; a
    /// stale table (compaction since the last fold) rebuilds from row
    /// zero.  Called by Database::commit_unit() at the outermost commit.
    void refresh_stats();
    /// Full rebuild from current storage (ANALYZE).
    void rebuild_stats();
    /// Install recovered statistics (ndv hints, min/max, NULL counts);
    /// the fold watermark is clamped to current storage.
    void load_stats(TableStats stats);
    /// Advance the per-table epoch watermark when the covered row count
    /// grew materially (~2x) since the last bump; Database aggregates the
    /// answer into its statistics epoch.
    [[nodiscard]] bool note_material_growth();

    // -- integrity (DESIGN.md §14) --------------------------------------------
    /// Append this table's integrity findings to `report`: row arity and
    /// cell types against the schema, NOT NULL, pk uniqueness and
    /// pk-index agreement, pk-counter monotonicity, and for every
    /// secondary index entry-count, key↔row agreement, in-range row ids
    /// and sortedness.  Read-only; index checks are
    /// skipped (with a warning) while bulk mode has them deferred.
    void verify_into(IntegrityReport& report) const;

    /// Rough memory footprint in bytes (bench metric).
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Fraction of non-PK cells that are NULL (schema-comparison metric).
    [[nodiscard]] double null_fraction() const;

private:
    using KeyIndex = CowBTree<std::int64_t, std::compare_three_way>;
    using ValueIndex = CowBTree<Value, ValueIndexOrder>;

    struct SecondaryIndex {
        int column = -1;
        /// Declared kind, persisted; the tree serves equality lookups for
        /// both, range scans only for kOrdered (plans depend on it).
        IndexKind kind = IndexKind::kHash;
        ValueIndex tree;
    };

    /// Frozen-clone constructor backing publish(): shares chunks and
    /// index nodes, snapshots scalar state, drops the mutation log.
    struct FrozenTag {};
    Table(FrozenTag, Table& live);

    TableDef def_;
    int pk_column_ = -1;
    std::atomic<std::int64_t> next_pk_{kFirstPk};
    MutationLog* log_ = nullptr;
    bool bulk_ = false;
    bool frozen_ = false;  ///< immutable published clone (never mutated)
    bool dirty_ = true;    ///< mutated since last publish()
    RowStore store_;
    KeyIndex pk_index_;  ///< pk → row id, when a primary key is declared
    std::vector<SecondaryIndex> indexes_;
    std::shared_ptr<const Table> last_published_;  ///< reused while !dirty_

    /// Savepoint frame: state to restore on rollback_unit().
    struct UnitFrame {
        std::size_t rows = 0;
        std::int64_t next_pk = 0;
        std::size_t undo_size = 0;
    };
    std::vector<UnitFrame> units_;
    struct UndoCell {
        RowId row = 0;
        int column = -1;
        Value old_value;
    };
    std::vector<UndoCell> undo_;  ///< update() log, shared by nested frames
    TableStats stats_;

    /// Repopulate `idx` from current row storage, bottom-up.
    void build_index(SecondaryIndex& idx);
    void index_row(RowId id);
    std::int64_t do_insert(Row&& row, bool validate_row);
    /// Assign, check and index the row just appended to storage; a row
    /// that fails a check is truncated away before the exception leaves.
    std::int64_t admit_appended(bool validate_row);
    void bump_next_pk(std::int64_t pk);
};

}  // namespace xr::rdb
