#include "rdb/table.hpp"

#include <algorithm>
#include <limits>

#include "common/fault.hpp"
#include "rdb/integrity.hpp"

namespace xr::rdb {

int TableDef::column_index(std::string_view name) const {
    for (std::size_t i = 0; i < columns.size(); ++i)
        if (columns[i].name == name) return static_cast<int>(i);
    return -1;
}

const ColumnDef* TableDef::column(std::string_view name) const {
    int i = column_index(name);
    return i < 0 ? nullptr : &columns[i];
}

// -- RowStore ----------------------------------------------------------------

void RowStore::own(std::size_t c) {
    Slot& s = slots_[c];
    std::shared_ptr<Value[]> copy = new_chunk();
    std::size_t live = std::min(kChunkRows, size_ - (c << kChunkShift));
    for (std::size_t col = 0; col < columns_; ++col) {
        std::size_t base = col << kChunkShift;
        std::copy_n(&s.cells[base], live, &copy[base]);
    }
    s.cells = std::move(copy);
    s.owned = true;
    ++chunks_cowed_;
}

void RowStore::truncate(std::size_t n) {
    if (n >= size_) return;
    std::size_t chunks = (n + kChunkRows - 1) >> kChunkShift;
    slots_.resize(chunks);
    if (chunks > 0) {
        // Clear the cut cells of the tail chunk.  A published version may
        // still read them only when the cut goes below the last publish;
        // then the tail chunk is cloned first.
        std::size_t base = (chunks - 1) << kChunkShift;
        std::size_t end = std::min(kChunkRows, size_ - base);
        if (n - base < end) {
            Slot& s = slots_.back();
            if (!s.owned && n < shared_) own(chunks - 1);
            for (std::size_t col = 0; col < columns_; ++col)
                std::fill(&s.cells[(col << kChunkShift) + (n - base)],
                          &s.cells[(col << kChunkShift) + end], Value());
        }
    }
    size_ = n;
    shared_ = std::min(shared_, n);
}

RowStore RowStore::publish() {
    RowStore out(columns_);
    out.slots_.reserve(slots_.size());
    for (Slot& s : slots_) {
        s.owned = false;
        out.slots_.push_back(Slot{s.cells, false});
    }
    out.size_ = size_;
    out.shared_ = size_;
    shared_ = size_;
    return out;
}

// -- row checks --------------------------------------------------------------

int primary_key_column(const TableDef& def) {
    int pk = -1;
    for (std::size_t i = 0; i < def.columns.size(); ++i) {
        if (!def.columns[i].primary_key) continue;
        if (pk >= 0)
            throw SchemaError("table '" + def.name +
                              "' declares multiple primary keys");
        if (def.columns[i].type != ValueType::kInteger)
            throw SchemaError("primary key of '" + def.name +
                              "' must be INTEGER");
        pk = static_cast<int>(i);
    }
    return pk;
}

void throw_arity_mismatch(const TableDef& def, std::size_t cells) {
    throw SchemaError("row arity " + std::to_string(cells) +
                      " does not match table '" + def.name + "' (" +
                      std::to_string(def.columns.size()) + " columns)");
}

void throw_cell_mismatch(const TableDef& def, std::size_t column,
                         ValueType got) {
    const ColumnDef& col = def.columns[column];
    if (got == ValueType::kNull)
        throw SchemaError("NULL in NOT NULL column '" + col.name + "' of '" +
                          def.name + "'");
    throw SchemaError("type mismatch in column '" + col.name + "' of '" +
                      def.name + "': expected " +
                      std::string(to_string(col.type)) + ", got " +
                      std::string(to_string(got)));
}

// -- Table -------------------------------------------------------------------

Table::Table(TableDef def)
    : def_(std::move(def)),
      pk_column_(primary_key_column(def_)),
      store_(def_.columns.size()) {}

Table::Table(FrozenTag, Table& live)
    : def_(live.def_), store_(live.store_.publish()) {
    pk_column_ = live.pk_column_;
    next_pk_.store(live.next_pk_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    bulk_ = live.bulk_;
    frozen_ = true;
    dirty_ = false;
    pk_index_ = live.pk_index_.publish();
    indexes_.reserve(live.indexes_.size());
    for (SecondaryIndex& idx : live.indexes_)
        indexes_.push_back(SecondaryIndex{idx.column, idx.kind, idx.tree.publish()});
    stats_ = live.stats_;
}

std::shared_ptr<const Table> Table::publish() {
    if (!dirty_ && last_published_ != nullptr) return last_published_;
    last_published_ = std::shared_ptr<const Table>(new Table(FrozenTag{}, *this));
    dirty_ = false;
    return last_published_;
}

std::uint64_t Table::indexes_cowed() const {
    std::uint64_t n = pk_index_.nodes_cowed();
    for (const SecondaryIndex& idx : indexes_) n += idx.tree.nodes_cowed();
    return n;
}

std::int64_t Table::insert(Row row) { return do_insert(std::move(row), true); }

std::size_t Table::insert_batch(std::vector<Row> rows, bool validate_rows) {
    reserve_rows(rows.size());
    // The batch's shape is checked once, on its first row; callers that
    // assembled the rows from a trusted loading plan skip the per-row
    // cell checks after it.
    for (std::size_t i = 0; i < rows.size(); ++i)
        do_insert(std::move(rows[i]), validate_rows || i == 0);
    return rows.size();
}

std::int64_t Table::do_insert(Row&& row, bool validate_row) {
    validate_arity(def_, row.size());
    Value* first = store_.append();
    for (std::size_t c = 0; c < row.size(); ++c)
        first[c << kChunkShift] = std::move(row[c]);
    return admit_appended(validate_row);
}

std::int64_t Table::admit_appended(bool validate_row) {
    const auto id = static_cast<RowId>(store_.size() - 1);
    std::int64_t pk = id;
    try {
        if (pk_column_ >= 0) {
            // Unpublished, so mut() copies nothing.
            Value& key = store_.mut(id, pk_column_);
            if (key.is_null())
                key = Value(next_pk_.load(std::memory_order_relaxed));
        }
        if (validate_row)
            for (std::size_t c = 0; c < def_.columns.size(); ++c)
                validate_cell(def_, pk_column_, c, store_.cell(id, c).type());
        if (pk_column_ >= 0) {
            pk = store_.cell(id, pk_column_).as_integer();
            if (pk_index_.find(pk))
                throw SchemaError("duplicate primary key " +
                                  std::to_string(pk) + " in '" + def_.name +
                                  "'");
            pk_index_.insert(pk, id);
            bump_next_pk(pk);
        }
    } catch (...) {
        store_.truncate(id);
        throw;
    }
    dirty_ = true;
    if (!bulk_) index_row(id);
    if (log_ != nullptr) log_->log_insert(*this, store_[id]);
    return pk;
}

void Table::bump_next_pk(std::int64_t pk) {
    std::int64_t cur = next_pk_.load(std::memory_order_relaxed);
    while (cur < pk + 1 &&
           !next_pk_.compare_exchange_weak(cur, pk + 1,
                                           std::memory_order_relaxed)) {
    }
}

void Table::end_bulk() {
    fault::maybe_fail("rdb.index_rebuild");
    rebuild_indexes();
    bulk_ = false;
}

void Table::begin_unit() {
    units_.push_back(
        {store_.size(), next_pk_.load(std::memory_order_relaxed), undo_.size()});
}

void Table::commit_unit() {
    if (units_.empty())
        throw SchemaError("commit_unit without begin_unit on '" + def_.name +
                          "'");
    units_.pop_back();
    // The undo log folds into the parent frame (its undo_size mark is
    // older); with no parent left, the history is no longer needed.
    if (units_.empty()) undo_.clear();
}

void Table::rollback_unit() {
    if (units_.empty())
        throw SchemaError("rollback_unit without begin_unit on '" + def_.name +
                          "'");
    UnitFrame frame = units_.back();
    units_.pop_back();
    bool changed =
        store_.size() > frame.rows || undo_.size() > frame.undo_size;
    // In bulk mode the secondary indexes may be partial (deferred, or an
    // interrupted rebuild); they are rebuilt whole below.  Otherwise they
    // are exact, and each undone change is undone in them too.
    const bool was_bulk = bulk_;

    // Undo cell updates newest-first.
    for (std::size_t i = undo_.size(); i-- > frame.undo_size;) {
        UndoCell& cell = undo_[i];
        Value& cur = store_.mut(cell.row, cell.column);
        if (!was_bulk) {
            for (SecondaryIndex& idx : indexes_) {
                if (idx.column != cell.column) continue;
                idx.tree.erase(cur, cell.row);
                idx.tree.insert(cell.old_value, cell.row);
            }
        }
        cur = std::move(cell.old_value);
    }
    undo_.resize(frame.undo_size);

    // Truncate appended rows and their index entries.  None of them was
    // published (publication happens between outermost units only).
    for (std::size_t id = store_.size(); id-- > frame.rows;) {
        if (pk_column_ >= 0)
            pk_index_.erase(store_.cell(id, pk_column_).as_integer(),
                            static_cast<RowId>(id));
        if (!was_bulk)
            for (SecondaryIndex& idx : indexes_)
                idx.tree.erase(store_.cell(id, idx.column),
                               static_cast<RowId>(id));
    }
    store_.truncate(frame.rows);

    // Reclaim keys reserved since the watermark.  Safe because the unit
    // contract joins all reserving workers before rollback.
    next_pk_.store(frame.next_pk, std::memory_order_relaxed);

    // Leave the table out of bulk mode with consistent secondary indexes.
    bulk_ = false;
    if (was_bulk) rebuild_indexes();
    if (changed || was_bulk) dirty_ = true;

    // Rows the statistics already covered may be gone (or their cells
    // reverted); the next fold starts over.
    if (changed && stats_.rows > store_.size()) stats_.stale = true;
}

void Table::build_index(SecondaryIndex& idx) {
    std::vector<ValueIndex::Entry> entries;
    entries.reserve(store_.size());
    for (RowId id = 0; id < store_.size(); ++id)
        entries.push_back({store_.cell(id, idx.column), id});
    idx.tree.build(std::move(entries));
}

void Table::rebuild_indexes() {
    for (SecondaryIndex& idx : indexes_) build_index(idx);
    if (!indexes_.empty()) dirty_ = true;
}

const Value& Table::at(RowId id, std::string_view column) const {
    int i = def_.column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_.name + "'");
    return store_.cell(id, i);
}

std::optional<RowId> Table::find_pk_rowid(std::int64_t pk) const {
    if (pk_column_ < 0) {
        if (pk >= 0 && pk < static_cast<std::int64_t>(store_.size()))
            return static_cast<RowId>(pk);
        return std::nullopt;
    }
    return pk_index_.find(pk);
}

void Table::update(RowId id, std::string_view column, Value value) {
    int i = def_.column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_.name + "'");
    if (i == pk_column_)
        throw SchemaError("cannot update primary key column");
    if (!units_.empty()) undo_.push_back({id, i, store_.cell(id, i)});
    dirty_ = true;
    for (SecondaryIndex& idx : indexes_) {
        if (idx.column != i) continue;
        idx.tree.erase(store_.cell(id, i), id);
        idx.tree.insert(value, id);
    }
    Value& cell = store_.mut(id, i);
    cell = std::move(value);
    if (log_ != nullptr) log_->log_update(*this, id, i, cell);
}

std::size_t Table::delete_where(std::string_view column, const Value& value) {
    if (!units_.empty())
        throw SchemaError("cannot delete from '" + def_.name +
                          "' while a load unit is open");
    int i = def_.column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_.name + "'");
    RowStore kept(store_.columns());
    kept.reserve(store_.size());
    std::size_t removed = 0;
    for (std::size_t id = 0; id < store_.size(); ++id) {
        if (store_.cell(id, i) == value) {
            ++removed;
            continue;
        }
        Value* first = kept.append();
        for (std::size_t c = 0; c < kept.columns(); ++c)
            first[c << kChunkShift] = store_.cell(id, c);
    }
    if (removed == 0) return 0;
    store_ = std::move(kept);
    dirty_ = true;

    // Row ids shifted: rebuild the pk index and every secondary index.
    if (pk_column_ >= 0) {
        std::vector<KeyIndex::Entry> entries;
        entries.reserve(store_.size());
        for (RowId id = 0; id < store_.size(); ++id)
            entries.push_back({store_.cell(id, pk_column_).as_integer(), id});
        pk_index_.build(std::move(entries));
    }
    rebuild_indexes();
    stats_.stale = true;  // compaction: folded rows may be gone
    if (log_ != nullptr) log_->log_delete_where(*this, i, value);
    return removed;
}

void Table::refresh_stats() {
    if (stats_.stale || stats_.rows > store_.size()) {
        rebuild_stats();
        return;
    }
    if (stats_.columns.size() != def_.columns.size())
        stats_.columns.assign(def_.columns.size(), ColumnStats());
    if (stats_.rows < store_.size()) dirty_ = true;
    for (std::size_t c = 0; c < stats_.columns.size(); ++c)
        for (std::size_t r = stats_.rows; r < store_.size(); ++r)
            stats_.columns[c].fold(store_.cell(r, c));
    stats_.rows = store_.size();
}

void Table::rebuild_stats() {
    std::uint64_t epoch_rows = stats_.epoch_rows;
    stats_ = TableStats{};
    stats_.epoch_rows = epoch_rows;
    stats_.columns.assign(def_.columns.size(), ColumnStats());
    dirty_ = true;
    refresh_stats();
}

void Table::load_stats(TableStats stats) {
    stats.rows = std::min<std::uint64_t>(stats.rows, store_.size());
    stats.epoch_rows = std::max(stats.epoch_rows, stats_.epoch_rows);
    if (stats.columns.size() != def_.columns.size())
        stats.columns.resize(def_.columns.size());
    stats.stale = false;
    stats_ = std::move(stats);
    dirty_ = true;
}

bool Table::note_material_growth() {
    // +64 keeps tiny tables from bumping the epoch on every commit; past
    // that, roughly each doubling of covered rows re-costs cached plans.
    if (stats_.rows <= stats_.epoch_rows * 2 + 64) return false;
    stats_.epoch_rows = stats_.rows;
    return true;
}

void Table::create_index(std::string_view column, IndexKind kind) {
    int i = def_.column_index(column);
    if (i < 0)
        throw SchemaError("cannot index unknown column '" + std::string(column) +
                          "' in '" + def_.name + "'");
    if (has_index(column)) return;
    SecondaryIndex idx;
    idx.column = i;
    idx.kind = kind;
    build_index(idx);
    indexes_.push_back(std::move(idx));
    dirty_ = true;
    if (log_ != nullptr) log_->log_create_index(*this, column, kind);
}

bool Table::has_index(std::string_view column) const {
    return index_position(def_.column_index(column)) >= 0;
}

int Table::index_position(int column, bool ordered) const {
    for (std::size_t p = 0; p < indexes_.size(); ++p)
        if (indexes_[p].column == column &&
            (!ordered || indexes_[p].kind == IndexKind::kOrdered))
            return static_cast<int>(p);
    return -1;
}

std::vector<RowId> Table::index_lookup(std::string_view column,
                                       const Value& value) const {
    int p = index_position(def_.column_index(column));
    if (p < 0)
        throw SchemaError("no index on '" + def_.name + "." +
                          std::string(column) + "'");
    return index_lookup_at(p, value);
}

std::vector<RowId> Table::index_lookup_at(int position,
                                          const Value& value) const {
    // Equal keys are ordered by row id, so the ids come out sorted.
    std::vector<RowId> out;
    indexes_[position].tree.scan(
        [&](const ValueIndex::Entry& e) { return e.key < value; },
        [&](const ValueIndex::Entry& e) {
            if (!(e.key == value)) return false;
            out.push_back(e.id);
            return true;
        });
    return out;
}

bool Table::has_ordered_index(std::string_view column) const {
    return index_position(def_.column_index(column), true) >= 0;
}

std::vector<RowId> Table::index_range_lookup(std::string_view column,
                                             const Value* lo, bool lo_strict,
                                             const Value* hi,
                                             bool hi_strict) const {
    int p = index_position(def_.column_index(column), true);
    if (p < 0)
        throw SchemaError("no ordered index on '" + def_.name + "." +
                          std::string(column) + "'");
    return index_range_lookup_at(p, lo, lo_strict, hi, hi_strict);
}

std::vector<RowId> Table::index_range_lookup_at(int position, const Value* lo,
                                                bool lo_strict, const Value* hi,
                                                bool hi_strict) const {
    // NULL keys sort first in the index but compare unknown in SQL, so an
    // unbounded lower end still starts past them.
    std::vector<RowId> out;
    indexes_[position].tree.scan(
        [&](const ValueIndex::Entry& e) {
            if (lo == nullptr) return e.key.is_null();
            auto ord = e.key.index_order(*lo);
            return lo_strict ? ord <= 0 : ord < 0;
        },
        [&](const ValueIndex::Entry& e) {
            if (e.key.is_null()) return true;
            if (hi != nullptr) {
                auto ord = e.key.index_order(*hi);
                if (hi_strict ? ord >= 0 : ord > 0) return false;
            }
            out.push_back(e.id);
            return true;
        });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<RowId> Table::lookup(std::string_view column,
                                 const Value& value) const {
    if (has_index(column)) return index_lookup(column, value);
    int i = def_.column_index(column);
    if (i < 0)
        throw SchemaError("no column '" + std::string(column) + "' in '" +
                          def_.name + "'");
    std::vector<RowId> out;
    for (RowId id = 0; id < store_.size(); ++id) {
        if (store_.cell(id, i) == value) out.push_back(id);
    }
    return out;
}

void Table::index_row(RowId id) {
    for (SecondaryIndex& idx : indexes_)
        idx.tree.insert(store_.cell(id, idx.column), id);
}

void Table::verify_into(IntegrityReport& report) const {
    ++report.tables_checked;
    const int doc_col = def_.column_index("doc");
    auto doc_of = [&](RowId id) -> std::int64_t {
        if (doc_col < 0) return -1;
        const Value& v = store_.cell(id, doc_col);
        return v.type() == ValueType::kInteger ? v.as_integer() : -1;
    };
    auto issue = [&](const char* check, std::int64_t doc, std::string detail,
                     IntegrityIssue::Severity severity =
                         IntegrityIssue::Severity::kError) {
        report.add({severity, check, def_.name, doc, std::move(detail)});
    };

    // Rows against the schema (the same rules validate() enforces on the
    // way in — a stored row that no longer passes them was corrupted).
    // Every stored row has one cell per column by construction.
    std::int64_t max_pk = std::numeric_limits<std::int64_t>::min();
    for (RowId id = 0; id < store_.size(); ++id) {
        RowView row = store_[id];
        ++report.rows_checked;
        for (std::size_t c = 0; c < row.size(); ++c) {
            const ColumnDef& col = def_.columns[c];
            const Value& v = row[c];
            if (v.is_null()) {
                if (col.not_null && static_cast<int>(c) != pk_column_)
                    issue("not-null", doc_of(id),
                          "row " + std::to_string(id) +
                              ": NULL in NOT NULL column '" + col.name + "'");
                continue;
            }
            bool ok = true;
            switch (col.type) {
                case ValueType::kInteger: ok = v.type() == ValueType::kInteger; break;
                case ValueType::kReal:
                    ok = v.type() == ValueType::kReal ||
                         v.type() == ValueType::kInteger;
                    break;
                case ValueType::kText: ok = v.type() == ValueType::kText; break;
                case ValueType::kNull: ok = false; break;
            }
            if (!ok)
                issue("cell-type", doc_of(id),
                      "row " + std::to_string(id) + " column '" + col.name +
                          "': expected " + std::string(to_string(col.type)) +
                          ", got " + std::string(to_string(v.type())));
        }
        if (pk_column_ >= 0 &&
            row[pk_column_].type() == ValueType::kInteger)
            max_pk = std::max(max_pk, row[pk_column_].as_integer());
    }

    // Primary-key index: exactly one entry per row, pointing back at it.
    if (pk_column_ >= 0) {
        if (pk_index_.size() != store_.size())
            issue("pk-index", -1,
                  "pk index has " + std::to_string(pk_index_.size()) +
                      " entries for " + std::to_string(store_.size()) + " rows");
        for (RowId id = 0; id < store_.size(); ++id) {
            const Value& pk = store_.cell(id, pk_column_);
            if (pk.type() != ValueType::kInteger) continue;  // reported above
            if (pk_index_.find(pk.as_integer()) != id)
                issue("pk-index", doc_of(id),
                      "row " + std::to_string(id) + " pk " + pk.to_string() +
                          " missing or mismapped in pk index");
        }
        std::int64_t next = next_pk_.load(std::memory_order_relaxed);
        if (!store_.empty() && max_pk != std::numeric_limits<std::int64_t>::min()
            && next <= max_pk)
            issue("pk-counter", -1,
                  "next_pk " + std::to_string(next) + " <= max stored pk " +
                      std::to_string(max_pk) + " (future inserts would collide)");
    }

    // Secondary indexes: every entry resolves to a live row whose cell
    // matches the key, counts agree, and ordered indexes are sorted.
    if (bulk_) {
        issue("index-deferred", -1,
              "bulk mode: secondary index checks skipped",
              IntegrityIssue::Severity::kWarning);
        return;
    }
    for (const SecondaryIndex& idx : indexes_) {
        ++report.indexes_checked;
        const std::string& col = def_.columns[idx.column].name;
        std::size_t entries = 0;
        idx.tree.for_each([&](const ValueIndex::Entry&) {
            ++entries;
            return true;
        });
        if (entries != store_.size())
            issue("index-size", -1,
                  "index on '" + col + "' has " + std::to_string(entries) +
                      " entries for " + std::to_string(store_.size()) + " rows");
        auto check_entry = [&](const Value& key, RowId id) {
            if (id >= store_.size()) {
                issue("index-entry", -1,
                      "index on '" + col + "' maps key " + key.to_string() +
                          " to out-of-range row " + std::to_string(id));
                return;
            }
            const Value& cell = store_.cell(id, idx.column);
            if (!(cell == key))
                issue("index-entry", doc_of(id),
                      "index on '" + col + "' maps key " + key.to_string() +
                          " to row " + std::to_string(id) +
                          " whose cell is " + cell.to_string());
        };
        const Value* prev = nullptr;
        idx.tree.for_each([&](const ValueIndex::Entry& e) {
            check_entry(e.key, e.id);
            if (prev != nullptr && e.key < *prev)
                issue("index-order", -1,
                      "index on '" + col + "' is out of order at key " +
                          e.key.to_string());
            prev = &e.key;
            return true;
        });
    }
}

std::size_t Table::memory_bytes() const {
    std::size_t bytes =
        sizeof(Table) + store_.size() * store_.columns() * sizeof(Value);
    for (std::size_t c = 0; c < store_.columns(); ++c)
        for (std::size_t id = 0; id < store_.size(); ++id)
            if (const std::string* text = store_.cell(id, c).text_if())
                bytes += text->capacity();
    bytes += pk_index_.size() * sizeof(KeyIndex::Entry);
    for (const SecondaryIndex& idx : indexes_)
        bytes += idx.tree.size() * sizeof(ValueIndex::Entry);
    return bytes;
}

double Table::null_fraction() const {
    std::size_t cells = 0, nulls = 0;
    for (std::size_t c = 0; c < store_.columns(); ++c) {
        if (static_cast<int>(c) == pk_column_) continue;
        cells += store_.size();
        for (std::size_t id = 0; id < store_.size(); ++id)
            nulls += store_.cell(id, c).is_null();
    }
    return cells == 0 ? 0.0 : static_cast<double>(nulls) / static_cast<double>(cells);
}

}  // namespace xr::rdb
