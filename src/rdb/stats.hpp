// Table and column statistics for the cost-based planner (DESIGN.md §13).
//
// Each Table carries a TableStats: the number of rows the statistics
// cover, and per column the min/max value, NULL count and a distinct-
// value estimate from a KMV (k-minimum-values) sketch.  Statistics are
// folded incrementally — Database::commit_unit() scans only the rows
// appended since the last fold — and rebuilt from scratch by
// Database::analyze(), which also persists them to the `xrel_stats`
// catalog table so they survive snapshot + WAL recovery.
//
// Statistics are estimates by design: in-place cell updates do not
// re-derive min/max or NDV (the loader's IDREF patching would make that
// a per-update scan), and compaction (delete_where, rollback below the
// fold watermark) marks the table stale for a full rebuild at the next
// fold.  The planner treats absent or stale numbers as unknowns with
// default selectivities, never as errors.
#pragma once

#include <cstdint>
#include <vector>

#include "rdb/value.hpp"

namespace xr::rdb {

/// KMV distinct-count sketch: keep the k smallest of the 64-bit hashes
/// seen; with fewer than k entries the count is exact, beyond that the
/// k-th minimum estimates the hash-space density (ndv ≈ (k-1)/kth_min).
/// The minima live in one sorted vector: O(log k) to reject a hash,
/// O(k) word moves to admit one, O(k) memory in a single block — so a
/// frozen table version copies each column's sketch with one memcpy.
class NdvSketch {
public:
    static constexpr std::size_t kDefaultK = 256;

    explicit NdvSketch(std::size_t k = kDefaultK) : k_(k) {}

    void add(const Value& v);
    void clear() { mins_.clear(); }
    [[nodiscard]] bool empty() const { return mins_.empty(); }
    [[nodiscard]] std::uint64_t estimate() const;

private:
    std::size_t k_;
    std::vector<std::uint64_t> mins_;  ///< the k smallest hashes, ascending, distinct
};

struct ColumnStats {
    Value min;  ///< over non-NULL values; NULL while none seen
    Value max;
    std::uint64_t nulls = 0;
    /// Persisted NDV estimate restored by recovery — the sketch itself is
    /// not serialized, so after a restart the hint carries the analyzed
    /// estimate until the next full rebuild repopulates the sketch.
    std::uint64_t ndv_hint = 0;
    NdvSketch sketch;

    [[nodiscard]] std::uint64_t ndv() const {
        std::uint64_t est = sketch.estimate();
        return est > ndv_hint ? est : ndv_hint;
    }

    void fold(const Value& v);
};

struct TableStats {
    /// Rows covered by these statistics — also the storage index the next
    /// incremental fold resumes from (appends-only between folds).
    std::uint64_t rows = 0;
    /// Row count at the last statistics-epoch bump; material growth past
    /// it advances Database::stats_epoch() so cached plans re-cost.
    std::uint64_t epoch_rows = 0;
    /// Compaction invalidated the incremental state; the next fold
    /// rebuilds from row zero.
    bool stale = false;
    std::vector<ColumnStats> columns;  ///< parallel to TableDef::columns
};

}  // namespace xr::rdb
