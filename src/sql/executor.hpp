// SQL execution over MiniRDB.
//
// Planning is deliberately simple but not naive:
//   * equality predicates on indexed columns of the driving table become
//     index scans;
//   * equi-joins build a hash table on the inner side, or use an existing
//     index when one matches;
//   * column-vs-literal predicates filter each stage's candidate rows in
//     batches, as compiled comparison kernels; the remaining predicates
//     filter at the earliest stage that binds their tables;
//   * aggregation, GROUP BY / HAVING, ORDER BY and LIMIT run as final
//     phases.
// The same engine executes the paper-motivated workloads both for the
// mapping's schema and for the inlining baselines, so query-shape
// comparisons are apples-to-apples.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.hpp"
#include "rdb/database.hpp"
#include "sql/ast.hpp"
#include "sql/planner.hpp"

namespace xr::sql {

struct ResultSet {
    std::vector<std::string> columns;
    std::vector<rdb::Row> rows;

    [[nodiscard]] std::size_t row_count() const { return rows.size(); }
    [[nodiscard]] const rdb::Value& at(std::size_t row,
                                       std::size_t column) const {
        return rows[row][column];
    }
    /// First cell of the first row (common for COUNT queries); NULL if empty.
    [[nodiscard]] rdb::Value scalar() const {
        return rows.empty() || rows[0].empty() ? rdb::Value::null() : rows[0][0];
    }
    [[nodiscard]] std::string to_string() const;
};

/// Execution statistics (join strategy visibility for benches and the
/// query service).  Counters are atomic so one ExecStats may be shared by
/// concurrent executions — each execution accumulates privately and folds
/// its totals in with one add() per counter when it finishes, so partial
/// counts of an in-flight query are never observable.  Copying snapshots
/// the counters (relaxed), which is how per-session stats aggregate.
struct ExecStats {
    std::atomic<std::size_t> rows_scanned{0};
    std::atomic<std::size_t> index_lookups{0};
    std::atomic<std::size_t> hash_joins{0};
    std::atomic<std::size_t> nested_loop_joins{0};
    /// Structural-join probes: binary-searched ranges on an ordered index
    /// (interval containment joins, DESIGN.md §10).
    std::atomic<std::size_t> range_scans{0};
    /// Cancellation checkpoints reached (one per kCancelPollInterval rows,
    /// DESIGN.md §11) — tests assert on this to prove a long-running query
    /// actually polls its token.
    std::atomic<std::size_t> cancel_polls{0};

    ExecStats() = default;
    ExecStats(const ExecStats& other) { *this = other; }
    ExecStats& operator=(const ExecStats& other) {
        if (this == &other) return *this;
        rows_scanned = other.rows_scanned.load(std::memory_order_relaxed);
        index_lookups = other.index_lookups.load(std::memory_order_relaxed);
        hash_joins = other.hash_joins.load(std::memory_order_relaxed);
        nested_loop_joins =
            other.nested_loop_joins.load(std::memory_order_relaxed);
        range_scans = other.range_scans.load(std::memory_order_relaxed);
        cancel_polls = other.cancel_polls.load(std::memory_order_relaxed);
        return *this;
    }

    /// Fold another execution's counters in (thread safe on *this).
    void add(const ExecStats& other) {
        rows_scanned.fetch_add(
            other.rows_scanned.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        index_lookups.fetch_add(
            other.index_lookups.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        hash_joins.fetch_add(other.hash_joins.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
        nested_loop_joins.fetch_add(
            other.nested_loop_joins.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        range_scans.fetch_add(
            other.range_scans.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        cancel_polls.fetch_add(
            other.cancel_polls.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    }

    void reset() {
        rows_scanned = 0;
        index_lookups = 0;
        hash_joins = 0;
        nested_loop_joins = 0;
        range_scans = 0;
        cancel_polls = 0;
    }
};

/// Rows accepted between cancellation checkpoints (DESIGN.md §11): every
/// kCancelPollInterval-th row of join enumeration / range scans, and the
/// same cadence through final-pass aggregation, sorting and DISTINCT, the
/// executor polls its CancelToken (and the `exec.cancel_poll` fault point).
/// Small enough that even a 1ms deadline fires promptly mid-join, large
/// enough that an uncancellable query pays ~one atomic load per row.
inline constexpr std::size_t kCancelPollInterval = 64;

/// Execute any statement.  DDL/DML statements return an empty result.
/// Re-entrant: concurrent calls (each with its own freshly parsed SQL)
/// may share `db` — under a rdb::ReadSnapshot for SELECTs — and may share
/// one `stats` object.  `cancel` is polled cooperatively (see
/// kCancelPollInterval); the default inert token never fires and costs
/// nothing.  `planner` configures the cost-based pass for SELECTs
/// (DESIGN.md §13); nullptr means default options (planner on).
ResultSet execute(rdb::Database& db, std::string_view sql,
                  ExecStats* stats = nullptr,
                  const CancelToken& cancel = {},
                  const PlannerOptions* planner = nullptr);

/// Execute a read-only statement (SELECT) against a pinned or live read
/// view.  This is the MVCC serving path: pass `snapshot.view()` and the
/// whole parse/plan/execute pipeline runs latch-free against that epoch,
/// never observing concurrent writer state.  Throws QueryError for any
/// non-SELECT statement.
ResultSet execute_read(const rdb::ReadView& db, std::string_view sql,
                       ExecStats* stats = nullptr,
                       const CancelToken& cancel = {},
                       const PlannerOptions* planner = nullptr);

/// Execute an already-parsed SELECT.  Binding annotations are written into
/// the AST — and the cost-based planner may rewrite the join order in
/// place — so the statement is taken by mutable reference; re-execution of
/// the same statement is fine (binding and planning are idempotent), but
/// two *threads* must not share one SelectStmt — give each its own parse
/// (the query service does exactly that; plan caching caches SQL text,
/// not ASTs).  The ReadView overload is the MVCC path: a view over a
/// pinned DatabaseVersion reads that epoch latch-free; a view over the
/// live Database (the convenience overload below) is for writer-thread or
/// quiesced contexts.
ResultSet execute_select(const rdb::ReadView& db, SelectStmt& stmt,
                         ExecStats* stats = nullptr,
                         const CancelToken& cancel = {},
                         const PlannerOptions* planner = nullptr);
ResultSet execute_select(rdb::Database& db, SelectStmt& stmt,
                         ExecStats* stats = nullptr,
                         const CancelToken& cancel = {},
                         const PlannerOptions* planner = nullptr);

}  // namespace xr::sql
