// Append-only write-ahead log for MiniRDB (DESIGN.md §8).
//
// The WAL is a redo log of the database's durable mutation API: table /
// index / foreign-key DDL, row inserts, in-place cell updates, deletes,
// and load-unit begin / commit / rollback frames.  Records are buffered
// in memory and written out on the outermost commit_unit(), which also
// fsyncs — so the durability boundary is exactly the atomicity boundary
// the loaders already use.  Uncommitted frames that do reach disk (large
// buffers spill early) are discarded by recovery, never replayed.
//
// Record framing: u8 type | u32 payload_len | payload | u32 crc, where
// the CRC covers type + length + payload.  Recovery reads frames until
// EOF or the first frame whose header, length or CRC does not check out.
// What happens next depends on what follows the bad frame (DESIGN.md
// §14): if *no* valid frame exists after it, the damage is a *torn
// tail* — the expected signature of a crash mid-append — counted,
// reported in RecoveryReport, and (newest segment only) physically
// truncated so new appends start on a clean record boundary.  If valid
// frames DO follow the bad one, a crash cannot explain the hole (writes
// are sequential): that is mid-segment corruption and recovery fails
// with a typed xr::CorruptionError even in the newest segment, so a
// flipped byte can never silently swallow committed records behind it.
// A "valid header, truncated payload" frame at EOF is indistinguishable
// from any other tear and handled the same way.
//
// Thread-safety: appends follow the single-writer contract of the unit
// machinery (Table's begin_unit() documentation); the WAL adds no locks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "rdb/table.hpp"

namespace xr::rdb {

class Database;
struct ForeignKeyDef;

/// wal-<seq>.log inside `dir`; seq ties the segment to the snapshot it
/// follows (wal-N holds every mutation after snapshot-N was taken).
[[nodiscard]] std::string wal_file(const std::string& dir, std::uint64_t seq);

class Wal final : public MutationLog {
public:
    /// Opens `path` for appending (created if absent).  `sync_on_commit`
    /// controls whether the outermost commit fsyncs or merely write()s.
    Wal(std::string path, bool sync_on_commit);
    ~Wal() override;
    Wal(const Wal&) = delete;
    Wal& operator=(const Wal&) = delete;

    // MutationLog (called by Table after the in-memory mutation):
    void log_insert(const Table& table, RowView row) override;
    void log_update(const Table& table, RowId row, int column,
                    const Value& value) override;
    void log_delete_where(const Table& table, int column,
                          const Value& value) override;
    void log_create_index(const Table& table, std::string_view column,
                          IndexKind kind) override;

    // Database-level records:
    void log_create_table(const TableDef& def);
    void log_drop_table(std::string_view name);
    void log_add_foreign_key(const ForeignKeyDef& fk);
    void log_begin_unit();
    /// Append the commit frame; an outermost commit also flushes (and,
    /// under sync_on_commit, fsyncs) so the unit is durable before the
    /// caller treats it as committed.  If making the frame durable fails
    /// before any byte reached the file, the frame is removed from the
    /// buffer again — the unit then reads as uncommitted on disk, which
    /// matches the rollback the caller performs on the way out.
    void log_commit_unit(bool outermost);
    /// Rollback frames are advisory (recovery discards open units with or
    /// without them), so logging one never throws; a broken log skips it.
    void log_rollback_unit() noexcept;

    /// Write buffered records out; with `sync`, fsync afterwards.
    /// Fault points: `wal.fsync` (before any byte moves), then the write.
    void flush(bool sync);

    /// Best-effort final flush + fsync + close.  Errors are swallowed —
    /// destructors call this; uncommitted tail loss is recovery-safe.
    void close() noexcept;

    [[nodiscard]] const std::string& path() const { return path_; }
    /// Total record bytes appended (buffered + written) — bench metric.
    [[nodiscard]] std::uint64_t bytes_appended() const { return appended_; }
    /// Records appended to this segment — the log sequence number of the
    /// most recent mutation.  Together with the segment's seq it totally
    /// orders everything the database ever logged; the query layer uses
    /// it as a fine-grained durable change tick.
    [[nodiscard]] std::uint64_t lsn() const { return records_; }

private:
    void append(std::uint8_t type, std::string_view payload);

    std::string path_;
    int fd_ = -1;
    bool sync_on_commit_ = true;
    /// Set on a write/fsync failure: the file may end mid-record, so the
    /// log refuses further data records (rollback frames are skipped).
    bool broken_ = false;
    std::string buf_;
    std::uint64_t appended_ = 0;
    std::uint64_t records_ = 0;
};

struct SalvageReport;

struct WalReplayStats {
    std::size_t records = 0;          ///< frames decoded and applied
    std::size_t torn_bytes = 0;       ///< bytes in the torn tail, if any
    std::size_t records_skipped = 0;  ///< salvage: valid frames that failed to apply
    std::uint64_t bytes_dropped = 0;  ///< salvage: unreadable bytes resynced past
};

/// How replay treats damage (see the framing comment above).
enum class WalReplayMode {
    /// Newest segment: a true torn tail (no valid frame after the bad
    /// one) is truncated in place; mid-segment corruption still throws.
    kTail,
    /// Older segment: any damage breaks the chain to the next snapshot —
    /// always a typed error.
    kMidChain,
    /// Salvage: resynchronize past unreadable regions, skip records that
    /// fail to apply, account everything dropped, never throw for
    /// damage.  Nothing is truncated — the salvaging open checkpoints
    /// immediately, superseding the damaged segment.
    kSalvage,
};

/// Replay one WAL segment into `db` by re-driving its mutation API (the
/// db's own logging must be detached).  Damage handling per `mode`;
/// strict-mode failures throw xr::CorruptionError with the file, byte
/// offset and record number.  With kSalvage, `report` (required)
/// accumulates what was dropped.  Fault point: `recovery.replay` per
/// record.
WalReplayStats replay_wal(const std::string& path, Database& db,
                          WalReplayMode mode, SalvageReport* report = nullptr);

}  // namespace xr::rdb
