#include "rdb/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.hpp"
#include "common/fault.hpp"
#include "rdb/database.hpp"
#include "rdb/serial.hpp"

namespace xr::rdb {

namespace {

namespace fs = std::filesystem;

/// Record types; values are on-disk format, append-only — never renumber.
enum RecordType : std::uint8_t {
    kBeginUnit = 1,
    kCommitUnit = 2,
    kRollbackUnit = 3,
    kCreateTable = 4,
    kCreateIndex = 5,
    kDropTable = 6,
    kAddForeignKey = 7,
    kInsert = 8,
    kUpdate = 9,
    kDeleteWhere = 10,
};

/// type + u32 length before the payload, u32 CRC after it.
constexpr std::size_t kFrameOverhead = 1 + 4 + 4;

/// Buffered bytes that trigger an early (non-fsync) spill to disk.
constexpr std::size_t kSpillBytes = 1u << 20;

/// True when a structurally valid, CRC-checked record frame with a
/// known type starts at `pos`.
bool record_frame_at(std::string_view data, std::size_t pos,
                     std::uint8_t& type, std::uint32_t& len) {
    if (data.size() - pos < kFrameOverhead) return false;
    type = static_cast<std::uint8_t>(data[pos]);
    if (type < kBeginUnit || type > kDeleteWhere) return false;
    len = serial::le32_at(data, pos + 1);
    if (data.size() - pos < kFrameOverhead + static_cast<std::size_t>(len))
        return false;
    return checksum::crc32(data.substr(pos, 5 + len)) ==
           serial::le32_at(data, pos + 5 + len);
}

/// Offset of the next valid record frame at or after `from`, or npos.
/// This is what separates a torn tail (nothing valid follows — a crash
/// mid-append) from mid-segment corruption (valid frames follow — a
/// crash cannot explain that; something rewrote bytes).  The scan is
/// capped so a garbage tail cannot turn classification into an O(n²)
/// CRC sweep.
constexpr std::size_t kResyncWindow = std::size_t{4} << 20;

std::size_t find_next_valid_record(std::string_view data, std::size_t from) {
    std::size_t limit = std::min(data.size(), from + kResyncWindow);
    for (std::size_t off = from;
         off < limit && data.size() - off >= kFrameOverhead; ++off) {
        std::uint8_t type;
        std::uint32_t len;
        if (record_frame_at(data, off, type, len)) return off;
    }
    return std::string::npos;
}

}  // namespace

std::string wal_file(const std::string& dir, std::uint64_t seq) {
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%06llu.log",
                  static_cast<unsigned long long>(seq));
    return (fs::path(dir) / name).string();
}

Wal::Wal(std::string path, bool sync_on_commit)
    : path_(std::move(path)), sync_on_commit_(sync_on_commit) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        throw Error("cannot open WAL '" + path_ +
                    "': " + std::strerror(errno));
}

Wal::~Wal() { close(); }

void Wal::append(std::uint8_t type, std::string_view payload) {
    fault::maybe_fail("wal.append");
    if (broken_)
        throw Error("WAL '" + path_ +
                    "' is broken after a write failure; refusing to append");
    std::size_t frame_start = buf_.size();
    serial::put_u8(buf_, type);
    serial::put_u32(buf_, static_cast<std::uint32_t>(payload.size()));
    buf_.append(payload);
    std::uint32_t crc = checksum::crc32(
        std::string_view(buf_).substr(frame_start, 5 + payload.size()));
    serial::put_u32(buf_, crc);
    appended_ += kFrameOverhead + payload.size();
    ++records_;
    if (buf_.size() >= kSpillBytes) flush(/*sync=*/false);
}

void Wal::flush(bool sync) {
    // The injected-fsync failure fires before any byte moves, so tests
    // get the deterministic "commit never reached disk" outcome; a real
    // mid-write failure instead leaves a torn tail recovery drops.
    if (sync) fault::maybe_fail("wal.fsync");
    if (broken_) throw Error("WAL '" + path_ + "' is broken; cannot flush");
    const char* data = buf_.data();
    std::size_t left = buf_.size();
    while (left > 0) {
        ssize_t n = ::write(fd_, data, left);
        if (n < 0) {
            if (errno == EINTR) continue;
            broken_ = true;
            buf_.clear();  // partially written; the buffer is unusable now
            throw Error("WAL '" + path_ +
                        "' write failed: " + std::strerror(errno));
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    buf_.clear();
    if (sync && ::fsync(fd_) != 0) {
        broken_ = true;
        throw Error("WAL '" + path_ + "' fsync failed: " + std::strerror(errno));
    }
}

void Wal::close() noexcept {
    if (fd_ < 0) return;
    try {
        flush(/*sync=*/true);
    } catch (...) {
        // Unflushed records belong to uncommitted work (commits flush
        // synchronously), so losing them is recovery-safe.
    }
    ::close(fd_);
    fd_ = -1;
}

void Wal::log_insert(const Table& table, RowView row) {
    std::string payload;
    serial::put_string(payload, table.name());
    serial::put_row(payload, row);
    append(kInsert, payload);
}

void Wal::log_update(const Table& table, RowId row, int column,
                     const Value& value) {
    std::string payload;
    serial::put_string(payload, table.name());
    serial::put_u32(payload, row);
    serial::put_u32(payload, static_cast<std::uint32_t>(column));
    serial::put_value(payload, value);
    append(kUpdate, payload);
}

void Wal::log_delete_where(const Table& table, int column, const Value& value) {
    std::string payload;
    serial::put_string(payload, table.name());
    serial::put_u32(payload, static_cast<std::uint32_t>(column));
    serial::put_value(payload, value);
    append(kDeleteWhere, payload);
}

void Wal::log_create_index(const Table& table, std::string_view column,
                           IndexKind kind) {
    std::string payload;
    serial::put_string(payload, table.name());
    serial::put_string(payload, column);
    serial::put_u8(payload, static_cast<std::uint8_t>(kind));
    append(kCreateIndex, payload);
}

void Wal::log_create_table(const TableDef& def) {
    std::string payload;
    serial::put_table_def(payload, def);
    append(kCreateTable, payload);
}

void Wal::log_drop_table(std::string_view name) {
    std::string payload;
    serial::put_string(payload, name);
    append(kDropTable, payload);
}

void Wal::log_add_foreign_key(const ForeignKeyDef& fk) {
    std::string payload;
    serial::put_string(payload, fk.table);
    serial::put_string(payload, fk.column);
    serial::put_string(payload, fk.ref_table);
    serial::put_string(payload, fk.ref_column);
    append(kAddForeignKey, payload);
}

void Wal::log_begin_unit() { append(kBeginUnit, {}); }

void Wal::log_commit_unit(bool outermost) {
    std::size_t mark = buf_.size();
    append(kCommitUnit, {});
    if (!outermost) return;
    try {
        flush(sync_on_commit_);
    } catch (...) {
        // Nothing was written (injected failure fires pre-write): take
        // the commit frame back so the on-disk unit stays uncommitted,
        // matching the rollback the caller is about to perform.
        if (buf_.size() > mark) {
            buf_.resize(mark);
            --records_;
        }
        throw;
    }
}

void Wal::log_rollback_unit() noexcept {
    if (broken_) return;
    try {
        append(kRollbackUnit, {});
    } catch (...) {
        // Advisory record: recovery rolls open units back regardless.
    }
}

WalReplayStats replay_wal(const std::string& path, Database& db,
                          WalReplayMode mode, SalvageReport* report) {
    const bool salvage = mode == WalReplayMode::kSalvage;
    if (salvage && report == nullptr)
        throw SchemaError("replay_wal: salvage mode requires a report");
    WalReplayStats stats;
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) return stats;  // no segment — nothing to replay
        std::ostringstream tmp;
        tmp << in.rdbuf();
        data = std::move(tmp).str();
    }

    std::size_t pos = 0;
    std::size_t record_no = 0;
    while (pos < data.size()) {
        std::uint8_t type;
        std::uint32_t len;
        if (!record_frame_at(data, pos, type, len)) {
            // Damaged frame.  A crash mid-append leaves nothing valid
            // after it (writes are sequential); a valid frame further on
            // means the hole was *overwritten*, i.e. real corruption that
            // truncation would silently turn into data loss.
            std::size_t next = find_next_valid_record(data, pos + 1);
            if (next != std::string::npos) {
                if (!salvage)
                    throw CorruptionError(
                        "bad record frame but valid records follow at offset " +
                            std::to_string(next) +
                            " — mid-segment corruption, not a torn tail",
                        path, pos, "record " + std::to_string(record_no));
                report->wal_bytes_dropped += next - pos;
                report->notes.push_back(
                    "WAL '" + path + "': dropped " + std::to_string(next - pos) +
                    " unreadable bytes at offset " + std::to_string(pos));
                stats.bytes_dropped += next - pos;
                pos = next;
                continue;
            }
            // True torn tail.
            stats.torn_bytes = data.size() - pos;
            if (mode == WalReplayMode::kMidChain)
                throw CorruptionError(
                    "torn record at offset " + std::to_string(pos) +
                        " but this is not the newest segment; the recovery "
                        "chain is broken",
                    path, pos, "record " + std::to_string(record_no));
            if (mode == WalReplayMode::kTail) {
                std::error_code ec;
                fs::resize_file(path, pos, ec);
                if (ec)
                    throw Error("cannot truncate torn tail of WAL '" + path +
                                "': " + ec.message());
            } else {
                report->notes.push_back(
                    "WAL '" + path + "': torn tail of " +
                    std::to_string(stats.torn_bytes) + " bytes at offset " +
                    std::to_string(pos));
            }
            break;
        }

        fault::maybe_fail("recovery.replay");
        std::string context =
            "WAL '" + path + "' record " + std::to_string(record_no);
        serial::Reader in(std::string_view(data).substr(pos + 5, len), context,
                          path, pos + 5);
        try {
            switch (type) {
                case kBeginUnit:
                    db.begin_unit();
                    break;
                case kCommitUnit:
                    db.commit_unit();
                    break;
                case kRollbackUnit:
                    db.rollback_unit();
                    break;
                case kCreateTable:
                    db.create_table(serial::read_table_def(in));
                    break;
                case kCreateIndex: {
                    Table& t = db.require(in.string());
                    std::string column = in.string();
                    std::uint8_t kind = in.u8();
                    if (kind > static_cast<std::uint8_t>(IndexKind::kOrdered))
                        in.fail("unknown index kind tag " +
                                std::to_string(kind));
                    t.create_index(column, static_cast<IndexKind>(kind));
                    break;
                }
                case kDropTable:
                    db.drop_table(in.string());
                    break;
                case kAddForeignKey: {
                    ForeignKeyDef fk;
                    fk.table = in.string();
                    fk.column = in.string();
                    fk.ref_table = in.string();
                    fk.ref_column = in.string();
                    db.add_foreign_key(std::move(fk));
                    break;
                }
                case kInsert: {
                    serial::insert_row(in, db.require(in.string()));
                    break;
                }
                case kUpdate: {
                    Table& t = db.require(in.string());
                    auto row = static_cast<RowId>(in.u32());
                    std::uint32_t col = in.u32();
                    if (row >= t.row_count())
                        throw Error("row id " + std::to_string(row) +
                                    " out of range (" +
                                    std::to_string(t.row_count()) + " rows)");
                    if (col >= t.column_count())
                        throw Error("column index out of range");
                    t.update(row, t.def().columns[col].name, in.value());
                    break;
                }
                case kDeleteWhere: {
                    Table& t = db.require(in.string());
                    std::uint32_t col = in.u32();
                    if (col >= t.column_count())
                        throw Error("column index out of range");
                    t.delete_where(t.def().columns[col].name, in.value());
                    break;
                }
                default:
                    throw Error("unknown record type " + std::to_string(type));
            }
        } catch (const fault::InjectedFault&) {
            throw;
        } catch (const Error& e) {
            if (!salvage)
                throw CorruptionError(e.bare_message(), path, pos,
                                      "record " + std::to_string(record_no));
            ++stats.records_skipped;
            ++report->wal_records_skipped;
            report->notes.push_back(context + ": skipped: " + e.bare_message());
            pos += kFrameOverhead + len;
            ++record_no;
            continue;
        }
        ++stats.records;
        pos += kFrameOverhead + len;
        ++record_no;
    }
    return stats;
}

}  // namespace xr::rdb
