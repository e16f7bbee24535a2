// Checksummed binary snapshots of a whole MiniRDB database (DESIGN.md §8).
//
// A snapshot is a point-in-time image: file magic + version, then a
// sequence of sections framed exactly like WAL records — u8 type |
// u32 payload_len | payload | u32 crc (CRC over type + length +
// payload).  Section types: 1 = one table (definition, pk counter,
// secondary-index definitions, row data), 2 = foreign keys, 3 = end
// marker.  The end marker is mandatory; a file that stops before it is
// truncated and rejected, as is any section whose CRC does not match.
//
// Snapshots are written atomically: the image goes to `<path>.tmp`,
// is fsynced, renamed over `path`, and the directory is fsynced — a
// crash at any point leaves either the old snapshot or the new one,
// never a half-written file under the real name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xr::rdb {

class Database;
struct SalvageReport;

/// snapshot-<seq>.xrs inside `dir`.  A snapshot with sequence N captures
/// the database state at the moment wal-N.log was started: recovery
/// loads snapshot-N then replays wal segments with sequence >= N.
[[nodiscard]] std::string snapshot_file(const std::string& dir,
                                        std::uint64_t seq);

/// Parse a snapshot/WAL filename back into its sequence number; returns
/// false when `name` is not of the given family ("snapshot-NNN.xrs" /
/// "wal-NNN.log").
[[nodiscard]] bool parse_seq(const std::string& name, const std::string& prefix,
                             const std::string& suffix, std::uint64_t& seq);

struct SnapshotStats {
    std::size_t tables = 0;
    std::size_t rows = 0;
    std::uint64_t bytes = 0;
    // Phase times in ms.  write_snapshot() fills the first two,
    // Database::checkpoint() the last two; a reader leaves all at 0.
    double serialize_ms = 0;  ///< encoding the image in memory
    double write_ms = 0;      ///< write + fsync, rename, directory fsync
    double verify_ms = 0;     ///< re-reading and checking the image
    double rotate_ms = 0;     ///< closing the WAL segment, opening the next
};

/// Serialize `db` into an atomic, checksummed snapshot at `path`.
/// Refuses while a load unit is open (an image of uncommitted state
/// would poison replay).  `size_hint` (e.g. the previous image's size)
/// pre-sizes the encoding buffer.  Fault points: `snapshot.write`
/// before the temp file is written, `snapshot.rename` before it moves
/// into place.
SnapshotStats write_snapshot(const Database& db, const std::string& path,
                             std::size_t size_hint = 0);

/// Load the snapshot at `path` into `db`, which must be empty.  Every
/// section is CRC-verified before a byte of it is trusted, every count
/// is bounds-checked against the bytes present, and every type/kind tag
/// is validated; corruption or truncation throws xr::CorruptionError
/// carrying the file, byte offset and section.
SnapshotStats read_snapshot(const std::string& path, Database& db);

/// Salvage variant (DESIGN.md §14): sections that fail their CRC, parse
/// or apply are dropped — the reader resynchronizes on the next valid
/// section frame and keeps going — instead of failing the whole read.
/// Dropped sections/bytes are accounted in `report`.  Only the header
/// (magic + version) is non-negotiable: a file that is not a snapshot
/// at all still throws xr::CorruptionError so recovery can fall back to
/// an older snapshot.
SnapshotStats read_snapshot_salvage(const std::string& path, Database& db,
                                    SalvageReport& report);

/// One table as a snapshot records it.
struct SnapshotTable {
    std::string name;
    std::uint64_t rows = 0;
    std::int64_t next_pk = 0;  ///< the saved pk counter

    bool operator==(const SnapshotTable&) const = default;
};

/// Decode-only strict check of the snapshot at `path`: accepts exactly
/// the files read_snapshot() accepts, without building a table or an
/// index.  Beyond the framing checks (magic, version, per-section CRC,
/// section and type tags, end marker, no trailing bytes) it rejects a
/// duplicate table name, an index on an unknown column, a row whose
/// arity, cell types or NULLs its table refuses, and a duplicate primary
/// key, each as xr::CorruptionError.  Returns the tables in file order.
std::vector<SnapshotTable> check_snapshot(const std::string& path);

}  // namespace xr::rdb
