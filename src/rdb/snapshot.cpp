#include "rdb/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/checksum.hpp"
#include "common/fault.hpp"
#include "rdb/database.hpp"
#include "rdb/serial.hpp"

namespace xr::rdb {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'X', 'R', 'S', 'N', 'A', 'P', '1', '\n'};
constexpr std::uint32_t kVersion = 1;

enum SectionType : std::uint8_t {
    kTableSection = 1,
    kForeignKeySection = 2,
    kEndSection = 3,
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Open a section frame at the end of `out`: the type byte and a length
/// placeholder.  The payload is then encoded in place after it.
std::size_t begin_section(std::string& out, std::uint8_t type) {
    std::size_t start = out.size();
    serial::put_u8(out, type);
    serial::put_u32(out, 0);
    return start;
}

/// Close the frame opened at `start`: patch the payload length, then
/// append the CRC over type + length + payload.
void end_section(std::string& out, std::size_t start) {
    serial::patch_u32(out, start + 1,
                      static_cast<std::uint32_t>(out.size() - start - 5));
    serial::put_u32(out,
                    checksum::crc32(std::string_view(out).substr(start)));
}

/// fsync the directory containing `path` so the rename itself is durable.
void sync_parent_dir(const std::string& path) {
    std::string dir = fs::path(path).parent_path().string();
    if (dir.empty()) dir = ".";
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;  // best effort — not all filesystems allow it
    ::fsync(fd);
    ::close(fd);
}

/// True when a structurally valid, CRC-checked section frame with a
/// known type starts at `pos`.
bool section_frame_at(std::string_view data, std::size_t pos,
                      std::uint8_t& type, std::uint32_t& len) {
    if (data.size() - pos < 9) return false;
    type = static_cast<std::uint8_t>(data[pos]);
    if (type < kTableSection || type > kEndSection) return false;
    len = serial::le32_at(data, pos + 1);
    if (data.size() - pos < 9 + static_cast<std::size_t>(len)) return false;
    return checksum::crc32(data.substr(pos, 5 + len)) ==
           serial::le32_at(data, pos + 5 + len);
}

/// Salvage resynchronization: the offset of the next valid section
/// frame at or after `from`, or npos.  The scan is capped so a huge
/// file of garbage cannot turn salvage into an O(n²) CRC sweep.
constexpr std::size_t kResyncWindow = std::size_t{4} << 20;

std::size_t find_next_valid_section(std::string_view data, std::size_t from) {
    std::size_t limit = std::min(data.size(), from + kResyncWindow);
    for (std::size_t off = from; off < limit && data.size() - off >= 9; ++off) {
        std::uint8_t type;
        std::uint32_t len;
        if (section_frame_at(data, off, type, len)) return off;
    }
    return std::string::npos;
}

}  // namespace

std::string snapshot_file(const std::string& dir, std::uint64_t seq) {
    char name[40];
    std::snprintf(name, sizeof(name), "snapshot-%06llu.xrs",
                  static_cast<unsigned long long>(seq));
    return (fs::path(dir) / name).string();
}

bool parse_seq(const std::string& name, const std::string& prefix,
               const std::string& suffix, std::uint64_t& seq) {
    if (name.size() <= prefix.size() + suffix.size()) return false;
    if (name.compare(0, prefix.size(), prefix) != 0) return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
        return false;
    std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty()) return false;
    seq = 0;
    for (char c : digits) {
        if (c < '0' || c > '9') return false;
        seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

SnapshotStats write_snapshot(const Database& db, const std::string& path,
                             std::size_t size_hint) {
    if (db.in_unit())
        throw SchemaError(
            "cannot write a snapshot while a load unit is open: '" + path +
            "'");
    fault::maybe_fail("snapshot.write");

    SnapshotStats stats;
    auto t0 = Clock::now();
    // Every section is encoded in place into one buffer.  The slack over
    // the hint covers a database that grew since the image it came from:
    // reallocating a multi-MB buffer midway costs more than the slack.
    std::string image;
    image.reserve(size_hint + size_hint / 8 + 4096);
    image.append(kMagic, sizeof(kMagic));
    serial::put_u32(image, kVersion);

    for (const std::string& name : db.table_names()) {
        const Table& t = db.require(name);
        std::size_t section = begin_section(image, kTableSection);
        serial::put_table_def(image, t.def());
        serial::put_i64(image, t.peek_next_pk());
        auto indexes = t.index_defs();
        serial::put_u32(image, static_cast<std::uint32_t>(indexes.size()));
        for (const Table::IndexDef& idx : indexes) {
            serial::put_string(image, idx.column);
            serial::put_u8(image, static_cast<std::uint8_t>(idx.kind));
        }
        serial::put_u64(image, t.row_count());
        for (RowId id = 0; id < t.row_count(); ++id)
            serial::put_row(image, t.row(id));
        end_section(image, section);
        ++stats.tables;
        stats.rows += t.row_count();
    }

    std::size_t section = begin_section(image, kForeignKeySection);
    serial::put_u32(image,
                    static_cast<std::uint32_t>(db.foreign_keys().size()));
    for (const ForeignKeyDef& fk : db.foreign_keys()) {
        serial::put_string(image, fk.table);
        serial::put_string(image, fk.column);
        serial::put_string(image, fk.ref_table);
        serial::put_string(image, fk.ref_column);
    }
    end_section(image, section);
    end_section(image, begin_section(image, kEndSection));
    stats.bytes = image.size();
    stats.serialize_ms = ms_since(t0);

    t0 = Clock::now();
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw Error("cannot create snapshot temp file '" + tmp +
                    "': " + std::strerror(errno));
    const char* data = image.data();
    std::size_t left = image.size();
    while (left > 0) {
        ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR) continue;
            int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            throw Error("snapshot write to '" + tmp +
                        "' failed: " + std::strerror(err));
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        throw Error("snapshot fsync of '" + tmp +
                    "' failed: " + std::strerror(err));
    }
    ::close(fd);

    try {
        fault::maybe_fail("snapshot.rename");
    } catch (...) {
        ::unlink(tmp.c_str());
        throw;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        ::unlink(tmp.c_str());
        throw Error("cannot rename snapshot '" + tmp + "' -> '" + path +
                    "': " + ec.message());
    }
    sync_parent_dir(path);
    stats.write_ms = ms_since(t0);
    return stats;
}

namespace {

/// The whole file at `path`, in one buffer sized from fstat.
std::string read_file(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw Error("cannot open snapshot '" + path + "'");
    struct stat st {};
    std::string data;
    if (::fstat(fd, &st) == 0 && st.st_size > 0)
        data.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    for (;;) {
        if (got == data.size()) data.resize(got + 4096 + got / 2);
        ssize_t n = ::read(fd, data.data() + got, data.size() - got);
        if (n < 0) {
            if (errno == EINTR) continue;
            int err = errno;
            ::close(fd);
            throw Error("cannot read snapshot '" + path +
                        "': " + std::strerror(err));
        }
        if (n == 0) break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    data.resize(got);
    return data;
}

/// A table section up to its rows: decoded the same way for apply and
/// check.
struct TableHeader {
    TableDef def;
    std::int64_t next_pk = 0;
    std::vector<Table::IndexDef> indexes;
    std::uint64_t rows = 0;
};

TableHeader read_table_header(serial::Reader& in) {
    TableHeader h;
    h.def = serial::read_table_def(in);
    h.next_pk = in.i64();
    std::uint32_t nindexes = in.u32();
    // name-len(4) + kind byte per index definition
    in.need_items(nindexes, 5, "index");
    h.indexes.reserve(nindexes);
    for (std::uint32_t i = 0; i < nindexes; ++i) {
        Table::IndexDef idx;
        idx.column = in.string();
        std::uint8_t kind = in.u8();
        if (kind > static_cast<std::uint8_t>(IndexKind::kOrdered))
            in.fail("unknown index kind tag " + std::to_string(kind));
        idx.kind = static_cast<IndexKind>(kind);
        h.indexes.push_back(std::move(idx));
    }
    h.rows = in.u64();
    in.need_items(h.rows, 4, "row");
    return h;
}

void expect_end_of_rows(const serial::Reader& in) {
    if (!in.at_end()) in.fail("trailing bytes after rows");
}

/// Recovery: builds every table (validated rows, pk B+tree, secondary
/// indexes) and foreign key into `db`.
class ApplySections {
public:
    ApplySections(Database& db, SalvageReport* report)
        : db_(db), report_(report) {}

    void table(serial::Reader& in, TableHeader h) {
        const std::string name = h.def.name;
        Table& t = db_.create_table(std::move(h.def));
        try {
            // Cells decode straight into the table's columns, each row
            // fully checked: a snapshot is not a trusted pipeline, it is
            // bytes from a disk.
            t.reserve_rows(h.rows);
            for (std::uint64_t i = 0; i < h.rows; ++i)
                serial::insert_row(in, t);
            t.restore_next_pk(h.next_pk);
            for (const Table::IndexDef& idx : h.indexes)
                t.create_index(idx.column, idx.kind);
            expect_end_of_rows(in);
        } catch (...) {
            // Never leave a half-restored table behind.
            db_.drop_table(name);
            throw;
        }
    }

    void foreign_key(ForeignKeyDef fk, const std::string& section_ctx) {
        if (report_ == nullptr) {
            db_.add_foreign_key(std::move(fk));
            return;
        }
        // A constraint on a dropped table is expected; keep the rest.
        try {
            db_.add_foreign_key(std::move(fk));
        } catch (const Error& e) {
            report_->notes.push_back(section_ctx + ": skipped foreign key: " +
                                     e.bare_message());
        }
    }

private:
    Database& db_;
    SalvageReport* report_;
};

/// Checkpoint verification: checks every table section against exactly
/// the rules ApplySections enforces, but builds no Table, B+tree or
/// Database.  Rows are decoded cell by cell and never materialized.
class CheckSections {
public:
    void table(serial::Reader& in, const TableHeader& h) {
        const TableDef& def = h.def;
        for (const SnapshotTable& seen : tables_)
            if (seen.name == def.name)
                throw SchemaError("table '" + def.name + "' already exists");
        const int pk = primary_key_column(def);
        // Table::insert gives a NULL key the counter and keeps the counter
        // above every key; while keys arrive in ascending order they are
        // unique, otherwise a sort settles it.
        std::int64_t next_pk = Table::kFirstPk;
        bool ascending = true;
        keys_.clear();
        for (std::uint64_t r = 0; r < h.rows; ++r) {
            std::uint32_t cells = in.u32();
            in.need_items(cells, 1, "cell");
            validate_arity(def, cells);
            for (std::uint32_t c = 0; c < cells; ++c) {
                std::int64_t integer = 0;
                ValueType type = in.skip_value(integer);
                validate_cell(def, pk, c, type);
                if (static_cast<int>(c) != pk) continue;
                std::int64_t key = type == ValueType::kNull ? next_pk : integer;
                if (key < next_pk)
                    ascending = false;
                else
                    next_pk = key + 1;
                keys_.push_back(key);
            }
        }
        if (!ascending) {
            std::sort(keys_.begin(), keys_.end());
            auto dup = std::adjacent_find(keys_.begin(), keys_.end());
            if (dup != keys_.end())
                throw SchemaError("duplicate primary key " +
                                  std::to_string(*dup) + " in '" + def.name +
                                  "'");
        }
        for (const Table::IndexDef& idx : h.indexes)
            if (def.column_index(idx.column) < 0)
                throw SchemaError("cannot index unknown column '" +
                                  idx.column + "' in '" + def.name + "'");
        expect_end_of_rows(in);
        tables_.push_back({def.name, h.rows, h.next_pk});
    }

    void foreign_key(ForeignKeyDef, const std::string&) {}

    [[nodiscard]] std::vector<SnapshotTable> take_tables() {
        return std::move(tables_);
    }

private:
    std::vector<SnapshotTable> tables_;
    std::vector<std::int64_t> keys_;  ///< reused across tables
};

/// The section walker shared by every reader: header, framing, CRC and
/// section tags, then `sections` decides what a table or foreign-key
/// section does.  `report == nullptr` is strict: the first damaged byte
/// throws CorruptionError.  With a report, damaged or unappliable
/// sections are dropped (resyncing on the next valid frame) and
/// accounted.
template <typename Sections>
SnapshotStats decode_snapshot(const std::string& path, Sections& sections,
                              SalvageReport* report) {
    const bool salvage = report != nullptr;
    const std::string data = read_file(path);
    const std::string context = "snapshot '" + path + "'";
    // The header is non-negotiable even under salvage: without magic and
    // version this is not a snapshot, and "salvaging" an arbitrary file
    // would invent data.
    if (data.size() < sizeof(kMagic) + 4 ||
        std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        throw CorruptionError("bad magic (not a snapshot file)", path, 0,
                              "header");
    if (std::uint32_t v = serial::le32_at(data, sizeof(kMagic)); v != kVersion)
        throw CorruptionError("unsupported version " + std::to_string(v), path,
                              sizeof(kMagic), "header");

    SnapshotStats stats;
    stats.bytes = data.size();
    std::size_t pos = sizeof(kMagic) + 4;
    bool saw_end = false;
    std::size_t section_no = 0;

    auto drop_region = [&](std::size_t upto, const std::string& why) {
        ++report->snapshot_sections_dropped;
        report->snapshot_bytes_dropped += upto - pos;
        report->notes.push_back(context + " section " +
                                std::to_string(section_no) + ": dropped " +
                                std::to_string(upto - pos) + " bytes (" + why +
                                ")");
        pos = upto;
        ++section_no;
    };

    while (!saw_end && pos < data.size()) {
        const std::string section_name = "section " + std::to_string(section_no);
        const std::string section_ctx = context + " " + section_name;
        std::size_t left = data.size() - pos;

        // Frame checks, reported individually so the error says *how* the
        // frame is broken, not just that it is.
        std::string damage;
        auto type = static_cast<std::uint8_t>(left >= 1 ? data[pos] : 0);
        std::uint32_t len = 0;
        if (left < 9) {
            damage = "truncated before the end marker";
        } else {
            len = serial::le32_at(data, pos + 1);
            if (left < 9 + static_cast<std::size_t>(len))
                damage = "truncated payload (header claims " +
                         std::to_string(len) + " bytes, " +
                         std::to_string(left - 9) + " present)";
            else if (checksum::crc32(std::string_view(data).substr(
                         pos, 5 + len)) != serial::le32_at(data, pos + 5 + len))
                damage = "CRC mismatch — snapshot is corrupt";
            else if (type < kTableSection || type > kEndSection)
                damage = "unknown section type " + std::to_string(type);
        }
        if (!damage.empty()) {
            if (!salvage)
                throw CorruptionError(damage, path, pos, section_name);
            std::size_t next = find_next_valid_section(data, pos + 1);
            if (next == std::string::npos) {
                drop_region(data.size(), damage + "; no later valid section");
                break;
            }
            drop_region(next, damage);
            continue;
        }

        serial::Reader in(std::string_view(data).substr(pos + 5, len),
                          section_ctx, path, pos + 5);
        try {
            switch (type) {
                case kTableSection: {
                    TableHeader h = read_table_header(in);
                    std::uint64_t rows = h.rows;
                    sections.table(in, std::move(h));
                    ++stats.tables;
                    stats.rows += rows;
                    break;
                }
                case kForeignKeySection: {
                    std::uint32_t count = in.u32();
                    // four length-prefixed names per constraint
                    in.need_items(count, 16, "foreign key");
                    for (std::uint32_t i = 0; i < count; ++i) {
                        ForeignKeyDef fk;
                        fk.table = in.string();
                        fk.column = in.string();
                        fk.ref_table = in.string();
                        fk.ref_column = in.string();
                        sections.foreign_key(std::move(fk), section_ctx);
                    }
                    break;
                }
                case kEndSection:
                    saw_end = true;
                    break;
            }
        } catch (const CorruptionError&) {
            if (!salvage) throw;
            std::size_t next = find_next_valid_section(data, pos + 9 + len);
            drop_region(next == std::string::npos ? data.size()
                                                  : std::min(next, data.size()),
                        "unreadable payload");
            continue;
        } catch (const Error& e) {
            // A CRC-valid section the database refuses (duplicate table,
            // duplicate pk, type mismatch): semantic corruption.
            if (!salvage)
                throw CorruptionError("cannot apply section: " +
                                          std::string(e.what()),
                                      path, pos, section_name);
            drop_region(pos + 9 + len, std::string("unappliable section: ") +
                                           e.bare_message());
            continue;
        }
        pos += 9 + static_cast<std::size_t>(len);
        ++section_no;
    }

    if (!saw_end) {
        if (!salvage)
            throw CorruptionError("truncated before the end marker", path, pos,
                                  "section " + std::to_string(section_no));
        report->notes.push_back(context + ": end marker missing");
    } else if (pos != data.size()) {
        // A well-formed snapshot ends exactly at the end marker; trailing
        // bytes mean the file grew after it was sealed.
        if (!salvage)
            throw CorruptionError("trailing bytes after the end marker (" +
                                      std::to_string(data.size() - pos) +
                                      " bytes)",
                                  path, pos, "trailer");
        report->notes.push_back(
            context + ": ignored " + std::to_string(data.size() - pos) +
            " trailing bytes after the end marker");
    }
    return stats;
}

SnapshotStats read_snapshot_into(const std::string& path, Database& db,
                                 SalvageReport* report) {
    if (db.table_count() != 0)
        throw SchemaError("read_snapshot requires an empty database");
    ApplySections sections(db, report);
    return decode_snapshot(path, sections, report);
}

}  // namespace

SnapshotStats read_snapshot(const std::string& path, Database& db) {
    return read_snapshot_into(path, db, nullptr);
}

SnapshotStats read_snapshot_salvage(const std::string& path, Database& db,
                                    SalvageReport& report) {
    return read_snapshot_into(path, db, &report);
}

std::vector<SnapshotTable> check_snapshot(const std::string& path) {
    CheckSections sections;
    decode_snapshot(path, sections, nullptr);
    return sections.take_tables();
}

}  // namespace xr::rdb
