// Durable storage (DESIGN.md §8): checksummed snapshots, the write-ahead
// log, and crash recovery through Database::open().  Covers the format
// edge cases — empty WAL, WAL-only and snapshot-only recovery, corrupt
// CRCs mid-file, valid-header/truncated-payload records — plus fault
// points and the recovery report.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/fault.hpp"
#include "helpers.hpp"
#include "rdb/snapshot.hpp"
#include "rdb/wal.hpp"

namespace xr {
namespace {

namespace fs = std::filesystem;

struct ArmedFault {
    explicit ArmedFault(std::string_view point, long countdown = 1) {
        fault::arm(point, countdown);
    }
    ~ArmedFault() { fault::disarm(); }
};

std::string article(int n) {
    std::string i = std::to_string(n);
    return "<article><title>t" + i + "</title><author id=\"a" + i +
           "\"><name><lastname>L" + i +
           "</lastname></name></author><contactauthor authorid=\"a" + i +
           "\"/></article>";
}

std::vector<std::string> corpus(int n) {
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) out.push_back(article(i));
    return out;
}

/// Plain two-column table for the direct Database-level tests.
rdb::TableDef simple_def() {
    rdb::TableDef def;
    def.name = "t";
    def.columns.push_back({"id", rdb::ValueType::kInteger, true, true});
    def.columns.push_back({"val", rdb::ValueType::kText, false, false});
    return def;
}

void flip_byte_at(const std::string& path, std::size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x5A));
}

void append_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    ASSERT_TRUE(f.is_open()) << path;
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// -- checksum & file naming --------------------------------------------------

TEST(Durability, Crc32MatchesKnownVectors) {
    // The standard CRC-32/IEEE check value.
    EXPECT_EQ(checksum::crc32(std::string_view("123456789")), 0xCBF43926u);
    EXPECT_EQ(checksum::crc32(std::string_view("")), 0u);
    // Incremental == one-shot.
    std::string_view s = "hello world";
    std::uint32_t once = checksum::crc32(s);
    std::uint32_t split = checksum::crc32(s.substr(5), checksum::crc32(s.substr(0, 5)));
    EXPECT_EQ(once, split);
}

TEST(Durability, StorageFileNamesRoundTrip) {
    EXPECT_EQ(fs::path(rdb::wal_file("d", 7)).filename(), "wal-000007.log");
    EXPECT_EQ(fs::path(rdb::snapshot_file("d", 7)).filename(),
              "snapshot-000007.xrs");
    std::uint64_t seq = 0;
    EXPECT_TRUE(rdb::parse_seq("wal-000042.log", "wal-", ".log", seq));
    EXPECT_EQ(seq, 42u);
    EXPECT_TRUE(rdb::parse_seq("snapshot-000001.xrs", "snapshot-", ".xrs", seq));
    EXPECT_EQ(seq, 1u);
    EXPECT_FALSE(rdb::parse_seq("wal-xx.log", "wal-", ".log", seq));
    EXPECT_FALSE(rdb::parse_seq("journal.log", "wal-", ".log", seq));
}

// -- basic recovery shapes ---------------------------------------------------

TEST(Durability, OpenFreshDirectoryStartsEmpty) {
    test::TempDir dir;
    rdb::Database db;
    rdb::RecoveryReport report = db.open(dir.path());
    EXPECT_TRUE(db.durable());
    EXPECT_EQ(db.data_dir(), dir.path());
    EXPECT_TRUE(report.snapshot_path.empty());
    EXPECT_EQ(report.records_replayed, 0u);
    EXPECT_EQ(db.table_count(), 0u);
    // The WAL segment exists eagerly so the recovery chain never has holes.
    EXPECT_TRUE(fs::exists(rdb::wal_file(dir.path(), 0)));
}

TEST(Durability, WalOnlyRecoveryRestoresCommittedLoad) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        loader::LoadReport report = test::load_texts(stack, corpus(3));
        ASSERT_TRUE(report.ok());
        expected = test::db_fingerprint(stack.db);
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_TRUE(reopened.recovery.snapshot_path.empty());
    EXPECT_GT(reopened.recovery.records_replayed, 0u);
    EXPECT_EQ(reopened.recovery.torn_bytes_dropped, 0u);
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
}

TEST(Durability, EmptyWalSegmentRecoversCleanly) {
    test::TempDir dir;
    { rdb::Database db; db.open(dir.path()); }  // wal-0 created, never written
    rdb::Database db;
    rdb::RecoveryReport report = db.open(dir.path());
    EXPECT_EQ(report.records_replayed, 0u);
    EXPECT_EQ(report.units_rolled_back, 0u);
    EXPECT_EQ(db.table_count(), 0u);
}

TEST(Durability, SnapshotOnlyRecovery) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        rdb::DurabilityOptions opts;
        opts.use_wal = false;
        test::DurableStack stack(gen::paper_dtd(), dir.path(), opts);
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        stack.db.checkpoint();
        expected = test::db_fingerprint(stack.db);
    }
    rdb::DurabilityOptions opts;
    opts.use_wal = false;
    test::DurableStack reopened(gen::paper_dtd(), dir.path(), opts);
    EXPECT_EQ(reopened.recovery.snapshot_seq, 1u);
    EXPECT_EQ(reopened.recovery.wal_segments, 0u);
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
}

TEST(Durability, SnapshotPlusWalReplayRecovery) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        stack.db.checkpoint();
        ASSERT_TRUE(test::load_texts(stack, {article(2), article(3)}).ok());
        expected = test::db_fingerprint(stack.db);
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_EQ(reopened.recovery.snapshot_seq, 1u);
    EXPECT_GT(reopened.recovery.records_replayed, 0u);
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
    std::string summary = reopened.recovery.to_string();
    EXPECT_NE(summary.find("snapshot seq 1"), std::string::npos) << summary;
}

// -- snapshot round trip -----------------------------------------------------

TEST(Durability, SnapshotRoundTripPreservesEverything) {
    test::TempDir dir;
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    std::string path = rdb::snapshot_file(dir.path(), 1);
    rdb::SnapshotStats written = rdb::write_snapshot(stack.db, path);
    EXPECT_EQ(written.rows, stack.db.total_rows());
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    rdb::Database copy;
    rdb::SnapshotStats read = rdb::read_snapshot(path, copy);
    EXPECT_EQ(read.tables, written.tables);
    EXPECT_EQ(read.rows, written.rows);
    EXPECT_EQ(test::db_fingerprint(copy), test::db_fingerprint(stack.db));
    EXPECT_EQ(copy.foreign_keys().size(), stack.db.foreign_keys().size());
    for (const auto& name : stack.db.table_names()) {
        const rdb::Table& a = stack.db.require(name);
        const rdb::Table& b = copy.require(name);
        EXPECT_EQ(b.peek_next_pk(), a.peek_next_pk()) << name;
        ASSERT_EQ(b.index_defs().size(), a.index_defs().size()) << name;
        for (std::size_t i = 0; i < a.index_defs().size(); ++i) {
            EXPECT_EQ(b.index_defs()[i].column, a.index_defs()[i].column);
            EXPECT_EQ(b.index_defs()[i].kind, a.index_defs()[i].kind);
        }
    }
}

// -- corruption ---------------------------------------------------------------

TEST(Durability, CorruptNewestSnapshotFallsBackToOlder) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        stack.db.checkpoint();  // snapshot-1 / wal-1
        ASSERT_TRUE(test::load_texts(stack, {article(2)}).ok());
        stack.db.checkpoint();  // snapshot-2 / wal-2
        ASSERT_TRUE(test::load_texts(stack, {article(3)}).ok());
        expected = test::db_fingerprint(stack.db);
    }
    std::string snap2 = rdb::snapshot_file(dir.path(), 2);
    flip_byte_at(snap2, fs::file_size(snap2) / 2);

    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_EQ(reopened.recovery.snapshots_skipped, 1u);
    EXPECT_EQ(reopened.recovery.snapshot_seq, 1u);
    // wal-1 and wal-2 replay on top of snapshot-1 to the same state.
    EXPECT_EQ(reopened.recovery.wal_segments, 2u);
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
}

TEST(Durability, CorruptOnlySnapshotWithoutWalIsPreciseError) {
    test::TempDir dir;
    {
        rdb::DurabilityOptions opts;
        opts.use_wal = false;
        test::DurableStack stack(gen::paper_dtd(), dir.path(), opts);
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        stack.db.checkpoint();
    }
    std::string snap = rdb::snapshot_file(dir.path(), 1);
    flip_byte_at(snap, fs::file_size(snap) / 2);
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.use_wal = false;
    try {
        db.open(dir.path(), opts);
        FAIL() << "open() accepted a corrupt snapshot";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("every snapshot is corrupt"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Durability, ReadSnapshotReportsCrcMismatch) {
    test::TempDir dir;
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    std::string path = rdb::snapshot_file(dir.path(), 1);
    rdb::write_snapshot(stack.db, path);
    flip_byte_at(path, fs::file_size(path) / 2);
    rdb::Database copy;
    try {
        rdb::read_snapshot(path, copy);
        FAIL() << "read_snapshot accepted a corrupt section";
    } catch (const Error& e) {
        std::string msg = e.what();
        EXPECT_TRUE(msg.find("CRC mismatch") != std::string::npos ||
                    msg.find("truncated") != std::string::npos)
            << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
}

TEST(Durability, TruncatedSnapshotIsRejected) {
    test::TempDir dir;
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    std::string path = rdb::snapshot_file(dir.path(), 1);
    rdb::write_snapshot(stack.db, path);
    fs::resize_file(path, fs::file_size(path) - 5);  // cut into the end marker
    rdb::Database copy;
    EXPECT_THROW(rdb::read_snapshot(path, copy), Error);
}

TEST(Durability, TornWalTailIsTruncatedAndReported) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        expected = test::db_fingerprint(stack.db);
    }
    std::string wal = rdb::wal_file(dir.path(), 0);
    std::uintmax_t clean_size = fs::file_size(wal);
    append_bytes(wal, "torn!");

    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_EQ(reopened.recovery.torn_bytes_dropped, 5u);
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
    // Physically truncated: new appends start on a clean record boundary.
    EXPECT_EQ(fs::file_size(wal), clean_size);
}

TEST(Durability, ValidHeaderTruncatedPayloadIsATornTail) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        expected = test::db_fingerprint(stack.db);
    }
    // A plausible insert record header claiming a 1000-byte payload,
    // followed by only a few bytes — the classic mid-record crash.
    std::string fake;
    fake.push_back(static_cast<char>(8));  // insert record type
    fake.push_back(static_cast<char>(0xE8));
    fake.push_back(static_cast<char>(0x03));
    fake.push_back(static_cast<char>(0x00));
    fake.push_back(static_cast<char>(0x00));  // len = 1000, little endian
    fake += "abc";
    std::string wal = rdb::wal_file(dir.path(), 0);
    append_bytes(wal, fake);

    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_EQ(reopened.recovery.torn_bytes_dropped, fake.size());
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
}

TEST(Durability, TornTailInOlderSegmentBreaksTheChain) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        stack.db.checkpoint();  // snapshot-1 / wal-1
        ASSERT_TRUE(test::load_texts(stack, {article(2)}).ok());
    }
    // Force recovery back onto snapshot-0-era replay: corrupt snapshot-1
    // AND tear wal-0, which is now mid-chain.
    std::string snap = rdb::snapshot_file(dir.path(), 1);
    flip_byte_at(snap, fs::file_size(snap) / 2);
    append_bytes(rdb::wal_file(dir.path(), 0), "xx");

    rdb::Database db;
    try {
        db.open(dir.path());
        FAIL() << "open() accepted a torn mid-chain WAL segment";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("torn record"), std::string::npos)
            << e.what();
    }
}

// -- replay semantics --------------------------------------------------------

TEST(Durability, UncommittedUnitIsRolledBackOnRecovery) {
    test::TempDir dir;
    {
        rdb::Database db;
        db.open(dir.path());
        rdb::Table& t = db.create_table(simple_def());
        db.begin_unit();
        t.insert({rdb::Value(), rdb::Value("committed")});
        db.commit_unit();
        db.begin_unit();
        t.insert({rdb::Value(), rdb::Value("in flight")});
        db.flush_wal();  // frames reach disk, the commit never does
    }
    rdb::Database db;
    rdb::RecoveryReport report = db.open(dir.path());
    EXPECT_EQ(report.units_rolled_back, 1u);
    ASSERT_NE(db.table("t"), nullptr);
    ASSERT_EQ(db.require("t").row_count(), 1u);
    EXPECT_EQ(db.require("t").row(0)[1].to_string(), "committed");
}

TEST(Durability, ReplayCoversUpdateDeleteAndIndexes) {
    test::TempDir dir;
    {
        rdb::Database db;
        db.open(dir.path());
        rdb::Table& t = db.create_table(simple_def());
        t.create_index("val", rdb::IndexKind::kOrdered);
        db.begin_unit();
        std::int64_t a = t.insert({rdb::Value(), rdb::Value("a")});
        t.insert({rdb::Value(), rdb::Value("b")});
        t.insert({rdb::Value(), rdb::Value("drop me")});
        t.update(*t.find_pk_rowid(a), "val", rdb::Value("a2"));
        db.commit_unit();
        t.delete_where("val", rdb::Value("drop me"));
        db.flush_wal();
    }
    rdb::Database db;
    db.open(dir.path());
    const rdb::Table& t = db.require("t");
    ASSERT_EQ(t.row_count(), 2u);
    EXPECT_EQ(t.row(0)[1].to_string(), "a2");
    EXPECT_EQ(t.row(1)[1].to_string(), "b");
    ASSERT_EQ(t.index_defs().size(), 1u);
    EXPECT_EQ(t.index_defs()[0].column, "val");
    EXPECT_EQ(t.index_defs()[0].kind, rdb::IndexKind::kOrdered);
    EXPECT_EQ(t.index_lookup("val", rdb::Value("b")).size(), 1u);
}

TEST(Durability, RecoveryReplayFaultPropagates) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    }
    rdb::Database db;
    ArmedFault armed("recovery.replay", 3);
    EXPECT_THROW(db.open(dir.path()), fault::InjectedFault);
}

// -- checkpoint ---------------------------------------------------------------

TEST(Durability, CheckpointRefusedWhileUnitOpen) {
    test::TempDir dir;
    rdb::Database db;
    db.open(dir.path());
    db.create_table(simple_def());
    db.begin_unit();
    EXPECT_THROW(db.checkpoint(), SchemaError);
    db.rollback_unit();
    EXPECT_NO_THROW(db.checkpoint());
}

TEST(Durability, CheckpointRequiresOpenDataDir) {
    rdb::Database db;
    EXPECT_THROW(db.checkpoint(), SchemaError);
}

TEST(Durability, CheckpointTimesEachPhase) {
    test::TempDir dir;
    test::DurableStack stack(gen::paper_dtd(), dir.path());
    ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    auto t0 = std::chrono::steady_clock::now();
    rdb::SnapshotStats stats = stack.db.checkpoint();
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_GT(stats.rows, 0u);
    EXPECT_GE(stats.serialize_ms, 0.0);
    EXPECT_GE(stats.write_ms, 0.0);
    EXPECT_GT(stats.verify_ms, 0.0);
    EXPECT_GE(stats.rotate_ms, 0.0);
    EXPECT_LE(stats.serialize_ms + stats.write_ms + stats.verify_ms +
                  stats.rotate_ms,
              wall_ms);
}

TEST(Durability, SnapshotFaultsLeaveOldChainAuthoritative) {
    for (const char* point : {"snapshot.write", "snapshot.rename"}) {
        test::TempDir dir;
        std::vector<std::string> expected;
        {
            test::DurableStack stack(gen::paper_dtd(), dir.path());
            ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
            expected = test::db_fingerprint(stack.db);
            ArmedFault armed(point);
            EXPECT_THROW(stack.db.checkpoint(), fault::InjectedFault) << point;
            fault::disarm();
            // The failed checkpoint left no snapshot and no temp litter.
            EXPECT_FALSE(fs::exists(rdb::snapshot_file(dir.path(), 1))) << point;
            EXPECT_FALSE(fs::exists(rdb::snapshot_file(dir.path(), 1) + ".tmp"))
                << point;
            // The database keeps working after the failed checkpoint.
            ASSERT_TRUE(test::load_texts(stack, {article(2)}).ok());
            expected = test::db_fingerprint(stack.db);
        }
        test::DurableStack reopened(gen::paper_dtd(), dir.path());
        EXPECT_TRUE(reopened.recovery.snapshot_path.empty()) << point;
        EXPECT_EQ(test::db_fingerprint(reopened.db), expected) << point;
    }
}

// -- format stability ---------------------------------------------------------

/// 64-bit FNV-1a, independent of the storage code's own CRC.
std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string file_bytes(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(Durability, SnapshotAndWalBytesAreStable) {
    // A small fixed database that touches every record type and every
    // value encoding.  The digests pin the on-disk format: an encoder
    // change that alters a single byte of either file fails here.
    test::TempDir dir;
    {
        rdb::Database db;
        db.open(dir.path());
        rdb::TableDef def = simple_def();
        def.columns.push_back({"score", rdb::ValueType::kReal, false, false});
        def.columns.push_back({"n", rdb::ValueType::kInteger, true, false});
        rdb::Table& t = db.create_table(def);
        t.create_index("val", rdb::IndexKind::kHash);
        t.create_index("n", rdb::IndexKind::kOrdered);
        rdb::TableDef child;
        child.name = "child";
        child.columns.push_back({"id", rdb::ValueType::kInteger, true, true});
        child.columns.push_back({"parent", rdb::ValueType::kInteger, false, false});
        db.create_table(child);
        db.add_foreign_key({"child", "parent", "t", "id"});
        db.begin_unit();
        std::int64_t a = t.insert({rdb::Value(), rdb::Value("alpha"),
                                   rdb::Value(2.5), rdb::Value(-7)});
        t.insert({rdb::Value(), rdb::Value(""), rdb::Value(),
                  rdb::Value(std::int64_t{1} << 40)});
        t.insert({rdb::Value(), rdb::Value("gone"), rdb::Value(-0.125),
                  rdb::Value(3)});
        db.require("child").insert({rdb::Value(), rdb::Value(a)});
        db.commit_unit();
        db.begin_unit();
        t.insert({rdb::Value(), rdb::Value("rolled back"), rdb::Value(1.0),
                  rdb::Value(9)});
        db.rollback_unit();
        db.begin_unit();
        t.update(*t.find_pk_rowid(a), "val", rdb::Value("alpha2"));
        db.commit_unit();
        t.delete_where("val", rdb::Value("gone"));
        rdb::TableDef scratch;
        scratch.name = "scratch";
        scratch.columns.push_back({"x", rdb::ValueType::kText, false, false});
        db.create_table(scratch);
        db.drop_table("scratch");
        db.flush_wal();
        db.checkpoint();
    }
    std::string snapshot = file_bytes(rdb::snapshot_file(dir.path(), 1));
    std::string wal = file_bytes(rdb::wal_file(dir.path(), 0));
    EXPECT_EQ(snapshot.size(), 311u);
    EXPECT_EQ(fnv1a(snapshot), 13347712613588427516ull);
    EXPECT_EQ(wal.size(), 600u);
    EXPECT_EQ(fnv1a(wal), 11022470106181062937ull);
}

// -- loader integration -------------------------------------------------------

TEST(Durability, DocIdsResumeAfterReopen) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    auto doc = xml::parse_document(article(2));
    EXPECT_EQ(reopened.loader->load(*doc), 3);  // ids 1 and 2 are taken
}

TEST(Durability, ReopenedDatabaseEqualsContinuousLoad) {
    // Load 2 docs durably, restart, load 2 more; the result must match a
    // single uninterrupted 4-doc load into a plain in-memory stack.
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    ASSERT_TRUE(
        test::load_texts(reopened, {article(2), article(3)}).ok());

    test::Stack reference(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(reference, corpus(4)).ok());
    EXPECT_EQ(test::db_fingerprint(reopened.db),
              test::db_fingerprint(reference.db));
}

}  // namespace
}  // namespace xr
