// Storage integrity (DESIGN.md §14): Database::verify() invariant
// coverage, typed CorruptionError context, the torn-tail vs mid-segment
// WAL rule, checkpoint verification, salvage repair, and seeded fuzzing
// of both storage readers (snapshot and WAL) under byte mutation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/fault.hpp"
#include "helpers.hpp"
#include "rdb/database.hpp"
#include "rdb/integrity.hpp"
#include "rdb/serial.hpp"
#include "rdb/snapshot.hpp"
#include "rdb/wal.hpp"

namespace xr {
namespace {

namespace fs = std::filesystem;

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

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.is_open()) << path;
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

/// Deterministic generator for the fuzz legs (no std::random to keep the
/// sequences identical across platforms).
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed ^ 0x9E3779B97F4A7C15ull) {}
    std::uint64_t next() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    std::size_t below(std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
    }
};

/// One seeded mutation: bit flip, truncation, extension, or zeroed run.
std::string mutate(const std::string& pristine, Rng& rng) {
    std::string bytes = pristine;
    switch (rng.below(4)) {
        case 0: {  // flip one byte
            if (bytes.empty()) break;
            std::size_t at = rng.below(bytes.size());
            bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.below(8)));
            break;
        }
        case 1: {  // truncate
            bytes.resize(rng.below(bytes.size() + 1));
            break;
        }
        case 2: {  // extend with garbage
            std::size_t extra = 1 + rng.below(64);
            for (std::size_t i = 0; i < extra; ++i)
                bytes.push_back(static_cast<char>(rng.next() & 0xFF));
            break;
        }
        default: {  // zero a run
            if (bytes.empty()) break;
            std::size_t at = rng.below(bytes.size());
            std::size_t len = 1 + rng.below(16);
            for (std::size_t i = at; i < bytes.size() && i < at + len; ++i)
                bytes[i] = 0;
            break;
        }
    }
    return bytes;
}

struct ArmedFault {
    explicit ArmedFault(std::string_view point, long countdown = 1) {
        fault::arm(point, countdown);
    }
    ~ArmedFault() { fault::disarm(); }
};

// -- the report itself -------------------------------------------------------

TEST(Integrity, ReportCapsIssuesAndCountsSuppressed) {
    rdb::IntegrityReport report;
    for (int i = 0; i < 300; ++i)
        report.add({rdb::IntegrityIssue::Severity::kError, "check", "t", -1,
                    "issue " + std::to_string(i)});
    EXPECT_EQ(report.issues.size(), rdb::IntegrityReport::kMaxIssues);
    EXPECT_EQ(report.issues_suppressed,
              300 - rdb::IntegrityReport::kMaxIssues);
    EXPECT_EQ(report.errors(), 300u);
    EXPECT_FALSE(report.clean());
    EXPECT_NE(report.to_string().find("suppressed"), std::string::npos);
}

TEST(Integrity, CorruptionErrorCarriesContext) {
    CorruptionError e("CRC mismatch", "/data/snapshot-000001.xrs", 1234,
                      "section 2 (table)");
    EXPECT_EQ(e.file(), "/data/snapshot-000001.xrs");
    EXPECT_EQ(e.offset(), 1234u);
    EXPECT_EQ(e.section(), "section 2 (table)");
    std::string what = e.what();
    EXPECT_NE(what.find("snapshot-000001.xrs"), std::string::npos);
    EXPECT_NE(what.find("byte offset 1234"), std::string::npos);
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos);
    // And it still lands in the catch(Error&) sites the codebase uses.
    EXPECT_THROW(throw CorruptionError("x"), Error);
}

// -- verify() on healthy databases -------------------------------------------

TEST(Integrity, VerifyCleanOnLoadedCorpus) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(5)).ok());
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.docs_checked, 5u);
    EXPECT_GT(report.tables_checked, 0u);
    EXPECT_GT(report.rows_checked, 0u);
}

TEST(Integrity, VerifyCleanOnEmptyDatabase) {
    rdb::Database db;
    rdb::IntegrityReport report = db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.tables_checked, 0u);
}

TEST(Integrity, VerifyCleanAfterRecovery) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    rdb::IntegrityReport report = reopened.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.docs_checked, 3u);
}

TEST(Integrity, VerifyRunsConcurrentlyWithWriters) {
    test::Stack stack(gen::paper_dtd());
    std::thread writer([&] {
        for (int i = 0; i < 20; ++i) {
            auto doc = xml::parse_document(article(i));
            stack.loader->load(*doc);
        }
    });
    // Every snapshot the checker takes must be internally consistent, no
    // matter where the writer is between units.
    for (int i = 0; i < 10; ++i) {
        rdb::IntegrityReport report = stack.db.verify();
        EXPECT_TRUE(report.clean()) << report.to_string();
    }
    writer.join();
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(report.docs_checked, 20u);
}

// -- targeted invariant violations -------------------------------------------

TEST(Integrity, VerifyFlagsOrphanedDocRows) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
    // Deregister the first document while its rows stay behind.
    rdb::Table* docs = stack.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr);
    ASSERT_EQ(docs->row_count(), 2u);
    std::int64_t victim = docs->at(0, "doc").as_integer();
    ASSERT_EQ(docs->delete_where("doc", rdb::Value(victim)), 1u);
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_FALSE(report.clean());
    bool orphan = false;
    for (const auto& issue : report.issues)
        orphan = orphan || (issue.check == "doc-orphan" && issue.doc == victim);
    EXPECT_TRUE(orphan) << report.to_string();
}

TEST(Integrity, VerifyFlagsBrokenLabelCoverage) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    // Push one row's pre label outside the document's registered range.
    bool damaged = false;
    for (const auto& name : stack.db.table_names()) {
        rdb::Table* t = stack.db.table(name);
        if (name == "xrel_docs" || t->row_count() == 0) continue;
        int pre = t->def().column_index("pre");
        if (pre < 0) continue;
        t->update(0, "pre", rdb::Value(std::int64_t{1} << 40));
        damaged = true;
        break;
    }
    ASSERT_TRUE(damaged) << "no labeled table found";
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_FALSE(report.clean());
    bool coverage = false;
    for (const auto& issue : report.issues)
        coverage = coverage || (issue.check == "dietz-coverage" ||
                                issue.check == "dietz-nesting");
    EXPECT_TRUE(coverage) << report.to_string();
}

TEST(Integrity, VerifyFlagsDuplicateDocRegistration) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(1)).ok());
    rdb::Table* docs = stack.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr);
    ASSERT_EQ(docs->row_count(), 1u);
    rdb::Row dup = docs->row(0).to_row();
    dup[0] = rdb::Value::null();  // fresh pk
    docs->insert(std::move(dup));
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_FALSE(report.clean());
    bool duplicate = false;
    for (const auto& issue : report.issues)
        duplicate = duplicate || issue.check == "doc-duplicate";
    EXPECT_TRUE(duplicate) << report.to_string();
}

TEST(Integrity, SalvageRepairQuarantinesBrokenDocument) {
    test::Stack stack(gen::paper_dtd());
    ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    // Break doc 1's label interval.
    bool damaged = false;
    for (const auto& name : stack.db.table_names()) {
        rdb::Table* t = stack.db.table(name);
        if (name == "xrel_docs" || t->def().column_index("pre") < 0) continue;
        int dc = t->def().column_index("doc");
        if (dc < 0) continue;
        for (rdb::RowId id = 0; id < t->row_count() && !damaged; ++id) {
            if (t->row(id)[static_cast<std::size_t>(dc)].as_integer() != 1)
                continue;
            t->update(id, "pre", rdb::Value(std::int64_t{1} << 40));
            damaged = true;
        }
        if (damaged) break;
    }
    ASSERT_TRUE(damaged);
    ASSERT_FALSE(stack.db.verify().clean());

    rdb::SalvageReport sr;
    std::size_t quarantined = rdb::salvage_repair(stack.db, sr);
    EXPECT_EQ(quarantined, 1u);
    EXPECT_EQ(sr.docs_quarantined, 1u);
    EXPECT_GT(sr.rows_purged, 0u);
    rdb::IntegrityReport report = stack.db.verify();
    EXPECT_TRUE(report.clean()) << report.to_string();
    // Docs 0 and 2 stay; doc 1 is deregistered and traced in quarantine.
    rdb::Table* docs = stack.db.table("xrel_docs");
    ASSERT_NE(docs, nullptr);
    EXPECT_EQ(docs->row_count(), 2u);
    rdb::Table* q = stack.db.table("xrel_quarantine");
    ASSERT_NE(q, nullptr);
    ASSERT_EQ(q->row_count(), 1u);
    EXPECT_EQ(q->at(0, "idx").as_integer(), 1);
    EXPECT_EQ(q->at(0, "error_type").as_text(), "salvage");
    // Idempotent: a second pass finds nothing more to repair.
    rdb::SalvageReport again;
    EXPECT_EQ(rdb::salvage_repair(stack.db, again), 0u);
    EXPECT_FALSE(again.any());
}

// -- typed snapshot corruption ----------------------------------------------

TEST(Integrity, SnapshotCorruptionErrorNamesFileOffsetSection) {
    test::TempDir dir;
    rdb::Database db;
    db.open(dir.path());
    rdb::TableDef def;
    def.name = "t";
    def.columns.push_back({"id", rdb::ValueType::kInteger, true, true});
    def.columns.push_back({"val", rdb::ValueType::kText, false, false});
    rdb::Table& t = db.create_table(std::move(def));
    for (int i = 0; i < 16; ++i)
        t.insert({rdb::Value::null(), rdb::Value("v" + std::to_string(i))});
    db.checkpoint();
    std::string path = rdb::snapshot_file(dir.path(), 1);
    ASSERT_TRUE(fs::exists(path));
    flip_byte_at(path, 40);  // inside the first table section's payload

    rdb::Database target;
    try {
        xr::rdb::read_snapshot(path, target);
        FAIL() << "corrupt snapshot read back cleanly";
    } catch (const CorruptionError& e) {
        EXPECT_EQ(e.file(), path);
        EXPECT_GT(e.offset() + 1, 0u);  // offset is meaningful, not junk
        EXPECT_FALSE(e.section().empty());
        EXPECT_NE(std::string(e.what()).find("CRC mismatch"),
                  std::string::npos);
    }
}

TEST(Integrity, SnapshotSalvageDropsDamagedSectionAndReports) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(4)).ok());
        stack.db.checkpoint();
    }
    std::string snap = rdb::snapshot_file(dir.path(), 1);
    ASSERT_TRUE(fs::exists(snap));
    // Strict recovery still has the full WAL chain, so damage to the
    // snapshot alone is survivable; remove wal-0 to force the snapshot
    // to be the only source, then damage it.
    fs::remove(rdb::wal_file(dir.path(), 0));
    flip_byte_at(snap, fs::file_size(snap) / 2);

    {
        rdb::Database strict;
        EXPECT_THROW(strict.open(dir.path()), CorruptionError);
    }
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.recovery = rdb::RecoveryMode::kSalvage;
    rdb::RecoveryReport report = db.open(dir.path(), opts);
    EXPECT_TRUE(report.salvage.attempted);
    EXPECT_TRUE(report.salvage.any());
    EXPECT_GT(report.salvage.snapshot_sections_dropped +
                  report.salvage.wal_segments_missing,
              0u);
    rdb::IntegrityReport integrity = db.verify();
    EXPECT_TRUE(integrity.clean()) << integrity.to_string();
    // The salvage open checkpointed a verified image: a plain strict
    // reopen must now succeed.
    {
        rdb::Database again;
        EXPECT_NO_THROW(again.open(dir.path()));
    }
}

// -- the torn-tail vs mid-segment WAL rule -----------------------------------

TEST(Integrity, MidSegmentWalCorruptionFailsStrictRecovery) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(4)).ok());
    }
    std::string wal = rdb::wal_file(dir.path(), 0);
    ASSERT_GT(fs::file_size(wal), 64u);
    // Damage the FIRST record while committed records follow: a crash
    // cannot produce this shape (appends are sequential), so treating it
    // as a torn tail would silently drop everything behind the flip.
    flip_byte_at(wal, 12);
    rdb::Database db;
    try {
        db.open(dir.path());
        FAIL() << "mid-segment corruption recovered as if torn";
    } catch (const CorruptionError& e) {
        EXPECT_EQ(e.file(), wal);
        EXPECT_NE(std::string(e.what()).find("mid-segment"),
                  std::string::npos);
    }
}

TEST(Integrity, TornRecordInOlderSegmentBreaksTheChain) {
    test::TempDir dir;
    {
        rdb::Database db;
        db.open(dir.path());
        rdb::TableDef def;
        def.name = "t";
        def.columns.push_back({"id", rdb::ValueType::kInteger, true, true});
        def.columns.push_back({"val", rdb::ValueType::kText, false, false});
        db.create_table(def);
        db.begin_unit();
        for (int i = 0; i < 8; ++i)
            db.require("t").insert(
                {rdb::Value::null(), rdb::Value("a" + std::to_string(i))});
        db.commit_unit();
        db.checkpoint();  // snapshot-1 + wal-1
        db.begin_unit();
        db.require("t").insert({rdb::Value::null(), rdb::Value("tail")});
        db.commit_unit();
    }
    // Force recovery through the wal-0 → wal-1 chain, then tear wal-0's
    // tail.  In the *newest* segment that tear would be truncated; one
    // segment earlier it means records the next segment depends on are
    // gone — recovery must refuse.
    fs::remove(rdb::snapshot_file(dir.path(), 1));
    std::string wal0 = rdb::wal_file(dir.path(), 0);
    fs::resize_file(wal0, fs::file_size(wal0) - 3);
    rdb::Database db;
    try {
        db.open(dir.path());
        FAIL() << "torn mid-chain segment recovered silently";
    } catch (const CorruptionError& e) {
        EXPECT_EQ(e.file(), wal0);
        EXPECT_NE(std::string(e.what()).find("torn record"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("not the newest segment"),
                  std::string::npos);
    }
}

// -- checkpoint verification -------------------------------------------------

TEST(Integrity, FailedCheckpointVerificationLeavesOldChainAuthoritative) {
    test::TempDir dir;
    std::vector<std::string> expected;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(2)).ok());
        expected = test::db_fingerprint(stack.db);
        ArmedFault armed("snapshot.verify");
        EXPECT_THROW(stack.db.checkpoint(), fault::InjectedFault);
        // The unverifiable snapshot is gone and the WAL did not rotate.
        EXPECT_FALSE(fs::exists(rdb::snapshot_file(dir.path(), 1)));
        EXPECT_TRUE(fs::exists(rdb::wal_file(dir.path(), 0)));
        // The database keeps working, and a later checkpoint succeeds.
        EXPECT_NO_THROW(stack.db.checkpoint());
        EXPECT_TRUE(fs::exists(rdb::snapshot_file(dir.path(), 1)));
    }
    test::DurableStack reopened(gen::paper_dtd(), dir.path());
    EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
    EXPECT_EQ(reopened.recovery.snapshot_seq, 1u);
}

// -- seeded fuzz: both readers must degrade to typed errors ------------------

std::uint64_t fuzz_seed() {
    if (const char* env = std::getenv("XMLREL_FUZZ_SEED"))
        return std::strtoull(env, nullptr, 0);
    return 0xF00DFACEull;
}

TEST(Integrity, SnapshotFuzzStrictNeverCrashesOrMisreads) {
    test::TempDir dir;
    std::vector<std::string> baseline;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
        stack.db.checkpoint();
        baseline = test::db_fingerprint(stack.db);
    }
    std::string pristine = read_file(rdb::snapshot_file(dir.path(), 1));
    ASSERT_FALSE(pristine.empty());
    std::string fuzzed = dir.path() + "/fuzz.xrs";
    Rng rng(fuzz_seed());
    int survived = 0;
    for (int i = 0; i < 300; ++i) {
        std::string bytes = mutate(pristine, rng);
        write_file(fuzzed, bytes);
        rdb::Database strict;
        try {
            xr::rdb::read_snapshot(fuzzed, strict);
            // A read that passes every checksum must be byte-identical
            // data — anything else is a silent misread.
            EXPECT_EQ(test::db_fingerprint(strict), baseline)
                << "iteration " << i;
            ++survived;
        } catch (const Error&) {
            // typed failure: expected for nearly every mutation
        }
        rdb::Database salvage;
        rdb::SalvageReport sr;
        try {
            xr::rdb::read_snapshot_salvage(fuzzed, salvage, sr);
        } catch (const Error&) {
            // typed failure: header damage is unsalvageable by design
        }
    }
    // The only mutations a strict read survives are no-ops (flips that
    // hit the file twice, zero runs over zeros, …); corruption that
    // changes decoded bytes must never survive.
    SCOPED_TRACE("seed " + std::to_string(fuzz_seed()));
    EXPECT_LT(survived, 300);
}

// -- the decode-only checker against the rebuilding reader -----------------
//
// check_snapshot() must accept exactly the images read_snapshot() accepts,
// and report the table count, row counts and pk counters the rebuilt
// database holds.  The rebuilding reader is the oracle.

/// What the oracle rebuilt, in the checker's terms.
std::vector<rdb::SnapshotTable> tables_of(const rdb::Database& db) {
    std::vector<rdb::SnapshotTable> out;
    for (const auto& name : db.table_names()) {
        const rdb::Table& t = db.require(name);
        out.push_back({name, t.row_count(), t.peek_next_pk()});
    }
    return out;
}

/// Run both readers on `path`; the checker must agree with the oracle.
/// Returns whether the oracle accepted the image.
bool expect_checker_agrees(const std::string& path, const std::string& what) {
    std::optional<std::vector<rdb::SnapshotTable>> strict;
    try {
        rdb::Database db;
        xr::rdb::read_snapshot(path, db);
        strict = tables_of(db);
    } catch (const Error&) {
    }
    std::optional<std::vector<rdb::SnapshotTable>> checked;
    std::string checker_error;
    try {
        checked = rdb::check_snapshot(path);
    } catch (const CorruptionError& e) {
        checker_error = e.what();
    }
    EXPECT_EQ(checked.has_value(), strict.has_value())
        << what << ": checker " << (checked ? "accepted" : "rejected")
        << " what the strict reader "
        << (strict ? "accepted" : "rejected") << " " << checker_error;
    if (checked && strict) {
        EXPECT_TRUE(*checked == *strict)
            << what << ": checker and strict reader disagree on counts";
    }
    return strict.has_value();
}

/// Offsets of every section frame (type byte) in a snapshot image.
std::vector<std::size_t> section_starts(const std::string& image) {
    std::vector<std::size_t> out;
    std::size_t pos = 12;  // magic + version
    while (pos + 9 <= image.size()) {
        out.push_back(pos);
        pos += 9 + rdb::serial::le32_at(image, pos + 1);
    }
    return out;
}

/// Recompute the CRC of the section frame at `start`.
void reseal(std::string& image, std::size_t start) {
    std::uint32_t len = rdb::serial::le32_at(image, start + 1);
    std::uint32_t crc =
        checksum::crc32(std::string_view(image).substr(start, 5 + len));
    rdb::serial::patch_u32(image, start + 5 + len, crc);
}

/// A table as the snapshot encodes it, editable before encoding.
struct TableImage {
    rdb::TableDef def;
    std::int64_t next_pk = 0;
    std::vector<rdb::Table::IndexDef> indexes;
    std::vector<rdb::Row> rows;
};

std::vector<TableImage> image_of(const rdb::Database& db) {
    std::vector<TableImage> out;
    for (const auto& name : db.table_names()) {
        const rdb::Table& t = db.require(name);
        TableImage ti{t.def(), t.peek_next_pk(), t.index_defs(), {}};
        for (rdb::RowId id = 0; id < t.row_count(); ++id)
            ti.rows.push_back(t.row(id).to_row());
        out.push_back(std::move(ti));
    }
    return out;
}

void put_frame(std::string& out, std::uint8_t type, const std::string& payload) {
    std::size_t start = out.size();
    rdb::serial::put_u8(out, type);
    rdb::serial::put_u32(out, static_cast<std::uint32_t>(payload.size()));
    out += payload;
    rdb::serial::put_u32(
        out, checksum::crc32(std::string_view(out).substr(start)));
}

/// Encode a snapshot image from its parts, framed and checksummed the way
/// write_snapshot() frames them.
std::string encode_image(const std::vector<TableImage>& tables,
                         const std::vector<rdb::ForeignKeyDef>& fks) {
    std::string out("XRSNAP1\n");
    rdb::serial::put_u32(out, 1);
    for (const TableImage& t : tables) {
        std::string p;
        rdb::serial::put_table_def(p, t.def);
        rdb::serial::put_i64(p, t.next_pk);
        rdb::serial::put_u32(p, static_cast<std::uint32_t>(t.indexes.size()));
        for (const auto& idx : t.indexes) {
            rdb::serial::put_string(p, idx.column);
            rdb::serial::put_u8(p, static_cast<std::uint8_t>(idx.kind));
        }
        rdb::serial::put_u64(p, t.rows.size());
        for (const rdb::Row& row : t.rows) rdb::serial::put_row(p, row);
        put_frame(out, 1, p);
    }
    std::string p;
    rdb::serial::put_u32(p, static_cast<std::uint32_t>(fks.size()));
    for (const auto& fk : fks) {
        rdb::serial::put_string(p, fk.table);
        rdb::serial::put_string(p, fk.column);
        rdb::serial::put_string(p, fk.ref_table);
        rdb::serial::put_string(p, fk.ref_column);
    }
    put_frame(out, 2, p);
    put_frame(out, 3, {});
    return out;
}

/// First (table, column) with rows where `pick(column, pk column)` holds.
std::pair<TableImage*, int> find_column(
    std::vector<TableImage>& tables,
    const std::function<bool(const rdb::ColumnDef&, bool)>& pick) {
    for (TableImage& t : tables) {
        if (t.rows.size() < 2) continue;
        int pk = rdb::primary_key_column(t.def);
        for (std::size_t c = 0; c < t.def.columns.size(); ++c)
            if (pick(t.def.columns[c], static_cast<int>(c) == pk))
                return {&t, static_cast<int>(c)};
    }
    return {nullptr, -1};
}

TEST(Integrity, SnapshotCheckerAgreesWithStrictReader) {
    test::TempDir dir;
    std::vector<TableImage> tables;
    std::vector<rdb::ForeignKeyDef> fks;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
        stack.db.checkpoint();
        tables = image_of(stack.db);
        fks = stack.db.foreign_keys();
    }
    std::string pristine = read_file(rdb::snapshot_file(dir.path(), 1));
    std::string fuzzed = dir.path() + "/fuzz.xrs";
    write_file(fuzzed, pristine);
    ASSERT_TRUE(expect_checker_agrees(fuzzed, "pristine"));

    // Leg 1: the raw mutations of the fuzz test above (same seed).
    Rng rng(fuzz_seed());
    for (int i = 0; i < 300; ++i) {
        write_file(fuzzed, mutate(pristine, rng));
        expect_checker_agrees(fuzzed, "raw mutation " + std::to_string(i));
    }

    // Leg 2: CRC-valid mutations.  Damage one section's payload in place,
    // then reseal its CRC, so both readers get past the framing and must
    // agree on the decoded content: tags, counts, types, keys, names.
    std::vector<std::size_t> starts = section_starts(pristine);
    ASSERT_GE(starts.size(), 3u);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < 400; ++i) {
        std::string bytes = pristine;
        std::size_t start = starts[rng.below(starts.size())];
        std::uint32_t len = rdb::serial::le32_at(bytes, start + 1);
        if (len == 0) continue;  // the end marker has no payload
        std::size_t at = start + 5 + rng.below(len);
        switch (rng.below(3)) {
            case 0:  // flip one bit
                bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.below(8)));
                break;
            case 1:  // random byte
                bytes[at] = static_cast<char>(rng.next() & 0xFF);
                break;
            default:  // zero a run inside the payload
                for (std::size_t k = at,
                                 end = std::min<std::size_t>(
                                     start + 5 + len, at + 1 + rng.below(8));
                     k < end; ++k)
                    bytes[k] = 0;
                break;
        }
        reseal(bytes, start);
        write_file(fuzzed, bytes);
        if (expect_checker_agrees(fuzzed, "resealed mutation " +
                                              std::to_string(i)))
            ++accepted;
        else
            ++rejected;
    }
    // Both outcomes must be exercised, or the leg compares nothing.
    SCOPED_TRACE("seed " + std::to_string(fuzz_seed()));
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);

    // Leg 3: semantic edits, encoded into well-formed images — the cases
    // byte mutations rarely reach: retyped or NULLed cells, colliding
    // keys, changed column definitions, bad index names, repeated tables.
    accepted = rejected = 0;
    for (int i = 0; i < 400; ++i) {
        std::vector<TableImage> edited = tables;
        for (std::size_t k = 0, n = 1 + rng.below(2); k < n; ++k) {
            TableImage& t = edited[rng.below(edited.size())];
            std::size_t col = rng.below(t.def.columns.size());
            switch (rng.below(8)) {
                case 0: case 1: case 2: {  // overwrite one cell
                    if (t.rows.empty()) break;
                    const rdb::Value values[] = {
                        rdb::Value::null(),
                        rdb::Value(static_cast<std::int64_t>(rng.below(4))),
                        rdb::Value(1.5), rdb::Value("x")};
                    t.rows[rng.below(t.rows.size())][col] =
                        values[rng.below(4)];
                    break;
                }
                case 3:  // toggle NOT NULL
                    t.def.columns[col].not_null = !t.def.columns[col].not_null;
                    break;
                case 4:  // retype a column
                    t.def.columns[col].type =
                        static_cast<rdb::ValueType>(rng.below(4));
                    break;
                case 5:  // toggle the primary-key flag
                    t.def.columns[col].primary_key =
                        !t.def.columns[col].primary_key;
                    break;
                case 6:  // index a column that may not exist
                    t.indexes.push_back(
                        {rng.below(2) == 0 ? t.def.columns[col].name
                                           : std::string("no_such_column"),
                         rdb::IndexKind::kOrdered});
                    break;
                default:  // repeat a table, or drop its last row
                    if (rng.below(2) == 0)
                        edited.push_back(t);
                    else if (!t.rows.empty())
                        t.rows.pop_back();
                    break;
            }
        }
        write_file(fuzzed, encode_image(edited, fks));
        if (expect_checker_agrees(fuzzed,
                                  "semantic edit " + std::to_string(i)))
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(Integrity, CheckpointRejectsSemanticallyBadImages) {
    struct Case {
        const char* name;
        bool strict_accepts;      ///< the oracle's verdict on the image
        const char* message;      ///< in checkpoint()'s error
        std::function<void(std::vector<TableImage>&)> edit;
    };
    const std::vector<Case> cases = {
        {"duplicate pk", false, "duplicate primary key",
         [](std::vector<TableImage>& tables) {
             auto [t, c] = find_column(tables, [](const auto&, bool pk) {
                 return pk;
             });
             ASSERT_NE(t, nullptr);
             t->rows[1][c] = t->rows[0][c];
         }},
        {"NULL in a NOT NULL column", false, "NULL in NOT NULL column",
         [](std::vector<TableImage>& tables) {
             auto [t, c] = find_column(tables, [](const auto& col, bool pk) {
                 return col.not_null && !pk;
             });
             ASSERT_NE(t, nullptr);
             t->rows[0][c] = rdb::Value::null();
         }},
        {"text in an integer column", false, "type mismatch",
         [](std::vector<TableImage>& tables) {
             auto [t, c] = find_column(tables, [](const auto& col, bool pk) {
                 return col.type == rdb::ValueType::kInteger && !pk;
             });
             ASSERT_NE(t, nullptr);
             t->rows[0][c] = rdb::Value("not a number");
         }},
        {"index on an unknown column", false, "unknown column",
         [](std::vector<TableImage>& tables) {
             tables.front().indexes.push_back(
                 {"no_such_column", rdb::IndexKind::kHash});
         }},
        {"row count differs from memory", true, "row(s) in the snapshot",
         [](std::vector<TableImage>& tables) {
             auto [t, c] = find_column(tables, [](const auto&, bool) {
                 return true;
             });
             ASSERT_NE(t, nullptr);
             t->rows.pop_back();
         }},
        {"pk counter differs from memory", true, "pk counter disagrees",
         [](std::vector<TableImage>& tables) { tables.front().next_pk += 5; }},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        test::TempDir dir;
        std::vector<std::string> expected;
        {
            test::DurableStack stack(gen::paper_dtd(), dir.path());
            ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
            expected = test::db_fingerprint(stack.db);
            std::vector<TableImage> tables = image_of(stack.db);
            std::string good = encode_image(tables, stack.db.foreign_keys());
            c.edit(tables);
            std::string bad = encode_image(tables, stack.db.foreign_keys());
            ASSERT_NE(bad, good);

            // The checker agrees with the rebuilding reader on the image.
            std::string probe = dir.path() + "/probe.xrs";
            write_file(probe, bad);
            EXPECT_EQ(expect_checker_agrees(probe, c.name), c.strict_accepts);

            // checkpoint() meets the bad bytes where it re-reads its image.
            const std::string snap = rdb::snapshot_file(dir.path(), 1);
            fault::arm_action("snapshot.verify",
                              [&] { write_file(snap, bad); });
            try {
                stack.db.checkpoint();
                ADD_FAILURE() << "checkpoint accepted a bad image";
            } catch (const CorruptionError& e) {
                EXPECT_NE(std::string(e.what()).find(c.message),
                          std::string::npos)
                    << e.what();
            }
            fault::disarm();
            // The candidate is gone and the WAL did not rotate.
            EXPECT_FALSE(fs::exists(snap));
            EXPECT_TRUE(fs::exists(rdb::wal_file(dir.path(), 0)));
            EXPECT_FALSE(fs::exists(rdb::wal_file(dir.path(), 1)));
            EXPECT_EQ(stack.db.storage_seq(), 0u);
            // A later checkpoint writes the real image and succeeds.
            EXPECT_NO_THROW(stack.db.checkpoint());
            EXPECT_EQ(read_file(snap), good);
        }
        test::DurableStack reopened(gen::paper_dtd(), dir.path());
        EXPECT_EQ(test::db_fingerprint(reopened.db), expected);
        EXPECT_EQ(reopened.recovery.snapshot_seq, 1u);
    }
}

TEST(Integrity, WalFuzzSalvageAlwaysYieldsVerifiablyCleanState) {
    test::TempDir dir;
    {
        test::DurableStack stack(gen::paper_dtd(), dir.path());
        ASSERT_TRUE(test::load_texts(stack, corpus(3)).ok());
    }
    std::string pristine = read_file(rdb::wal_file(dir.path(), 0));
    ASSERT_FALSE(pristine.empty());
    Rng rng(fuzz_seed() ^ 0x5EEDull);
    for (int i = 0; i < 60; ++i) {
        test::TempDir scratch;
        write_file(rdb::wal_file(scratch.path(), 0), mutate(pristine, rng));
        {
            rdb::Database strict;
            try {
                strict.open(scratch.path());
                rdb::IntegrityReport report = strict.verify();
                EXPECT_TRUE(report.clean())
                    << "iteration " << i << ": " << report.to_string();
            } catch (const Error&) {
                // typed failure is an acceptable strict outcome
            }
        }
        rdb::Database salvage;
        rdb::DurabilityOptions opts;
        opts.recovery = rdb::RecoveryMode::kSalvage;
        try {
            salvage.open(scratch.path(), opts);
        } catch (const Error& e) {
            ADD_FAILURE() << "iteration " << i
                          << ": salvage open refused a damaged WAL: "
                          << e.what();
            continue;
        }
        rdb::IntegrityReport report = salvage.verify();
        EXPECT_TRUE(report.clean())
            << "iteration " << i << ": " << report.to_string();
    }
}

}  // namespace
}  // namespace xr
