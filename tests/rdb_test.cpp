// MiniRDB: values, tables, constraints, indexes, catalog, foreign keys,
// the copy-on-write index tree and what a commit copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "gen/corpora.hpp"
#include "helpers.hpp"
#include "loader/loader.hpp"
#include "rdb/cow_btree.hpp"
#include "rdb/database.hpp"

namespace xr::rdb {

// Readable Values in assertion failures.
void PrintTo(const Value& v, std::ostream* os) { *os << v.to_string(); }

namespace {

TableDef people_def() {
    TableDef def;
    def.name = "people";
    def.columns = {{"pk", ValueType::kInteger, true, true},
                   {"name", ValueType::kText, true, false},
                   {"age", ValueType::kInteger, false, false}};
    return def;
}

TEST(Value, TypesAndAccessors) {
    EXPECT_TRUE(Value().is_null());
    EXPECT_EQ(Value(42).type(), ValueType::kInteger);
    EXPECT_EQ(Value(1.5).type(), ValueType::kReal);
    EXPECT_EQ(Value("x").type(), ValueType::kText);
    EXPECT_EQ(Value(42).as_integer(), 42);
    EXPECT_DOUBLE_EQ(Value(42).as_real(), 42.0);  // integers widen
    EXPECT_EQ(Value("x").as_text(), "x");
    EXPECT_THROW((void)Value("x").as_integer(), SchemaError);
    EXPECT_THROW((void)Value(1).as_text(), SchemaError);
}

TEST(Value, SqlComparisonsAreNullAware) {
    EXPECT_FALSE(Value().compare(Value(1)).has_value());
    EXPECT_FALSE(Value(1).compare(Value()).has_value());
    EXPECT_EQ(*Value(1).compare(Value(2)), std::strong_ordering::less);
    EXPECT_EQ(*Value(2.0).compare(Value(2)), std::strong_ordering::equal);
    EXPECT_EQ(*Value("b").compare(Value("a")), std::strong_ordering::greater);
}

TEST(Value, IndexOrderIsTotal) {
    EXPECT_EQ(Value().index_order(Value(1)), std::strong_ordering::less);
    EXPECT_EQ(Value().index_order(Value()), std::strong_ordering::equal);
    EXPECT_EQ(Value(5).index_order(Value("a")), std::strong_ordering::less);
}

TEST(Value, HashConsistentAcrossNumericTypes) {
    EXPECT_EQ(Value(7).hash(), Value(7.0).hash());
    EXPECT_EQ(Value(7), Value(7.0));
}

TEST(Table, AutoIncrementPrimaryKey) {
    Table t(people_def());
    EXPECT_EQ(t.insert({Value::null(), Value("ann"), Value(30)}), 1);
    EXPECT_EQ(t.insert({Value::null(), Value("bob"), Value::null()}), 2);
    EXPECT_EQ(t.row_count(), 2u);
    EXPECT_EQ(t.at(0, "name").as_text(), "ann");
}

TEST(Table, ExplicitPkAdvancesCounter) {
    Table t(people_def());
    EXPECT_EQ(t.insert({Value(10), Value("x"), Value::null()}), 10);
    EXPECT_EQ(t.insert({Value::null(), Value("y"), Value::null()}), 11);
}

TEST(Table, DuplicatePkRejected) {
    Table t(people_def());
    t.insert({Value(1), Value("x"), Value::null()});
    EXPECT_THROW(t.insert({Value(1), Value("y"), Value::null()}), SchemaError);
}

TEST(Table, NotNullEnforced) {
    Table t(people_def());
    EXPECT_THROW(t.insert({Value::null(), Value::null(), Value(1)}), SchemaError);
}

TEST(Table, TypeMismatchRejected) {
    Table t(people_def());
    EXPECT_THROW(t.insert({Value::null(), Value(5), Value(1)}), SchemaError);
    EXPECT_THROW(t.insert({Value::null(), Value("a"), Value("old")}), SchemaError);
}

TEST(Table, ArityChecked) {
    Table t(people_def());
    EXPECT_THROW(t.insert({Value::null(), Value("a")}), SchemaError);
}

TEST(Table, FindPk) {
    Table t(people_def());
    t.insert({Value(5), Value("x"), Value::null()});
    ASSERT_TRUE(t.find_pk_rowid(5));
    EXPECT_EQ(t.row(*t.find_pk_rowid(5))[1].as_text(), "x");
    EXPECT_FALSE(t.find_pk_rowid(6));
}

TEST(Table, AllocatePkReservesKeys) {
    Table t(people_def());
    std::int64_t a = t.allocate_pk();
    std::int64_t b = t.allocate_pk();
    EXPECT_NE(a, b);
    t.insert({Value(b), Value("second"), Value::null()});
    t.insert({Value(a), Value("first"), Value::null()});
    EXPECT_EQ(t.insert({Value::null(), Value("third"), Value::null()}), b + 1);
}

TEST(Table, HashIndexLookup) {
    Table t(people_def());
    for (int i = 0; i < 100; ++i)
        t.insert({Value::null(), Value("n" + std::to_string(i % 10)), Value(i)});
    t.create_index("name");
    EXPECT_TRUE(t.has_index("name"));
    EXPECT_EQ(t.index_lookup("name", Value("n3")).size(), 10u);
    EXPECT_TRUE(t.index_lookup("name", Value("zz")).empty());
}

TEST(Table, OrderedIndexLookup) {
    Table t(people_def());
    t.insert({Value::null(), Value("b"), Value(2)});
    t.insert({Value::null(), Value("a"), Value(1)});
    t.create_index("name", IndexKind::kOrdered);
    EXPECT_EQ(t.index_lookup("name", Value("a")).size(), 1u);
}

TEST(Table, IndexBuiltOverExistingRowsAndMaintained) {
    Table t(people_def());
    t.insert({Value::null(), Value("x"), Value(1)});
    t.create_index("name");
    t.insert({Value::null(), Value("x"), Value(2)});
    EXPECT_EQ(t.index_lookup("name", Value("x")).size(), 2u);
}

TEST(Table, LookupFallsBackToScan) {
    Table t(people_def());
    t.insert({Value::null(), Value("x"), Value(1)});
    t.insert({Value::null(), Value("y"), Value(1)});
    EXPECT_EQ(t.lookup("age", Value(1)).size(), 2u);
}

TEST(Table, UpdateKeepsIndexesConsistent) {
    Table t(people_def());
    t.insert({Value::null(), Value("x"), Value(1)});
    t.create_index("name");
    t.update(0, "name", Value("z"));
    EXPECT_TRUE(t.index_lookup("name", Value("x")).empty());
    EXPECT_EQ(t.index_lookup("name", Value("z")).size(), 1u);
    EXPECT_THROW(t.update(0, "pk", Value(9)), SchemaError);
}

TEST(Table, DeleteWhereCompactsAndRebuilds) {
    Table t(people_def());
    t.insert({Value::null(), Value("a"), Value(1)});
    t.insert({Value::null(), Value("b"), Value(2)});
    t.insert({Value::null(), Value("c"), Value(1)});
    t.create_index("age");
    EXPECT_EQ(t.delete_where("age", Value(1)), 2u);
    EXPECT_EQ(t.row_count(), 1u);
    EXPECT_EQ(t.at(0, "name").as_text(), "b");
    // pk lookup and indexes survive the compaction.
    ASSERT_TRUE(t.find_pk_rowid(2));
    EXPECT_FALSE(t.find_pk_rowid(1));
    EXPECT_EQ(t.index_lookup("age", Value(2)).size(), 1u);
    EXPECT_TRUE(t.index_lookup("age", Value(1)).empty());
    // New inserts continue past the old max pk.
    EXPECT_EQ(t.insert({Value::null(), Value("d"), Value(3)}), 4);
    EXPECT_EQ(t.delete_where("age", Value(99)), 0u);
}

TEST(Table, NullFraction) {
    Table t(people_def());
    t.insert({Value::null(), Value("a"), Value::null()});
    t.insert({Value::null(), Value("b"), Value(1)});
    EXPECT_DOUBLE_EQ(t.null_fraction(), 0.25);
}

TEST(Table, MemoryEstimateGrows) {
    Table t(people_def());
    std::size_t before = t.memory_bytes();
    for (int i = 0; i < 100; ++i)
        t.insert({Value::null(), Value("some name"), Value(i)});
    EXPECT_GT(t.memory_bytes(), before);
}

TEST(Database, CatalogOperations) {
    Database db;
    db.create_table(people_def());
    EXPECT_NE(db.table("people"), nullptr);
    EXPECT_THROW(db.create_table(people_def()), SchemaError);
    EXPECT_EQ(db.table_names(), (std::vector<std::string>{"people"}));
    EXPECT_NO_THROW((void)db.require("people"));
    EXPECT_THROW((void)db.require("nope"), SchemaError);
    db.drop_table("people");
    EXPECT_EQ(db.table("people"), nullptr);
    EXPECT_THROW(db.drop_table("people"), SchemaError);
}

TEST(Database, ForeignKeyCheck) {
    Database db;
    Table& parent = db.create_table(people_def());
    TableDef pets;
    pets.name = "pets";
    pets.columns = {{"pk", ValueType::kInteger, true, true},
                    {"owner", ValueType::kInteger, false, false}};
    Table& child = db.create_table(std::move(pets));
    db.add_foreign_key({"pets", "owner", "people", "pk"});

    parent.insert({Value(1), Value("ann"), Value::null()});
    child.insert({Value::null(), Value(1)});
    child.insert({Value::null(), Value::null()});  // NULL FK is fine
    EXPECT_TRUE(db.check_foreign_keys().empty());

    child.insert({Value::null(), Value(99)});
    auto violations = db.check_foreign_keys();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("99"), std::string::npos);
}

TEST(Database, TotalsAggregate) {
    Database db;
    Table& t = db.create_table(people_def());
    t.insert({Value::null(), Value("a"), Value::null()});
    EXPECT_EQ(db.total_rows(), 1u);
    EXPECT_GT(db.memory_bytes(), 0u);
}

// -- copy-on-write B+tree ------------------------------------------------------

using IntTree = CowBTree<std::int64_t, std::compare_three_way>;
using Pairs = std::vector<std::pair<std::int64_t, RowId>>;

Pairs contents(const IntTree& tree) {
    Pairs out;
    tree.for_each([&](const IntTree::Entry& e) {
        out.emplace_back(e.key, e.id);
        return true;
    });
    return out;
}

// Random inserts and erases against a std::set oracle, publishing every
// 1000 steps: the live tree always matches the oracle, and every
// published tree keeps exactly the contents it was published with.
TEST(CowBTree, MatchesSetOracleAndPublishedTreesStayFrozen) {
    SplitMix64 rng(0xB7EE);
    IntTree tree;
    std::set<std::pair<std::int64_t, RowId>> oracle;
    std::vector<std::pair<IntTree, Pairs>> published;
    for (int step = 0; step < 20000; ++step) {
        std::int64_t key = rng.range(0, 2000);
        auto id = static_cast<RowId>(rng.below(8));
        if (rng.chance(0.65))
            ASSERT_EQ(tree.insert(key, id), oracle.insert({key, id}).second);
        else
            ASSERT_EQ(tree.erase(key, id), oracle.erase({key, id}) == 1);
        if (step % 1000 == 999)
            published.emplace_back(tree.publish(),
                                   Pairs(oracle.begin(), oracle.end()));
    }
    EXPECT_EQ(tree.size(), oracle.size());
    EXPECT_EQ(contents(tree), Pairs(oracle.begin(), oracle.end()));
    for (const auto& [frozen, want] : published) {
        EXPECT_EQ(frozen.size(), want.size());
        EXPECT_EQ(contents(frozen), want);
    }
    for (std::int64_t k = -1; k <= 2001; ++k) {
        auto it = oracle.lower_bound({k, 0});
        std::optional<RowId> want;
        if (it != oracle.end() && it->first == k) want = it->second;
        ASSERT_EQ(tree.find(k), want) << "key " << k;
    }

    // A bottom-up build from unsorted entries holds the same set.
    std::vector<IntTree::Entry> entries;
    for (const auto& [k, id] : oracle) entries.push_back({k, id});
    std::reverse(entries.begin(), entries.end());
    IntTree built;
    built.build(std::move(entries));
    EXPECT_EQ(built.size(), oracle.size());
    EXPECT_EQ(contents(built), Pairs(oracle.begin(), oracle.end()));

    // Erasing everything empties the tree; it is reusable afterwards.
    for (const auto& [k, id] : oracle) ASSERT_TRUE(tree.erase(k, id));
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.height(), 0u);
    EXPECT_TRUE(tree.insert(5, 1));
    EXPECT_EQ(contents(tree), (Pairs{{5, 1}}));
}

// Appends at the right edge pack nodes full, and the first append after
// a publish copies exactly one root-to-leaf spine.
TEST(CowBTree, AppendAfterPublishCopiesOneSpine) {
    IntTree tree;
    for (std::int64_t k = 0; k < 100000; ++k)
        tree.insert(k, static_cast<RowId>(k));
    EXPECT_EQ(tree.height(), 3u);  // 1563 full leaves under 25 inner nodes
    IntTree frozen = tree.publish();
    std::uint64_t before = tree.nodes_cowed();
    for (std::int64_t k = 100000; k < 100010; ++k)
        tree.insert(k, static_cast<RowId>(k));
    EXPECT_EQ(tree.nodes_cowed() - before, tree.height());
    EXPECT_EQ(frozen.size(), 100000u);
    EXPECT_EQ(frozen.find(100005), std::nullopt);
    EXPECT_EQ(tree.find(100005), std::optional<RowId>(100005));
}

// -- what a commit copies -------------------------------------------------------

/// A committed table with a primary key, a hash index on `name` and an
/// ordered index on `age`, loaded with `rows` rows.
Table& indexed_table(Database& db, const std::string& name, int rows) {
    TableDef def = people_def();
    def.name = name;
    Table& t = db.create_table(std::move(def));
    t.create_index("name");
    t.create_index("age", IndexKind::kOrdered);
    db.begin_unit();
    for (int i = 0; i < rows; ++i)
        t.insert({Value::null(), Value("n" + std::to_string(i % 97)), Value(i)});
    db.commit_unit();
    return t;
}

// A commit appending one row copies O(tree height) index nodes per index
// — the same for 1 000 and 100 000 rows up to one level per index — and
// no row chunk.
TEST(CommitCost, FlatInTableSize) {
    Database db;
    Table& small = indexed_table(db, "small", 1000);
    Table& large = indexed_table(db, "large", 100000);
    std::uint64_t small0 = small.indexes_cowed();
    std::uint64_t large0 = large.indexes_cowed();
    std::uint64_t chunks0 = db.mvcc_stats().chunks_cowed;

    db.begin_unit();
    small.insert({Value::null(), Value("n5"), Value(5)});
    large.insert({Value::null(), Value("n5"), Value(5)});
    db.commit_unit();

    std::uint64_t small_nodes = small.indexes_cowed() - small0;
    std::uint64_t large_nodes = large.indexes_cowed() - large0;
    EXPECT_GT(small_nodes, 0u);
    EXPECT_GE(large_nodes, small_nodes);
    EXPECT_LE(large_nodes, small_nodes + 3);  // pk, name, age: one level each
    EXPECT_EQ(db.mvcc_stats().chunks_cowed, chunks0);
}

/// Everything a reader can ask of the table: rows, pk and index lookups.
std::string describe(const Table& t) {
    std::string out;
    for (RowId id = 0; id < t.row_count(); ++id) {
        for (const Value& v : t.row(id)) out += v.to_string() + ",";
        out += ";";
    }
    auto ids = [&](const std::vector<RowId>& v) {
        out += "|";
        for (RowId id : v) out += std::to_string(id) + ",";
    };
    ids(t.index_lookup("name", Value("n5")));
    ids(t.index_lookup("name", Value("renamed")));
    Value lo(100), hi(200);
    ids(t.index_range_lookup("age", &lo, false, &hi, true));
    ids(t.index_range_lookup("age", nullptr, false, &lo, true));
    for (std::int64_t pk : {1, 42, 3001, 3002}) {
        auto id = t.find_pk_rowid(pk);
        out += "|" + (id ? std::to_string(*id) : std::string("-"));
    }
    return out;
}

// Versions pinned before an append + update commit and before a
// rolled-back unit keep their exact rows and index results; the rollback
// restores the live table exactly, copying only chunks of published
// rows it updates.
TEST(CommitCost, PinnedVersionsSurviveAppendUpdateAndRollback) {
    Database db;
    Table& t = indexed_table(db, "people", 3000);  // three row chunks
    ReadSnapshot before = db.read_snapshot();
    const std::string state0 = describe(before.version().require("people"));

    std::uint64_t chunks0 = db.mvcc_stats().chunks_cowed;
    db.begin_unit();
    t.insert({Value::null(), Value("n5"), Value(150)});
    t.update(5, "name", Value("renamed"));
    t.update(2500, "age", Value(-1));
    db.commit_unit();
    // Two published rows updated in two chunks; the append copies none.
    EXPECT_EQ(db.mvcc_stats().chunks_cowed - chunks0, 2u);

    ReadSnapshot middle = db.read_snapshot();
    const std::string state1 = describe(middle.version().require("people"));
    EXPECT_NE(state1, state0);
    EXPECT_EQ(describe(t), state1);

    chunks0 = db.mvcc_stats().chunks_cowed;
    db.begin_unit();
    for (int i = 0; i < 1100; ++i)  // crosses into a fresh chunk
        t.insert({Value::null(), Value("n5"), Value(120)});
    t.update(6, "name", Value("renamed"));
    t.update(3000, "age", Value(7));  // the row the last commit appended
    t.update(3500, "name", Value("n5x"));  // a row of this unit
    db.rollback_unit();
    EXPECT_EQ(db.mvcc_stats().chunks_cowed - chunks0, 2u);

    EXPECT_EQ(describe(t), state1);
    EXPECT_EQ(describe(middle.version().require("people")), state1);
    EXPECT_EQ(describe(before.version().require("people")), state0);
    EXPECT_EQ(describe(db.read_snapshot().version().require("people")), state1);
    EXPECT_TRUE(db.verify().clean()) << db.verify().to_string();
}

// -- catalog replacement and recovery publish once -------------------------------

TEST(Database, DropInsideUnitIsUndoneByRollback) {
    Database db;
    db.create_table(people_def()).insert({Value::null(), Value("a"), Value(1)});
    db.begin_unit();
    db.drop_table("people");
    EXPECT_EQ(db.table("people"), nullptr);
    TableDef replacement = people_def();
    replacement.columns.pop_back();
    db.create_table(std::move(replacement));
    db.rollback_unit();
    ASSERT_NE(db.table("people"), nullptr);
    EXPECT_EQ(db.require("people").column_count(), 3u);
    EXPECT_EQ(db.require("people").row_count(), 1u);

    db.begin_unit();
    db.drop_table("people");
    db.commit_unit();
    EXPECT_EQ(db.table("people"), nullptr);
}

TEST(Database, AnalyzePublishesOneEpoch) {
    Database db;
    indexed_table(db, "people", 100);
    for (int round = 0; round < 2; ++round) {  // create, then replace
        std::uint64_t published = db.mvcc_stats().versions_published;
        std::uint64_t watermark = db.commit_watermark();
        (void)db.analyze();
        EXPECT_EQ(db.mvcc_stats().versions_published, published + 1);
        EXPECT_EQ(db.commit_watermark(), watermark + 1);
        EXPECT_EQ(db.require(Database::kStatsTable).row_count(), 3u);
    }
}

// A WAL holding many commits and an analyze() replays into one published
// epoch; an analyze() whose commit frame fails keeps the old catalog, in
// memory and across a restart.
TEST(Database, RecoveryPublishesOnceAndAnalyzeIsAtomic) {
    test::TempDir dir;
    {
        Database db;
        (void)db.open(dir.path());
        Table& t = db.create_table(people_def());
        for (int i = 0; i < 20; ++i) {
            db.begin_unit();
            t.insert({Value::null(), Value("n"), Value(i)});
            db.commit_unit();
        }
        (void)db.analyze();
        db.begin_unit();
        t.insert({Value::null(), Value("late"), Value(99)});
        db.commit_unit();
        ASSERT_TRUE(fault::arm("wal.fsync"));
        EXPECT_THROW((void)db.analyze(), fault::InjectedFault);
        fault::disarm();
        const Table* cat = db.table(Database::kStatsTable);
        ASSERT_NE(cat, nullptr);
        EXPECT_EQ(cat->row(0)[2].as_integer(), 20);  // the first analyze's rows
    }
    Database db;
    RecoveryReport report = db.open(dir.path());
    EXPECT_GT(report.records_replayed, 40u);
    EXPECT_EQ(db.mvcc_stats().versions_published, 1u);
    EXPECT_EQ(db.require("people").row_count(), 21u);
    const Table& cat =
        db.read_snapshot().version().require(Database::kStatsTable);
    ASSERT_EQ(cat.row_count(), 3u);
    EXPECT_EQ(cat.row(0)[2].as_integer(), 20);
}

// -- column-major row chunks (DESIGN.md §15) ---------------------------------

/// Every cell of rows [0, rows) of `t`, read through RowView iteration.
std::vector<Row> rows_of(const Table& t) {
    std::vector<Row> out;
    for (RowId id = 0; id < t.row_count(); ++id) {
        Row row;
        for (const Value& v : t.row(id)) row.push_back(v);
        out.push_back(std::move(row));
    }
    return out;
}

Row person(int i) {
    return {Value(static_cast<std::int64_t>(i + 1)),
            Value("person-with-a-long-name-" + std::to_string(i)),
            i % 3 == 0 ? Value::null() : Value(i)};
}

// A rollback that cuts back across a chunk boundary drops the chunks past
// the cut and clears the cut cells of the new tail chunk, which takes the
// next rows in place; no published row is cut, so no chunk is copied.
TEST(RowStore, TruncateAcrossChunkBoundary) {
    Database db;
    Table& t = db.create_table(people_def());
    db.begin_unit();
    for (int i = 0; i < 1000; ++i) t.insert(person(i));
    db.commit_unit();
    const std::vector<Row> published = rows_of(t);
    ReadSnapshot pinned = db.read_snapshot();

    std::uint64_t chunks0 = t.chunks_cowed();
    db.begin_unit();
    for (int i = 1000; i < 2100; ++i) t.insert(person(i));
    ASSERT_EQ(t.row_count(), 2100u);
    db.rollback_unit();
    EXPECT_EQ(rows_of(t), published);
    EXPECT_EQ(t.chunks_cowed(), chunks0);

    // The cleared slots take new rows; keys restart at the watermark.
    db.begin_unit();
    EXPECT_EQ(t.insert({Value::null(), Value("next"), Value(1)}), 1001);
    db.commit_unit();
    EXPECT_EQ(t.row(1000).to_row(),
              (Row{Value(1001), Value("next"), Value(1)}));
    EXPECT_EQ(rows_of(pinned.version().require("people")), published);
    EXPECT_TRUE(db.verify().clean()) << db.verify().to_string();
}

// A cut below the last publish (a unit opened before it) inside the shared
// tail chunk copies that chunk: the frozen clone keeps reading the cut
// rows, and rows appended after the cut land in the copy, not in it.
TEST(RowStore, TruncateInsidePublishedTailChunkCopiesIt) {
    Table t(people_def());
    for (int i = 0; i < 1200; ++i) t.insert(person(i));
    t.begin_unit();
    for (int i = 1200; i < 1500; ++i) t.insert(person(i));
    std::shared_ptr<const Table> frozen = t.publish();
    const std::vector<Row> before = rows_of(*frozen);
    ASSERT_EQ(before.size(), 1500u);

    t.rollback_unit();
    EXPECT_EQ(t.row_count(), 1200u);
    EXPECT_EQ(t.chunks_cowed(), 1u);  // the shared tail chunk, once
    for (int i = 0; i < 100; ++i)
        t.insert({Value::null(), Value("after-the-cut"), Value(i)});
    EXPECT_EQ(t.chunks_cowed(), 1u);
    EXPECT_EQ(rows_of(*frozen), before);
    EXPECT_EQ(t.row(1200)[1].as_text(), "after-the-cut");
    EXPECT_EQ(t.row(1199).to_row(), before[1199]);

    // A cut to zero drops every chunk without copying one.
    Table empty(people_def());
    empty.begin_unit();
    for (int i = 0; i < 1500; ++i) empty.insert(person(i));
    std::shared_ptr<const Table> full = empty.publish();
    empty.rollback_unit();
    EXPECT_EQ(empty.row_count(), 0u);
    EXPECT_EQ(empty.chunks_cowed(), 0u);
    EXPECT_EQ(rows_of(*full), before);
}

// Updating a published row copies its chunk once; the frozen version
// keeps the old cells, and later updates to the same chunk copy nothing.
TEST(RowStore, UpdateOfPublishedRowCopiesChunkOnce) {
    Table t(people_def());
    for (int i = 0; i < 2048 + 10; ++i) t.insert(person(i));
    std::shared_ptr<const Table> frozen = t.publish();
    const std::vector<Row> before = rows_of(*frozen);

    t.update(1500, "name", Value("renamed"));
    EXPECT_EQ(t.chunks_cowed(), 1u);
    t.update(1501, "age", Value(-7));
    t.update(2047, "age", Value::null());
    EXPECT_EQ(t.chunks_cowed(), 1u);  // same chunk, already owned
    t.update(2050, "name", Value("tail"));
    EXPECT_EQ(t.chunks_cowed(), 2u);  // the shared tail chunk

    EXPECT_EQ(rows_of(*frozen), before);
    EXPECT_EQ(frozen->row(1500)[1].as_text(), before[1500][1].as_text());
    EXPECT_EQ(t.row(1500)[1].as_text(), "renamed");
    EXPECT_EQ(t.row(1501)[2].as_integer(), -7);
    EXPECT_TRUE(t.row(2047)[2].is_null());
    EXPECT_EQ(t.row(2050)[1].as_text(), "tail");
    // Untouched rows of the copied chunks read the same on both sides.
    EXPECT_EQ(t.row(1024).to_row(), before[1024]);
    EXPECT_EQ(t.row(2057).to_row(), before[2057]);
}

// delete_where compacts survivors into fresh chunks in order, across
// chunk boundaries, and leaves a pinned version's rows untouched.
TEST(RowStore, DeleteWhereCompactsAcrossChunks) {
    Table t(people_def());
    std::vector<Row> kept;
    for (int i = 0; i < 3000; ++i) {
        t.insert(person(i));
        if (i % 3 != 0) kept.push_back(person(i));  // person(i) ages NULL
    }
    t.create_index("age", IndexKind::kOrdered);
    std::shared_ptr<const Table> frozen = t.publish();
    const std::vector<Row> before = rows_of(*frozen);

    // The purge salvage runs: NULL matches NULL here (index order).
    EXPECT_EQ(t.delete_where("age", Value::null()), 1000u);
    EXPECT_EQ(rows_of(t), kept);
    EXPECT_EQ(rows_of(*frozen), before);
    Value lo(2000);
    EXPECT_EQ(t.index_range_lookup("age", &lo, false, nullptr, false).size(),
              static_cast<std::size_t>(std::count_if(
                  kept.begin(), kept.end(), [](const Row& r) {
                      return !r[2].is_null() && r[2].as_integer() >= 2000;
                  })));
    EXPECT_EQ(t.row(*t.find_pk_rowid(3000))[1].as_text(),
              "person-with-a-long-name-2999");
}

/// Forwards every shredded row to its table and keeps the row as
/// inserted (with the key the insert assigned).
class RecordingSink : public loader::RowSink {
public:
    std::map<std::string, std::vector<Row>> rows;

    std::int64_t allocate_pk(Table& table) override {
        return table.allocate_pk();
    }
    void append(Table& table, Row row) override {
        Row copy = row;
        int pk = table.def().column_index("pk");
        std::int64_t key = table.insert(std::move(row));
        if (pk >= 0 && copy[static_cast<std::size_t>(pk)].is_null())
            copy[static_cast<std::size_t>(pk)] = Value(key);
        rows[table.name()].push_back(std::move(copy));
    }
};

// For every table a corpus load writes, each stored row read back through
// RowView (iteration, operator[] and to_row) equals the Row inserted.
TEST(RowStore, RowViewsOfALoadedCorpusEqualTheInsertedRows) {
    test::Stack stack(gen::paper_dtd());
    RecordingSink sink;
    loader::LoadOptions options;
    options.validate = false;
    options.resolve_references = false;
    std::int64_t doc_id = 1;
    for (auto& doc : gen::bibliography_corpus(150, 200, 19)) {
        loader::LoadStats stats;
        stack.loader->shred_document(*doc, doc_id++, options, sink, stats);
    }
    std::size_t multi_chunk = 0;
    for (const auto& [name, inserted] : sink.rows) {
        const Table& t = stack.db.require(name);
        ASSERT_EQ(t.row_count(), inserted.size()) << name;
        multi_chunk += inserted.size() > kChunkRows;
        for (RowId id = 0; id < t.row_count(); ++id) {
            RowView view = t.row(id);
            ASSERT_EQ(view.size(), t.column_count());
            Row iterated(view.begin(), view.end());
            ASSERT_EQ(iterated, inserted[id]) << name << " row " << id;
            ASSERT_EQ(view.to_row(), inserted[id]);
            for (std::size_t c = 0; c < view.size(); ++c)
                ASSERT_EQ(&view[c], &t.cell(id, c));  // borrowed in place
        }
    }
    EXPECT_GE(sink.rows.size(), 5u);
    EXPECT_GE(multi_chunk, 1u);
}

}  // namespace
}  // namespace xr::rdb
