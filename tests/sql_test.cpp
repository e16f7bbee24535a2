// SQL subsystem: lexer, parser, executor semantics, join strategies.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sql/executor.hpp"
#include "sql/lexer.hpp"
#include "sql/parser.hpp"

namespace xr::sql {
namespace {

using rdb::Value;

class SqlFixture : public ::testing::Test {
protected:
    rdb::Database db;

    void SetUp() override {
        execute(db,
                "CREATE TABLE emp (pk INTEGER PRIMARY KEY, name TEXT NOT NULL, "
                "dept INTEGER, salary INTEGER)");
        execute(db, "CREATE TABLE dept (pk INTEGER PRIMARY KEY, dname TEXT)");
        execute(db, "INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty')");
        execute(db,
                "INSERT INTO emp (name, dept, salary) VALUES "
                "('ann', 1, 120), ('bob', 1, 100), ('cat', 2, 90), "
                "('dan', 2, 110), ('eve', NULL, 70)");
    }

    ResultSet q(const std::string& sql, ExecStats* stats = nullptr) {
        return execute(db, sql, stats);
    }
};

TEST(SqlLexer, TokenKinds) {
    auto tokens = lex("SELECT x, 'it''s' FROM t WHERE a <= 1.5 -- comment\n;");
    EXPECT_TRUE(tokens[0].is_keyword("SELECT"));
    EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
    EXPECT_EQ(tokens[3].type, TokenType::kString);
    EXPECT_EQ(tokens[3].text, "it's");
    bool saw_le = false;
    for (const auto& t : tokens) saw_le |= t.is_symbol("<=");
    EXPECT_TRUE(saw_le);
    EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(SqlLexer, QuotedIdentifiersAndErrors) {
    auto tokens = lex("\"weird name\"");
    EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
    EXPECT_EQ(tokens[0].text, "weird name");
    EXPECT_THROW(lex("'unterminated"), ParseError);
    EXPECT_THROW(lex("a ~ b"), ParseError);
}

TEST(SqlParser, SelectShape) {
    SelectStmt s = parse_select(
        "SELECT a.x AS col, COUNT(*) FROM t a JOIN u ON a.pk = u.fk "
        "WHERE a.x > 3 AND NOT u.y IS NULL GROUP BY a.x "
        "ORDER BY col DESC LIMIT 7");
    EXPECT_EQ(s.items.size(), 2u);
    EXPECT_EQ(s.items[0].alias, "col");
    EXPECT_EQ(s.from.effective_alias(), "a");
    ASSERT_EQ(s.joins.size(), 1u);
    EXPECT_EQ(s.group_by.size(), 1u);
    ASSERT_EQ(s.order_by.size(), 1u);
    EXPECT_TRUE(s.order_by[0].descending);
    EXPECT_EQ(s.limit, 7u);
}

TEST(SqlParser, Errors) {
    EXPECT_THROW(parse("SELECT FROM t"), ParseError);
    EXPECT_THROW(parse("SELECT * t"), ParseError);
    EXPECT_THROW(parse("DROP TABLE t"), ParseError);
    EXPECT_THROW(parse("SELECT * FROM t LEFT JOIN u ON 1 = 1"), ParseError);
    EXPECT_THROW(parse("SELECT * FROM t; garbage"), ParseError);
}

TEST(SqlParser, ExpressionPrecedence) {
    SelectStmt s = parse_select("SELECT 1 + 2 * 3 FROM t");
    EXPECT_EQ(s.items[0].expr->to_string(), "1 + 2 * 3");
    const Expr& e = *s.items[0].expr;
    EXPECT_EQ(e.op, BinaryOp::kAdd);
    EXPECT_EQ(e.right->op, BinaryOp::kMul);
}

TEST_F(SqlFixture, ProjectionAndWhere) {
    auto rs = q("SELECT name FROM emp WHERE salary >= 100 ORDER BY name");
    ASSERT_EQ(rs.row_count(), 3u);
    EXPECT_EQ(rs.at(0, 0).as_text(), "ann");
    EXPECT_EQ(rs.at(2, 0).as_text(), "dan");
}

TEST_F(SqlFixture, StarExpansion) {
    auto rs = q("SELECT * FROM dept ORDER BY pk");
    EXPECT_EQ(rs.columns,
              (std::vector<std::string>{"dept.pk", "dept.dname"}));
    EXPECT_EQ(rs.row_count(), 3u);
}

TEST_F(SqlFixture, NullSemanticsInWhere) {
    // eve has NULL dept: neither = 1 nor <> 1 matches.
    EXPECT_EQ(q("SELECT name FROM emp WHERE dept = 1").row_count(), 2u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE dept <> 1").row_count(), 2u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE dept IS NULL").row_count(), 1u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE dept IS NOT NULL").row_count(), 4u);
}

TEST_F(SqlFixture, Arithmetic) {
    auto rs = q("SELECT salary * 2 + 1 FROM emp WHERE name = 'ann'");
    EXPECT_EQ(rs.scalar().as_integer(), 241);
    EXPECT_TRUE(q("SELECT salary / 0 FROM emp WHERE name = 'ann'")
                    .scalar()
                    .is_null());
}

TEST_F(SqlFixture, LikePatterns) {
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE 'a%'").row_count(), 1u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '%a%'").row_count(), 3u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '_ob'").row_count(), 1u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE 'ann'").row_count(), 1u);
}

TEST_F(SqlFixture, JoinInner) {
    auto rs = q(
        "SELECT emp.name, dept.dname FROM emp JOIN dept ON emp.dept = dept.pk "
        "ORDER BY emp.name");
    ASSERT_EQ(rs.row_count(), 4u);  // eve (NULL dept) drops out
    EXPECT_EQ(rs.at(0, 1).as_text(), "eng");
    EXPECT_EQ(rs.at(3, 1).as_text(), "ops");
}

TEST_F(SqlFixture, JoinUsesPkLookup) {
    ExecStats stats;
    q("SELECT emp.name FROM emp JOIN dept ON dept.pk = emp.dept", &stats);
    EXPECT_GT(stats.index_lookups, 0u);
    EXPECT_EQ(stats.hash_joins, 0u);
}

TEST_F(SqlFixture, JoinBuildsHashWhenNoIndex) {
    // Pin the join order: the cost-based planner would flip this into a
    // pk probe (tested in planner_test); here we exercise the ad-hoc
    // hash-build machinery itself.
    ExecStats stats;
    PlannerOptions off;
    off.enable = false;
    execute(db, "SELECT d.dname FROM dept d JOIN emp ON emp.dept = d.pk",
            &stats, {}, &off);
    EXPECT_GT(stats.hash_joins, 0u);
}

TEST_F(SqlFixture, IndexScanOnDrivingTable) {
    db.table("emp")->create_index("name");
    ExecStats stats;
    auto rs = q("SELECT salary FROM emp WHERE name = 'cat'", &stats);
    EXPECT_EQ(rs.scalar().as_integer(), 90);
    EXPECT_GT(stats.index_lookups, 0u);
    EXPECT_LT(stats.rows_scanned, 3u);
}

TEST_F(SqlFixture, UnindexedEqualityStillFilters) {
    auto rs = q("SELECT name FROM emp WHERE salary = 110");
    ASSERT_EQ(rs.row_count(), 1u);
    EXPECT_EQ(rs.at(0, 0).as_text(), "dan");
}

TEST_F(SqlFixture, Aggregates) {
    EXPECT_EQ(q("SELECT COUNT(*) FROM emp").scalar().as_integer(), 5);
    EXPECT_EQ(q("SELECT COUNT(dept) FROM emp").scalar().as_integer(), 4);
    EXPECT_EQ(q("SELECT COUNT(DISTINCT dept) FROM emp").scalar().as_integer(), 2);
    EXPECT_EQ(q("SELECT SUM(salary) FROM emp").scalar().as_integer(), 490);
    EXPECT_EQ(q("SELECT MIN(salary) FROM emp").scalar().as_integer(), 70);
    EXPECT_EQ(q("SELECT MAX(name) FROM emp").scalar().as_text(), "eve");
    EXPECT_DOUBLE_EQ(q("SELECT AVG(salary) FROM emp").scalar().as_real(), 98.0);
}

TEST_F(SqlFixture, AggregateOverEmptyInput) {
    EXPECT_EQ(q("SELECT COUNT(*) FROM emp WHERE salary > 999")
                  .scalar()
                  .as_integer(),
              0);
    EXPECT_TRUE(
        q("SELECT SUM(salary) FROM emp WHERE salary > 999").scalar().is_null());
    EXPECT_EQ(q("SELECT COUNT(*) + 1 FROM emp WHERE salary > 999")
                  .scalar()
                  .as_integer(),
              1);
}

TEST_F(SqlFixture, GroupByWithHaving) {
    auto rs = q(
        "SELECT dept, COUNT(*) AS n, SUM(salary) FROM emp "
        "WHERE dept IS NOT NULL GROUP BY dept HAVING COUNT(*) >= 2 "
        "ORDER BY 1");
    ASSERT_EQ(rs.row_count(), 2u);
    EXPECT_EQ(rs.at(0, 0).as_integer(), 1);
    EXPECT_EQ(rs.at(0, 2).as_integer(), 220);
    EXPECT_EQ(rs.at(1, 2).as_integer(), 200);
}

TEST_F(SqlFixture, GroupByOrderByAlias) {
    auto rs = q(
        "SELECT dept, COUNT(*) AS n FROM emp WHERE dept IS NOT NULL "
        "GROUP BY dept ORDER BY n DESC, 1");
    EXPECT_EQ(rs.row_count(), 2u);
}

TEST_F(SqlFixture, DistinctAndLimit) {
    EXPECT_EQ(q("SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL")
                  .row_count(),
              2u);
    EXPECT_EQ(q("SELECT name FROM emp ORDER BY salary DESC LIMIT 2").row_count(),
              2u);
    EXPECT_EQ(q("SELECT name FROM emp ORDER BY salary DESC LIMIT 2").at(0, 0)
                  .as_text(),
              "ann");
}

TEST_F(SqlFixture, OrderByExpressionNotInSelect) {
    auto rs = q("SELECT name FROM emp ORDER BY salary");
    EXPECT_EQ(rs.at(0, 0).as_text(), "eve");
    EXPECT_EQ(rs.at(4, 0).as_text(), "ann");
}

TEST_F(SqlFixture, ThreeWayJoin) {
    execute(db, "CREATE TABLE loc (pk INTEGER PRIMARY KEY, dept INTEGER, city TEXT)");
    execute(db, "INSERT INTO loc VALUES (1, 1, 'boston'), (2, 2, 'waltham')");
    auto rs = q(
        "SELECT emp.name, loc.city FROM emp "
        "JOIN dept ON dept.pk = emp.dept "
        "JOIN loc ON loc.dept = dept.pk "
        "WHERE loc.city = 'waltham' ORDER BY emp.name");
    ASSERT_EQ(rs.row_count(), 2u);
    EXPECT_EQ(rs.at(0, 0).as_text(), "cat");
}

TEST_F(SqlFixture, SemanticErrors) {
    EXPECT_THROW(q("SELECT nope FROM emp"), QueryError);
    EXPECT_THROW(q("SELECT name FROM ghost"), QueryError);
    EXPECT_THROW(q("SELECT z.name FROM emp"), QueryError);
    EXPECT_THROW(q("SELECT pk FROM emp JOIN dept ON emp.dept = dept.pk"),
                 QueryError);  // ambiguous pk
    EXPECT_THROW(q("INSERT INTO emp VALUES (1)"), QueryError);
    EXPECT_THROW(q("INSERT INTO emp (ghost) VALUES (1)"), QueryError);
}

TEST_F(SqlFixture, CreateIndexStatement) {
    execute(db, "CREATE INDEX ON emp (name)");
    EXPECT_TRUE(db.table("emp")->has_index("name"));
    execute(db, "CREATE INDEX idx2 ON emp (salary)");
    EXPECT_TRUE(db.table("emp")->has_index("salary"));
}

TEST_F(SqlFixture, ResultSetToString) {
    std::string out = q("SELECT name, salary FROM emp ORDER BY pk LIMIT 1")
                          .to_string();
    EXPECT_NE(out.find("ann"), std::string::npos);
    EXPECT_NE(out.find("120"), std::string::npos);
}

TEST_F(SqlFixture, ReexecutingParsedSelectIsStable) {
    SelectStmt s = parse_select("SELECT COUNT(*) FROM emp WHERE dept = 1");
    EXPECT_EQ(execute_select(db, s).scalar().as_integer(), 2);
    EXPECT_EQ(execute_select(db, s).scalar().as_integer(), 2);
}

// The evaluator borrows cells and literals and writes only computed values
// into caller-owned scratch; these are the semantics that must survive it.
TEST_F(SqlFixture, BorrowedEvaluationKeepsSemantics) {
    // Comparisons with NULL are unknown and filter the row out.
    EXPECT_EQ(q("SELECT name FROM emp WHERE dept = NULL").row_count(), 0u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE NULL = NULL").row_count(), 0u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE dept > 1 OR dept < 2").row_count(),
              4u);
    EXPECT_TRUE(q("SELECT dept = 1 FROM emp WHERE name = 'eve'")
                    .scalar()
                    .is_null());

    // Text orders after numbers; integers and reals compare numerically.
    EXPECT_EQ(q("SELECT name FROM emp WHERE name > 5").row_count(), 5u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name < 5").row_count(), 0u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE 1 = 1.0").row_count(), 5u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE salary = 120.0").scalar().as_text(),
              "ann");

    // Several computed items in one row, and both sides of an operator
    // computed: each result is copied out before the next reuses scratch.
    auto rs = q("SELECT salary + 1, name, salary - 1, (salary + 1) * "
                "(salary - 1), salary > 100, dept IS NULL FROM emp "
                "WHERE name = 'bob'");
    ASSERT_EQ(rs.row_count(), 1u);
    EXPECT_EQ(rs.at(0, 0).as_integer(), 101);
    EXPECT_EQ(rs.at(0, 1).as_text(), "bob");
    EXPECT_EQ(rs.at(0, 2).as_integer(), 99);
    EXPECT_EQ(rs.at(0, 3).as_integer(), 9999);
    EXPECT_EQ(rs.at(0, 4).as_integer(), 0);
    EXPECT_EQ(rs.at(0, 5).as_integer(), 0);

    // ORDER BY a computed key that is not a select item; NULL sorts first.
    rs = q("SELECT name FROM emp ORDER BY salary * dept, name");
    ASSERT_EQ(rs.row_count(), 5u);
    EXPECT_EQ(rs.at(0, 0).as_text(), "eve");   // NULL key
    EXPECT_EQ(rs.at(1, 0).as_text(), "bob");   // 100
    EXPECT_EQ(rs.at(2, 0).as_text(), "ann");   // 120
    EXPECT_EQ(rs.at(3, 0).as_text(), "cat");   // 180
    EXPECT_EQ(rs.at(4, 0).as_text(), "dan");   // 220

    // Literal range bounds on an ordered index: a binary-searched range.
    db.table("emp")->create_index("salary", rdb::IndexKind::kOrdered);
    ExecStats range;
    rs = q("SELECT name FROM emp WHERE salary > 90 AND salary <= 110 "
           "ORDER BY name", &range);
    ASSERT_EQ(rs.row_count(), 2u);
    EXPECT_EQ(rs.at(0, 0).as_text(), "bob");
    EXPECT_EQ(rs.at(1, 0).as_text(), "dan");
    EXPECT_EQ(range.range_scans, 1u);
    EXPECT_EQ(range.rows_scanned, 2u);
}

// Join keys are text longer than the small-string buffer, so a borrowed
// probe key that dangled would read freed heap memory (ASan lane).
TEST_F(SqlFixture, TextKeyedEquiJoinByIndexAndByHash) {
    const std::string a = "alexandra-longname-0001", b = "bartholomew-longname-02";
    execute(db, "CREATE TABLE person (pk INTEGER PRIMARY KEY, full TEXT)");
    execute(db, "CREATE TABLE handle (pk INTEGER PRIMARY KEY, full TEXT, "
                "tag TEXT)");
    execute(db, "INSERT INTO person (full) VALUES ('" + a + "'), ('" + b +
                    "'), ('nobody-with-a-long-name'), (NULL)");
    execute(db, "INSERT INTO handle (full, tag) VALUES ('" + a +
                    "', 'alex-the-long-handle'), ('" + b +
                    "', 'bart-the-long-handle'), ('" + a +
                    "', 'sandra-long-handle'), (NULL, 'orphan')");
    const std::string sql =
        "SELECT p.full, h.tag FROM person p JOIN handle h ON h.full = p.full "
        "ORDER BY h.tag";
    auto check = [&](const ResultSet& rs) {
        ASSERT_EQ(rs.row_count(), 3u);
        EXPECT_EQ(rs.at(0, 0).as_text(), a);
        EXPECT_EQ(rs.at(0, 1).as_text(), "alex-the-long-handle");
        EXPECT_EQ(rs.at(1, 0).as_text(), b);
        EXPECT_EQ(rs.at(2, 1).as_text(), "sandra-long-handle");
    };
    PlannerOptions off;  // keep person as the driving table
    off.enable = false;

    ExecStats hashed;
    check(execute(db, sql, &hashed, {}, &off));
    EXPECT_EQ(hashed.hash_joins, 1u);
    EXPECT_EQ(hashed.index_lookups, 0u);

    db.table("handle")->create_index("full");
    ExecStats probed;
    check(execute(db, sql, &probed, {}, &off));
    EXPECT_EQ(probed.hash_joins, 0u);
    EXPECT_EQ(probed.index_lookups, 3u);  // the NULL key never probes
}

// GROUP BY and COUNT(DISTINCT) key on the Values (index_order equality),
// as SELECT DISTINCT does, not on their renderings.
TEST_F(SqlFixture, GroupingKeysOnValuesNotRenderings) {
    execute(db, "CREATE TABLE g (pk INTEGER PRIMARY KEY, t TEXT, r REAL)");
    execute(db, "INSERT INTO g (t, r) VALUES (NULL, 0.1234561), "
                "('NULL', 0.1234564), ('NULL', 0.5)");
    auto rs = q("SELECT t, COUNT(*) FROM g GROUP BY t ORDER BY 1");
    ASSERT_EQ(rs.row_count(), 2u);
    EXPECT_TRUE(rs.at(0, 0).is_null());
    EXPECT_EQ(rs.at(0, 1).as_integer(), 1);
    EXPECT_EQ(rs.at(1, 0).as_text(), "NULL");
    EXPECT_EQ(rs.at(1, 1).as_integer(), 2);

    EXPECT_EQ(q("SELECT DISTINCT r FROM g").row_count(), 3u);
    EXPECT_EQ(q("SELECT r FROM g GROUP BY r").row_count(), 3u);
    EXPECT_EQ(q("SELECT COUNT(DISTINCT r) FROM g").scalar().as_integer(), 3);
    EXPECT_DOUBLE_EQ(q("SELECT SUM(DISTINCT r) FROM g").scalar().as_real(),
                     0.1234561 + 0.1234564 + 0.5);
}

TEST_F(SqlFixture, LikeBacktracksWithoutBlowingUp) {
    // More edge cases of the two wildcards.
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '%'").row_count(), 5u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '%%n%'").row_count(), 2u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '_%_'").row_count(), 5u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '____'").row_count(), 0u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE '%e'").row_count(), 1u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE 'a%n'").row_count(), 1u);
    EXPECT_EQ(q("SELECT name FROM emp WHERE name LIKE 'b%b'").row_count(), 1u);

    // A pattern that tries every split at each '%' is exponential in the
    // number of '%'s: nine of them over 40 characters.
    execute(db, "CREATE TABLE s (pk INTEGER PRIMARY KEY, s TEXT)");
    execute(db, "INSERT INTO s (s) VALUES ('" + std::string(40, 'a') + "')");
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(q("SELECT s FROM s WHERE s LIKE '%a%a%a%a%a%a%a%a%b'").row_count(),
              0u);
    EXPECT_EQ(q("SELECT s FROM s WHERE s LIKE '%a%a%a%a%a%a%a%a%a'").row_count(),
              1u);
    EXPECT_EQ(q("SELECT s FROM s WHERE s LIKE '%a%a%a%a%a%a%a%a%_a'").row_count(),
              1u);
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(1));
}

// Compiled column-vs-literal filters (the batch kernels) must accept exactly
// the rows the generic evaluator accepts.  `(P) = 1` is the generic spelling
// of P: its left side is not a column, so it never compiles to a kernel,
// and it is truthy exactly when P is.  Every access path feeds the same
// batch filter, so each predicate runs behind each of them.
TEST_F(SqlFixture, ComparisonKernelsMatchGenericEvaluation) {
    execute(db, "CREATE TABLE k (pk INTEGER PRIMARY KEY, t TEXT, i INTEGER, "
                "r REAL, ix TEXT, o INTEGER, fk INTEGER)");
    execute(db, "CREATE TABLE p (pk INTEGER PRIMARY KEY)");
    const std::vector<std::string> texts = {
        "NULL", "'bob'", "'ann'", "''", "'x-long-text-value-beyond-sso-buffer'",
        "'x-long-text-value-beyond-sso-bufferZ'", "'5'"};
    const std::vector<std::string> ints = {"NULL", "1", "5", "0", "7", "2"};
    const std::vector<std::string> reals = {"NULL", "1.0", "5.0", "4.5", "0.25"};
    for (int row = 0; row < 140; ++row) {
        execute(db, "INSERT INTO k (t, i, r, ix, o, fk) VALUES (" +
                        texts[row % texts.size()] + ", " +
                        ints[row % ints.size()] + ", " +
                        reals[row % reals.size()] + ", 'key" +
                        std::to_string(row % 3) + "', " + std::to_string(row) +
                        ", " + std::to_string(row % 10) + ")");
    }
    for (int row = 0; row < 10; ++row)
        execute(db, "INSERT INTO p (pk) VALUES (" + std::to_string(row) + ")");
    db.table("k")->create_index("ix");
    db.table("k")->create_index("o", rdb::IndexKind::kOrdered);

    const std::vector<std::string> columns = {"k.t", "k.i", "k.r"};
    const std::vector<std::string> ops = {"=", "<>", "<", "<=", ">", ">="};
    const std::vector<std::string> literals = {
        "'bob'", "'x-long-text-value-beyond-sso-buffer'", "''", "'5'",
        "5", "1", "1.0", "5.0", "0", "NULL"};
    PlannerOptions off;  // keep the written join order: p drives, k probes
    off.enable = false;

    // `shape` holds one '%' where the predicate goes.
    auto check_all = [&](const std::string& shape, auto&& expect_path) {
        std::size_t nonempty = 0;
        for (const auto& c : columns)
            for (const auto& op : ops)
                for (const auto& lit : literals)
                    for (bool literal_first : {false, true}) {
                        std::string pred = literal_first ? lit + " " + op + " " + c
                                                         : c + " " + op + " " + lit;
                        auto at = shape.find('%');
                        std::string kernel = shape, generic = shape;
                        kernel.replace(at, 1, pred);
                        generic.replace(at, 1, "(" + pred + ") = 1");
                        ExecStats ks, gs;
                        ResultSet a = execute(db, kernel, &ks, {}, &off);
                        ResultSet b = execute(db, generic, &gs, {}, &off);
                        ASSERT_EQ(a.row_count(), b.row_count()) << kernel;
                        for (std::size_t r = 0; r < a.row_count(); ++r)
                            ASSERT_EQ(a.at(r, 0).as_integer(),
                                      b.at(r, 0).as_integer())
                                << kernel;
                        EXPECT_EQ(ks.rows_scanned, gs.rows_scanned) << kernel;
                        expect_path(ks);
                        nonempty += a.row_count() > 0;
                    }
        EXPECT_GT(nonempty, 0u) << shape;
    };
    check_all("SELECT k.pk FROM k WHERE % ORDER BY k.pk",
              [](const ExecStats& s) { EXPECT_EQ(s.rows_scanned, 140u); });
    check_all("SELECT k.pk FROM k WHERE k.ix = 'key1' AND % ORDER BY k.pk",
              [](const ExecStats& s) { EXPECT_EQ(s.index_lookups, 1u); });
    check_all("SELECT k.pk FROM k WHERE k.o >= 10 AND % AND k.o < 100 "
              "ORDER BY k.pk",
              [](const ExecStats& s) { EXPECT_EQ(s.range_scans, 1u); });
    check_all("SELECT k.pk FROM p JOIN k ON k.fk = p.pk WHERE % ORDER BY k.pk",
              [](const ExecStats& s) { EXPECT_EQ(s.hash_joins, 1u); });
    db.table("k")->create_index("fk");
    check_all("SELECT k.pk FROM p JOIN k ON k.fk = p.pk WHERE % ORDER BY k.pk",
              [](const ExecStats& s) { EXPECT_EQ(s.index_lookups, 10u); });

    // Known answers: NULL is unknown, numbers order before text, integers
    // and reals compare numerically, `literal op column` reads as written.
    auto count = [&](const std::string& where) {
        return q("SELECT COUNT(*) FROM k WHERE " + where).scalar().as_integer();
    };
    EXPECT_EQ(count("k.t = NULL"), 0);
    EXPECT_EQ(count("k.t <> NULL"), 0);
    EXPECT_EQ(count("k.t IS NOT NULL"), 120);
    EXPECT_EQ(count("k.t > 5"), 120);
    EXPECT_EQ(count("5 < k.t"), 120);
    EXPECT_EQ(count("k.i < 'a'"), count("k.i IS NOT NULL"));
    EXPECT_EQ(count("k.i = 1.0"), count("k.i = 1"));
    EXPECT_EQ(count("1.0 = k.i"), count("k.i = 1"));
    EXPECT_EQ(count("k.r = 1"), count("k.r = 1.0"));
    EXPECT_GT(count("k.r = 1"), 0);
    EXPECT_EQ(count("k.t = '5'"), 20);
    EXPECT_EQ(count("k.t = 5"), 0);
    EXPECT_EQ(count("'bob' > k.t"), count("k.t < 'bob'"));
}

// The kernel passes (drop by type, then text lengths, then bytes) over a
// table of more than two chunks, with NULLs at pseudo-random positions and
// texts of the literal's length but other bytes, so batches of survivors
// cross batch, chunk and stage boundaries.  Every kernel-eligible
// predicate must give the rows and rows_scanned of its generic `(P) = 1`
// spelling as the driving full scan, as a nested-loop later stage and
// behind the range path at both stages.
TEST_F(SqlFixture, KernelPassesMatchGenericEvaluationAcrossBatches) {
    constexpr std::size_t kRows = 2 * rdb::kChunkRows + 555;
    execute(db, "CREATE TABLE w (pk INTEGER PRIMARY KEY, t TEXT, i INTEGER, "
                "r REAL, o INTEGER)");
    execute(db, "CREATE TABLE p (pk INTEGER PRIMARY KEY)");
    const std::vector<Value> texts = {
        Value("bob"), Value("bib"), Value("bo"), Value("bobb"), Value(""),
        Value("5"), Value("x-long-text-value-beyond-sso-buffer"),
        Value("x-long-text-value-beyond-sso-buffeR")};
    const std::vector<Value> ints = {Value(0), Value(1), Value(2), Value(5),
                                     Value(7), Value(-3)};
    const std::vector<Value> reals = {Value(1.0), Value(2.5), Value(5.0),
                                      Value(0.25), Value(5), Value(2)};
    SplitMix64 rng(20261020);
    auto pick = [&](const std::vector<Value>& from, double null_share) {
        return rng.chance(null_share) ? Value::null()
                                      : from[rng.below(from.size())];
    };
    rdb::Table& w = *db.table("w");
    for (std::size_t row = 0; row < kRows; ++row)
        w.insert({Value::null(), pick(texts, 0.45), pick(ints, 0.3),
                  pick(reals, 0.3), Value(static_cast<std::int64_t>(row))});
    w.create_index("o", rdb::IndexKind::kOrdered);
    for (int row = 0; row < 3; ++row)
        execute(db, "INSERT INTO p (pk) VALUES (" + std::to_string(row) + ")");

    const std::vector<std::string> columns = {"w.t", "w.i", "w.r"};
    const std::vector<std::string> all_ops = {"=", "<>", "<", "<=", ">", ">="};
    // `w.t = 'bob'` at a later stage with no other access path drives it
    // as a hash probe, so the nested loop is checked with the other ops.
    const std::vector<std::string> unequal_ops(all_ops.begin() + 1,
                                               all_ops.end());
    const std::vector<std::string> literals = {
        "'bob'", "'bib'", "'x-long-text-value-beyond-sso-buffer'", "''",
        "5", "2.5", "NULL"};
    PlannerOptions off;  // keep the written join order: p drives, w follows
    off.enable = false;

    auto check_all = [&](const std::string& shape,
                         const std::vector<std::string>& ops,
                         auto&& expect_path) {
        std::size_t partial = 0;  // predicates that keep some rows, not all
        for (const auto& c : columns)
            for (const auto& op : ops)
                for (const auto& lit : literals)
                    for (bool literal_first : {false, true}) {
                        std::string pred = literal_first ? lit + " " + op + " " + c
                                                         : c + " " + op + " " + lit;
                        auto at = shape.find('%');
                        std::string kernel = shape, generic = shape;
                        kernel.replace(at, 1, pred);
                        generic.replace(at, 1, "(" + pred + ") = 1");
                        ExecStats ks, gs;
                        ResultSet a = execute(db, kernel, &ks, {}, &off);
                        ResultSet b = execute(db, generic, &gs, {}, &off);
                        ASSERT_EQ(a.row_count(), b.row_count()) << kernel;
                        for (std::size_t r = 0; r < a.row_count(); ++r)
                            ASSERT_EQ(a.at(r, 0).as_integer(),
                                      b.at(r, 0).as_integer())
                                << kernel;
                        EXPECT_EQ(ks.rows_scanned, gs.rows_scanned) << kernel;
                        EXPECT_EQ(ks.cancel_polls, gs.cancel_polls) << kernel;
                        expect_path(ks);
                        partial += a.row_count() > 0 &&
                                   a.row_count() < gs.rows_scanned;
                    }
        EXPECT_GT(partial, 0u) << shape;
    };
    check_all("SELECT w.pk FROM w WHERE % ORDER BY w.pk", all_ops,
              [&](const ExecStats& s) { EXPECT_EQ(s.rows_scanned, kRows); });
    check_all("SELECT w.pk FROM p JOIN w ON 1 = 1 WHERE % ORDER BY w.pk",
              unequal_ops,
              [&](const ExecStats& s) {
                  EXPECT_EQ(s.nested_loop_joins, 3u);
                  EXPECT_EQ(s.rows_scanned, 3 + 3 * kRows);
              });
    check_all("SELECT w.pk FROM w WHERE w.o >= 1000 AND % AND w.o < 2100 "
              "ORDER BY w.pk",
              all_ops,
              [](const ExecStats& s) {
                  EXPECT_EQ(s.range_scans, 1u);
                  EXPECT_EQ(s.rows_scanned, 1100u);
              });
    check_all("SELECT w.pk FROM p JOIN w ON w.o > p.pk * 1000 - 300 AND "
              "w.o <= p.pk * 1000 + 1100 WHERE % ORDER BY w.pk",
              all_ops, [](const ExecStats& s) {
                  EXPECT_EQ(s.range_scans, 3u);
                  EXPECT_EQ(s.rows_scanned, 3u + 1101 + 1400 + 902);
              });
}

// A constant key on an unindexed column of a later stage filters that
// stage's range-probe candidates instead of hashing the whole table on
// every execution; with no other path for the stage it still hashes.
TEST_F(SqlFixture, LiteralKeyFiltersRangeProbeInsteadOfHashing) {
    execute(db, "CREATE TABLE iv (pk INTEGER PRIMARY KEY, lo INTEGER, "
                "hi INTEGER)");
    execute(db, "CREATE TABLE pt (pk INTEGER PRIMARY KEY, x INTEGER, t TEXT)");
    execute(db, "INSERT INTO iv (lo, hi) VALUES (0, 10), (20, 30)");
    execute(db, "INSERT INTO pt (x, t) VALUES (5, 'a'), (6, 'b'), (25, 'a'), "
                "(40, 'a')");
    db.table("pt")->create_index("x", rdb::IndexKind::kOrdered);
    PlannerOptions off;
    off.enable = false;

    ExecStats ranged;
    auto rs = execute(db,
                      "SELECT pt.x FROM iv JOIN pt ON pt.x > iv.lo AND "
                      "pt.x < iv.hi WHERE pt.t = 'a' ORDER BY pt.x",
                      &ranged, {}, &off);
    ASSERT_EQ(rs.row_count(), 2u);
    EXPECT_EQ(rs.at(0, 0).as_integer(), 5);
    EXPECT_EQ(rs.at(1, 0).as_integer(), 25);
    EXPECT_EQ(ranged.hash_joins, 0u);
    EXPECT_EQ(ranged.range_scans, 2u);
    EXPECT_EQ(ranged.rows_scanned, 2u + 3u);  // iv rows, then range hits

    ExecStats hashed;
    rs = execute(db, "SELECT COUNT(*) FROM iv JOIN pt ON pt.t = 'a'", &hashed,
                 {}, &off);
    EXPECT_EQ(rs.scalar().as_integer(), 6);
    EXPECT_EQ(hashed.hash_joins, 1u);
    EXPECT_EQ(hashed.nested_loop_joins, 0u);
}

// A conjunct that reads no table is evaluated once, at stage 0's first
// candidate: when it is not true the driving scan stops there (nothing is
// scanned), and one that throws throws only when stage 0 has a row.
TEST_F(SqlFixture, TableFreeConjunctsRunOncePerExecution) {
    ExecStats stats;
    EXPECT_EQ(q("SELECT name FROM emp WHERE 1 = 0", &stats).row_count(), 0u);
    EXPECT_EQ(stats.rows_scanned, 0u);

    stats.reset();
    EXPECT_EQ(q("SELECT name FROM emp WHERE name <> 'bob' AND 2 > 3", &stats)
                  .row_count(),
              0u);
    EXPECT_EQ(stats.rows_scanned, 0u);

    stats.reset();
    EXPECT_EQ(q("SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept = d.pk "
                "AND 1 = 0",
                &stats)
                  .scalar()
                  .as_integer(),
              0);
    EXPECT_EQ(stats.rows_scanned, 0u);

    // True: every row is scanned and filtered as without it.
    stats.reset();
    EXPECT_EQ(q("SELECT name FROM emp WHERE 1 = 1 AND salary > 95", &stats)
                  .row_count(),
              3u);
    EXPECT_EQ(stats.rows_scanned, 5u);
    stats.reset();
    EXPECT_EQ(q("SELECT COUNT(*) FROM emp WHERE 1 = 0 OR 1 = 1", &stats)
                  .scalar()
                  .as_integer(),
              5);
    EXPECT_EQ(stats.rows_scanned, 5u);

    // An aggregate outside aggregation throws on evaluation: only once a
    // driving row exists.
    execute(db, "CREATE TABLE none (pk INTEGER PRIMARY KEY)");
    EXPECT_EQ(q("SELECT pk FROM none WHERE COUNT(*) = 1").row_count(), 0u);
    PlannerOptions off;
    off.enable = false;
    EXPECT_EQ(execute(db,
                      "SELECT none.pk FROM none JOIN emp ON emp.pk = none.pk "
                      "WHERE COUNT(*) = 1",
                      nullptr, {}, &off)
                  .row_count(),
              0u);
    EXPECT_THROW(q("SELECT name FROM emp WHERE COUNT(*) = 1"), QueryError);
    EXPECT_THROW(q("SELECT name FROM emp WHERE name = 'nobody' AND "
                   "COUNT(*) = 1"),
                 QueryError);
}

// Batch filtering keeps the per-candidate counters and the poll cadence: a
// filtered full scan counts every row as scanned and polls once per
// kCancelPollInterval of them, and a deadline fires in the middle of one.
TEST_F(SqlFixture, FilteredScanKeepsCountersAndCancellation) {
    constexpr std::size_t kRows = 5000;
    execute(db, "CREATE TABLE big (pk INTEGER PRIMARY KEY, t TEXT)");
    for (std::size_t i = 0; i < kRows; ++i)
        db.table("big")->insert(
            {Value::null(), Value("row-text-long-enough-to-leave-sso-" +
                                  std::to_string(i % 7))});

    ExecStats stats;
    auto rs = q("SELECT pk FROM big WHERE t = 'no-such-value'", &stats);
    EXPECT_EQ(rs.row_count(), 0u);
    EXPECT_EQ(stats.rows_scanned, kRows);
    EXPECT_EQ(stats.cancel_polls, kRows / kCancelPollInterval);

    stats.reset();
    rs = q("SELECT pk FROM big WHERE t = 'row-text-long-enough-to-leave-sso-3'",
           &stats);
    EXPECT_EQ(rs.row_count(), (kRows + 3) / 7);
    EXPECT_EQ(stats.rows_scanned, kRows);
    EXPECT_EQ(stats.cancel_polls, kRows / kCancelPollInterval);

    // A filtered nested-loop scan of kRows x kRows candidates outlasts a
    // 1 ms deadline by far; the polls inside the batch filter stop it.  No
    // candidate survives the filter, so no later phase polls the token.
    // (An equality on b.t would hash b once and probe it per outer row,
    // which can finish inside the deadline.)
    PlannerOptions off;
    off.enable = false;
    CancelToken token = CancelToken::make(
        {Deadline::after(std::chrono::milliseconds(1)), 0, 0});
    ExecStats cancelled;
    EXPECT_THROW(execute(db,
                         "SELECT COUNT(*) FROM big a JOIN big b ON 1 = 1 "
                         "WHERE b.t < 'a'",
                         &cancelled, token, &off),
                 DeadlineExceeded);
    EXPECT_EQ(cancelled.rows_scanned, 0u);  // an unwound query folds nothing
}

}  // namespace
}  // namespace xr::sql
