#include "sql/executor.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.hpp"
#include "common/table_printer.hpp"
#include "sql/parser.hpp"

namespace xr::sql {

namespace {

using rdb::Row;
using rdb::RowId;
using rdb::Table;
using rdb::Value;

bool truthy(const Value& v) {
    if (v.is_null()) return false;
    switch (v.type()) {
        case rdb::ValueType::kInteger: return v.as_integer() != 0;
        case rdb::ValueType::kReal: return v.as_real() != 0.0;
        case rdb::ValueType::kText: return !v.as_text().empty();
        default: return false;
    }
}

/// SQL LIKE with % and _ wildcards.  Iterative: on a mismatch it
/// backtracks to the last '%' and lets that '%' swallow one more character,
/// so a match costs O(|text| * |pattern|) with no allocation or recursion.
bool like_match(std::string_view text, std::string_view pattern) {
    std::size_t ti = 0, pi = 0;
    std::size_t star = std::string_view::npos;  // pattern index after the last '%'
    std::size_t star_ti = 0;                     // text index that '%' resumes at
    while (ti < text.size()) {
        if (pi < pattern.size() && pattern[pi] == '%') {
            star = ++pi;
            star_ti = ti;
        } else if (pi < pattern.size() &&
                   (pattern[pi] == '_' || pattern[pi] == text[ti])) {
            ++ti;
            ++pi;
        } else if (star != std::string_view::npos) {
            pi = star;
            ti = ++star_ti;
        } else {
            return false;
        }
    }
    while (pi < pattern.size() && pattern[pi] == '%') ++pi;
    return pi == pattern.size();
}

struct BoundTable {
    std::string alias;
    const Table* table = nullptr;
};

/// Resolves column references against the FROM/JOIN tables.
class Binder {
public:
    explicit Binder(std::vector<BoundTable> tables) : tables_(std::move(tables)) {}

    [[nodiscard]] const std::vector<BoundTable>& tables() const { return tables_; }

    void bind(Expr& e) const {
        switch (e.kind) {
            case Expr::Kind::kColumn: {
                resolve_column(e);
                return;
            }
            case Expr::Kind::kBinary:
                bind(*e.left);
                bind(*e.right);
                return;
            case Expr::Kind::kNot:
            case Expr::Kind::kIsNull:
                bind(*e.right);
                return;
            case Expr::Kind::kAggregate:
                if (e.right->kind != Expr::Kind::kStar) bind(*e.right);
                return;
            case Expr::Kind::kLiteral:
            case Expr::Kind::kStar:
                return;
        }
    }

private:
    std::vector<BoundTable> tables_;

    void resolve_column(Expr& e) const {
        if (!e.table.empty()) {
            for (std::size_t t = 0; t < tables_.size(); ++t) {
                if (tables_[t].alias != e.table) continue;
                int c = tables_[t].table->def().column_index(e.column);
                if (c < 0)
                    throw QueryError("no column '" + e.column + "' in '" +
                                     e.table + "'");
                e.bound_table = static_cast<int>(t);
                e.bound_column = c;
                return;
            }
            throw QueryError("unknown table alias '" + e.table + "'");
        }
        int found_t = -1, found_c = -1;
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            int c = tables_[t].table->def().column_index(e.column);
            if (c < 0) continue;
            if (found_t >= 0)
                throw QueryError("ambiguous column '" + e.column + "'");
            found_t = static_cast<int>(t);
            found_c = c;
        }
        if (found_t < 0) throw QueryError("unknown column '" + e.column + "'");
        e.bound_table = found_t;
        e.bound_column = found_c;
    }
};

/// Whether comparison `op` holds for operands ordered `ord`.
bool comparison_holds(BinaryOp op, std::strong_ordering ord) {
    switch (op) {
        case BinaryOp::kEq: return ord == std::strong_ordering::equal;
        case BinaryOp::kNe: return ord != std::strong_ordering::equal;
        case BinaryOp::kLt: return ord == std::strong_ordering::less;
        case BinaryOp::kLe: return ord != std::strong_ordering::greater;
        case BinaryOp::kGt: return ord == std::strong_ordering::greater;
        default: return ord != std::strong_ordering::less;
    }
}

/// Applies a non-short-circuit binary operator to two evaluated operands.
/// The result is never text, so building it allocates nothing.
Value apply_binary(BinaryOp op, const Value& a, const Value& b) {
    switch (op) {
        case BinaryOp::kAnd:
            return Value(static_cast<std::int64_t>(truthy(a) && truthy(b)));
        case BinaryOp::kOr:
            return Value(static_cast<std::int64_t>(truthy(a) || truthy(b)));
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
            auto ord = a.compare(b);
            if (!ord) return Value::null();
            return Value(static_cast<std::int64_t>(comparison_holds(op, *ord)));
        }
        case BinaryOp::kLike: {
            if (a.is_null() || b.is_null()) return Value::null();
            return Value(static_cast<std::int64_t>(
                like_match(a.as_text(), b.as_text())));
        }
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
            if (a.is_null() || b.is_null()) return Value::null();
            bool ints = a.type() == rdb::ValueType::kInteger &&
                        b.type() == rdb::ValueType::kInteger;
            if (ints) {
                std::int64_t x = a.as_integer(), y = b.as_integer();
                switch (op) {
                    case BinaryOp::kAdd: return Value(x + y);
                    case BinaryOp::kSub: return Value(x - y);
                    case BinaryOp::kMul: return Value(x * y);
                    case BinaryOp::kDiv:
                        if (y == 0) return Value::null();
                        return Value(x / y);
                    default:
                        if (y == 0) return Value::null();
                        return Value(x % y);
                }
            }
            double x = a.as_real(), y = b.as_real();
            switch (op) {
                case BinaryOp::kAdd: return Value(x + y);
                case BinaryOp::kSub: return Value(x - y);
                case BinaryOp::kMul: return Value(x * y);
                case BinaryOp::kDiv:
                    if (y == 0) return Value::null();
                    return Value(x / y);
                default:
                    return Value::null();
            }
        }
    }
    return Value::null();
}

/// Evaluates a bound expression against one joined row context.  The
/// result is borrowed, never copied: a column reference yields its row's
/// cell and a literal its Expr::literal, in place.  Only a computed value
/// (comparison, arithmetic, NOT, IS NULL) is written into `scratch`, which
/// the caller owns; the returned reference is valid while both the row
/// context and `scratch` are.
class Evaluator {
public:
    explicit Evaluator(const std::vector<BoundTable>& tables) : tables_(tables) {}

    const Value& eval(const Expr& e, std::span<const RowId> ctx,
                      Value& scratch) const {
        switch (e.kind) {
            case Expr::Kind::kLiteral:
                return e.literal;
            case Expr::Kind::kColumn:
                return tables_[e.bound_table].table->cell(ctx[e.bound_table],
                                                          e.bound_column);
            case Expr::Kind::kNot: {
                bool t = truthy(eval(*e.right, ctx, scratch));
                return scratch = Value(static_cast<std::int64_t>(!t));
            }
            case Expr::Kind::kIsNull: {
                bool is_null = eval(*e.right, ctx, scratch).is_null();
                return scratch = Value(static_cast<std::int64_t>(
                           e.negated ? !is_null : is_null));
            }
            case Expr::Kind::kBinary:
                return eval_binary(e, ctx, scratch);
            case Expr::Kind::kAggregate:
                throw QueryError("aggregate used outside aggregation context");
            case Expr::Kind::kStar:
                throw QueryError("'*' used outside COUNT(*)");
        }
        return scratch = Value::null();
    }

private:
    const std::vector<BoundTable>& tables_;

    const Value& eval_binary(const Expr& e, std::span<const RowId> ctx,
                             Value& scratch) const {
        // Short-circuit logic: each side is reduced to a bool before the
        // next evaluation reuses `scratch`.
        if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
            bool left = truthy(eval(*e.left, ctx, scratch));
            bool r = e.op == BinaryOp::kAnd
                         ? left && truthy(eval(*e.right, ctx, scratch))
                         : left || truthy(eval(*e.right, ctx, scratch));
            return scratch = Value(static_cast<std::int64_t>(r));
        }
        Value right_scratch;
        const Value& a = eval(*e.left, ctx, scratch);
        const Value& b = eval(*e.right, ctx, right_scratch);
        return scratch = apply_binary(e.op, a, b);
    }
};

/// Highest table index referenced by an expression (-1 if none).
int max_table(const Expr& e) {
    switch (e.kind) {
        case Expr::Kind::kColumn: return e.bound_table;
        case Expr::Kind::kBinary:
            return std::max(max_table(*e.left), max_table(*e.right));
        case Expr::Kind::kNot:
        case Expr::Kind::kIsNull:
            return max_table(*e.right);
        case Expr::Kind::kAggregate:
            return e.right->kind == Expr::Kind::kStar ? -1 : max_table(*e.right);
        default:
            return -1;
    }
}

bool contains_aggregate(const Expr& e) {
    switch (e.kind) {
        case Expr::Kind::kAggregate: return true;
        case Expr::Kind::kBinary:
            return contains_aggregate(*e.left) || contains_aggregate(*e.right);
        case Expr::Kind::kNot:
        case Expr::Kind::kIsNull:
            return contains_aggregate(*e.right);
        default:
            return false;
    }
}

/// Keeps, in order, the `n` ids of `ids` whose cell in `column` satisfies
/// `keep`, compacting them in place as `ids[kept] = id; kept += keep(cell)`:
/// no branch per id, so a column that mixes passing and failing cells
/// costs no mispredictions.  Returns how many were kept.
template <class Keep>
std::size_t keep_if(const Table& t, int column, RowId* ids, std::size_t n,
                    Keep keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        RowId id = ids[i];
        ids[kept] = id;
        kept += static_cast<std::size_t>(keep(t.cell(id, column)));
    }
    return kept;
}

/// Calls `f` with `op` as a compile-time constant, so a pass compiles one
/// comparison and no switch per row.
template <class F>
decltype(auto) with_op(BinaryOp op, F&& f) {
    using Op = BinaryOp;
    switch (op) {
        case Op::kEq: return f(std::integral_constant<Op, Op::kEq>{});
        case Op::kNe: return f(std::integral_constant<Op, Op::kNe>{});
        case Op::kLt: return f(std::integral_constant<Op, Op::kLt>{});
        case Op::kLe: return f(std::integral_constant<Op, Op::kLe>{});
        case Op::kGt: return f(std::integral_constant<Op, Op::kGt>{});
        default: return f(std::integral_constant<Op, Op::kGe>{});
    }
}

/// comparison_holds(Op, ordering of a and b) for numbers as Value::compare
/// orders them: as doubles, with an unordered pair (NaN) equal.
template <BinaryOp Op>
bool number_holds(double a, double b) {
    if constexpr (Op == BinaryOp::kEq) return !(a < b) & !(a > b);
    if constexpr (Op == BinaryOp::kNe) return (a < b) | (a > b);
    if constexpr (Op == BinaryOp::kLt) return a < b;
    if constexpr (Op == BinaryOp::kLe) return !(a > b);
    if constexpr (Op == BinaryOp::kGt) return a > b;
    return !(a < b);
}

/// A residual conjunct `column op literal` on a stage's own table, compiled
/// for the batch filter (DESIGN.md §13, "Execution: batch filtering").
/// `literal op column` is stored with its sides swapped, so `op` always
/// reads column-first.  `literal` points into the statement's AST, which
/// outlives the execution.
struct Kernel {
    int column = -1;
    BinaryOp op = BinaryOp::kEq;
    const Value* literal = nullptr;

    /// Exactly truthy(apply_binary(op, cell, *literal)): NULL is unknown
    /// and fails, types order as in Value::compare.  Never throws.  The
    /// per-cell definition filter() must agree with.
    [[nodiscard]] bool holds(const Value& cell) const {
        const std::string* text = literal->text_if();
        const std::string* cell_text = cell.text_if();
        if (text != nullptr && cell_text != nullptr)
            return comparison_holds(op, *cell_text <=> *text);
        auto ord = cell.compare(*literal);
        return ord && comparison_holds(op, *ord);
    }

    /// Keeps, in order, the ids among the first `n` of `ids` whose cell
    /// holds(); returns how many.  Runs as branch-free passes, each over
    /// the survivors of the last: drop the cells whose type cannot pass
    /// (NULL always), then decide text `=` / `<>` by length, then compare
    /// the bytes of same-length cells only.  Numbers compare in line.
    /// `n` is at most kCancelPollInterval.
    std::size_t filter(const Table& t, RowId* ids, std::size_t n) const {
        if (literal->is_null()) return 0;
        const std::string* text = literal->text_if();
        if (text != nullptr && op == BinaryOp::kEq) {
            // Only a TEXT cell can equal a text literal.
            n = keep_if(t, column, ids, n, [](const Value& c) {
                return c.type() == rdb::ValueType::kText;
            });
            n = keep_if(t, column, ids, n, [&](const Value& c) {
                return c.text_if()->size() == text->size();
            });
            return keep_if(t, column, ids, n, [&](const Value& c) {
                return same_bytes(*c.text_if(), *text);
            });
        }
        n = keep_if(t, column, ids, n,
                    [](const Value& c) { return !c.is_null(); });
        if (text != nullptr) {
            if (op == BinaryOp::kNe) return drop_equal_text(t, ids, n, *text);
            return keep_if(t, column, ids, n,
                           [&](const Value& c) { return holds(c); });
        }
        double number = literal->as_real();
        return with_op(op, [&](auto o) {
            constexpr BinaryOp kOp = decltype(o)::value;
            return keep_if(t, column, ids, n, [&](const Value& c) {
                if (const std::int64_t* i = c.integer_if())
                    return number_holds<kOp>(static_cast<double>(*i), number);
                if (const double* d = c.real_if())
                    return number_holds<kOp>(*d, number);
                return holds(c);  // text orders after every number
            });
        });
    }

private:
    /// Byte equality of two texts already known to have the same length.
    static bool same_bytes(const std::string& a, const std::string& b) {
        return std::memcmp(a.data(), b.data(), a.size()) == 0;
    }

    /// `column <> text` over non-NULL cells: a number or a text of another
    /// length passes without reading a byte; only the same-length texts
    /// are compared, and the equal ones dropped.
    std::size_t drop_equal_text(const Table& t, RowId* ids, std::size_t n,
                                const std::string& text) const {
        static_assert(kCancelPollInterval <= 256, "positions are bytes");
        auto cell = [&](std::size_t i) -> const Value& {
            return t.cell(ids[i], column);
        };
        std::array<std::uint8_t, kCancelPollInterval> at{};  // batch positions
        std::size_t m = 0;
        for (std::size_t i = 0; i < n; ++i) {
            at[m] = static_cast<std::uint8_t>(i);
            m += cell(i).type() == rdb::ValueType::kText;
        }
        std::size_t same = 0;
        for (std::size_t j = 0; j < m; ++j) {
            at[same] = at[j];
            same += cell(at[j]).text_if()->size() == text.size();
        }
        std::array<bool, kCancelPollInterval> equal{};
        for (std::size_t j = 0; j < same; ++j)
            equal[at[j]] = same_bytes(*cell(at[j]).text_if(), text);
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ids[kept] = ids[i];
            kept += !equal[i];
        }
        return kept;
    }
};

/// Compiles `e` into a kernel when it is `column op literal` or `literal op
/// column` with a comparison operator.
std::optional<Kernel> compile_kernel(const Expr& e) {
    if (e.kind != Expr::Kind::kBinary) return std::nullopt;
    BinaryOp flipped;
    switch (e.op) {
        case BinaryOp::kEq: flipped = BinaryOp::kEq; break;
        case BinaryOp::kNe: flipped = BinaryOp::kNe; break;
        case BinaryOp::kLt: flipped = BinaryOp::kGt; break;
        case BinaryOp::kLe: flipped = BinaryOp::kGe; break;
        case BinaryOp::kGt: flipped = BinaryOp::kLt; break;
        case BinaryOp::kGe: flipped = BinaryOp::kLe; break;
        default: return std::nullopt;
    }
    const Expr& l = *e.left;
    const Expr& r = *e.right;
    if (l.kind == Expr::Kind::kColumn && r.kind == Expr::Kind::kLiteral)
        return Kernel{l.bound_column, e.op, &r.literal};
    if (l.kind == Expr::Kind::kLiteral && r.kind == Expr::Kind::kColumn)
        return Kernel{r.bound_column, flipped, &l.literal};
    return std::nullopt;
}

/// One stage of the left-deep join pipeline.
struct Stage {
    int table = 0;
    // Equi-join access: probe `outer` (bound to earlier tables) against
    // `inner_column` of this stage's table, through secondary index
    // `index`, the primary-key lookup (`pk_probe`) or the ad-hoc `hash`.
    const Expr* probe_outer = nullptr;
    int inner_column = -1;
    bool pk_probe = false;
    std::unordered_multimap<Value, RowId, rdb::ValueHash> hash;
    // Literal equality for the driving table, looked up in `index`.
    const Expr* driving_eq_literal = nullptr;
    /// Position (Table::index_position) of the index an equi-join probe
    /// or the driving literal equality reads, resolved once; -1 for none.
    int index = -1;
    // Structural (interval) join: range bounds on one ordered-indexed
    // column of this stage's table, the bound expressions referencing only
    // earlier tables.  Evaluated per outer context and answered by binary
    // search on ordered index `range_index` — how a.pre < d.pre AND
    // d.pre < a.post containment runs.
    int range_column = -1;
    int range_index = -1;
    const Expr* range_lo = nullptr;
    bool range_lo_strict = false;
    const Expr* range_hi = nullptr;
    bool range_hi_strict = false;
    std::vector<Kernel> kernels;  ///< batch filters, run before `residual`
    std::vector<const Expr*> residual;  ///< generic filters at this stage
};

/// Row hashing/equality over Values for DISTINCT (NULLs compare equal,
/// numerics compare numerically — the index_order convention).
struct RowHasher {
    std::size_t operator()(const Row& row) const {
        std::size_t h = 0x9e3779b97f4a7c15ULL;
        for (const auto& v : row) h = (h * 1099511628211ULL) ^ v.hash();
        return h;
    }
};
struct RowEqual {
    bool operator()(const Row& a, const Row& b) const {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].index_order(b[i]) != std::strong_ordering::equal)
                return false;
        return true;
    }
};

/// Approximate heap footprint of one output row, for byte budgets.
std::size_t approx_row_bytes(const Row& row) {
    std::size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
    for (const auto& v : row)
        if (v.type() == rdb::ValueType::kText) bytes += v.as_text().size();
    return bytes;
}

class SelectExecutor {
public:
    SelectExecutor(rdb::ReadView db, SelectStmt& stmt, ExecStats* stats,
                   const CancelToken& cancel)
        : db_(db), stmt_(stmt), stats_(stats), cancel_(cancel) {}

    ResultSet run() {
        bind_tables();
        Binder binder(tables_);
        Evaluator eval(binder.tables());

        // Bind every expression.
        for (auto& item : stmt_.items)
            if (!item.star) binder.bind(*item.expr);
        for (auto& join : stmt_.joins)
            if (join.on) binder.bind(*join.on);
        if (stmt_.where) binder.bind(*stmt_.where);
        for (auto& g : stmt_.group_by) binder.bind(*g);
        if (stmt_.having) binder.bind(*stmt_.having);
        // ORDER BY may reference a select alias or a 1-based position; those
        // resolve against the output row, not a table column.
        order_output_idx_.assign(stmt_.order_by.size(), -1);
        for (std::size_t k = 0; k < stmt_.order_by.size(); ++k) {
            auto& o = stmt_.order_by[k];
            if (o.expr->kind == Expr::Kind::kLiteral &&
                o.expr->literal.type() == rdb::ValueType::kInteger) {
                order_output_idx_[k] =
                    static_cast<int>(o.expr->literal.as_integer()) - 1;
                continue;
            }
            if (o.expr->kind == Expr::Kind::kColumn && o.expr->table.empty()) {
                int out_idx = 0;
                bool matched = false;
                for (const auto& item : stmt_.items) {
                    if (!item.star && item.alias == o.expr->column) {
                        order_output_idx_[k] = out_idx;
                        matched = true;
                        break;
                    }
                    ++out_idx;
                }
                if (matched) continue;
            }
            binder.bind(*o.expr);
        }

        build_stages();

        // Aggregation?
        bool aggregate = !stmt_.group_by.empty();
        for (const auto& item : stmt_.items)
            if (!item.star && contains_aggregate(*item.expr)) aggregate = true;
        if (stmt_.having && contains_aggregate(*stmt_.having)) aggregate = true;

        ResultSet result;
        expand_columns(result);

        // A bare COUNT(*) over one unfiltered table needs no row
        // enumeration at all — the table knows its cardinality.  This is
        // the cold path of a structural count(//x), which translates to
        // exactly 'SELECT COUNT(*) FROM x'.
        if (aggregate && bare_count_star()) {
            result.rows.push_back(Row{rdb::Value(
                static_cast<std::int64_t>(tables_[0].table->row_count()))});
            if (stats_ != nullptr) stats_->add(local_);
            return result;
        }

        if (aggregate || !stmt_.order_by.empty()) {
            // Aggregation and sorting need every row context at once; each
            // buffered context counts against the row budget — this
            // intermediate buffer is exactly the memory a budget guards.
            // One flat buffer, a context every tables_.size() ids.
            std::vector<RowId> contexts;
            enumerate(eval, [&](std::span<const RowId> ctx) {
                cancel_.charge_rows();
                contexts.insert(contexts.end(), ctx.begin(), ctx.end());
            });
            if (aggregate) run_aggregate(eval, contexts, result);
            else run_plain(eval, contexts, result);
        } else {
            // Plain unsorted selects project straight out of the join
            // enumeration — no materialized context list, no second pass.
            // This keeps the cold path of a bare structural scan (a
            // join-free '//x' interval plan) at one row copy per result.
            enumerate(eval, [&](std::span<const RowId> ctx) {
                Row out = project(eval, ctx);
                charge_output(out);
                result.rows.push_back(std::move(out));
            });
        }

        if (stmt_.distinct) {
            // Hash directly on the Values (Value::hash is consistent with
            // index_order equality) — no per-cell string rendering, which
            // dominated DISTINCT-heavy translated queries.
            std::unordered_set<Row, RowHasher, RowEqual> seen;
            seen.reserve(result.rows.size());
            std::vector<Row> unique;
            for (auto& row : result.rows) {
                poll_cancel();
                if (seen.insert(row).second) unique.push_back(std::move(row));
            }
            result.rows = std::move(unique);
        }

        if (stmt_.limit && result.rows.size() > *stmt_.limit)
            result.rows.resize(*stmt_.limit);

        // Publish counters only now that the execution finished: callers
        // sharing one ExecStats across threads see whole-query totals.
        if (stats_ != nullptr) stats_->add(local_);
        return result;
    }

private:
    rdb::ReadView db_;
    SelectStmt& stmt_;
    ExecStats* stats_;
    const CancelToken& cancel_;
    std::size_t since_poll_ = 0;  ///< rows since the last cancellation poll
    ExecStats local_;  ///< this execution's counters; folded in at the end
    std::vector<BoundTable> tables_;
    std::vector<Stage> stages_;
    std::vector<const Expr*> final_filters_;
    /// Conjuncts that reference no table, checked at stage 0's first
    /// candidate (so one that throws still throws only when a row exists).
    std::vector<const Expr*> table_free_;
    std::vector<int> order_output_idx_;  ///< -1 = evaluate against the row ctx

    void count(std::atomic<std::size_t> ExecStats::*member, std::size_t n = 1) {
        (local_.*member).fetch_add(n, std::memory_order_relaxed);
    }

    /// Cancellation checkpoint (DESIGN.md §11): every kCancelPollInterval
    /// rows — whether scanned during join enumeration / range scans or
    /// visited by a final pass — the executor arms the `exec.cancel_poll`
    /// fault point and polls the token.  A fired deadline / cancel unwinds
    /// as the matching CancelledError with no state to clean up (SELECTs
    /// have no side effects; the local stats fold simply never happens).
    void poll_cancel(std::size_t rows = 1) {
        since_poll_ += rows;  // rows <= kCancelPollInterval: one poll at most
        if (since_poll_ < kCancelPollInterval) return;
        since_poll_ -= kCancelPollInterval;
        count(&ExecStats::cancel_polls);
        fault::maybe_fail("exec.cancel_poll");
        cancel_.check();
    }

    /// Budget accounting for one materialized output row.
    void charge_output(const Row& row) {
        if (!cancel_.active()) return;
        cancel_.charge_rows();
        cancel_.charge_bytes(approx_row_bytes(row));
    }

    /// 'SELECT COUNT(*) FROM t' with no filter, grouping or sort — the
    /// answer is the table's row count.
    [[nodiscard]] bool bare_count_star() const {
        if (stages_.size() != 1 || stmt_.where != nullptr ||
            !stmt_.group_by.empty() || stmt_.having != nullptr ||
            stmt_.distinct || !stmt_.order_by.empty() ||
            stmt_.items.size() != 1)
            return false;
        const Stage& s = stages_[0];
        if (!s.residual.empty() || s.driving_eq_literal != nullptr)
            return false;
        const auto& item = stmt_.items[0];
        if (item.star) return false;
        const Expr& e = *item.expr;
        return e.kind == Expr::Kind::kAggregate &&
               e.fn == AggregateFn::kCount && !e.distinct &&
               e.right != nullptr && e.right->kind == Expr::Kind::kStar;
    }

    void bind_tables() {
        auto add = [&](const TableRef& ref) {
            const Table* t = db_.table(ref.table);
            if (t == nullptr)
                throw QueryError("unknown table '" + ref.table + "'");
            tables_.push_back({ref.effective_alias(), t});
        };
        add(stmt_.from);
        for (const auto& join : stmt_.joins) add(join.table);
    }

    /// Whether a probe of `column` of stage `s` can use the table's own
    /// index rather than an ad-hoc hash; the pk column's lookup structure
    /// counts as an index.
    [[nodiscard]] bool probe_indexed(std::size_t s, int column) const {
        const Table* t = tables_[s].table;
        return t->def().columns[column].primary_key ||
               t->index_position(column) >= 0;
    }

    void build_stages() {
        // Gather conjuncts of all ON clauses and WHERE, each annotated with
        // the latest stage it can run at.
        std::vector<const Expr*> conjuncts;
        auto split = [&](const ExprPtr& e) {
            if (!e) return;
            std::function<void(const Expr*)> walk = [&](const Expr* node) {
                if (node->kind == Expr::Kind::kBinary &&
                    node->op == BinaryOp::kAnd) {
                    walk(node->left.get());
                    walk(node->right.get());
                    return;
                }
                conjuncts.push_back(node);
            };
            walk(e.get());
        };
        for (const auto& join : stmt_.joins) split(join.on);
        split(stmt_.where);

        stages_.resize(tables_.size());
        for (std::size_t i = 0; i < tables_.size(); ++i)
            stages_[i].table = static_cast<int>(i);

        std::vector<bool> used(conjuncts.size(), false);

        // Pick equi-join drivers for stages 1..n-1.  A table-free key on a
        // column with no index would make the probe build an ad-hoc hash of
        // the whole table, every execution, for one constant key; the
        // planner costs such a conjunct as a filter, not a join.  So it
        // drives a stage only when nothing else can (`literal_hash`, after
        // the range probes below); otherwise it runs as a kernel.
        auto pick_drivers = [&](bool literal_hash) {
            for (std::size_t s = 1; s < stages_.size(); ++s) {
                Stage& st = stages_[s];
                if (st.probe_outer != nullptr || st.range_column >= 0) continue;
                for (std::size_t c = 0; c < conjuncts.size(); ++c) {
                    if (used[c]) continue;
                    const Expr* e = conjuncts[c];
                    if (e->kind != Expr::Kind::kBinary || e->op != BinaryOp::kEq)
                        continue;
                    const Expr *inner = nullptr, *outer = nullptr;
                    auto classify = [&](const Expr* side, const Expr* other) {
                        if (side->kind == Expr::Kind::kColumn &&
                            side->bound_table == static_cast<int>(s) &&
                            max_table(*other) < static_cast<int>(s)) {
                            inner = side;
                            outer = other;
                        }
                    };
                    classify(e->left.get(), e->right.get());
                    if (inner == nullptr) classify(e->right.get(), e->left.get());
                    if (inner == nullptr) continue;
                    bool hashed_literal = max_table(*outer) < 0 &&
                                          !probe_indexed(s, inner->bound_column);
                    if (hashed_literal != literal_hash) continue;
                    st.probe_outer = outer;
                    st.inner_column = inner->bound_column;
                    used[c] = true;
                    break;
                }
            }
        };
        pick_drivers(false);

        // Driving-table literal equality: consumed only when the column is
        // actually indexed — otherwise the conjunct must stay a residual
        // filter.  Chosen before range bounds so a literal-bounded range
        // scan of the driving table only kicks in without an equality.
        for (std::size_t c = 0; c < conjuncts.size(); ++c) {
            if (used[c]) continue;
            const Expr* e = conjuncts[c];
            if (e->kind != Expr::Kind::kBinary || e->op != BinaryOp::kEq) continue;
            auto try_side = [&](const Expr* col, const Expr* lit) {
                if (col->kind != Expr::Kind::kColumn || col->bound_table != 0 ||
                    lit->kind != Expr::Kind::kLiteral ||
                    stages_[0].driving_eq_literal != nullptr)
                    return false;
                int index = tables_[0].table->index_position(col->bound_column);
                if (index < 0) return false;
                stages_[0].driving_eq_literal = lit;
                stages_[0].index = index;
                return true;
            };
            if (try_side(e->left.get(), e->right.get()) ||
                try_side(e->right.get(), e->left.get()))
                used[c] = true;
        }

        // Range probes for stages that found no equi-join driver: inequality
        // conjuncts bounding one ordered-indexed column of the stage's table
        // by expressions over earlier tables become a binary-searched range
        // scan instead of a nested loop.  At most one lower and one upper
        // bound, both on the same column; any further conjunct stays a
        // residual filter.  Stage 0 qualifies too (max_table < 0 means the
        // bounds are table-free): literal bounds on an ordered-indexed
        // column turn the driving full scan into a binary-searched range.
        for (std::size_t s = 0; s < stages_.size(); ++s) {
            Stage& st = stages_[s];
            if (st.probe_outer != nullptr) continue;
            if (s == 0 && st.driving_eq_literal != nullptr) continue;
            for (std::size_t c = 0; c < conjuncts.size(); ++c) {
                if (used[c]) continue;
                const Expr* e = conjuncts[c];
                if (e->kind != Expr::Kind::kBinary) continue;
                if (e->op != BinaryOp::kLt && e->op != BinaryOp::kLe &&
                    e->op != BinaryOp::kGt && e->op != BinaryOp::kGe)
                    continue;
                // Normalize to: column-of-stage-s OP outer-expr.
                const Expr *col = nullptr, *bound = nullptr;
                bool col_on_left = false;
                auto classify = [&](const Expr* side, const Expr* other,
                                    bool left) {
                    if (col == nullptr && side->kind == Expr::Kind::kColumn &&
                        side->bound_table == static_cast<int>(s) &&
                        max_table(*other) < static_cast<int>(s)) {
                        col = side;
                        bound = other;
                        col_on_left = left;
                    }
                };
                classify(e->left.get(), e->right.get(), true);
                classify(e->right.get(), e->left.get(), false);
                if (col == nullptr) continue;
                if (st.range_column >= 0 && st.range_column != col->bound_column)
                    continue;
                int index =
                    tables_[s].table->index_position(col->bound_column, true);
                if (index < 0) continue;
                // `col OP bound` with col on the right flips the direction.
                bool greater = e->op == BinaryOp::kGt || e->op == BinaryOp::kGe;
                if (!col_on_left) greater = !greater;
                bool strict = e->op == BinaryOp::kGt || e->op == BinaryOp::kLt;
                if (greater) {
                    if (st.range_lo != nullptr) continue;
                    st.range_lo = bound;
                    st.range_lo_strict = strict;
                } else {
                    if (st.range_hi != nullptr) continue;
                    st.range_hi = bound;
                    st.range_hi_strict = strict;
                }
                st.range_column = col->bound_column;
                st.range_index = index;
                used[c] = true;
            }
        }

        pick_drivers(true);

        // Everything else filters at the earliest possible stage: as a
        // batch kernel when it compares a column of that stage's table with
        // a literal, else as a generic residual.  A conjunct that reads no
        // table holds for every row context or for none; it runs once.
        for (std::size_t c = 0; c < conjuncts.size(); ++c) {
            if (used[c]) continue;
            int table = max_table(*conjuncts[c]);
            if (table < 0) {
                table_free_.push_back(conjuncts[c]);
                continue;
            }
            Stage& st = stages_[table];
            if (auto kernel = compile_kernel(*conjuncts[c]))
                st.kernels.push_back(*kernel);
            else
                st.residual.push_back(conjuncts[c]);
        }

        // Prepare the equi-join probes: an index, else the pk lookup, else
        // a hash of the whole table built once per execution.
        for (std::size_t s = 1; s < stages_.size(); ++s) {
            Stage& st = stages_[s];
            if (st.probe_outer == nullptr) continue;
            const Table* t = tables_[s].table;
            st.index = t->index_position(st.inner_column);
            if (st.index < 0 && t->def().columns[st.inner_column].primary_key) {
                st.pk_probe = true;
            } else if (st.index < 0) {
                for (RowId id = 0; id < t->row_count(); ++id)
                    st.hash.emplace(t->cell(id, st.inner_column), id);
                count(&ExecStats::hash_joins);
            }
        }
    }

    using Batch = std::array<RowId, kCancelPollInterval>;

    void enumerate(const Evaluator& eval,
                   const std::function<void(std::span<const RowId>)>& emit) {
        std::vector<RowId> ctx(tables_.size());
        bool table_free_checked = table_free_.empty();

        std::function<void(std::size_t)> descend = [&](std::size_t s) {
            const Stage& stage = stages_[s];
            Value scratch;  // residual results; a borrowed cell needs none
            // The access path fills `batch` kCancelPollInterval candidates
            // at a time; the batch filter keeps the survivors, and only
            // they reach the generic residuals and the next stage.
            Batch batch;
            auto residuals_hold = [&] {
                for (const Expr* r : stage.residual)
                    if (!truthy(eval.eval(*r, ctx, scratch))) return false;
                return true;
            };
            for_each_batch(s, eval, ctx, batch, [&](std::size_t n) {
                if (!table_free_checked) {
                    // Only stage 0 gets here, and only once, with at least
                    // one row: when a table-free conjunct is not true,
                    // nothing passes.
                    table_free_checked = true;
                    for (const Expr* e : table_free_)
                        if (!truthy(eval.eval(*e, ctx, scratch))) return false;
                }
                std::size_t kept = filter_batch(s, batch.data(), n);
                for (std::size_t i = 0; i < kept; ++i) {
                    ctx[s] = batch[i];
                    if (!residuals_hold()) continue;
                    if (s + 1 == stages_.size()) emit(ctx);
                    else descend(s + 1);
                }
                return true;
            });
        };

        if (tables_.empty()) return;
        descend(0);
    }

    /// The batch filter every access path feeds: counts the `n` candidate
    /// rows of stage `s` as scanned, polls the token once per
    /// kCancelPollInterval of them, then runs each kernel's passes over
    /// the batch, compacting survivors to the front of `ids`.  Returns how
    /// many survived.
    std::size_t filter_batch(std::size_t s, RowId* ids, std::size_t n) {
        count(&ExecStats::rows_scanned, n);
        poll_cancel(n);
        const Table& t = *tables_[s].table;
        for (const Kernel& k : stages_[s].kernels) {
            if (n == 0) break;
            n = k.filter(t, ids, n);
        }
        return n;
    }

    /// Hands the candidate rows of stage `s` for the outer context `ctx`
    /// to `run`, up to kCancelPollInterval at a time in `batch`, through
    /// the stage's access path: a full scan writes runs of consecutive row
    /// ids, an index or range lookup copies slices of the ids it found, a
    /// hash or pk probe gathers its matches.  `run(n)` reads the first `n`
    /// ids of `batch` and returns false to end the enumeration early.
    template <class Run>
    void for_each_batch(std::size_t s, const Evaluator& eval,
                        std::span<const RowId> ctx, Batch& batch, Run&& run) {
        const Stage& stage = stages_[s];
        const Table* t = tables_[s].table;
        auto feed = [&](const std::vector<RowId>& ids) {
            for (std::size_t i = 0; i < ids.size(); i += batch.size()) {
                std::size_t n = std::min(batch.size(), ids.size() - i);
                std::copy_n(ids.begin() + i, n, batch.begin());
                if (!run(n)) return;
            }
        };

        if (s == 0 && stage.driving_eq_literal != nullptr) {
            count(&ExecStats::index_lookups);
            feed(t->index_lookup_at(stage.index,
                                    stage.driving_eq_literal->literal));
            return;
        }

        if (stage.probe_outer != nullptr) {
            Value key_scratch;
            const Value& key = eval.eval(*stage.probe_outer, ctx, key_scratch);
            if (key.is_null()) return;
            if (stage.index >= 0) {
                count(&ExecStats::index_lookups);
                feed(t->index_lookup_at(stage.index, key));
            } else if (stage.pk_probe) {
                count(&ExecStats::index_lookups);
                if (auto id = t->find_pk_rowid(key.as_integer())) {
                    batch[0] = *id;
                    run(1);
                }
            } else {
                auto range = stage.hash.equal_range(key);
                std::size_t n = 0;
                for (auto it = range.first; it != range.second; ++it) {
                    batch[n++] = it->second;
                    if (n == batch.size()) {
                        if (!run(n)) return;
                        n = 0;
                    }
                }
                if (n > 0) run(n);
            }
            return;
        }

        if (stage.range_column >= 0) {
            // Stage 0 reaches here too: literal bounds evaluate against
            // the (empty) outer context and binary-search the driving
            // table's ordered index instead of scanning it.
            Value lo_scratch, hi_scratch;
            const Value *lop = nullptr, *hip = nullptr;
            if (stage.range_lo != nullptr) {
                lop = &eval.eval(*stage.range_lo, ctx, lo_scratch);
                if (lop->is_null()) return;  // unknown bound: no matches
            }
            if (stage.range_hi != nullptr) {
                hip = &eval.eval(*stage.range_hi, ctx, hi_scratch);
                if (hip->is_null()) return;
            }
            count(&ExecStats::range_scans);
            feed(t->index_range_lookup_at(stage.range_index, lop,
                                          stage.range_lo_strict, hip,
                                          stage.range_hi_strict));
            return;
        }

        if (s > 0) count(&ExecStats::nested_loop_joins);
        const std::size_t rows = t->row_count();
        for (std::size_t first = 0; first < rows; first += batch.size()) {
            std::size_t n = std::min(batch.size(), rows - first);
            std::iota(batch.begin(), batch.begin() + n,
                      static_cast<RowId>(first));
            if (!run(n)) return;
        }
    }

    /// One output row of a non-aggregate select.
    Row project(const Evaluator& eval, std::span<const RowId> ctx) const {
        Row out;
        out.reserve(stmt_.items.size());
        Value scratch;
        for (const auto& item : stmt_.items) {
            if (item.star) {
                for (std::size_t t = 0; t < tables_.size(); ++t)
                    for (const Value& v : tables_[t].table->row(ctx[t]))
                        out.push_back(v);
            } else {
                out.push_back(eval.eval(*item.expr, ctx, scratch));
            }
        }
        return out;
    }

    void expand_columns(ResultSet& result) const {
        for (const auto& item : stmt_.items) {
            if (item.star) {
                for (const auto& bt : tables_)
                    for (const auto& c : bt.table->def().columns)
                        result.columns.push_back(bt.alias + "." + c.name);
            } else {
                result.columns.push_back(item.alias.empty()
                                             ? item.expr->to_string()
                                             : item.alias);
            }
        }
    }

    /// The `i`-th row context of a flat context buffer.
    [[nodiscard]] std::span<const RowId> context(std::span<const RowId> contexts,
                                                 std::size_t i) const {
        return contexts.subspan(i * tables_.size(), tables_.size());
    }
    [[nodiscard]] std::size_t context_count(
        std::span<const RowId> contexts) const {
        return contexts.size() / tables_.size();
    }

    void run_plain(const Evaluator& eval, std::span<const RowId> contexts,
                   ResultSet& result) {
        for (std::size_t i = 0; i < context_count(contexts); ++i) {
            poll_cancel();
            Row out = project(eval, context(contexts, i));
            charge_output(out);
            result.rows.push_back(std::move(out));
        }
        sort_rows(eval, contexts, result);
    }

    void sort_rows(const Evaluator& eval, std::span<const RowId> contexts,
                   ResultSet& result) {
        if (stmt_.order_by.empty()) return;
        // Evaluate sort keys per row, then sort row/key pairs together.
        struct Keyed {
            Row row;
            std::vector<Value> keys;
        };
        std::vector<Keyed> keyed;
        keyed.reserve(result.rows.size());
        Value scratch;
        for (std::size_t i = 0; i < result.rows.size(); ++i) {
            poll_cancel();
            Keyed k;
            k.row = std::move(result.rows[i]);
            for (std::size_t j = 0; j < stmt_.order_by.size(); ++j) {
                int out = order_output_idx_[j];
                if (out >= 0 && out < static_cast<int>(k.row.size()))
                    k.keys.push_back(k.row[out]);
                else if (i < context_count(contexts))
                    k.keys.push_back(eval.eval(*stmt_.order_by[j].expr,
                                               context(contexts, i), scratch));
                else
                    k.keys.push_back(Value::null());
            }
            keyed.push_back(std::move(k));
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [&](const Keyed& a, const Keyed& b) {
                             for (std::size_t k = 0; k < stmt_.order_by.size(); ++k) {
                                 auto ord = a.keys[k].index_order(b.keys[k]);
                                 if (ord == std::strong_ordering::equal) continue;
                                 bool less = ord == std::strong_ordering::less;
                                 return stmt_.order_by[k].descending ? !less : less;
                             }
                             return false;
                         });
        result.rows.clear();
        for (auto& k : keyed) result.rows.push_back(std::move(k.row));
    }

    // -- aggregation -----------------------------------------------------------

    struct Accumulator {
        std::int64_t count = 0;
        double sum = 0;
        bool sum_is_int = true;
        std::int64_t isum = 0;
        Value min, max;
        /// COUNT/SUM/AVG(DISTINCT) inputs seen, equal by index_order.
        std::unordered_set<Value, rdb::ValueHash> distinct_seen;
    };

    void run_aggregate(const Evaluator& eval, std::span<const RowId> contexts,
                       ResultSet& result) {
        // Collect aggregate expressions across items + HAVING.
        std::vector<const Expr*> aggs;
        std::function<void(const Expr*)> find = [&](const Expr* e) {
            if (e->kind == Expr::Kind::kAggregate) {
                aggs.push_back(e);
                return;
            }
            if (e->kind == Expr::Kind::kBinary) {
                find(e->left.get());
                find(e->right.get());
            } else if (e->kind == Expr::Kind::kNot ||
                       e->kind == Expr::Kind::kIsNull) {
                find(e->right.get());
            }
        };
        for (const auto& item : stmt_.items)
            if (!item.star) find(item.expr.get());
        if (stmt_.having) find(stmt_.having.get());

        struct Group {
            std::vector<RowId> representative;
            std::vector<Accumulator> accs;
        };
        // Groups in first-seen order, keyed on the Values themselves
        // (index_order equality, as DISTINCT): NULL and 'NULL', or reals
        // that agree only to a few decimals, stay apart.
        std::vector<Group> groups;
        std::unordered_map<Row, std::size_t, RowHasher, RowEqual> group_of;
        Row key;
        Value scratch;
        for (std::size_t i = 0; i < context_count(contexts); ++i) {
            poll_cancel();
            std::span<const RowId> ctx = context(contexts, i);
            key.clear();
            for (const auto& g : stmt_.group_by)
                key.push_back(eval.eval(*g, ctx, scratch));
            auto [it, inserted] = group_of.try_emplace(key, groups.size());
            if (inserted) {
                groups.push_back({{ctx.begin(), ctx.end()},
                                  std::vector<Accumulator>(aggs.size())});
            }
            Group& group = groups[it->second];
            for (std::size_t a = 0; a < aggs.size(); ++a)
                accumulate(eval, *aggs[a], ctx, group.accs[a]);
        }
        // A global aggregate over zero rows still yields one group.
        if (groups.empty() && stmt_.group_by.empty())
            groups.push_back({{}, std::vector<Accumulator>(aggs.size())});

        for (const Group& group : groups) {
            auto final_value = [&](const Expr* e) {
                for (std::size_t a = 0; a < aggs.size(); ++a)
                    if (aggs[a] == e) return finalize(*e, group.accs[a]);
                throw QueryError("unregistered aggregate");
            };
            std::function<Value(const Expr&)> eval_out =
                [&](const Expr& e) -> Value {
                if (e.kind == Expr::Kind::kAggregate) return final_value(&e);
                if (e.kind == Expr::Kind::kBinary) {
                    // Aggregates are possible on either side.
                    return apply_binary(e.op, eval_out(*e.left),
                                        eval_out(*e.right));
                }
                // Over zero rows only table-free expressions have a value.
                if (group.representative.empty() && max_table(e) >= 0)
                    return Value::null();
                Value scratch;
                return eval.eval(e, group.representative, scratch);
            };

            if (stmt_.having && !truthy(eval_out(*stmt_.having))) continue;

            Row out;
            for (const auto& item : stmt_.items) {
                if (item.star)
                    throw QueryError("'*' cannot appear in an aggregate select");
                out.push_back(eval_out(*item.expr));
            }
            charge_output(out);
            result.rows.push_back(std::move(out));
        }

        // ORDER BY in aggregate mode: match select aliases / positions.
        if (!stmt_.order_by.empty()) {
            std::vector<std::pair<int, bool>> keys;  // column idx, desc
            for (std::size_t k = 0; k < stmt_.order_by.size(); ++k) {
                const auto& o = stmt_.order_by[k];
                int idx = order_output_idx_[k];
                if (idx < 0) {
                    for (std::size_t i = 0; i < stmt_.items.size(); ++i) {
                        const auto& item = stmt_.items[i];
                        if (item.star) continue;
                        if (item.expr->to_string() == o.expr->to_string())
                            idx = static_cast<int>(i);
                    }
                }
                if (idx < 0 || idx >= static_cast<int>(result.columns.size()))
                    throw QueryError(
                        "ORDER BY in aggregate queries must name a select "
                        "column or position");
                keys.emplace_back(idx, o.descending);
            }
            std::stable_sort(result.rows.begin(), result.rows.end(),
                             [&](const Row& a, const Row& b) {
                                 for (auto [idx, desc] : keys) {
                                     auto ord = a[idx].index_order(b[idx]);
                                     if (ord == std::strong_ordering::equal)
                                         continue;
                                     bool less = ord == std::strong_ordering::less;
                                     return desc ? !less : less;
                                 }
                                 return false;
                             });
        }
    }

    void accumulate(const Evaluator& eval, const Expr& agg,
                    std::span<const RowId> ctx, Accumulator& acc) {
        if (agg.right->kind == Expr::Kind::kStar) {
            ++acc.count;
            return;
        }
        Value scratch;
        const Value& v = eval.eval(*agg.right, ctx, scratch);
        if (v.is_null()) return;
        if (agg.distinct && !acc.distinct_seen.insert(v).second) return;
        ++acc.count;
        if (v.type() == rdb::ValueType::kInteger) {
            acc.isum += v.as_integer();
            acc.sum += v.as_real();
        } else if (v.type() == rdb::ValueType::kReal) {
            acc.sum_is_int = false;
            acc.sum += v.as_real();
        }
        if (acc.min.is_null() || v.index_order(acc.min) == std::strong_ordering::less)
            acc.min = v;
        if (acc.max.is_null() ||
            v.index_order(acc.max) == std::strong_ordering::greater)
            acc.max = v;
    }

    Value finalize(const Expr& agg, const Accumulator& acc) const {
        switch (agg.fn) {
            case AggregateFn::kCount:
                return Value(acc.count);
            case AggregateFn::kSum:
                if (acc.count == 0) return Value::null();
                return acc.sum_is_int ? Value(acc.isum) : Value(acc.sum);
            case AggregateFn::kMin:
                return acc.min;
            case AggregateFn::kMax:
                return acc.max;
            case AggregateFn::kAvg:
                if (acc.count == 0) return Value::null();
                return Value(acc.sum / static_cast<double>(acc.count));
        }
        return Value::null();
    }
};

}  // namespace

std::string ResultSet::to_string() const {
    TablePrinter printer(columns);
    for (const auto& row : rows) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const auto& v : row) cells.push_back(v.to_string());
        printer.add_row(std::move(cells));
    }
    return printer.to_string();
}

ResultSet execute(rdb::Database& db, std::string_view sql, ExecStats* stats,
                  const CancelToken& cancel, const PlannerOptions* planner) {
    Statement stmt = parse(sql);
    switch (stmt.kind) {
        case Statement::Kind::kSelect:
            return execute_select(db, stmt.select, stats, cancel, planner);
        case Statement::Kind::kInsert: {
            Table* t = db.table(stmt.insert.table);
            if (t == nullptr)
                throw QueryError("unknown table '" + stmt.insert.table + "'");
            for (const auto& values : stmt.insert.rows) {
                Row row(t->column_count());
                if (stmt.insert.columns.empty()) {
                    if (values.size() != t->column_count())
                        throw QueryError("INSERT arity mismatch for '" +
                                         stmt.insert.table + "'");
                    row = values;
                } else {
                    if (values.size() != stmt.insert.columns.size())
                        throw QueryError("INSERT arity mismatch for '" +
                                         stmt.insert.table + "'");
                    for (std::size_t i = 0; i < values.size(); ++i) {
                        int c = t->def().column_index(stmt.insert.columns[i]);
                        if (c < 0)
                            throw QueryError("unknown column '" +
                                             stmt.insert.columns[i] + "'");
                        row[c] = values[i];
                    }
                }
                t->insert(std::move(row));
            }
            return {};
        }
        case Statement::Kind::kCreateTable: {
            rdb::TableDef def;
            def.name = stmt.create_table.table;
            for (const auto& c : stmt.create_table.columns)
                def.columns.push_back({c.name, c.type, c.not_null, c.primary_key});
            db.create_table(std::move(def));
            for (const auto& c : stmt.create_table.columns) {
                if (!c.references_table.empty())
                    db.add_foreign_key({stmt.create_table.table, c.name,
                                        c.references_table, c.references_column});
            }
            return {};
        }
        case Statement::Kind::kCreateIndex: {
            Table* t = db.table(stmt.create_index.table);
            if (t == nullptr)
                throw QueryError("unknown table '" + stmt.create_index.table + "'");
            t->create_index(stmt.create_index.column);
            return {};
        }
    }
    return {};
}

ResultSet execute_read(const rdb::ReadView& db, std::string_view sql,
                       ExecStats* stats, const CancelToken& cancel,
                       const PlannerOptions* planner) {
    Statement stmt = parse(sql);
    if (stmt.kind != Statement::Kind::kSelect)
        throw QueryError("read-only execution: statement is not a SELECT");
    return execute_select(db, stmt.select, stats, cancel, planner);
}

ResultSet execute_select(const rdb::ReadView& db, SelectStmt& stmt,
                         ExecStats* stats, const CancelToken& cancel,
                         const PlannerOptions* planner) {
    PlannerOptions popts = planner != nullptr ? *planner : PlannerOptions{};
    // The cost-based pass only changes anything for joins; single-table
    // statements already get their access path from build_stages().
    if (popts.enable && !stmt.joins.empty()) plan_select(db, stmt, popts);
    SelectExecutor executor(db, stmt, stats, cancel);
    return executor.run();
}

ResultSet execute_select(rdb::Database& db, SelectStmt& stmt, ExecStats* stats,
                         const CancelToken& cancel,
                         const PlannerOptions* planner) {
    return execute_select(rdb::ReadView(db), stmt, stats, cancel, planner);
}

}  // namespace xr::sql
