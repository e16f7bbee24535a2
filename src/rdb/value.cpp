#include "rdb/value.hpp"

#include <cmath>
#include <functional>

#include "common/error.hpp"

namespace xr::rdb {

std::string_view to_string(ValueType t) {
    switch (t) {
        case ValueType::kNull: return "NULL";
        case ValueType::kInteger: return "INTEGER";
        case ValueType::kReal: return "REAL";
        case ValueType::kText: return "TEXT";
    }
    return "?";
}

std::int64_t Value::as_integer() const {
    if (auto* i = std::get_if<std::int64_t>(&data_)) return *i;
    if (auto* d = std::get_if<double>(&data_)) return static_cast<std::int64_t>(*d);
    throw SchemaError("value is not numeric");
}

double Value::as_real() const {
    if (auto* d = std::get_if<double>(&data_)) return *d;
    if (auto* i = std::get_if<std::int64_t>(&data_))
        return static_cast<double>(*i);
    throw SchemaError("value is not numeric");
}

const std::string& Value::as_text() const {
    if (auto* s = std::get_if<std::string>(&data_)) return *s;
    throw SchemaError("value is not text");
}

std::string Value::to_string() const {
    switch (type()) {
        case ValueType::kNull: return "NULL";
        case ValueType::kInteger: return std::to_string(as_integer());
        case ValueType::kReal: {
            std::string s = std::to_string(as_real());
            return s;
        }
        case ValueType::kText: return as_text();
    }
    return "";
}

namespace {
bool numeric(ValueType t) {
    return t == ValueType::kInteger || t == ValueType::kReal;
}
std::strong_ordering order_double(double a, double b) {
    if (a < b) return std::strong_ordering::less;
    if (a > b) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
}
}  // namespace

std::optional<std::strong_ordering> Value::compare(const Value& other) const {
    if (is_null() || other.is_null()) return std::nullopt;
    if (numeric(type()) && numeric(other.type()))
        return order_double(as_real(), other.as_real());
    if (type() == ValueType::kText && other.type() == ValueType::kText)
        return as_text() <=> other.as_text();
    // Cross-type comparison (text vs number): order by type tag, as SQLite
    // does with its type affinity ordering.
    return static_cast<int>(type()) <=> static_cast<int>(other.type());
}

std::strong_ordering Value::index_order(const Value& other) const {
    // Same-type fast path (index searches are dominated by these); the
    // results are exactly those of compare() below.
    if (data_.index() == other.data_.index()) {
        if (const auto* s = std::get_if<std::string>(&data_))
            return *s <=> std::get<std::string>(other.data_);
        if (const auto* i = std::get_if<std::int64_t>(&data_))
            return order_double(static_cast<double>(*i),
                                static_cast<double>(
                                    std::get<std::int64_t>(other.data_)));
    }
    bool an = is_null(), bn = other.is_null();
    if (an || bn) {
        if (an && bn) return std::strong_ordering::equal;
        return an ? std::strong_ordering::less : std::strong_ordering::greater;
    }
    return *compare(other);
}

std::size_t Value::hash() const {
    switch (type()) {
        case ValueType::kNull: return 0x9E3779B9;
        case ValueType::kInteger:
            return std::hash<std::int64_t>{}(as_integer());
        case ValueType::kReal: {
            double d = as_real();
            // Hash integral reals like their integer counterparts so hash
            // joins across INTEGER/REAL columns work.
            if (d == std::floor(d) && std::abs(d) < 1e15)
                return std::hash<std::int64_t>{}(static_cast<std::int64_t>(d));
            return std::hash<double>{}(d);
        }
        case ValueType::kText: return std::hash<std::string>{}(as_text());
    }
    return 0;
}

}  // namespace xr::rdb
