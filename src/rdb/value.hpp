// Typed values for MiniRDB.
//
// SQL's three-valued logic is modelled explicitly: a Value is NULL, an
// INTEGER (int64), a REAL (double) or TEXT.  Comparisons involving NULL
// yield "unknown", which callers treat as false in WHERE contexts — the
// same convention real engines use.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace xr::rdb {

enum class ValueType { kNull, kInteger, kReal, kText };

[[nodiscard]] std::string_view to_string(ValueType t);

class Value {
public:
    Value() : data_(std::monostate{}) {}
    Value(std::int64_t v) : data_(v) {}                 // NOLINT(google-explicit-constructor)
    Value(int v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
    Value(double v) : data_(v) {}                       // NOLINT
    Value(std::string v) : data_(std::move(v)) {}       // NOLINT
    Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT
    Value(const char* v) : data_(std::string(v)) {}     // NOLINT

    static Value null() { return Value(); }

    [[nodiscard]] ValueType type() const {
        switch (data_.index()) {
            case 0: return ValueType::kNull;
            case 1: return ValueType::kInteger;
            case 2: return ValueType::kReal;
            default: return ValueType::kText;
        }
    }
    [[nodiscard]] bool is_null() const { return type() == ValueType::kNull; }

    [[nodiscard]] std::int64_t as_integer() const;
    [[nodiscard]] double as_real() const;   ///< integers widen
    [[nodiscard]] const std::string& as_text() const;
    /// The text, or nullptr when the value is not TEXT; never throws.
    [[nodiscard]] const std::string* text_if() const {
        return std::get_if<std::string>(&data_);
    }
    /// The integer, or nullptr when the value is not INTEGER; never throws.
    [[nodiscard]] const std::int64_t* integer_if() const {
        return std::get_if<std::int64_t>(&data_);
    }
    /// The real, or nullptr when the value is not REAL; never throws.
    [[nodiscard]] const double* real_if() const {
        return std::get_if<double>(&data_);
    }

    /// Render for result sets ('NULL', bare number, or the text).
    [[nodiscard]] std::string to_string() const;

    /// SQL comparison: nullopt when either side is NULL (unknown).
    [[nodiscard]] std::optional<std::strong_ordering> compare(
        const Value& other) const;

    /// Total order for indexes and ORDER BY: NULL sorts first, then by
    /// type, then by value (numeric types compare numerically).
    [[nodiscard]] std::strong_ordering index_order(const Value& other) const;

    friend bool operator==(const Value& a, const Value& b) {
        return a.index_order(b) == std::strong_ordering::equal;
    }
    friend bool operator<(const Value& a, const Value& b) {
        return a.index_order(b) == std::strong_ordering::less;
    }

    [[nodiscard]] std::size_t hash() const;

private:
    std::variant<std::monostate, std::int64_t, double, std::string> data_;
};

struct ValueHash {
    std::size_t operator()(const Value& v) const { return v.hash(); }
};

/// Three-way index order (Value::index_order) as a function object.
struct ValueIndexOrder {
    std::strong_ordering operator()(const Value& a, const Value& b) const {
        return a.index_order(b);
    }
};

}  // namespace xr::rdb
