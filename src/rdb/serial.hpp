// Binary encode/decode helpers shared by the snapshot and WAL formats.
//
// Everything on disk is little-endian, length-prefixed, and read through
// a bounds-checked reader that throws xr::CorruptionError (with the
// artifact name, and when known the file and byte offset) instead of
// walking past a truncated buffer — recovery code never trusts a byte it
// has not range-checked, and every length that sizes an allocation is
// capped against the bytes actually present.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "rdb/table.hpp"
#include "rdb/value.hpp"

namespace xr::rdb::serial {

// -- writing ------------------------------------------------------------------

// Fixed-width fields are copied with memcpy in host byte order, which is
// the on-disk little-endian order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the snapshot and WAL encoders assume a little-endian host");

inline void put_u8(std::string& out, std::uint8_t v) {
    out.push_back(static_cast<char>(v));
}

template <typename T>
inline void put_fixed(std::string& out, T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out.append(bytes, sizeof(T));
}

inline void put_u32(std::string& out, std::uint32_t v) { put_fixed(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_fixed(out, v); }
inline void put_i64(std::string& out, std::int64_t v) { put_fixed(out, v); }
inline void put_f64(std::string& out, double v) { put_fixed(out, v); }

/// Overwrite the u32 at `pos` (a length written before its payload).
inline void patch_u32(std::string& out, std::size_t pos, std::uint32_t v) {
    std::memcpy(out.data() + pos, &v, sizeof(v));
}

inline void put_string(std::string& out, std::string_view s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/// Value wire format: u8 type tag, then the payload for that type.
inline void put_value(std::string& out, const Value& v) {
    switch (v.type()) {
        case ValueType::kNull:
            put_u8(out, 0);
            break;
        case ValueType::kInteger:
            put_u8(out, 1);
            put_i64(out, v.as_integer());
            break;
        case ValueType::kReal:
            put_u8(out, 2);
            put_f64(out, v.as_real());
            break;
        case ValueType::kText:
            put_u8(out, 3);
            put_string(out, v.as_text());
            break;
    }
}

// -- reading ------------------------------------------------------------------

/// The u32 at `pos`; the caller has checked that four bytes are there.
inline std::uint32_t le32_at(std::string_view data, std::size_t pos) {
    std::uint32_t v;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    return v;
}

/// Bounds-checked cursor over an on-disk payload.  `context` names the
/// artifact ("snapshot 'x'", "WAL record 12") for error messages; when
/// the caller knows the containing file and the payload's byte offset in
/// it, the second constructor threads them into every CorruptionError.
class Reader {
public:
    Reader(std::string_view data, std::string context)
        : data_(data), context_(std::move(context)) {}

    Reader(std::string_view data, std::string context, std::string file,
           std::uint64_t base_offset)
        : data_(data),
          context_(std::move(context)),
          file_(std::move(file)),
          base_offset_(base_offset) {}

    [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }
    std::int64_t i64() { return fixed<std::int64_t>(); }
    double f64() { return fixed<double>(); }

    std::string string() { return std::string(str_view()); }

    /// A length-prefixed string as a view into the payload (no copy).
    std::string_view str_view() {
        std::uint32_t len = u32();
        need(len);
        std::string_view s = data_.substr(pos_, len);
        pos_ += len;
        return s;
    }

    Value value() {
        switch (u8()) {
            case 0: return Value::null();
            case 1: return Value(i64());
            case 2: return Value(f64());
            case 3: return Value(string());
            default: fail("unknown value type tag");
        }
    }

    /// Decode one value's type tag and step over its payload without
    /// building a Value, for decoders that only check.  An integer's
    /// value is stored in `integer`.
    ValueType skip_value(std::int64_t& integer) {
        switch (u8()) {
            case 0: return ValueType::kNull;
            case 1: integer = i64(); return ValueType::kInteger;
            case 2: (void)f64(); return ValueType::kReal;
            case 3: (void)str_view(); return ValueType::kText;
            default: fail("unknown value type tag");
        }
    }

    /// Fail loudly if fewer than `n` bytes remain.
    void need(std::size_t n) const {
        if (data_.size() - pos_ < n)
            fail("truncated (need " + std::to_string(n) + " bytes, " +
                 std::to_string(data_.size() - pos_) + " left)");
    }

    /// Validate a count that is about to size an allocation: each of the
    /// `count` items occupies at least `min_item_bytes`, so a count that
    /// claims more items than the remaining bytes could hold is corrupt —
    /// reject it before reserve() turns it into a giant allocation.
    void need_items(std::uint64_t count, std::size_t min_item_bytes,
                    const char* what) const {
        if (count > remaining() / (min_item_bytes == 0 ? 1 : min_item_bytes))
            fail("implausible " + std::string(what) + " count " +
                 std::to_string(count) + " (" + std::to_string(remaining()) +
                 " bytes left)");
    }

    [[noreturn]] void fail(const std::string& what) const {
        throw CorruptionError(what, file_, base_offset_ + pos_, context_);
    }

private:
    template <typename T>
    T fixed() {
        need(sizeof(T));
        T v;
        std::memcpy(&v, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    std::string context_;
    std::string file_;
    std::uint64_t base_offset_ = 0;
};

// -- composite codecs shared by the WAL and snapshot formats ------------------

inline void put_table_def(std::string& out, const TableDef& def) {
    put_string(out, def.name);
    put_u32(out, static_cast<std::uint32_t>(def.columns.size()));
    for (const ColumnDef& c : def.columns) {
        put_string(out, c.name);
        put_u8(out, static_cast<std::uint8_t>(c.type));
        put_u8(out, c.not_null ? 1 : 0);
        put_u8(out, c.primary_key ? 1 : 0);
    }
}

inline TableDef read_table_def(Reader& in) {
    TableDef def;
    def.name = in.string();
    std::uint32_t cols = in.u32();
    // Each column is at least name-len(4) + type + not_null + primary_key.
    in.need_items(cols, 7, "column");
    def.columns.reserve(cols);
    for (std::uint32_t i = 0; i < cols; ++i) {
        ColumnDef c;
        c.name = in.string();
        std::uint8_t type = in.u8();
        if (type > static_cast<std::uint8_t>(ValueType::kText))
            in.fail("unknown column type tag " + std::to_string(type) +
                    " for column '" + c.name + "'");
        c.type = static_cast<ValueType>(type);
        c.not_null = in.u8() != 0;
        c.primary_key = in.u8() != 0;
        def.columns.push_back(std::move(c));
    }
    return def;
}

/// A row's bytes: its cell count, then each cell.  `Cells` is a Row or
/// a stored RowView; both encode identically.
template <class Cells>
void put_row(std::string& out, const Cells& row) {
    put_u32(out, static_cast<std::uint32_t>(row.size()));
    for (const Value& v : row) put_value(out, v);
}

/// Decode one row (put_row's bytes) straight into a new row of `table`,
/// checked as Table::insert checks a Row.
inline std::int64_t insert_row(Reader& in, Table& table) {
    std::uint32_t cells = in.u32();
    in.need_items(cells, 1, "cell");  // a null cell is one tag byte
    validate_arity(table.def(), cells);
    return table.insert_decoded([&](std::size_t) { return in.value(); });
}

}  // namespace xr::rdb::serial
