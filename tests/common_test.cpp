// Unit tests for xr_common: strings, cursor, rng, table printer, errors,
// checksums.
#include <gtest/gtest.h>

#include <vector>

#include "common/checksum.hpp"
#include "common/cursor.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table_printer.hpp"

namespace xr {
namespace {

TEST(Strings, TrimStripsXmlWhitespaceOnly) {
    EXPECT_EQ(trim("  a b \t\r\n"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \n\t "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
    EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, JoinRoundTripsSplit) {
    std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(join(parts, "/"), "x/y/z");
    EXPECT_EQ(join({}, "/"), "");
}

TEST(Strings, CaseConversions) {
    EXPECT_EQ(to_lower("AbC1"), "abc1");
    EXPECT_EQ(to_upper("AbC1"), "ABC1");
    EXPECT_TRUE(iequals("SELECT", "select"));
    EXPECT_FALSE(iequals("SELECT", "selec"));
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(starts_with("<!ELEMENT", "<!"));
    EXPECT_FALSE(starts_with("<", "<!"));
    EXPECT_TRUE(ends_with("file.dtd", ".dtd"));
    EXPECT_FALSE(ends_with("dtd", ".dtd"));
}

TEST(Strings, NormalizeSpaceCollapsesRuns) {
    EXPECT_EQ(normalize_space("  a \n b\t\tc "), "a b c");
    EXPECT_EQ(normalize_space(""), "");
}

TEST(Strings, XmlEscaping) {
    EXPECT_EQ(xml_escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    EXPECT_EQ(xml_escape_attribute("say \"hi\""), "say &quot;hi&quot;");
}

TEST(Strings, SqlQuoteDoublesEmbeddedQuotes) {
    EXPECT_EQ(sql_quote("it's"), "'it''s'");
    EXPECT_EQ(sql_quote(""), "''");
}

TEST(Strings, XmlNameValidation) {
    EXPECT_TRUE(is_xml_name("book"));
    EXPECT_TRUE(is_xml_name("_a-b.c:d"));
    EXPECT_FALSE(is_xml_name("1book"));
    EXPECT_FALSE(is_xml_name(""));
    EXPECT_FALSE(is_xml_name("a b"));
    EXPECT_FALSE(is_xml_name("-x"));
}

TEST(Strings, SplitNameTokens) {
    EXPECT_EQ(split_name_tokens("  a1  b2\tc3 "),
              (std::vector<std::string>{"a1", "b2", "c3"}));
    EXPECT_TRUE(split_name_tokens("   ").empty());
}

TEST(Cursor, TracksLineAndColumn) {
    Cursor cur("ab\ncd");
    cur.advance();
    cur.advance();
    EXPECT_EQ(cur.location().line, 1u);
    cur.advance();  // newline
    EXPECT_EQ(cur.location().line, 2u);
    EXPECT_EQ(cur.location().column, 1u);
    cur.advance();
    EXPECT_EQ(cur.location().column, 2u);
}

TEST(Cursor, ConsumeAndLookahead) {
    Cursor cur("<!ELEMENT x");
    EXPECT_TRUE(cur.lookahead("<!ELEMENT"));
    EXPECT_TRUE(cur.consume("<!ELEMENT"));
    EXPECT_FALSE(cur.consume("<!ELEMENT"));
    cur.skip_space();
    EXPECT_EQ(cur.peek(), 'x');
}

TEST(Cursor, FailThrowsParseErrorWithLocation) {
    Cursor cur("abc");
    cur.advance();
    try {
        cur.fail("boom");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.where().column, 2u);
        EXPECT_EQ(e.bare_message(), "boom");
    }
}

TEST(Rng, DeterministicAcrossInstances) {
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, BelowStaysInRange) {
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
    SplitMix64 rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
    SplitMix64 rng(7);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated) {
    SplitMix64 rng(7);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(TablePrinter, AlignsColumnsAndRightAlignsNumbers) {
    TablePrinter p({"name", "count"});
    p.add_row({"alpha", "5"});
    p.add_row({"b", "1234"});
    std::string out = p.to_string();
    EXPECT_NE(out.find("| alpha |"), std::string::npos);
    EXPECT_NE(out.find("|  1234 |"), std::string::npos);
}

TEST(TablePrinter, PadsShortRows) {
    TablePrinter p({"a", "b", "c"});
    p.add_row({"x"});
    EXPECT_NE(p.to_string().find("| x"), std::string::npos);
}

TEST(FormatDouble, FixedPrecision) {
    EXPECT_EQ(format_double(1.0 / 3.0, 2), "0.33");
    EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Errors, HierarchyAndLocationPrefix) {
    ParseError pe("bad token", SourceLocation{3, 7, 20});
    EXPECT_STREQ(pe.what(), "3:7: bad token");
    const Error& base = pe;
    EXPECT_EQ(base.where().line, 3u);
    ValidationError ve("invalid");
    EXPECT_STREQ(ve.what(), "invalid");
    EXPECT_FALSE(ve.where().valid());
}

/// Bytewise CRC32 straight from the definition (reflected polynomial
/// 0xEDB88320, bit at a time): the reference the table-driven
/// implementation must agree with.
std::uint32_t crc32_reference(const unsigned char* data, std::size_t size,
                              std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(Checksum, Crc32StandardCheckValue) {
    EXPECT_EQ(checksum::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(checksum::crc32(""), 0u);
}

TEST(Checksum, Crc32AgreesWithBytewiseReference) {
    SplitMix64 rng(0xC4C32);
    std::vector<unsigned char> buf(600);
    for (auto& b : buf) b = static_cast<unsigned char>(rng());
    for (int trial = 0; trial < 2000; ++trial) {
        std::size_t offset = rng.below(8);  // every alignment
        std::size_t size = rng.below(buf.size() - offset);
        auto seed = static_cast<std::uint32_t>(rng.chance(0.5) ? rng() : 0);
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(checksum::crc32(p, size, seed), crc32_reference(p, size, seed))
            << "offset " << offset << " size " << size << " seed " << seed;
        // Chaining two halves equals checksumming the whole buffer.
        std::size_t cut = size == 0 ? 0 : rng.below(size + 1);
        ASSERT_EQ(checksum::crc32(p + cut, size - cut,
                                  checksum::crc32(p, cut, seed)),
                  crc32_reference(p, size, seed));
    }
}

}  // namespace
}  // namespace xr
