/**
 * @file
 * Tests for the JSON emission helpers: escaping of control and quote
 * characters, UTF-8 passthrough, numeric round-tripping (including
 * negative zero and near-overflow magnitudes), locale independence,
 * writer structure, the strict JSONL cursor and line iterator, and
 * whole-file I/O.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace oscar
{
namespace
{

// ---------------------------------------------------------------------
// Escaping

TEST(JsonEscape, QuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, NamedControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
}

TEST(JsonEscape, RemainingControlCharactersUseUnicodeEscapes)
{
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(jsonEscape("\x01"), "\\u0001");
    EXPECT_EQ(jsonEscape("\x1f"), "\\u001f");
    EXPECT_EQ(jsonEscape("bell\x07!"), "bell\\u0007!");
}

TEST(JsonEscape, Utf8PassesThroughUntouched)
{
    // Multi-byte sequences have all bytes >= 0x80 after the lead, so
    // the control-character escape must never fire on them.
    const std::string snowman = "\xe2\x98\x83";       // U+2603
    const std::string accented = "caf\xc3\xa9";       // café
    const std::string emoji = "\xf0\x9f\x9a\x80";     // U+1F680
    EXPECT_EQ(jsonEscape(snowman), snowman);
    EXPECT_EQ(jsonEscape(accented), accented);
    EXPECT_EQ(jsonEscape(emoji), emoji);
}

TEST(JsonEscape, PlainAsciiIsIdentity)
{
    const std::string text =
        "ABCXYZ abcxyz 0189 ~!@#$%^&*()_+-=[]{};':,./<>?";
    EXPECT_EQ(jsonEscape(text), text);
}

// ---------------------------------------------------------------------
// Numbers

double
parseBack(const std::string &text)
{
    // strtod parses '.' regardless of locale only in the "C" locale;
    // tests that change locale restore it before calling this.
    return std::strtod(text.c_str(), nullptr);
}

TEST(JsonNumber, IntegersAndSimpleFractions)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(1.0), "1");
    EXPECT_EQ(jsonNumber(-1.0), "-1");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(-2.25), "-2.25");
}

TEST(JsonNumber, NegativeZeroKeepsItsSign)
{
    const std::string text = jsonNumber(-0.0);
    EXPECT_EQ(text, "-0");
    EXPECT_TRUE(std::signbit(parseBack(text)));
}

TEST(JsonNumber, RoundTripsExactly)
{
    const double cases[] = {
        0.1,
        1.0 / 3.0,
        3.141592653589793,
        6.02214076e23,
        5e-324,                  // min subnormal
        2.2250738585072014e-308, // min normal
        1.7976931348623157e308,  // max finite
        123456789.123456789,
        -9.87654321e-12,
    };
    for (double value : cases) {
        const std::string text = jsonNumber(value);
        EXPECT_EQ(parseBack(text), value) << text;
    }
}

TEST(JsonNumber, NonFiniteClampsToZero)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "0");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "0");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "0");
}

TEST(JsonNumber, StableAcrossLocales)
{
    // A comma-decimal locale must not leak into the document. Not all
    // images ship de_DE; skip (not fail) when unavailable.
    const char *chosen = nullptr;
    for (const char *name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
        if (std::setlocale(LC_NUMERIC, name) != nullptr) {
            chosen = name;
            break;
        }
    }
    if (chosen == nullptr)
        GTEST_SKIP() << "no comma-decimal locale installed";

    const std::string text = jsonNumber(0.5);
    std::setlocale(LC_NUMERIC, "C");
    EXPECT_EQ(text, "0.5");
    EXPECT_EQ(text.find(','), std::string::npos);
}

// ---------------------------------------------------------------------
// Writer structure

TEST(JsonWriter, NestedDocumentIsDeterministic)
{
    auto build = [] {
        JsonWriter w;
        w.beginObject();
        w.field("name", "trace");
        w.field("count", 3u);
        w.field("ratio", 0.25);
        w.field("ok", true);
        w.key("items");
        w.beginArray();
        w.value(1);
        w.value(2);
        w.beginObject();
        w.field("inner", -1);
        w.endObject();
        w.endArray();
        w.endObject();
        return w.str();
    };
    const std::string doc = build();
    EXPECT_EQ(doc, build());
    EXPECT_EQ(doc,
              "{\"name\":\"trace\",\"count\":3,\"ratio\":0.25,"
              "\"ok\":true,\"items\":[1,2,{\"inner\":-1}]}");
}

TEST(JsonWriter, CompleteTracksScopeClosure)
{
    JsonWriter w;
    w.beginObject();
    EXPECT_FALSE(w.complete());
    w.endObject();
    EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, KeysAreEscaped)
{
    JsonWriter w;
    w.beginObject();
    w.field("we\"ird\n", 1);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"we\\\"ird\\n\":1}");
}

// ---------------------------------------------------------------------
// Reading

TEST(JsonCursor, ReadsWriterLayoutInOrder)
{
    JsonCursor cur("{\"s\":\"ab\",\"u\":7,\"i\":-1,\"d\":0.25,"
                   "\"c\":{\"x\":\"}\"},\"l\":[1,2]}");
    std::string s;
    std::uint64_t u = 0;
    std::int64_t i = 0;
    double d = 0;
    std::vector<std::uint64_t> list;
    ASSERT_TRUE(cur.expect("{\"s\":") && cur.string(s) &&
                cur.expect(",\"u\":") && cur.u64(u) &&
                cur.expect(",\"i\":") && cur.i64(i, -1) &&
                cur.expect(",\"d\":") && cur.number(d) &&
                cur.expect(",\"c\":") && cur.skipObject() &&
                cur.expect(",\"l\":") && cur.list([&] {
                    list.push_back(0);
                    return cur.u64(list.back());
                }) &&
                cur.expect("}"));
    EXPECT_TRUE(cur.atEnd());
    EXPECT_EQ(s, "ab");
    EXPECT_EQ(u, 7u);
    EXPECT_EQ(i, -1);
    EXPECT_EQ(d, 0.25);
    EXPECT_EQ(list, (std::vector<std::uint64_t>{1, 2}));
}

TEST(JsonCursor, RejectsOutOfRangeAndNonJsonNumbers)
{
    std::uint64_t u = 0;
    std::uint32_t u32 = 0;
    std::int64_t i = 0;
    double d = 0;
    std::string s;
    EXPECT_FALSE(JsonCursor("-1").u64(u));
    EXPECT_FALSE(JsonCursor("18446744073709551616").u64(u));
    EXPECT_FALSE(JsonCursor("4294967296").u32(u32));
    EXPECT_FALSE(JsonCursor("9223372036854775808").i64(i, 0));
    EXPECT_FALSE(JsonCursor("-2").i64(i, -1));
    EXPECT_FALSE(JsonCursor("nan").number(d));
    EXPECT_FALSE(JsonCursor("inf").number(d));
    EXPECT_FALSE(JsonCursor("1e999").number(d));
    EXPECT_FALSE(JsonCursor("").number(d));
    EXPECT_FALSE(JsonCursor("\"open").string(s));
    EXPECT_FALSE(JsonCursor("{\"a\":{}").skipObject());
    JsonCursor trailing("[1,]");
    EXPECT_FALSE(trailing.list([&] { return trailing.u64(u); }));
}

TEST(JsonlLines, SplitsOnNewlinesWithOptionalFinalNewline)
{
    for (const char *text : {"a\n\nb", "a\n\nb\n"}) {
        JsonlLines lines(text);
        std::vector<std::string> seen;
        std::string_view line;
        while (lines.next(line))
            seen.emplace_back(line);
        EXPECT_EQ(seen, (std::vector<std::string>{"a", "", "b"}));
        EXPECT_EQ(lines.lineNumber(), 3u);
    }
    std::string_view line;
    EXPECT_FALSE(JsonlLines("").next(line));
}

TEST(TextFile, WriteThenReadRoundTrips)
{
    const std::string path = testing::TempDir() + "json_text_file.txt";
    const std::string doc("a\nb\0c", 5);
    ASSERT_TRUE(writeTextFile(path, doc, "test"));
    std::string text;
    std::string error;
    ASSERT_TRUE(readTextFile(path, text, error)) << error;
    EXPECT_EQ(text, doc);
    std::remove(path.c_str());
}

TEST(TextFile, ReportsOpenAndReadFailures)
{
    std::string text;
    std::string error;
    EXPECT_FALSE(readTextFile("/no/such/file", text, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
    // A directory opens but cannot be read.
    EXPECT_FALSE(readTextFile(testing::TempDir(), text, error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);
    EXPECT_FALSE(writeTextFile("/no/such/dir/file", "x", "test"));
}

} // namespace
} // namespace oscar
