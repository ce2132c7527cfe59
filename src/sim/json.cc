/**
 * @file
 * Implementation of the JSON emission and reading helpers.
 */

#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "sim/logging.hh"

namespace oscar
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    // JSON has no NaN/Inf; clamp to null-ish zero rather than emit an
    // invalid document.
    if (!std::isfinite(value))
        return "0";
    // std::to_chars is locale-independent and emits the shortest
    // representation that round-trips, so documents are byte-stable no
    // matter what LC_NUMERIC the host process runs under (snprintf
    // "%.17g" would localize the decimal point).
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general);
    oscar_assert(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

void
JsonWriter::beforeValue()
{
    if (stack.empty()) {
        oscar_assert(out.empty());
        return;
    }
    if (stack.back() == Scope::Object) {
        oscar_assert(keyPending);
        keyPending = false;
        return;
    }
    if (hasElement.back())
        out += ',';
    hasElement.back() = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out += '{';
    stack.push_back(Scope::Object);
    hasElement.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    oscar_assert(!stack.empty() && stack.back() == Scope::Object);
    oscar_assert(!keyPending);
    out += '}';
    stack.pop_back();
    hasElement.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out += '[';
    stack.push_back(Scope::Array);
    hasElement.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    oscar_assert(!stack.empty() && stack.back() == Scope::Array);
    out += ']';
    stack.pop_back();
    hasElement.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    oscar_assert(!stack.empty() && stack.back() == Scope::Object);
    oscar_assert(!keyPending);
    if (hasElement.back())
        out += ',';
    hasElement.back() = true;
    out += '"';
    out += jsonEscape(name);
    out += "\":";
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    beforeValue();
    out += '"';
    out += jsonEscape(text);
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    beforeValue();
    out += jsonNumber(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    beforeValue();
    out += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    beforeValue();
    out += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned number)
{
    return value(static_cast<std::uint64_t>(number));
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    beforeValue();
    out += flag ? "true" : "false";
    return *this;
}

bool
JsonCursor::expect(std::string_view token)
{
    if (text.substr(pos, token.size()) != token)
        return false;
    pos += token.size();
    return true;
}

bool
JsonCursor::string(std::string &out)
{
    if (pos >= text.size() || text[pos] != '"')
        return false;
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string_view::npos)
        return false;
    out.assign(text.substr(pos + 1, end - pos - 1));
    pos = end + 1;
    return true;
}

namespace
{

/** std::from_chars at `pos`; rejects overflow and empty matches. */
template <typename T>
bool
fromChars(std::string_view text, std::size_t &pos, T &out)
{
    const char *begin = text.data() + pos;
    const auto res = std::from_chars(begin, text.data() + text.size(), out);
    if (res.ec != std::errc{} || res.ptr == begin)
        return false;
    pos += static_cast<std::size_t>(res.ptr - begin);
    return true;
}

} // namespace

bool
JsonCursor::u64(std::uint64_t &out)
{
    return fromChars(text, pos, out);
}

bool
JsonCursor::u32(std::uint32_t &out)
{
    return fromChars(text, pos, out);
}

bool
JsonCursor::i64(std::int64_t &out, std::int64_t min)
{
    return fromChars(text, pos, out) && out >= min;
}

bool
JsonCursor::number(double &out)
{
    // from_chars also accepts "nan" and "inf", which JSON does not.
    return fromChars(text, pos, out) && std::isfinite(out);
}

bool
JsonCursor::skipObject()
{
    if (pos >= text.size() || text[pos] != '{')
        return false;
    int depth = 0;
    bool in_string = false;
    for (; pos < text.size(); ++pos) {
        const char c = text[pos];
        if (in_string) {
            if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            if (--depth == 0) {
                ++pos;
                return true;
            }
        }
    }
    return false;
}

bool
JsonlLines::next(std::string_view &line)
{
    if (pos >= text.size())
        return false;
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos)
        end = text.size();
    line = text.substr(pos, end - pos);
    pos = end + 1;
    ++number;
    return true;
}

bool
readTextFile(const std::string &path, std::string &text,
             std::string &error)
{
    std::FILE *handle = std::fopen(path.c_str(), "rb");
    if (handle == nullptr) {
        error = "cannot open '" + path + "'";
        return false;
    }
    text.clear();
    char buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), handle)) > 0)
        text.append(buffer, got);
    const bool failed = std::ferror(handle) != 0;
    std::fclose(handle);
    if (failed) {
        error = "cannot read '" + path + "'";
        return false;
    }
    return true;
}

bool
writeTextFile(const std::string &path, std::string_view text,
              const char *what)
{
    std::FILE *handle = std::fopen(path.c_str(), "wb");
    if (handle == nullptr) {
        oscar_warn("cannot open %s file '%s'", what, path.c_str());
        return false;
    }
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), handle);
    // fclose flushes, so a full disk can surface only here.
    if (std::fclose(handle) != 0 || written != text.size()) {
        oscar_warn("short write to %s file '%s'", what, path.c_str());
        return false;
    }
    return true;
}

} // namespace oscar
