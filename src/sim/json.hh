/**
 * @file
 * Minimal JSON emission and reading for machine-readable experiment
 * artifacts, plus the whole-file I/O every artifact goes through.
 *
 * The bench binaries historically printed plain-text tables only;
 * JsonWriter lets them also serialize per-point sweep results to disk
 * without pulling in an external JSON dependency. Output is
 * deterministic: keys are emitted in call order and doubles use a
 * fixed round-trippable format, so identical results serialize to
 * identical bytes (the property the sweep determinism tests check).
 *
 * The repo deliberately has no general-purpose JSON parser. The
 * artifact readers accept exactly the bytes their writers emit (keys
 * in writer order, no whitespace, no string escapes), walking each
 * JSONL line with a JsonCursor; anything else is a parse error.
 */

#ifndef OSCAR_SIM_JSON_HH_
#define OSCAR_SIM_JSON_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oscar
{

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string &text);

/** Format a double the way JSON expects (round-trippable, finite). */
std::string jsonNumber(double value);

/**
 * Incremental JSON document builder.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("points"); w.beginArray(); ... w.endArray();
 *   w.endObject();
 *   std::string doc = w.str();
 *
 * The writer tracks nesting and inserts commas; it panics on
 * structural misuse (closing the wrong scope, value without key in an
 * object) since that is a harness bug.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or scope. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(unsigned number);
    JsonWriter &value(int number);
    JsonWriter &value(bool flag);

    /** Shorthand: key(name) followed by value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** The document so far; complete once all scopes are closed. */
    const std::string &str() const { return out; }

    /** True when every opened scope has been closed. */
    bool complete() const { return stack.empty() && !out.empty(); }

  private:
    enum class Scope : std::uint8_t
    {
        Object,
        Array,
    };

    /** Comma/validity bookkeeping before emitting a value or scope. */
    void beforeValue();

    std::string out;
    std::vector<Scope> stack;
    /** Whether the current scope already holds at least one element. */
    std::vector<bool> hasElement;
    bool keyPending = false;
};

/**
 * Strict cursor over one line of a writer-emitted JSONL document.
 *
 * Each method consumes one token and returns false on any mismatch.
 * A failed expect() leaves the cursor in place, so it can probe for an
 * optional key; after any other failure the position is unspecified
 * and readers treat the whole line as malformed.
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view text) : text(text) {}

    /** Advance past the literal `token`. */
    bool expect(std::string_view token);
    /** A quoted string (writer strings never contain escapes). */
    bool string(std::string &out);
    bool u64(std::uint64_t &out);
    bool u32(std::uint32_t &out);
    /** A signed integer in [min, INT64_MAX]. */
    bool i64(std::int64_t &out, std::int64_t min);
    /** A finite number. */
    bool number(double &out);
    /** Skip a balanced `{...}` object (string-aware, escape-free). */
    bool skipObject();

    /** `[e,e,...]` (possibly empty), reading each element with
     *  `element()`. */
    template <typename Element>
    bool
    list(Element &&element)
    {
        if (!expect("["))
            return false;
        if (expect("]"))
            return true;
        for (;;) {
            if (!element())
                return false;
            if (expect("]"))
                return true;
            if (!expect(","))
                return false;
        }
    }

    /** True once the whole text has been consumed. */
    bool atEnd() const { return pos == text.size(); }

  private:
    std::string_view text;
    std::size_t pos = 0;
};

/** The '\n'-separated lines of a document; the final newline is
 *  optional. */
class JsonlLines
{
  public:
    explicit JsonlLines(std::string_view text) : text(text) {}

    /** Store the next line (without its newline); false at the end. */
    bool next(std::string_view &line);

    /** 1-based number of the line next() returned last. */
    std::size_t lineNumber() const { return number; }

  private:
    std::string_view text;
    std::size_t pos = 0;
    std::size_t number = 0;
};

/**
 * Read the whole file at `path` into `text`.
 *
 * @return false with `error` set when the file cannot be opened or
 *         read.
 */
bool readTextFile(const std::string &path, std::string &text,
                  std::string &error);

/**
 * Replace the file at `path` with `text`.
 *
 * @param what Names the artifact in warnings ("metrics", ...).
 * @return false (with a warning) when the file cannot be opened or
 *         fully written.
 */
bool writeTextFile(const std::string &path, std::string_view text,
                   const char *what);

} // namespace oscar

#endif // OSCAR_SIM_JSON_HH_
