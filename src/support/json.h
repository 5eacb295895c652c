#ifndef MDES_SUPPORT_JSON_H
#define MDES_SUPPORT_JSON_H

/**
 * @file
 * Minimal JSON emission and parsing for machine-readable metric dumps.
 *
 * The service layer reports its counters both as a human-oriented text
 * table and as JSON for scrapers; this writer covers exactly the subset
 * needed (objects, arrays, strings, integers, doubles, booleans) without
 * pulling in a dependency. Output is deterministic: keys appear in the
 * order they are written.
 *
 * The parser is the writer's counterpart: tests and tools use it to
 * validate that emitted documents (metrics dumps, Chrome trace exports)
 * are well-formed and to round-trip them losslessly. Numbers keep their
 * source token, so writeJson(parseJson(s)) == s for any document this
 * writer produced.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mdes {

/** Escape @p s for use inside a JSON string literal (no quotes added). */
std::string jsonEscape(std::string_view s);

/**
 * Streaming JSON builder. Commas are inserted automatically; the caller
 * is responsible for balancing begin/end calls. Inside an object every
 * value must be preceded by key(); inside an array values are written
 * directly.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Write an object key; the next value belongs to it. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(double v);
    JsonWriter &value(bool v);

    /** Write @p token verbatim as a value (a pre-rendered JSON number
     * or literal; the caller guarantees validity). */
    JsonWriter &rawValue(std::string_view token);

    /** The document built so far. */
    const std::string &str() const { return out_; }

  private:
    void comma();

    std::string out_;
    /** Whether the current nesting level already holds an element. */
    std::string stack_;
    bool after_key_ = false;
};

/** A parsed JSON document node (tagged union, insertion-ordered). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Numeric value; large 64-bit integers may round (see number_text). */
    double number = 0;
    /** The untouched number token, kept for lossless re-emission. */
    std::string number_text;
    std::string string;
    std::vector<JsonValue> array;
    /** Members in document order (duplicate keys are preserved). */
    std::vector<std::pair<std::string, JsonValue>> object;

    /** First member named @p key, or nullptr (Object kind only). */
    const JsonValue *find(std::string_view key) const;

    bool isNull() const { return kind == Kind::Null; }
};

/**
 * Parse one JSON document (trailing whitespace allowed, nothing else).
 * Throws MdesError naming the byte offset and what was expected on
 * malformed input. Nesting deeper than 128 levels is rejected.
 */
JsonValue parseJson(std::string_view text);

/** Re-emit @p v through JsonWriter (the round-trip counterpart). */
std::string writeJson(const JsonValue &v);

/**
 * Read @p v as an unsigned 64-bit integer without the double round
 * trip: a Number's untouched token (or a String of digits) parses
 * losslessly, so wire ids and cycle counts above 2^53 survive. Throws
 * MdesError for anything else - a negative, fractional, exponent or
 * >= 2^64 number, or a non-numeric node - since no cast of those is
 * meaningful.
 */
uint64_t jsonU64(const JsonValue &v);

} // namespace mdes

#endif // MDES_SUPPORT_JSON_H
