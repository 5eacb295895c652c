#include "support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/diagnostics.h"

namespace mdes {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::comma()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!stack_.empty() && stack_.back() == '1')
        out_ += ',';
    if (!stack_.empty())
        stack_.back() = '1';
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    stack_ += '0';
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    stack_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    stack_ += '0';
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    stack_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(s);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    comma();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    comma();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    comma();
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view token)
{
    comma();
    out_ += token;
    return *this;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

namespace {

/** Recursive-descent parser over the document text. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("end of document", "trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &expected, const std::string &found)
    {
        throw MdesError("JSON parse error at offset " +
                        std::to_string(pos_) + ": expected " + expected +
                        ", found " + found);
    }

    [[noreturn]] void
    failHere(const std::string &expected)
    {
        if (pos_ >= text_.size())
            fail(expected, "end of input");
        fail(expected, "'" + std::string(1, text_[pos_]) + "'");
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            failHere("a value");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            failHere("'" + std::string(1, c) + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            failHere("'" + std::string(word) + "'");
        pos_ += word.size();
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > 128)
            throw MdesError("JSON parse error at offset " +
                            std::to_string(pos_) +
                            ": nesting deeper than 128 levels");
        skipWs();
        JsonValue v;
        switch (peek()) {
        case '{': {
            v.kind = JsonValue::Kind::Object;
            ++pos_;
            skipWs();
            if (consume('}'))
                return v;
            for (;;) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.object.emplace_back(std::move(key),
                                      parseValue(depth + 1));
                skipWs();
                if (consume(','))
                    continue;
                expect('}');
                return v;
            }
        }
        case '[': {
            v.kind = JsonValue::Kind::Array;
            ++pos_;
            skipWs();
            if (consume(']'))
                return v;
            for (;;) {
                v.array.push_back(parseValue(depth + 1));
                skipWs();
                if (consume(','))
                    continue;
                expect(']');
                return v;
            }
        }
        case '"':
            v.kind = JsonValue::Kind::String;
            v.string = parseString();
            return v;
        case 't':
            literal("true");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        case 'f':
            literal("false");
            v.kind = JsonValue::Kind::Bool;
            return v;
        case 'n':
            literal("null");
            return v;
        default: return parseNumber();
        }
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos_;
        consume('-');
        if (pos_ >= text_.size() || !isDigit(text_[pos_]))
            failHere("a digit");
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            ++pos_;
        if (consume('.')) {
            if (pos_ >= text_.size() || !isDigit(text_[pos_]))
                failHere("a fraction digit");
            while (pos_ < text_.size() && isDigit(text_[pos_]))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || !isDigit(text_[pos_]))
                failHere("an exponent digit");
            while (pos_ < text_.size() && isDigit(text_[pos_]))
                ++pos_;
        }
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number_text = std::string(text_.substr(start, pos_ - start));
        v.number = std::strtod(v.number_text.c_str(), nullptr);
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                failHere("closing '\"'");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("escaped control character",
                     "raw control character");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                failHere("an escape character");
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': appendCodepoint(out); break;
            default:
                --pos_;
                failHere("a valid escape");
            }
        }
    }

    void
    appendCodepoint(std::string &out)
    {
        uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                failHere("4 hex digits");
            char c = text_[pos_++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= uint32_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= uint32_t(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= uint32_t(c - 'A' + 10);
            else {
                --pos_;
                failHere("a hex digit");
            }
        }
        // Basic-plane UTF-8 encoding; surrogate pairs are rejected (the
        // writer never produces them).
        if (cp >= 0xD800 && cp <= 0xDFFF)
            fail("a non-surrogate \\u escape", "a surrogate");
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    std::string_view text_;
    size_t pos_ = 0;
};

void
writeValue(JsonWriter &w, const JsonValue &v)
{
    switch (v.kind) {
    case JsonValue::Kind::Null: w.rawValue("null"); break;
    case JsonValue::Kind::Bool: w.value(v.boolean); break;
    case JsonValue::Kind::Number:
        if (v.number_text.empty())
            w.value(v.number);
        else
            w.rawValue(v.number_text);
        break;
    case JsonValue::Kind::String: w.value(v.string); break;
    case JsonValue::Kind::Array:
        w.beginArray();
        for (const auto &element : v.array)
            writeValue(w, element);
        w.endArray();
        break;
    case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : v.object) {
            w.key(key);
            writeValue(w, member);
        }
        w.endObject();
        break;
    }
}

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parse();
}

uint64_t
jsonU64(const JsonValue &v)
{
    const std::string &tok = v.kind == JsonValue::Kind::String
                                 ? v.string
                                 : v.number_text;
    if ((v.kind == JsonValue::Kind::Number ||
         v.kind == JsonValue::Kind::String) &&
        !tok.empty() &&
        tok.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        char *end = nullptr;
        unsigned long long val = std::strtoull(tok.c_str(), &end, 10);
        if (end && *end == '\0' && errno != ERANGE)
            return uint64_t(val);
    }
    throw MdesError("json: expected an integer in [0, 2^64), got '" + tok +
                    "'");
}

std::string
writeJson(const JsonValue &v)
{
    JsonWriter w;
    writeValue(w, v);
    return w.str();
}

} // namespace mdes
