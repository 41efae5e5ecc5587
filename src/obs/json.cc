#include "obs/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "base/logging.hh"

namespace dnasim
{
namespace obs
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{}

void
JsonWriter::newlineIndent()
{
    if (indent_ <= 0)
        return;
    os_ << '\n';
    for (size_t i = 0; i < stack_.size() * indent_; ++i)
        os_ << ' ';
}

void
JsonWriter::prefix(const std::string &key)
{
    if (!stack_.empty()) {
        if (stack_.back() > 0)
            os_ << ',';
        ++stack_.back();
        newlineIndent();
    }
    if (!key.empty())
        os_ << '"' << jsonEscape(key) << "\":" << (indent_ > 0 ? " " : "");
}

JsonWriter &
JsonWriter::beginObject(const std::string &key)
{
    prefix(key);
    os_ << '{';
    stack_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    DNASIM_ASSERT(!stack_.empty(), "endObject() with nothing open");
    bool had_values = stack_.back() > 0;
    stack_.pop_back();
    if (had_values)
        newlineIndent();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const std::string &key)
{
    prefix(key);
    os_ << '[';
    stack_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    DNASIM_ASSERT(!stack_.empty(), "endArray() with nothing open");
    bool had_values = stack_.back() > 0;
    stack_.pop_back();
    if (had_values)
        newlineIndent();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &key, const std::string &v)
{
    prefix(key);
    os_ << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &key, const char *v)
{
    return value(key, std::string(v));
}

JsonWriter &
JsonWriter::value(const std::string &key, uint64_t v)
{
    prefix(key);
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &key, int64_t v)
{
    prefix(key);
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &key, double v)
{
    prefix(key);
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        os_ << "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &key, bool v)
{
    prefix(key);
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::rawValue(const std::string &key, const std::string &raw)
{
    prefix(key);
    os_ << raw;
    return *this;
}

bool
JsonValue::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

double
JsonValue::asDouble(double fallback) const
{
    return kind_ == Kind::Number ? num_ : fallback;
}

uint64_t
JsonValue::asUint(uint64_t fallback) const
{
    if (kind_ == Kind::Number && exact_uint_)
        return uint_;
    // Out of range (2^64 and up) converts with undefined behaviour.
    if (kind_ != Kind::Number || !(num_ >= 0.0) || num_ >= 0x1p64)
        return fallback;
    return static_cast<uint64_t>(num_);
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    return kind_ == Kind::String ? str_ : empty;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

/** Recursive-descent parser over a bounded-depth document. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage");
        return true;
    }

  private:
    static constexpr size_t kMaxDepth = 64;

    bool
    fail(const std::string &why)
    {
        if (error_) {
            *error_ = why + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out, size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.str_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return literal("true") || fail("bad literal");
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return literal("false") || fail("bad literal");
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return literal("null") || fail("bad literal");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out, size_t depth)
    {
        out.kind_ = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.obj_.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out, size_t depth)
    {
        out.kind_ = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.arr_.push_back(std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= text_.size())
                return fail("unterminated escape");
            char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_ + i];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                pos_ += 4;
                // UTF-8 encode the BMP code point (surrogate pairs
                // outside the report schemas' character set are
                // passed through as two 3-byte sequences).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        // Validate against the JSON grammar before handing the span
        // to strtod: strtod alone also accepts "nan", "inf", hex
        // floats and leading zeros, none of which are JSON.
        const size_t start = pos_;
        auto digit = [&] {
            return pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9';
        };
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (!digit()) {
            pos_ = start;
            return fail("expected value");
        }
        if (text_[pos_] == '0') {
            ++pos_;
            if (digit()) {
                pos_ = start;
                return fail("leading zero in number");
            }
        } else {
            while (digit())
                ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digit()) {
                pos_ = start;
                return fail("digit expected after decimal point");
            }
            while (digit())
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digit()) {
                pos_ = start;
                return fail("digit expected in exponent");
            }
            while (digit())
                ++pos_;
        }
        out.kind_ = JsonValue::Kind::Number;
        out.num_ = std::strtod(text_.c_str() + start, nullptr);
        // from_chars takes digits only: a sign, fraction or exponent
        // stops it short of pos_.
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        const auto [end, ec] = std::from_chars(first, last, out.uint_);
        out.exact_uint_ = ec == std::errc() && end == last;
        return true;
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

bool
parseJson(const std::string &text, JsonValue &out,
          std::string *error)
{
    out = JsonValue();
    return JsonParser(text, error).parse(out);
}

} // namespace obs
} // namespace dnasim
