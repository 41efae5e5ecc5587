/**
 * @file
 * Minimal JSON support shared by the stats/trace exporters and the
 * bench-report funnel: a streaming writer (nesting, comma placement,
 * string escaping — the caller provides structure) and a small
 * recursive-descent parser (JsonValue / parseJson) that reads
 * dnasim.bench.v1 reports back for `dnasim bench diff` and
 * checkpoint manifests on resume.
 */

#ifndef DNASIM_OBS_JSON_HH
#define DNASIM_OBS_JSON_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dnasim
{
namespace obs
{

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Streaming JSON writer. Objects and arrays nest via
 * beginObject()/beginArray(); inside an object every value takes a
 * key, inside an array keys are omitted (pass an empty key).
 */
class JsonWriter
{
  public:
    /** @p indent spaces per level; 0 writes compact single-line. */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    JsonWriter &beginObject(const std::string &key = "");
    JsonWriter &endObject();
    JsonWriter &beginArray(const std::string &key = "");
    JsonWriter &endArray();

    JsonWriter &value(const std::string &key, const std::string &v);
    JsonWriter &value(const std::string &key, const char *v);
    JsonWriter &value(const std::string &key, uint64_t v);
    JsonWriter &value(const std::string &key, int64_t v);
    JsonWriter &value(const std::string &key, double v);
    JsonWriter &value(const std::string &key, bool v);

    /** Emit @p raw verbatim as the value (must be valid JSON). */
    JsonWriter &rawValue(const std::string &key, const std::string &raw);

  private:
    void prefix(const std::string &key);
    void newlineIndent();

    std::ostream &os_;
    int indent_;
    /** One entry per open container: count of values emitted. */
    std::vector<size_t> stack_;
};

/**
 * A parsed JSON document node. Objects preserve insertion order;
 * numbers are held as double, and an integer literal that fits in a
 * uint64_t is also kept exactly, so asUint() returns a manifest seed
 * above 2^53 unrounded.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /**
     * Typed reads with fallbacks (never throw). asUint() returns an
     * exact integer literal as written, else the double when it lies
     * in [0, 2^64), else @p fallback.
     */
    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    uint64_t asUint(uint64_t fallback = 0) const;
    const std::string &asString() const;

    /** Object member by key, nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &array() const { return arr_; }

    /** Object members in document order (empty unless isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    object() const
    {
        return obj_;
    }

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    bool exact_uint_ = false; ///< uint_ holds the literal exactly
    uint64_t uint_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

/**
 * Parse @p text into @p out. Returns false (and sets @p error when
 * non-null) on malformed input; trailing whitespace is allowed,
 * trailing garbage is not.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_JSON_HH
