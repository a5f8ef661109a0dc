#ifndef GECKO_METRICS_JSON_HPP_
#define GECKO_METRICS_JSON_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

/**
 * @file
 * The repository's one JSON reader: a strict recursive-descent parser
 * (duplicate keys and trailing characters are errors) and the JSONL
 * journal reader built on it.  Every number keeps its lexeme, so u64
 * counters, seeds and hashes read back exactly instead of through a
 * double.
 */

namespace gecko::metrics {

/** One parsed JSON value. */
struct JsonValue {
    enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = kNull;
    bool b = false;
    double num = 0.0;
    std::string raw;  ///< number lexeme as written
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Member `key` of an object; nullptr when absent or not an object. */
    const JsonValue* get(const std::string& key) const;

    /** The value as an exact u64 (a number written as plain decimal
     *  digits that fits), a double, or a string; false on a mismatch. */
    bool as(std::uint64_t* out) const;
    bool as(double* out) const;
    bool as(std::string* out) const;

    /** Member `key` read with as(); false when absent or mistyped. */
    template <class T>
    bool at(const std::string& key, T* out) const
    {
        const JsonValue* v = get(key);
        return v && v->as(out);
    }
    /** Member `key` as a string of plain decimal digits that fits a u64
     *  (the quoted u64s of manifest headers and aggregates). */
    bool quotedU64At(const std::string& key, std::uint64_t* out) const;
};

/**
 * Parse `text` as exactly one JSON value (surrounding whitespace
 * allowed).  On failure returns false and, when `error` is non-null,
 * sets it to "<what> (line L, column C)".
 */
bool parseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

/**
 * Read a JSONL journal.  Every '\n'-terminated, non-empty line that
 * parses as a JSON object is handed to `onRecord`.  A line is *torn*
 * when it is the unterminated tail a crash left, does not parse, is not
 * an object, or `onRecord` rejects it (returns false).  A missing file
 * reads as empty.
 * @return the number of torn lines
 */
std::uint64_t readJsonl(const std::string& path,
                        const std::function<bool(const JsonValue&)>& onRecord);

/** Shortest decimal text that strtod()s back to exactly `v`. */
std::string numText(double v);

}  // namespace gecko::metrics

#endif  // GECKO_METRICS_JSON_HPP_
