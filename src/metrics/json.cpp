#include "metrics/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace gecko::metrics {

namespace {

class Parser
{
  public:
    Parser(const std::string& text, std::string* error)
        : text_(text), error_(error)
    {
    }

    bool parse(JsonValue* out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the top-level value");
        return true;
    }

  private:
    bool fail(const std::string& what)
    {
        if (error_ && error_->empty()) {
            std::size_t line = 1, col = 1;
            for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
                if (text_[i] == '\n') {
                    ++line;
                    col = 1;
                } else {
                    ++col;
                }
            }
            std::ostringstream os;
            os << what << " (line " << line << ", column " << col << ")";
            *error_ = os.str();
        }
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool literal(const char* word, JsonValue* out, JsonValue::Type type,
                 bool b)
    {
        std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail("invalid literal");
        pos_ += n;
        out->type = type;
        out->b = b;
        return true;
    }

    bool string(std::string* out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"': out->push_back('"'); break;
                  case '\\': out->push_back('\\'); break;
                  case '/': out->push_back('/'); break;
                  case 'n': out->push_back('\n'); break;
                  case 't': out->push_back('\t'); break;
                  case 'u': {
                    // jsonEscape writes control characters as \u00XX.
                    unsigned cp = 0;
                    const char* hex = text_.c_str() + pos_;
                    if (pos_ + 4 > text_.size() ||
                        std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4 ||
                        cp >= 0x80)
                        return fail("unsupported escape sequence");
                    out->push_back(static_cast<char>(cp));
                    pos_ += 4;
                    break;
                  }
                  default:
                    return fail("unsupported escape sequence");
                }
            } else {
                out->push_back(c);
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_;  // closing quote
        return true;
    }

    bool number(JsonValue* out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        out->raw = text_.substr(start, pos_ - start);
        char* end = nullptr;
        out->num = std::strtod(out->raw.c_str(), &end);
        if (end != out->raw.c_str() + out->raw.size() || out->raw.empty())
            return fail("malformed number");
        out->type = JsonValue::kNumber;
        return true;
    }

    bool value(JsonValue* out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out->type = JsonValue::kObject;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!string(&key))
                    return false;
                if (out->get(key))
                    return fail("duplicate key \"" + key + "\"");
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':' after key \"" + key + "\"");
                ++pos_;
                JsonValue v;
                if (!value(&v))
                    return false;
                out->members.emplace_back(key, std::move(v));
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            ++pos_;
            out->type = JsonValue::kArray;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!value(&v))
                    return false;
                out->arr.push_back(std::move(v));
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            out->type = JsonValue::kString;
            return string(&out->str);
        }
        if (c == 't')
            return literal("true", out, JsonValue::kBool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::kBool, false);
        if (c == 'n')
            return literal("null", out, JsonValue::kNull, false);
        return number(out);
    }

    const std::string& text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

/** Plain decimal digits that fit a u64 (no sign, point or exponent). */
bool
digitsU64(const std::string& s, std::uint64_t* out)
{
    std::uint64_t v = 0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || ptr != end)
        return false;
    *out = v;
    return true;
}

}  // namespace

const JsonValue*
JsonValue::get(const std::string& key) const
{
    for (const auto& [k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

bool
JsonValue::as(std::uint64_t* out) const
{
    return type == kNumber && digitsU64(raw, out);
}

bool
JsonValue::as(double* out) const
{
    if (type == kNumber)
        *out = num;
    return type == kNumber;
}

bool
JsonValue::as(std::string* out) const
{
    if (type == kString)
        *out = str;
    return type == kString;
}

bool
JsonValue::quotedU64At(const std::string& key, std::uint64_t* out) const
{
    const JsonValue* v = get(key);
    return v && v->type == kString && digitsU64(v->str, out);
}

bool
parseJson(const std::string& text, JsonValue* out, std::string* error)
{
    *out = JsonValue{};
    return Parser(text, error).parse(out);
}

std::uint64_t
readJsonl(const std::string& path,
          const std::function<bool(const JsonValue&)>& onRecord)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::ostringstream all;
    all << in.rdbuf();
    const std::string text = all.str();

    std::uint64_t torn = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return torn + 1;  // the record a crash interrupted
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        JsonValue v;
        if (!parseJson(line, &v) || v.type != JsonValue::kObject ||
            !onRecord(v))
            ++torn;
    }
    return torn;
}

std::string
numText(double v)
{
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

}  // namespace gecko::metrics
