// The program's one JSON type: builder and writer for trace dumps, bench
// reports and chaos reproducers, and the reader that replays reproducers
// (`Json::parse`). No third-party dependency; output is deterministic
// (object keys keep insertion order) so report diffs are meaningful across
// runs, and `parse(d.dump(n))->dump(n) == d.dump(n)` (a negative zero
// aside: its "-0" reads back as the integer 0).
#pragma once

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace neutrino::obs {

/// One JSON value. Objects preserve insertion order; `operator[]` on an
/// object creates the key on first use (and turns a null into an object),
/// so documents read like assignments:
///
///   Json doc;
///   doc["schema"] = "neutrino.bench-report";
///   doc["rows"].push_back(row);
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}  // NOLINT
  Json(std::int64_t i)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), num_(static_cast<double>(i)), int_(i),
        is_int_(true) {}
  Json(std::uint64_t u)  // NOLINT(google-explicit-constructor)
      : Json(static_cast<std::int64_t>(u)) {}
  Json(std::uint32_t u) : Json(static_cast<std::int64_t>(u)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : type_(Type::kString), str_(s) {}  // NOLINT

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  /// Object access; creates the member on first use.
  Json& operator[](std::string_view k) {
    become(Type::kObject);
    for (auto& [key, v] : members_) {
      if (key == k) return *v;
    }
    members_.emplace_back(std::string{k}, std::make_unique<Json>());
    return *members_.back().second;
  }

  /// Array append.
  Json& push_back(Json v) {
    become(Type::kArray);
    elems_.push_back(std::make_unique<Json>(std::move(v)));
    return *elems_.back();
  }
  /// Force array type even while empty (so "[]" is emitted, not "null").
  void make_array() { become(Type::kArray); }
  void make_object() { become(Type::kObject); }

  [[nodiscard]] std::size_t size() const {
    return type_ == Type::kArray ? elems_.size() : members_.size();
  }

  // ---- read side (parsed documents) ----

  /// Member `key`; null when absent or when this is not an object.
  [[nodiscard]] const Json* find(std::string_view key) const {
    for (const auto& [k, v] : members_) {
      if (k == key) return v.get();
    }
    return nullptr;
  }
  /// Array element `i < size()`.
  [[nodiscard]] const Json& at(std::size_t i) const { return *elems_[i]; }
  /// The number as an integer (a double in int64 range truncates);
  /// `fallback` for anything else.
  [[nodiscard]] std::int64_t int_or(std::int64_t fallback) const {
    if (type_ != Type::kNumber) return fallback;
    if (is_int_) return int_;
    return num_ >= -0x1p63 && num_ < 0x1p63 ? static_cast<std::int64_t>(num_)
                                            : fallback;
  }
  [[nodiscard]] std::string_view string_or(std::string_view fallback) const {
    return type_ == Type::kString ? std::string_view{str_} : fallback;
  }

  /// Read one complete document; nullopt on any syntax error: trailing
  /// junk or commas, unterminated strings or containers, unknown escapes,
  /// `\u` above 0xff, a key repeated within one object (which of the two
  /// a hand-edited artifact meant is a guess), and nesting deeper than
  /// kMaxDepth. A number with no `.`, `e` or `E` is an exact 64-bit
  /// integer (nanosecond times, seeds).
  static std::optional<Json> parse(std::string_view text) {
    std::optional<Json> v = read_value(text, 0);
    skip_ws(text);
    if (!v || !text.empty()) return std::nullopt;
    return v;
  }

  /// Serialize. `indent` = 2 pretty-prints; 0 emits one line.
  [[nodiscard]] std::string dump(int indent = 2) const {
    std::string out;
    write(out, indent, 0);
    if (indent > 0) out += '\n';
    return out;
  }

  static void escape(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

 private:
  void become(Type t) {
    if (type_ == Type::kNull) type_ = t;
  }

  // The reader: each step consumes what it read from the front of `in`.
  // The recursion is bounded far above anything the program writes, so
  // hostile input is rejected instead of overflowing the stack.
  static constexpr int kMaxDepth = 256;

  static void skip_ws(std::string_view& in) {
    while (!in.empty() && std::isspace(static_cast<unsigned char>(in[0]))) {
      in.remove_prefix(1);
    }
  }

  static bool consume(std::string_view& in, std::string_view token) {
    skip_ws(in);
    if (in.substr(0, token.size()) != token) return false;
    in.remove_prefix(token.size());
    return true;
  }

  static std::optional<Json> read_value(std::string_view& in, int depth) {
    skip_ws(in);
    if (in.empty() || depth > kMaxDepth) return std::nullopt;
    if (consume(in, "true")) return Json(true);
    if (consume(in, "false")) return Json(false);
    if (consume(in, "null")) return Json();
    switch (in[0]) {
      case '{': return read_object(in, depth);
      case '[': return read_array(in, depth);
      case '"': {
        std::optional<std::string> s = read_string(in);
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      default: return read_number(in);
    }
  }

  static std::optional<Json> read_object(std::string_view& in, int depth) {
    in.remove_prefix(1);  // '{'
    Json obj;
    obj.make_object();
    if (consume(in, "}")) return obj;
    do {
      skip_ws(in);
      std::optional<std::string> key = read_string(in);
      if (!key || !consume(in, ":")) return std::nullopt;
      std::optional<Json> v = read_value(in, depth + 1);
      if (!v || obj.find(*key) != nullptr) return std::nullopt;
      obj[*key] = std::move(*v);
    } while (consume(in, ","));
    if (!consume(in, "}")) return std::nullopt;
    return obj;
  }

  static std::optional<Json> read_array(std::string_view& in, int depth) {
    in.remove_prefix(1);  // '['
    Json arr;
    arr.make_array();
    if (consume(in, "]")) return arr;
    do {
      std::optional<Json> v = read_value(in, depth + 1);
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
    } while (consume(in, ","));
    if (!consume(in, "]")) return std::nullopt;
    return arr;
  }

  /// Undoes escape(), plus JSON's other short escapes (`\/`, `\b`, `\f`).
  static std::optional<std::string> read_string(std::string_view& in) {
    if (in.empty() || in[0] != '"') return std::nullopt;
    std::string out;
    for (std::size_t i = 1; i < in.size(); ++i) {
      const char c = in[i];
      if (c == '"') {
        in.remove_prefix(i + 1);
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (++i == in.size()) break;
      switch (in[i]) {
        case '"': case '\\': case '/': out += in[i]; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // escape() writes only \u00XX; past Latin-1 is rejected.
          unsigned code = 0;
          const char* hex = in.data() + i + 1;
          if (in.size() - i - 1 < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
              code > 0xff) {
            return std::nullopt;
          }
          out += static_cast<char>(code);
          i += 4;
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  static std::optional<Json> read_number(std::string_view& in) {
    const std::string_view token =
        in.substr(0, in.find_first_not_of("0123456789+-.eE"));
    in.remove_prefix(token.size());
    const char* const end = token.data() + token.size();
    if (token.find_first_of(".eE") == std::string_view::npos) {
      std::int64_t i = 0;
      const auto [stop, err] = std::from_chars(token.data(), end, i);
      if (err != std::errc{} || stop != end) return std::nullopt;
      return Json(i);
    }
    double d = 0;
    const auto [stop, err] = std::from_chars(token.data(), end, d);
    if (err != std::errc{} || stop != end) return std::nullopt;
    return Json(d);
  }

  void write(std::string& out, int indent, int depth) const {
    const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
    const char* nl = indent > 0 ? "\n" : "";
    switch (type_) {
      case Type::kNull: out += "null"; break;
      case Type::kBool: out += bool_ ? "true" : "false"; break;
      case Type::kNumber: {
        char buf[48];
        if (is_int_) {
          std::snprintf(buf, sizeof buf, "%" PRId64, int_);
        } else if (!std::isfinite(num_)) {
          std::snprintf(buf, sizeof buf, "null");  // JSON has no inf/nan
        } else {
          std::snprintf(buf, sizeof buf, "%.9g", num_);
        }
        out += buf;
        break;
      }
      case Type::kString: escape(out, str_); break;
      case Type::kArray: {
        if (elems_.empty()) {
          out += "[]";
          break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < elems_.size(); ++i) {
          if (indent > 0) out += pad;
          elems_[i]->write(out, indent, depth + 1);
          if (i + 1 < elems_.size()) out += ',';
          out += nl;
        }
        if (indent > 0) out += close_pad;
        out += ']';
        break;
      }
      case Type::kObject: {
        if (members_.empty()) {
          out += "{}";
          break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < members_.size(); ++i) {
          if (indent > 0) out += pad;
          escape(out, members_[i].first);
          out += indent > 0 ? ": " : ":";
          members_[i].second->write(out, indent, depth + 1);
          if (i + 1 < members_.size()) out += ',';
          out += nl;
        }
        if (indent > 0) out += close_pad;
        out += '}';
        break;
      }
    }
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string str_;
  std::vector<std::unique_ptr<Json>> elems_;
  std::vector<std::pair<std::string, std::unique_ptr<Json>>> members_;
};

}  // namespace neutrino::obs
