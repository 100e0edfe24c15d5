#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace ccd::jsonu {

std::string format_double(double d) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

bool is_canonical_double(std::string_view token, double x) {
  // format_double stops at the first precision whose %g round-trips.  No
  // precision below the shortest round-trip digit count can (to_chars
  // finds that count), so %g at exactly that count is format_double's
  // answer whenever it round-trips -- which the caller already knows,
  // since it parsed `token` to x.  Anything else takes the slow path.
  char shortest[32];
  const auto res = std::to_chars(shortest, shortest + sizeof(shortest), x,
                                 std::chars_format::scientific);
  int digits = 0;
  for (const char* p = shortest; p != res.ptr && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.*g", digits, x);
  if (n > 0 && std::string_view(buf, static_cast<std::size_t>(n)) == token) {
    return true;
  }
  return format_double(x) == token;
}

void append_double_array(std::string& out, const std::vector<double>& xs) {
  out += "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += format_double(xs[i]);
  }
  out += "]";
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"";
  return out;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_number_char(char c) {
  return is_digit(c) || c == '-' || c == '+' || c == '.' || c == 'e' ||
         c == 'E';
}

/// JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
/// or only its integer part when `integer` is set.
bool valid_number(std::string_view t, bool integer) {
  std::size_t i = 0;
  const std::size_t n = t.size();
  if (i < n && t[i] == '-') ++i;
  if (i >= n) return false;
  if (t[i] == '0') {
    ++i;
  } else if (is_digit(t[i])) {
    while (i < n && is_digit(t[i])) ++i;
  } else {
    return false;
  }
  if (integer) return i == n;
  if (i < n && t[i] == '.') {
    ++i;
    if (i >= n || !is_digit(t[i])) return false;
    while (i < n && is_digit(t[i])) ++i;
  }
  if (i < n && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < n && (t[i] == '+' || t[i] == '-')) ++i;
    if (i >= n || !is_digit(t[i])) return false;
    while (i < n && is_digit(t[i])) ++i;
  }
  return i == n;
}

/// Error-message rendering of a value's text: bounded, so a hostile
/// megabyte string cannot balloon the message.
std::string shown(std::string_view v) {
  constexpr std::size_t kMax = 64;
  if (v.size() <= kMax) return std::string(v);
  return std::string(v.substr(0, kMax)) + "...";
}

}  // namespace

int find_key(std::string_view key, const std::string_view* keys,
             std::size_t count, std::size_t hint) {
  if (hint < count && keys[hint] == key) return static_cast<int>(hint);
  for (std::size_t i = 0; i < count; ++i) {
    if (keys[i] == key) return static_cast<int>(i);
  }
  return -1;
}

bool missing_format(Reader& r, std::string_view expected) {
  return r.fail("missing or unknown \"format\" (expected " +
                std::string(expected) + ")");
}

bool read_format(Reader& r, std::string_view expected) {
  std::string_view format;
  if (!r.string(&format)) return false;
  return format == expected || missing_format(r, expected);
}

Reader::Reader(std::string_view text) : text_(text) {}

void Reader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char Reader::peek() {
  skip_ws();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool Reader::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return false;
}

bool Reader::syntax(const std::string& what) {
  return fail(what + location() + " (byte " + std::to_string(pos_) + ")");
}

bool Reader::expect_more(const char* what) {
  if (pos_ < text_.size()) return true;
  return syntax(std::string("unexpected end of input, expected ") + what);
}

std::string Reader::render(std::size_t frames) const {
  std::string out;
  for (std::size_t i = 0; i < frames; ++i) {
    const Frame& f = frames_[i];
    if (!f.started) continue;
    if (f.array) {
      out += '[';
      out += std::to_string(f.index);
      out += ']';
    } else {
      if (!out.empty()) out += '.';
      out += f.key;
    }
  }
  return out;
}

std::string Reader::path() const { return render(depth_); }

std::string Reader::where() const {
  std::string out;
  const std::string p = path();
  if (!p.empty()) out.append(" in ").append(p);
  return out;
}

std::string Reader::location() const {
  // The innermost member key, the array indices below it, and the path of
  // the object that holds it.
  std::size_t k = depth_;
  while (k > 0 && frames_[k - 1].array) --k;
  std::string indices;
  for (std::size_t i = k; i < depth_; ++i) {
    if (!frames_[i].started) continue;
    indices.append("[").append(std::to_string(frames_[i].index)).append("]");
  }
  std::string out;
  if (k == 0) {
    if (!indices.empty()) out.append(" at element ").append(indices);
    return out;
  }
  const Frame& f = frames_[k - 1];
  const std::string above = render(k - 1);
  if (f.started) {
    out.append(" for key '").append(f.key).append("'");
    if (!indices.empty()) out.append(" element ").append(indices);
  }
  if (!above.empty()) out.append(" in ").append(above);
  return out;
}

bool Reader::open(char c, bool array) {
  if (!ok()) return false;
  if (peek() != c) return bad_value(array ? "an array" : "an object");
  if (depth_ >= kMaxDepth) {
    return syntax("nesting deeper than " + std::to_string(kMaxDepth) +
                  " levels");
  }
  ++pos_;
  frames_[depth_++] = Frame{array, false, 0, {}};
  return true;
}

bool Reader::begin_object() { return open('{', false); }
bool Reader::begin_array() { return open('[', true); }

bool Reader::next_member(std::string_view* key) {
  if (!ok()) return false;
  if (depth_ == 0 || frames_[depth_ - 1].array) {
    return fail("next_member outside an object");
  }
  Frame& f = frames_[depth_ - 1];
  skip_ws();
  if (!expect_more("'}'")) return false;
  char c = text_[pos_];
  if (c == '}') {
    ++pos_;
    --depth_;
    return false;
  }
  if (f.started) {
    if (c != ',') return syntax("expected ',' or '}'");
    ++pos_;
    skip_ws();
    if (!expect_more("a key")) return false;
    c = text_[pos_];
  }
  if (c != '"') return syntax("expected a string key");
  std::string_view k;
  if (!scan_string(&k, &scratch_)) return false;
  if (k.data() == scratch_.data()) {
    // Decoded from escapes: keep it alive as long as the Reader.
    owned_keys_.push_back(std::make_unique<std::string>(k));
    k = *owned_keys_.back();
  }
  f.key = k;
  f.started = true;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return syntax("expected ':'");
  }
  ++pos_;
  *key = k;
  return true;
}

bool Reader::next_element() {
  if (!ok()) return false;
  if (depth_ == 0 || !frames_[depth_ - 1].array) {
    return fail("next_element outside an array");
  }
  Frame& f = frames_[depth_ - 1];
  skip_ws();
  if (!expect_more("']'")) return false;
  const char c = text_[pos_];
  if (!f.started) {
    if (c == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    f.started = true;
    f.index = 0;
    return true;
  }
  if (c == ',') {
    ++pos_;
    ++f.index;
    return true;
  }
  if (c == ']') {
    ++pos_;
    --depth_;
    return false;
  }
  return syntax("expected ',' or ']'");
}

bool Reader::end() {
  if (!ok()) return false;
  if (depth_ != 0) return fail("end() inside an open object or array");
  skip_ws();
  if (pos_ != text_.size()) {
    return syntax("unexpected content after the top-level value");
  }
  return true;
}

bool Reader::scan_string(std::string_view* out, std::string* scratch) {
  // pos_ is at the opening quote.
  const std::size_t start = ++pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      *out = text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    if (c == '\\') break;
    if (static_cast<unsigned char>(c) < 0x20) {
      return syntax("unescaped control character in string");
    }
    ++pos_;
  }
  if (pos_ >= text_.size()) return syntax("unterminated string");
  // Slow path: the string holds an escape.
  scratch->assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      *out = *scratch;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return syntax("unescaped control character in string");
    }
    if (c != '\\') {
      *scratch += c;
      ++pos_;
      continue;
    }
    // quote() escapes only '"' and '\\'; any other escape is not ours.
    if (pos_ + 1 >= text_.size()) break;
    const char e = text_[pos_ + 1];
    if (e != '"' && e != '\\') {
      return syntax("unsupported escape in string (only \\\" and \\\\)");
    }
    *scratch += e;
    pos_ += 2;
  }
  return syntax("unterminated string");
}

void Reader::number_token(std::string_view* out) {
  const std::size_t start = pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  *out = text_.substr(start, pos_ - start);
}

bool Reader::fast_uint(std::uint64_t limit, bool negative,
                       std::uint64_t* out) {
  // The common case in one pass: plain digits (no leading zero) whose
  // value fits `limit`, then a byte that cannot continue a number.
  // Anything else falls back to the validating path and its messages.
  const std::size_t n = text_.size();
  std::size_t i = pos_ + (negative ? 1 : 0);
  if (i >= n || !is_digit(text_[i])) return false;
  if (text_[i] == '0' && (negative || (i + 1 < n && is_digit(text_[i + 1])))) {
    return false;
  }
  std::uint64_t v = 0;
  for (; i < n && is_digit(text_[i]); ++i) {
    const auto d = static_cast<std::uint64_t>(text_[i] - '0');
    if (v > (limit - d) / 10) return false;
    v = v * 10 + d;
  }
  if (i < n && is_number_char(text_[i])) return false;
  pos_ = i;
  *out = v;
  return true;
}

template <typename T>
bool Reader::exact_integer(T* out, const char* want) {
  const char c = peek();
  if (!is_digit(c) && c != '-') return bad_value(want);
  std::string_view t;
  number_token(&t);
  // A sign on an unsigned field is an error, not a wrap; "-0" is 0 spelled
  // a second way, which the writers never emit.
  const bool sign_ok = std::is_signed_v<T> ? t != "-0" : t[0] != '-';
  T v{};
  const auto res = std::from_chars(t.data(), t.data() + t.size(), v);
  if (!valid_number(t, true) || !sign_ok || res.ec != std::errc{} ||
      res.ptr != t.data() + t.size()) {
    return reject(t, want);
  }
  *out = v;
  return true;
}

bool Reader::u64(std::uint64_t* out) {
  if (!ok()) return false;
  skip_ws();
  return fast_uint(std::numeric_limits<std::uint64_t>::max(), false, out) ||
         exact_integer(out, "an unsigned 64-bit integer");
}

bool Reader::i64(std::int64_t* out) {
  if (!ok()) return false;
  skip_ws();
  const bool negative = pos_ < text_.size() && text_[pos_] == '-';
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  std::uint64_t magnitude = 0;
  if (fast_uint(negative ? kMax + 1 : kMax, negative, &magnitude)) {
    *out = negative ? static_cast<std::int64_t>(~magnitude + 1)
                    : static_cast<std::int64_t>(magnitude);
    return true;
  }
  return exact_integer(out, "a signed 64-bit integer");
}

bool Reader::f64(double* out, std::string_view* token) {
  if (!ok()) return false;
  const char c = peek();
  constexpr const char* kWant = "a finite number";
  if (!is_digit(c) && c != '-') return bad_value(kWant);
  std::string_view t;
  number_token(&t);
  if (!valid_number(t, false)) {
    return reject(t, kWant);
  }
  const auto res = std::from_chars(t.data(), t.data() + t.size(), *out);
  if (res.ec != std::errc{} || res.ptr != t.data() + t.size()) {
    return reject(t, kWant);
  }
  if (token) *token = t;
  return true;
}

bool Reader::string(std::string_view* out) {
  if (!ok()) return false;
  if (peek() != '"') return bad_value("a string");
  return scan_string(out, &scratch_);
}

bool Reader::null() {
  if (!ok()) return false;
  skip_ws();
  if (text_.substr(pos_, 4) != "null") return false;
  pos_ += 4;
  return true;
}

bool Reader::skip() {
  if (!ok()) return false;
  const std::size_t base = depth_;
  std::string_view unused;
  do {
    if (depth_ > base) {
      const bool more = frames_[depth_ - 1].array ? next_element()
                                             : next_member(&unused);
      if (!ok()) return false;
      if (!more) continue;
    }
    switch (peek()) {
      case '{':
        if (!begin_object()) return false;
        break;
      case '[':
        if (!begin_array()) return false;
        break;
      case '"':
        if (!scan_string(&unused, &scratch_)) return false;
        break;
      case 't':
      case 'f': {
        const std::string_view lit = text_[pos_] == 't' ? "true" : "false";
        if (text_.substr(pos_, lit.size()) != lit) {
          return syntax("expected a value");
        }
        pos_ += lit.size();
        break;
      }
      case 'n':
        if (!null()) return syntax("expected a value");
        break;
      case '\0':
        return syntax("unexpected end of input, expected a value");
      default: {
        std::string_view t;
        number_token(&t);
        if (!valid_number(t, false)) {
          if (t.empty()) return syntax("expected a value");
          return reject(t, "a JSON value");
        }
      }
    }
  } while (depth_ > base);
  return true;
}

bool Reader::raw(std::string_view* out) {
  if (!ok()) return false;
  skip_ws();
  const std::size_t start = pos_;
  if (!skip()) return false;
  *out = text_.substr(start, pos_ - start);
  return true;
}

bool Reader::bad_value(std::string_view expected) {
  if (!ok()) return false;
  const std::string loc = location();
  std::string_view v;
  const char c = peek();
  if (c == '\0') {
    return syntax("unexpected end of input, expected " +
                  std::string(expected));
  }
  if (c == '"') {
    if (!scan_string(&v, &scratch_)) return false;
  } else if (!raw(&v)) {
    return false;
  }
  return fail("bad value '" + shown(v) + "'" + loc + " (expected " +
              std::string(expected) + ")");
}

bool Reader::reject(std::string_view value, std::string_view expected) {
  return fail("bad value '" + shown(value) + "'" + location() + " (expected " +
              std::string(expected) + ")");
}

bool Reader::unknown_key(std::string_view expected) {
  if (!ok()) return false;
  std::string message = "unknown key '";
  if (depth_ != 0) message += frames_[depth_ - 1].key;
  message += "'";
  const std::string in = render(depth_ == 0 ? 0 : depth_ - 1);
  if (!in.empty()) message += " in " + in;
  if (!expected.empty()) {
    message += " (expected ";
    message += expected;
    message += ")";
  }
  return fail(std::move(message));
}

bool Reader::claim(std::uint64_t* seen, unsigned slot) {
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if ((*seen & bit) != 0) return duplicate_key();
  *seen |= bit;
  return true;
}

bool Reader::duplicate_key() {
  std::string message = "duplicate key '";
  if (depth_ != 0) message += frames_[depth_ - 1].key;
  message += "'";
  const std::string in = render(depth_ == 0 ? 0 : depth_ - 1);
  if (!in.empty()) message += " in " + in;
  return fail(std::move(message));
}

}  // namespace ccd::jsonu
