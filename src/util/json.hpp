// The one JSON codec behind every on-disk artifact: scenario specs, sweep
// grids, shard specs and reports, checkpoints, perf sidecars and the
// inspector's inputs.  Lives in util/ -- the bottom of the layer DAG -- so
// obs/ can read sidecars without an include edge into exp/.
//
// Writing is plain string appends at each call site plus the helpers
// below.  Reading is `Reader`, a pull cursor over a std::string_view that
// hands out object members and array elements in document order, so every
// byte is scanned once and nothing is copied out to be scanned again:
//
//   - numbers parse exactly (std::from_chars) against the JSON grammar:
//     u64()/i64() take integers only, and overflow, a sign on a u64, a
//     leading zero, "-0" or trailing junk are errors, never a clamp;
//   - strings come back as views into the input and are unescaped (into a
//     scratch buffer) only when they contain an escape -- the two that
//     quote() writes, \" and \\; any other escape is an error;
//   - skip() validates and steps over any value iteratively; objects and
//     arrays nest at most kMaxDepth deep, deeper input is an error rather
//     than a deep recursion;
//   - every error is keyed: it names the member path it happened at
//     ("bad value '-1' for key 'runs' in cells[3] (expected ...)") and the
//     byte offset for structural faults.  The first error sticks; every
//     later call returns false.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ccd::jsonu {

/// Shortest %g form that strtod parses back to the same double: try
/// increasing precision until the round trip is exact.  Keeps emitted JSON
/// both readable ("0.5", not "0.50000000000000000") and lossless -- the
/// byte-identical merge guarantee leans on this exactness.
std::string format_double(double d);

/// True iff `token` is exactly what format_double(x) writes.  Readers that
/// must reproduce their input byte for byte (raw sample buffers) use it to
/// refuse a second spelling of the same double.
bool is_canonical_double(std::string_view token, double x);

/// Append `[a,b,...]` rendering doubles via format_double.
void append_double_array(std::string& out, const std::vector<double>& xs);

/// JSON string escaping for the few places we emit caller-supplied text
/// (file paths never go through here; schedule names and enum tokens are
/// already escape-free, but defend anyway).
std::string quote(std::string_view s);

/// Deepest object/array nesting a Reader accepts.  Our artifacts nest
/// five levels deep at most; the limit exists so hostile input fails
/// fast.
inline constexpr std::size_t kMaxDepth = 64;

class Reader {
 public:
  explicit Reader(std::string_view text);

  // ---- structure ---------------------------------------------------------
  /// Consume '{' / '['.  Fails past kMaxDepth.
  bool begin_object();
  bool begin_array();
  /// Step to the next member of the innermost object: true with its key
  /// (the caller must then consume the value), false at the closing '}'
  /// or on error -- check ok() after the loop.
  bool next_member(std::string_view* key);
  /// Same for array elements.
  bool next_element();
  /// Only whitespace may follow the top-level value.
  bool end();

  // ---- values ------------------------------------------------------------
  bool u64(std::uint64_t* out);
  bool i64(std::int64_t* out);
  /// Any JSON number, as the nearest double; `token` (if non-null) gets
  /// its text.
  bool f64(double* out, std::string_view* token = nullptr);
  /// String view, valid until the next string this Reader returns.
  bool string(std::string_view* out);
  /// Consume a `null` if one comes next; false (without error) otherwise.
  bool null();
  /// Validate and step over one value of any kind.
  bool skip();
  /// skip(), handing back the value's raw text.
  bool raw(std::string_view* out);
  /// First byte of the next value ('{', '[', '"', a digit, '-', 't', 'f',
  /// 'n'), or '\0' at end of input.  Consumes nothing.
  char peek();

  // ---- errors ------------------------------------------------------------
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  /// Record `message` (non-empty) verbatim; the first error wins.  Always
  /// returns false.
  bool fail(std::string message);
  /// "bad value '<next value>' for key ... (expected <expected>)", then
  /// fail.  Consumes the value.
  bool bad_value(std::string_view expected);
  /// The same message for a value already consumed (an enum token that
  /// named nothing, a number out of its field's range).
  bool reject(std::string_view value, std::string_view expected);
  /// "unknown key '<current key>'<where>", plus the expected keys.
  bool unknown_key(std::string_view expected = {});
  /// Duplicate detection for table-driven readers: set bit `slot` of
  /// *seen, failing with duplicate_key() if it was set.
  bool claim(std::uint64_t* seen, unsigned slot);
  /// "duplicate key '<current key>'" plus the object's path; fails.
  bool duplicate_key();
  /// Dotted member path to the current position, e.g. "cells[3].runs".
  std::string path() const;
  /// " in <path>" (or "" at top level): the suffix for errors about the
  /// value just closed, e.g. "missing key 'cell'" + where().
  std::string where() const;

 private:
  struct Frame {
    bool array;
    bool started;           ///< a member/element has been handed out
    std::size_t index;      ///< array: current element
    std::string_view key;   ///< object: current member
  };

  void skip_ws();
  bool expect_more(const char* what);
  bool open(char c, bool array);
  bool scan_string(std::string_view* out, std::string* scratch);
  void number_token(std::string_view* out);
  bool fast_uint(std::uint64_t limit, bool negative, std::uint64_t* out);
  template <typename T>
  bool exact_integer(T* out, const char* want);
  bool syntax(const std::string& what);
  std::string location() const;
  std::string render(std::size_t frames) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  // A fixed stack: no allocation per Reader, and nesting past it is the
  // depth error.
  std::array<Frame, kMaxDepth> frames_{};
  std::size_t depth_ = 0;
  std::string scratch_;
  /// Keys that needed unescaping, at stable addresses for Frame::key.
  std::vector<std::unique_ptr<std::string>> owned_keys_;
  std::string error_;
};

/// u64() narrowed to T; a value past T's range is a keyed error.
template <typename T>
bool read_uint(Reader& r, T* out) {
  std::uint64_t v = 0;
  if (!r.u64(&v)) return false;
  if (v > std::numeric_limits<T>::max()) {
    return r.reject(std::to_string(v),
                    "an unsigned " + std::to_string(sizeof(T) * 8) +
                        "-bit integer");
  }
  *out = static_cast<T>(v);
  return true;
}

/// Reads an artifact's "format" member, failing unless it is `expected`;
/// missing_format() is the error for an artifact that has none.
bool read_format(Reader& r, std::string_view expected);
bool missing_format(Reader& r, std::string_view expected);

/// Index of `key` in `keys`, trying `hint` first (readers pass the slot
/// after the previous member, so in-order input matches in one compare);
/// -1 when absent.
int find_key(std::string_view key, const std::string_view* keys,
             std::size_t count, std::size_t hint);

}  // namespace ccd::jsonu
