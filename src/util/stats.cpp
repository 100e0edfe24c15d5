#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/json.hpp"

namespace ccd {
namespace {

// 2^53: the edge of the window where every integer is exactly one double.
constexpr double kMaxExactInt = 9007199254740992.0;

// True iff x is an integer the histogram can hold losslessly; -0.0 is
// excluded so a raw-mode min() of -0.0 cannot silently become +0.0.
bool integral_key(double x, std::int64_t* key) {
  if (!(x >= -kMaxExactInt && x <= kMaxExactInt)) return false;  // NaN/inf too
  if (x != std::trunc(x)) return false;
  if (x == 0.0 && std::signbit(x)) return false;
  *key = static_cast<std::int64_t>(x);
  return true;
}

// Exact integer moments of the histogram multiset.  __int128 keeps the
// accumulation integer-exact; the single conversion to double at the end
// rounds exactly once, matching what the sequential double fold produces
// while the running sum stays inside the 2^53 window.
double exact_sum(const ExactHistogram& h) {
  __int128 sum = 0;
  for (const auto& [key, cnt] : h.bins()) {
    sum += static_cast<__int128>(key) * static_cast<__int128>(cnt);
  }
  return static_cast<double>(sum);
}

double exact_sum_sq(const ExactHistogram& h) {
  __int128 sum = 0;
  for (const auto& [key, cnt] : h.bins()) {
    sum += static_cast<__int128>(key) * key * static_cast<__int128>(cnt);
  }
  return static_cast<double>(sum);
}

}  // namespace

void Stats::raw_add(double x) {
  if (samples_.empty() || x < min_) min_ = x;
  if (samples_.empty() || x > max_) max_ = x;
  samples_.push_back(x);
  sum_ += x;
  sum_sq_ += x * x;
  sorted_valid_ = false;
}

void Stats::demote_to_raw() {
  // Materialize the multiset in ascending key order and replay it through
  // the raw accumulators.  For the integer-only prefix the histogram held,
  // the ascending-order double sum equals the arrival-order sum exactly
  // (integer sums in the 2^53 window are order-free), so the demoted
  // accumulator is bit-identical to one that had been raw all along.
  hist_active_ = false;
  samples_.reserve(hist_.total());
  for (const auto& [key, cnt] : hist_.bins()) {
    const double x = static_cast<double>(key);
    for (std::uint64_t i = 0; i < cnt; ++i) raw_add(x);
  }
  hist_.clear();
}

void Stats::add(double x) {
  if (hist_active_) {
    std::int64_t key = 0;
    if (integral_key(x, &key)) {
      hist_.add(key, 1);
      return;
    }
    demote_to_raw();
  }
  raw_add(x);
}

void Stats::add_bin(std::int64_t key, std::uint64_t count) {
  if (hist_active_) {
    hist_.add(key, count);
    return;
  }
  const double x = static_cast<double>(key);
  samples_.reserve(samples_.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) raw_add(x);
}

void Stats::merge_from(const Stats& other) {
  if (hist_active_ && other.hist_active_) {
    hist_.merge_from(other.hist_);  // alias-safe
    return;
  }
  if (!other.hist_active_) {
    // Replay other's buffer in its insertion order, exactly as the
    // equivalent add() calls would (this may demote us mid-loop).  `other`
    // may alias `this`: snapshot the count first (samples_ may reallocate
    // mid-loop).
    const std::size_t n = other.samples_.size();
    if (!hist_active_) samples_.reserve(samples_.size() + n);
    for (std::size_t i = 0; i < n; ++i) add(other.samples_[i]);
    return;
  }
  // this raw, other histogram (modes differ, so no aliasing): append
  // other's multiset in ascending key order.
  samples_.reserve(samples_.size() + other.hist_.total());
  for (const auto& [key, cnt] : other.hist_.bins()) {
    const double x = static_cast<double>(key);
    for (std::uint64_t i = 0; i < cnt; ++i) raw_add(x);
  }
}

const ExactHistogram& Stats::histogram() const {
  assert(hist_active_);
  return hist_;
}

const std::vector<double>& Stats::samples() const {
  assert(!hist_active_);
  return samples_;
}

std::size_t Stats::count() const {
  return hist_active_ ? static_cast<std::size_t>(hist_.total())
                      : samples_.size();
}

std::size_t Stats::bytes_retained() const {
  return hist_active_ ? hist_.bytes_retained()
                      : samples_.size() * sizeof(double);
}

void Stats::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Stats::min() const {
  assert(!empty());
  return hist_active_ ? static_cast<double>(hist_.min_key()) : min_;
}

double Stats::max() const {
  assert(!empty());
  return hist_active_ ? static_cast<double>(hist_.max_key()) : max_;
}

double Stats::mean() const {
  assert(!empty());
  const double sum = hist_active_ ? exact_sum(hist_) : sum_;
  return sum / static_cast<double>(count());
}

double Stats::stddev() const {
  assert(!empty());
  const double n = static_cast<double>(count());
  const double m = mean();
  const double sq = hist_active_ ? exact_sum_sq(hist_) : sum_sq_;
  const double var = sq / n - m * m;
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Stats::percentile(double p) const {
  assert(!empty());
  if (hist_active_) {
    // Same linear-interpolation formula as the raw path below, reading
    // ranked values out of the cumulative bin counts; integer-valued
    // doubles make the arithmetic bit-identical across modes.
    if (p <= 0) return static_cast<double>(hist_.min_key());
    if (p >= 100) return static_cast<double>(hist_.max_key());
    const std::uint64_t n = hist_.total();
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double at_lo = static_cast<double>(hist_.value_at_rank(lo));
    if (lo + 1 >= n) return at_lo;
    const double at_hi = static_cast<double>(hist_.value_at_rank(lo + 1));
    return at_lo * (1.0 - frac) + at_hi * frac;
  }
  ensure_sorted();
  if (p <= 0) return sorted_.front();
  if (p >= 100) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

// ---- serialization ---------------------------------------------------------

std::string stats_to_json(const Stats& s) {
  std::string out;
  if (s.histogram_active()) {
    out += "{\"h\":[";
    bool first = true;
    for (const auto& [key, cnt] : s.histogram().bins()) {
      if (!first) out += ',';
      first = false;
      out += std::to_string(key);
      out += ',';
      out += std::to_string(cnt);
    }
    out += "]}";
  } else {
    out += "{\"raw\":";
    jsonu::append_double_array(out, s.samples());
    out += '}';
  }
  return out;
}

namespace {

constexpr std::uint64_t kMaxExactKey = std::uint64_t{1} << 53;

bool read_histogram(jsonu::Reader& r, Stats* into) {
  if (!r.begin_array()) return false;
  std::int64_t prev = 0;
  std::uint64_t total = 0;
  bool first = true;
  while (r.next_element()) {
    std::int64_t key = 0;
    std::uint64_t count = 0;
    if (!r.i64(&key)) return false;
    if (key > static_cast<std::int64_t>(kMaxExactKey) ||
        key < -static_cast<std::int64_t>(kMaxExactKey)) {
      return r.fail("histogram key " + std::to_string(key) +
                    " outside the exact-integer window" + r.where());
    }
    if (!first && key <= prev) {
      return r.fail("histogram keys not strictly ascending (" +
                    std::to_string(prev) + " then " + std::to_string(key) +
                    ")" + r.where());
    }
    if (!r.next_element()) {
      return r.ok() ? r.fail("histogram key " + std::to_string(key) +
                             " has no count" + r.where())
                    : false;
    }
    if (!r.u64(&count)) return false;
    if (count == 0 || total + count < total) {
      return r.fail("bad count " + std::to_string(count) + " for key " +
                    std::to_string(key) + r.where());
    }
    total += count;
    into->add_bin(key, count);
    prev = key;
    first = false;
  }
  return r.ok();
}

bool read_raw_samples(jsonu::Reader& r, Stats* into) {
  if (!r.begin_array()) return false;
  while (r.next_element()) {
    double x = 0;
    std::string_view token;
    if (!r.f64(&x, &token)) return false;
    if (!jsonu::is_canonical_double(token, x)) {
      return r.fail("sample '" + std::string(token) +
                    "' is not in shortest round-trip form (expected " +
                    jsonu::format_double(x) + ")" + r.where());
    }
    into->add(x);
  }
  return r.ok();
}

}  // namespace

bool read_stats(jsonu::Reader& r, Stats* into) {
  if (!r.begin_object()) return false;
  std::uint64_t seen = 0;
  std::string_view key;
  while (r.next_member(&key)) {
    const bool hist = key == "h";
    if (!hist && key != "raw") return r.unknown_key("h or raw");
    if (!r.claim(&seen, hist ? 0 : 1)) return false;
    if (seen == 3) {
      return r.fail("stats object has both 'h' and 'raw'" + r.where());
    }
    const Stats::Mode mode =
        hist ? Stats::Mode::kExactHistogram : Stats::Mode::kRawSamples;
    if (!into->empty() || into->mode() != mode) *into = Stats(mode);
    if (!(hist ? read_histogram(r, into) : read_raw_samples(r, into))) {
      return false;
    }
  }
  if (!r.ok()) return false;
  if (seen == 0) {
    return r.fail("stats object has no 'h' or 'raw' member" + r.where());
  }
  return true;
}

bool stats_from_json(std::string_view raw, Stats* into, std::string* error) {
  jsonu::Reader r(raw);
  if (read_stats(r, into) && r.end()) return true;
  if (error) *error = "stats: " + r.error();
  return false;
}

}  // namespace ccd
