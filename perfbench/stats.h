// Small statistics helpers for the decision benchmark.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace perfbench {

/// Element at floor(q * (n - 1)) of an ascending vector — the rule
/// ControlPlane uses for its own percentiles. 0 when empty.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<std::size_t>(q * (sorted.size() - 1))];
}

inline double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, q);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// A latency tail: p99 while at least ten samples lie beyond it, otherwise
/// the highest percentile that still has ten samples beyond it (the
/// maximum when there are fewer than eleven samples).
struct Tail {
  double value = 0;
  double percentile = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n >= 1000) {
    t.value = QuantileSorted(v, 0.99);
    t.percentile = 99;
    return t;
  }
  const std::size_t idx = n >= 11 ? n - 11 : n - 1;
  t.value = v[idx];
  t.percentile = n > 1 ? 100.0 * static_cast<double>(idx) / (n - 1) : 100.0;
  return t;
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

inline double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

/// Length of the union of `intervals` clipped to [lo, hi].
inline double CoveredLength(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// FNV-1a over the eight bytes of `v`.
inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t FnvDouble(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return Fnv(h, bits);
}

}  // namespace perfbench
