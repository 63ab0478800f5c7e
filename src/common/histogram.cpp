#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace srcache::common {

Histogram::Histogram() : buckets_(kBuckets, 0) {}

void Histogram::record(u64 value) {
  const int b = value == 0 ? 0 : 64 - std::countl_zero(value);
  buckets_[std::min(b, kBuckets - 1)]++;
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram Histogram::minus(const Histogram& earlier) const {
  Histogram d;
  for (int i = 0; i < kBuckets; ++i) {
    d.buckets_[i] = buckets_[i] >= earlier.buckets_[i]
                        ? buckets_[i] - earlier.buckets_[i]
                        : 0;
    d.count_ += d.buckets_[i];
  }
  d.sum_ = sum_ >= earlier.sum_ ? sum_ - earlier.sum_ : 0;
  d.min_ = min_;
  d.max_ = max_;
  if (d.count_ == 0) {
    d.min_ = ~0ull;
    d.max_ = 0;
  }
  return d;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = max_ = 0;
  min_ = ~0ull;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  u64 seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const u64 next = seen + buckets_[b];
    if (static_cast<double>(next) >= target) {
      // Bucket b holds values in [2^(b-1), 2^b); interpolate linearly.
      const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
      const double hi = static_cast<double>(b >= 63 ? max_ : (1ull << b));
      const double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(buckets_[b]);
      return lo + frac * (hi - lo);
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

std::string Histogram::summary(const std::string& unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%.0f p99=%.0f max=%llu %s",
                static_cast<unsigned long long>(count_), mean(),
                percentile(50), percentile(99),
                static_cast<unsigned long long>(max_), unit.c_str());
  return buf;
}

}  // namespace srcache::common
