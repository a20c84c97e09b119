// Numerically stable streaming statistics — the scalar-summary engine
// behind telemetry timers and gauges, and the general-purpose RunningStats
// the experiment harnesses use.
//
// Header-only and allocation-free so a snapshot of a hot-path timer can be
// summarised without touching the registry again.
#pragma once

#include <cmath>
#include <cstddef>

namespace ltfb::telemetry {

/// Welford's algorithm with min/max tracking. O(1) memory; suitable for
/// long training runs. NOT thread-safe: telemetry timer slots accumulate
/// atomically and convert to RunningStats only at snapshot time.
class RunningStats {
 public:
  void add(double x) noexcept {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  void merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = n1 + n2;
    mean_ += delta * n2 / total;
    m2_ += other.m2_ + delta * delta * n1 * n2 / total;
    count_ += other.count_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance (divide by n).
  double variance() const noexcept {
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
  }
  /// Sample variance (divide by n-1); 0 for fewer than two samples.
  double sample_variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ltfb::telemetry
