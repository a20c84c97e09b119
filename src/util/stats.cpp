#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltfb::util {

namespace {

template <typename T>
double pearson_impl(std::span<const T> a, std::span<const T> b) {
  LTFB_CHECK_MSG(a.size() == b.size(), "pearson: size mismatch "
                                           << a.size() << " vs " << b.size());
  if (a.empty()) return 0.0;
  const auto n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += static_cast<double>(a[i]);
    mb += static_cast<double>(b[i]);
  }
  ma /= n;
  mb /= n;
  double saa = 0.0, sbb = 0.0, sab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = static_cast<double>(a[i]) - ma;
    const double db = static_cast<double>(b[i]) - mb;
    saa += da * da;
    sbb += db * db;
    sab += da * db;
  }
  const double denom = std::sqrt(saa * sbb);
  return denom > 0.0 ? sab / denom : 0.0;
}

}  // namespace

double pearson(std::span<const float> a, std::span<const float> b) {
  return pearson_impl(a, b);
}

double pearson(std::span<const double> a, std::span<const double> b) {
  return pearson_impl(a, b);
}

double mean_absolute_error(std::span<const float> a,
                           std::span<const float> b) {
  LTFB_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum / static_cast<double>(a.size());
}

double rmse(std::span<const float> a, std::span<const float> b) {
  LTFB_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d =
        static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

double psnr(std::span<const float> truth, std::span<const float> pred,
            double peak) {
  LTFB_CHECK(peak > 0.0);
  const double e = rmse(truth, pred);
  if (e <= 0.0) return 99.0;
  return 20.0 * std::log10(peak / e);
}

double percentile(std::vector<double> data, double p) {
  LTFB_CHECK_MSG(!data.empty(), "percentile of empty data");
  LTFB_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(data.begin(), data.end());
  const double idx = p / 100.0 * static_cast<double>(data.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, data.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return data[lo] * (1.0 - frac) + data[hi] * frac;
}

}  // namespace ltfb::util
