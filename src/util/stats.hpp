// Batch statistics used by experiment harnesses and tests: data-quality
// metrics (correlation, error measures, percentiles) that compare model
// outputs. Streaming mean/variance lives in telemetry/running_stats.hpp.
#pragma once

#include <span>
#include <vector>

namespace ltfb::util {

/// Pearson correlation coefficient. Returns 0 when either input is constant.
double pearson(std::span<const float> a, std::span<const float> b);
double pearson(std::span<const double> a, std::span<const double> b);

/// Mean absolute error between two equally sized sequences.
double mean_absolute_error(std::span<const float> a, std::span<const float> b);

/// Root mean squared error.
double rmse(std::span<const float> a, std::span<const float> b);

/// Peak signal-to-noise ratio (dB) given a known dynamic range.
/// Returns +inf-like large value (99.0) for identical inputs.
double psnr(std::span<const float> truth, std::span<const float> pred,
            double peak);

/// Linear-interpolated percentile of a copy of the data; p in [0, 100].
double percentile(std::vector<double> data, double p);

}  // namespace ltfb::util
