// Internal: the discrete Gaussian kernel and the direct separable
// convolution behind aerial_image (tests and benches call it directly).
#pragma once

#include "litho/litho.h"

#include <vector>

namespace dfm::detail {

/// Normalized Gaussian taps at pixel pitch, radius 3 sigma (in pixels).
std::vector<float> gaussian_taps(double sigma_px);

/// Separable convolution of `img` with `taps` on both axes, clamp-to-zero
/// borders (dark field); the result reuses `img`'s storage. Each pixel
/// sums its in-raster products tap by tap in ascending order from +0,
/// exactly as the scalar loop it replaced, so for non-negative input
/// (coverage, intensity) the image is bit-identical to that loop and
/// independent of the pool's thread count.
Raster convolve_separable(Raster img, const std::vector<float>& taps,
                          ThreadPool* pool);

}  // namespace dfm::detail
