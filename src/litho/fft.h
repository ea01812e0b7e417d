// FFT-based convolution for the litho fast path.
//
// The aerial-image convolution is separable and clamp-to-zero at the
// borders, so each axis reduces to many independent 1D linear
// convolutions of image rows with the Gaussian taps. For wide kernels
// (large sigma or heavy defocus) an FFT beats the direct tap loop:
// zero-pad each row to a power of two L >= nx + radius, multiply its
// spectrum by the kernel's, and transform back. The kernel taps are
// real and even-symmetric, so their spectrum is purely real — which
// lets two image rows ride one complex FFT (pack rows a and b as
// a + i*b; multiplying the packed spectrum by a real filter convolves
// both rows at once, and the inverse transform's real/imaginary parts
// are the two convolved rows).
//
// Determinism: every row pair is an independent fixed-order float
// computation, so the result is bit-identical at any thread count —
// the same contract the direct separable path honours.
#pragma once

#include "litho/litho.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace dfm {

class ThreadPool;  // core/parallel.h

namespace fftconv {

/// Smallest power of two >= n (n >= 1).
int next_pow2(int n);

/// Precomputed bit-reversal table and twiddle factors for one size.
/// Building a plan is O(n); the heavy reusable part of a convolution is
/// the kernel spectrum, which KernelSpectrumCache memoizes.
struct FftPlan {
  int n = 0;
  int log2n = 0;
  std::vector<std::uint32_t> bitrev;  // size n
  std::vector<float> tw_re, tw_im;    // stage-packed, size n - 1
};

FftPlan make_plan(int n);

/// In-place complex FFT over split real/imaginary arrays of plan.n
/// elements. The inverse transform scales by 1/n.
void fft(const FftPlan& plan, float* re, float* im, bool inverse);

/// Real spectrum of symmetric odd-length taps (centered at index
/// radius), evaluated at transform length n: H[k] = taps[r] +
/// 2*sum_m taps[r+m]*cos(2*pi*k*m/n). Real and even because the taps
/// are; accumulated in double.
std::vector<float> kernel_spectrum(const std::vector<float>& taps, int n);

}  // namespace fftconv

/// Memoized kernel spectra, keyed by (taps content, transform length).
/// One spectrum per process-window corner and tile-raster size, computed
/// once and shared by every tile of a flow (FlowCaches keeps one alive
/// across a DfmFlowSession's runs). Thread-safe; values are immutable.
class KernelSpectrumCache {
 public:
  std::shared_ptr<const std::vector<float>> spectrum(
      const std::vector<float>& taps, int n);
  std::size_t size() const;

  /// Process-wide default instance, used when a caller passes no cache.
  static KernelSpectrumCache& global();

 private:
  using Key = std::pair<std::uint64_t, int>;  // (taps signature, length)
  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const std::vector<float>>> map_;
};

namespace fftconv {

/// Cost-model crossover: true when FFT convolution of an nx x ny raster
/// with `ntaps` taps (both axes) is expected to beat the direct
/// separable loop. The constants were calibrated against the scalar
/// direct loop; fft.cpp tabulates their decisions against measured
/// times of the current register-blocked kernel.
bool fft_beats_direct(std::size_t ntaps, int nx, int ny);

/// Separable convolution of `in` with `taps` via per-row FFTs on both
/// axes (transpose between). Mathematically the linear clamp-to-zero
/// convolution the direct path computes, within float round-off.
/// Rows are scheduled onto `pool` in bands; bit-identical at any thread
/// count. A null `cache` uses KernelSpectrumCache::global().
Raster fft_convolve_separable(const Raster& in, const std::vector<float>& taps,
                              KernelSpectrumCache* cache, ThreadPool* pool);

}  // namespace fftconv
}  // namespace dfm
