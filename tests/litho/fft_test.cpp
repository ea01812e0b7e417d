// FFT fast-path equivalence and invariance tests: the FFT convolution
// must match the direct separable path within a pinned tolerance, must
// produce the *identical* thresholded hotspot set, and must be
// bit-identical to itself at every thread count.
#include "litho/fft.h"

#include "core/parallel.h"
#include "gen/rng.h"
#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dfm {
namespace {

OpticalModel model() {
  OpticalModel m;
  m.sigma = 25;
  m.px = 5;
  return m;
}

Region random_mask(Rng& rng, const Rect& within, int shapes) {
  Region r;
  for (int i = 0; i < shapes; ++i) {
    const Coord x = rng.uniform(within.lo.x, within.hi.x - 60);
    const Coord y = rng.uniform(within.lo.y, within.hi.y - 60);
    r.add(Rect{x, y, x + rng.uniform(60, 200), y + rng.uniform(60, 200)});
  }
  return r;
}

TEST(Fft, RoundTripRecoversInput) {
  const fftconv::FftPlan plan = fftconv::make_plan(64);
  Rng rng(7);
  std::vector<float> re(64), im(64);
  for (int i = 0; i < 64; ++i) {
    re[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform01()) - 0.5f;
    im[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform01()) - 0.5f;
  }
  const std::vector<float> re0 = re, im0 = im;
  fftconv::fft(plan, re.data(), im.data(), /*inverse=*/false);
  fftconv::fft(plan, re.data(), im.data(), /*inverse=*/true);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(re[static_cast<std::size_t>(i)],
                re0[static_cast<std::size_t>(i)], 1e-5f);
    EXPECT_NEAR(im[static_cast<std::size_t>(i)],
                im0[static_cast<std::size_t>(i)], 1e-5f);
  }
}

TEST(Fft, ParsevalHoldsForImpulse) {
  // An impulse transforms to a flat spectrum of 1s: the cheapest full
  // check of twiddle/bit-reversal wiring at a non-trivial size.
  const int n = 256;
  const fftconv::FftPlan plan = fftconv::make_plan(n);
  std::vector<float> re(static_cast<std::size_t>(n), 0.0f);
  std::vector<float> im(static_cast<std::size_t>(n), 0.0f);
  re[0] = 1.0f;
  fftconv::fft(plan, re.data(), im.data(), /*inverse=*/false);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(re[static_cast<std::size_t>(k)], 1.0f, 1e-5f);
    EXPECT_NEAR(im[static_cast<std::size_t>(k)], 0.0f, 1e-5f);
  }
}

TEST(Fft, KernelSpectrumMatchesNaiveDft) {
  const std::vector<float> taps = detail::gaussian_taps(3.2);
  const int radius = static_cast<int>(taps.size() / 2);
  const int n = 64;
  ASSERT_LT(2 * radius, n);
  const std::vector<float> h = fftconv::kernel_spectrum(taps, n);
  ASSERT_EQ(h.size(), static_cast<std::size_t>(n));

  // Embed the centered taps circularly (tap m at index m mod n) and take
  // the naive DFT; symmetry makes the imaginary part vanish.
  std::vector<double> spatial(static_cast<std::size_t>(n), 0.0);
  for (int m = -radius; m <= radius; ++m) {
    const int idx = (m + n) % n;
    spatial[static_cast<std::size_t>(idx)] =
        static_cast<double>(taps[static_cast<std::size_t>(radius + m)]);
  }
  for (int k = 0; k < n; ++k) {
    double re = 0, im = 0;
    for (int j = 0; j < n; ++j) {
      const double a = -2.0 * M_PI * k * j / n;
      re += spatial[static_cast<std::size_t>(j)] * std::cos(a);
      im += spatial[static_cast<std::size_t>(j)] * std::sin(a);
    }
    EXPECT_NEAR(h[static_cast<std::size_t>(k)], re, 1e-5) << "k=" << k;
    EXPECT_NEAR(im, 0.0, 1e-9) << "k=" << k;
  }
}

TEST(Fft, CrossoverPrefersDirectForNarrowKernels) {
  // Nominal-focus kernels (ntaps ~31) should stay on the vectorized
  // direct loop; genuinely wide kernels should switch to FFT; tiny
  // rasters never benefit.
  EXPECT_FALSE(fftconv::fft_beats_direct(13, 512, 512));
  EXPECT_FALSE(fftconv::fft_beats_direct(31, 512, 512));
  EXPECT_TRUE(fftconv::fft_beats_direct(121, 512, 512));
  EXPECT_TRUE(fftconv::fft_beats_direct(301, 256, 256));
  EXPECT_FALSE(fftconv::fft_beats_direct(121, 4, 4));
  // Pins of the model's current constants, so that moving them is a
  // deliberate act: the signoff tile strip stays direct, a 634 px square
  // with a defocused kernel goes FFT. fft.cpp records the measured times
  // behind both (direct is faster at the second since the
  // register-blocked kernel).
  EXPECT_FALSE(fftconv::fft_beats_direct(37, 4148, 738));
  EXPECT_TRUE(fftconv::fft_beats_direct(73, 634, 634));
}

TEST(Fft, KernelSpectrumCacheReusesTransforms) {
  KernelSpectrumCache cache;
  const std::vector<float> taps = detail::gaussian_taps(5.0);
  const auto a = cache.spectrum(taps, 256);
  const auto b = cache.spectrum(taps, 256);
  EXPECT_EQ(a.get(), b.get()) << "same key must share one spectrum";
  EXPECT_EQ(cache.size(), 1u);
  const auto c = cache.spectrum(taps, 512);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  const auto d = cache.spectrum(detail::gaussian_taps(6.0), 256);
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.size(), 3u);
}

class FftEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(FftEquivalence, AerialMatchesDirectWithinTolerance) {
  Rng rng(GetParam() * 17 + 5);
  const Rect box{0, 0, 900, 900};
  const Region mask = random_mask(rng, box, 8);
  const Rect window{100, 100, 800, 800};
  for (const Coord defocus : {Coord{0}, Coord{40}}) {
    const Raster direct = aerial_image(mask, window, model(), defocus);
    const Raster viafft = aerial_image_ex(mask, window, model(), defocus,
                                          nullptr, LithoFastMode::kFft);
    ASSERT_EQ(direct.nx, viafft.nx);
    ASSERT_EQ(direct.ny, viafft.ny);
    float max_diff = 0;
    for (std::size_t i = 0; i < direct.values.size(); ++i) {
      max_diff = std::max(max_diff,
                          std::abs(direct.values[i] - viafft.values[i]));
    }
    // Pinned tolerance: float FFT round-off across a few hundred taps.
    EXPECT_LT(max_diff, 1e-4f) << "defocus=" << defocus;
  }
}

TEST_P(FftEquivalence, HotspotSetsIdenticalToDirect) {
  Rng rng(GetParam() * 23 + 11);
  const Rect box{0, 0, 1200, 1200};
  Region mask = random_mask(rng, box, 8);
  // A deliberately weak construct so the comparison exercises non-empty
  // hotspot sets: a minimum-width line pinched between two wide blocks.
  mask.add(Rect{300, 500, 350, 900});
  mask.add(Rect{400, 500, 450, 900});
  mask.add(Rect{356, 500, 394, 900});  // thin line in a tight slot
  const Rect window = box.expanded(150);
  const Region direct = simulate_print(mask, window, model(), {});
  const Region viafft = simulate_print_ex(mask, window, model(), {}, nullptr,
                                          LithoFastMode::kFft);
  const auto spots_direct = find_hotspots(mask, direct, 12);
  const auto spots_fft = find_hotspots(mask, viafft, 12);
  EXPECT_EQ(spots_direct, spots_fft);
}

TEST_P(FftEquivalence, BitIdenticalAcrossThreadCounts) {
  Rng rng(GetParam() * 31 + 3);
  const Rect box{0, 0, 1000, 1000};
  const Region mask = random_mask(rng, box, 10);
  const Rect window{50, 50, 950, 950};

  ThreadPool p1(1);
  const Raster base = aerial_image_ex(mask, window, model(), 20, &p1,
                                      LithoFastMode::kFft);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pn(threads);
    const Raster img = aerial_image_ex(mask, window, model(), 20, &pn,
                                       LithoFastMode::kFft);
    ASSERT_EQ(base.values.size(), img.values.size());
    for (std::size_t i = 0; i < base.values.size(); ++i) {
      ASSERT_EQ(base.values[i], img.values[i])
          << "pixel " << i << " differs at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FftEquivalence, ::testing::Range(1u, 7u));

}  // namespace
}  // namespace dfm
