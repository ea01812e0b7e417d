// The direct separable convolution against its historical scalar loop:
// the register-blocked kernel must reproduce it byte for byte — on tiny
// and degenerate rasters (the 8-lane tail, kernels wider than the
// raster), through aerial_image's pad/rasterize/crop framing, and at
// every thread count.
#include "core/parallel.h"
#include "gen/rng.h"
#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

namespace dfm {
namespace {

// The scalar loop aerial_image ran before the register-blocked kernel,
// kept verbatim as the reference: per pixel, the in-raster taps in
// ascending order, skipped by a bounds test inside the tap loop.
Raster oracle_convolve(const Raster& in, const std::vector<float>& taps) {
  const int radius = static_cast<int>(taps.size() / 2);
  Raster tmp = in;
  for (int y = 0; y < in.ny; ++y) {
    for (int x = 0; x < in.nx; ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        const int xx = x + k;
        if (xx < 0 || xx >= in.nx) continue;
        acc += in.at(xx, y) * taps[static_cast<std::size_t>(k + radius)];
      }
      tmp.at(x, y) = acc;
    }
  }
  Raster out = tmp;
  for (int y = 0; y < in.ny; ++y) {
    for (int x = 0; x < in.nx; ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        const int yy = y + k;
        if (yy < 0 || yy >= in.ny) continue;
        acc += tmp.at(x, yy) * taps[static_cast<std::size_t>(k + radius)];
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

// aerial_image's framing around the oracle: pad by the kernel reach,
// rasterize, convolve, crop back to the window.
Raster oracle_aerial(const Region& mask, const Rect& window,
                     const OpticalModel& model, Coord defocus) {
  const double s = model.sigma_at_nm(defocus);
  const Coord pad = static_cast<Coord>(std::ceil(3.0 * s)) + model.px;
  const Raster img = oracle_convolve(
      rasterize(mask, window.expanded(pad), model.px),
      detail::gaussian_taps(s / static_cast<double>(model.px)));
  Raster out;
  out.window = window;
  out.px = model.px;
  const int off = static_cast<int>(pad / model.px);
  out.nx = static_cast<int>((window.width() + model.px - 1) / model.px);
  out.ny = static_cast<int>((window.height() + model.px - 1) / model.px);
  out.values.resize(static_cast<std::size_t>(out.nx) *
                    static_cast<std::size_t>(out.ny));
  for (int y = 0; y < out.ny; ++y) {
    for (int x = 0; x < out.nx; ++x) out.at(x, y) = img.at(x + off, y + off);
  }
  return out;
}

bool same_bytes(const Raster& a, const Raster& b) {
  return a.nx == b.nx && a.ny == b.ny && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(float)) == 0;
}

// Coverage-like input: exact 0s and 1s (empty and full pixels) mixed
// with partial fractions, as rasterize produces.
Raster random_raster(Rng& rng, int nx, int ny) {
  Raster r;
  r.window = Rect{0, 0, nx, ny};
  r.nx = nx;
  r.ny = ny;
  r.values.resize(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  for (float& v : r.values) {
    const double u = rng.uniform01();
    v = u < 0.3 ? 0.0f : u < 0.6 ? 1.0f : static_cast<float>(rng.uniform01());
  }
  return r;
}

// Null pool plus pools of 1, 2 and 8 threads.
std::vector<std::unique_ptr<ThreadPool>> pools() {
  std::vector<std::unique_ptr<ThreadPool>> out;
  out.push_back(nullptr);
  for (const unsigned n : {1u, 2u, 8u}) {
    out.push_back(std::make_unique<ThreadPool>(n));
  }
  return out;
}

TEST(Convolve, MatchesScalarOracleOnSmallAndDegenerateRasters) {
  Rng rng(1401);
  const auto ps = pools();
  // sigma_px 0.3 gives radius 1 (3 taps); 2.5 gives radius 8, wider
  // than most of these rasters and taller than ny < 2 * radius + 1.
  for (const double sigma_px : {0.3, 1.0, 2.5, 6.0}) {
    const std::vector<float> taps = detail::gaussian_taps(sigma_px);
    for (int nx = 1; nx <= 17; ++nx) {
      for (const int ny : {1, 2, 3, 9, 20}) {
        const Raster in = random_raster(rng, nx, ny);
        const Raster want = oracle_convolve(in, taps);
        for (const auto& pool : ps) {
          const Raster got = detail::convolve_separable(in, taps, pool.get());
          ASSERT_TRUE(same_bytes(got, want))
              << "sigma_px=" << sigma_px << " nx=" << nx << " ny=" << ny
              << " threads=" << (pool ? pool->concurrency() : 0);
        }
      }
    }
  }
}

TEST(Convolve, OneByOneRasterScalesByCentreTap) {
  const std::vector<float> taps = detail::gaussian_taps(4.0);
  Raster in;
  in.window = Rect{0, 0, 1, 1};
  in.nx = in.ny = 1;
  in.values = {0.75f};
  const Raster got = detail::convolve_separable(in, taps, nullptr);
  EXPECT_TRUE(same_bytes(got, oracle_convolve(in, taps)));
  const float centre = taps[taps.size() / 2];
  EXPECT_EQ(got.values[0], (0.75f * centre) * centre);
}

TEST(Convolve, AerialImageMatchesScalarOracle) {
  Rng rng(1402);
  const auto ps = pools();
  for (int i = 0; i < 24; ++i) {
    OpticalModel model;
    model.sigma = rng.uniform(10, 59);
    model.px = rng.uniform(1, 10);
    const Coord defocus = rng.uniform(0, 39);
    // Windows of 1 to 120 pixels keep the oracle cheap at px 1.
    const Coord x0 = rng.uniform(0, 200);
    const Coord y0 = rng.uniform(0, 200);
    const Rect window{x0, y0, x0 + model.px * rng.uniform(1, 120),
                      y0 + model.px * rng.uniform(1, 120)};
    Region mask;
    for (int s = 0; s < 10; ++s) {
      const Coord x = rng.uniform(window.lo.x - 100, window.hi.x);
      const Coord y = rng.uniform(window.lo.y - 100, window.hi.y);
      mask.add(Rect{x, y, x + rng.uniform(10, 250), y + rng.uniform(10, 250)});
    }
    const Raster want = oracle_aerial(mask, window, model, defocus);
    for (const auto& pool : ps) {
      const int threads = pool ? static_cast<int>(pool->concurrency()) : 0;
      EXPECT_TRUE(same_bytes(
          aerial_image(mask, window, model, defocus, pool.get()), want))
          << "case " << i << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dfm
