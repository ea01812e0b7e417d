#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include "core/parallel.h"
#include "core/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

namespace dfm {

const char* litho_fast_name(LithoFastMode mode) {
  return mode == LithoFastMode::kOff ? "off" : "auto";
}

std::optional<LithoFastMode> parse_litho_fast(std::string_view name) {
  for (const LithoFastMode m : {LithoFastMode::kAuto, LithoFastMode::kOff}) {
    if (name == litho_fast_name(m)) return m;
  }
  return std::nullopt;
}

namespace {

// Eight adjacent output pixels accumulate in registers as two 4-float
// GCC vectors: with no -march flag each is one SSE register on x86-64,
// where a single 8-float vector would be split and spilled to the stack
// on every tap.
typedef float Quad __attribute__((vector_size(4 * sizeof(float))));
constexpr int kBlock = 8;

// out[x] = sum over j in [0, ntaps) of src[j * stride + x] * taps[j], for
// x in [0, n), accumulated from +0 in ascending j: a row of the
// horizontal pass (stride 1 over a zero-padded row) or of the vertical
// pass (stride nx down the clamped tap range).
void tap_rows(const float* src, std::size_t stride, const float* taps,
              int ntaps, int n, float* out) {
  int x = 0;
  for (; x + kBlock <= n; x += kBlock) {
    Quad lo = {};
    Quad hi = {};
    const float* p = src + x;
    for (int j = 0; j < ntaps; ++j, p += stride) {
      Quad a;
      Quad b;
      std::memcpy(&a, p, sizeof a);
      std::memcpy(&b, p + 4, sizeof b);
      lo += a * taps[j];
      hi += b * taps[j];
    }
    std::memcpy(out + x, &lo, sizeof lo);
    std::memcpy(out + x + 4, &hi, sizeof hi);
  }
  for (; x < n; ++x) {
    float acc = 0;
    const float* p = src + x;
    for (int j = 0; j < ntaps; ++j, p += stride) acc += *p * taps[j];
    out[x] = acc;
  }
}

}  // namespace

namespace detail {

Raster convolve_separable(Raster img, const std::vector<float>& taps,
                          ThreadPool* pool) {
  TELEM_SPAN_ARG("litho/convolve", static_cast<std::uint64_t>(img.nx) *
                                       static_cast<std::uint64_t>(img.ny));
  const int ntaps = static_cast<int>(taps.size());
  const int radius = ntaps / 2;
  const int nx = img.nx;
  const int ny = img.ny;
  const std::size_t snx = static_cast<std::size_t>(nx);
  const auto rows = [&](const std::function<void(int)>& row_fn) {
    if (pool != nullptr && pool->concurrency() > 1 && ny > 1) {
      pool->parallel_for(static_cast<std::size_t>(ny), [&](std::size_t y) {
        row_fn(static_cast<int>(y));
      });
    } else {
      for (int y = 0; y < ny; ++y) row_fn(y);
    }
  };
  std::vector<float> tmp(img.values.size());
  // Horizontal pass: each row is copied between `radius` zeros, so every
  // output pixel runs all taps; the border products are exact +0 terms.
  rows([&](int y) {
    std::vector<float> padded(snx + 2 * static_cast<std::size_t>(radius));
    const float* row = img.values.data() + static_cast<std::size_t>(y) * snx;
    std::copy(row, row + nx, padded.begin() + radius);
    tap_rows(padded.data(), 1, taps.data(), ntaps, nx,
             tmp.data() + static_cast<std::size_t>(y) * snx);
  });
  // Vertical pass: the in-raster taps [k0, k1) are fixed per output row,
  // and 8 lanes read 8 adjacent pixels of each source row. The input is
  // dead by now, so the result overwrites it.
  rows([&](int y) {
    const int k0 = std::max(0, radius - y);
    const int k1 = std::min(ntaps, ny + radius - y);
    tap_rows(tmp.data() + static_cast<std::size_t>(y + k0 - radius) * snx,
             snx, taps.data() + k0, k1 - k0, nx,
             img.values.data() + static_cast<std::size_t>(y) * snx);
  });
  return img;
}

}  // namespace detail

Raster aerial_image(const Region& mask, const Rect& window,
                    const OpticalModel& model, Coord defocus,
                    ThreadPool* pool) {
  // Pad the window by the kernel reach so features just outside still
  // contribute, then crop back. The taps come from the unrounded
  // effective sigma; at defocus 0 it equals `sigma` exactly, so the
  // best-focus image is unchanged from the historical rounded form.
  const double s = model.sigma_at_nm(defocus);
  const Coord pad = static_cast<Coord>(std::ceil(3.0 * s)) + model.px;
  const Rect padded = window.expanded(pad);
  Raster img;
  {
    TELEM_SPAN("litho/raster");
    img = rasterize(mask, padded, model.px, pool);
  }
  const double sigma_px = s / static_cast<double>(model.px);
  img = detail::convolve_separable(std::move(img),
                                   detail::gaussian_taps(sigma_px), pool);

  // Crop to the requested window.
  Raster out;
  out.window = window;
  out.px = model.px;
  const int off = static_cast<int>(pad / model.px);
  out.nx = static_cast<int>((window.width() + model.px - 1) / model.px);
  out.ny = static_cast<int>((window.height() + model.px - 1) / model.px);
  out.values.resize(static_cast<std::size_t>(out.nx) *
                    static_cast<std::size_t>(out.ny));
  for (int y = 0; y < out.ny; ++y) {
    for (int x = 0; x < out.nx; ++x) {
      out.at(x, y) = img.at(x + off, y + off);
    }
  }
  return out;
}

Region printed_region(const Raster& aerial, const OpticalModel& model,
                      const ProcessCondition& cond) {
  Region out;
  const double th = model.threshold / cond.dose;
  // Row-run compression: adjacent printing pixels form one rect per run.
  for (int y = 0; y < aerial.ny; ++y) {
    int run_start = -1;
    for (int x = 0; x <= aerial.nx; ++x) {
      const bool on = x < aerial.nx && aerial.at(x, y) >= th;
      if (on && run_start < 0) {
        run_start = x;
      } else if (!on && run_start >= 0) {
        const Coord x0 = aerial.window.lo.x + run_start * aerial.px;
        const Coord x1 = aerial.window.lo.x + x * aerial.px;
        const Coord y0 = aerial.window.lo.y + y * aerial.px;
        out.add(Rect{x0, y0, std::min(x1, aerial.window.hi.x),
                     std::min(y0 + aerial.px, aerial.window.hi.y)});
        run_start = -1;
      }
    }
  }
  return out;
}

Region simulate_print(const Region& mask, const Rect& window,
                      const OpticalModel& model, const ProcessCondition& cond,
                      ThreadPool* pool) {
  return printed_region(aerial_image(mask, window, model, cond.defocus, pool),
                        model, cond);
}

}  // namespace dfm
