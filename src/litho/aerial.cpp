#include "litho/fft.h"
#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include "core/parallel.h"
#include "core/telemetry.h"

#include <algorithm>
#include <cmath>

namespace dfm {

const char* litho_fast_name(LithoFastMode mode) {
  switch (mode) {
    case LithoFastMode::kFft:
      return "fft";
    case LithoFastMode::kDirect:
      return "direct";
    case LithoFastMode::kOff:
      return "off";
    case LithoFastMode::kAuto:
      break;
  }
  return "auto";
}

std::optional<LithoFastMode> parse_litho_fast(std::string_view name) {
  for (const LithoFastMode m : {LithoFastMode::kAuto, LithoFastMode::kFft,
                                LithoFastMode::kDirect, LithoFastMode::kOff}) {
    if (name == litho_fast_name(m)) return m;
  }
  return std::nullopt;
}

namespace {

// Separable convolution with clamp-to-zero borders (dark field). Every
// output pixel depends only on the input raster, so both passes schedule
// rows independently onto the pool with bit-identical results.
Raster convolve(const Raster& in, const std::vector<float>& taps,
                ThreadPool* pool) {
  TELEM_SPAN_ARG("litho/convolve", static_cast<std::uint64_t>(in.nx) *
                                       static_cast<std::uint64_t>(in.ny));
  const int radius = static_cast<int>(taps.size() / 2);
  const auto rows = [&](int ny, const std::function<void(int)>& row_fn) {
    if (pool != nullptr && pool->concurrency() > 1 && ny > 1) {
      pool->parallel_for(static_cast<std::size_t>(ny), [&](std::size_t y) {
        row_fn(static_cast<int>(y));
      });
    } else {
      for (int y = 0; y < ny; ++y) row_fn(y);
    }
  };
  Raster tmp = in;
  // Horizontal pass.
  rows(in.ny, [&](int y) {
    for (int x = 0; x < in.nx; ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        const int xx = x + k;
        if (xx < 0 || xx >= in.nx) continue;
        acc += in.at(xx, y) * taps[static_cast<std::size_t>(k + radius)];
      }
      tmp.at(x, y) = acc;
    }
  });
  // Vertical pass.
  Raster out = tmp;
  rows(in.ny, [&](int y) {
    for (int x = 0; x < in.nx; ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        const int yy = y + k;
        if (yy < 0 || yy >= in.ny) continue;
        acc += tmp.at(x, yy) * taps[static_cast<std::size_t>(k + radius)];
      }
      out.at(x, y) = acc;
    }
  });
  return out;
}

}  // namespace

Raster aerial_image_ex(const Region& mask, const Rect& window,
                       const OpticalModel& model, Coord defocus,
                       ThreadPool* pool, LithoFastMode mode,
                       KernelSpectrumCache* kernels) {
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
  const std::vector<float> taps = detail::gaussian_taps(sigma_px);
  const bool use_fft =
      mode == LithoFastMode::kFft ||
      (mode == LithoFastMode::kAuto &&
       fftconv::fft_beats_direct(taps.size(), img.nx, img.ny));
  img = use_fft ? fftconv::fft_convolve_separable(img, taps, kernels, pool)
                : convolve(img, taps, pool);

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

Raster aerial_image(const Region& mask, const Rect& window,
                    const OpticalModel& model, Coord defocus,
                    ThreadPool* pool) {
  return aerial_image_ex(mask, window, model, defocus, pool,
                         LithoFastMode::kOff);
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

Region simulate_print_ex(const Region& mask, const Rect& window,
                         const OpticalModel& model,
                         const ProcessCondition& cond, ThreadPool* pool,
                         LithoFastMode mode, KernelSpectrumCache* kernels) {
  return printed_region(
      aerial_image_ex(mask, window, model, cond.defocus, pool, mode, kernels),
      model, cond);
}

}  // namespace dfm
