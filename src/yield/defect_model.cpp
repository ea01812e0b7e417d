#include "yield/yield.h"

#include "core/parallel.h"
#include "geometry/normalized_region.h"

#include <cmath>

namespace dfm {

double DefectModel::pdf(Coord s) const {
  if (s < x0 || s > xmax) return 0.0;
  // Normalization of s^-k on [x0, xmax].
  const double k = exponent;
  const double a = static_cast<double>(x0);
  const double b = static_cast<double>(xmax);
  double norm;
  if (k == 1.0) {
    norm = std::log(b / a);
  } else {
    norm = (std::pow(a, 1 - k) - std::pow(b, 1 - k)) / (k - 1);
  }
  return std::pow(static_cast<double>(s), -k) / norm;
}

double average_critical_area(const std::function<Area(Coord)>& ca,
                             const DefectModel& model, int steps,
                             ThreadPool* pool) {
  // Geometric size grid from x0 to xmax; trapezoidal integration of
  // ca(s) * pdf(s).
  const double a = static_cast<double>(model.x0);
  const double b = static_cast<double>(model.xmax);
  if (steps < 2 || b <= a) return 0.0;
  const double ratio = std::pow(b / a, 1.0 / (steps - 1));
  std::vector<double> grid(static_cast<std::size_t>(steps));
  std::vector<Coord> sizes(grid.size());
  grid[0] = a;
  sizes[0] = model.x0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    grid[i] = grid[i - 1] * ratio;
    sizes[i] = static_cast<Coord>(std::llround(grid[i]));
  }
  // Every per-size area is an exact integer, so evaluating the sizes
  // concurrently cannot change a bit; the sum below runs in grid order.
  const std::vector<Area> areas = parallel_map(
      pool, sizes.size(), [&](std::size_t i) { return ca(sizes[i]); });
  double prev_v = static_cast<double>(areas[0]) * model.pdf(sizes[0]);
  double acc = 0.0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double v = static_cast<double>(areas[i]) * model.pdf(sizes[i]);
    acc += 0.5 * (prev_v + v) * (grid[i] - grid[i - 1]);
    prev_v = v;
  }
  return acc;
}

double poisson_yield(double lambda) { return std::exp(-lambda); }

double negative_binomial_yield(double lambda, double alpha) {
  return std::pow(1.0 + lambda / alpha, -alpha);
}

namespace {

double lambda_from_eca(double eca_nm2, const DefectModel& model) {
  // nm^2 -> cm^2: 1 cm = 1e7 nm.
  const double eca_cm2 = eca_nm2 / 1e14;
  return model.d0 * eca_cm2;
}

}  // namespace

double short_lambda(const std::vector<Region>& nets, const DefectModel& model,
                    int steps, ThreadPool* pool) {
  const auto ca = [&nets](Coord s) { return short_critical_area(nets, s); };
  return lambda_from_eca(average_critical_area(ca, model, steps, pool), model);
}

double layer_lambda(const Region& layer, const DefectModel& model, bool shorts,
                    int steps, ThreadPool* pool) {
  if (shorts) return short_lambda(short_nets(layer), model, steps, pool);
  const NormalizedRegion view = layer;  // shared read-only by the sweep
  const auto ca = [view](Coord s) { return open_critical_area(view, s); };
  return lambda_from_eca(average_critical_area(ca, model, steps, pool), model);
}

}  // namespace dfm
