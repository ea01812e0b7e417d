#include "shard/plan.h"

#include <algorithm>
#include <cstdlib>

namespace dfm::shard {

Coord shard_halo(const Tech& tech, Coord litho_tile, Coord sigma) {
  const Coord litho = litho_tile / 2 + 6 * sigma;
  const Coord pattern = std::max<Coord>(
      8 * tech.m1_width, 2 * (tech.via_size + tech.via_enclosure_end));
  const Coord drc = 4 * std::max({tech.wide_width, tech.m1_width,
                                  tech.m2_width, tech.poly_width});
  return std::max({litho, pattern, drc}) + 64;
}

int ShardPlan::owner(const Point& p) const {
  if (p.x < extent.lo.x || p.x >= extent.hi.x || p.y < extent.lo.y ||
      p.y >= extent.hi.y) {
    return -1;
  }
  // Cores are an integer split of the extent; scan the row/column edges
  // (nx + ny steps, not nx * ny).
  int ix = 0, iy = 0;
  while (ix + 1 < nx && p.x >= cores[static_cast<std::size_t>(ix) + 1].lo.x) {
    ++ix;
  }
  while (iy + 1 < ny &&
         p.y >= cores[static_cast<std::size_t>(iy + 1) *
                      static_cast<std::size_t>(nx)].lo.y) {
    ++iy;
  }
  return iy * nx + ix;
}

std::vector<std::size_t> ShardPlan::windows_overlapping(const Rect& r) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].overlaps(r)) out.push_back(i);
  }
  return out;
}

ShardPlan ShardPlan::make(const Rect& bbox, int shards, Coord halo) {
  ShardPlan plan;
  plan.extent = bbox;
  plan.halo = halo;
  const int n = std::max(shards, 1);
  const Coord w = bbox.hi.x - bbox.lo.x;
  const Coord h = bbox.hi.y - bbox.lo.y;
  // Pick the divisor pair nx * ny == n whose cell shape best matches the
  // bbox aspect: minimize |w/nx - h/ny| in exact integer arithmetic
  // (compare w*ny vs h*nx cross-multiplied).
  plan.nx = n;
  plan.ny = 1;
  long long best = -1;
  for (int nx = 1; nx <= n; ++nx) {
    if (n % nx != 0) continue;
    const int ny = n / nx;
    const long long diff =
        std::llabs(static_cast<long long>(w) * ny -
                   static_cast<long long>(h) * nx);
    if (best < 0 || diff < best) {
      best = diff;
      plan.nx = nx;
      plan.ny = ny;
    }
  }
  const auto split = [](Coord lo, Coord hi, int parts, int i) {
    const Coord len = hi - lo;
    return lo + (len * i) / parts;
  };
  for (int iy = 0; iy < plan.ny; ++iy) {
    for (int ix = 0; ix < plan.nx; ++ix) {
      const Rect core{split(bbox.lo.x, bbox.hi.x, plan.nx, ix),
                      split(bbox.lo.y, bbox.hi.y, plan.ny, iy),
                      split(bbox.lo.x, bbox.hi.x, plan.nx, ix + 1),
                      split(bbox.lo.y, bbox.hi.y, plan.ny, iy + 1)};
      plan.cores.push_back(core);
      plan.windows.push_back(core.expanded(halo));
    }
  }
  return plan;
}

int route_litho_tile(const ShardPlan& plan, const Rect& tile_core,
                     Coord sigma) {
  const Rect needed = tile_core.expanded(6 * sigma);
  const int own = plan.owner(tile_core.center());
  if (own >= 0 &&
      plan.windows[static_cast<std::size_t>(own)].contains(needed)) {
    return own;
  }
  // Center-routing can miss only when the plan's halo is undersized for
  // this tile grid (e.g. a changed litho_tile); any covering window is
  // equally correct, so take the first.
  for (std::size_t i = 0; i < plan.windows.size(); ++i) {
    if (plan.windows[i].contains(needed)) return static_cast<int>(i);
  }
  return -1;
}

int route_pattern_site(const ShardPlan& plan, const AnchorWindow& site) {
  const int own = plan.owner(site.anchor);
  if (own < 0) return -1;
  if (!plan.windows[static_cast<std::size_t>(own)].contains(site.window)) {
    return -1;
  }
  return own;
}

}  // namespace dfm::shard
