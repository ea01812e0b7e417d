#include "yield/yield.h"

#include "core/telemetry.h"
#include "gen/rng.h"

#include <map>
#include <stdexcept>
#include <string>

namespace dfm {

std::vector<Region> short_nets(const Region& layer) {
  TELEM_SPAN("caa/nets");
  // A square defect of side s centered at p touches a net iff p lies in
  // the net bloated by s/2 (Chebyshev). Work on the doubled grid so odd
  // sizes stay exact.
  std::vector<Region> nets = layer.scaled(2).components();
  for (const Region& net : nets) net.rects();  // normalize before sharing
  return nets;
}

std::vector<Region> short_nets(const std::vector<Region>& pieces,
                               const std::vector<int>& net_of) {
  if (pieces.size() != net_of.size()) {
    throw std::invalid_argument(
        "short_nets: " + std::to_string(pieces.size()) + " pieces but " +
        std::to_string(net_of.size()) + " net labels");
  }
  TELEM_SPAN("caa/nets");
  std::map<int, Region> by_label;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    by_label[net_of[i]].add(pieces[i]);
  }
  std::vector<Region> nets;
  nets.reserve(by_label.size());
  for (const auto& [label, net] : by_label) {
    nets.push_back(net.scaled(2));
    nets.back().rects();  // normalize before sharing
  }
  return nets;
}

Area short_critical_area(const std::vector<Region>& nets, Coord s) {
  // A lone net cannot short: its bloat is covered once everywhere.
  if (s <= 0 || nets.size() < 2) return 0;
  TELEM_SPAN_ARG("caa/short", static_cast<std::uint64_t>(s));
  // A defect at p shorts iff it touches two or more distinct nets, i.e. p
  // is covered by >= 2 bloated nets.
  std::vector<Rect> bloated;
  for (const Region& net : nets) {
    const Region grown = net.bloated(s);  // s == 2 * (s/2) on the 2x grid
    for (const Rect& r : grown.rects()) bloated.push_back(r);
  }
  return covered_at_least(bloated, 2).area() / 4;  // back to 1x area
}

Area open_critical_area(const Region& layer, Coord s) {
  if (s <= 0 || layer.empty()) return 0;
  TELEM_SPAN_ARG("caa/open", static_cast<std::uint64_t>(s));
  // Band approximation: each canonical rect of cross-section h (its
  // shorter side) can be severed by defects spanning that side; centers
  // form a strip of (s - h) x length. Junction effects are ignored.
  Area total = 0;
  for (const Rect& band : layer.rects()) {
    const Coord w = band.width();
    const Coord h = band.height();
    if (s > h && w >= h) {
      total += static_cast<Area>(s - h) * w;
    } else if (s > w && h > w) {
      total += static_cast<Area>(s - w) * h;
    }
  }
  return total;
}

Area open_critical_area_mc(const Region& layer, Coord s, int samples,
                           std::uint64_t seed) {
  if (s <= 0 || layer.empty() || samples <= 0) return 0;
  const Rect bb = layer.bbox().expanded(s);
  Rng rng(seed);
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    const Point p{rng.uniform(bb.lo.x, bb.hi.x), rng.uniform(bb.lo.y, bb.hi.y)};
    const Rect defect{p.x - s / 2, p.y - s / 2, p.x + (s + 1) / 2,
                      p.y + (s + 1) / 2};
    // Local connectivity test: removal of the defect square must increase
    // the component count (or erase a component) inside a window.
    const Rect window = defect.expanded(4 * s);
    const Region local = layer.clipped(window);
    if (local.empty()) continue;
    const std::size_t before = local.components().size();
    const Region after = local - Region{defect};
    const std::size_t after_n = after.components().size();
    if (after_n > before || (after_n < before && !after.empty()) ||
        (after.empty() && before > 0)) {
      ++hits;
    }
  }
  return static_cast<Area>(static_cast<double>(hits) / samples *
                           static_cast<double>(bb.area()));
}

}  // namespace dfm
