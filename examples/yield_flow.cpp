// Defect-limited yield flow: critical area analysis of a routed design,
// redundant via insertion, and the before/after yield estimate.
#include "core/report.h"
#include "gen/generators.h"
#include "core/snapshot.h"
#include "yield/yield.h"

#include <cstdio>
#include <vector>

int main() {
  using namespace dfm;
  DesignParams p;
  p.seed = 9;
  p.rows = 3;
  p.cells_per_row = 8;
  p.routes = 25;
  p.via_fields = 2;
  p.vias_per_field = 48;
  const Library lib = generate_design(p);
  const auto top = lib.top_cells()[0];

  LayerMap layers;
  for (const LayerKey k : {layers::kMetal1, layers::kMetal2, layers::kVia1}) {
    layers.emplace(k, lib.flatten(top, k));
  }

  DefectModel defects;
  defects.d0 = 200;  // defects per cm^2, exaggerated for a small block

  Table caa("critical area vs defect size (Metal 2)");
  caa.set_header({"defect nm", "short CA um^2", "open CA um^2"});
  const Region& m2 = layers.at(layers::kMetal2);
  const std::vector<Region> m2_nets = short_nets(m2);
  for (const Coord s : {60, 100, 150, 250, 400, 700}) {
    caa.add_row({std::to_string(s),
                 Table::num(static_cast<double>(short_critical_area(m2_nets, s)) / 1e6),
                 Table::num(static_cast<double>(open_critical_area(m2, s)) / 1e6)});
  }
  caa.print();

  const double lam = layer_lambda(m2, defects, true) +
                     layer_lambda(m2, defects, false);
  std::printf("\nMetal-2 defect lambda = %.3e -> Poisson yield %.4f\n", lam,
              poisson_yield(lam));

  const ViaDoublingResult vd = double_vias(LayoutSnapshot(layers), p.tech);
  const double f = 5e-4;
  const double y_before = via_yield(vd.singles_before, 0, f);
  const double y_after =
      via_yield(vd.singles_before - vd.inserted, vd.inserted, f);
  std::printf(
      "redundant vias: %d of %d singles doubled (%d blocked)\n"
      "via yield @f=%.0e: %.4f -> %.4f\n",
      vd.inserted, vd.singles_before, vd.blocked, f, y_before, y_after);
  return 0;
}
