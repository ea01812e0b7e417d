#include "inputs.h"

#include "core/parallel.h"
#include "gdsii/gdsii.h"
#include "gen/generators.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using dfm::Coord;
using dfm::DesignParams;
using dfm::Library;
using dfm::Rect;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over seed and salt.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint32_t top_of(const Library& lib) {
  const auto tops = lib.top_cells();
  if (tops.empty()) throw std::runtime_error("generated library has no top");
  return tops.front();
}

namespace {

/// generate_design with cells added to each row until the top cell is at
/// least `min_width` wide. Seeded cell variants differ in width, and a
/// design one litho tile narrower than its siblings costs a third less;
/// pinning the width keeps every seed's tile count and cost alike.
Library generate_wide(DesignParams p, Coord min_width) {
  for (;; ++p.cells_per_row) {
    Library lib = dfm::generate_design(p);
    if (lib.bbox(top_of(lib)).width() >= min_width) return lib;
  }
}

}  // namespace

Library signoff_design(std::uint64_t seed, int index) {
  DesignParams p;
  p.seed = mix_seed(seed, 0x100 + static_cast<std::uint64_t>(index));
  p.name = "signoff" + std::to_string(index);
  p.rows = 1;
  p.cells_per_row = 48;
  p.routes = 24;
  p.via_fields = 1;
  return generate_wide(p, 44000);
}

Library eco_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = mix_seed(seed, 0x200);
  p.name = "eco";
  p.rows = 4;
  p.cells_per_row = 22;
  p.routes = 50;
  p.via_fields = 2;
  return generate_wide(p, 24000);
}

Library fix_design(std::uint64_t seed) {
  // The routed block is the same for every workload seed: generator
  // seed 7 with bench_f5's rows, cells and routes, but its own via field
  // (one field of 16 vias, not bench_f5's two of 64) and pathology strip
  // (16 um tall, not bench_f5's 56 um). A block's fill and
  // spread candidates are what make one block's loop cost differ from
  // another's (1.1 s to 2.6 s across ten seeded blocks on a 4-core
  // host). The seed drives the injected pathologies.
  DesignParams p;
  p.seed = 7;
  p.name = "fix";
  p.rows = 2;
  p.cells_per_row = 8;
  p.routes = 16;
  p.via_fields = 1;
  p.vias_per_field = 16;
  Library lib = dfm::generate_design(p);
  const std::uint32_t top = top_of(lib);
  // The pathologies sit in a strip below the core, placed as bench_f5
  // places its own (4 um gap), but smaller.
  dfm::Rng rng(mix_seed(seed, 0x300));
  const Rect core = lib.bbox(top);
  const Rect strip{core.lo.x, core.lo.y - 20000, core.hi.x + 20000,
                   core.lo.y - 4000};
  dfm::inject_pathologies(lib.cell(top), rng, p.tech, strip, 10);
  return lib;
}

std::vector<std::string> write_inputs(const std::string& workload,
                                      std::uint64_t seed,
                                      const std::string& dir) {
  std::vector<std::string> paths;
  const auto write = [&](const Library& lib, const std::string& name) {
    paths.push_back(dir + "/" + name);
    dfm::write_gdsii_file(lib, paths.back());
  };
  if (workload == "signoff_cold") {
    for (int i = 0; i < kSignoffPool; ++i) {
      write(signoff_design(seed, i), "signoff" + std::to_string(i) + ".gds");
    }
  } else if (workload == "sharded_cold") {
    write(signoff_design(seed, 0), "sharded.gds");
  } else if (workload == "eco_served") {
    write(eco_design(seed), "eco.gds");
  } else if (workload == "fix_loop") {
    write(fix_design(seed), "fix.gds");
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  return paths;
}

std::vector<std::vector<Rect>> eco_patch_sites(const dfm::LayoutSnapshot& snap,
                                               Coord tile, Coord edge,
                                               std::size_t count) {
  const dfm::Region& m1 = snap.layer(dfm::layers::kMetal1).region();
  const Rect bb = snap.bbox();
  const dfm::Point c{(bb.lo.x + bb.hi.x) / 2, (bb.lo.y + bb.hi.y) / 2};
  std::vector<Rect> tiles = dfm::make_tiles(bb, tile);
  const auto dist = [&](const Rect& t) {
    const Coord dx = (t.lo.x + t.hi.x) / 2 - c.x;
    const Coord dy = (t.lo.y + t.hi.y) / 2 - c.y;
    return dx * dx + dy * dy;
  };
  std::stable_sort(tiles.begin(), tiles.end(),
                   [&](const Rect& a, const Rect& b) { return dist(a) < dist(b); });
  std::vector<std::vector<Rect>> sites;
  for (const Rect& t : tiles) {
    if (sites.size() == count) break;
    // Centered in a full tile core: far from the optical halo of every
    // neighbour, so the edit dirties exactly one litho tile.
    if (t.width() < tile || t.height() < tile) continue;
    const Coord x = (t.lo.x + t.hi.x - edge) / 2;
    const Coord y = (t.lo.y + t.hi.y - edge) / 2;
    const dfm::Region piece = dfm::Region(Rect{x, y, x + edge, y + edge}) - m1;
    if (!piece.empty()) sites.push_back(piece.rects());
  }
  if (sites.size() < count) {
    throw std::runtime_error("design has too few full litho tiles for the "
                             "ECO patch sites");
  }
  return sites;
}

}  // namespace perfbench
