// Prefilter safety suite: the conservative prefilter's one obligation is
// that a skipped tile can NEVER contain an owned hotspot at any process
// condition in the calibrated window. This suite discharges it
// empirically: over a thousand seeded random / strap / pathological
// tiles, every tile the prefilter skips is re-run through the exhaustive
// simulation at every window corner (plus nominal) and asserted
// hotspot-free, and the just-safe / just-unsafe boundary geometry around
// each calibrated threshold is pinned.
#include "litho/prefilter.h"

#include "core/hotspot_flow.h"
#include "core/parallel.h"
#include "core/snapshot.h"
#include "gen/generators.h"
#include "gen/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace dfm {
namespace {

constexpr Coord kTol = 12;

OpticalModel model() {
  OpticalModel m;
  m.sigma = 25;
  m.px = 5;
  return m;
}

PrefilterCalibration cal() {
  return prefilter_calibration(model(), kTol, default_process_window());
}

// Replicates simulate_tile's exact semantics (6-sigma halo window,
// target clipped to the half-halo zone, marker-center ownership) at an
// arbitrary process condition — the exhaustive oracle a skip decision is
// judged against.
std::vector<Hotspot> owned_hotspots(const Region& layer, const Rect& core,
                                    const ProcessCondition& cond,
                                    ThreadPool* pool) {
  const OpticalModel m = model();
  const Coord margin = 6 * m.sigma;
  const Rect window = core.expanded(margin);
  const Region clip = layer.clipped(window);
  if (clip.empty()) return {};
  const Region printed = simulate_print(clip, window, m, cond, pool);
  std::vector<Hotspot> out;
  for (const Hotspot& h : find_hotspots(
           clip.clipped(core.expanded(margin / 2)), printed, kTol)) {
    if (core.contains(h.marker.center())) out.push_back(h);
  }
  return out;
}

// All conditions the default window guards: its corners plus nominal
// (the condition the tiled flow actually simulates).
std::vector<ProcessCondition> guarded_conditions() {
  std::vector<ProcessCondition> conds = default_process_window();
  conds.push_back(ProcessCondition{});
  return conds;
}

// Asserts the prefilter would skip `layer`'s tile and that the skip is
// sound at every guarded condition.
void expect_skips_and_clean(const Region& layer, const Rect& core,
                            ThreadPool* pool, const std::string& what) {
  const PrefilterCalibration c = cal();
  const Coord margin = 6 * model().sigma;
  const Rect window = core.expanded(margin);
  const Region clip = layer.clipped(window);
  const TileFeatures f =
      tile_features(clip, window, c, core.expanded(margin / 2));
  ASSERT_TRUE(prefilter_safe(f, c)) << what;
  for (const ProcessCondition& cond : guarded_conditions()) {
    const auto spots = owned_hotspots(layer, core, cond, pool);
    EXPECT_TRUE(spots.empty())
        << what << ": " << spots.size() << " hotspot(s) at dose=" << cond.dose
        << " defocus=" << cond.defocus;
  }
}

// ---- Calibration sanity ---------------------------------------------------

TEST(PrefilterCalibration, ValidAndOrderedForNominalOptics) {
  const PrefilterCalibration c = cal();
  ASSERT_TRUE(c.valid);
  // A safe dimension must at least clear the tolerance erosion on both
  // sides, and the gap thresholds must leave a non-empty risky band.
  EXPECT_GT(c.safe_min_dim, 2 * kTol);
  EXPECT_GT(c.safe_min_gap, c.small_gap_max);
  // Gaps the tolerance bloat provably covers: 2*tol minus a pixel of
  // quantization slack per side.
  EXPECT_EQ(c.small_gap_max, 2 * kTol - 2 * model().px);
}

TEST(PrefilterCalibration, SoftOpticsAreUnprovable) {
  // sigma 200nm against a 12nm tolerance: the two-plate bleed alone
  // exceeds the tolerance, so no geometry is provably safe and the
  // calibration must refuse to validate rather than guess.
  OpticalModel soft = model();
  soft.sigma = 200;
  const PrefilterCalibration c =
      calibrate_prefilter(soft, kTol, default_process_window());
  EXPECT_FALSE(c.valid);
  TileFeatures f;
  f.rect_count = 1;
  f.min_dim = 100000;  // arbitrarily fat: still must not skip
  EXPECT_FALSE(prefilter_safe(f, c));
}

TEST(PrefilterCalibration, MemoizedFormMatchesDirect) {
  const PrefilterCalibration direct =
      calibrate_prefilter(model(), kTol, default_process_window());
  const PrefilterCalibration memo = cal();
  EXPECT_EQ(direct.valid, memo.valid);
  EXPECT_EQ(direct.safe_min_dim, memo.safe_min_dim);
  EXPECT_EQ(direct.safe_min_gap, memo.safe_min_gap);
  EXPECT_EQ(direct.small_gap_max, memo.small_gap_max);
}

// ---- Boundary pins --------------------------------------------------------

class PrefilterBoundary : public ::testing::Test {
 protected:
  const Rect core{0, 0, 1000, 1000};
  const Rect window = core.expanded(150);  // 6 * sigma(25)
  const Rect zone = core.expanded(75);     // target zone: half the halo
  const PrefilterCalibration c = cal();
  ThreadPool pool{0};

  TileFeatures features(const Region& r) {
    return tile_features(r.clipped(window), window, c, zone);
  }
};

TEST_F(PrefilterBoundary, JustSafeSquareSkipsAndIsClean) {
  ASSERT_TRUE(c.valid);
  Region r;
  r.add(Rect{300, 300, 300 + c.safe_min_dim, 300 + c.safe_min_dim});
  EXPECT_TRUE(prefilter_safe(features(r), c));
  expect_skips_and_clean(r, core, &pool, "square at safe_min_dim");
}

TEST_F(PrefilterBoundary, JustUnsafeSquareIsSimulated) {
  Region r;
  const Coord s = c.safe_min_dim - 1;
  r.add(Rect{300, 300, 300 + s, 300 + s});
  const TileFeatures f = features(r);
  EXPECT_EQ(f.min_dim, s);
  EXPECT_FALSE(prefilter_safe(f, c));
}

TEST_F(PrefilterBoundary, ThinRectIsSimulated) {
  Region r;
  r.add(Rect{300, 100, 350, 900});  // min-width wire: the pinch substrate
  EXPECT_FALSE(prefilter_safe(features(r), c));
}

TEST_F(PrefilterBoundary, WideGapSkipsAndIsClean) {
  Region r;
  const Coord w = c.safe_min_dim + 100;
  r.add(Rect{100, 100, 100 + w, 900});
  r.add(Rect{100 + w + c.safe_min_gap, 100, 100 + 2 * w + c.safe_min_gap, 900});
  const TileFeatures f = features(r);
  EXPECT_EQ(f.min_gap, c.safe_min_gap);
  EXPECT_TRUE(prefilter_safe(f, c));
  expect_skips_and_clean(r, core, &pool, "pair at safe_min_gap");
}

TEST_F(PrefilterBoundary, RiskyGapIsSimulated) {
  // One step inside the provable band on either side flips the decision.
  for (const Coord g : {c.small_gap_max + 1, c.safe_min_gap - 1}) {
    Region r;
    const Coord w = c.safe_min_dim + 100;
    r.add(Rect{100, 100, 100 + w, 900});
    r.add(Rect{100 + w + g, 100, 100 + 2 * w + g, 900});
    const TileFeatures f = features(r);
    EXPECT_TRUE(f.risky_gap) << "gap " << g;
    EXPECT_FALSE(prefilter_safe(f, c)) << "gap " << g;
  }
}

TEST_F(PrefilterBoundary, BloatCoveredGapSkipsAndIsClean) {
  // A gap at most 2*tol - 2px sits entirely inside the tolerance bloat:
  // bridging there is forgiven by construction, so the pair may skip.
  Region r;
  const Coord w = c.safe_min_dim + 100;
  const Coord g = c.small_gap_max;
  ASSERT_GT(g, 0);
  r.add(Rect{100, 100, 100 + w, 900});
  r.add(Rect{100 + w + g, 100, 100 + 2 * w + g, 900});
  EXPECT_TRUE(prefilter_safe(features(r), c));
  expect_skips_and_clean(r, core, &pool, "pair at small_gap_max");
}

TEST_F(PrefilterBoundary, TouchingPairIsSimulated) {
  // Abutting rects form a merged union whose step corners the
  // single-rect bound does not cover: never skip them.
  Region r;
  const Coord w = c.safe_min_dim + 100;
  r.add(Rect{100, 100, 100 + w, 900});
  r.add(Rect{100 + w, 400, 100 + 2 * w, 1200});
  const TileFeatures f = features(r);
  EXPECT_FALSE(prefilter_safe(f, c));
}

TEST_F(PrefilterBoundary, OverflowingTileIsSimulated) {
  // A 2x2 grid of individually-safe squares, all inside the window, but
  // one more rect than the analysis cap: the features must report
  // overflow rather than silently analysing a truncated tile.
  Region r;
  const Coord s = c.safe_min_dim;
  for (Coord i = 0; i < 2; ++i) {
    for (Coord j = 0; j < 2; ++j) {
      r.add(Rect{200 + i * (s + 400), 200 + j * (s + 400),
                 200 + i * (s + 400) + s, 200 + j * (s + 400) + s});
    }
  }
  const TileFeatures f = tile_features(r.clipped(window), window, c, zone,
                                       /*max_rects=*/3);
  EXPECT_TRUE(f.overflow);
  EXPECT_FALSE(prefilter_safe(f, c));
}

// ---- Exhaustive randomized safety sweep -----------------------------------

// Tile generators. Kind 0 builds skip-heavy fat-strap tiles (every strap
// clears safe_min_dim, every gap clears safe_min_gap); kind 1 poisons a
// strap tile with one thin strap or risky gap; kind 2 is the random rect
// soup the litho property tests use; kind 3 flattens injected
// pathological constructs (pinch / bridge / notch / spacing) — labelled
// weak geometry the prefilter must hand to the simulator.
Region straps_tile(Rng& rng, const Rect& window, const Rect& zone,
                   const PrefilterCalibration& c) {
  // Full-height straps whose side edges keep clear of the target-zone
  // corner columns: straps crossing the zone's top/bottom edges are
  // fine (their boundary print artifacts stay outside the core), but a
  // strap edge near a zone corner would wrap it (corner_wrap) and be
  // handed to the simulator — which is correct, just not a skip.
  Region r;
  const Coord w = c.safe_min_dim + rng.uniform(0, 150);
  const Coord g = c.safe_min_gap + rng.uniform(0, 200);
  const Coord clear = 2 * c.edge_tolerance + 2;
  const Coord xmin = zone.lo.x + clear;
  const Coord xmax = zone.hi.x - clear;
  Coord x = xmin + rng.uniform(0, g);
  while (x + w <= xmax) {
    r.add(Rect{x, window.lo.y, x + w, window.hi.y});
    x += w + g;
  }
  return r;
}

Region poisoned_straps_tile(Rng& rng, const Rect& window, const Rect& zone,
                            const PrefilterCalibration& c) {
  Region r = straps_tile(rng, window, zone, c);
  if (rng.chance(0.5)) {
    // A thin strap threaded through the middle.
    const Coord w = rng.uniform(20, c.safe_min_dim - 1);
    const Coord x = window.lo.x + rng.uniform(0, 200);
    r.add(Rect{x, window.lo.y, x + w, window.hi.y});
  } else {
    // A fat island at a risky gap from everything near it.
    const Coord g = c.small_gap_max + 1 +
                    rng.uniform(0, c.safe_min_gap - c.small_gap_max - 2);
    const Rect b = r.bbox();
    r.add(Rect{b.hi.x + g, window.lo.y, b.hi.x + g + c.safe_min_dim,
               window.hi.y});
  }
  return r;
}

Region random_rect_tile(Rng& rng, const Rect& within) {
  Region r;
  const int shapes = static_cast<int>(rng.uniform(1, 10));
  for (int i = 0; i < shapes; ++i) {
    const Coord x = rng.uniform(within.lo.x, within.hi.x - 200);
    const Coord y = rng.uniform(within.lo.y, within.hi.y - 200);
    r.add(Rect{x, y, x + rng.uniform(60, 260), y + rng.uniform(60, 260)});
  }
  return r;
}

Region pathological_tile(Rng& rng, const Rect& core) {
  Cell c("patho");
  const Tech tech;
  const int n = static_cast<int>(rng.uniform(1, 3));
  for (int i = 0; i < n; ++i) {
    const Point at{rng.uniform(core.lo.x + 250, core.hi.x - 250),
                   rng.uniform(core.lo.y + 250, core.hi.y - 250)};
    switch (rng.index(4)) {
      case 0: inject_pinch_candidate(c, tech, at); break;
      case 1: inject_bridge_candidate(c, tech, at); break;
      case 2: inject_notch(c, tech, at); break;
      default: inject_spacing_violation(c, tech, at); break;
    }
  }
  Library lib;
  const std::uint32_t idx = lib.add_cell(std::move(c));
  return lib.flatten(idx, layers::kMetal1);
}

TEST(PrefilterExhaustive, EverySkippedTileIsProvablyClean) {
  const PrefilterCalibration c = cal();
  ASSERT_TRUE(c.valid);
  const Rect core{0, 0, 1000, 1000};
  const Coord margin = 6 * model().sigma;
  const Rect window = core.expanded(margin);
  const Rect zone = core.expanded(margin / 2);
  ThreadPool pool(0);

  constexpr int kTiles = 1040;
  int skipped = 0, simulated = 0, empty = 0;
  for (int i = 0; i < kTiles; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 2654435761u + 17);
    Region layer;
    switch (i % 4) {
      case 0: layer = straps_tile(rng, window, zone, c); break;
      case 1: layer = poisoned_straps_tile(rng, window, zone, c); break;
      case 2: layer = random_rect_tile(rng, core.expanded(100)); break;
      default: layer = pathological_tile(rng, core); break;
    }
    const Region clip = layer.clipped(window);
    if (clip.empty()) {
      ++empty;
      continue;
    }
    const TileFeatures f = tile_features(clip, window, c, zone);
    if (!prefilter_safe(f, c)) {
      ++simulated;
      continue;
    }
    ++skipped;
    // The skip claim: no owned hotspot at ANY guarded condition.
    for (const ProcessCondition& cond : guarded_conditions()) {
      const auto spots = owned_hotspots(layer, core, cond, &pool);
      ASSERT_TRUE(spots.empty())
          << "tile " << i << " (kind " << i % 4 << ") was skipped but has "
          << spots.size() << " hotspot(s) at dose=" << cond.dose
          << " defocus=" << cond.defocus;
    }
  }
  // The sweep must actually exercise both outcomes to prove anything.
  EXPECT_GE(skipped, 250) << "skip rate collapsed; the sweep is vacuous";
  EXPECT_GE(simulated, 250) << "everything skipped; generators too tame";
  ASSERT_EQ(skipped + simulated + empty, kTiles);
}

// ---- Tiled-flow equivalence -----------------------------------------------

LayerMap sample_design_layers() {
  DesignParams params;
  params.seed = 42;
  params.rows = 4;
  params.cells_per_row = 10;
  params.routes = 30;
  params.via_fields = 1;
  const Library lib = generate_design(params);
  LayerMap layers;
  layers[layers::kMetal1] =
      lib.flatten(lib.top_cells().front(), layers::kMetal1);
  return layers;
}

TEST(PrefilterFlow, TiledRunMatchesPrefilterOffBitForBit) {
  const LayerMap layers = sample_design_layers();
  const Region& m1 = layers.at(layers::kMetal1);
  const Rect extent = m1.bbox();

  HotspotSimOptions off;
  off.model = model();
  off.tile = 4000;
  off.prefilter = false;
  const HotspotTileSim base = simulate_hotspots_tiled(m1, extent, off);
  EXPECT_EQ(base.skipped, 0u);

  HotspotSimOptions on = off;
  on.prefilter = true;
  const HotspotTileSim sim = simulate_hotspots_tiled(m1, extent, on);
  ASSERT_EQ(sim.tiles.size(), base.tiles.size());
  EXPECT_EQ(sim.per_tile, base.per_tile);
  EXPECT_EQ(sim.merged(), base.merged());
}

TEST(PrefilterFlow, ResultInvariantAcrossThreadCounts) {
  const LayerMap layers = sample_design_layers();
  const Region& m1 = layers.at(layers::kMetal1);
  const Rect extent = m1.bbox();

  HotspotSimOptions opt1;
  opt1.model = model();
  opt1.tile = 4000;
  opt1.threads = 1;
  const HotspotTileSim base = simulate_hotspots_tiled(m1, extent, opt1);
  for (const unsigned threads : {2u, 8u}) {
    HotspotSimOptions optn = opt1;
    optn.threads = threads;
    const HotspotTileSim sim = simulate_hotspots_tiled(m1, extent, optn);
    EXPECT_EQ(sim.per_tile, base.per_tile) << threads << " threads";
    EXPECT_EQ(sim.skipped, base.skipped) << threads << " threads";
  }
}

TEST(PrefilterFlow, SnapshotOverloadMatchesRegionOverload) {
  LayerMap layers = sample_design_layers();
  const Region m1 = layers.at(layers::kMetal1);
  const Rect extent = m1.bbox();
  const LayoutSnapshot snap(std::move(layers));

  HotspotSimOptions opt;
  opt.model = model();
  opt.tile = 4000;
  const HotspotTileSim from_region = simulate_hotspots_tiled(m1, extent, opt);
  const HotspotTileSim from_snap =
      simulate_hotspots_tiled(snap, layers::kMetal1, extent, opt);
  EXPECT_EQ(from_snap.per_tile, from_region.per_tile);
  // Density-gated tiles were clip-empty no-ops in the region path too;
  // they are not prefilter skips, so the count can only shrink.
  EXPECT_LE(from_snap.skipped, from_region.skipped);
}

TEST(PrefilterFlow, EmptyTilesAreNotCountedAsSkips) {
  Region sparse;
  sparse.add(Rect{0, 0, 400, 400});  // one fat block, tiles of nothing after
  const Rect extent{0, 0, 20000, 20000};
  HotspotSimOptions opt;
  opt.model = model();
  opt.tile = 2000;
  const HotspotTileSim sim = simulate_hotspots_tiled(sparse, extent, opt);
  // Only the tiles whose halo actually sees the block can be prefilter
  // skips; the vast empty remainder must not inflate the statistic.
  EXPECT_LE(sim.skipped, 4u);
}

}  // namespace
}  // namespace dfm
