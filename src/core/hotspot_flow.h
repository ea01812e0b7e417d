// Hotspot classification system, after the automatic hotspot
// classification papers: simulate a training design, harvest hotspot
// snippets, cluster them into classes, and use the class representatives
// as a geometric match deck to find the same weak constructs in new
// designs without running simulation there.
#pragma once

#include "core/engine_api.h"
#include "geometry/normalized_region.h"
#include "litho/litho.h"
#include "pattern/clustering.h"

#include <string>
#include <vector>

namespace dfm {

class LayoutSnapshot;  // core/snapshot.h

struct HotspotFlowOptions : PassOptions {
  using PassOptions::PassOptions;

  OpticalModel model;
  Coord snippet_radius = 400;    // clip half-size around a hotspot
  Coord edge_tolerance = 12;     // litho hotspot sensitivity
  double cluster_threshold = 0.25;  // snippet Jaccard-distance threshold
  double match_threshold = 0.25;    // scan-side distance threshold
  Coord scan_stride = 200;          // sliding-scan stride
};

struct HotspotClass {
  Region representative;  // geometry of the defining snippet
  HotspotKind kind;
  std::size_t population = 0;  // training snippets in this class
};

struct HotspotLibrary {
  std::vector<HotspotClass> classes;
  std::size_t training_hotspots = 0;
};

/// Training: simulate `layer` over `extent` tile by tile, harvest
/// hotspot snippets, cluster, and keep one representative per class.
/// Taking a NormalizedRegion canonicalizes the layer at the call
/// boundary, so the tiles can read it concurrently.
HotspotLibrary build_hotspot_library(NormalizedRegion layer, const Rect& extent,
                                     const HotspotFlowOptions& options);

struct HotspotMatch {
  std::size_t class_index;
  Rect window;
  double distance;
};

/// Scanning: slide a window over the target and report windows whose
/// geometry is within match_threshold of a class representative. No
/// simulation happens here — that is the point of the flow.
std::vector<HotspotMatch> scan_for_hotspots(NormalizedRegion layer,
                                            const Rect& extent,
                                            const HotspotLibrary& library,
                                            const HotspotFlowOptions& options);

/// Snapshot-native scan: reuses the snapshot's memoized R-tree for the
/// scanned layer instead of indexing from scratch. Bit-identical to the
/// region overload.
std::vector<HotspotMatch> scan_for_hotspots(const LayoutSnapshot& snap,
                                            LayerKey layer, const Rect& extent,
                                            const HotspotLibrary& library,
                                            const HotspotFlowOptions& options);

/// Litho simulation knobs shared by the cold and incremental tiled runs.
struct HotspotSimOptions : PassOptions {
  using PassOptions::PassOptions;

  OpticalModel model;
  Coord edge_tolerance = 12;
  Coord tile = 20000;  // core edge of one simulation tile

  /// Conservative prefilter (litho fast path): tiles whose geometry
  /// provably cannot print a hotspot anywhere in `prefilter_window`
  /// bypass simulation entirely. Only removes provably-empty tile
  /// results, so the merged hotspot set is unchanged; false restores the
  /// historical behaviour exactly.
  bool prefilter = true;
  /// Process window the prefilter must be safe across; empty means
  /// default_process_window() (litho/prefilter.h).
  std::vector<ProcessCondition> prefilter_window;
};

/// A tiled simulation with its per-tile hotspot lists kept separate —
/// the splice unit of incremental litho. merged() is exactly the
/// row-major tile-order concatenation simulate_hotspots returns.
struct HotspotTileSim {
  Rect extent;
  Coord tile = 0;
  std::vector<Rect> tiles;  // row-major cores, make_tiles(extent, tile)
  std::vector<std::vector<Hotspot>> per_tile;  // aligned with tiles
  std::size_t recomputed = 0;  // tiles simulated by the producing call
  std::size_t skipped = 0;  // tiles the prefilter proved hotspot-free

  std::vector<Hotspot> merged() const;
};

struct DensityMap;    // layout/density.h
class ShardBackend;  // core/shard_backend.h

/// One batch of tiles of the tiled simulation, in the order given: for
/// each core, clip `layer` to the 6-sigma halo window around it,
/// simulate, and keep only the hotspots whose marker center lies in the
/// core, so tiling never double-reports. Cores run concurrently on the
/// options pool and out[i] belongs to cores[i], so the result is
/// thread-count invariant. With the prefilter on, a core proven
/// hotspot-free skips simulation and sets skipped[i]. `dm` (may be null)
/// is a density grid whose all-zero windows skip even the clip: a pure
/// shortcut that never changes output or `skipped`. The tile driver and
/// the shard worker both simulate through this function.
std::vector<std::vector<Hotspot>> simulate_tiles(
    const NormalizedRegion& layer, const DensityMap* dm,
    const std::vector<Rect>& cores, const HotspotSimOptions& options,
    std::vector<char>& skipped);

/// Simulates every tile of `extent`. Tiles run concurrently on the
/// options pool; each tile's hotspot list is independent of the others
/// (core-ownership rule), so the structure is thread-count invariant.
HotspotTileSim simulate_hotspots_tiled(NormalizedRegion layer,
                                       const Rect& extent,
                                       const HotspotSimOptions& options);

/// Snapshot-native tiled simulation: resimulate_hotspots with no
/// previous run, so every tile is stale.
HotspotTileSim simulate_hotspots_tiled(const LayoutSnapshot& snap,
                                       LayerKey layer, const Rect& extent,
                                       const HotspotSimOptions& options);

/// The litho tile driver behind every tiled run, cold or incremental,
/// local or sharded. When `prev` covers the same extent and tile, the
/// stale tiles are those whose simulation window (the core expanded by
/// the 6-sigma optical halo) meets `dirty`, and every other tile's list
/// moves over from `prev`; otherwise every tile is stale. A tile's
/// output depends only on the layer clipped to its window, so a splice
/// is bit-identical to the cold run. Stale cores are offered to
/// `shards` first (ShardBackend::shard_litho); the cores it declines go
/// through simulate_tiles, with the snapshot's memoized density grid at
/// the tile pitch as the zero-cost first gate when the prefilter is on.
/// The grid and the prefilter calibration are built only when some core
/// runs here.
HotspotTileSim resimulate_hotspots(const LayoutSnapshot& snap, LayerKey layer,
                                   const Rect& extent,
                                   const HotspotSimOptions& options,
                                   HotspotTileSim prev, const Region& dirty,
                                   ShardBackend* shards = nullptr);

/// Simulates in tiles (bounded raster size) and returns all hotspots.
/// Tiles run concurrently on the pool; per-tile results are merged in
/// row-major tile order, so the list is identical to the serial scan.
std::vector<Hotspot> simulate_hotspots(NormalizedRegion layer,
                                       const Rect& extent,
                                       const OpticalModel& model,
                                       Coord edge_tolerance,
                                       Coord tile = 20000,
                                       ThreadPool* pool = nullptr);

}  // namespace dfm
