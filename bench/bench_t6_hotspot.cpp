// Table 6 — Hotspot classification: learn on design A, scan design B.
//
// Design A's litho hotspots are clustered into classes; the class
// representatives scan design B geometrically (no simulation). Ground
// truth on B comes from the labelled injections; the table sweeps the
// cluster/match threshold and reports precision and recall.
// The training column also doubles as the parallel-scheduler benchmark:
// the tiled simulation runs once serially and once on a 4-thread
// work-stealing pool, and the table reports the wall-clock speedup (the
// outputs are bit-identical by the deterministic-merge contract).
// The second half benches the litho fast path itself: the same tiled
// simulation run with the conservative hotspot prefilter off
// (historical path) and on, on a skip-heavy design, each side timed
// over 5 alternating repeats. The two hotspot sets must be identical;
// the run exits nonzero if the median prefilter run clears less than
// 3x over the median historical one. The convolution kernel is also
// timed alone on one padded tile raster, as megapixels convolved per
// second.
#include "bench_common.h"

#include "core/hotspot_flow.h"
#include "core/parallel.h"
#include "litho/kernel_detail.h"
#include "litho/prefilter.h"

#include <algorithm>
#include <cmath>

using namespace dfm;
using namespace dfm::bench;

namespace {

struct LabelledDesign {
  Region m1;
  std::vector<Injection> marginal;  // pinch/bridge ground truth
};

LabelledDesign make(std::uint64_t seed, int constructs, bool with_clean) {
  const Tech& t = Tech::standard();
  Cell c{"d" + std::to_string(seed)};
  Rng rng(seed);
  LabelledDesign d;
  for (int i = 0; i < constructs; ++i) {
    const Point at{i * 7000, (i % 2) * 4000};
    const Injection inj = (i % 2 == 0)
                              ? inject_pinch_candidate(c, t, at)
                              : inject_bridge_candidate(c, t, at);
    d.marginal.push_back(inj);
  }
  if (with_clean) {
    // Fat, healthy wiring that must not match anything.
    for (int i = 0; i < 10; ++i) {
      c.add(layers::kMetal1,
            Rect{i * 1200, 12000, i * 1200 + 400, 20000});
    }
  }
  d.m1 = c.local_region(layers::kMetal1);
  return d;
}

}  // namespace

int main() {
  const LabelledDesign train = make(601, 6, false);
  const LabelledDesign target = make(602, 6, true);

  Table table("Table 6: hotspot classification, train on A / scan B");
  table.set_header({"threshold", "train hotspots", "classes", "matches",
                    "recall", "precision", "train ms", "train ms 4T",
                    "speedup", "scan ms"});
  ThreadPool pool(4);

  // The scan target as a snapshot: its Metal-1 R-tree is memoized once
  // and shared by every threshold sweep below.
  LayerMap target_layers;
  target_layers.emplace(layers::kMetal1, target.m1);
  const LayoutSnapshot target_snap(std::move(target_layers));

  for (const double threshold : {0.15, 0.25, 0.35}) {
    HotspotFlowOptions params;
    params.model.sigma = 30;
    params.model.px = 5;
    params.snippet_radius = 350;
    params.cluster_threshold = threshold;
    params.match_threshold = threshold;
    params.scan_stride = 175;

    Stopwatch t_train;
    const HotspotLibrary lib =
        build_hotspot_library(train.m1, train.m1.bbox().expanded(300), params);
    const double train_ms = t_train.ms();

    HotspotFlowOptions params_par = params;
    params_par.pool = &pool;
    Stopwatch t_train_par;
    const HotspotLibrary lib_par = build_hotspot_library(
        train.m1, train.m1.bbox().expanded(300), params_par);
    const double train_par_ms = t_train_par.ms();
    if (lib_par.classes.size() != lib.classes.size() ||
        lib_par.training_hotspots != lib.training_hotspots) {
      std::printf("DETERMINISM VIOLATION: parallel training diverged\n");
      return 1;
    }

    Stopwatch t_scan;
    const auto matches = scan_for_hotspots(
        target_snap, layers::kMetal1, target.m1.bbox().expanded(300), lib,
        params_par);
    const double scan_ms = t_scan.ms();

    // Recall: labelled constructs hit by at least one match window.
    int found = 0;
    for (const Injection& inj : target.marginal) {
      bool hit = false;
      for (const HotspotMatch& m : matches) {
        if (m.window.overlaps(inj.where)) hit = true;
      }
      found += hit;
    }
    // Precision: match windows landing on some labelled construct.
    int good = 0;
    for (const HotspotMatch& m : matches) {
      for (const Injection& inj : target.marginal) {
        if (m.window.overlaps(inj.where)) {
          ++good;
          break;
        }
      }
    }
    table.add_row(
        {Table::num(threshold), std::to_string(lib.training_hotspots),
         std::to_string(lib.classes.size()), std::to_string(matches.size()),
         Table::percent(static_cast<double>(found) /
                        static_cast<double>(target.marginal.size())),
         matches.empty() ? "-"
                         : Table::percent(static_cast<double>(good) /
                                          static_cast<double>(matches.size())),
         Table::num(train_ms, 0), Table::num(train_par_ms, 0),
         train_par_ms > 0 ? Table::num(train_ms / train_par_ms, 2) + "x" : "-",
         Table::num(scan_ms, 0)});
  }
  table.print();
  std::printf(
      "\nverdict: the classification flow is a HIT at moderate thresholds — "
      "near-total recall of\nthe repeated weak constructs with high "
      "precision, and the scan column shows why: matching\nis orders of "
      "magnitude cheaper than simulating the target design. The speedup "
      "column is the\ntile scheduler at 4 threads on the same training "
      "simulation (1.0x on a single core).\n");

  // ---- Litho fast path: conservative prefilter ----------------------------
  // A skip-heavy but non-trivial target: a clustered corner of weak
  // constructs (real hotspots every mode must find), a sea of fat
  // isolated blocks (provably clean — prefilter fodder), and a band of
  // empty tiles. The blocks keep their inflated footprints clear of the
  // tile-zone corner columns (k*4000 +- 75) so the corner-wrap rule
  // never forces a simulation.
  Region fast_layer;
  {
    const Tech& t = Tech::standard();
    Cell c{"fastpath"};
    for (int i = 0; i < 6; ++i) {
      const Point at{1000 + i * 1000, 1000 + (i % 2) * 9000};
      (i % 2 == 0) ? inject_pinch_candidate(c, t, at)
                   : inject_bridge_candidate(c, t, at);
    }
    fast_layer = c.local_region(layers::kMetal1);
    // Geometry that definitely fails at these optics, so the two runs
    // have a real hotspot set to agree on: 30nm lines vanish entirely
    // (pinch) and 30nm gaps between fat plates print across (bridge).
    for (Coord i = 0; i < 3; ++i) {
      const Coord y = 13000 + i * 2000;
      fast_layer.add(Rect{500, y, 530, y + 1500});
      fast_layer.add(Rect{2000, y, 2400, y + 600});
      fast_layer.add(Rect{2430, y, 2830, y + 600});
    }
    Rng rng(603);
    for (Coord x = 8200; x + 300 < 36000; x += 1000) {
      for (Coord y = 200; y + 300 < 20000; y += 1000) {
        if (rng.chance(0.25)) continue;  // sparse holes
        fast_layer.add(Rect{x, y, x + 300, y + 300});
      }
    }
  }
  const Rect fast_extent{0, 0, 40000, 20000};

  HotspotSimOptions sim;
  sim.model.sigma = 25;
  sim.model.px = 5;
  sim.tile = 4000;
  // Warm the memoized prefilter calibration so its one-time simulation
  // sweep does not bill the first timed run.
  prefilter_calibration(sim.model, sim.edge_tolerance,
                        default_process_window());

  // The two sides alternate so drift on the host bills both alike; the
  // speedup is the ratio of their medians.
  constexpr int kRepeats = 5;
  const auto run = [&](bool prefilter, std::vector<double>& ms) {
    HotspotSimOptions o = sim;
    o.prefilter = prefilter;
    Stopwatch t;
    HotspotTileSim s = simulate_hotspots_tiled(fast_layer, fast_extent, o);
    ms.push_back(t.ms());
    return s;
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<double> direct_runs, fast_runs;
  HotspotTileSim direct, fast;
  for (int rep = 0; rep < kRepeats; ++rep) {
    direct = run(false, direct_runs);
    fast = run(true, fast_runs);
    if (fast.merged() != direct.merged()) {
      std::printf("EQUIVALENCE VIOLATION: fast-path hotspot set diverged\n");
      return 1;
    }
  }
  const double direct_ms = median(direct_runs);
  const double fast_ms = median(fast_runs);
  const double skip_ratio =
      static_cast<double>(fast.skipped) / static_cast<double>(fast.tiles.size());
  const double fast_speedup = fast_ms > 0 ? direct_ms / fast_ms : 0;

  // Kernel throughput: the first tile's padded raster, as the tiled
  // simulation builds it, convolved single-threaded (best of 5).
  const double s = sim.model.sigma_at_nm(0);
  const Coord pad = static_cast<Coord>(std::ceil(3.0 * s)) + sim.model.px;
  const Raster tile_img = rasterize(
      fast_layer, Rect{0, 0, sim.tile, sim.tile}.expanded(pad), sim.model.px);
  const std::vector<float> taps =
      detail::gaussian_taps(s / static_cast<double>(sim.model.px));
  const double tile_mpx = static_cast<double>(tile_img.values.size()) / 1e6;
  const auto mpx_s = [&](const auto& convolve) {
    double best_ms = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch t;
      convolve();
      best_ms = std::min(best_ms, t.ms());
    }
    return best_ms > 0 ? tile_mpx / (best_ms / 1000.0) : 0;
  };
  const double direct_mpx_s = mpx_s(
      [&] { return detail::convolve_separable(tile_img, taps, nullptr); });

  // Parseable: tools/run_benches.sh greps this LITHO line.
  std::printf(
      "\nLITHO tiles=%zu hotspots=%zu repeats=%d direct_ms=%.1f fast_ms=%.1f "
      "skipped=%zu skip_ratio=%.3f fast_speedup=%.2f direct_mpx_s=%.1f\n",
      fast.tiles.size(), direct.merged().size(), kRepeats, direct_ms, fast_ms,
      fast.skipped, skip_ratio, fast_speedup, direct_mpx_s);
  std::printf(
      "verdict: the litho fast path is a HIT when the design is sparse — "
      "identical hotspots at\n%.1fx (target 5x, floor 3x; medians of %d "
      "runs), and the prefilter retires %.0f%% of the\ntiles without "
      "rasterizing them. The convolution runs %.0f Mpx/s on a %dx%d px "
      "tile\nwith %zu taps.\n",
      fast_speedup, kRepeats, 100.0 * skip_ratio, direct_mpx_s, tile_img.nx,
      tile_img.ny, taps.size());
  if (fast_speedup < 3.0) {
    std::printf("FAST PATH REGRESSION: %.2fx is below the 3x floor\n",
                fast_speedup);
    return 1;
  }
  return 0;
}
