// Distributed sharding: partition geometry, wire round-trips, routing
// rules, and the subsystem's headline guarantee — a flow run against a
// ShardBackend is identical to the unsharded run, in content
// (reports_equivalent) and in canonical bytes (flow_report_canonical_json),
// at every shard count, cold and after any edit sequence, also when the
// backend handles only some of a pass's units.
// The invariance suite runs on in-process workers, which serve the same
// framed protocol over socketpairs, so it covers the whole encode ->
// frame -> dispatch -> decode -> stitch path that worker processes run.
// The boundary tests pin the cases sharding gets wrong when the halo or
// dedup rules are off by one: violations exactly on a shard border,
// hotspot clusters spanning shards, capture windows reaching across a
// border, and edits straddling two shards.
#include "shard/remote_backend.h"

#include "core/incremental.h"
#include "core/stream_source.h"
#include "gdsii/gdsii.h"
#include "gen/generators.h"
#include "service/client.h"
#include "shard/shard_server.h"
#include "shard/wire.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dfm {
namespace {

using shard::RemoteShardBackend;
using shard::ShardPlan;

LayerMap flow_layers(const Library& lib, std::uint32_t top) {
  LayerMap m;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    m.emplace(k, lib.flatten(top, k));
  }
  return m;
}

/// Sub-resolution M1 lines (26 nm wide, see HotspotClusterSpansThreeShards)
/// in a row 1 um above `bb`, one per 2 um of width. The generated designs
/// print cleanly at the test optics, so these lines are what gives the
/// shards hotspots to carry.
std::vector<Rect> pinch_lines(const Rect& bb) {
  std::vector<Rect> out;
  const Coord y = bb.hi.y + 1000;
  for (Coord x = bb.lo.x + 300; x + 1200 <= bb.hi.x; x += 2000) {
    out.push_back(Rect{x, y, x + 1200, y + 26});
  }
  return out;
}

/// A generated design plus pinch_lines over its M1 extent.
Library pinched_design(DesignParams p) {
  Library lib = generate_design(p);
  const std::uint32_t top = lib.top_cells()[0];
  for (const Rect& r : pinch_lines(lib.flatten(top, layers::kMetal1).bbox())) {
    lib.cell(top).add(layers::kMetal1, r);
  }
  return lib;
}

LayerMap small_design(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 8;
  p.via_fields = 1;
  p.vias_per_field = 16;
  const Library lib = pinched_design(p);
  return flow_layers(lib, lib.top_cells()[0]);
}

DfmFlowOptions fast_options(unsigned threads, bool litho = false) {
  DfmFlowOptions o;
  o.threads = threads;
  o.tech = Tech::standard();
  o.model.sigma = 20;
  o.model.px = 10;  // coarse raster: litho correctness, not resolution
  o.litho_tile = 6000;
  o.run_litho = litho;
  return o;
}

/// The worker-side mirror of `o` — exactly the fields shard_open ships.
shard::ShardWorkerConfig worker_config(const DfmFlowOptions& o) {
  shard::ShardWorkerConfig c;
  c.tech = o.tech;
  c.model = o.model;
  c.litho_tile = o.litho_tile;
  c.litho_edge_tolerance = o.litho_edge_tolerance;
  c.litho_fast = o.litho_fast;
  c.threads = 1;
  return c;
}

/// A sharded report must match the unsharded one in content
/// (reports_equivalent: every hotspot marker and severity, violation and
/// match) and in canonical bytes (the trace's per-pass unit accounting).
void expect_same_report(const DfmFlowReport& sharded,
                        const DfmFlowReport& unsharded,
                        const std::string& what) {
  EXPECT_TRUE(reports_equivalent(sharded, unsharded)) << what;
  EXPECT_EQ(flow_report_canonical_json(sharded),
            flow_report_canonical_json(unsharded))
      << what;
}

/// A cold sharded run must match `unsharded`; EXPECTs the backend stayed
/// healthy (no silent degrade — a degraded run is still byte-identical,
/// but then the test would not be exercising the shard path at all).
void expect_sharded_cold_matches(const LayerMap& m, DfmFlowOptions opt,
                                 int shards, const DfmFlowReport& unsharded) {
  RemoteShardBackend backend(m, shards, worker_config(opt));
  opt.shards = &backend;
  DfmFlowSession s(LayerMap(m), opt);
  EXPECT_FALSE(backend.degraded());
  expect_same_report(s.report(), unsharded,
                     "cold run at " + std::to_string(shards) + " shards");
}

/// A random edit strictly inside `core` (stable joint bbox).
LayoutDelta random_edit(Rng& rng, const Rect& core) {
  static const std::vector<LayerKey> kEditable = {
      layers::kMetal1, layers::kMetal2, layers::kVia1};
  const LayerKey layer = rng.pick(kEditable);
  const Coord w = rng.uniform(40, 400);
  const Coord h = rng.uniform(40, 400);
  const Coord x = rng.uniform(core.lo.x, core.hi.x - w);
  const Coord y = rng.uniform(core.lo.y, core.hi.y - h);
  LayoutDelta d;
  if (rng.chance(0.3)) {
    d.remove(layer, Rect{x, y, x + w, y + h});
  } else {
    d.add(layer, Rect{x, y, x + w, y + h});
  }
  return d;
}

Rect interior(const Rect& bb, Coord d = 1500) {
  const Coord dx = std::min(d, (bb.hi.x - bb.lo.x) / 4);
  const Coord dy = std::min(d, (bb.hi.y - bb.lo.y) / 4);
  return Rect{bb.lo.x + dx, bb.lo.y + dy, bb.hi.x - dx, bb.hi.y - dy};
}

// ---------------------------------------------------------------------------
// Partition geometry.

TEST(ShardPlan, CoresTileExtentDisjointly) {
  const Rect bb{0, 0, 10000, 6000};
  const ShardPlan plan = ShardPlan::make(bb, 6, 500);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.nx * plan.ny, 6);
  EXPECT_EQ(plan.extent, bb);
  Area total = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_TRUE(bb.contains(plan.cores[i]));
    EXPECT_EQ(plan.windows[i], plan.cores[i].expanded(500));
    total += plan.cores[i].area();
    for (std::size_t j = i + 1; j < plan.size(); ++j) {
      EXPECT_FALSE(plan.cores[i].overlaps(plan.cores[j]))
          << "cores " << i << " and " << j << " overlap";
    }
  }
  EXPECT_EQ(total, bb.area()) << "cores must cover the extent exactly";
}

TEST(ShardPlan, WideExtentGetsMoreColumns) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 40000, 10000}, 4, 100);
  EXPECT_GT(plan.nx, plan.ny);
}

TEST(ShardPlan, OwnerIsUniqueOnInternalBorders) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 8000}, 4, 100);
  // Every point — including points exactly on an internal core border —
  // has exactly one owner whose core half-open-contains it.
  const std::vector<Point> probes = {
      {0, 0},           {7999, 7999},      {4000, 4000},
      {4000, 100},      {100, 4000},       {3999, 3999},
      {4000, 7999},     {7999, 4000},
  };
  for (const Point& p : probes) {
    const int o = plan.owner(p);
    ASSERT_GE(o, 0) << to_string(p);
    int holders = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Rect& c = plan.cores[i];
      const bool in = p.x >= c.lo.x && p.x < c.hi.x &&  // half-open
                      p.y >= c.lo.y && p.y < c.hi.y;
      if (in) {
        ++holders;
        EXPECT_EQ(o, static_cast<int>(i)) << to_string(p);
      }
    }
    EXPECT_EQ(holders, 1) << to_string(p);
  }
  EXPECT_EQ(plan.owner(Point{-1, 0}), -1);
  EXPECT_EQ(plan.owner(Point{8000, 8000}), -1) << "hi edge is exclusive";
}

TEST(ShardPlan, SingleShardOwnsEverything) {
  const Rect bb{-500, -500, 2500, 1500};
  const ShardPlan plan = ShardPlan::make(bb, 1, 300);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.cores[0], bb);
  EXPECT_EQ(plan.owner(Point{0, 0}), 0);
}

TEST(ShardPlan, WindowsOverlappingFindsEditRecipients) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2, 500);
  ASSERT_EQ(plan.size(), 2u);
  const Coord bx = plan.cores[0].hi.x;
  // Deep inside shard 0, beyond shard 1's window reach.
  EXPECT_EQ(plan.windows_overlapping(Rect{100, 100, 200, 200}),
            (std::vector<std::size_t>{0}));
  // Straddling the border: both windows see it.
  EXPECT_EQ(plan.windows_overlapping(Rect{bx - 10, 100, bx + 10, 200}),
            (std::vector<std::size_t>{0, 1}));
  // Inside shard 1's core but within shard 0's halo: still both.
  EXPECT_EQ(plan.windows_overlapping(Rect{bx + 100, 100, bx + 200, 200}),
            (std::vector<std::size_t>{0, 1}));
}

TEST(ShardPlan, HaloCoversLithoAndDrcInfluence) {
  const Tech& t = Tech::standard();
  const Coord sigma = 25;
  const Coord halo = shard::shard_halo(t, 20000, sigma);
  // Litho: tile center to tile edge plus the 6-sigma optical apron.
  EXPECT_GT(halo, 20000 / 2 + 6 * sigma);
  // DRC + patterns: far smaller than the litho term at this tile size.
  EXPECT_GT(halo, t.wide_width);
  EXPECT_GT(halo, 8 * t.m1_width);
}

// ---------------------------------------------------------------------------
// Wire encoding: exact round-trips (every worker result crosses the
// wire, so exactness here is what keeps sharded reports byte-identical).

TEST(ShardWire, GeometryRoundTripsExactly) {
  Region r;
  r.add(Rect{-5, -7, 100, 200});
  r.add(Rect{300, 0, 450, 90});
  EXPECT_EQ(shard::region_from_json(shard::region_to_json(r)), r);
  const Rect rect{-12345678, 4, 9999999, 1000000007};
  EXPECT_EQ(shard::rect_from_json(shard::rect_to_json(rect)), rect);
}

TEST(ShardWire, HotspotSeverityRoundTripsBitExactly) {
  Hotspot h;
  h.kind = HotspotKind::kBridge;
  h.marker = Rect{10, 20, 30, 40};
  h.severity = 0.12345678901234567;  // needs all 17 significant digits
  EXPECT_EQ(shard::hotspot_from_json(shard::hotspot_to_json(h)), h);
  h.kind = HotspotKind::kPinch;
  h.severity = 6400.0;
  EXPECT_EQ(shard::hotspot_from_json(shard::hotspot_to_json(h)), h);
}

TEST(ShardWire, SiteAndMatchRoundTrip) {
  const AnchorWindow site{Point{150, -60}, Rect{-250, -460, 550, 340}};
  EXPECT_EQ(shard::site_from_json(shard::site_to_json(site)), site);
  PatternMatch m;
  m.rule_index = 3;
  m.window = Rect{0, 0, 400, 400};
  m.anchor = Point{200, 200};
  m.exact = false;
  EXPECT_EQ(shard::match_from_json(shard::match_to_json(m)), m);
}

TEST(ShardWire, TechModelRuleDeltaRoundTrip) {
  Tech t = Tech::standard();
  t.m1_width = 37;
  t.density_max = 0.625;
  const Tech t2 = shard::tech_from_json(shard::tech_to_json(t));
  EXPECT_EQ(t2.m1_width, 37);
  EXPECT_EQ(t2.density_max, 0.625);
  EXPECT_EQ(t2.via_enclosure_end, t.via_enclosure_end);

  OpticalModel m;
  m.sigma = 20;
  m.px = 10;
  const OpticalModel m2 = shard::model_from_json(shard::model_to_json(m));
  EXPECT_EQ(m2.sigma, m.sigma);
  EXPECT_EQ(m2.px, m.px);

  LayoutDelta d;
  d.add(layers::kMetal1, Rect{0, 0, 100, 100});
  d.remove(layers::kVia1, Rect{50, 50, 80, 80});
  const LayoutDelta d2 = shard::delta_from_json(shard::delta_to_json(d));
  LayerMap a, b;
  a.emplace(layers::kMetal1, Region{Rect{-50, -50, 60, 60}});
  b.emplace(layers::kMetal1, Region{Rect{-50, -50, 60, 60}});
  d.apply(a);
  d2.apply(b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Worker requests: a malformed shard_open is answered, not fatal.

TEST(ShardServer, OpenRejectsUnknownLithoFastAndKeepsServing) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  std::thread worker([fd = fds[1]] {
    std::optional<shard::ShardWorkerSession> session;
    shard::serve_connection(fd, shard::ShardServeOptions{}, session);
    ::close(fd);
  });
  service::ServiceClient client = service::ServiceClient::adopt(fds[0]);
  const auto open = [&](const char* fast) {
    service::Json::Object req;
    req["op"] = service::Json("shard_open");
    req["core"] = shard::rect_to_json(Rect{0, 0, 1000, 1000});
    req["window"] = shard::rect_to_json(Rect{-500, -500, 1500, 1500});
    req["tech"] = shard::tech_to_json(Tech::standard());
    req["model"] = shard::model_to_json(OpticalModel{});
    req["litho_fast"] = service::Json(fast);
    req["layers"] = service::Json(service::Json::Array{});
    return client.call(service::Json(std::move(req)));
  };
  for (const char* removed : {"fft", "direct"}) {
    const service::Json reply = open(removed);
    EXPECT_FALSE(reply.get_bool("ok", true)) << removed;
    EXPECT_EQ(reply.get_string("error", ""), "bad_request") << removed;
  }
  EXPECT_TRUE(client.ping().get_bool("ok", false));
  EXPECT_TRUE(open("off").get_bool("ok", false));
  client.close();
  worker.join();
}

// ---------------------------------------------------------------------------
// Routing rules.

TEST(ShardRouting, LithoTileGoesToCenterOwner) {
  // Generous halo: every tile's 6-sigma window fits its owner's window.
  const Coord sigma = 25;
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2,
                                         2000 + 6 * sigma + 64);
  ASSERT_EQ(plan.size(), 2u);
  const Coord bx = plan.cores[0].hi.x;
  // Tile centered left of the border: shard 0; right of it: shard 1.
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 2100, 0, bx - 100, 2000},
                                    sigma),
            0);
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 100, 0, bx + 2100, 2000},
                                    sigma),
            1);
  // Center exactly on the border: half-open ownership sends it right.
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 1000, 0, bx + 1000, 2000},
                                    sigma),
            1);
}

TEST(ShardRouting, UncoverableTileIsDeclined) {
  // Halo far too small for the simulation window: near the border no
  // shard's window covers tile.expanded(6*sigma), so the tile is
  // declined (computed by the coordinator) rather than mis-assigned.
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2, 10);
  const Coord bx = plan.cores[0].hi.x;
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{bx - 1000, 1000, bx - 100, 2000},
                                    25),
            -1);
  // Deep in the interior the core itself covers the window: still owned.
  EXPECT_EQ(shard::route_litho_tile(plan, Rect{1000, 1000, 2000, 2000}, 25),
            0);
}

TEST(ShardRouting, PatternSiteGoesToAnchorOwner) {
  const ShardPlan plan = ShardPlan::make(Rect{0, 0, 8000, 4000}, 2, 600);
  const Coord bx = plan.cores[0].hi.x;
  // Anchor left of the border, capture window reaching across it: the
  // site belongs to shard 0 and its window fits shard 0's halo.
  const AnchorWindow cross{Point{bx - 100, 2000},
                           Rect{bx - 500, 1600, bx + 300, 2400}};
  EXPECT_EQ(shard::route_pattern_site(plan, cross), 0);
  // Anchor exactly on the border: owned by the right shard.
  const AnchorWindow on{Point{bx, 2000}, Rect{bx - 400, 1600, bx + 400, 2400}};
  EXPECT_EQ(shard::route_pattern_site(plan, on), 1);
  // Window wider than the halo: declined.
  const AnchorWindow wide{Point{bx - 100, 2000},
                          Rect{bx - 100 - 800, 1200, bx - 100 + 800, 2800}};
  EXPECT_EQ(shard::route_pattern_site(plan, wide), -1);
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the headline guarantee.

TEST(ShardInvariance, ColdRunIsShardCountInvariant) {
  const LayerMap m = small_design(11);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);
  const DfmFlowSession unsharded(LayerMap(m), opt);
  ASSERT_FALSE(unsharded.report().hotspots.empty());
  for (const int shards : {1, 2, 8}) {
    expect_sharded_cold_matches(m, opt, shards, unsharded.report());
  }
}

TEST(ShardInvariance, IncrementalMatchesUnshardedAfterEveryEdit) {
  // Two sessions over the same layout and edit sequence — one driving a
  // 3-shard backend, one all-local — must stay byte-identical, and both
  // must keep matching a cold run's analysis results (the incremental
  // accounting in the trace legitimately differs from a cold run, so
  // that half of the check uses reports_equivalent).
  const LayerMap m = small_design(23);
  const DfmFlowOptions opt = fast_options(2, /*litho=*/true);

  RemoteShardBackend backend(m, 3, worker_config(opt));
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);
  LayerMap shadow = m;
  ASSERT_FALSE(unsharded.report().hotspots.empty());
  expect_same_report(sharded.report(), unsharded.report(), "cold");

  Rng rng(77);
  const Rect core = interior(sharded.snapshot().bbox());
  for (int i = 0; i < 3; ++i) {
    const LayoutDelta d = random_edit(rng, core);
    sharded.apply(d);
    unsharded.apply(d);
    d.apply(shadow);
    EXPECT_FALSE(backend.degraded());
    expect_same_report(sharded.report(), unsharded.report(),
                       "after edit " + std::to_string(i));
    DfmFlowSession cold(LayerMap(shadow), opt);
    EXPECT_TRUE(reports_equivalent(sharded.report(), cold.report()))
        << "analysis drifted from cold truth after edit " << i;
  }
}

// ---------------------------------------------------------------------------
// Boundary cases: the configurations halo/dedup bugs would break.

/// Fat rails pinning a wide bbox so ShardPlan splits along x and edits
/// never move the extent. The rails are DRC-clean (well over min width).
LayerMap railed_canvas(Coord w, Coord h) {
  LayerMap m;
  Region m1;
  m1.add(Rect{0, 0, w, 300});
  m1.add(Rect{0, h - 300, w, h});
  m.emplace(layers::kMetal1, std::move(m1));
  return m;
}

TEST(ShardInvariance, ViolationExactlyOnShardBorder) {
  const DfmFlowOptions opt = fast_options(1);
  LayerMap base = railed_canvas(40000, 10000);

  // Learn where the internal border lands, then drop a sub-min-width
  // sliver (30 < m1_width 50) centered on it: its morphology influence
  // region is split across both workers.
  RemoteShardBackend probe(base, 2, worker_config(opt));
  ASSERT_EQ(probe.plan().nx, 2);
  const Coord bx = probe.plan().cores[0].hi.x;
  ASSERT_GT(bx, probe.plan().extent.lo.x);
  ASSERT_LT(bx, probe.plan().extent.hi.x);

  base.at(layers::kMetal1).add(Rect{bx - 400, 5000, bx + 400, 5030});

  // The unsharded run must actually flag it — otherwise this proves
  // nothing about stitching.
  const DfmFlowSession baseline(LayerMap(base), opt);
  EXPECT_FALSE(baseline.report().drcplus.drc.violations.empty());

  expect_sharded_cold_matches(base, opt, 2, baseline.report());
  expect_sharded_cold_matches(base, opt, 8, baseline.report());
}

TEST(ShardInvariance, HotspotClusterSpansThreeShards) {
  DfmFlowOptions opt = fast_options(1, /*litho=*/true);
  LayerMap m = railed_canvas(30000, 8000);

  RemoteShardBackend probe(m, 3, worker_config(opt));
  ASSERT_EQ(probe.plan().nx, 3);
  const Coord b0 = probe.plan().cores[0].hi.x;
  const Coord b1 = probe.plan().cores[1].hi.x;

  // One continuous sub-resolution line running through all three
  // shards: a pinch cluster no single worker sees whole. 26nm is the
  // sweet spot — wide enough to survive the edge-tolerance erosion
  // (> 2 * litho_edge_tolerance), narrow enough to vanish at sigma 20.
  m.at(layers::kMetal1).add(Rect{b0 - 3000, 4000, b1 + 3000, 4026});

  const DfmFlowSession baseline(LayerMap(m), opt);
  EXPECT_FALSE(baseline.report().hotspots.empty())
      << "the skinny line must pinch, or the test is vacuous";

  expect_sharded_cold_matches(m, opt, 3, baseline.report());
  expect_sharded_cold_matches(m, opt, 8, baseline.report());
}

TEST(ShardInvariance, PatternWindowReachesAcrossBorder) {
  const DfmFlowOptions opt = fast_options(1);
  LayerMap m = railed_canvas(40000, 10000);

  RemoteShardBackend probe(m, 2, worker_config(opt));
  const Coord bx = probe.plan().cores[0].hi.x;

  // A via with end-of-line landing pads right next to the border: the
  // anchor sits in shard 0 but the capture window crosses into shard
  // 1's core (still inside shard 0's halo).
  const Tech& t = opt.tech;
  const Coord vx = bx - t.via_size;  // via hugs the border from the left
  const Rect via{vx, 5000, vx + t.via_size, 5000 + t.via_size};
  m[layers::kVia1].add(via);
  m.at(layers::kMetal1)
      .add(via.expanded(t.via_enclosure)
               .hull(Rect{via.lo.x - t.via_enclosure_end, via.lo.y,
                          via.hi.x + t.via_enclosure_end, via.hi.y}));
  m[layers::kMetal2].add(via.expanded(t.via_enclosure));

  const DfmFlowSession baseline(LayerMap(m), opt);
  expect_sharded_cold_matches(m, opt, 2, baseline.report());
  expect_sharded_cold_matches(m, opt, 4, baseline.report());
}

TEST(ShardInvariance, EditStraddlingTwoShards) {
  const DfmFlowOptions opt = fast_options(2);
  const LayerMap m = railed_canvas(40000, 10000);

  RemoteShardBackend backend(m, 2, worker_config(opt));
  const Coord bx = backend.plan().cores[0].hi.x;
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);

  // Add a bar crossing the border, then carve a sub-min-width waist
  // into it right on the border — both deltas overlap both workers'
  // windows and must reach both, and the second leaves a violation
  // whose influence region is split across the shards.
  LayoutDelta add;
  add.add(layers::kMetal1, Rect{bx - 2000, 4000, bx + 2000, 4100});
  sharded.apply(add);
  unsharded.apply(add);
  EXPECT_FALSE(backend.degraded());
  expect_same_report(sharded.report(), unsharded.report(), "after the bar");

  LayoutDelta cut;
  cut.remove(layers::kMetal1, Rect{bx - 300, 4030, bx + 300, 4100});
  sharded.apply(cut);
  unsharded.apply(cut);
  EXPECT_FALSE(backend.degraded());
  EXPECT_FALSE(unsharded.report().drcplus.drc.violations.empty())
      << "the waist must violate min width, or the test is vacuous";
  expect_same_report(sharded.report(), unsharded.report(), "after the cut");
}

TEST(ShardInvariance, EditEscapingExtentDegradesButStaysExact) {
  const DfmFlowOptions opt = fast_options(1);
  const LayerMap m = railed_canvas(20000, 8000);

  RemoteShardBackend backend(m, 2, worker_config(opt));
  DfmFlowOptions with_shards = opt;
  with_shards.shards = &backend;
  DfmFlowSession sharded(LayerMap(m), with_shards);
  DfmFlowSession unsharded(LayerMap(m), opt);

  // Geometry outside the plan extent: workers cannot mirror it, so the
  // backend must degrade (decline everything) — and the flow must then
  // compute locally, still byte-identical to the unsharded session.
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{25000, 2000, 25400, 2100});
  sharded.apply(d);
  unsharded.apply(d);
  EXPECT_TRUE(backend.degraded());
  expect_same_report(sharded.report(), unsharded.report(), "escaping edit");

  // And it stays degraded: later edits keep the exactness guarantee.
  LayoutDelta d2;
  d2.add(layers::kMetal2, Rect{1000, 1000, 1200, 1100});
  sharded.apply(d2);
  unsharded.apply(d2);
  EXPECT_TRUE(backend.degraded());
  expect_same_report(sharded.report(), unsharded.report(), "later edit");
}

/// Forwards to another backend but offers it only every other litho core
/// and pattern site, declining the rest, so each pass merges shard
/// results with local ones.
class AlternateDeclineBackend final : public ShardBackend {
 public:
  explicit AlternateDeclineBackend(ShardBackend& inner) : inner_(inner) {}

  std::size_t shard_count() const override { return inner_.shard_count(); }
  bool is_degraded() const override { return inner_.is_degraded(); }
  bool shard_drc(const std::vector<Rule>& rules, std::vector<Region>* bad2x,
                 std::vector<char>* handled) override {
    return inner_.shard_drc(rules, bad2x, handled);
  }
  bool shard_match(std::size_t set_index,
                   const std::vector<AnchorWindow>& sites,
                   std::vector<std::vector<PatternMatch>>* out,
                   std::vector<char>* handled) override {
    const std::vector<AnchorWindow> offer = evens(sites);
    std::vector<std::vector<PatternMatch>> got(offer.size());
    std::vector<char> h(offer.size(), 0);
    if (!inner_.shard_match(set_index, offer, &got, &h)) return false;
    for (std::size_t i = 0; i < offer.size(); ++i) {
      if (h[i] == 0) continue;
      (*out)[2 * i] = std::move(got[i]);
      (*handled)[2 * i] = 1;
      ++sites_handled;
    }
    sites_declined += sites.size() - offer.size();
    return true;
  }
  bool shard_litho(const std::vector<Rect>& cores,
                   std::vector<std::vector<Hotspot>>* per_core,
                   std::vector<char>* skipped,
                   std::vector<char>* handled) override {
    const std::vector<Rect> offer = evens(cores);
    std::vector<std::vector<Hotspot>> got(offer.size());
    std::vector<char> sk(offer.size(), 0);
    std::vector<char> h(offer.size(), 0);
    if (!inner_.shard_litho(offer, &got, &sk, &h)) return false;
    for (std::size_t i = 0; i < offer.size(); ++i) {
      if (h[i] == 0) continue;
      (*per_core)[2 * i] = std::move(got[i]);
      (*skipped)[2 * i] = sk[i];
      (*handled)[2 * i] = 1;
      ++cores_handled;
    }
    cores_declined += cores.size() - offer.size();
    return true;
  }
  void shard_apply(const LayoutDelta& delta) override {
    inner_.shard_apply(delta);
  }

  std::size_t sites_handled = 0;
  std::size_t sites_declined = 0;
  std::size_t cores_handled = 0;
  std::size_t cores_declined = 0;

 private:
  template <typename T>
  static std::vector<T> evens(const std::vector<T>& v) {
    std::vector<T> out;
    for (std::size_t i = 0; i < v.size(); i += 2) out.push_back(v[i]);
    return out;
  }

  ShardBackend& inner_;
};

TEST(ShardInvariance, MixedShardAndLocalUnitsMatchUnsharded) {
  DesignParams p;
  p.seed = 5;
  p.rows = 3;
  p.cells_per_row = 6;
  p.routes = 12;
  p.via_fields = 2;
  p.vias_per_field = 16;
  const Library lib = pinched_design(p);
  const LayerMap m = flow_layers(lib, lib.top_cells()[0]);
  for (const unsigned threads : {1u, 2u}) {
    DfmFlowOptions opt = fast_options(threads, /*litho=*/true);
    opt.litho_tile = 2000;  // ~15 tiles, so alternate cores split evenly
    RemoteShardBackend remote(m, 2, worker_config(opt));
    AlternateDeclineBackend backend(remote);
    DfmFlowOptions with_shards = opt;
    with_shards.shards = &backend;
    DfmFlowSession sharded(LayerMap(m), with_shards);
    DfmFlowSession unsharded(LayerMap(m), opt);
    const std::string at = " at " + std::to_string(threads) + " threads";
    ASSERT_FALSE(unsharded.report().hotspots.empty());
    ASSERT_GT(unsharded.report().drcplus.pattern_match_count(), 0u);
    expect_same_report(sharded.report(), unsharded.report(), "cold" + at);

    Rng rng(91);
    const Rect core = interior(sharded.snapshot().bbox());
    for (int i = 0; i < 3; ++i) {
      const LayoutDelta d = random_edit(rng, core);
      sharded.apply(d);
      unsharded.apply(d);
      expect_same_report(sharded.report(), unsharded.report(),
                         "after edit " + std::to_string(i) + at);
    }
    EXPECT_FALSE(remote.degraded());
    EXPECT_GT(backend.cores_handled, 0u);
    EXPECT_GT(backend.cores_declined, 0u);
    EXPECT_GT(backend.sites_handled, 0u);
    EXPECT_GT(backend.sites_declined, 0u);
  }
}

// ---------------------------------------------------------------------------
// Process workers: real `dfmkit shard-serve` children. Everything past
// worker start-up is the path the invariance suite covers, so these
// prove process lifecycle and failure handling, not new semantics.

#ifdef DFMKIT_BIN

/// A small generated design written as <dir>/design.gds.
std::string write_design(const std::string& dir) {
  DesignParams p;
  p.seed = 5;
  p.rows = 2;
  p.cells_per_row = 3;
  p.routes = 6;
  p.via_fields = 1;
  p.vias_per_field = 9;
  const std::string gds = dir + "/design.gds";
  write_gdsii_file(pinched_design(p), gds);
  return gds;
}

shard::RemoteShardConfig process_config(const DfmFlowOptions& opt,
                                        const std::string& gds,
                                        const std::string& dir) {
  shard::RemoteShardConfig sc;
  sc.worker = worker_config(opt);
  sc.layout_path = gds;
  sc.binary = DFMKIT_BIN;
  sc.socket_dir = dir;
  sc.shards = 2;
  return sc;
}

/// An M1 bar straddling the first internal core border, so the edit
/// reaches both workers.
LayoutDelta straddling_edit(const ShardPlan& plan) {
  const Coord bx = plan.cores[0].hi.x;
  const Coord y = plan.extent.center().y;
  LayoutDelta d;
  d.add(layers::kMetal1, Rect{bx - 400, y, bx + 400, y + 90});
  return d;
}

TEST(RemoteShard, MatchesDirectRunColdAndIncremental) {
  const std::string dir = shard::make_shard_scratch_dir();
  const std::string gds = write_design(dir);
  const DfmFlowOptions opt = fast_options(1, /*litho=*/true);
  const auto source = open_stream_source(gds);

  // Unsharded baseline over the same streaming source.
  DfmFlowSession direct(source, opt);
  ASSERT_FALSE(direct.report().hotspots.empty());

  RemoteShardBackend backend(shard::shard_extent_of(gds),
                             process_config(opt, gds, dir));
  ASSERT_EQ(backend.shard_count(), 2u);
  ASSERT_EQ(backend.processes().size(), 2u);

  DfmFlowOptions sharded = opt;
  sharded.shards = &backend;
  DfmFlowSession session(source, sharded);
  EXPECT_FALSE(backend.degraded());
  expect_same_report(session.report(), direct.report(), "cold");

  // One straddling edit over the wire: both sessions apply it; the
  // sharded report must track the direct one byte for byte.
  const LayoutDelta d = straddling_edit(backend.plan());
  session.apply(d);
  direct.apply(d);
  EXPECT_FALSE(backend.degraded());
  expect_same_report(session.report(), direct.report(), "after the edit");
}

TEST(ShardFault, WorkerExitingAtStartupThrowsAndIsReaped) {
  const std::string dir = shard::make_shard_scratch_dir();
  shard::RemoteShardConfig sc =
      process_config(fast_options(1), dir + "/unused.gds", dir);
  sc.binary = "/bin/false";  // exits before it ever binds its socket
  sc.spawn_timeout_s = 10;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(RemoteShardBackend(Rect{0, 0, 20000, 10000}, sc),
               std::runtime_error);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), sc.spawn_timeout_s);
  // Every worker the constructor started has been reaped.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ShardFault, KilledWorkerDegradesButStaysExact) {
  const std::string dir = shard::make_shard_scratch_dir();
  const std::string gds = write_design(dir);
  const DfmFlowOptions opt = fast_options(1, /*litho=*/true);
  const auto source = open_stream_source(gds);
  DfmFlowSession direct(source, opt);

  RemoteShardBackend backend(shard::shard_extent_of(gds),
                             process_config(opt, gds, dir));
  DfmFlowOptions sharded = opt;
  sharded.shards = &backend;
  DfmFlowSession session(source, sharded);
  ASSERT_FALSE(direct.report().hotspots.empty());
  expect_same_report(session.report(), direct.report(), "cold");
  ASSERT_FALSE(backend.degraded());

  // A worker dies between the cold run and an edit: the backend must
  // stop accelerating, and the flow's local fallback keeps the report
  // exact.
  ASSERT_EQ(backend.processes().size(), 2u);
  ASSERT_EQ(::kill(backend.processes()[1].pid, SIGKILL), 0);
  const LayoutDelta d = straddling_edit(backend.plan());
  session.apply(d);
  direct.apply(d);
  EXPECT_TRUE(backend.degraded());
  expect_same_report(session.report(), direct.report(), "after the kill");
}

#endif  // DFMKIT_BIN

}  // namespace
}  // namespace dfm
