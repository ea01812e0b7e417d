// Thread-pool unit tests plus the determinism suite: the whole point of
// the tile scheduler is that parallel output is bit-identical to serial
// output, so run_dfm_flow is executed at several thread counts and every
// field of the report is compared exactly.
#include "core/parallel.h"

#include "core/dfm_flow.h"
#include "gen/generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dfm {
namespace {

TEST(ThreadPool, ResolvesConcurrency) {
  ThreadPool serial(1);
  EXPECT_EQ(serial.concurrency(), 1u);
  EXPECT_EQ(serial.worker_count(), 0u);
  ThreadPool four(4);
  EXPECT_EQ(four.concurrency(), 4u);
  EXPECT_EQ(four.worker_count(), 3u);
  ThreadPool targetless(0);
  EXPECT_GE(targetless.concurrency(), 1u);
}

TEST(ThreadPool, CompletesEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, AsyncReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.async([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, AsyncPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.async([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t i) {
                          if (i == 137) throw std::runtime_error("index 137");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedSubmissionFromTasksCompletes) {
  std::atomic<int> leaves{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&pool, &leaves] {
        for (int j = 0; j < 4; ++j) {
          pool.submit([&leaves] { leaves.fetch_add(1); });
        }
      });
    }
  }
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPool, ShutdownUnderLoadDrainsEverything) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      });
    }
    // Destroy immediately while the queues are still full.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  int ran = 0;  // no atomics needed: everything runs on this thread
  pool.submit([&ran] { ++ran; });
  pool.parallel_for(10, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 11);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out = parallel_map(&pool, 1000, [](std::size_t i) {
    return static_cast<int>(i) * 3;
  });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(TileScheduler, RowMajorCoverage) {
  const Rect extent{0, 0, 4500, 3000};
  const auto tiles = make_tiles(extent, 2000);
  ASSERT_EQ(tiles.size(), 6u);  // 3 cols x 2 rows
  EXPECT_EQ(tiles[0], (Rect{0, 0, 2000, 2000}));
  EXPECT_EQ(tiles[2], (Rect{4000, 0, 4500, 2000}));  // clamped column
  EXPECT_EQ(tiles[5], (Rect{4000, 2000, 4500, 3000}));
  Area covered = 0;
  for (const Rect& t : tiles) covered += t.area();
  EXPECT_EQ(covered, extent.area());
  EXPECT_TRUE(make_tiles(Rect::empty(), 2000).empty());
  EXPECT_TRUE(make_tiles(extent, 0).empty());
}

// ---- Determinism suite ----------------------------------------------------

DfmFlowReport flow_at(const Library& lib, unsigned threads) {
  DfmFlowOptions opt;
  opt.tech = Tech::standard();
  opt.model.sigma = 25;
  opt.model.px = 5;
  opt.litho_tile = 4000;  // force a multi-tile scan on the small design
  opt.threads = threads;
  return run_dfm_flow(lib, lib.top_cells().front(), opt);
}

void expect_identical(const DfmFlowReport& a, const DfmFlowReport& b) {
  // Scorecard: every metric, value bit-exact.
  ASSERT_EQ(a.scorecard.metrics.size(), b.scorecard.metrics.size());
  for (std::size_t i = 0; i < a.scorecard.metrics.size(); ++i) {
    const MetricScore& ma = a.scorecard.metrics[i];
    const MetricScore& mb = b.scorecard.metrics[i];
    EXPECT_EQ(ma.name, mb.name);
    EXPECT_EQ(ma.value, mb.value) << ma.name;
    EXPECT_EQ(ma.weight, mb.weight) << ma.name;
    EXPECT_EQ(ma.detail, mb.detail) << ma.name;
  }
  EXPECT_EQ(a.scorecard.composite(), b.scorecard.composite());

  // Hotspot list: same spots in the same order.
  ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
  for (std::size_t i = 0; i < a.hotspots.size(); ++i) {
    EXPECT_EQ(a.hotspots[i].kind, b.hotspots[i].kind);
    EXPECT_EQ(a.hotspots[i].marker, b.hotspots[i].marker);
    EXPECT_EQ(a.hotspots[i].severity, b.hotspots[i].severity);
  }

  // DRC+ violations and pattern matches.
  const auto& va = a.drcplus.drc.violations;
  const auto& vb = b.drcplus.drc.violations;
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].rule, vb[i].rule);
    EXPECT_EQ(va[i].marker, vb[i].marker);
    EXPECT_EQ(va[i].measured, vb[i].measured);
  }
  ASSERT_EQ(a.drcplus.matches.size(), b.drcplus.matches.size());
  for (std::size_t s = 0; s < a.drcplus.matches.size(); ++s) {
    const auto& sa = a.drcplus.matches[s];
    const auto& sb = b.drcplus.matches[s];
    ASSERT_EQ(sa.size(), sb.size()) << "pattern set " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].rule_index, sb[i].rule_index);
      EXPECT_EQ(sa[i].window, sb[i].window);
      EXPECT_EQ(sa[i].anchor, sb[i].anchor);
      EXPECT_EQ(sa[i].exact, sb[i].exact);
    }
  }

  // The rest of the report.
  EXPECT_EQ(a.nets.size(), b.nets.size());
  ASSERT_EQ(a.floating_cuts.size(), b.floating_cuts.size());
  EXPECT_EQ(a.recommended.compliance(), b.recommended.compliance());
  EXPECT_EQ(a.vias.singles_before, b.vias.singles_before);
  EXPECT_EQ(a.vias.inserted, b.vias.inserted);
  EXPECT_EQ(a.lambda_shorts, b.lambda_shorts);
  EXPECT_EQ(a.lambda_opens, b.lambda_opens);
  EXPECT_EQ(a.defect_yield, b.defect_yield);
  EXPECT_EQ(a.via_yield_before, b.via_yield_before);
  EXPECT_EQ(a.via_yield_after, b.via_yield_after);
  EXPECT_EQ(a.dpt.compliant, b.dpt.compliant);
}

/// The "yield" line of the canonical report: the CAA and via yield
/// values as hex floats.
std::string yield_line(const DfmFlowReport& rep) {
  const std::string json = flow_report_canonical_json(rep);
  const std::size_t at = json.find("\"yield\": {");
  if (at == std::string::npos) return {};
  return json.substr(at, json.find('\n', at) - at);
}

class FlowDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowDeterminism, ParallelFlowEqualsSerialFlow) {
  DesignParams p;
  p.seed = 40 + GetParam();
  p.rows = 2;
  p.cells_per_row = 6;
  p.routes = 12;
  const Library lib = generate_design(p);

  const DfmFlowReport serial = flow_at(lib, 1);
  const std::string serial_yield = yield_line(serial);
  ASSERT_NE(serial_yield.find("\"lambda_shorts\": \"0x"), std::string::npos)
      << serial_yield;
  for (const unsigned threads : {2u, 8u}) {
    const DfmFlowReport par = flow_at(lib, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(serial, par);
    // The canonical bytes carry every yield value bit-exactly.
    EXPECT_EQ(yield_line(par), serial_yield);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDeterminism, ::testing::Range(1u, 4u));

TEST(Determinism, TiledHotspotScanMatchesSerialAcrossThreadCounts) {
  DesignParams p;
  p.seed = 77;
  p.rows = 2;
  p.cells_per_row = 8;
  p.routes = 16;
  const Library lib = generate_design(p);
  const Region m1 = lib.flatten(lib.top_cells().front(), layers::kMetal1);
  OpticalModel model;
  model.sigma = 25;
  model.px = 5;

  const auto serial = simulate_hotspots(m1, m1.bbox(), model, 12, 3000);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const auto par = simulate_hotspots(m1, m1.bbox(), model, 12, 3000, &pool);
    ASSERT_EQ(par.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < par.size(); ++i) {
      EXPECT_EQ(par[i].kind, serial[i].kind);
      EXPECT_EQ(par[i].marker, serial[i].marker);
      EXPECT_EQ(par[i].severity, serial[i].severity);
    }
  }
}

}  // namespace
}  // namespace dfm
