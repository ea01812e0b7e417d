#include "yield/yield.h"

#include "core/parallel.h"
#include "core/snapshot.h"

#include "gen/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dfm {
namespace {

TEST(DefectModel, PdfNormalizes) {
  DefectModel m;
  m.x0 = 40;
  m.xmax = 2000;
  // Trapezoid-integrate the pdf; should be ~1.
  double acc = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double s0 = 40 + (2000.0 - 40) * i / n;
    const double s1 = 40 + (2000.0 - 40) * (i + 1) / n;
    acc += 0.5 *
           (m.pdf(static_cast<Coord>(s0)) + m.pdf(static_cast<Coord>(s1))) *
           (s1 - s0);
  }
  EXPECT_NEAR(acc, 1.0, 0.05);  // trapezoid bias on the steep head
  EXPECT_DOUBLE_EQ(m.pdf(10), 0.0);
  EXPECT_DOUBLE_EQ(m.pdf(3000), 0.0);
}

TEST(ShortCriticalArea, TwoParallelWires) {
  // Wires 100 wide, gap 100: a square defect of side s shorts them iff it
  // spans the gap; center strip height = s - 100.
  Region layer;
  layer.add(Rect{0, 0, 1000, 100});
  layer.add(Rect{0, 200, 1000, 300});
  const std::vector<Region> nets = short_nets(layer);
  EXPECT_EQ(short_critical_area(nets, 100), 0);
  const Area ca150 = short_critical_area(nets, 150);
  // Expected: (150 - 100) tall strip, ~1000 long (plus end effects < s).
  EXPECT_GE(ca150, 50 * 1000);
  EXPECT_LE(ca150, 50 * (1000 + 2 * 150));
}

TEST(ShortCriticalArea, MonotoneInDefectSize) {
  Region layer;
  layer.add(Rect{0, 0, 500, 100});
  layer.add(Rect{0, 180, 500, 280});
  layer.add(Rect{0, 400, 500, 500});
  const std::vector<Region> nets = short_nets(layer);
  Area prev = 0;
  for (const Coord s : {60, 100, 140, 200, 300, 400}) {
    const Area ca = short_critical_area(nets, s);
    EXPECT_GE(ca, prev) << "s=" << s;
    prev = ca;
  }
}

TEST(ShortCriticalArea, SingleNetNeverShorts) {
  Region layer;
  layer.add(Rect{0, 0, 1000, 100});
  layer.add(Rect{0, 0, 100, 1000});  // same connected net
  EXPECT_EQ(short_nets(layer).size(), 1u);
  EXPECT_EQ(short_critical_area(short_nets(layer), 500), 0);
}

TEST(OpenCriticalArea, ThinWireBreaks) {
  const Region wire{Rect{0, 0, 1000, 50}};
  EXPECT_EQ(open_critical_area(wire, 50), 0);  // defect == width: no break
  EXPECT_EQ(open_critical_area(wire, 80), static_cast<Area>(30) * 1000);
}

TEST(OpenCriticalArea, MonotoneInDefectSize) {
  const Region wire{Rect{0, 0, 2000, 56}};
  Area prev = 0;
  for (const Coord s : {40, 60, 100, 200, 400}) {
    const Area ca = open_critical_area(wire, s);
    EXPECT_GE(ca, prev);
    prev = ca;
  }
}

TEST(OpenCriticalArea, McAgreesOnStraightWire) {
  const Region wire{Rect{0, 0, 2000, 60}};
  const Coord s = 150;
  const Area analytic = open_critical_area(wire, s);
  const Area mc = open_critical_area_mc(wire, s, 20000, 99);
  // MC includes end effects; require agreement within 35%.
  EXPECT_NEAR(static_cast<double>(mc), static_cast<double>(analytic),
              0.35 * static_cast<double>(analytic));
}

TEST(AverageCriticalArea, WeightsSmallDefectsMore) {
  // ca(s) = s^2 (defect area); with 1/s^3 weighting the small sizes
  // dominate, so ECA is far below ca(xmax).
  DefectModel m;
  m.x0 = 40;
  m.xmax = 1000;
  const double eca = average_critical_area(
      [](Coord s) { return static_cast<Area>(s) * s; }, m, 64);
  EXPECT_GT(eca, static_cast<double>(40) * 40);
  EXPECT_LT(eca, static_cast<double>(1000) * 1000 / 10);
}

TEST(YieldModels, PoissonAndNegativeBinomial) {
  EXPECT_DOUBLE_EQ(poisson_yield(0.0), 1.0);
  EXPECT_NEAR(poisson_yield(1.0), 0.3678794, 1e-6);
  // NB approaches Poisson as alpha -> infinity.
  EXPECT_NEAR(negative_binomial_yield(1.0, 1e9), poisson_yield(1.0), 1e-6);
  // Clustering (small alpha) gives higher yield at equal lambda.
  EXPECT_GT(negative_binomial_yield(1.0, 0.5), poisson_yield(1.0));
}

TEST(LayerLambda, ScalesWithWireLength) {
  Region small;
  small.add(Rect{0, 0, 2000, 56});
  small.add(Rect{0, 200, 2000, 256});
  Region large;
  for (int i = 0; i < 10; ++i) {
    large.add(Rect{0, i * 200, 2000, i * 200 + 56});
  }
  DefectModel m;
  m.d0 = 100;
  const double ls = layer_lambda(small, m, /*shorts=*/true);
  const double ll = layer_lambda(large, m, true);
  EXPECT_GT(ll, 4 * ls);
  EXPECT_GT(poisson_yield(ls), poisson_yield(ll));
}

TEST(ViaYield, DoublingHelps) {
  const double f = 1e-4;
  const double y_all_single = via_yield(1000, 0, f);
  const double y_all_double = via_yield(0, 1000, f);
  EXPECT_GT(y_all_double, y_all_single);
  EXPECT_NEAR(y_all_double, 1.0, 1e-4);
  EXPECT_NEAR(y_all_single, std::exp(-1000 * f), 1e-3);
}

LayerMap via_design(std::uint64_t seed, int count) {
  Library lib{"v"};
  const auto c = lib.new_cell("c");
  Rng rng(seed);
  add_via_field(lib.cell(c), rng, Tech::standard(), {0, 0}, count);
  LayerMap m;
  for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
    m.emplace(k, lib.flatten(c, k));
  }
  return m;
}

TEST(ViaDoubling, InsertsBesideIsolatedVias) {
  const LayerMap m = via_design(17, 30);
  const ViaDoublingResult res =
      double_vias(LayoutSnapshot(m), Tech::standard());
  EXPECT_EQ(res.singles_before, 30);
  EXPECT_GT(res.inserted, 15) << "open field: most vias must double";
  EXPECT_EQ(res.inserted + res.blocked, res.singles_before);
  // Every new via keeps spacing to the originals.
  const Tech& t = Tech::standard();
  for (const Region& nv : res.new_vias.components()) {
    const Coord d = region_distance(nv, m.at(layers::kVia1), t.via_space + 1);
    EXPECT_GE(d, t.via_space);
  }
}

TEST(ViaDoubling, RespectsCrowdedNeighbours) {
  // A tight via cluster: spacing blocks most redundant positions.
  Library lib{"v"};
  const auto c = lib.new_cell("c");
  const Tech& t = Tech::standard();
  // Grid at exactly min spacing: no room for any doubling between them.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      add_via(lib.cell(c), t,
              {i * (t.via_size + t.via_space), j * (t.via_size + t.via_space)},
              ViaStyle::kSymmetric);
    }
  }
  LayerMap m;
  for (const LayerKey k : {layers::kVia1, layers::kMetal1, layers::kMetal2}) {
    m.emplace(k, lib.flatten(c, k));
  }
  const ViaDoublingResult res = double_vias(LayoutSnapshot(m), t);
  // Only outer ring positions can work; the centre via must be blocked.
  EXPECT_LT(res.inserted, 9);
}

TEST(ViaDoubling, InsertedViasAreEnclosed) {
  const LayerMap m = via_design(23, 20);
  const Tech& t = Tech::standard();
  const ViaDoublingResult res = double_vias(LayoutSnapshot(m), t);
  ASSERT_GT(res.inserted, 0);
  const Region m1 = m.at(layers::kMetal1) | res.new_metal1;
  const Region m2 = m.at(layers::kMetal2) | res.new_metal2;
  const Coord enc = t.via_enclosure / 2;
  EXPECT_TRUE((res.new_vias.bloated(enc) - m1).empty());
  EXPECT_TRUE((res.new_vias.bloated(enc) - m2).empty());
}

TEST(NetAwareShorts, ConnectedThroughViaIsNotAShort) {
  // Two M2 stubs close together but strapped to the same M1 bus through
  // vias: layer-local analysis calls them a short risk, net-aware does not.
  Region stub_a{Rect{0, 0, 60, 400}};
  Region stub_b{Rect{160, 0, 220, 400}};  // 100 apart
  Region both = stub_a | stub_b;

  const Coord s = 200;  // bridges the 100 gap
  EXPECT_GT(short_critical_area(short_nets(both), s), 0);

  // Same net label: no short.
  EXPECT_EQ(short_critical_area(short_nets({stub_a, stub_b}, {7, 7}), s), 0);
  // Different nets: matches the layer-local result.
  EXPECT_EQ(short_critical_area(short_nets({stub_a, stub_b}, {1, 2}), s),
            short_critical_area(short_nets(both), s));
}

TEST(NetAwareShorts, MixedNetsCountOnlyCrossNetPairs) {
  // Three wires; the outer two share a net.
  Region w0{Rect{0, 0, 60, 1000}};
  Region w1{Rect{160, 0, 220, 1000}};
  Region w2{Rect{320, 0, 380, 1000}};
  const Coord s = 160;
  const Area all_distinct =
      short_critical_area(short_nets({w0, w1, w2}, {0, 1, 2}), s);
  const Area outer_shared =
      short_critical_area(short_nets({w0, w1, w2}, {0, 1, 0}), s);
  EXPECT_GT(all_distinct, 0);
  // w0-w2 are 260 apart (> s), so sharing their net changes nothing here;
  // but sharing w0-w1 removes that pair entirely.
  const Area adjacent_shared =
      short_critical_area(short_nets({w0, w1, w2}, {0, 0, 2}), s);
  EXPECT_LT(adjacent_shared, all_distinct);
  EXPECT_EQ(outer_shared, all_distinct);
}

TEST(NetAwareShorts, MismatchedLabelsThrow) {
  // A missing label is a caller bug, not "no shorts".
  const Region w0{Rect{0, 0, 60, 1000}};
  const Region w1{Rect{160, 0, 220, 1000}};
  EXPECT_THROW(short_nets({w0, w1}, {0}), std::invalid_argument);
  EXPECT_THROW(short_nets({w0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(short_nets({}, {3}), std::invalid_argument);
  EXPECT_TRUE(short_nets({}, {}).empty());
}

// ---- Hoisted, pooled sweep vs the historical serial loop -----------------

// The per-size body as it stood before the nets were hoisted: rebuild the
// doubled-grid components (or the per-net unions) at every size.
Area oracle_short_ca(const Region& layer, Coord s) {
  if (s <= 0 || layer.empty()) return 0;
  std::vector<Rect> bloated;
  for (const Region& net : layer.scaled(2).components()) {
    const Region grown = net.bloated(s);
    for (const Rect& r : grown.rects()) bloated.push_back(r);
  }
  return covered_at_least(bloated, 2).area() / 4;
}

Area oracle_short_ca_nets(const std::vector<Region>& pieces,
                          const std::vector<int>& net_of, Coord s) {
  if (s <= 0 || pieces.empty()) return 0;
  std::map<int, Region> nets;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    nets[net_of[i]].add(pieces[i]);
  }
  std::vector<Rect> bloated;
  for (auto& [id, net] : nets) {
    const Region grown = net.scaled(2).bloated(s);
    for (const Rect& r : grown.rects()) bloated.push_back(r);
  }
  return covered_at_least(bloated, 2).area() / 4;
}

// The historical serial integration: evaluate and accumulate in one loop.
double oracle_average(const std::function<Area(Coord)>& ca,
                      const DefectModel& model, int steps) {
  const double a = static_cast<double>(model.x0);
  const double b = static_cast<double>(model.xmax);
  if (steps < 2 || b <= a) return 0.0;
  const double ratio = std::pow(b / a, 1.0 / (steps - 1));
  double prev_s = a;
  double prev_v = static_cast<double>(ca(model.x0)) * model.pdf(model.x0);
  double acc = 0.0;
  double s = a;
  for (int i = 1; i < steps; ++i) {
    s *= ratio;
    const auto si = static_cast<Coord>(std::llround(s));
    const double v = static_cast<double>(ca(si)) * model.pdf(si);
    acc += 0.5 * (prev_v + v) * (s - prev_s);
    prev_s = s;
    prev_v = v;
  }
  return acc;
}

double oracle_lambda(double eca_nm2, const DefectModel& model) {
  const double eca_cm2 = eca_nm2 / 1e14;
  return model.d0 * eca_cm2;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Random rect layers: case 0 is empty, case 1 a single net, the rest
// scatter rects (odd and even coordinates) some of which touch a
// neighbour edge-on or overlap an earlier rect.
std::vector<Region> random_pieces(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Region> pieces;
  Rect last{0, 0, 0, 0};
  for (int i = 0; i < n; ++i) {
    const Coord x = rng.uniform(0, 2400);
    const Coord y = rng.uniform(0, 2400);
    Rect r{x, y, x + rng.uniform(15, 260), y + rng.uniform(15, 260)};
    if (i > 0 && rng.chance(0.2)) {  // abut the previous rect's right edge
      r = Rect{last.hi.x, last.lo.y, last.hi.x + rng.uniform(15, 200),
               last.lo.y + rng.uniform(15, 200)};
    } else if (i > 0 && rng.chance(0.2)) {  // overlap it
      r = Rect{last.lo.x + 7, last.lo.y + 5, last.hi.x + 41, last.hi.y + 3};
    }
    pieces.emplace_back(r);
    last = r;
  }
  return pieces;
}

Region union_of(const std::vector<Region>& pieces) {
  Region out;
  for (const Region& p : pieces) out.add(p);
  return out;
}

class CriticalAreaProperty : public ::testing::TestWithParam<int> {};

TEST_P(CriticalAreaProperty, PooledSweepMatchesHistoricalSerialLoop) {
  const int c = GetParam();
  std::vector<Region> pieces;
  if (c == 1) {
    pieces = {Region{Rect{0, 0, 900, 61}}, Region{Rect{0, 0, 57, 900}}};
  } else if (c > 1) {
    pieces = random_pieces(1000 + static_cast<std::uint64_t>(c), 6 + 3 * c);
  }
  const Region layer = union_of(pieces);
  Rng rng(77 + static_cast<std::uint64_t>(c));
  std::vector<int> net_of;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    net_of.push_back(static_cast<int>(rng.uniform(0, 4)));
  }
  DefectModel m;
  m.d0 = 100;
  m.x0 = 41;  // odd: the grid holds odd and even sizes
  m.xmax = 900;

  // Per size, odd and even, against the rebuilt-every-size loop.
  const std::vector<Region> nets = short_nets(layer);
  const std::vector<Region> by_net = short_nets(pieces, net_of);
  for (const Coord s : {1, 2, 41, 56, 97, 150, 333, 900}) {
    SCOPED_TRACE("s=" + std::to_string(s));
    EXPECT_EQ(short_critical_area(nets, s), oracle_short_ca(layer, s));
    EXPECT_EQ(short_critical_area(by_net, s),
              oracle_short_ca_nets(pieces, net_of, s));
  }

  const double want_short_avg = oracle_average(
      [&](Coord s) { return oracle_short_ca(layer, s); }, m, 24);
  const double want_shorts = oracle_lambda(want_short_avg, m);
  const double want_opens = oracle_lambda(
      oracle_average([&](Coord s) { return open_critical_area(layer, s); }, m,
                     24),
      m);
  const double want_nets = oracle_lambda(
      oracle_average(
          [&](Coord s) { return oracle_short_ca_nets(pieces, net_of, s); }, m,
          16),
      m);
  if (c >= 2) {
    ASSERT_GT(want_shorts, 0.0) << "a random layer should carry shorts";
  }

  ThreadPool p1(1);
  ThreadPool p2(2);
  ThreadPool p8(8);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p2, &p8}) {
    SCOPED_TRACE(pool == nullptr ? std::string{"pool=null"}
                                 : "pool=" + std::to_string(pool->concurrency()));
    const double avg = average_critical_area(
        [&](Coord s) { return short_critical_area(nets, s); }, m, 24, pool);
    EXPECT_TRUE(same_bits(avg, want_short_avg)) << avg << " vs "
                                                << want_short_avg;
    const double shorts = layer_lambda(layer, m, true, 24, pool);
    EXPECT_TRUE(same_bits(shorts, want_shorts)) << shorts << " vs "
                                                << want_shorts;
    const double opens = layer_lambda(layer, m, false, 24, pool);
    EXPECT_TRUE(same_bits(opens, want_opens)) << opens << " vs " << want_opens;
    const double net_shorts =
        short_lambda(short_nets(pieces, net_of), m, 16, pool);
    EXPECT_TRUE(same_bits(net_shorts, want_nets)) << net_shorts << " vs "
                                                  << want_nets;
  }
}

INSTANTIATE_TEST_SUITE_P(Layers, CriticalAreaProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace dfm
