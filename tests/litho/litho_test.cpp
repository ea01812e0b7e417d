#include "litho/litho.h"

#include <gtest/gtest.h>

namespace dfm {
namespace {

OpticalModel model() {
  OpticalModel m;
  m.sigma = 30;
  m.threshold = 0.5;
  m.px = 5;
  return m;
}

TEST(Raster, CoverageFractionsAreExact) {
  const Region r{Rect{0, 0, 10, 10}};
  const Raster img = rasterize(r, Rect{0, 0, 20, 20}, 10);
  ASSERT_EQ(img.nx, 2);
  ASSERT_EQ(img.ny, 2);
  EXPECT_FLOAT_EQ(img.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 1), 0.0f);
}

TEST(Raster, PartialPixelCoverage) {
  const Region r{Rect{0, 0, 5, 10}};  // half of one 10x10 pixel
  const Raster img = rasterize(r, Rect{0, 0, 10, 10}, 10);
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.5f);
}

TEST(Raster, SampleBilinear) {
  const Region r{Rect{0, 0, 10, 20}};
  const Raster img = rasterize(r, Rect{0, 0, 20, 20}, 10);
  // Left pixel 1.0, right 0.0; halfway between centers ~0.5.
  EXPECT_NEAR(img.sample({10, 10}), 0.5, 1e-6);
  EXPECT_NEAR(img.sample({5, 10}), 1.0, 1e-6);
}

TEST(Raster, OversizeWindowRejected) {
  EXPECT_THROW(rasterize(Region{}, Rect{0, 0, 10000000, 10000000}, 1),
               std::invalid_argument);
  EXPECT_THROW(rasterize(Region{}, Rect{0, 0, 10, 10}, 0),
               std::invalid_argument);
}

TEST(LithoFast, ParsesAutoAndOffOnly) {
  for (const LithoFastMode m : {LithoFastMode::kAuto, LithoFastMode::kOff}) {
    EXPECT_EQ(parse_litho_fast(litho_fast_name(m)), m);
  }
  EXPECT_STREQ(litho_fast_name(LithoFastMode::kAuto), "auto");
  EXPECT_STREQ(litho_fast_name(LithoFastMode::kOff), "off");
  for (const char* name : {"fft", "direct", "", "AUTO", "auto "}) {
    EXPECT_EQ(parse_litho_fast(name), std::nullopt) << '"' << name << '"';
  }
}

TEST(Aerial, WideFeatureReachesFullIntensity) {
  // A feature much wider than the PSF prints at ~1.0 in its middle.
  const Region mask{Rect{-500, -500, 500, 500}};
  const Raster img = aerial_image(mask, Rect{-100, -100, 100, 100}, model());
  EXPECT_GT(img.sample({0, 0}), 0.98);
}

TEST(Aerial, EdgeIntensityIsHalf) {
  // A straight edge of a large feature images at exactly 1/2.
  const Region mask{Rect{0, -1000, 1000, 1000}};
  const Raster img = aerial_image(mask, Rect{-100, -100, 100, 100}, model());
  EXPECT_NEAR(img.sample({0, 0}), 0.5, 0.03);
}

TEST(Aerial, NarrowLineLosesContrast) {
  const OpticalModel m = model();
  const Region wide{Rect{-200, -1000, 200, 1000}};
  const Region narrow{Rect{-20, -1000, 20, 1000}};
  const Rect w{-100, -100, 100, 100};
  const double iw = aerial_image(wide, w, m).sample({0, 0});
  const double in = aerial_image(narrow, w, m).sample({0, 0});
  EXPECT_GT(iw, 0.95);
  EXPECT_LT(in, 0.6);  // 40nm line vs 30nm sigma: well below full intensity
}

TEST(Printed, LargeSquarePrintsWithRoundedCorners) {
  const Region mask{Rect{0, 0, 400, 400}};
  const Rect w{-100, -100, 500, 500};
  const Region printed = simulate_print(mask, w, model());
  EXPECT_FALSE(printed.empty());
  // Center prints, corners pull back.
  EXPECT_TRUE(printed.contains({200, 200}));
  EXPECT_FALSE(printed.contains({2, 2}));  // corner rounding
  // Mid-edges print close to target.
  EXPECT_TRUE(printed.contains({200, 10}));
}

TEST(Printed, DoseScalesFeatureSize) {
  const Region mask{Rect{0, 0, 100, 2000}};
  const Rect w{-200, 900, 300, 1100};
  const OpticalModel m = model();
  const Region under = simulate_print(mask, w, m, {0.8, 0});
  const Region nominal = simulate_print(mask, w, m, {1.0, 0});
  const Region over = simulate_print(mask, w, m, {1.25, 0});
  EXPECT_LT(under.area(), nominal.area());
  EXPECT_LT(nominal.area(), over.area());
}

TEST(Printed, DefocusShrinksNarrowLine) {
  const Region mask{Rect{0, 0, 60, 2000}};
  const Rect w{-200, 900, 260, 1100};
  const OpticalModel m = model();
  const Area focused = simulate_print(mask, w, m, {1.0, 0}).area();
  const Area defocused = simulate_print(mask, w, m, {1.0, 80}).area();
  EXPECT_LT(defocused, focused);
}

TEST(Gauge, MeasuresLineCd) {
  const OpticalModel m = model();
  const Region mask{Rect{0, -2000, 100, 2000}};
  const Raster img = aerial_image(mask, Rect{-200, -200, 300, 200}, m);
  const Gauge g{{-150, 0}, {250, 0}, "line"};
  const double cd = measure_cd(img, m, {1.0, 0}, g);
  // An isolated 100nm line at threshold 0.5 prints near drawn size.
  EXPECT_NEAR(cd, 100, 15);
}

TEST(Gauge, ReportsPinchAsNegative) {
  const OpticalModel m = model();
  const Region mask{Rect{0, -2000, 12, 2000}};  // far below resolution
  const Raster img = aerial_image(mask, Rect{-200, -200, 200, 200}, m);
  const Gauge g{{-150, 0}, {150, 0}, "thin"};
  EXPECT_LT(measure_cd(img, m, {1.0, 0}, g), 0);
}

TEST(Bossung, DoseMonotoneAtEveryFocus) {
  const OpticalModel m = model();
  const Region mask{Rect{0, -2000, 100, 2000}};
  const Gauge g{{-150, 0}, {250, 0}, "line"};
  const auto pts = bossung(mask, Rect{-200, -200, 300, 200}, m, g,
                           {0.85, 1.0, 1.15}, {0, 60});
  ASSERT_EQ(pts.size(), 6u);
  // Within each defocus row, higher dose -> larger CD (bright feature).
  for (std::size_t row = 0; row < 2; ++row) {
    const double lo = pts[row * 3 + 0].cd;
    const double mid = pts[row * 3 + 1].cd;
    const double hi = pts[row * 3 + 2].cd;
    EXPECT_LT(lo, mid);
    EXPECT_LT(mid, hi);
  }
}

TEST(PvBand, AlwaysSubsetOfSometimes) {
  const OpticalModel m = model();
  Region mask;
  mask.add(Rect{0, 0, 100, 1000});
  mask.add(Rect{160, 0, 260, 1000});
  const Rect w{-100, 400, 360, 600};
  const std::vector<ProcessCondition> corners = {
      {0.9, 0}, {1.1, 0}, {0.9, 70}, {1.1, 70}};
  const PvBand band = pv_band(mask, w, m, corners);
  EXPECT_TRUE((band.always - band.sometimes).empty());
  EXPECT_FALSE(band.band().empty());  // dose range must move edges
  EXPECT_GT(band.sometimes.area(), band.always.area());
}

TEST(Hotspots, CleanWideLineHasNone) {
  const OpticalModel m = model();
  const Region target{Rect{0, 0, 200, 3000}};
  const auto spots = litho_hotspots(target, Rect{-200, 1000, 400, 2000}, m, 25);
  EXPECT_TRUE(spots.empty());
}

TEST(Hotspots, SubResolutionLinePinches) {
  const OpticalModel m = model();
  const Region target{Rect{0, 0, 30, 3000}};  // 30nm line, sigma 30
  const auto spots = litho_hotspots(target, Rect{-200, 1000, 230, 2000}, m, 10);
  ASSERT_FALSE(spots.empty());
  EXPECT_EQ(spots[0].kind, HotspotKind::kPinch);
}

TEST(Hotspots, TinyGapBridges) {
  const OpticalModel m = model();
  Region target;
  target.add(Rect{0, 0, 300, 1000});
  target.add(Rect{320, 0, 620, 1000});  // 20nm gap, sigma 30: will bridge
  const auto spots =
      litho_hotspots(target, Rect{-100, 400, 720, 600}, m, 8);
  bool bridge = false;
  for (const Hotspot& h : spots) {
    if (h.kind == HotspotKind::kBridge) bridge = true;
  }
  EXPECT_TRUE(bridge);
}

TEST(Hotspots, SeverityOrdersByMissingArea) {
  const Region target{Rect{0, 0, 100, 100}};
  Region printed;  // nothing printed: one pinch of full eroded area
  const auto spots = find_hotspots(target, printed, 10);
  ASSERT_EQ(spots.size(), 1u);
  EXPECT_EQ(spots[0].kind, HotspotKind::kPinch);
  EXPECT_DOUBLE_EQ(spots[0].severity, 80.0 * 80.0);
}

}  // namespace
}  // namespace dfm
