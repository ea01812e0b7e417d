// Defect-limited yield: critical area analysis for shorts and opens with
// square (Chebyshev) defects, the classical power-law defect size
// distribution, Poisson / negative-binomial yield models, and the
// redundant-via insertion engine.
#pragma once

#include "geometry/region.h"
#include "layout/layer_map.h"
#include "layout/tech.h"

#include <functional>
#include <vector>

namespace dfm {

class LayoutDelta;     // core/delta.h
class LayoutSnapshot;  // core/snapshot.h
class ThreadPool;      // core/parallel.h

/// Power-law defect size distribution f(s) ~ 1/s^k on [x0, xmax] — the
/// standard model in the critical-area literature (k = 3 typical).
struct DefectModel {
  double d0 = 1.0;      // defect density, defects per cm^2
  Coord x0 = 40;        // smallest defect, nm
  Coord xmax = 2000;    // largest defect, nm
  double exponent = 3.0;

  /// Normalized pdf at size s (nm^-1); 0 outside [x0, xmax].
  double pdf(Coord s) const;
};

/// The nets of one layer for short critical area, built once per layer:
/// each connected component of `layer` is a net (the conservative
/// layer-local estimate). Nets are returned on the doubled grid (every
/// coordinate x2, so odd defect sizes stay exact) and normalized, so a
/// size sweep can share them read-only across pool tasks.
std::vector<Region> short_nets(const Region& layer);

/// Net-aware variant: `net_of[i]` labels `pieces[i]`, and the pieces of
/// one net are unioned (in ascending label order), so two same-layer
/// shapes joined through another layer do not count as a short. Strictly
/// <= the layer-local estimate. Throws std::invalid_argument when the two
/// vectors differ in length.
std::vector<Region> short_nets(const std::vector<Region>& pieces,
                               const std::vector<int>& net_of);

/// Critical area for *shorts* at one defect size: the set of defect
/// centers where a square defect of side `s` bridges two distinct nets
/// from short_nets. Exact under the Chebyshev defect model.
Area short_critical_area(const std::vector<Region>& nets, Coord s);

/// Critical area for *opens* at one defect size: per-band analytic
/// approximation — a square defect of side `s` centered in a wire band of
/// cross-section h contributes (s - h) of breakable strip per unit
/// length. Exact for isolated straight wires; approximate at junctions.
Area open_critical_area(const Region& layer, Coord s);

/// Monte Carlo estimator for opens (connectivity-checked); for
/// cross-validation of the analytic approximation.
Area open_critical_area_mc(const Region& layer, Coord s, int samples,
                           std::uint64_t seed);

/// Expected critical area over the defect size distribution, integrated
/// on a geometric grid of `steps` sizes. `ca` is evaluated at every size
/// first — concurrently on `pool` when given, so it must be safe to call
/// from several threads — and the trapezoid sum then runs serially in
/// grid order, so the result does not depend on the pool.
double average_critical_area(const std::function<Area(Coord)>& ca,
                             const DefectModel& model, int steps = 24,
                             ThreadPool* pool = nullptr);

/// Poisson yield: exp(-lambda).
double poisson_yield(double lambda);
/// Negative binomial (clustered defects): (1 + lambda/alpha)^-alpha.
double negative_binomial_yield(double lambda, double alpha);

/// Fault rate lambda for one layer: d0 [cm^-2] x expected critical area,
/// with nm^2 -> cm^2 conversion. For shorts the layer's nets are built
/// once and every size of the sweep reads them.
double layer_lambda(const Region& layer, const DefectModel& model,
                    bool shorts, int steps = 24, ThreadPool* pool = nullptr);

/// Shorts fault rate over prebuilt `nets` (from short_nets).
double short_lambda(const std::vector<Region>& nets, const DefectModel& model,
                    int steps = 24, ThreadPool* pool = nullptr);

// ---- Redundant via insertion ----------------------------------------------

struct ViaDoublingResult {
  int total = 0;            // single-cut via sites examined
  int redundant_before = 0; // sites that already have a redundant partner
  int singles_before = 0;   // sites without redundancy in the input
  int inserted = 0;         // redundant vias successfully added
  int blocked = 0;          // singles with no legal position
  Region new_vias;          // the added via shapes
  Region new_metal1;        // landing-pad extensions added
  Region new_metal2;

  friend bool operator==(const ViaDoublingResult&,
                         const ViaDoublingResult&) = default;
};

namespace detail {
// Shared implementation the snapshot overload routes through.
ViaDoublingResult double_vias_impl(const LayerMap& layers, const Tech& tech);
}  // namespace detail

/// Attempts to add a redundant via beside every isolated via, extending
/// the landing pads when needed; a position is legal when via spacing to
/// every other via is kept and the pad extension creates no new
/// metal-spacing violation. A via already paired with a neighbour on
/// the same landing pads (another cut within two steps whose joint pad
/// is covered on both metals — exactly what an insertion leaves behind)
/// counts as redundant and is left alone, so doubling is idempotent:
/// re-running on a doubled layout inserts nothing. Reads the snapshot's
/// memoized metal R-trees, so every legality probe is local to the
/// candidate pad.
ViaDoublingResult double_vias(const LayoutSnapshot& snap, const Tech& tech);

/// The layout edit a doubling result represents (new vias + pad
/// extensions), as a delta incremental re-analysis can apply.
LayoutDelta to_delta(const ViaDoublingResult& result);

/// Via-limited yield: singles fail at `fail_rate`, doubled pairs at
/// fail_rate^2.
double via_yield(std::int64_t singles, std::int64_t doubles, double fail_rate);

}  // namespace dfm
