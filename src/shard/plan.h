// Spatial partition of one layout for distributed analysis: a K x L
// grid of half-open, mutually disjoint shard *cores* tiling the layout
// bbox, each expanded by one shared *halo* into the shard's hydration
// *window*. Every unit the flow outsources (a min-width morphology
// window, a pattern capture site, a litho tile) reads only geometry
// within a bounded distance of its core, so a worker holding layer
// geometry clipped to its window reproduces the unit byte for byte.
//
// Halo derivation (shard_halo): the largest interaction distance of any
// outsourced unit —
//   * litho: a simulation tile is routed to the shard whose core holds
//     its center, so the worker window must cover tile/2 (center to
//     tile edge) plus the 6-sigma optical halo around the tile;
//   * patterns: a capture window reaches at most the set radius from
//     its anchor; the standard deck's radii derive from the tech
//     (8*m1_width and 2*(via_size + via_enclosure_end));
//   * min-width DRC: the opening morphology has influence radius ~w,
//     bounded by the deck's largest width term (wide_width).
// plus a small slack so boundary arithmetic never sits exactly on the
// influence radius.
#pragma once

#include "geometry/rect.h"
#include "layout/tech.h"
#include "pattern/capture.h"

#include <cstddef>
#include <vector>

namespace dfm::shard {

/// The halo (see file comment) for a flow over `tech` with litho tile
/// edge `litho_tile` and optical sigma `sigma`.
Coord shard_halo(const Tech& tech, Coord litho_tile, Coord sigma);

struct ShardPlan {
  Rect extent;   // the layout bbox the plan partitions
  Coord halo = 0;
  int nx = 0, ny = 0;          // grid shape, nx * ny == cores.size()
  std::vector<Rect> cores;     // row-major, half-open, disjoint tiling
  std::vector<Rect> windows;   // cores[i].expanded(halo)

  std::size_t size() const { return cores.size(); }

  /// The shard whose core owns point `p` (half-open containment; every
  /// layout point has exactly one owner); -1 outside the extent.
  int owner(const Point& p) const;

  /// Shards whose window intersects `r` — the recipients of an edit.
  std::vector<std::size_t> windows_overlapping(const Rect& r) const;

  /// Partitions `bbox` into `shards` cores. The grid factorization
  /// follows the bbox aspect ratio (wider than tall gets more columns),
  /// chosen deterministically; integer splits distribute the remainder
  /// to the leading rows/columns. `shards` is clamped to >= 1.
  static ShardPlan make(const Rect& bbox, int shards, Coord halo);
};

/// The shard that owns a litho tile — the one whose core holds the tile
/// center, provided its window covers the 6-sigma simulation window —
/// or -1 when none qualifies.
int route_litho_tile(const ShardPlan& plan, const Rect& tile_core,
                     Coord sigma);
/// The shard that owns a pattern site — core holds the anchor, window
/// covers the capture window — or -1.
int route_pattern_site(const ShardPlan& plan, const AnchorWindow& site);

}  // namespace dfm::shard
