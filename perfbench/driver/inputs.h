// Seeded inputs of every workload. The same seed gives the same
// libraries and so byte-identical GDSII files; the program under test
// only ever sees the generated files.
#pragma once

#include "core/dfm_flow.h"
#include "layout/library.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Designs the signoff_cold op rotates over.
inline constexpr int kSignoffPool = 3;

/// A mixed 64-bit seed per (workload seed, input index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// signoff_cold / sharded_cold design `index`: one routed standard-cell
/// row at least 44 um wide, so every design spans three 20 um litho tiles.
dfm::Library signoff_design(std::uint64_t seed, int index);
/// eco_served design: a block of four rows at least 24 um wide; at the
/// eco_served litho_tile of 4 um it has 14 litho tiles.
dfm::Library eco_design(std::uint64_t seed);
/// fix_loop design: a small routed block, the same for every seed
/// (generator seed 7, bench_f5's rows, cells and routes but one 16-via
/// field), with seeded pathologies injected in a strip below it.
dfm::Library fix_design(std::uint64_t seed);

/// The first top cell (the generators make exactly one).
std::uint32_t top_of(const dfm::Library& lib);

/// Writes every input file of `workload` for `seed` into `dir` and
/// returns their paths (the seed-determinism check diffs two calls).
std::vector<std::string> write_inputs(const std::string& workload,
                                      std::uint64_t seed,
                                      const std::string& dir);

/// The ECO patch sites of a design: for each of the `count` full `tile`
/// litho tiles nearest the bbox center, the part of an `edge` square
/// centered in the tile that M1 does not already cover, as rects.
/// Adding a site's rects and then removing them restores the layout
/// exactly, and each edit dirties exactly one litho tile.
std::vector<std::vector<dfm::Rect>> eco_patch_sites(
    const dfm::LayoutSnapshot& snap, dfm::Coord tile, dfm::Coord edge,
    std::size_t count);

}  // namespace perfbench
