// FDBSCAN-DenseBox (§4.2): FDBSCAN with special treatment of dense
// regions. A Cartesian grid with cell length eps/sqrt(d) is superimposed
// over the domain; cells holding >= minpts points ("dense cells") consist
// solely of core points of a single cluster, so
//   * no distance computations are spent among points of the same cell,
//   * the BVH is built over a *mixed* set of primitives — the boxes of
//     the dense cells plus the individual points outside them — which
//     both shrinks the tree and makes merging dense cells cheap.
//
// Preprocessing only examines points outside dense cells (everything
// inside is core by construction). The main phase first unions each dense
// cell internally, then runs the tree search for all points: a discovered
// dense box is resolved by scanning its members until one eps-close point
// is found (a single witness suffices — all members share a cluster); a
// discovered isolated point is resolved per Algorithm 3.
//
// Every phase runs in grid-permutation order: the union-find and core
// flags are indexed by grid position (dense-cell members first, cell by
// cell, then the isolated points in primitive order), so a cell's
// members and a witness found by the membership scan are already
// positions, and query points are read from the grid's SoA mirror.
// Finalization writes labels and core flags back by point id; clusters
// are numbered in grid order, the same at any worker count.
//
// The kernels live in Engine::run_densebox() (core/engine.h); this free
// function is the one-shot convenience wrapper — every call rebuilds the
// grid and mixed BVH. Callers re-clustering the same points should hold
// an Engine, whose bundle cache skips the index phase on repeats.
#pragma once

#include <vector>

#include "core/engine.h"

namespace fdbscan {

template <int DIM>
[[nodiscard]] Clustering fdbscan_densebox(const std::vector<Point<DIM>>& points,
                                          const Parameters& params,
                                          const Options& options = {}) {
  Engine<DIM> engine(points, EngineConfig{.memory = options.memory});
  return engine.run_densebox(params, options);
}

}  // namespace fdbscan
