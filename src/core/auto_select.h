// Heuristic algorithm selection — the paper's first future-work item
// (§6): "we envision using a heuristic to switch between FDBSCAN and
// FDBSCAN-DenseBox for a given problem".
//
// The driver of the trade-off (§5) is the dense-cell population: when a
// large share of the points lives in cells of the eps/sqrt(d) grid with
// >= minpts points, DenseBox collapses their pairwise work; when the
// share is small, DenseBox only pays grid construction and mixed-tree
// overhead (Fig. 6's crossover). The heuristic estimates that share on a
// random subsample — cell occupancy statistics concentrate fast, so a
// few thousand points suffice — and dispatches on a threshold calibrated
// with the ablation bench.
#pragma once

#include <random>
#include <unordered_map>
#include <vector>

#include "core/clustering.h"
#include "core/engine.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "grid/dense_grid.h"

namespace fdbscan {

struct AutoSelectConfig {
  /// Subsample size used for the estimate.
  std::int32_t sample_size = 4096;
  /// Dispatch to DenseBox when the estimated dense-point fraction is at
  /// least this threshold (Fig. 6: the crossover sits where the dense
  /// population stops paying for the grid overhead).
  double densebox_threshold = 0.10;
  std::uint64_t seed = 0x5eed;
};

namespace detail {

/// Draw m of [0, n) uniformly *without replacement* via a partial
/// Fisher–Yates over a virtual identity array: only touched entries are
/// materialized in a hash map, so the shuffle costs O(m) regardless of n.
/// The index at each step is drawn with std::uniform_int_distribution —
/// rejection-sampled, unlike the `rng() % range` it replaces, which both
/// biased small indices (2^64 mod range leftovers) and, sampling *with*
/// replacement, produced duplicate points that inflated cell occupancies
/// and thus the dense-fraction estimate.
inline std::vector<std::int64_t> sample_without_replacement(
    std::int64_t n, std::int64_t m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<std::int64_t, std::int64_t> displaced;
  displaced.reserve(static_cast<std::size_t>(2 * m));
  const auto at = [&](std::int64_t i) {
    const auto it = displaced.find(i);
    return it == displaced.end() ? i : it->second;
  };
  std::vector<std::int64_t> picks;
  picks.reserve(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    std::uniform_int_distribution<std::int64_t> dist(i, n - 1);
    const std::int64_t j = dist(rng);
    picks.push_back(at(j));
    displaced[j] = at(i);  // swap the "front" element into the used slot
  }
  return picks;
}

}  // namespace detail

/// Estimated fraction of points lying in dense cells, from a subsample.
/// The subsample sees proportionally fewer points per cell, so the
/// occupancy threshold is scaled by the sampling ratio.
template <int DIM>
[[nodiscard]] double estimate_dense_fraction(
    const std::vector<Point<DIM>>& points, const Parameters& params,
    const AutoSelectConfig& config = {}) {
  const auto n = static_cast<std::int64_t>(points.size());
  if (n == 0) return 0.0;
  const std::int64_t m = std::min<std::int64_t>(config.sample_size, n);
  std::vector<Point<DIM>> sample;
  if (m == n) {
    sample = points;
  } else {
    sample.reserve(static_cast<std::size_t>(m));
    for (const std::int64_t i :
         detail::sample_without_replacement(n, m, config.seed)) {
      sample.push_back(points[static_cast<std::size_t>(i)]);
    }
  }
  // A cell with k points in the full set holds ~k*m/n sample points:
  // rescale minpts accordingly (at least 2 so "dense" keeps meaning).
  const double ratio = static_cast<double>(m) / static_cast<double>(n);
  const auto scaled_minpts = std::max<std::int32_t>(
      2, static_cast<std::int32_t>(params.minpts * ratio + 0.5));
  DenseGrid<DIM> grid(sample, params.eps, scaled_minpts);
  return static_cast<double>(grid.points_in_dense_cells()) /
         static_cast<double>(m);
}

/// Result of the heuristic dispatch.
template <int DIM>
struct AutoSelection {
  Clustering clustering;
  bool used_densebox = false;
  double estimated_dense_fraction = 0.0;
};

/// The selection policy alone: the subsample estimate and the threshold
/// decision, with `clustering` left empty. fdbscan_auto and the
/// service's staging of Method::kAuto requests both decide through it.
template <int DIM>
[[nodiscard]] AutoSelection<DIM> auto_select(
    const std::vector<Point<DIM>>& points, const Parameters& params,
    const AutoSelectConfig& config = {}) {
  AutoSelection<DIM> selection;
  selection.estimated_dense_fraction =
      estimate_dense_fraction(points, params, config);
  selection.used_densebox =
      selection.estimated_dense_fraction >= config.densebox_threshold;
  return selection;
}

/// Heuristic dispatch running on an existing Engine: FDBSCAN-DenseBox
/// when the dense-cell population justifies the grid overhead, plain
/// FDBSCAN otherwise. Results are identical either way (both implement
/// the same specification); only performance differs. Reuses the
/// engine's cached indexes and workspace like any other run.
template <int DIM>
[[nodiscard]] AutoSelection<DIM> fdbscan_auto(
    Engine<DIM>& engine, const Parameters& params, const Options& options = {},
    const AutoSelectConfig& config = {}) {
  AutoSelection<DIM> result = auto_select(engine.points(), params, config);
  result.clustering = result.used_densebox
                          ? engine.run_densebox(params, options)
                          : engine.run(params, options);
  return result;
}

/// One-shot heuristic dispatch over a bare point set.
template <int DIM>
[[nodiscard]] AutoSelection<DIM> fdbscan_auto(
    const std::vector<Point<DIM>>& points, const Parameters& params,
    const Options& options = {}, const AutoSelectConfig& config = {}) {
  Engine<DIM> engine(points, EngineConfig{.memory = options.memory});
  return fdbscan_auto(engine, params, options, config);
}

}  // namespace fdbscan
