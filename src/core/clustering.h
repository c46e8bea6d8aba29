// Public result types and shared kernels of the DBSCAN framework (§3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/atomic.h"
#include "exec/memory_tracker.h"
#include "exec/parallel.h"
#include "exec/profile.h"
#include "unionfind/union_find.h"

namespace fdbscan {

/// Label assigned to noise points in a finalized clustering.
inline constexpr std::int32_t kNoise = -1;

/// DBSCAN parameters. `eps` is the neighborhood radius; `minpts` is the
/// density threshold (|N_eps(x)| >= minpts, N including x itself, makes x
/// a core point). minpts == 2 triggers the Friends-of-Friends fast path
/// that skips the preprocessing phase (Alg. 3 line 2).
struct Parameters {
  float eps = 0.0f;
  std::int32_t minpts = 2;
};

/// Which clustering semantics to compute.
enum class Variant : std::uint8_t {
  kDbscan,      ///< classic DBSCAN: border points join one adjacent cluster
  kDbscanStar,  ///< DBSCAN* (Campello et al.): border points become noise
};

/// Tuning/ablation switches for the tree-based algorithms.
struct Options {
  Variant variant = Variant::kDbscan;
  /// §4.1 masked ("half") traversal in the main phase. Disable only for
  /// the ablation bench; results are identical either way.
  bool masked_traversal = true;
  /// Early exit from the preprocessing traversal once minpts neighbors
  /// are seen. Disable only for the ablation bench.
  bool early_exit = true;
  /// FDBSCAN-DenseBox only: scales the grid cell width relative to the
  /// paper's eps/sqrt(d). Must be in (0, 1]: larger would break the
  /// cell-diameter <= eps invariant. Values < 1 trade fewer points per
  /// dense cell for tighter boxes (design-choice ablation, DESIGN.md §4).
  float densebox_cell_width_factor = 1.0f;
  /// Optional device-memory accounting / OOM simulation.
  exec::MemoryTracker* memory = nullptr;
};

/// Phase timing breakdown (seconds) reported by every algorithm, plus
/// the kernel profile of each phase (launches, chunks, per-worker busy
/// time) from which the benches derive load imbalance (DESIGN.md §7).
struct PhaseTimings {
  double index_construction = 0.0;  ///< grid and/or tree build
  double preprocessing = 0.0;       ///< core-point determination
  double main = 0.0;                ///< neighbor traversal + union-find
  double finalization = 0.0;        ///< flatten + label assignment

  exec::KernelPhaseProfile index_construction_profile;
  exec::KernelPhaseProfile preprocessing_profile;
  exec::KernelPhaseProfile main_profile;
  exec::KernelPhaseProfile finalization_profile;

  /// Amortization counters of the run (core/engine.h, DESIGN.md §9).
  /// A one-shot free-function call reports one index build plus the
  /// warmup workspace growths; a warmed Engine run reports zero of both
  /// — the property the bench telemetry gates.
  bool engine_run = false;          ///< run went through an Engine
  std::int32_t index_rebuilds = 0;  ///< BVH constructions in this run
  std::int32_t grid_cache_hits = 0;     ///< DenseGrid cache hits
  std::int32_t workspace_reallocs = 0;  ///< workspace arena growths

  [[nodiscard]] double total() const noexcept {
    return index_construction + preprocessing + main + finalization;
  }
};

/// A finalized clustering.
struct Clustering {
  /// Per-point label: kNoise, or the cluster id in [0, num_clusters).
  std::vector<std::int32_t> labels;
  /// Per-point core flag (1 = core). Border points are clustered but not
  /// core; with Variant::kDbscanStar border points are noise.
  std::vector<std::uint8_t> is_core;
  std::int32_t num_clusters = 0;
  PhaseTimings timings;
  /// Peak auxiliary bytes if a MemoryTracker was supplied, else 0.
  std::size_t peak_memory_bytes = 0;
  /// Dense-grid statistics (FDBSCAN-DenseBox only; zero otherwise).
  std::int32_t num_dense_cells = 0;
  std::int32_t points_in_dense_cells = 0;
  /// Architecture-neutral work counters (see bvh::TraversalStats): the
  /// number of point-point distance evaluations across all phases, and
  /// the number of index nodes whose bounds were tested. These reproduce
  /// the paper's efficiency arguments independently of the execution
  /// substrate (DESIGN.md §6).
  std::int64_t distance_computations = 0;
  std::int64_t index_nodes_visited = 0;
  /// Sharded-execution totals (shard/sharded_engine.h; zero for
  /// single-engine runs). `shard_halo_bytes` is the communication volume
  /// a real exchange would ship for the run's eps: per ghost, the
  /// coordinates plus the global id on the way in and the owner's core
  /// flag on the way back.
  std::int32_t num_shards = 0;
  std::int64_t shard_ghosts = 0;       ///< ghost copies across all shards
  std::int64_t shard_cross_edges = 0;  ///< pair-once edges with a ghost endpoint
  std::int64_t shard_halo_bytes = 0;

  [[nodiscard]] std::int64_t num_noise() const noexcept {
    std::int64_t k = 0;
    for (auto l : labels) k += (l == kNoise);
    return k;
  }
};

namespace detail {

/// Edge resolution of Algorithm 3 (lines 6-12) for a traversal from x
/// (core flag `xc`) over its neighbours y. Core status of both
/// endpoints must already be known. `rx` is a member of x's set that the
/// traversal keeps across its neighbours (pass x first): core-core pairs
/// go through UnionFindView::merge_cached, and border claims into x's
/// cluster start their find at `rx`. Safe to call concurrently; border
/// claims go through a single CAS (no critical section). Under DBSCAN*
/// border points are left unassigned (they become noise).
inline void resolve_pair_cached(const UnionFindView& uf,
                                std::span<const std::uint8_t> is_core,
                                bool xc, std::int32_t x, std::int32_t& rx,
                                std::int32_t y, Variant variant) noexcept {
  const bool yc = is_core[static_cast<std::size_t>(y)] != 0;
  if (xc && yc) {
    uf.merge_cached(rx, y);
  } else if (variant == Variant::kDbscan) {
    if (xc) {
      uf.claim(y, rx);  // y is a border point of x's cluster
    } else if (yc) {
      uf.claim(x, y);
    }
  }
}

/// resolve_pair_cached for a single pair, with no member kept across
/// calls: the sharded and streaming engines and the baselines.
inline void resolve_pair(const UnionFindView& uf,
                         std::span<const std::uint8_t> is_core,
                         std::int32_t x, std::int32_t y,
                         Variant variant) noexcept {
  std::int32_t rx = x;
  resolve_pair_cached(uf, is_core, is_core[static_cast<std::size_t>(x)] != 0,
                      x, rx, y, variant);
}

/// Dense cluster ids and the relabel pass shared by both finalize
/// overloads below. Writes each point's final label to `out` (and its
/// core flag to `core_out`, when given) at its point id: `order[i]` when
/// an order is given, else `i`. Returns the number of clusters.
inline std::int32_t rank_and_relabel(const std::int32_t* labels,
                                     std::int64_t n,
                                     const std::uint8_t* is_core,
                                     std::int32_t* compact,
                                     const std::int32_t* order,
                                     std::int32_t* out,
                                     std::uint8_t* core_out) {
  // Rank the roots with an exclusive scan to obtain dense cluster ids.
  exec::parallel_for("finalize/core-roots", n, [&](std::int64_t i) {
    const auto ui = static_cast<std::size_t>(i);
    compact[ui] = (labels[ui] == static_cast<std::int32_t>(i) &&
                   is_core[ui] != 0)
                      ? 1
                      : 0;
  });
  const std::int32_t num_clusters =
      exec::exclusive_scan("finalize/cluster-rank", compact, n);
  exec::parallel_for("finalize/relabel", n, [&](std::int64_t i) {
    const auto ui = static_cast<std::size_t>(i);
    const auto id = static_cast<std::size_t>(
        order != nullptr ? order[ui] : static_cast<std::int32_t>(i));
    if (is_core[ui] == 0 && labels[ui] == static_cast<std::int32_t>(i)) {
      out[id] = kNoise;
    } else {
      out[id] = compact[static_cast<std::size_t>(labels[ui])];
    }
    if (core_out != nullptr) core_out[id] = is_core[ui];
  });
  return num_clusters;
}

/// Turns a *flattened* union-find labels array + core flags into a
/// finalized Clustering: noise points get kNoise and clusters are
/// renumbered densely to [0, num_clusters) in the order of their roots.
/// A point is noise iff it is not core and was never claimed
/// (labels[i] == i); every cluster root is a core point with
/// labels[root] == root. `compact` is caller-provided scratch of n int32
/// (the Engine hands in a reused workspace slot so a warmed run
/// allocates only the result vectors); its contents on return are
/// unspecified. This overload takes labels and core flags indexed by
/// point id and moves `is_core` into the result.
inline Clustering finalize_labels_with_scratch(
    const std::int32_t* labels, std::int64_t n,
    std::vector<std::uint8_t>&& is_core, std::int32_t* compact) {
  Clustering result;
  result.labels.resize(static_cast<std::size_t>(n));
  result.num_clusters = rank_and_relabel(labels, n, is_core.data(), compact,
                                         nullptr, result.labels.data(),
                                         nullptr);
  result.is_core = std::move(is_core);
  return result;
}

/// The same for labels and core flags kept in an index's own order
/// (FDBSCAN's BVH leaf order, DenseBox's grid order): `order[i]` is the
/// point id at index position i. The relabel pass writes labels and core
/// flags by point id, so mapping back costs no pass of its own, and
/// `is_core` stays caller scratch (a workspace slot). Clusters are
/// numbered in index order: deterministic at any worker count.
inline Clustering finalize_labels_with_scratch(
    const std::int32_t* labels, std::int64_t n,
    std::span<const std::uint8_t> is_core, std::int32_t* compact,
    std::span<const std::int32_t> order) {
  Clustering result;
  result.labels.resize(static_cast<std::size_t>(n));
  result.is_core.resize(static_cast<std::size_t>(n));
  result.num_clusters = rank_and_relabel(
      labels, n, is_core.data(), compact, order.data(), result.labels.data(),
      result.is_core.data());
  return result;
}

/// Convenience overload owning its scratch — the baselines' path.
inline Clustering finalize_labels(std::vector<std::int32_t>&& labels,
                                  std::vector<std::uint8_t>&& is_core) {
  const auto n = static_cast<std::int64_t>(labels.size());
  std::vector<std::int32_t> compact(labels.size());
  return finalize_labels_with_scratch(labels.data(), n, std::move(is_core),
                                      compact.data());
}

}  // namespace detail
}  // namespace fdbscan
