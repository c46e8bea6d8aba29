// Streaming clustering sessions: incremental insert/expire on a warm
// Engine (DESIGN.md §14).
//
// A StreamingEngine owns a *mutable logical point set* ordered by
// arrival: every inserted point gets a monotone sequence number, and
// expire(before_seq) retires the oldest prefix (the sliding-window
// pattern of trajectory workloads). The structures:
//
//   * base_   — points covered by the eps-independent point BVH of an
//     inner Engine (core/engine.h). Built by the last full Morton
//     re-sort; never mutated in place.
//   * delta_  — the side buffer: points inserted since the last rebuild,
//     indexed by an eps-cell grid (Wang/Gu/Shun): a (cell key, slot)
//     array sorted by key, merged batch by batch on append, cut back on
//     rollback, cleared on rebuild. Its buffers only grow, so a warm
//     append allocates nothing.
//   * live_begin_ — lazy expiry. Sequence numbers are assigned in slot
//     order (base first, then delta), so the retired set is always a
//     slot *prefix*: expire just advances one cursor and dead points
//     are filtered out of probe results by an id compare.
//
// A query clusters the live set with the same two-phase kernels as
// Engine::run — core counting, then fused traverse+union — except every
// neighborhood probe is the union of a (dead-filtered) BVH traversal
// over base_ and a probe of the 3^DIM delta cells around the point.
// Because the logical point set and the resolved edge set are exactly
// those of a from-scratch run, labels are equivalent (up to cluster
// renumbering and the usual border-claim freedom) and core flags are
// bit-identical to re-clustering the same points from scratch — at any
// worker count, under both SIMD and scalar backends
// (tests/test_stream.cpp).
//
// The cell probe is exact: a pair passing the float test
// squared_distance(p, q) <= eps2 lies at most
// (sqrt(eps2) + 2^-74) * (1 + 2^-22) apart on every axis (float rounding
// of the differences, squares and sum, subnormals included); the cell
// side is that bound with the factor widened to 1 + 2^-16, and cell
// coordinates are computed in double, whose rounding stays below the
// margin, so such a pair is at most one cell apart on every axis. Coordinates are clamped to the
// packed key's range; clamping is monotone, so adjacent cells stay
// adjacent. An eps whose square overflows float puts every point in one
// cell. A delta probe's distance computations count the live candidates
// it tested (in (cell key, slot) order, so the count is deterministic).
//
// Incremental union-find (Wang/Gu/Shun-style cheap re-finalization):
// query parameters are pinned at construction, so the union-find
// parents, saturating neighbor counts and core flags persist across
// queries. An insert() while that state is valid only processes the new
// points' edges: counts of existing neighbors are bumped atomically,
// points whose count crosses minpts flip to core and get their edge
// lists reprocessed, and the next query is just flatten + finalize.
// expire() invalidates the union-find lazily (removals can split
// clusters); the next query recomputes counts + union-find over the
// live set but still reuses the BVH. A full Morton re-sort + rebuild
// runs only when pending work (live delta + dead prefix) exceeds
// StreamConfig::rebuild_fraction of the live set.
//
// Thread-safety: like Engine — one streaming engine, one concurrent
// operation (the service session layer serializes per session). A
// cancelled insert() rolls the batch back (the logical point set is
// unchanged) and costs only the incremental state; a cancelled query()
// costs the incremental state (the next query does a full refresh).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "bvh/bvh.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "exec/cancel.h"
#include "exec/per_thread.h"
#include "exec/profile.h"
#include "geometry/point.h"
#include "unionfind/union_find.h"

namespace fdbscan::stream {

struct StreamConfig {
  /// Rebuild threshold: a mutation triggers a full Morton re-sort +
  /// BVH rebuild when (live delta points + retired slots) exceeds this
  /// fraction of the live point count. Env (service sessions):
  /// FDBSCAN_SESSION_REBUILD_PCT.
  float rebuild_fraction = 0.25f;
  /// Forwarded to the inner Engine (grid cache capacity, memory).
  EngineConfig engine{};
};

/// Cumulative counters since construction (the streaming analogue of
/// EngineCounters).
struct StreamCounters {
  std::int64_t inserts = 0;          ///< insert() batches
  std::int64_t points_inserted = 0;
  std::int64_t expires = 0;          ///< expire() calls retiring >= 1 point
  std::int64_t points_expired = 0;
  std::int64_t queries = 0;
  /// BVH constructions: the lazy first build plus every threshold
  /// rebuild (each rebuild is one Morton re-sort + build).
  std::int64_t index_rebuilds = 0;
  std::int64_t incremental_inserts = 0;  ///< batches absorbed into a live UF
  std::int64_t full_refreshes = 0;   ///< queries recomputing counts + UF
  std::int64_t refinalized_queries = 0;  ///< queries served by flatten+finalize
};

template <int DIM>
class StreamingEngine {
 public:
  /// Query parameters are pinned per streaming engine: the incremental
  /// union-find state is only meaningful for one (eps, minpts, variant).
  StreamingEngine(Parameters params, Options options = {},
                  StreamConfig config = {})
      : params_(params), options_(options), config_(config),
        cell_side_(cell_side(params.eps * params.eps)) {
    reset_engine();
  }

  /// Seeds the stream with an initial point set (sequence numbers
  /// 0..initial.size()-1, already "inserted").
  StreamingEngine(std::vector<Point<DIM>> initial, Parameters params,
                  Options options = {}, StreamConfig config = {})
      : params_(params), options_(options), config_(config),
        cell_side_(cell_side(params.eps * params.eps)),
        base_(std::move(initial)) {
    reset_engine();
  }

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  [[nodiscard]] const Parameters& params() const noexcept { return params_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  /// Live (non-retired) point count.
  [[nodiscard]] std::int64_t size() const noexcept {
    return total_slots() - live_begin_;
  }
  /// Sequence number the next inserted point will get.
  [[nodiscard]] std::int64_t next_seq() const noexcept {
    return seq0_ + total_slots();
  }
  /// Sequence number of the oldest live point (== next_seq when empty).
  [[nodiscard]] std::int64_t first_live_seq() const noexcept {
    return seq0_ + live_begin_;
  }

  [[nodiscard]] StreamCounters counters() const noexcept {
    StreamCounters c = counters_;
    c.index_rebuilds = total_index_builds();
    return c;
  }

  /// The live logical point set in sequence order — exactly the vector a
  /// from-scratch equivalence reference must cluster.
  [[nodiscard]] std::vector<Point<DIM>> live_points() const {
    std::vector<Point<DIM>> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (std::int64_t s = live_base_begin(); s < base_n(); ++s) {
      out.push_back(base_[static_cast<std::size_t>(s)]);
    }
    for (std::int64_t j = delta_live_begin(); j < delta_n(); ++j) {
      out.push_back(delta_[static_cast<std::size_t>(j)]);
    }
    return out;
  }

  /// Appends `points` to the stream; returns the sequence number of the
  /// first appended point. While the incremental union-find is valid
  /// (no expire since the last query), the batch is folded into it:
  /// neighbor counts of existing points are bumped, minpts-crossers flip
  /// to core and have their edges reprocessed, and new edges are
  /// resolved with the post-batch core flags — so the next query only
  /// re-finalizes. A cancellation mid-insert rolls the batch back.
  std::int64_t insert(std::span<const Point<DIM>> points) {
    exec::throw_if_cancelled();
    const std::int64_t first = next_seq();
    const auto k = static_cast<std::int64_t>(points.size());
    if (k == 0) return first;
    const std::int64_t old_nd = delta_n();
    const std::int64_t n_old = size();
    append_to_delta(points);
    if (uf_valid_) {
      try {
        absorb_batch(n_old, k);
        ++counters_.incremental_inserts;
      } catch (...) {
        // Roll the batch back: the logical point set is unchanged, and
        // the (possibly torn) counts/union-find are discarded — the
        // next query recomputes them from the live set.
        truncate_delta(old_nd);
        counts_.resize(static_cast<std::size_t>(n_old));
        is_core_.resize(static_cast<std::size_t>(n_old));
        uf_.resize(static_cast<std::size_t>(n_old));
        uf_valid_ = false;
        throw;
      }
    }
    // Count the insert only once the batch has logically taken effect —
    // a rolled-back (cancelled) absorb must not inflate StreamCounters.
    ++counters_.inserts;
    counters_.points_inserted += k;
    maybe_rebuild();
    return first;
  }

  std::int64_t insert(const std::vector<Point<DIM>>& points) {
    return insert(std::span<const Point<DIM>>(points.data(), points.size()));
  }

  /// Retires every point with sequence number < before_seq (a no-op for
  /// already-retired prefixes). Lazy: dead points are masked out of
  /// probes until the rebuild threshold trips. Removals can split
  /// clusters, so the incremental union-find is invalidated — the next
  /// query does a full refresh (BVH still amortized). Returns the
  /// number of points retired by this call.
  std::int64_t expire(std::int64_t before_seq) {
    exec::throw_if_cancelled();
    const std::int64_t target =
        std::clamp<std::int64_t>(before_seq - seq0_, live_begin_,
                                 total_slots());
    const std::int64_t expired = target - live_begin_;
    if (expired > 0) {
      live_begin_ = target;
      uf_valid_ = false;
      ++counters_.expires;
      counters_.points_expired += expired;
      maybe_rebuild();
    }
    return expired;
  }

  /// Clusters the live point set under the pinned parameters. Labels are
  /// indexed in sequence order over the live set (live_points() order).
  /// timings.index_rebuilds reports the BVH builds since the previous
  /// query — 0 for any query whose preceding mutations stayed below the
  /// rebuild threshold.
  [[nodiscard]] Clustering query() {
    exec::throw_if_cancelled();
    ++counters_.queries;
    const std::int64_t n = size();
    exec::PhaseProfiler timer;
    PhaseTimings timings;
    timings.engine_run = true;
    if (n == 0) {
      Clustering empty;
      empty.timings = timings;
      empty.timings.index_rebuilds = take_rebuilds_since_last_query();
      return empty;
    }
    exec::ScopedCharge charge(
        options_.memory,
        static_cast<std::size_t>(n) *
            (sizeof(std::int32_t) + sizeof(std::uint8_t)));
    // Index phase: the lazy first build of the base BVH lands here, like
    // Engine::run's first call; threshold rebuilds happen on mutations.
    if (live_base_count() > 0) (void)engine_->index();
    timings.index_construction =
        timer.lap("stream/index", &timings.index_construction_profile);

    exec::PerThread<TraversalStats> work;
    if (!uf_valid_) {
      full_refresh(n, timer, timings, work);
      ++counters_.full_refreshes;
    } else {
      ++counters_.refinalized_queries;
      timings.preprocessing =
          timer.lap("stream/pre", &timings.preprocessing_profile);
      timings.main = timer.lap("stream/main", &timings.main_profile);
    }

    // Finalization: flatten in place (idempotent), finalize over a copy
    // of the core flags — the persistent flags feed future inserts.
    flatten(uf_.data(), static_cast<std::int32_t>(n));
    std::vector<std::uint8_t> core_copy(is_core_.begin(), is_core_.end());
    std::vector<std::int32_t> compact(static_cast<std::size_t>(n));
    Clustering result = fdbscan::detail::finalize_labels_with_scratch(
        uf_.data(), n, std::move(core_copy), compact.data());
    timings.finalization =
        timer.lap("stream/finalize", &timings.finalization_profile);
    result.timings = timings;
    result.timings.index_rebuilds = take_rebuilds_since_last_query();
    // Probes done by incremental inserts since the previous query count
    // toward this query's stats: a refinalized query's answer embodies
    // that traversal work.
    TraversalStats total = work.combine();
    total += pending_insert_stats_;
    pending_insert_stats_ = {};
    result.distance_computations = total.leaves_tested;
    result.index_nodes_visited = total.nodes_visited;
    if (options_.memory) result.peak_memory_bytes = options_.memory->peak();
    return result;
  }

 private:
  // ---- slot-space geometry ------------------------------------------------
  [[nodiscard]] std::int64_t base_n() const noexcept {
    return static_cast<std::int64_t>(base_.size());
  }
  [[nodiscard]] std::int64_t delta_n() const noexcept {
    return static_cast<std::int64_t>(delta_.size());
  }
  [[nodiscard]] std::int64_t total_slots() const noexcept {
    return base_n() + delta_n();
  }
  [[nodiscard]] std::int64_t live_base_begin() const noexcept {
    return std::min(live_begin_, base_n());
  }
  [[nodiscard]] std::int64_t delta_live_begin() const noexcept {
    return std::max<std::int64_t>(0, live_begin_ - base_n());
  }
  [[nodiscard]] std::int64_t live_base_count() const noexcept {
    return base_n() - live_base_begin();
  }

  [[nodiscard]] Point<DIM> logical_point(std::int64_t i) const noexcept {
    const std::int64_t nb = live_base_count();
    if (i < nb) {
      return base_[static_cast<std::size_t>(live_base_begin() + i)];
    }
    return delta_[static_cast<std::size_t>(delta_live_begin() + (i - nb))];
  }

  // ---- delta side buffer + its eps-cell index -----------------------------
  /// Bits per axis of a packed cell key; the last axis is lowest, so the
  /// three cells of one probe row have consecutive keys.
  static constexpr int kCellBits = std::min(32, 64 / DIM);
  static_assert(kCellBits >= 2, "cell keys need at least 2 bits per axis");
  static constexpr std::uint64_t kCellMax =
      (std::uint64_t{1} << kCellBits) - 1;

  struct CellEntry {
    std::uint64_t key;
    std::int32_t slot;
    friend bool operator<(const CellEntry& a, const CellEntry& b) noexcept {
      return a.key != b.key ? a.key < b.key : a.slot < b.slot;
    }
  };

  /// Cell side for the float threshold eps2: the widest per-axis gap of
  /// a pair passing squared_distance <= eps2, widened by 2^-16 so the
  /// double cell coordinates' own rounding cannot push the pair two
  /// cells apart (see the header comment).
  [[nodiscard]] static double cell_side(float eps2) noexcept {
    return (std::sqrt(static_cast<double>(eps2)) + 0x1p-74) *
           (1.0 + 0x1p-16);
  }

  /// Per-axis cell coordinates of `p`, clamped to [0, kCellMax].
  [[nodiscard]] std::array<std::uint64_t, DIM> cell_of(
      const Point<DIM>& p) const noexcept {
    constexpr double kHalf =
        static_cast<double>(std::uint64_t{1} << (kCellBits - 1));
    std::array<std::uint64_t, DIM> c{};
    for (int d = 0; d < DIM; ++d) {
      const double q = std::clamp(static_cast<double>(p[d]) / cell_side_,
                                  -kHalf, kHalf - 1.0);
      c[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(std::floor(q) + kHalf);
    }
    return c;
  }

  [[nodiscard]] static std::uint64_t pack(
      const std::array<std::uint64_t, DIM>& c) noexcept {
    std::uint64_t key = 0;
    for (const std::uint64_t v : c) key = (key << kCellBits) | v;
    return key;
  }

  /// Appends `points` as delta slots and merges their (cell key, slot)
  /// entries into the sorted index. The buffers are grown before the
  /// index is touched, and sorting and merging cannot throw, so a failed
  /// allocation leaves the index consistent with delta_.
  void append_to_delta(std::span<const Point<DIM>> points) {
    const std::size_t k = points.size();
    const std::size_t n = delta_.size();
    batch_cells_.resize(k);
    merged_cells_.resize(delta_cells_.size() + k);
    delta_.insert(delta_.end(), points.begin(), points.end());
    for (std::size_t j = 0; j < k; ++j) {
      batch_cells_[j] = {pack(cell_of(points[j])),
                         static_cast<std::int32_t>(n + j)};
    }
    std::sort(batch_cells_.begin(), batch_cells_.end());
    std::merge(delta_cells_.begin(), delta_cells_.end(), batch_cells_.begin(),
               batch_cells_.end(), merged_cells_.begin());
    std::swap(delta_cells_, merged_cells_);
  }

  /// Drops delta slots >= n (rollback; n = 0 on rebuild).
  void truncate_delta(std::int64_t n) {
    delta_.resize(static_cast<std::size_t>(n));
    std::erase_if(delta_cells_,
                  [n](const CellEntry& e) { return e.slot >= n; });
  }

  /// Invokes f(slot) for every live delta slot within eps of `p`, until
  /// f returns false. Candidates are the indexed slots of the 3^DIM cells
  /// around `p`, in (cell key, slot) order; each live one tested counts
  /// as one distance computation in stats.leaves_tested. One binary
  /// search per row of three cells along the last axis; rows are visited
  /// in ascending key order, so each search starts where the previous
  /// row ended.
  template <class F>
  void for_each_delta_neighbor(const Point<DIM>& p, float eps2,
                               TraversalStats& stats, F&& f) const {
    const auto live = static_cast<std::int32_t>(delta_live_begin());
    const std::array<std::uint64_t, DIM> cell = cell_of(p);
    std::array<std::uint64_t, DIM> lo{};
    std::array<std::uint64_t, DIM> hi{};
    for (std::size_t d = 0; d < DIM; ++d) {
      lo[d] = cell[d] > 0 ? cell[d] - 1 : 0;
      hi[d] = std::min(cell[d] + 1, kCellMax);
    }
    constexpr std::size_t kLast = DIM - 1;
    std::array<std::uint64_t, DIM> row = lo;
    auto it = delta_cells_.begin();
    const auto end = delta_cells_.end();
    for (;;) {
      const std::uint64_t first = pack(row);  // row[kLast] == lo[kLast]
      const std::uint64_t last = first + (hi[kLast] - lo[kLast]);
      it = std::lower_bound(it, end, first,
                            [](const CellEntry& e, std::uint64_t key) {
                              return e.key < key;
                            });
      for (; it != end && it->key <= last; ++it) {
        if (it->slot < live) continue;  // retired
        ++stats.leaves_tested;
        if (squared_distance(p, delta_[static_cast<std::size_t>(it->slot)]) <=
                eps2 &&
            !f(it->slot)) {
          return;
        }
      }
      // Next row: odometer over the leading DIM-1 axes.
      std::size_t d = kLast;
      while (d > 0 && row[d - 1] == hi[d - 1]) {
        row[d - 1] = lo[d - 1];
        --d;
      }
      if (d == 0) return;
      ++row[d - 1];
    }
  }

  // ---- neighborhood probes (BVH over base + delta cell probe) -------------
  /// Saturating neighbor count of `p` over the live set (includes the
  /// probe point itself when it is a member). early_stop <= 0 disables
  /// the early exit; with early_stop = minpts the returned value is
  /// exact below minpts and saturated (>= minpts) above — exactly what
  /// core determination and crossing detection compare against.
  [[nodiscard]] std::int32_t count_live_neighbors(
      const Point<DIM>& p, float eps2, std::int32_t early_stop,
      TraversalStats& stats) const {
    std::int32_t count = 0;
    const auto base_live = static_cast<std::int32_t>(live_base_begin());
    if (live_base_count() > 0) {
      bvh_unchecked().for_each_near(
          p, eps2, 0,
          [&](std::int32_t, std::int32_t id) {
            if (id >= base_live) {
              ++count;
              if (early_stop > 0 && count >= early_stop) {
                return TraversalControl::kTerminate;
              }
            }
            return TraversalControl::kContinue;
          },
          &stats);
    }
    if (delta_live_begin() < delta_n() &&
        !(early_stop > 0 && count >= early_stop)) {
      for_each_delta_neighbor(p, eps2, stats, [&](std::int32_t) {
        ++count;
        return !(early_stop > 0 && count >= early_stop);
      });
    }
    return count;
  }

  /// Invokes f(logical_id) for every live point within eps of `p`
  /// (including `p` itself when it is a member). Never early-stops:
  /// callers need the complete edge set.
  template <class F>
  void for_each_live_neighbor(const Point<DIM>& p, float eps2,
                              TraversalStats& stats, F&& f) const {
    const auto base_live = static_cast<std::int32_t>(live_base_begin());
    const auto nb = static_cast<std::int32_t>(live_base_count());
    if (nb > 0) {
      bvh_unchecked().for_each_near(
          p, eps2, 0,
          [&](std::int32_t, std::int32_t id) {
            if (id >= base_live) f(id - base_live);
            return TraversalControl::kContinue;
          },
          &stats);
    }
    const auto lo = static_cast<std::int32_t>(delta_live_begin());
    if (lo < delta_n()) {
      for_each_delta_neighbor(p, eps2, stats, [&](std::int32_t m) {
        f(nb + (m - lo));
        return true;
      });
    }
  }

  /// The base BVH. Only called when live_base_count() > 0, after query()
  /// or rebuild() already forced the build — so this never builds.
  [[nodiscard]] const Bvh<DIM>& bvh_unchecked() const { return *base_bvh_; }

  void ensure_base_bvh() {
    base_bvh_ = live_base_count() > 0 ? &engine_->index() : nullptr;
  }

  // ---- full refresh (query after expiry / first query) --------------------
  void full_refresh(std::int64_t n, exec::PhaseProfiler& timer,
                    PhaseTimings& timings,
                    exec::PerThread<TraversalStats>& work) {
    uf_valid_ = false;  // torn state on cancellation, until fully rebuilt
    ensure_base_bvh();
    const float eps2 = params_.eps * params_.eps;
    counts_.assign(static_cast<std::size_t>(n), 0);
    is_core_.assign(static_cast<std::size_t>(n), 0);
    uf_.resize(static_cast<std::size_t>(n));
    if (params_.minpts <= 1) {
      exec::parallel_for("stream/pre/all-core", n, [&](std::int64_t i) {
        is_core_[static_cast<std::size_t>(i)] = 1;
      });
    } else {
      const std::int32_t early =
          options_.early_exit ? params_.minpts : std::int32_t{0};
      exec::parallel_for("stream/pre/core-count", n, [&](std::int64_t i) {
        TraversalStats stats;
        const std::int32_t c =
            count_live_neighbors(logical_point(i), eps2, early, stats);
        counts_[static_cast<std::size_t>(i)] = c;
        if (c >= params_.minpts) is_core_[static_cast<std::size_t>(i)] = 1;
        work.local() += stats;
      });
    }
    timings.preprocessing =
        timer.lap("stream/pre", &timings.preprocessing_profile);

    init_singletons(uf_.data(), static_cast<std::int32_t>(n));
    UnionFindView uf(uf_.data(), static_cast<std::int32_t>(n));
    exec::parallel_for("stream/main/traverse-union", n, [&](std::int64_t i) {
      const auto x = static_cast<std::int32_t>(i);
      TraversalStats stats;
      for_each_live_neighbor(
          logical_point(i), eps2, stats, [&](std::int32_t y) {
            if (y != x) {
              fdbscan::detail::resolve_pair(uf, is_core_, x, y,
                                            options_.variant);
            }
          });
      work.local() += stats;
    });
    timings.main = timer.lap("stream/main", &timings.main_profile);
    uf_valid_ = true;
  }

  // ---- incremental insert -------------------------------------------------
  /// Folds the freshly appended batch (logical ids [n_old, n_old + k))
  /// into the valid union-find. Three passes so every edge is resolved
  /// with the *post-batch* core flags, like a from-scratch run:
  /// count, flip, resolve. Probe work lands in pending_insert_stats_,
  /// which the next query() folds into its reported traversal stats.
  void absorb_batch(std::int64_t n_old, std::int64_t k) {
    ensure_base_bvh();
    exec::PerThread<TraversalStats> work;
    const float eps2 = params_.eps * params_.eps;
    const std::int64_t n_new = n_old + k;
    counts_.resize(static_cast<std::size_t>(n_new), 0);
    is_core_.resize(static_cast<std::size_t>(n_new), 0);
    uf_.resize(static_cast<std::size_t>(n_new));
    for (std::int64_t i = n_old; i < n_new; ++i) {
      uf_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
    }
    UnionFindView uf(uf_.data(), static_cast<std::int32_t>(n_new));

    std::vector<std::int32_t> flipped;
    if (params_.minpts > 1) {
      // Pass 1: full neighbor enumeration of each new point — its own
      // exact count, plus an atomic bump for every *existing* neighbor
      // (batch-batch contributions are symmetric: each endpoint counts
      // the other in its own enumeration). A bump whose previous value
      // was minpts - 1 crossed the threshold exactly once.
      std::mutex flip_mutex;
      exec::parallel_for("stream/insert/count", k, [&](std::int64_t j) {
        const std::int64_t q = n_old + j;
        TraversalStats stats;
        std::int32_t count = 0;
        for_each_live_neighbor(
            logical_point(q), eps2, stats, [&](std::int32_t y) {
              ++count;  // includes q itself and batch members
              if (y < n_old) {
                const std::int32_t prev = exec::atomic_fetch_add(
                    counts_[static_cast<std::size_t>(y)], std::int32_t{1});
                if (prev == params_.minpts - 1) {
                  std::lock_guard<std::mutex> lock(flip_mutex);
                  flipped.push_back(y);
                }
              }
            });
        counts_[static_cast<std::size_t>(q)] = count;
        work.local() += stats;
      });
      // Pass 2: core flags with the post-batch counts.
      for (std::int64_t j = 0; j < k; ++j) {
        const auto q = static_cast<std::size_t>(n_old + j);
        if (counts_[q] >= params_.minpts) is_core_[q] = 1;
      }
      for (const std::int32_t y : flipped) {
        is_core_[static_cast<std::size_t>(y)] = 1;
      }
    } else {
      for (std::int64_t j = 0; j < k; ++j) {
        is_core_[static_cast<std::size_t>(n_old + j)] = 1;
      }
    }

    // Pass 3: resolve every edge incident to the batch, plus the full
    // edge lists of flipped points (their core-suppressed edges to *old*
    // neighbors just became active). minpts == 2 flips need no
    // reprocessing: a flipped point had no prior neighbors, so all its
    // edges touch the batch and are resolved from the batch side.
    const std::int64_t flips =
        params_.minpts > 2 ? static_cast<std::int64_t>(flipped.size()) : 0;
    exec::parallel_for("stream/insert/resolve", k + flips,
                       [&](std::int64_t t) {
      const std::int64_t x64 =
          t < k ? n_old + t : flipped[static_cast<std::size_t>(t - k)];
      const auto x = static_cast<std::int32_t>(x64);
      TraversalStats stats;
      for_each_live_neighbor(
          logical_point(x64), eps2, stats, [&](std::int32_t y) {
            if (y != x) {
              fdbscan::detail::resolve_pair(uf, is_core_, x, y,
                                            options_.variant);
            }
          });
      work.local() += stats;
    });
    pending_insert_stats_ += work.combine();
  }

  // ---- rebuild ------------------------------------------------------------
  void maybe_rebuild() {
    const std::int64_t n = size();
    if (n == 0) {
      if (total_slots() > 0) rebuild();  // free retired storage
      return;
    }
    const std::int64_t pending = (delta_n() - delta_live_begin()) +
                                 live_begin_;
    if (static_cast<double>(pending) >
        static_cast<double>(config_.rebuild_fraction) *
            static_cast<double>(n)) {
      rebuild();
    }
  }

  /// Compacts the live set (sequence order preserved) into a fresh base
  /// and pays the Morton re-sort + BVH build here, at mutation time.
  /// Logical ids are unchanged, so the incremental union-find survives.
  void rebuild() {
    std::vector<Point<DIM>> next;
    next.reserve(static_cast<std::size_t>(size()));
    for (std::int64_t s = live_base_begin(); s < base_n(); ++s) {
      next.push_back(base_[static_cast<std::size_t>(s)]);
    }
    for (std::int64_t j = delta_live_begin(); j < delta_n(); ++j) {
      next.push_back(delta_[static_cast<std::size_t>(j)]);
    }
    seq0_ += live_begin_;
    if (engine_) retired_index_builds_ += engine_->counters().index_builds;
    engine_.reset();  // borrows base_: destroy before reassigning
    base_bvh_ = nullptr;
    base_ = std::move(next);
    truncate_delta(0);
    live_begin_ = 0;
    reset_engine();
    // Eager build: pay the Morton re-sort + BVH construction at mutation
    // time, not on the next query. Best-effort — by this point the
    // mutation has logically taken effect, so a cancellation (or OOM)
    // inside the warm-up build must not turn a completed insert/expire
    // into a reported failure. The build simply stays lazy and the next
    // query pays it (rethrowing whatever condition persists).
    if (!base_.empty()) {
      try {
        (void)engine_->index();
      } catch (...) {
        base_bvh_ = nullptr;
      }
    }
  }

  void reset_engine() {
    engine_ = std::make_unique<Engine<DIM>>(base_, config_.engine);
    base_bvh_ = nullptr;
  }

  [[nodiscard]] std::int64_t total_index_builds() const noexcept {
    return retired_index_builds_ +
           (engine_ ? engine_->counters().index_builds : 0);
  }

  [[nodiscard]] std::int32_t take_rebuilds_since_last_query() noexcept {
    const std::int64_t total = total_index_builds();
    const auto delta = static_cast<std::int32_t>(
        total - index_builds_at_last_query_);
    index_builds_at_last_query_ = total;
    return delta;
  }

  Parameters params_;
  Options options_;
  StreamConfig config_;

  double cell_side_;               // eps-cell side of the delta index
  std::vector<Point<DIM>> base_;   // BVH-covered slots, sequence order
  std::vector<Point<DIM>> delta_;  // side-buffer slots appended after base
  // Delta cell index, sorted by (key, slot), and its merge buffers.
  std::vector<CellEntry> delta_cells_;
  std::vector<CellEntry> merged_cells_;
  std::vector<CellEntry> batch_cells_;
  std::int64_t seq0_ = 0;          // sequence number of slot 0
  std::int64_t live_begin_ = 0;    // slots below this are retired

  std::unique_ptr<Engine<DIM>> engine_;  // owns the base BVH + its memory
  const Bvh<DIM>* base_bvh_ = nullptr;   // cached engine_->index()

  // Incremental session state over logical ids (0 = oldest live point).
  std::vector<std::int32_t> uf_;        // union-find parents
  std::vector<std::int32_t> counts_;    // saturating |N_eps|
  std::vector<std::uint8_t> is_core_;
  bool uf_valid_ = false;
  /// Probe work of incremental inserts since the last query; folded
  /// into (and cleared by) the next query's reported traversal stats.
  TraversalStats pending_insert_stats_{};

  std::int64_t retired_index_builds_ = 0;  // builds of replaced engines
  std::int64_t index_builds_at_last_query_ = 0;
  StreamCounters counters_;
};

}  // namespace fdbscan::stream
