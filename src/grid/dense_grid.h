// Cartesian grid with cell length eps/sqrt(d) superimposed over the data
// domain (FDBSCAN-DenseBox, §4.2). The cell length guarantees a cell
// diameter <= eps, so any cell holding >= minpts points ("dense cell")
// consists solely of core points belonging to one cluster.
//
// The grid is only materialized sparsely: the total cell count can be in
// the billions (§5.2 reports 3.5e9 cells with 28e6 non-empty), so points
// are keyed by a 64-bit linear cell index and grouped by sorting, never by
// allocating per-cell storage.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/parallel.h"
#include "exec/radix_sort.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/points_view.h"

namespace fdbscan {

/// Geometry of the superimposed grid.
template <int DIM>
struct GridSpec {
  Box<DIM> domain;
  float cell_width = 0.0f;
  std::int64_t dims[DIM] = {};  // cells per dimension
  std::uint64_t total_cells = 0;

  /// Builds the spec for the given domain and eps. The cell width is
  /// eps/sqrt(d) (times an optional factor in (0, 1], preserving the
  /// diameter-below-eps invariant). Throws if the linear cell index would
  /// overflow 64 bits (absurdly small eps).
  static GridSpec create(const Box<DIM>& domain, float eps,
                         float width_factor = 1.0f) {
    GridSpec spec;
    spec.domain = domain;
    if (!(width_factor > 0.0f) || width_factor > 1.0f) {
      throw std::invalid_argument(
          "GridSpec: width_factor must be in (0, 1]");
    }
    spec.cell_width =
        eps / std::sqrt(static_cast<float>(DIM)) * width_factor;
    if (!(spec.cell_width > 0.0f)) {
      throw std::invalid_argument("GridSpec: eps must be positive");
    }
    unsigned __int128 total = 1;
    for (int d = 0; d < DIM; ++d) {
      const float extent = domain.max[d] - domain.min[d];
      // Compute in double first: the count must be range-checked before
      // the integer cast (casting an over-range float is undefined).
      const double count =
          std::ceil(static_cast<double>(extent) /
                    static_cast<double>(spec.cell_width)) +
          1.0;  // +1 guards points landing exactly on the max face
      if (count >= 9.0e18) {
        throw std::overflow_error("GridSpec: cell count exceeds 64 bits");
      }
      spec.dims[d] = std::max<std::int64_t>(1, static_cast<std::int64_t>(count));
      total *= static_cast<unsigned __int128>(spec.dims[d]);
      if (total > static_cast<unsigned __int128>(UINT64_MAX)) {
        throw std::overflow_error("GridSpec: cell index exceeds 64 bits");
      }
    }
    spec.total_cells = static_cast<std::uint64_t>(total);
    return spec;
  }

  /// Integer cell coordinates of a point (clamped to the grid).
  void cell_coords(const Point<DIM>& p, std::int64_t out[DIM]) const noexcept {
    for (int d = 0; d < DIM; ++d) {
      auto c = static_cast<std::int64_t>(
          std::floor((p[d] - domain.min[d]) / cell_width));
      out[d] = std::clamp<std::int64_t>(c, 0, dims[d] - 1);
    }
  }

  /// Row-major linearization of cell coordinates.
  [[nodiscard]] std::uint64_t linearize(const std::int64_t c[DIM]) const noexcept {
    std::uint64_t key = 0;
    for (int d = 0; d < DIM; ++d) {
      key = key * static_cast<std::uint64_t>(dims[d]) +
            static_cast<std::uint64_t>(c[d]);
    }
    return key;
  }

  [[nodiscard]] std::uint64_t cell_key(const Point<DIM>& p) const noexcept {
    std::int64_t c[DIM];
    cell_coords(p, c);
    return linearize(c);
  }

  /// Inverse of linearize: the axis-aligned box of a cell.
  [[nodiscard]] Box<DIM> cell_box(std::uint64_t key) const noexcept {
    std::int64_t c[DIM];
    for (int d = DIM - 1; d >= 0; --d) {
      c[d] = static_cast<std::int64_t>(key % static_cast<std::uint64_t>(dims[d]));
      key /= static_cast<std::uint64_t>(dims[d]);
    }
    Box<DIM> b;
    for (int d = 0; d < DIM; ++d) {
      b.min[d] = domain.min[d] + static_cast<float>(c[d]) * cell_width;
      b.max[d] = b.min[d] + cell_width;
    }
    return b;
  }
};

/// A contiguous run of points (in the grid's permutation) sharing a cell.
struct CellRange {
  std::uint64_t key;
  std::int32_t begin;
  std::int32_t end;

  [[nodiscard]] std::int32_t count() const noexcept { return end - begin; }
};

/// Sparse occupancy structure: points grouped by cell, dense cells
/// identified. `permutation()[k]` is the original index of the k-th point
/// in cell-grouped order; dense cells come first in `cells()`.
template <int DIM>
class DenseGrid {
 public:
  DenseGrid(const std::vector<Point<DIM>>& points, float eps,
            std::int32_t minpts)
      : spec_(GridSpec<DIM>::create(bounds_of(points.data(), points.size()),
                                    eps)) {
    build(points, minpts);
  }

  DenseGrid(const std::vector<Point<DIM>>& points, const GridSpec<DIM>& spec,
            std::int32_t minpts)
      : spec_(spec) {
    build(points, minpts);
  }

  const GridSpec<DIM>& spec() const noexcept { return spec_; }

  /// All occupied cells, dense cells first (indices [0, num_dense_cells)).
  const std::vector<CellRange>& cells() const noexcept { return cells_; }
  std::int32_t num_dense_cells() const noexcept { return num_dense_; }

  /// Point indices grouped by cell (dense cells first).
  const std::vector<std::int32_t>& permutation() const noexcept { return perm_; }

  /// Number of points living in dense cells (they are a prefix of the
  /// permutation).
  std::int32_t points_in_dense_cells() const noexcept { return dense_points_; }

  /// For each original point: index into cells() of its dense cell, or -1
  /// if the point is not in a dense cell.
  const std::vector<std::int32_t>& dense_cell_of() const noexcept {
    return dense_cell_of_;
  }

  [[nodiscard]] bool in_dense_cell(std::int32_t point) const noexcept {
    return dense_cell_of_[static_cast<std::size_t>(point)] >= 0;
  }

  /// SoA mirror of the permuted points: `member_axes()[d][k]` is
  /// coordinate d of permutation()[k]. Cell ranges index straight into
  /// these spans, so membership scans (exec/simd.h count_within /
  /// first_within) load whole lane groups of one cell contiguously.
  /// Padded per the kSoaPadding contract of geometry/points_view.h.
  [[nodiscard]] std::array<const float*, DIM> member_axes() const noexcept {
    std::array<const float*, DIM> axes{};
    for (int d = 0; d < DIM; ++d) {
      axes[static_cast<std::size_t>(d)] =
          member_coords_[static_cast<std::size_t>(d)].data();
    }
    return axes;
  }

  /// The point at permuted position k, read from the SoA mirror: the
  /// same coordinates as points[permutation()[k]], without the gather.
  [[nodiscard]] Point<DIM> member_point(std::size_t k) const noexcept {
    Point<DIM> p;
    for (int d = 0; d < DIM; ++d) {
      p[d] = member_coords_[static_cast<std::size_t>(d)][k];
    }
    return p;
  }

  /// Heap bytes of the SoA member mirror (for memory accounting).
  [[nodiscard]] std::size_t soa_bytes() const noexcept {
    std::size_t total = 0;
    for (int d = 0; d < DIM; ++d) {
      total +=
          member_coords_[static_cast<std::size_t>(d)].capacity() * sizeof(float);
    }
    return total;
  }

 private:
  void build(const std::vector<Point<DIM>>& points, std::int32_t minpts) {
    const auto n = static_cast<std::int64_t>(points.size());
    std::vector<std::uint64_t> keys(points.size());
    exec::parallel_for("dense-grid/cell-keys", n, [&](std::int64_t i) {
      keys[static_cast<std::size_t>(i)] =
          spec_.cell_key(points[static_cast<std::size_t>(i)]);
    });

    perm_.resize(points.size());
    std::iota(perm_.begin(), perm_.end(), 0);
    exec::radix_sort_pairs(keys, perm_);

    // Group equal keys into cells, splitting dense from sparse. After
    // the tandem sort, keys[k] is the cell key at sorted position k.
    std::vector<CellRange> dense, sparse;
    std::int64_t run_begin = 0;
    for (std::int64_t i = 1; i <= n; ++i) {
      if (i == n || keys[static_cast<std::size_t>(i)] !=
                        keys[static_cast<std::size_t>(run_begin)]) {
        CellRange cell{keys[static_cast<std::size_t>(run_begin)],
                       static_cast<std::int32_t>(run_begin),
                       static_cast<std::int32_t>(i)};
        (cell.count() >= minpts ? dense : sparse).push_back(cell);
        run_begin = i;
      }
    }
    num_dense_ = static_cast<std::int32_t>(dense.size());

    // Re-permute so dense-cell points form a prefix, preserving grouping.
    std::vector<std::int32_t> reordered;
    reordered.reserve(perm_.size());
    for (const auto& cell : dense)
      for (std::int32_t k = cell.begin; k < cell.end; ++k)
        reordered.push_back(perm_[static_cast<std::size_t>(k)]);
    dense_points_ = static_cast<std::int32_t>(reordered.size());
    for (const auto& cell : sparse)
      for (std::int32_t k = cell.begin; k < cell.end; ++k)
        reordered.push_back(perm_[static_cast<std::size_t>(k)]);
    perm_ = std::move(reordered);

    cells_.clear();
    cells_.reserve(dense.size() + sparse.size());
    std::int32_t offset = 0;
    for (auto& cell : dense) {
      const std::int32_t c = cell.count();
      cells_.push_back({cell.key, offset, offset + c});
      offset += c;
    }
    for (auto& cell : sparse) {
      const std::int32_t c = cell.count();
      cells_.push_back({cell.key, offset, offset + c});
      offset += c;
    }

    dense_cell_of_.assign(points.size(), -1);
    for (std::int32_t ci = 0; ci < num_dense_; ++ci) {
      const auto& cell = cells_[static_cast<std::size_t>(ci)];
      for (std::int32_t k = cell.begin; k < cell.end; ++k)
        dense_cell_of_[static_cast<std::size_t>(
            perm_[static_cast<std::size_t>(k)])] = ci;
    }

    // SoA mirror in final permuted order (member_axes() contract above).
    for (int d = 0; d < DIM; ++d) {
      member_coords_[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(n + kSoaPadding),
          std::numeric_limits<float>::infinity());
    }
    exec::parallel_for("dense-grid/member-soa", n, [&](std::int64_t k) {
      const auto& p =
          points[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])];
      for (int d = 0; d < DIM; ++d) {
        member_coords_[static_cast<std::size_t>(d)][static_cast<std::size_t>(
            k)] = p[d];
      }
    });
  }

  GridSpec<DIM> spec_;
  std::vector<std::int32_t> perm_;
  std::vector<CellRange> cells_;
  std::vector<std::int32_t> dense_cell_of_;
  std::array<std::vector<float>, DIM> member_coords_;
  std::int32_t num_dense_ = 0;
  std::int32_t dense_points_ = 0;
};

}  // namespace fdbscan
