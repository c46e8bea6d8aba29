// Backend-equivalence contract of exec/simd.h (and the wide BVH built on
// it): every vector kernel is BIT-EQUAL to its scalar twin, lane for
// lane, and the full clustering pipeline produces identical labels and
// identical deterministic work counters whichever backend is selected,
// at any worker count. The tests toggle simd::set_enabled() inside one
// binary, so a scalar-only build (FDBSCAN_SIMD=OFF) runs the same suite
// with both sides scalar — the assertions stay meaningful as a
// self-consistency check and the build is proven label-compatible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "bvh/bvh.h"
#include "core/engine.h"
#include "exec/simd.h"
#include "geometry/morton.h"
#include "geometry/point.h"
#include "geometry/points_view.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

using testing::ScopedBackend;
using testing::ScopedThreads;

/// Labels with cluster ids renumbered by first appearance, so two
/// clusterings that differ only in id assignment order compare equal.
std::vector<std::int32_t> canonical(const std::vector<std::int32_t>& labels) {
  std::vector<std::int32_t> out(labels.size(), kNoise);
  std::vector<std::int32_t> remap;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == kNoise) continue;
    const auto id = static_cast<std::size_t>(labels[i]);
    if (id >= remap.size()) remap.resize(id + 1, -1);
    if (remap[id] < 0) remap[id] = static_cast<std::int32_t>(
        std::count_if(remap.begin(), remap.begin() + static_cast<std::ptrdiff_t>(id),
                      [](std::int32_t v) { return v >= 0; }));
    out[i] = remap[id];
  }
  return out;
}

template <int DIM>
PointsStore<DIM> store_of(const std::vector<Point<DIM>>& points) {
  return PointsStore<DIM>(points);
}

// --- Kernel twins -------------------------------------------------------

TEST(SimdKernels, BoxDistanceBatchMatchesScalarBitForBit) {
  if (!simd::compiled()) GTEST_SKIP() << "scalar-only build";
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> coord(-4.0f, 4.0f);
  for (int iter = 0; iter < 500; ++iter) {
    constexpr int DIM = 3;
    float lo[DIM][simd::kWidth];
    float hi[DIM][simd::kWidth];
    for (int d = 0; d < DIM; ++d) {
      for (int l = 0; l < simd::kWidth; ++l) {
        const float a = coord(rng);
        const float b = coord(rng);
        lo[d][l] = std::min(a, b);
        hi[d][l] = std::max(a, b);
      }
    }
    // One padding-style lane: inverted infinite bounds.
    lo[0][7] = std::numeric_limits<float>::infinity();
    hi[0][7] = -std::numeric_limits<float>::infinity();
    Point<DIM> p;
    for (int d = 0; d < DIM; ++d) p[d] = coord(rng);

    float vec[simd::kWidth];
    float ref[simd::kWidth];
    {
      ScopedBackend backend(true);
      simd::box_d2_batch<DIM>(p, lo, hi, vec);
    }
    {
      ScopedBackend backend(false);
      simd::box_d2_batch<DIM>(p, lo, hi, ref);
    }
    for (int l = 0; l < simd::kWidth - 1; ++l) {
      EXPECT_EQ(vec[l], ref[l]) << "iter=" << iter << " lane=" << l;
    }
    EXPECT_EQ(vec[7], std::numeric_limits<float>::infinity());
  }
}

TEST(SimdKernels, MortonGroupMatchesCanonicalEncoder2D) {
  if (!simd::compiled()) GTEST_SKIP() << "scalar-only build";
  const auto points = testing::random_points<2>(999, 3.0f, 11);
  const auto store = store_of<2>(points);
  Box<2> scene;
  for (const auto& p : points) scene.expand(p);
  const auto view = store.view();
  for (std::int64_t g = 0; g < view.size(); g += simd::kWidth) {
    const int count =
        static_cast<int>(std::min<std::int64_t>(simd::kWidth, view.size() - g));
    std::uint64_t vec[simd::kWidth];
    ScopedBackend backend(true);
    simd::morton_group<2>(view.axes(), g, count, scene, vec);
    for (int l = 0; l < count; ++l) {
      EXPECT_EQ(vec[l], morton_code(points[static_cast<std::size_t>(g + l)],
                                    scene))
          << "i=" << g + l;
    }
  }
}

TEST(SimdKernels, MortonGroupMatchesCanonicalEncoder3D) {
  if (!simd::compiled()) GTEST_SKIP() << "scalar-only build";
  const auto points = testing::random_points<3>(517, 2.0f, 13);
  const auto store = store_of<3>(points);
  Box<3> scene;
  for (const auto& p : points) scene.expand(p);
  const auto view = store.view();
  for (std::int64_t g = 0; g < view.size(); g += simd::kWidth) {
    const int count =
        static_cast<int>(std::min<std::int64_t>(simd::kWidth, view.size() - g));
    std::uint64_t vec[simd::kWidth];
    ScopedBackend backend(true);
    simd::morton_group<3>(view.axes(), g, count, scene, vec);
    for (int l = 0; l < count; ++l) {
      EXPECT_EQ(vec[l], morton_code(points[static_cast<std::size_t>(g + l)],
                                    scene))
          << "i=" << g + l;
    }
  }
}

TEST(SimdKernels, DegenerateSceneQuantizesLikeScalar) {
  if (!simd::compiled()) GTEST_SKIP() << "scalar-only build";
  // All points identical: extent 0 on every axis takes the t = 0 branch.
  std::vector<Point<2>> points(16, Point<2>{1.5f, -2.5f});
  const auto store = store_of<2>(points);
  Box<2> scene;
  for (const auto& p : points) scene.expand(p);
  std::uint64_t vec[simd::kWidth];
  ScopedBackend backend(true);
  simd::morton_group<2>(store.view().axes(), 0, simd::kWidth, scene, vec);
  for (int l = 0; l < simd::kWidth; ++l) {
    EXPECT_EQ(vec[l], morton_code(points[0], scene));
  }
}

TEST(SimdKernels, CountWithinMatchesScalarIncludingScansTally) {
  const auto points = testing::clustered_points<2>(700, 6, 1.0f, 0.02f, 17);
  const auto store = store_of<2>(points);
  const auto axes = store.view().axes();
  const float eps2 = 0.05f * 0.05f;
  std::mt19937_64 rng(23);
  for (int iter = 0; iter < 200; ++iter) {
    const auto begin = static_cast<std::int32_t>(rng() % 600);
    const auto end =
        begin + static_cast<std::int32_t>(rng() % 100);
    const Point<2>& p = points[static_cast<std::size_t>(rng() % 700)];
    for (std::int32_t early : {0, 1, 4}) {
      std::int64_t scans_vec = 0;
      std::int64_t scans_ref = 0;
      std::int32_t count_vec = 0;
      std::int32_t count_ref = 0;
      {
        ScopedBackend backend(true);
        count_vec =
            simd::count_within<2>(axes, begin, end, p, eps2, early, scans_vec);
      }
      {
        ScopedBackend backend(false);
        count_ref =
            simd::count_within<2>(axes, begin, end, p, eps2, early, scans_ref);
      }
      EXPECT_EQ(count_vec, count_ref) << "iter=" << iter << " early=" << early;
      EXPECT_EQ(scans_vec, scans_ref) << "iter=" << iter << " early=" << early;
    }
  }
}

TEST(SimdKernels, FirstWithinReturnsLowestWitnessOnBothBackends) {
  const auto points = testing::clustered_points<3>(500, 5, 1.0f, 0.03f, 19);
  const auto store = store_of<3>(points);
  const auto axes = store.view().axes();
  const float eps2 = 0.08f * 0.08f;
  std::mt19937_64 rng(29);
  for (int iter = 0; iter < 200; ++iter) {
    const auto begin = static_cast<std::int32_t>(rng() % 400);
    const auto end = begin + static_cast<std::int32_t>(rng() % 100);
    const Point<3>& p = points[static_cast<std::size_t>(rng() % 500)];
    std::int64_t scans_vec = 0;
    std::int64_t scans_ref = 0;
    std::int32_t hit_vec = 0;
    std::int32_t hit_ref = 0;
    {
      ScopedBackend backend(true);
      hit_vec = simd::first_within<3>(axes, begin, end, p, eps2, scans_vec);
    }
    {
      ScopedBackend backend(false);
      hit_ref = simd::first_within<3>(axes, begin, end, p, eps2, scans_ref);
    }
    EXPECT_EQ(hit_vec, hit_ref) << "iter=" << iter;
    EXPECT_EQ(scans_vec, scans_ref) << "iter=" << iter;
    // Cross-check the witness against a straight scan.
    std::int32_t expect = -1;
    for (std::int32_t m = begin; m < end; ++m) {
      float d2 = 0.0f;
      for (int d = 0; d < 3; ++d) {
        const float diff = axes[static_cast<std::size_t>(d)][m] - p[d];
        d2 += diff * diff;
      }
      if (d2 <= eps2) {
        expect = m;
        break;
      }
    }
    EXPECT_EQ(hit_ref, expect) << "iter=" << iter;
  }
}

// --- Wide BVH -----------------------------------------------------------

TEST(WideBvh, NeighborSetsMatchBruteForceOnBothBackends) {
  const auto points = testing::clustered_points<2>(400, 4, 1.0f, 0.05f, 31);
  const auto store = store_of<2>(points);
  const float eps = 0.1f;
  const float eps2 = eps * eps;
  for (bool backend_on : {true, false}) {
    ScopedBackend backend(backend_on);
    const Bvh<2> bvh(store.view());
    for (std::size_t i = 0; i < points.size(); i += 37) {
      std::vector<std::int32_t> found;
      TraversalStats stats;
      bvh.for_each_near(
          points[i], eps2,
          [&](std::int32_t /*pos*/, std::int32_t id) {
            found.push_back(id);
            return TraversalControl::kContinue;
          },
          &stats);
      std::vector<std::int32_t> expect;
      for (std::size_t j = 0; j < points.size(); ++j) {
        float d2 = 0.0f;
        for (int d = 0; d < 2; ++d) {
          const float diff = points[j][d] - points[i][d];
          d2 += diff * diff;
        }
        if (d2 <= eps2) expect.push_back(static_cast<std::int32_t>(j));
      }
      std::sort(found.begin(), found.end());
      EXPECT_EQ(found, expect) << "i=" << i << " simd=" << backend_on;
    }
  }
}

TEST(WideBvh, TraversalCountersIdenticalAcrossBackends) {
  const auto points = testing::clustered_points<3>(600, 5, 1.0f, 0.04f, 37);
  const auto store = store_of<3>(points);
  std::int64_t nodes[2] = {0, 0};
  std::int64_t leaves[2] = {0, 0};
  int which = 0;
  for (bool backend_on : {true, false}) {
    ScopedBackend backend(backend_on);
    const Bvh<3> bvh(store.view());
    for (std::size_t i = 0; i < points.size(); ++i) {
      TraversalStats stats;
      bvh.for_each_near(
          points[i], 0.08f * 0.08f,
          [](std::int32_t, std::int32_t) { return TraversalControl::kContinue; },
          &stats);
      nodes[which] += stats.nodes_visited;
      leaves[which] += stats.leaves_tested;
    }
    ++which;
  }
  EXPECT_EQ(nodes[0], nodes[1]);
  EXPECT_EQ(leaves[0], leaves[1]);
  EXPECT_GT(leaves[1], 0);
}

// --- Full pipeline ------------------------------------------------------

template <int DIM>
void expect_backend_identity(const std::vector<Point<DIM>>& points,
                             const Parameters& params, bool densebox) {
  Clustering ref;
  {
    ScopedBackend backend(false);
    ScopedThreads threads(1);
    Engine<DIM> engine(points);
    ref = densebox ? engine.run_densebox(params) : engine.run(params);
  }
  for (int threads : {1, 2, 8}) {
    ScopedBackend backend(true);
    ScopedThreads scoped(threads);
    Engine<DIM> engine(points);
    const Clustering got =
        densebox ? engine.run_densebox(params) : engine.run(params);
    EXPECT_EQ(canonical(got.labels), canonical(ref.labels))
        << "threads=" << threads << " densebox=" << densebox;
    EXPECT_EQ(got.is_core, ref.is_core) << "threads=" << threads;
    EXPECT_EQ(got.num_clusters, ref.num_clusters) << "threads=" << threads;
    EXPECT_EQ(got.distance_computations, ref.distance_computations)
        << "threads=" << threads << " densebox=" << densebox;
    EXPECT_EQ(got.index_nodes_visited, ref.index_nodes_visited)
        << "threads=" << threads << " densebox=" << densebox;
  }
}

TEST(SimdPipeline, FdbscanLabelsAndCountersMatchScalarBackend2D) {
  const auto points = testing::clustered_points<2>(900, 7, 1.0f, 0.015f, 41);
  expect_backend_identity<2>(points, Parameters{0.03f, 5}, false);
}

TEST(SimdPipeline, FdbscanLabelsAndCountersMatchScalarBackend3D) {
  const auto points = testing::clustered_points<3>(800, 6, 1.0f, 0.02f, 43);
  expect_backend_identity<3>(points, Parameters{0.05f, 4}, false);
}

TEST(SimdPipeline, DenseboxLabelsAndCountersMatchScalarBackend2D) {
  const auto points = testing::clustered_points<2>(900, 7, 1.0f, 0.015f, 47);
  expect_backend_identity<2>(points, Parameters{0.03f, 5}, true);
}

TEST(SimdPipeline, DenseboxLabelsAndCountersMatchScalarBackend3D) {
  const auto points = testing::clustered_points<3>(800, 6, 1.0f, 0.02f, 53);
  expect_backend_identity<3>(points, Parameters{0.05f, 4}, true);
}

TEST(SimdPipeline, TinyInputsRunOnBothBackends) {
  for (std::int64_t n : {0, 1, 2, 7, 8, 9}) {
    const auto points = testing::random_points<2>(n, 1.0f, 59);
    for (bool backend_on : {true, false}) {
      ScopedBackend backend(backend_on);
      Engine<2> engine(points);
      const Clustering got = engine.run(Parameters{0.2f, 2});
      EXPECT_EQ(static_cast<std::int64_t>(got.labels.size()), n)
          << "n=" << n << " simd=" << backend_on;
    }
  }
}

}  // namespace
}  // namespace fdbscan
