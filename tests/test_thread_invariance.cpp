// Thread-count invariance: the clustering (and the architecture-neutral
// work counters) an algorithm produces must not depend on how many
// workers the runtime happens to have. FDBSCAN and DenseBox keep their
// union-find and core flags in index order and number clusters by it,
// so core flags must match bit for bit, and so must every label except
// at border points adjacent to two clusters, where DBSCAN leaves the
// choice open (equivalent_clusterings checks those). The counter totals
// must match exactly because the striped accumulators sum the same
// per-point work regardless of which thread performed it. The
// input-order tests check the map back to point ids: a shuffled input
// must carry every core flag along with its point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "baselines/sequential_dbscan.h"
#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "core/validate.h"
#include "dbscan_test_cases.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

using testing::DbscanCase;
using testing::ScopedThreads;

/// Border points eps-close to core points of two or more clusters: the
/// one labelling choice DBSCAN leaves open, which racing claims may settle
/// either way. Brute force over `reference`; the cases are small.
template <int DIM>
std::vector<bool> ambiguous_border_points(
    const std::vector<Point<DIM>>& points, const Parameters& params,
    const Clustering& reference) {
  const float eps2 = params.eps * params.eps;
  std::vector<bool> ambiguous(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (reference.is_core[i] != 0 || reference.labels[i] == kNoise) continue;
    std::int32_t seen = kNoise;
    for (std::size_t j = 0; j < points.size() && !ambiguous[i]; ++j) {
      if (reference.is_core[j] == 0 || !within(points[i], points[j], eps2)) {
        continue;
      }
      if (seen != kNoise && reference.labels[j] != seen) ambiguous[i] = true;
      seen = reference.labels[j];
    }
  }
  return ambiguous;
}

template <class Run>
void expect_thread_invariant(const DbscanCase& c, Run run) {
  const auto points = make_dataset(c);
  const Parameters params{c.eps, c.minpts};
  Clustering reference;
  {
    ScopedThreads threads(1);
    reference = run(points, params);
  }
  const std::vector<bool> open = ambiguous_border_points(points, params,
                                                         reference);
  for (int threads : {2, 4, 8}) {
    ScopedThreads scoped(threads);
    const Clustering candidate = run(points, params);
    const auto check =
        equivalent_clusterings(points, params, reference, candidate);
    EXPECT_TRUE(check.ok) << "threads=" << threads << ": " << check.message;
    EXPECT_EQ(candidate.is_core, reference.is_core) << "threads=" << threads;
    // Clusters are numbered in index order, so every label DBSCAN fixes
    // is bit-identical, not just equal up to renumbering.
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (open[i]) continue;
      ASSERT_EQ(candidate.labels[i], reference.labels[i])
          << "threads=" << threads << " point " << i;
    }
    EXPECT_EQ(candidate.num_clusters, reference.num_clusters)
        << "threads=" << threads;
    EXPECT_EQ(candidate.distance_computations, reference.distance_computations)
        << "threads=" << threads;
    EXPECT_EQ(candidate.index_nodes_visited, reference.index_nodes_visited)
        << "threads=" << threads;
  }
}

class ThreadInvariance : public ::testing::TestWithParam<DbscanCase> {};

TEST_P(ThreadInvariance, FdbscanClusteringMatchesSingleThreadRun) {
  expect_thread_invariant(GetParam(), [](const auto& points, const auto& p) {
    return fdbscan(points, p);
  });
}

TEST_P(ThreadInvariance, DenseboxClusteringMatchesSingleThreadRun) {
  expect_thread_invariant(GetParam(), [](const auto& points, const auto& p) {
    return fdbscan_densebox(points, p);
  });
}

INSTANTIATE_TEST_SUITE_P(StandardCases, ThreadInvariance,
                         ::testing::ValuesIn(testing::standard_cases()));

/// Clusters `points` and a seeded shuffle of them with `run`: each core
/// flag must follow its point through the shuffle, and both results must
/// be valid clusterings of their input.
template <int DIM, class Run>
void expect_input_order_invariant(const std::vector<Point<DIM>>& points,
                                  const Parameters& params, Run run) {
  std::vector<std::int32_t> perm(points.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(0x5eed));
  std::vector<Point<DIM>> shuffled(points.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    shuffled[k] = points[static_cast<std::size_t>(perm[k])];
  }
  ScopedThreads threads(4);
  const Clustering a = run(points, params);
  const Clustering b = run(shuffled, params);
  for (std::size_t k = 0; k < perm.size(); ++k) {
    ASSERT_EQ(b.is_core[k], a.is_core[static_cast<std::size_t>(perm[k])])
        << "shuffled point " << k;
  }
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  const auto check_a = equivalent_clusterings(
      points, params, baselines::sequential_dbscan(points, params), a);
  EXPECT_TRUE(check_a.ok) << check_a.message;
  const auto check_b = equivalent_clusterings(
      shuffled, params, baselines::sequential_dbscan(shuffled, params), b);
  EXPECT_TRUE(check_b.ok) << check_b.message;
}

/// Uniform 2-D points where most clustered points are border points.
std::vector<Point<2>> border_heavy_points() {
  return testing::random_points<2>(2000, 1.0f, 733);
}
constexpr Parameters kBorderHeavyParams{0.03f, 9};

TEST(InputOrder, BorderHeavyCaseIsMostlyBorderPoints) {
  const auto points = border_heavy_points();
  const Clustering ref =
      baselines::sequential_dbscan(points, kBorderHeavyParams);
  std::int64_t core = 0, border = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    core += ref.is_core[i] != 0;
    border += ref.is_core[i] == 0 && ref.labels[i] != kNoise;
  }
  EXPECT_GT(border, core);
  EXPECT_GT(core, 0);
}

template <class Run>
void expect_input_order_cases(Run run) {
  {
    SCOPED_TRACE("2-D clustered, minpts 2");
    expect_input_order_invariant(
        testing::clustered_points<2>(2000, 6, 1.0f, 0.02f, 731),
        Parameters{0.01f, 2}, run);
  }
  {
    SCOPED_TRACE("2-D clustered, minpts 5");
    expect_input_order_invariant(
        testing::clustered_points<2>(2000, 6, 1.0f, 0.02f, 731),
        Parameters{0.01f, 5}, run);
  }
  {
    SCOPED_TRACE("3-D clustered, minpts 5");
    expect_input_order_invariant(
        testing::clustered_points<3>(2000, 5, 1.0f, 0.03f, 732),
        Parameters{0.04f, 5}, run);
  }
  {
    SCOPED_TRACE("2-D uniform, mostly border points");
    expect_input_order_invariant(border_heavy_points(), kBorderHeavyParams,
                                 run);
  }
}

TEST(InputOrder, FdbscanCoreFlagsFollowTheShuffle) {
  expect_input_order_cases([](const auto& points, const auto& p) {
    return fdbscan(points, p);
  });
}

TEST(InputOrder, DenseboxCoreFlagsFollowTheShuffle) {
  expect_input_order_cases([](const auto& points, const auto& p) {
    return fdbscan_densebox(points, p);
  });
}

}  // namespace
}  // namespace fdbscan
