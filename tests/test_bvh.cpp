#include "bvh/bvh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "exec/atomic.h"
#include "exec/parallel.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

template <int DIM>
std::vector<std::int32_t> brute_force_range(const std::vector<Point<DIM>>& pts,
                                            const Point<DIM>& q, float eps2) {
  std::vector<std::int32_t> result;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (within(q, pts[i], eps2)) result.push_back(static_cast<std::int32_t>(i));
  }
  return result;
}

TEST(Bvh, EmptyTreeHasNoHits) {
  Bvh<2> bvh(std::vector<Point2>{});
  EXPECT_EQ(bvh.size(), 0);
  int hits = 0;
  bvh.for_each_near(Point2{{0.0f, 0.0f}}, 1.0f, [&](std::int32_t, std::int32_t) {
    ++hits;
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(hits, 0);
}

TEST(Bvh, PrimitiveOrderListsTheSortedLeaves) {
  const auto pts = testing::random_points<2>(1000, 1.0f, 44);
  Bvh<2> bvh(pts);
  const std::span<const std::int32_t> order = bvh.primitive_order();
  ASSERT_EQ(order.size(), pts.size());
  for (std::int32_t pos = 0; pos < bvh.size(); ++pos) {
    EXPECT_EQ(order[static_cast<std::size_t>(pos)], bvh.primitive_at(pos));
    EXPECT_EQ(bvh.position_of(bvh.primitive_at(pos)), pos);
  }
}

TEST(Bvh, SingleLeaf) {
  Bvh<2> bvh(std::vector<Point2>{{{1.0f, 1.0f}}});
  EXPECT_EQ(bvh.size(), 1);
  std::vector<std::int32_t> found;
  bvh.for_each_near(Point2{{1.0f, 1.2f}}, 0.05f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(found, std::vector<std::int32_t>{0});
  found.clear();
  bvh.for_each_near(Point2{{9.0f, 9.0f}}, 0.05f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  EXPECT_TRUE(found.empty());
}

TEST(Bvh, TwoLeaves) {
  std::vector<Point2> pts{{{0.0f, 0.0f}}, {{10.0f, 10.0f}}};
  Bvh<2> bvh(pts);
  std::vector<std::int32_t> found;
  bvh.for_each_near(Point2{{0.1f, 0.0f}}, 0.25f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(found, std::vector<std::int32_t>{0});
}

TEST(Bvh, HandlesAllIdenticalPoints) {
  // Every Morton code equal: the index-tiebreak path of the hierarchy
  // construction must still produce a valid tree.
  std::vector<Point2> pts(100, Point2{{0.5f, 0.5f}});
  Bvh<2> bvh(pts);
  int hits = 0;
  bvh.for_each_near(Point2{{0.5f, 0.5f}}, 0.01f, [&](std::int32_t, std::int32_t) {
    ++hits;
    return TraversalControl::kContinue;
  });
  EXPECT_EQ(hits, 100);
}

TEST(Bvh, SortedPositionsAreAPermutation) {
  auto pts = testing::random_points<2>(1000, 1.0f, 17);
  Bvh<2> bvh(pts);
  std::set<std::int32_t> ids;
  for (std::int32_t pos = 0; pos < bvh.size(); ++pos) {
    ids.insert(bvh.primitive_at(pos));
    EXPECT_EQ(bvh.position_of(bvh.primitive_at(pos)), pos);
  }
  EXPECT_EQ(ids.size(), pts.size());
}

TEST(Bvh, SceneBoundsCoverAllPrimitives) {
  auto pts = testing::random_points<3>(500, 4.0f, 3);
  Bvh<3> bvh(pts);
  for (const auto& p : pts) EXPECT_TRUE(bvh.scene_bounds().contains(p));
}

TEST(Bvh, BytesUsedIsPositiveAndLinear) {
  auto small = testing::random_points<2>(100, 1.0f, 5);
  auto large = testing::random_points<2>(1000, 1.0f, 5);
  Bvh<2> a(small), b(large);
  EXPECT_GT(a.bytes_used(), 0u);
  EXPECT_GT(b.bytes_used(), 5 * a.bytes_used());
  EXPECT_LT(b.bytes_used(), 20 * a.bytes_used());
}

TEST(Bvh, EarlyTerminationStopsTraversal) {
  std::vector<Point2> pts(50, Point2{{0.0f, 0.0f}});
  Bvh<2> bvh(pts);
  int hits = 0;
  bvh.for_each_near(Point2{{0.0f, 0.0f}}, 1.0f, [&](std::int32_t, std::int32_t) {
    ++hits;
    return hits >= 5 ? TraversalControl::kTerminate : TraversalControl::kContinue;
  });
  EXPECT_EQ(hits, 5);
}

TEST(Bvh, MixedBoxAndPointPrimitives) {
  // A fat box next to isolated points — the FDBSCAN-DenseBox setup.
  std::vector<Box2> prims;
  prims.push_back(Box2{{{0.0f, 0.0f}}, {{1.0f, 1.0f}}});  // box primitive
  prims.push_back(Box2{{{5.0f, 5.0f}}, {{5.0f, 5.0f}}});  // point primitive
  prims.push_back(Box2{{{1.4f, 0.5f}}, {{1.4f, 0.5f}}});
  Bvh<2> bvh(prims);
  std::vector<std::int32_t> found;
  // Query at (1.5, 0.5) with radius 0.5: touches the box (distance 0.5)
  // and the point at distance 0.1; misses (5,5).
  bvh.for_each_near(Point2{{1.5f, 0.5f}}, 0.25f, [&](std::int32_t, std::int32_t id) {
    found.push_back(id);
    return TraversalControl::kContinue;
  });
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<std::int32_t>{0, 2}));
}

struct RangeQueryParam {
  // gtest names each instance after this struct's raw bytes, so padding
  // is explicit and zeroed to keep the test names deterministic.
  std::int64_t n;
  float extent;
  float eps;
  std::uint64_t seed;
  bool clustered;
  std::uint8_t tail_padding[7] = {};
};

class BvhRangeQuery : public ::testing::TestWithParam<RangeQueryParam> {};

TEST_P(BvhRangeQuery, MatchesBruteForce2D) {
  const auto param = GetParam();
  auto pts = param.clustered
                 ? testing::clustered_points<2>(param.n, 10, param.extent,
                                                param.eps, param.seed)
                 : testing::random_points<2>(param.n, param.extent, param.seed);
  Bvh<2> bvh(pts);
  const float eps2 = param.eps * param.eps;
  for (std::size_t q = 0; q < pts.size(); q += 7) {
    auto expected = brute_force_range(pts, pts[q], eps2);
    std::vector<std::int32_t> found;
    bvh.for_each_near(pts[q], eps2, [&](std::int32_t, std::int32_t id) {
      found.push_back(id);
      return TraversalControl::kContinue;
    });
    std::sort(found.begin(), found.end());
    ASSERT_EQ(found, expected) << "query " << q;
  }
}

TEST_P(BvhRangeQuery, MatchesBruteForce3D) {
  const auto param = GetParam();
  auto pts = testing::random_points<3>(param.n, param.extent, param.seed);
  Bvh<3> bvh(pts);
  const float eps2 = param.eps * param.eps;
  for (std::size_t q = 0; q < pts.size(); q += 13) {
    auto expected = brute_force_range(pts, pts[q], eps2);
    std::vector<std::int32_t> found;
    bvh.for_each_near(pts[q], eps2, [&](std::int32_t, std::int32_t id) {
      found.push_back(id);
      return TraversalControl::kContinue;
    });
    std::sort(found.begin(), found.end());
    ASSERT_EQ(found, expected) << "query " << q;
  }
}

TEST_P(BvhRangeQuery, MaskedTraversalVisitsEachPairExactlyOnce) {
  // The §4.1 half-traversal invariant: iterating all threads with mask
  // pos+1 enumerates each eps-close (i, j) pair exactly once, and the
  // union over threads equals the full pair set.
  const auto param = GetParam();
  auto pts = testing::random_points<2>(param.n, param.extent, param.seed);
  Bvh<2> bvh(pts);
  const float eps2 = param.eps * param.eps;
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (std::int32_t pos = 0; pos < bvh.size(); ++pos) {
    const std::int32_t x = bvh.primitive_at(pos);
    bvh.for_each_near(pts[static_cast<std::size_t>(x)], eps2, pos + 1,
                      [&](std::int32_t jpos, std::int32_t y) {
                        EXPECT_GT(jpos, pos);
                        auto key = std::minmax(x, y);
                        auto [it, fresh] = seen.insert({key.first, key.second});
                        EXPECT_TRUE(fresh)
                            << "pair (" << x << "," << y << ") seen twice";
                        return TraversalControl::kContinue;
                      });
  }
  // Reference pair set.
  std::size_t expected_pairs = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      expected_pairs += within(pts[i], pts[j], eps2);
    }
  }
  EXPECT_EQ(seen.size(), expected_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BvhRangeQuery,
    ::testing::Values(RangeQueryParam{2, 1.0f, 0.2f, 11, false},
                      RangeQueryParam{64, 1.0f, 0.1f, 12, false},
                      RangeQueryParam{500, 1.0f, 0.08f, 13, false},
                      RangeQueryParam{500, 1.0f, 0.02f, 14, true},
                      RangeQueryParam{1500, 2.0f, 0.05f, 15, false},
                      RangeQueryParam{1000, 1.0f, 2.5f, 16, false}));  // all-pairs

TEST(Bvh, ParallelBatchedQueriesAreSafe) {
  testing::ScopedThreads threads(8);
  auto pts = testing::random_points<2>(3000, 1.0f, 77);
  Bvh<2> bvh(pts);
  const float eps2 = 0.05f * 0.05f;
  std::vector<std::int32_t> counts(pts.size(), 0);
  exec::parallel_for(static_cast<std::int64_t>(pts.size()), [&](std::int64_t i) {
    std::int32_t c = 0;
    bvh.for_each_near(pts[static_cast<std::size_t>(i)], eps2,
                      [&](std::int32_t, std::int32_t) {
                        ++c;
                        return TraversalControl::kContinue;
                      });
    counts[static_cast<std::size_t>(i)] = c;
  });
  // Spot-check against brute force.
  for (std::size_t q = 0; q < pts.size(); q += 97) {
    EXPECT_EQ(counts[q],
              static_cast<std::int32_t>(
                  brute_force_range(pts, pts[q], eps2).size()));
  }
}

TEST(Bvh, BuildUnderConcurrencyIsDeterministic) {
  auto pts = testing::random_points<2>(5000, 1.0f, 123);
  testing::ScopedThreads single(1);
  Bvh<2> serial(pts);
  std::vector<std::int32_t> order_serial(static_cast<std::size_t>(serial.size()));
  for (std::int32_t i = 0; i < serial.size(); ++i) {
    order_serial[static_cast<std::size_t>(i)] = serial.primitive_at(i);
  }
  testing::ScopedThreads many(8);
  Bvh<2> parallel_tree(pts);
  for (std::int32_t i = 0; i < parallel_tree.size(); ++i) {
    ASSERT_EQ(parallel_tree.primitive_at(i),
              order_serial[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace fdbscan
