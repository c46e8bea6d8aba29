#include "unionfind/union_find.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "exec/atomic.h"
#include "exec/parallel.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

TEST(SequentialDSU, SingletonsInitially) {
  SequentialDSU dsu(5);
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(dsu.find(i), i);
}

TEST(SequentialDSU, UniteReportsNovelty) {
  SequentialDSU dsu(4);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));  // already together
  EXPECT_TRUE(dsu.unite(2, 3));
  EXPECT_TRUE(dsu.unite(0, 3));
  EXPECT_EQ(dsu.find(1), dsu.find(2));
}

TEST(UnionFindView, InitSingletons) {
  std::vector<std::int32_t> labels(10);
  init_singletons(labels);
  for (std::int32_t i = 0; i < 10; ++i) EXPECT_EQ(labels[static_cast<std::size_t>(i)], i);
}

TEST(UnionFindView, MergeJoinsSets) {
  std::vector<std::int32_t> labels(6);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 6);
  uf.merge(0, 5);
  uf.merge(2, 3);
  EXPECT_EQ(uf.representative(0), uf.representative(5));
  EXPECT_EQ(uf.representative(2), uf.representative(3));
  EXPECT_NE(uf.representative(0), uf.representative(2));
  uf.merge(5, 3);
  EXPECT_EQ(uf.representative(0), uf.representative(2));
}

TEST(UnionFindView, MergeIsIdempotent) {
  std::vector<std::int32_t> labels(4);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 4);
  uf.merge(1, 2);
  const auto r = uf.representative(1);
  uf.merge(1, 2);
  uf.merge(2, 1);
  EXPECT_EQ(uf.representative(1), r);
  EXPECT_EQ(uf.representative(2), r);
}

TEST(UnionFindView, HooksLargerUnderSmaller) {
  // The decreasing-parent invariant underpins lock-freedom: check the
  // root of any merged set is the minimum element ever merged into it
  // (true for sequences of merges without interleaved claims).
  std::vector<std::int32_t> labels(100);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 100);
  uf.merge(99, 98);
  uf.merge(98, 3);
  uf.merge(50, 99);
  EXPECT_EQ(uf.representative(50), 3);
}

TEST(UnionFindView, ClaimWinsOnlyOnce) {
  std::vector<std::int32_t> labels(5);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 5);
  EXPECT_TRUE(uf.unassigned(3));
  EXPECT_TRUE(uf.claim(3, 0));
  EXPECT_FALSE(uf.unassigned(3));
  EXPECT_FALSE(uf.claim(3, 1));  // second cluster must not steal it
  EXPECT_EQ(uf.representative(3), 0);
}

TEST(UnionFindView, ClaimOfAssignedPointTouchesNothing) {
  // A claim that must fail returns before the find: the long chain under
  // `into` keeps every link (no path-halving write) and so does y.
  std::vector<std::int32_t> labels{0, 0, 1, 2, 3, 0};
  UnionFindView uf(labels.data(), 6);
  const std::vector<std::int32_t> before = labels;
  EXPECT_FALSE(uf.claim(5, 4));  // 5 already belongs to 0's set
  EXPECT_EQ(labels, before);
  EXPECT_FALSE(uf.claim(4, 3));  // 4 is a chain member, not unassigned
  EXPECT_EQ(labels, before);
}

TEST(UnionFindView, MergeReturnsAMemberOfTheJoinedSet) {
  std::vector<std::int32_t> labels(8);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 8);
  EXPECT_EQ(uf.merge(6, 4), 4);  // 6 hooked under 4
  EXPECT_EQ(uf.merge(7, 2), 2);
  EXPECT_EQ(uf.merge(6, 7), 2);  // 4 hooked under 2
  EXPECT_EQ(uf.merge(4, 7), 2);  // already joined: the common root
}

TEST(UnionFindView, MergeCachedSkipsJoinedPointsAndTracksTheRoot) {
  std::vector<std::int32_t> labels(8);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 8);
  std::int32_t member = 5;
  uf.merge_cached(member, 3);  // 5 hooked under 3
  EXPECT_EQ(member, 3);
  uf.merge_cached(member, 6);  // 6 hooked under 3
  EXPECT_EQ(member, 3);
  const std::vector<std::int32_t> before = labels;
  uf.merge_cached(member, 6);  // parent of 6 is the cached member: skip
  EXPECT_EQ(labels, before);
  uf.merge_cached(member, 1);
  EXPECT_EQ(member, 1);
  for (const std::int32_t v : {1, 3, 5, 6}) EXPECT_EQ(uf.representative(v), 1);
}

TEST(UnionFindView, ClaimedPointFollowsLaterRootMerges) {
  std::vector<std::int32_t> labels(6);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 6);
  EXPECT_TRUE(uf.claim(4, 2));  // border point 4 joins cluster of 2
  uf.merge(2, 0);               // cluster of 2 later merges under 0
  flatten(labels);
  EXPECT_EQ(labels[4], 0);
}

TEST(UnionFindView, FlattenMakesLabelsDirect) {
  std::vector<std::int32_t> labels(64);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 64);
  for (std::int32_t i = 1; i < 64; ++i) uf.merge(i - 1, i);  // long chain
  flatten(labels);
  for (std::int32_t i = 0; i < 64; ++i) EXPECT_EQ(labels[static_cast<std::size_t>(i)], 0);
}

TEST(UnionFindView, FlattenIsIdempotent) {
  std::vector<std::int32_t> labels(32);
  init_singletons(labels);
  UnionFindView uf(labels.data(), 32);
  uf.merge(5, 17);
  uf.merge(17, 30);
  flatten(labels);
  auto snapshot = labels;
  flatten(labels);
  EXPECT_EQ(labels, snapshot);
}

// --- Concurrent stress: random edge list, compare against sequential ---
struct StressParam {
  // gtest names each instance after this struct's raw bytes, so padding
  // is explicit and zeroed to keep the test names deterministic.
  int threads;
  std::int32_t n;
  std::int32_t edges;
  std::uint32_t padding = 0;
  std::uint64_t seed;
};

class UnionFindStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(UnionFindStress, MatchesSequentialPartition) {
  const auto param = GetParam();
  testing::ScopedThreads threads(param.threads);
  std::mt19937_64 rng(param.seed);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges(
      static_cast<std::size_t>(param.edges));
  for (auto& [u, v] : edges) {
    u = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(param.n));
    v = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(param.n));
  }

  std::vector<std::int32_t> labels(static_cast<std::size_t>(param.n));
  init_singletons(labels);
  UnionFindView uf(labels.data(), param.n);
  exec::parallel_for(param.edges, [&](std::int64_t e) {
    const auto& [u, v] = edges[static_cast<std::size_t>(e)];
    uf.merge(u, v);
  });
  flatten(labels);

  SequentialDSU dsu(param.n);
  for (const auto& [u, v] : edges) dsu.unite(u, v);

  // Same partition: labels agree iff dsu roots agree.
  for (std::int32_t i = 0; i < param.n; ++i) {
    for (std::int32_t j : {std::int32_t{0}, i / 2, param.n - 1}) {
      const bool same_ref = dsu.find(i) == dsu.find(j);
      const bool same_cand = labels[static_cast<std::size_t>(i)] ==
                             labels[static_cast<std::size_t>(j)];
      ASSERT_EQ(same_ref, same_cand) << "points " << i << ", " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnionFindStress,
    ::testing::Values(
        StressParam{.threads = 1, .n = 1000, .edges = 500, .seed = 1},
        StressParam{.threads = 4, .n = 1000, .edges = 500, .seed = 2},
        StressParam{.threads = 8, .n = 5000, .edges = 20000, .seed = 3},
        StressParam{.threads = 8, .n = 100, .edges = 5000,
                    .seed = 4},  // heavy contention
        StressParam{.threads = 3, .n = 20000, .edges = 19999, .seed = 5},
        StressParam{.threads = 8, .n = 50000, .edges = 400000, .seed = 6}));

TEST(UnionFindConcurrent, ParallelClaimsHaveUniqueWinners) {
  testing::ScopedThreads threads(8);
  constexpr std::int32_t kN = 1000;
  std::vector<std::int32_t> labels(kN);
  init_singletons(labels);
  UnionFindView uf(labels.data(), kN);
  // 999 threads all try to claim point 0 for their own cluster.
  std::int64_t winners = 0;
  exec::parallel_for(kN - 1, [&](std::int64_t i) {
    if (uf.claim(0, static_cast<std::int32_t>(i) + 1)) {
      exec::atomic_fetch_add(winners, std::int64_t{1});
    }
  });
  EXPECT_EQ(winners, 1);
}

}  // namespace
}  // namespace fdbscan
