#include "core/clustering.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_utils.h"
#include "unionfind/union_find.h"

namespace fdbscan {
namespace {

TEST(FinalizeLabels, NoiseGetsMinusOne) {
  // 4 points: {0,1} a cluster rooted at 0; 2 a claimed border; 3 noise.
  std::vector<std::int32_t> labels{0, 0, 0, 3};
  std::vector<std::uint8_t> is_core{1, 1, 0, 0};
  auto c = detail::finalize_labels(std::move(labels), std::move(is_core));
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.labels, (std::vector<std::int32_t>{0, 0, 0, kNoise}));
  EXPECT_EQ(c.num_noise(), 1);
}

TEST(FinalizeLabels, IndexOrderWritesLabelsAndCoreFlagsById) {
  // Positions 0-1: cluster rooted at 0; 2: a second root with borders
  // 3 and 4 claimed into it; 5: noise. order[pos] is the point id.
  const std::vector<std::int32_t> labels{0, 0, 2, 2, 2, 5};
  const std::vector<std::uint8_t> is_core{1, 1, 1, 0, 0, 0};
  const std::vector<std::int32_t> order{5, 3, 1, 0, 4, 2};
  std::vector<std::int32_t> compact(labels.size());
  const Clustering c = detail::finalize_labels_with_scratch(
      labels.data(), 6, is_core, compact.data(), order);
  EXPECT_EQ(c.num_clusters, 2);  // numbered by the roots' positions
  EXPECT_EQ(c.labels, (std::vector<std::int32_t>{1, 1, kNoise, 0, 1, 0}));
  EXPECT_EQ(c.is_core, (std::vector<std::uint8_t>{0, 1, 0, 1, 0, 1}));
}

TEST(FinalizeLabels, ClustersAreDenselyRenumbered) {
  // Roots at 1 and 4 (flattened), interleaved with noise.
  std::vector<std::int32_t> labels{1, 1, 2, 4, 4, 4};
  std::vector<std::uint8_t> is_core{1, 1, 0, 0, 1, 1};
  auto c = detail::finalize_labels(std::move(labels), std::move(is_core));
  EXPECT_EQ(c.num_clusters, 2);
  EXPECT_EQ(c.labels[0], 0);
  EXPECT_EQ(c.labels[1], 0);
  EXPECT_EQ(c.labels[2], kNoise);  // non-core self-labelled = noise
  EXPECT_EQ(c.labels[3], 1);       // border claimed into root-4 cluster
  EXPECT_EQ(c.labels[4], 1);
  EXPECT_EQ(c.labels[5], 1);
}

TEST(FinalizeLabels, SingletonCoreClusterSurvives) {
  // A core point whose borders were all stolen forms its own cluster.
  std::vector<std::int32_t> labels{0};
  std::vector<std::uint8_t> is_core{1};
  auto c = detail::finalize_labels(std::move(labels), std::move(is_core));
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.labels[0], 0);
}

TEST(FinalizeLabels, AllNoise) {
  std::vector<std::int32_t> labels{0, 1, 2};
  std::vector<std::uint8_t> is_core{0, 0, 0};
  auto c = detail::finalize_labels(std::move(labels), std::move(is_core));
  EXPECT_EQ(c.num_clusters, 0);
  EXPECT_EQ(c.num_noise(), 3);
}

TEST(ResolvePair, CoreCoreMerges) {
  std::vector<std::int32_t> labels{0, 1, 2};
  std::vector<std::uint8_t> is_core{1, 1, 0};
  UnionFindView uf(labels.data(), 3);
  detail::resolve_pair(uf, is_core, 0, 1, Variant::kDbscan);
  EXPECT_EQ(uf.representative(0), uf.representative(1));
}

TEST(ResolvePair, CoreBorderClaims) {
  std::vector<std::int32_t> labels{0, 1, 2};
  std::vector<std::uint8_t> is_core{1, 0, 1};
  UnionFindView uf(labels.data(), 3);
  detail::resolve_pair(uf, is_core, 0, 1, Variant::kDbscan);
  EXPECT_EQ(labels[1], 0);
  // A second cluster cannot steal the border point...
  detail::resolve_pair(uf, is_core, 2, 1, Variant::kDbscan);
  EXPECT_EQ(uf.representative(1), 0);
  // ...and the symmetric orientation works too.
  std::vector<std::int32_t> labels2{0, 1, 2};
  UnionFindView uf2(labels2.data(), 3);
  detail::resolve_pair(uf2, is_core, 1, 0, Variant::kDbscan);  // x border, y core
  EXPECT_EQ(labels2[1], 0);
}

TEST(ResolvePair, NonCorePairIsIgnored) {
  std::vector<std::int32_t> labels{0, 1};
  std::vector<std::uint8_t> is_core{0, 0};
  UnionFindView uf(labels.data(), 2);
  detail::resolve_pair(uf, is_core, 0, 1, Variant::kDbscan);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 1);
}

TEST(ResolvePair, DbscanStarNeverClaimsBorders) {
  std::vector<std::int32_t> labels{0, 1};
  std::vector<std::uint8_t> is_core{1, 0};
  UnionFindView uf(labels.data(), 2);
  detail::resolve_pair(uf, is_core, 0, 1, Variant::kDbscanStar);
  EXPECT_EQ(labels[1], 1);  // untouched -> becomes noise
}

TEST(ResolvePair, BridgingIsImpossible) {
  // The §3.2 hazard: border point 2 sits between clusters {0} and {1}.
  // Whatever the interleaving, the clusters must remain distinct.
  std::vector<std::int32_t> labels{0, 1, 2};
  std::vector<std::uint8_t> is_core{1, 1, 0};
  UnionFindView uf(labels.data(), 3);
  detail::resolve_pair(uf, is_core, 0, 2, Variant::kDbscan);
  detail::resolve_pair(uf, is_core, 1, 2, Variant::kDbscan);
  EXPECT_NE(uf.representative(0), uf.representative(1));
}

TEST(Clustering, NumNoiseCountsMinusOnes) {
  Clustering c;
  c.labels = {0, kNoise, 1, kNoise, kNoise};
  EXPECT_EQ(c.num_noise(), 3);
}

TEST(PhaseTimings, TotalSumsAllPhases) {
  PhaseTimings t;
  t.index_construction = 1.0;
  t.preprocessing = 0.5;
  t.main = 2.0;
  t.finalization = 0.25;
  EXPECT_DOUBLE_EQ(t.total(), 3.75);
}

}  // namespace
}  // namespace fdbscan
