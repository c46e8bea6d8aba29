#include <gtest/gtest.h>

#include "baselines/cell_fof.h"
#include "baselines/mr_scan.h"
#include "core/fdbscan.h"
#include "core/validate.h"
#include "dbscan_test_cases.h"
#include "test_utils.h"

namespace fdbscan {
namespace {

using testing::DbscanCase;
using testing::make_dataset;
using testing::ScopedThreads;
using testing::standard_cases;

class MrScanGroundTruth : public ::testing::TestWithParam<DbscanCase> {};

TEST_P(MrScanGroundTruth, MatchesBruteForce) {
  const auto c = GetParam();
  ScopedThreads threads(c.threads);
  const auto points = make_dataset(c);
  const Parameters params{c.eps, c.minpts};
  const auto result = baselines::mr_scan(points, params);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrScanGroundTruth,
                         ::testing::ValuesIn(standard_cases()));

/// cell_fof implements minpts == 2 only: the standard cases it covers.
std::vector<DbscanCase> fof_cases() {
  std::vector<DbscanCase> cases;
  for (const DbscanCase& c : standard_cases()) {
    if (c.minpts == 2) cases.push_back(c);
  }
  return cases;
}

class CellFofGroundTruth : public ::testing::TestWithParam<DbscanCase> {};

TEST_P(CellFofGroundTruth, MatchesBruteForce) {
  const auto c = GetParam();
  ScopedThreads threads(c.threads);
  const auto points = make_dataset(c);
  const Parameters params{c.eps, c.minpts};
  const auto result = baselines::cell_fof(points, params);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CellFofGroundTruth,
                         ::testing::ValuesIn(fof_cases()));

TEST(MrScan, DbscanStarVariant) {
  auto points = testing::clustered_points<2>(700, 4, 1.0f, 0.012f, 701);
  const Parameters params{0.02f, 8};
  const auto result =
      baselines::mr_scan(points, params, Variant::kDbscanStar);
  const auto check =
      matches_ground_truth(points, params, result, Variant::kDbscanStar);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(MrScan, ThreeDimensional) {
  ScopedThreads threads(4);
  auto points = testing::clustered_points<3>(800, 5, 1.0f, 0.02f, 702);
  const Parameters params{0.04f, 5};
  const auto result = baselines::mr_scan(points, params);
  const auto check = matches_ground_truth(points, params, result);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(CellFof, RejectsGeneralMinpts) {
  auto points = testing::random_points<2>(10, 1.0f, 703);
  EXPECT_THROW((void)baselines::cell_fof(points, Parameters{0.1f, 5}),
               std::invalid_argument);
}

TEST(CellFof, AgreesWithFdbscanFastPath) {
  ScopedThreads threads(8);
  auto points = data::hacc_like(5000, 704);
  const Parameters params{0.5f, 2};
  const auto a = baselines::cell_fof(points, params);
  const auto b = fdbscan(points, params);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  const auto check = equivalent_clusterings(points, params, b, a);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(CellFof, EmptyInput) {
  std::vector<Point2> points;
  const auto result = baselines::cell_fof(points, Parameters{0.1f, 2});
  EXPECT_TRUE(result.labels.empty());
}

}  // namespace
}  // namespace fdbscan
