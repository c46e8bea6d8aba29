#include "exec/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "exec/atomic.h"
#include "exec/cancel.h"
#include "exec/profile.h"
#include "test_utils.h"

namespace fdbscan::exec {
namespace {

class ParallelWithThreads : public ::testing::TestWithParam<int> {
 protected:
  testing::ScopedThreads threads_{GetParam()};
};

TEST_P(ParallelWithThreads, ForVisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t kN = 12345;
  std::vector<std::int32_t> visits(kN, 0);
  parallel_for(kN, [&](std::int64_t i) {
    atomic_fetch_add(visits[static_cast<std::size_t>(i)], std::int32_t{1});
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[static_cast<std::size_t>(i)], 1) << "index " << i;
  }
}

TEST_P(ParallelWithThreads, ForHandlesEmptyAndSingle) {
  std::int64_t count = 0;
  parallel_for(0, [&](std::int64_t) { atomic_fetch_add(count, std::int64_t{1}); });
  EXPECT_EQ(count, 0);
  parallel_for(-5, [&](std::int64_t) { atomic_fetch_add(count, std::int64_t{1}); });
  EXPECT_EQ(count, 0);
  parallel_for(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    atomic_fetch_add(count, std::int64_t{1});
  });
  EXPECT_EQ(count, 1);
}

TEST_P(ParallelWithThreads, ReduceSum) {
  constexpr std::int64_t kN = 100001;
  const std::int64_t total = parallel_reduce(
      kN, std::int64_t{0}, [](std::int64_t i) { return i; },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST_P(ParallelWithThreads, ReduceMax) {
  constexpr std::int64_t kN = 7777;
  const std::int64_t mx = parallel_reduce(
      kN, std::int64_t{-1},
      [](std::int64_t i) { return (i * 37) % 1000; },
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; });
  EXPECT_EQ(mx, 999);
}

TEST_P(ParallelWithThreads, ReduceRespectsInitOnEmptyRange) {
  const int v = parallel_reduce(
      0, 42, [](std::int64_t) { return 0; }, [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 42);
}

TEST_P(ParallelWithThreads, SumConvenience) {
  EXPECT_EQ(parallel_sum<std::int64_t>(1000, [](std::int64_t) { return 2; }),
            2000);
}

TEST_P(ParallelWithThreads, ExclusiveScanMatchesSerialReference) {
  for (std::int64_t n : {0LL, 1LL, 2LL, 100LL, 4095LL, 4096LL, 100000LL}) {
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      data[static_cast<std::size_t>(i)] = (i * 7919) % 13;
    }
    std::vector<std::int64_t> expected(data.size());
    std::int64_t run = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      expected[i] = run;
      run += data[i];
    }
    const std::int64_t total = exclusive_scan(data);
    EXPECT_EQ(total, run) << "n=" << n;
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST_P(ParallelWithThreads, ThreadIndexStaysInRangeAndRegionFlagIsSet) {
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(thread_index(), 0);  // dispatching thread is slot 0 outside
  constexpr std::int64_t kN = 20000;
  std::vector<std::int32_t> seen_index(kN);
  std::vector<std::uint8_t> seen_flag(kN);
  parallel_for(kN, [&](std::int64_t i) {
    seen_index[static_cast<std::size_t>(i)] = thread_index();
    seen_flag[static_cast<std::size_t>(i)] = in_parallel_region() ? 1 : 0;
  });
  EXPECT_FALSE(in_parallel_region());
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_GE(seen_index[static_cast<std::size_t>(i)], 0);
    ASSERT_LT(seen_index[static_cast<std::size_t>(i)], num_threads());
    ASSERT_EQ(seen_flag[static_cast<std::size_t>(i)], 1);
  }
}

TEST_P(ParallelWithThreads, NestedParallelForInsideKernelIsSerialAndComplete) {
  // A launch from inside a kernel must execute inline (Kokkos serial
  // nested policy), not deadlock or hand chunks to other workers.
  constexpr std::int64_t kOuter = 200;
  constexpr std::int64_t kInner = 300;
  std::vector<std::int64_t> row_sums(kOuter, 0);
  parallel_for(kOuter, [&](std::int64_t i) {
    EXPECT_TRUE(in_parallel_region());
    const int outer_index = thread_index();
    std::int64_t sum = 0;
    parallel_for(kInner, [&](std::int64_t j) {
      // Inline execution: the nested kernel runs on the same thread.
      EXPECT_EQ(thread_index(), outer_index);
      sum += j;
    });
    row_sums[static_cast<std::size_t>(i)] = sum;
  });
  for (std::int64_t i = 0; i < kOuter; ++i) {
    ASSERT_EQ(row_sums[static_cast<std::size_t>(i)], kInner * (kInner - 1) / 2);
  }
}

TEST_P(ParallelWithThreads, NestedScanAndReduceInsideKernel) {
  constexpr std::int64_t kOuter = 64;
  std::vector<std::int64_t> totals(kOuter, 0);
  std::vector<std::int64_t> sums(kOuter, 0);
  parallel_for(kOuter, [&](std::int64_t i) {
    std::vector<std::int64_t> data(100, 2);
    totals[static_cast<std::size_t>(i)] = exclusive_scan(data);
    sums[static_cast<std::size_t>(i)] = parallel_reduce(
        50, std::int64_t{0}, [](std::int64_t j) { return j; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    // The scan must have produced the running prefix, not garbage.
    EXPECT_EQ(data[0], 0);
    EXPECT_EQ(data[99], 198);
  });
  for (std::int64_t i = 0; i < kOuter; ++i) {
    ASSERT_EQ(totals[static_cast<std::size_t>(i)], 200);
    ASSERT_EQ(sums[static_cast<std::size_t>(i)], 49 * 50 / 2);
  }
}

TEST_P(ParallelWithThreads, ProfilerCountsLaunchesAndChunks) {
  PhaseProfiler profiler;
  KernelPhaseProfile profile;
  constexpr std::int64_t kN = 10000;
  std::vector<std::int32_t> out(kN);
  parallel_for(kN, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = 1;
  });
  profiler.lap(&profile);
  EXPECT_EQ(profile.launches, 1);
  EXPECT_GE(profile.chunks, 1);
  EXPECT_GE(profile.workers, 1);
  EXPECT_LE(profile.workers, num_threads());
  EXPECT_GE(profile.busy_total, 0.0);
  EXPECT_GE(profile.busy_max, 0.0);
  if (profile.workers > 0) {
    EXPECT_GE(profile.imbalance(), 1.0);
  }

  // A quiet phase records nothing.
  KernelPhaseProfile quiet;
  profiler.lap(&quiet);
  EXPECT_EQ(quiet.launches, 0);
  EXPECT_EQ(quiet.chunks, 0);
  EXPECT_EQ(quiet.imbalance(), 0.0);
}

TEST_P(ParallelWithThreads, NestedSequentialKernelsKeepOrdering) {
  // Two kernels in sequence: the second must observe all writes of the
  // first (the pool's dispatch acts as a device-wide barrier).
  constexpr std::int64_t kN = 50000;
  std::vector<std::int32_t> a(kN), b(kN);
  parallel_for(kN, [&](std::int64_t i) {
    a[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
  });
  parallel_for(kN, [&](std::int64_t i) {
    b[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] + 1;
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(b[static_cast<std::size_t>(i)], i + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelWithThreads,
                         ::testing::Values(1, 2, 3, 8));

TEST(Parallel, FloatReduceIsBitIdenticalAcrossThreadCounts) {
  // The chunking of parallel_reduce is thread-count independent and the
  // partials merge in chunk order, so a float sum — where association
  // order changes the rounding — must come out bit-identical at any
  // worker count.
  constexpr std::int64_t kN = 123457;
  auto value = [](std::int64_t i) {
    // Mix magnitudes so a different summation order would actually
    // produce different rounding, not accidentally agree.
    return (i % 7 == 0) ? 1e8f : 1.0f / (static_cast<float>(i) + 1.0f);
  };
  auto run = [&] {
    return parallel_reduce(
        kN, 0.0f, value, [](float a, float b) { return a + b; });
  };
  std::uint32_t reference_bits = 0;
  {
    testing::ScopedThreads threads(1);
    const float sum = run();
    std::memcpy(&reference_bits, &sum, sizeof(sum));
  }
  for (int threads : {2, 8}) {
    testing::ScopedThreads scoped(threads);
    const float sum = run();
    std::uint32_t bits = 0;
    std::memcpy(&bits, &sum, sizeof(sum));
    EXPECT_EQ(bits, reference_bits) << "threads=" << threads;
  }
}

TEST(Parallel, DoubleReduceIsBitIdenticalAcrossThreadCounts) {
  constexpr std::int64_t kN = 99991;
  auto run = [&] {
    return parallel_reduce(
        kN, 0.0, [](std::int64_t i) { return 1.0 / (static_cast<double>(i) + 1.0); },
        [](double a, double b) { return a + b; });
  };
  std::uint64_t reference_bits = 0;
  {
    testing::ScopedThreads threads(1);
    const double sum = run();
    std::memcpy(&reference_bits, &sum, sizeof(sum));
  }
  for (int threads : {2, 8}) {
    testing::ScopedThreads scoped(threads);
    const double sum = run();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &sum, sizeof(sum));
    EXPECT_EQ(bits, reference_bits) << "threads=" << threads;
  }
}

TEST(Parallel, SetNumThreadsTakesEffect) {
  testing::ScopedThreads threads(3);
  EXPECT_EQ(num_threads(), 3);
  {
    testing::ScopedThreads inner(1);
    EXPECT_EQ(num_threads(), 1);
  }
  EXPECT_EQ(num_threads(), 3);
}

TEST(Parallel, LargeGrainStillCoversRange) {
  // n smaller than any reasonable grain must still be fully covered.
  testing::ScopedThreads threads(8);
  std::int64_t sum = 0;
  parallel_for(3, [&](std::int64_t i) { atomic_fetch_add(sum, i); });
  EXPECT_EQ(sum, 3);
}

// Top-level launches from distinct threads run side by side on the
// pool: every launch must still visit each of its indices exactly once,
// whichever workers joined it.
TEST(Parallel, ConcurrentTopLevelLaunchesEachCoverTheirRangeOnce) {
  testing::ScopedThreads threads(4);
  constexpr int kLaunchers = 3;
  constexpr int kRounds = 40;
  constexpr std::int64_t kN = 4096;
  std::atomic<int> bad_rounds{0};
  std::vector<std::thread> launchers;
  for (int l = 0; l < kLaunchers; ++l) {
    launchers.emplace_back([&] {
      std::vector<std::int32_t> hits(static_cast<std::size_t>(kN));
      for (int round = 0; round < kRounds; ++round) {
        std::fill(hits.begin(), hits.end(), 0);
        parallel_for("test/concurrent-launch", kN, [&](std::int64_t i) {
          atomic_fetch_add(hits[static_cast<std::size_t>(i)], 1);
        });
        for (const std::int32_t h : hits) {
          if (h != 1) {
            bad_rounds.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : launchers) t.join();
  EXPECT_EQ(bad_rounds.load(), 0);
}

// A raised token stops only the launch it governs: a concurrent launch
// from another thread still runs every chunk.
TEST(Parallel, CancellingOneLaunchLeavesAConcurrentLaunchComplete) {
  testing::ScopedThreads threads(4);
  constexpr std::int64_t kN = 200000;
  std::atomic<bool> threw{false};
  std::thread cancelled([&] {
    CancelToken token;
    CancelScope scope(token);
    try {
      parallel_for("test/cancelled-launch", kN, [&](std::int64_t i) {
        if (i == kN / 4) token.request_cancel();
      });
    } catch (const CancelledError&) {
      threw.store(true);
    }
  });
  std::int64_t sum = 0;
  parallel_for("test/surviving-launch", kN,
               [&](std::int64_t i) { atomic_fetch_add(sum, i); });
  cancelled.join();
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
  // The pool is reusable after both.
  std::int64_t after = 0;
  parallel_for(1000, [&](std::int64_t i) { atomic_fetch_add(after, i); });
  EXPECT_EQ(after, 999 * 1000 / 2);
}

}  // namespace
}  // namespace fdbscan::exec
