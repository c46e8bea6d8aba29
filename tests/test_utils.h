// Shared helpers for the test suite: small deterministic datasets and a
// scoped thread-count override.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "exec/simd.h"
#include "exec/thread_pool.h"
#include "geometry/point.h"

namespace fdbscan::testing {

/// Runs a section of a test with a specific worker count, restoring the
/// previous count afterwards (thread-count is part of many parameterized
/// sweeps: races only show up with real concurrency).
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : previous_(exec::num_threads()) {
    exec::set_num_threads(n);
  }
  ~ScopedThreads() { exec::set_num_threads(previous_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int previous_;
};

/// Selects the SIMD or scalar kernel backend (exec/simd.h) for a
/// section of a test, restoring the previous selection afterwards (the
/// flag is global).
class ScopedBackend {
 public:
  explicit ScopedBackend(bool on) : previous_(simd::enabled()) {
    simd::set_enabled(on);
  }
  ~ScopedBackend() { simd::set_enabled(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  bool previous_;
};

/// Uniform points in [0, extent]^DIM.
template <int DIM>
std::vector<Point<DIM>> random_points(std::int64_t n, float extent,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> coord(0.0f, extent);
  std::vector<Point<DIM>> points(static_cast<std::size_t>(n));
  for (auto& p : points) {
    for (int d = 0; d < DIM; ++d) p[d] = coord(rng);
  }
  return points;
}

/// Clumpy points: uniform cluster centers with Gaussian blobs plus a few
/// uniform stragglers — exercises dense cells, borders and noise at once.
template <int DIM>
std::vector<Point<DIM>> clustered_points(std::int64_t n, std::int32_t k,
                                         float extent, float sigma,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> coord(0.0f, extent);
  std::normal_distribution<float> gauss(0.0f, sigma);
  std::vector<Point<DIM>> centers(static_cast<std::size_t>(k));
  for (auto& c : centers) {
    for (int d = 0; d < DIM; ++d) c[d] = coord(rng);
  }
  std::vector<Point<DIM>> points(static_cast<std::size_t>(n));
  for (auto& p : points) {
    if (rng() % 10 == 0) {  // 10% uniform background
      for (int d = 0; d < DIM; ++d) p[d] = coord(rng);
    } else {
      const auto& c = centers[rng() % static_cast<std::uint64_t>(k)];
      for (int d = 0; d < DIM; ++d) p[d] = c[d] + gauss(rng);
    }
  }
  return points;
}

}  // namespace fdbscan::testing
