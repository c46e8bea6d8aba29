// StreamingEngine (stream/streaming_engine.h): label equivalence of the
// incremental insert/expire path against from-scratch runs on the same
// logical point set, rebuild amortization (appends below the threshold
// leave index_rebuilds at zero), lazy expiry, sequence-number stability
// across rebuilds, cancellation rollback, and the delta buffer's
// eps-cell index (adversarial geometry, probe work independent of
// far-away delta points).
#include "stream/streaming_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/fdbscan.h"
#include "core/fdbscan_densebox.h"
#include "core/validate.h"
#include "data/generators.h"
#include "data/sliding_window.h"
#include "exec/cancel.h"
#include "exec/memory_tracker.h"
#include "test_utils.h"

// Heap allocations made by the calling thread, counted by the global
// operator new below (StreamDeltaIndex.WarmAppendsAllocateNothing). The
// replacements are kept out of line so GCC does not pair an inlined
// malloc() or free() with a new or delete expression and warn about a
// mismatch that is not there.
thread_local std::int64_t t_allocations = 0;

[[gnu::noinline]] void* operator new(std::size_t bytes) {
  ++t_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fdbscan::stream {
namespace {

using fdbscan::testing::ScopedThreads;

/// Checks one streaming query against BOTH from-scratch algorithms on
/// the same live point set. Core flags are algorithm-independent, so
/// the streaming result must be equivalent to each (bit-identical core
/// flags, bijective core partition, witnessed borders).
template <int DIM>
void expect_equivalent(const std::vector<Point<DIM>>& live,
                       const Parameters& params, const Options& options,
                       const Clustering& streamed, const char* where) {
  const Clustering ref_fd = fdbscan(live, params, options);
  const auto check_fd =
      equivalent_clusterings(live, params, ref_fd, streamed, options.variant);
  EXPECT_TRUE(check_fd.ok) << where << " vs fdbscan: " << check_fd.message;
  const Clustering ref_db = fdbscan_densebox(live, params, options);
  const auto check_db =
      equivalent_clusterings(live, params, ref_db, streamed, options.variant);
  EXPECT_TRUE(check_db.ok) << where << " vs densebox: " << check_db.message;
}

/// Replays a sliding window through a StreamingEngine, checking every
/// step's query for equivalence. Returns the engine's final counters.
template <int DIM>
StreamCounters replay_and_check(const std::vector<Point<DIM>>& arrivals,
                                std::int64_t window, std::int64_t batch,
                                const Parameters& params,
                                const Options& options,
                                const StreamConfig& config = {}) {
  data::SlidingWindow<DIM> driver(arrivals, window, batch);
  StreamingEngine<DIM> engine(params, options, config);
  std::int64_t step = 0;
  while (!driver.done()) {
    const data::WindowStep<DIM> s = driver.next();
    (void)engine.expire(s.expire_before);
    const std::int64_t first = engine.insert(s.batch);
    EXPECT_EQ(first, s.first_seq) << "step " << step;
    EXPECT_EQ(engine.size(), s.live_count) << "step " << step;
    EXPECT_EQ(engine.first_live_seq(), s.expire_before) << "step " << step;
    const std::vector<Point<DIM>> live = driver.live_points();
    const Clustering streamed = engine.query();
    const std::string where = "step " + std::to_string(step);
    expect_equivalent(live, params, options, streamed, where.c_str());
    ++step;
  }
  return engine.counters();
}

// --- Equivalence sweep: worker counts x dimensions x variants ------------

class StreamEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(StreamEquivalence, SlidingWindow2dMatchesFromScratch) {
  ScopedThreads threads(GetParam());
  const auto arrivals = data::ngsim_like(2400, 7);
  const StreamCounters c = replay_and_check<2>(
      arrivals, /*window=*/900, /*batch=*/300, Parameters{0.02f, 5}, {});
  EXPECT_GT(c.inserts, 0);
  EXPECT_GT(c.expires, 0);
}

TEST_P(StreamEquivalence, SlidingWindow3dMatchesFromScratch) {
  ScopedThreads threads(GetParam());
  const auto arrivals = data::hacc_like(1600, 11);
  const StreamCounters c = replay_and_check<3>(
      arrivals, /*window=*/700, /*batch=*/200, Parameters{0.035f, 4}, {});
  EXPECT_GT(c.inserts, 0);
  EXPECT_GT(c.expires, 0);
}

TEST_P(StreamEquivalence, AppendOnlyGrowthMatchesFromScratch) {
  // No expiry: every insert is absorbed incrementally once the first
  // query establishes the union-find, so this sweep exercises the
  // three-pass absorb (count / flip / resolve) at every worker count.
  ScopedThreads threads(GetParam());
  const auto arrivals =
      fdbscan::testing::clustered_points<2>(2000, 6, 1.0f, 0.02f, 21);
  Parameters params{0.05f, 5};
  StreamingEngine<2> engine(
      std::vector<Point2>(arrivals.begin(), arrivals.begin() + 800), params);
  (void)engine.query();  // establishes incremental state
  std::vector<Point2> live(arrivals.begin(), arrivals.begin() + 800);
  std::int64_t cursor = 800;
  while (cursor < static_cast<std::int64_t>(arrivals.size())) {
    const std::int64_t k =
        std::min<std::int64_t>(150, arrivals.size() - cursor);
    const std::span<const Point2> batch(arrivals.data() + cursor,
                                        static_cast<std::size_t>(k));
    (void)engine.insert(batch);
    live.insert(live.end(), batch.begin(), batch.end());
    cursor += k;
    const Clustering streamed = engine.query();
    expect_equivalent(live, params, Options{}, streamed, "append-only");
  }
  EXPECT_GT(engine.counters().incremental_inserts, 0);
  EXPECT_GT(engine.counters().refinalized_queries, 0);
}

INSTANTIATE_TEST_SUITE_P(Workers, StreamEquivalence,
                         ::testing::Values(1, 2, 8));

// --- Variants and parameter edge cases -----------------------------------

TEST(StreamingEngine, DbscanStarVariantMatchesFromScratch) {
  const auto arrivals = data::porto_taxi_like(1500, 3);
  Options options;
  options.variant = Variant::kDbscanStar;
  (void)replay_and_check<2>(arrivals, 600, 200, Parameters{0.02f, 5},
                            options);
}

TEST(StreamingEngine, MinptsOneAllCore) {
  const auto arrivals =
      fdbscan::testing::random_points<2>(600, 1.0f, 5);
  const StreamCounters c = replay_and_check<2>(arrivals, 250, 100,
                                               Parameters{0.05f, 1}, {});
  EXPECT_GT(c.queries, 0);
}

TEST(StreamingEngine, MinptsTwoIncrementalFlips) {
  // minpts == 2 exercises the no-reprocess flip shortcut: a point that
  // crosses the threshold owes all its edges to the batch itself.
  const auto arrivals =
      fdbscan::testing::clustered_points<2>(1200, 5, 1.0f, 0.02f, 9);
  const StreamCounters c = replay_and_check<2>(arrivals, 500, 150,
                                               Parameters{0.04f, 2}, {});
  EXPECT_GT(c.queries, 0);
}

TEST(StreamingEngine, EarlyExitDisabledMatches) {
  const auto arrivals = data::road_network_like(1200, 13);
  Options options;
  options.early_exit = false;
  (void)replay_and_check<2>(arrivals, 500, 150, Parameters{0.02f, 4},
                            options);
}

// --- Rebuild amortization ------------------------------------------------

TEST(StreamingEngine, AppendsBelowThresholdNeverRebuild) {
  const auto points =
      fdbscan::testing::clustered_points<2>(4000, 6, 1.0f, 0.02f, 17);
  Parameters params{0.05f, 5};
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 3600), params);
  Clustering first = engine.query();
  EXPECT_EQ(first.timings.index_rebuilds, 1);  // the lazy initial build
  std::int64_t cursor = 3600;
  while (cursor < 4000) {  // 400 appended points < 25% of 3600
    const std::span<const Point2> batch(points.data() + cursor, 50);
    (void)engine.insert(batch);
    cursor += 50;
    const Clustering q = engine.query();
    EXPECT_EQ(q.timings.index_rebuilds, 0) << "cursor " << cursor;
  }
  const StreamCounters c = engine.counters();
  EXPECT_EQ(c.index_rebuilds, 1);
  EXPECT_EQ(c.incremental_inserts, 8);
  EXPECT_EQ(c.full_refreshes, 1);
  EXPECT_EQ(c.refinalized_queries, 8);
}

TEST(StreamingEngine, CrossingTheThresholdRebuildsOnce) {
  const auto points =
      fdbscan::testing::clustered_points<2>(2000, 4, 1.0f, 0.02f, 19);
  Parameters params{0.05f, 5};
  StreamConfig config;
  config.rebuild_fraction = 0.25f;
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 1000), params,
      Options{}, config);
  (void)engine.query();
  // One batch of 400 > 25% of the 1000 live points: rebuild at insert.
  (void)engine.insert(
      std::span<const Point2>(points.data() + 1000, 400));
  EXPECT_EQ(engine.counters().index_rebuilds, 2);
  const Clustering q = engine.query();
  EXPECT_EQ(q.timings.index_rebuilds, 1);
  // The rebuild folded the delta into the base; ids survived, so the
  // query after a pure-insert rebuild is still a cheap re-finalize.
  EXPECT_EQ(engine.counters().refinalized_queries, 1);
  // A refinalized query reports the probe work of the inserts it serves.
  EXPECT_GT(q.distance_computations, 0);
  expect_equivalent(
      std::vector<Point2>(points.begin(), points.begin() + 1400), params,
      Options{}, q, "post-rebuild");
}

TEST(StreamingEngine, ExpireInvalidatesIncrementalState) {
  const auto points =
      fdbscan::testing::clustered_points<2>(1500, 4, 1.0f, 0.02f, 23);
  Parameters params{0.05f, 5};
  StreamingEngine<2> engine(std::vector<Point2>(points), params);
  (void)engine.query();
  EXPECT_EQ(engine.expire(100), 100);  // below threshold: lazy, no rebuild
  EXPECT_EQ(engine.counters().index_rebuilds, 1);
  EXPECT_EQ(engine.first_live_seq(), 100);
  const Clustering q = engine.query();
  expect_equivalent(
      std::vector<Point2>(points.begin() + 100, points.end()), params,
      Options{}, q, "post-expire");
  EXPECT_EQ(engine.counters().full_refreshes, 2);  // expiry forced a refresh
  // Expiring most of the stream trips the threshold: dead prefix > 25%.
  (void)engine.expire(1200);
  EXPECT_EQ(engine.counters().index_rebuilds, 2);
  EXPECT_EQ(engine.size(), 300);
  expect_equivalent(
      std::vector<Point2>(points.begin() + 1200, points.end()), params,
      Options{}, engine.query(), "post-rebuild-expire");
}

// --- Sequence-number bookkeeping -----------------------------------------

TEST(StreamingEngine, SequenceNumbersSurviveRebuilds) {
  const auto points =
      fdbscan::testing::random_points<2>(900, 1.0f, 29);
  StreamingEngine<2> engine(Parameters{0.05f, 3});
  EXPECT_EQ(engine.next_seq(), 0);
  EXPECT_EQ(engine.insert(
                std::span<const Point2>(points.data(), 300)),
            0);
  EXPECT_EQ(engine.next_seq(), 300);
  EXPECT_EQ(engine.expire(250), 250);  // forces a rebuild (dead > 25%)
  EXPECT_EQ(engine.first_live_seq(), 250);
  EXPECT_EQ(engine.next_seq(), 300);
  EXPECT_EQ(engine.insert(
                std::span<const Point2>(points.data() + 300, 300)),
            300);
  EXPECT_EQ(engine.next_seq(), 600);
  EXPECT_EQ(engine.size(), 350);
  // Retiring below the live horizon is a no-op.
  EXPECT_EQ(engine.expire(100), 0);
  EXPECT_EQ(engine.first_live_seq(), 250);
}

TEST(StreamingEngine, DrainToEmptyAndRefill) {
  const auto points =
      fdbscan::testing::random_points<2>(400, 1.0f, 31);
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 200),
      Parameters{0.05f, 3});
  (void)engine.query();
  EXPECT_EQ(engine.expire(200), 200);
  EXPECT_EQ(engine.size(), 0);
  const Clustering empty = engine.query();
  EXPECT_EQ(empty.labels.size(), 0u);
  EXPECT_EQ(empty.num_clusters, 0);
  EXPECT_EQ(engine.insert(std::span<const Point2>(points.data() + 200, 200)),
            200);
  EXPECT_EQ(engine.size(), 200);
  expect_equivalent(
      std::vector<Point2>(points.begin() + 200, points.end()),
      Parameters{0.05f, 3}, Options{}, engine.query(), "refill");
}

// --- Cancellation --------------------------------------------------------

TEST(StreamingEngine, RaisedTokenRejectsMutationsAtEntry) {
  const auto points =
      fdbscan::testing::random_points<2>(300, 1.0f, 37);
  StreamingEngine<2> engine(std::vector<Point2>(points),
                            Parameters{0.05f, 3});
  exec::CancelToken token;
  token.request_cancel(exec::CancelReason::kCancelled);
  exec::CancelScope scope(token);
  EXPECT_THROW((void)engine.insert(points), exec::CancelledError);
  EXPECT_THROW((void)engine.expire(10), exec::CancelledError);
  EXPECT_THROW((void)engine.query(), exec::CancelledError);
  EXPECT_EQ(engine.size(), 300);  // logical point set unchanged
  EXPECT_EQ(engine.first_live_seq(), 0);
}

TEST(StreamingEngine, CancelledInsertRollsTheBatchBack) {
  // Raise the token from a second thread while a large batch is being
  // absorbed. Whichever way the race lands — cancelled mid-absorb or
  // completed first — the logical point set must be exactly the
  // pre-insert or post-insert set, and the next query (under a fresh
  // scope) must match a from-scratch run of whichever it is.
  const auto points =
      fdbscan::testing::clustered_points<2>(30000, 6, 1.0f, 0.02f, 41);
  Parameters params{0.02f, 5};
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + 4000), params);
  (void)engine.query();
  const std::vector<Point2> batch(points.begin() + 4000, points.end());
  auto token = std::make_shared<exec::CancelToken>();
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token->request_cancel(exec::CancelReason::kCancelled);
  });
  bool cancelled = false;
  {
    exec::CancelScope scope(*token);
    try {
      (void)engine.insert(batch);
    } catch (const exec::CancelledError&) {
      cancelled = true;
    }
  }
  canceller.join();
  const std::int64_t n = engine.size();
  const StreamCounters c = engine.counters();
  if (cancelled) {
    EXPECT_EQ(n, 4000) << "rollback must restore the pre-insert set";
    // A rolled-back insert is not part of the logical stream and must
    // not be counted.
    EXPECT_EQ(c.inserts, 0);
    EXPECT_EQ(c.points_inserted, 0);
  } else {
    EXPECT_EQ(n, 30000);
    EXPECT_EQ(c.inserts, 1);
    EXPECT_EQ(c.points_inserted, 26000);
  }
  const std::vector<Point2> live(points.begin(),
                                 points.begin() + static_cast<std::ptrdiff_t>(n));
  expect_equivalent(live, params, Options{}, engine.query(),
                    cancelled ? "rolled-back" : "completed");
}

// --- Delta cell index: adversarial geometry ------------------------------
//
// The delta side buffer is probed through an eps-cell index: a probe only
// tests the 3^DIM cells around the point. These inputs sit where a cell
// grid can go wrong — pairs exactly eps apart straddling cell boundaries
// on every axis (negative coordinates and -0.0 included), duplicates,
// coordinates near +-1e30 with eps = 1e-7 (clamped cell coordinates),
// eps^2 underflowing to 0, and eps wider than the domain (eps^2
// overflowing float included) — and
// every query along a scripted insert / rollback / expire / rebuild
// sequence must match a from-scratch fdbscan, with its core flags and
// distance_computations bit-identical across worker counts and backends.

template <int DIM>
struct AdversarialCase {
  const char* name;
  std::vector<Point<DIM>> points;
  Parameters params;
};

template <int DIM>
Point<DIM> splat(float v) {
  Point<DIM> p;
  for (int d = 0; d < DIM; ++d) p[d] = v;
  return p;
}

/// A lattice of spacing `eps` over [-4, 4] eps per axis (0 written as
/// -0.0 on odd rows), plus, per axis, pairs (x, x + eps) with x swept in
/// eps/7 steps across [-30, 30] eps/7, so every cell boundary near the
/// origin falls between the two points of some pair.
template <int DIM>
std::vector<Point<DIM>> straddle_points(float eps) {
  std::vector<Point<DIM>> out;
  std::array<int, DIM> k{};
  k.fill(-4);
  for (;;) {
    Point<DIM> p;
    for (int d = 0; d < DIM; ++d) {
      p[d] = static_cast<float>(k[static_cast<std::size_t>(d)]) * eps;
      if (k[static_cast<std::size_t>(d)] == 0 && (k[0] & 1) != 0) {
        p[d] = -0.0f;
      }
    }
    out.push_back(p);
    int d = 0;
    while (d < DIM && k[static_cast<std::size_t>(d)] == 4) {
      k[static_cast<std::size_t>(d)] = -4;
      ++d;
    }
    if (d == DIM) break;
    ++k[static_cast<std::size_t>(d)];
  }
  for (int axis = 0; axis < DIM; ++axis) {
    for (int i = -30; i <= 30; ++i) {
      const float x = static_cast<float>(i) * eps / 7.0f;
      Point<DIM> a = splat<DIM>(-20.0f * eps * static_cast<float>(axis + 1));
      a[axis] = x;
      Point<DIM> b = a;
      b[axis] = x + eps;
      out.push_back(a);
      out.push_back(b);
    }
  }
  return out;
}

template <int DIM>
std::vector<AdversarialCase<DIM>> adversarial_cases() {
  std::vector<AdversarialCase<DIM>> cases;
  // Exactly representable eps: lattice neighbors sit at exactly eps.
  cases.push_back({"straddle-exact", straddle_points<DIM>(0.5f), {0.5f, 3}});
  // Inexact eps: whether a lattice pair passes depends on float rounding.
  cases.push_back({"straddle-inexact", straddle_points<DIM>(0.1f), {0.1f, 3}});

  std::vector<Point<DIM>> dup;
  const float e = 0.05f;
  for (int i = 0; i < 40; ++i) dup.push_back(splat<DIM>(0.0f));
  for (int i = 0; i < 25; ++i) {
    Point<DIM> p = splat<DIM>(0.0f);
    p[0] = e;
    dup.push_back(p);
  }
  for (int i = 0; i < 10; ++i) {
    Point<DIM> p = splat<DIM>(-0.0f);
    p[DIM - 1] = -e;
    dup.push_back(p);
  }
  for (int i = 0; i < 3; ++i) dup.push_back(splat<DIM>(1.0f));
  const auto noise = fdbscan::testing::random_points<DIM>(40, 0.3f, 61);
  dup.insert(dup.end(), noise.begin(), noise.end());
  cases.push_back({"duplicates", dup, {e, 4}});

  std::vector<Point<DIM>> huge;
  const float big = 1e30f;
  const float tiny = 1e-7f;
  for (const float sx : {big, -big}) {
    for (const float sy : {big, -big}) {
      Point<DIM> p = splat<DIM>(sy);
      p[0] = sx;
      for (int i = 0; i < 3; ++i) huge.push_back(p);
      p[0] = std::nextafter(sx, 0.0f);
      huge.push_back(p);
    }
  }
  for (int i = -6; i <= 6; ++i) {
    for (int j = -2; j <= 2; ++j) {
      Point<DIM> p = splat<DIM>(static_cast<float>(j) * tiny);
      p[0] = static_cast<float>(i) * tiny;
      huge.push_back(p);
    }
  }
  cases.push_back({"near-1e30", huge, {tiny, 2}});

  // eps^2 underflows to 0 in float: a pair passes when its squared
  // differences round to 0, i.e. up to ~2.6e-23 apart per axis.
  std::vector<Point<DIM>> under;
  const float step = 1e-23f;
  for (int i = -8; i <= 8; ++i) {
    for (int j = -1; j <= 1; ++j) {
      Point<DIM> p = splat<DIM>(static_cast<float>(j) * step);
      p[0] = i == 0 ? -0.0f : static_cast<float>(i) * step;
      under.push_back(p);
    }
  }
  cases.push_back({"eps-squared-underflows", under, {1e-30f, 3}});

  const auto unit = fdbscan::testing::random_points<DIM>(150, 1.0f, 67);
  cases.push_back({"eps-wider-than-domain", unit, {4.0f, 5}});
  // eps^2 overflows float: every pair is a neighbor.
  std::vector<Point<DIM>> spread = unit;
  spread.push_back(splat<DIM>(1e19f));
  spread.push_back(splat<DIM>(-1e19f));
  cases.push_back({"eps-squared-overflows", spread, {1e20f, 5}});
  return cases;
}

/// Per-query observations that must not depend on worker count or backend.
struct QueryTrace {
  std::vector<std::int64_t> distance_computations;
  std::vector<std::vector<std::uint8_t>> core;
  bool operator==(const QueryTrace&) const = default;
};

template <int DIM>
bool same_bits(const std::vector<Point<DIM>>& a,
               const std::vector<Point<DIM>>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Point<DIM>)) == 0);
}

/// Queries `engine` and checks it against a from-scratch fdbscan on the
/// expected live set; records the query in `trace`.
template <int DIM>
void check_query(StreamingEngine<DIM>& engine,
                 const std::vector<Point<DIM>>& live, const Parameters& params,
                 const std::string& where, QueryTrace& trace) {
  ASSERT_TRUE(same_bits(engine.live_points(), live)) << where;
  const Clustering streamed = engine.query();
  const Clustering ref = fdbscan(live, params);
  const auto check = equivalent_clusterings(live, params, ref, streamed);
  EXPECT_TRUE(check.ok) << where << ": " << check.message;
  trace.distance_computations.push_back(streamed.distance_computations);
  trace.core.push_back(streamed.is_core);
}

/// The scripted sequence for one case. Phase 1 (rebuild_fraction 2, so
/// expiry can run past the base into the delta): inserts into the delta,
/// an expire that retires delta slots, an insert absorbed next to them,
/// then an expire that trips a rebuild and an insert into the emptied
/// delta. Phase 2 (default threshold, memory budget): an insert that
/// trips a rebuild whose eager BVH build runs out of budget, so the next
/// insert fails in its absorb and is rolled back; then that insert is
/// retried with budget.
template <int DIM>
QueryTrace run_adversarial(const AdversarialCase<DIM>& c) {
  QueryTrace trace;
  std::vector<Point<DIM>> pts = c.points;
  std::mt19937 rng(71);
  std::shuffle(pts.begin(), pts.end(), rng);
  const auto n = static_cast<std::ptrdiff_t>(pts.size());
  const auto cut = [&](int pct) { return pts.begin() + n * pct / 100; };
  const auto span_of = [](auto first, auto last) {
    return std::span<const Point<DIM>>(&*first,
                                       static_cast<std::size_t>(last - first));
  };
  const std::string name = c.name;
  {
    StreamConfig config;
    config.rebuild_fraction = 2.0f;
    StreamingEngine<DIM> engine(std::vector<Point<DIM>>(pts.begin(), cut(10)),
                                c.params, Options{}, config);
    check_query(engine, {pts.begin(), cut(10)}, c.params, name + " base",
                trace);
    (void)engine.insert(span_of(cut(10), cut(40)));
    check_query(engine, {pts.begin(), cut(40)}, c.params, name + " insert",
                trace);
    const std::int64_t into_delta = n * 15 / 100;
    (void)engine.expire(into_delta);
    EXPECT_EQ(engine.counters().index_rebuilds, 1) << name;
    check_query(engine, {pts.begin() + into_delta, cut(40)}, c.params,
                name + " expire-into-delta", trace);
    (void)engine.insert(span_of(cut(40), cut(50)));
    check_query(engine, {pts.begin() + into_delta, cut(50)}, c.params,
                name + " insert-next-to-retired", trace);
    const std::int64_t rebuilds = engine.counters().index_rebuilds;
    (void)engine.expire(n * 45 / 100);
    EXPECT_EQ(engine.counters().index_rebuilds, rebuilds + 1) << name;
    check_query(engine, {cut(45), cut(50)}, c.params, name + " rebuild",
                trace);
    (void)engine.insert(span_of(cut(50), cut(60)));
    check_query(engine, {cut(45), cut(60)}, c.params,
                name + " insert-after-rebuild", trace);
  }
  {
    exec::MemoryTracker tracker(std::size_t{1} << 30);
    StreamConfig config;
    config.engine.memory = &tracker;
    StreamingEngine<DIM> engine(std::vector<Point<DIM>>(cut(60), cut(80)),
                                c.params, Options{}, config);
    check_query(engine, {cut(60), cut(80)}, c.params, name + " base-2",
                trace);
    // Leave room for nothing but the current BVH.
    const std::size_t hog = tracker.budget() - tracker.current();
    tracker.charge(hog);
    (void)engine.insert(span_of(cut(80), cut(90)));  // trips a rebuild
    EXPECT_THROW((void)engine.insert(span_of(cut(90), pts.end())),
                 exec::OutOfDeviceMemory)
        << name;
    EXPECT_EQ(engine.size(), cut(90) - cut(60)) << name;
    tracker.release(hog);
    check_query(engine, {cut(60), cut(90)}, c.params, name + " rollback",
                trace);
    // The rolled-back slots are reused by a different batch.
    (void)engine.insert(span_of(cut(10), cut(20)));
    std::vector<Point<DIM>> live(cut(60), cut(90));
    live.insert(live.end(), cut(10), cut(20));
    check_query(engine, live, c.params, name + " insert-after-rollback",
                trace);
  }
  return trace;
}

template <int DIM>
void sweep_adversarial() {
  for (const AdversarialCase<DIM>& c : adversarial_cases<DIM>()) {
    QueryTrace first;
    bool have_first = false;
    for (const int threads : {1, 2, 8}) {
      for (const bool simd_on : {true, false}) {
        ScopedThreads scoped_threads(threads);
        fdbscan::testing::ScopedBackend backend(simd_on);
        const QueryTrace trace = run_adversarial<DIM>(c);
        if (!have_first) {
          first = trace;
          have_first = true;
        } else {
          EXPECT_TRUE(trace == first)
              << c.name << ": core flags or distance_computations differ at "
              << threads << " workers, simd " << simd_on;
        }
      }
    }
    EXPECT_EQ(first.core.size(), 9u) << c.name;
  }
}

TEST(StreamDeltaIndex, Adversarial2dMatchesFromScratchDeterministically) {
  sweep_adversarial<2>();
}

TEST(StreamDeltaIndex, Adversarial3dMatchesFromScratchDeterministically) {
  sweep_adversarial<3>();
}

TEST(StreamDeltaIndex, FarAwayDeltaPointsCostNoDistanceComputations) {
  // A delta probe tests only the cells around the probe point, so the
  // work of inserting a batch does not grow with unrelated delta points.
  const auto points =
      fdbscan::testing::clustered_points<2>(2000, 5, 1.0f, 0.02f, 73);
  const std::vector<Point2> base(points.begin(), points.begin() + 1936);
  const std::span<const Point2> batch(points.data() + 1936, 64);
  std::vector<Point2> far =
      fdbscan::testing::random_points<2>(10000, 1.0f, 79);
  for (Point2& p : far) p[0] += 100.0f;
  const Parameters params{0.05f, 5};
  StreamConfig config;
  config.rebuild_fraction = 100.0f;  // keep every insert in the delta

  StreamingEngine<2> plain(base, params, Options{}, config);
  (void)plain.query();
  (void)plain.insert(batch);
  const Clustering q_plain = plain.query();

  StreamingEngine<2> crowded(base, params, Options{}, config);
  (void)crowded.query();
  (void)crowded.insert(far);
  (void)crowded.query();
  (void)crowded.insert(batch);
  const Clustering q_crowded = crowded.query();
  EXPECT_EQ(crowded.counters().index_rebuilds, 1);
  EXPECT_GT(q_plain.distance_computations, 0);
  EXPECT_EQ(q_crowded.distance_computations, q_plain.distance_computations);
}

TEST(StreamDeltaIndex, WarmAppendsAllocateNothing) {
  // A sliding window that is never queried: the union-find stays
  // invalid, so an insert is the delta append plus the rebuild check.
  // The index and its merge buffer swap roles on every append, so each
  // reaches full size within two rebuild cycles; after that, appends
  // that do not rebuild must not touch the heap.
  const std::int64_t window = 2000;
  const std::int64_t k = 100;
  const auto points =
      fdbscan::testing::random_points<2>(window + 60 * k, 1.0f, 83);
  StreamingEngine<2> engine(
      std::vector<Point2>(points.begin(), points.begin() + window),
      Parameters{0.05f, 5});
  int warm_appends = 0;
  for (std::int64_t next = window; next + k <= std::ssize(points);
       next += k) {
    (void)engine.expire(next + k - window);
    const std::int64_t rebuilds = engine.counters().index_rebuilds;
    const std::int64_t before = t_allocations;
    (void)engine.insert(std::span<const Point2>(points.data() + next,
                                                static_cast<std::size_t>(k)));
    const std::int64_t allocations = t_allocations - before;
    if (rebuilds >= 3 && engine.counters().index_rebuilds == rebuilds) {
      EXPECT_EQ(allocations, 0) << "append at seq " << next;
      ++warm_appends;
    }
  }
  EXPECT_GT(warm_appends, 10);
}

}  // namespace
}  // namespace fdbscan::stream
