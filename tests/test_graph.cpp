// Task-graph runtime (exec/graph/, DESIGN.md §15): cycle rejection
// through the typed-error path, scheduler edge ordering, node bodies
// that launch kernels (the §7 serialization rule makes this
// deadlock-free), mid-graph cancellation leaving a warm engine
// reusable, and the tentpole equivalence gate — graph execution is
// bit-identical to fork-join (labels, core flags, work counters) at
// 1/2/8 workers on the single-engine, densebox and sharded paths.
#include "exec/graph/task_graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/status.h"
#include "exec/cancel.h"
#include "exec/parallel.h"
#include "shard/sharded_engine.h"
#include "test_utils.h"

namespace fdbscan::exec::graph {
namespace {

using fdbscan::testing::ScopedThreads;

// Four well-separated Gaussian blobs plus isolated stragglers. Blob
// centers sit 0.5 apart with sigma 0.015, so at eps = 0.05 no point can
// be within eps of core points of two different clusters — the border
// assignment (the one schedule-dependent choice DBSCAN permits) is
// unique, which is what lets these tests demand *bit-identical* labels
// from racing executions rather than equivalence up to border flips.
std::vector<Point<2>> separated_blobs(std::int64_t per_blob,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> gauss(0.0f, 0.015f);
  const float centers[4][2] = {
      {0.25f, 0.25f}, {0.75f, 0.25f}, {0.25f, 0.75f}, {0.75f, 0.75f}};
  std::vector<Point<2>> points;
  points.reserve(static_cast<std::size_t>(4 * per_blob + 3));
  for (const auto& c : centers) {
    for (std::int64_t i = 0; i < per_blob; ++i) {
      points.push_back(Point<2>{{c[0] + gauss(rng), c[1] + gauss(rng)}});
    }
  }
  points.push_back(Point<2>{{0.50f, 0.02f}});
  points.push_back(Point<2>{{0.02f, 0.50f}});
  points.push_back(Point<2>{{0.98f, 0.50f}});
  return points;
}

constexpr Parameters kBlobParams{0.05f, 5};

void expect_bit_identical(const Clustering& graph, const Clustering& fork,
                          const char* what) {
  EXPECT_EQ(graph.labels, fork.labels) << what;
  EXPECT_EQ(graph.is_core, fork.is_core) << what;
  EXPECT_EQ(graph.num_clusters, fork.num_clusters) << what;
  EXPECT_EQ(graph.distance_computations, fork.distance_computations) << what;
  EXPECT_EQ(graph.index_nodes_visited, fork.index_nodes_visited) << what;
  EXPECT_EQ(graph.num_dense_cells, fork.num_dense_cells) << what;
  EXPECT_EQ(graph.points_in_dense_cells, fork.points_in_dense_cells) << what;
}

TEST(GraphValidate, TwoNodeCycleIsTypedError) {
  TaskGraph g;
  const NodeId a = g.add_node("test/a", [] {});
  const NodeId b = g.add_node("test/b", [] {});
  g.add_edge(a, b);
  g.add_edge(b, a);
  const auto error = g.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kGraphCycle);

  GraphScheduler sched(2);
  const Expected<GraphScheduler::Handle> handle = sched.submit(std::move(g));
  ASSERT_FALSE(handle.has_value());
  EXPECT_EQ(handle.error().code, ErrorCode::kGraphCycle);
}

TEST(GraphValidate, SelfEdgeIsACycleAndDagsPass) {
  TaskGraph g;
  const NodeId a = g.add_node("test/self", [] {});
  g.add_edge(a, a);
  const auto error = g.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kGraphCycle);

  TaskGraph dag;
  const NodeId x = dag.add_node("test/x", [] {});
  const NodeId y = dag.add_node("test/y", [] {});
  dag.add_edge(x, y);
  EXPECT_FALSE(dag.validate().has_value());
}

TEST(GraphScheduler_, DiamondRespectsEdgesAndReportsStats) {
  GraphScheduler sched(4);
  std::atomic<int> stamp{0};
  std::atomic<int> at_a{-1}, at_b{-1}, at_c{-1}, at_d{-1};
  TaskGraph g;
  const NodeId a = g.add_node("test/a", [&] { at_a = stamp++; });
  const NodeId b = g.add_node("test/b", [&] { at_b = stamp++; });
  const NodeId c = g.add_node("test/c", [&] { at_c = stamp++; });
  const NodeId d = g.add_node("test/d", [&] { at_d = stamp++; });
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  auto handle = sched.submit(std::move(g));
  ASSERT_TRUE(handle.has_value());
  const GraphStats stats = handle->wait();
  EXPECT_EQ(stats.nodes_run, 4);
  EXPECT_EQ(stats.edges, 4);
  EXPECT_LT(at_a.load(), at_b.load());
  EXPECT_LT(at_a.load(), at_c.load());
  EXPECT_LT(at_b.load(), at_d.load());
  EXPECT_LT(at_c.load(), at_d.load());
}

TEST(GraphScheduler_, EmptyGraphCompletesInline) {
  GraphScheduler sched(2);
  bool completed = false;
  auto handle = sched.submit(
      TaskGraph{}, [&](const GraphStats& s, std::exception_ptr error) {
        completed = (s.nodes_run == 0 && error == nullptr);
      });
  ASSERT_TRUE(handle.has_value());
  EXPECT_TRUE(completed);  // empty graphs complete inside submit()
  const GraphStats stats = handle->wait();
  EXPECT_EQ(stats.nodes_run, 0);
}

TEST(GraphScheduler_, TotalsAdvanceAcrossARun) {
  const SchedulerTotals before = totals();
  GraphScheduler sched(2);
  TaskGraph g;
  const NodeId a = g.add_node("test/t0", [] {});
  g.add_edge(a, g.add_node("test/t1", [] {}));
  auto handle = sched.submit(std::move(g));
  ASSERT_TRUE(handle.has_value());
  (void)handle->wait();
  const SchedulerTotals after = totals();
  EXPECT_EQ(after.graphs, before.graphs + 1);
  EXPECT_EQ(after.nodes_run, before.nodes_run + 2);
  EXPECT_EQ(after.edges, before.edges + 1);
}

// The serial executor: Kahn order with ready nodes in id order, the
// same stats a scheduled run reports, and nothing added to the
// scheduler totals (a serial run is not scheduled).
TEST(GraphScheduler_, RunInlineRunsInIdOrderOffTheTotals) {
  std::vector<int> order;
  TaskGraph g;
  const NodeId a = g.add_node("test/a", [&] { order.push_back(0); });
  const NodeId b = g.add_node("test/b", [&] { order.push_back(1); });
  const NodeId c = g.add_node("test/c", [&] { order.push_back(2); });
  const NodeId d = g.add_node("test/d", [&] { order.push_back(3); });
  g.add_edge(b, a);
  g.add_edge(a, d);
  g.add_edge(c, d);
  const SchedulerTotals before = totals();
  const Expected<GraphStats> done = GraphScheduler::run_inline(std::move(g));
  const SchedulerTotals after = totals();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->nodes_run, 4);
  EXPECT_EQ(done->edges, 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(after.graphs, before.graphs);
  EXPECT_EQ(after.nodes_run, before.nodes_run);
  EXPECT_EQ(after.edges, before.edges);
}

// DESIGN §7: a top-level launch from a runner thread shares the pool
// with every other launcher; concurrent node bodies all launching
// kernels therefore make progress instead of deadlocking.
TEST(GraphScheduler_, NodeBodiesLaunchingKernelsDoNotDeadlock) {
  ScopedThreads threads(4);
  GraphScheduler sched(4);
  constexpr int kNodes = 8;
  constexpr std::int64_t kPerNode = 20000;
  std::atomic<std::int64_t> total{0};
  TaskGraph g;
  for (int i = 0; i < kNodes; ++i) {
    g.add_node("test/kernel-node", [&total] {
      std::atomic<std::int64_t> local{0};
      parallel_for("test/graph-node-kernel", kPerNode, [&](std::int64_t) {
        local.fetch_add(1, std::memory_order_relaxed);
      });
      total.fetch_add(local.load(), std::memory_order_relaxed);
    });
  }
  auto handle = sched.submit(std::move(g));
  ASSERT_TRUE(handle.has_value());
  const GraphStats stats = handle->wait();
  EXPECT_EQ(stats.nodes_run, kNodes);
  EXPECT_EQ(total.load(), kNodes * kPerNode);
}

// run() on a runner thread executes inline: a node body running a
// nested graph must not block waiting for its own runner slot.
TEST(GraphScheduler_, NestedGraphInsideANodeRunsInline) {
  std::atomic<std::int64_t> inner_sum{0};
  TaskGraph outer;
  outer.add_node("test/outer", [&] {
    TaskGraph inner;
    inner.add_node("test/inner", [&] {
      inner_sum += parallel_reduce(
          "test/nested-kernel", 1000, std::int64_t{0},
          [](std::int64_t i) { return i; },
          [](std::int64_t a, std::int64_t b) { return a + b; });
    });
    const auto done = shared_scheduler().run(std::move(inner));
    ASSERT_TRUE(done.has_value());
  });
  const auto done = shared_scheduler().run(std::move(outer));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(inner_sum.load(), 1000 * 999 / 2);
}

TEST(GraphCancel, MidGraphCancellationLeavesEngineWarmAndReusable) {
  const auto points = separated_blobs(200, 901);
  Engine<2> engine(points);
  const Clustering reference = engine.run(kBlobParams);
  const std::int64_t builds_after_warmup = engine.counters().index_builds;

  CancelToken token;
  {
    CancelScope scope(token);
    StagedRun staged = engine.stage(kBlobParams);
    TaskGraph g;
    // The cancel node raises the token before any staged phase runs;
    // the scheduler polls it per node, so every phase body is skipped
    // and the engine is abandoned mid-run — the reuse property under
    // test is that the next run() recovers from exactly that state.
    const NodeId cancel =
        g.add_node("test/cancel", [&token] { token.request_cancel(); });
    g.add_chain(std::move(staged.phases), cancel);
    auto handle = shared_scheduler().submit(std::move(g));
    ASSERT_TRUE(handle.has_value());
    EXPECT_THROW(handle->wait(), CancelledError);
  }

  const Clustering again = engine.run(kBlobParams);
  expect_bit_identical(again, reference, "post-cancel rerun");
  // Warm: the abandoned staged run burned no index rebuild.
  EXPECT_EQ(engine.counters().index_builds, builds_after_warmup);
}

// The tentpole acceptance gate: staged phases run through the graph
// scheduler produce bit-identical output to the serial fork-join loop
// at every worker count, for both single-engine algorithms.
TEST(GraphEquivalence, SingleEngineFdbscanBitIdenticalAcrossWorkers) {
  const auto points = separated_blobs(200, 902);
  for (int workers : {1, 2, 8}) {
    ScopedThreads threads(workers);
    Engine<2> fork_engine(points);
    const Clustering fork = fork_engine.run(kBlobParams);

    Engine<2> graph_engine(points);
    StagedRun staged = graph_engine.stage(kBlobParams);
    TaskGraph g;
    g.add_chain(std::move(staged.phases));
    const auto done = shared_scheduler().run(std::move(g));
    ASSERT_TRUE(done.has_value());
    expect_bit_identical(*staged.result, fork,
                         workers == 1   ? "fdbscan workers=1"
                         : workers == 2 ? "fdbscan workers=2"
                                        : "fdbscan workers=8");
    EXPECT_EQ(fork.num_clusters, 4);
  }
}

TEST(GraphEquivalence, SingleEngineDenseboxBitIdenticalAcrossWorkers) {
  const auto points = separated_blobs(200, 903);
  for (int workers : {1, 2, 8}) {
    ScopedThreads threads(workers);
    Engine<2> fork_engine(points);
    const Clustering fork = fork_engine.run_densebox(kBlobParams);

    Engine<2> graph_engine(points);
    StagedRun staged = graph_engine.stage_densebox(kBlobParams);
    TaskGraph g;
    g.add_chain(std::move(staged.phases));
    const auto done = shared_scheduler().run(std::move(g));
    ASSERT_TRUE(done.has_value());
    expect_bit_identical(*staged.result, fork,
                         workers == 1   ? "densebox workers=1"
                         : workers == 2 ? "densebox workers=2"
                                        : "densebox workers=8");
  }
}

// Sharded: the per-shard node pipeline (index[r] -> pre[r] -> main[r]
// with the cross-shard core-flag edges) on the scheduler against the
// same graph run serially (GraphScheduler::run_inline). Work counters
// use striped accumulators folded in slot order and the dataset admits
// a unique partition, so everything — including the sharded telemetry —
// must match exactly.
TEST(GraphEquivalence, ShardedBitIdenticalAcrossWorkers) {
  const auto points = separated_blobs(250, 904);
  for (std::int32_t shards : {2, 3}) {
    shard::ShardedEngine<2> engine(points, shards);
    for (int workers : {1, 2, 8}) {
      ScopedThreads threads(workers);
      const shard::ShardedResult fork = engine.run(kBlobParams, {}, false);
      const shard::ShardedResult graph = engine.run(kBlobParams, {}, true);
      expect_bit_identical(graph.clustering, fork.clustering, "sharded");
      EXPECT_EQ(graph.clustering.num_shards, fork.clustering.num_shards);
      EXPECT_EQ(graph.clustering.shard_ghosts, fork.clustering.shard_ghosts);
      EXPECT_EQ(graph.clustering.shard_cross_edges,
                fork.clustering.shard_cross_edges);
      EXPECT_EQ(graph.clustering.shard_halo_bytes,
                fork.clustering.shard_halo_bytes);
      ASSERT_EQ(graph.shards.size(), fork.shards.size());
      for (std::size_t s = 0; s < fork.shards.size(); ++s) {
        EXPECT_EQ(graph.shards[s].owned, fork.shards[s].owned);
        EXPECT_EQ(graph.shards[s].ghosts, fork.shards[s].ghosts);
        EXPECT_EQ(graph.shards[s].cross_edges, fork.shards[s].cross_edges);
      }
    }
  }
}

// FoF fast path (minpts=2): the staged graph has no pre[r] nodes, so
// shards pipeline index->main.
TEST(GraphEquivalence, ShardedFofPathBitIdentical) {
  const auto points = separated_blobs(150, 905);
  const Parameters fof{0.05f, 2};
  shard::ShardedEngine<2> engine(points, 3);
  for (int workers : {1, 8}) {
    ScopedThreads threads(workers);
    const shard::ShardedResult fork = engine.run(fof, {}, false);
    const shard::ShardedResult graph = engine.run(fof, {}, true);
    expect_bit_identical(graph.clustering, fork.clustering, "sharded fof");
  }
}

TEST(GraphKnob, SetEnabledOverridesAndRestores) {
  const bool original = enabled();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(original);
}

}  // namespace
}  // namespace fdbscan::exec::graph
