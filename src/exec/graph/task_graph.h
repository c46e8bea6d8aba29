// Task-graph runtime (DESIGN.md §15): dependency-scheduled execution of
// labeled kernel phases on top of the fork-join exec runtime.
//
// A TaskGraph is a DAG whose nodes wrap closures that issue the existing
// labeled parallel_for/reduce/scan launches. The scheduler runs every
// node whose dependencies have completed on a small process-wide pool of
// runner threads, so independent nodes — phases of *different* service
// requests, or different shards of one sharded run — overlap instead of
// queueing behind whole-request barriers. The same graph run serially
// (GraphScheduler::run_inline: in order, on the calling thread) is the
// fork-join mode: a staged run has one implementation, and the two modes
// differ only in who executes its nodes.
//
// Interaction with the DESIGN §7 launch rules: node bodies stay
// whole-kernel granular. A runner thread issuing a top-level launch
// shares the pool's workers with other top-level launchers exactly like
// a concurrent service dispatcher does, and a launch issued from inside
// another kernel's worker inlines serially — so a node body that itself
// launches a kernel can never deadlock, and per-kernel determinism
// (chunked reduce, serial scan fast path) is untouched.
//
// Cancellation: submit() captures the ambient CancelToken (the one a
// CancelScope installed on the submitting thread). Every node re-installs
// it on its runner and polls it before running its body; the kernels
// inside the body keep their per-chunk polling. The first failure
// (CancelledError preferred over other exceptions) marks the run failed,
// the remaining bodies are skipped while the graph drains, and
// Handle::wait() rethrows.
//
// Attribution: submit() captures the submitting thread's trace request
// id; each node installs it while running, records an interned span
// (cat "graph") tagged with that rid, and the scheduler mirrors node /
// edge / ready-depth / overlap counters into the obs registry.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"

namespace fdbscan::exec::graph {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// One dependency-ordered step of a staged run: the label becomes the
/// node's trace span name; the closure issues its kernel launches.
struct Phase {
  std::string label;
  std::function<void()> fn;
};

namespace detail {
struct GraphRun;
}  // namespace detail

class GraphScheduler;

/// A DAG of labeled work items. Build with add_node()/add_edge() (or
/// add_chain() for a linear pipeline), then hand to a GraphScheduler.
/// Cycles are rejected by validate() — surfaced as ErrorCode::kGraphCycle
/// through the Expected path, never as a hung run.
class TaskGraph {
 public:
  /// Append a node; returns its id. The label is interned for the trace
  /// buffer when tracing is enabled (spans outlive the graph).
  NodeId add_node(std::string label, std::function<void()> fn);

  /// Append phases as a linear chain (each depends on the previous);
  /// `after`, when given, becomes the first phase's dependency. Returns
  /// the last node's id (or `after` when `phases` is empty).
  NodeId add_chain(std::vector<Phase> phases, NodeId after = kNoNode);

  /// `to` runs only after `from` completes. Out-of-range ids are
  /// ignored; a self-edge makes the node unschedulable and is reported
  /// by validate() as a cycle.
  void add_edge(NodeId from, NodeId to);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::int64_t num_edges() const noexcept { return edges_; }

  /// Kahn's algorithm: nullopt for a DAG, Error{kGraphCycle} otherwise.
  [[nodiscard]] std::optional<Error> validate() const;

 private:
  friend class GraphScheduler;
  friend struct detail::GraphRun;

  struct Node {
    std::string label;
    const char* span_name = nullptr;  ///< interned label; null = no span
    std::function<void()> fn;
    std::vector<NodeId> out;
    std::int32_t in_degree = 0;
  };

  std::vector<Node> nodes_;
  std::int64_t edges_ = 0;
};

/// Telemetry for one completed graph run.
struct GraphStats {
  std::int64_t nodes_run = 0;  ///< bodies executed (skipped bodies excluded)
  std::int64_t edges = 0;
  std::int64_t busy_ns = 0;  ///< sum of node execution time
  std::int64_t wall_ns = 0;  ///< submit -> last node complete
};

/// Process-wide scheduler totals (mirrors of the fdbscan_graph_*
/// registry metrics), read by the service telemetry snapshot.
struct SchedulerTotals {
  std::int64_t graphs = 0;
  std::int64_t nodes_run = 0;
  std::int64_t edges = 0;
  std::int64_t ready_depth = 0;
  std::int64_t overlap_pct = 0;  ///< busy/wall of the last completed graph
};

/// Ready-queue scheduler over dedicated runner threads. Runners are
/// plain top-level threads from the exec runtime's point of view, so
/// their kernel launches follow the same rules as service dispatchers'.
/// One process-wide instance (shared_scheduler()) carries
/// all production traffic so graphs from different requests share the
/// runner pool; tests may build private instances.
class GraphScheduler {
 public:
  /// Invoked exactly once when a submitted graph completes (from the
  /// runner that finished the last node, or inline from submit() for an
  /// empty graph). The exception_ptr is null on success and carries the
  /// first failure otherwise (CancelledError preferred). Must not throw.
  using Completion = std::function<void(const GraphStats&, std::exception_ptr)>;

  explicit GraphScheduler(int runners);
  ~GraphScheduler();

  GraphScheduler(const GraphScheduler&) = delete;
  GraphScheduler& operator=(const GraphScheduler&) = delete;

  class Handle {
   public:
    // Not default-constructible: wait() requires a live run, and a
    // handle only ever comes out of submit().

    /// Block until the graph drains. Rethrows the first failure
    /// (CancelledError preferred); returns the run's stats otherwise.
    /// Never call from a runner thread — use GraphScheduler::run(),
    /// which executes inline there instead of blocking a runner.
    GraphStats wait();

   private:
    friend class GraphScheduler;
    explicit Handle(std::shared_ptr<detail::GraphRun> run)
        : run_(std::move(run)) {}
    std::shared_ptr<detail::GraphRun> run_;
  };

  /// Validate and enqueue. Captures the ambient CancelToken (which must
  /// outlive the run — the service keeps it alive in its token table)
  /// and the submitting thread's trace request id.
  Expected<Handle> submit(TaskGraph graph, Completion on_complete = {});

  /// submit() + wait(). On a runner thread the graph goes to
  /// run_inline() instead, so a node body may itself run a nested graph
  /// without deadlocking the runner pool. Returns the typed error only
  /// for cycles; runtime failures propagate as exceptions, matching
  /// Engine::run().
  Expected<GraphStats> run(TaskGraph graph);

  /// The serial executor: runs `graph` on the calling thread in Kahn
  /// order (ready nodes in id order), with the same per-node wrapping a
  /// runner applies — the ambient CancelToken polled before each body,
  /// the request id installed, one span per node — and the same
  /// failure rule (first CancelledError preferred; later bodies
  /// skipped). A serial run is not scheduled, so it adds nothing to the
  /// fdbscan_graph_* totals. Fork-join callers (ShardedEngine::run with
  /// graph off, the service's fork-join dispatch) run their staged
  /// graphs through here.
  static Expected<GraphStats> run_inline(TaskGraph graph);

  [[nodiscard]] int runners() const noexcept {
    return static_cast<int>(runners_.size());
  }

 private:
  struct ReadyItem {
    std::shared_ptr<detail::GraphRun> run;
    NodeId node = kNoNode;
  };

  void runner_loop(int index);
  /// Run node `id`'s body with the per-node wrapping (shared by the
  /// runners and run_inline); skipped once the run has failed.
  static void execute(detail::GraphRun& run, NodeId id);
  /// Runner path: execute node `id`, then retire it — successors whose
  /// last dependency it was go to the shared queue, and the run
  /// completes (totals, waiters, completion) when its last node retires.
  void run_node(const std::shared_ptr<detail::GraphRun>& run, NodeId id);
  void enqueue(std::vector<ReadyItem> items);

  std::vector<std::thread> runners_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<ReadyItem> ready_;
  bool stop_ = false;
};

/// The process-wide scheduler every production graph runs on (lazily
/// constructed; runner count clamped to [2, 8] from hardware
/// concurrency: runners are the top-level launchers, and concurrent
/// launches share the pool).
GraphScheduler& shared_scheduler();

/// The FDBSCAN_SERVICE_GRAPH knob: graph dispatch is the default;
/// setting the variable to "0" makes fork-join (run_inline) the default
/// of ServiceConfig::graph and of ShardedEngine::run(params, options).
/// Any value but "0" or "1" keeps the default and logs one
/// graph.env_ignored warning (obs/env.h). Read once and cached;
/// set_enabled() overrides for tests and benches.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

[[nodiscard]] SchedulerTotals totals();

}  // namespace fdbscan::exec::graph
