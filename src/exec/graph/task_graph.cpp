#include "exec/graph/task_graph.h"

#include <atomic>
#include <string>

#include "exec/cancel.h"
#include "exec/trace.h"
#include "obs/env.h"
#include "obs/metrics.h"

namespace fdbscan::exec::graph {

namespace {

/// Registry mirrors of the scheduler counters (DESIGN.md §15). Process-
/// wide: the shared scheduler and any test-private instances add into
/// the same totals, matching how pool/shard metrics aggregate.
struct GraphMetrics {
  obs::Counter& graphs = obs::counter("fdbscan_graph_graphs_total");
  obs::Counter& nodes_run = obs::counter("fdbscan_graph_nodes_run_total");
  obs::Counter& edges = obs::counter("fdbscan_graph_edges_total");
  obs::Gauge& ready_depth = obs::gauge("fdbscan_graph_ready_depth");
  obs::Gauge& overlap_pct = obs::gauge("fdbscan_graph_overlap_pct");
};

GraphMetrics& graph_metrics() {
  static GraphMetrics m;
  return m;
}

/// Marks graph runner threads so run() can detect re-entrant
/// submission and execute inline instead of blocking a runner on its
/// own pool.
thread_local bool t_is_runner = false;

}  // namespace

namespace detail {

/// Shared state of one submitted graph: the nodes (moved out of the
/// TaskGraph), the per-node dependency countdown, and the completion
/// latch waiters block on. `mutex` guards everything below it.
struct GraphRun {
  std::vector<TaskGraph::Node> nodes;
  const CancelToken* token = nullptr;
  std::uint64_t rid = 0;
  std::int64_t edges = 0;
  std::int64_t submit_ns = 0;
  GraphScheduler::Completion on_complete;

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::int32_t> pending;  ///< unmet dependencies per node
  std::int32_t remaining = 0;         ///< nodes not yet retired
  bool failed = false;                ///< skip bodies while draining
  bool done = false;
  std::exception_ptr cancelled;  ///< first CancelledError
  std::exception_ptr error;      ///< first other exception
  std::int64_t nodes_run = 0;
  std::int64_t busy_ns = 0;
  std::int64_t wall_ns = 0;

  [[nodiscard]] std::exception_ptr first_error() const {
    return cancelled ? cancelled : error;
  }
  [[nodiscard]] GraphStats stats() const {
    return GraphStats{nodes_run, edges, busy_ns, wall_ns};
  }
};

}  // namespace detail

NodeId TaskGraph::add_node(std::string label, std::function<void()> fn) {
  Node node;
  // Span names are borrowed pointers in the trace buffer (they may be
  // flushed long after this graph is gone), so dynamic labels must be
  // interned. Once per node at build time — off the kernel hot path.
  node.span_name = trace_enabled() ? trace_intern(label) : nullptr;
  node.label = std::move(label);
  node.fn = std::move(fn);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId TaskGraph::add_chain(std::vector<Phase> phases, NodeId after) {
  NodeId prev = after;
  for (Phase& phase : phases) {
    const NodeId id = add_node(std::move(phase.label), std::move(phase.fn));
    if (prev != kNoNode) add_edge(prev, id);
    prev = id;
  }
  return prev;
}

void TaskGraph::add_edge(NodeId from, NodeId to) {
  const auto n = static_cast<NodeId>(nodes_.size());
  if (from < 0 || from >= n || to < 0 || to >= n) return;
  nodes_[from].out.push_back(to);
  nodes_[to].in_degree += 1;
  edges_ += 1;
}

std::optional<Error> TaskGraph::validate() const {
  std::vector<std::int32_t> pending(nodes_.size());
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    pending[i] = nodes_[i].in_degree;
    if (pending[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  std::size_t ordered = 0;
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    ++ordered;
    for (const NodeId succ : nodes_[id].out) {
      if (--pending[succ] == 0) ready.push_back(succ);
    }
  }
  if (ordered != nodes_.size()) {
    return Error{ErrorCode::kGraphCycle,
                 "task graph has a dependency cycle through " +
                     std::to_string(nodes_.size() - ordered) + " of " +
                     std::to_string(nodes_.size()) + " node(s)"};
  }
  return std::nullopt;
}

GraphScheduler::GraphScheduler(int runners) {
  if (runners < 1) runners = 1;
  runners_.reserve(static_cast<std::size_t>(runners));
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this, i] { runner_loop(i); });
  }
}

GraphScheduler::~GraphScheduler() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : runners_) t.join();
}

void GraphScheduler::runner_loop(int index) {
  const std::string name = "graph runner " + std::to_string(index);
  trace_register_thread(name.c_str());
  t_is_runner = true;
  for (;;) {
    ReadyItem item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stop_ set and queue drained
      item = std::move(ready_.front());
      ready_.pop_front();
    }
    graph_metrics().ready_depth.add(-1);
    run_node(item.run, item.node);
  }
}

void GraphScheduler::enqueue(std::vector<ReadyItem> items) {
  if (items.empty()) return;
  graph_metrics().ready_depth.add(static_cast<std::int64_t>(items.size()));
  {
    std::lock_guard<std::mutex> guard(mutex_);
    for (ReadyItem& item : items) ready_.push_back(std::move(item));
  }
  if (items.size() > 1) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
}

void GraphScheduler::execute(detail::GraphRun& run, NodeId id) {
  TaskGraph::Node& node = run.nodes[id];

  // Re-establish the submitting request's ambient context on this
  // thread: rid for span/log attribution, CancelToken for the per-node
  // poll and the per-chunk polls inside the body's kernels.
  const std::uint64_t prev_rid = trace_request_id();
  trace_set_request_id(run.rid);
  {
    std::optional<CancelScope> cancel;
    if (run.token != nullptr) cancel.emplace(*run.token);

    bool skip = false;
    {
      std::lock_guard<std::mutex> guard(run.mutex);
      skip = run.failed;
    }
    const std::int64_t begin_ns = trace_now_ns();
    bool ran = false;
    if (!skip) {
      try {
        throw_if_cancelled();
        node.fn();
        ran = true;
      } catch (const CancelledError&) {
        std::lock_guard<std::mutex> guard(run.mutex);
        run.failed = true;
        if (!run.cancelled) run.cancelled = std::current_exception();
      } catch (...) {
        std::lock_guard<std::mutex> guard(run.mutex);
        run.failed = true;
        if (!run.error) run.error = std::current_exception();
      }
    }
    const std::int64_t end_ns = trace_now_ns();
    if (!skip && node.span_name != nullptr && trace_enabled()) {
      trace_record_span(node.span_name, begin_ns, end_ns, "graph");
    }
    if (ran) {
      std::lock_guard<std::mutex> guard(run.mutex);
      run.nodes_run += 1;
      run.busy_ns += end_ns - begin_ns;
    }
  }
  trace_set_request_id(prev_rid);
}

void GraphScheduler::run_node(const std::shared_ptr<detail::GraphRun>& run,
                              NodeId id) {
  execute(*run, id);

  // Retire the node: successors whose last dependency this was become
  // ready (failed runs still drain every node so waiters always wake),
  // and the run completes when the last node retires.
  std::vector<ReadyItem> ready;
  bool completed = false;
  {
    std::lock_guard<std::mutex> guard(run->mutex);
    for (const NodeId succ : run->nodes[id].out) {
      if (--run->pending[succ] == 0) ready.push_back(ReadyItem{run, succ});
    }
    if (--run->remaining == 0) {
      run->done = true;
      run->wall_ns = trace_now_ns() - run->submit_ns;
      completed = true;
    }
  }
  enqueue(std::move(ready));
  if (!completed) return;

  // Post-done: this thread is the only writer, waiters only read after
  // `done`, so the fields are stable without the lock.
  const GraphStats stats = run->stats();
  GraphMetrics& metrics = graph_metrics();
  metrics.graphs.inc();
  metrics.nodes_run.inc(stats.nodes_run);
  if (stats.wall_ns > 0) {
    metrics.overlap_pct.set(100 * stats.busy_ns / stats.wall_ns);
  }
  run->cv.notify_all();
  if (run->on_complete) {
    GraphScheduler::Completion complete = std::move(run->on_complete);
    complete(stats, run->first_error());
  }
}

GraphStats GraphScheduler::Handle::wait() {
  std::unique_lock<std::mutex> lock(run_->mutex);
  run_->cv.wait(lock, [&] { return run_->done; });
  if (std::exception_ptr err = run_->first_error()) {
    std::rethrow_exception(err);
  }
  return run_->stats();
}

Expected<GraphScheduler::Handle> GraphScheduler::submit(
    TaskGraph graph, Completion on_complete) {
  if (std::optional<Error> err = graph.validate()) return *err;

  auto run = std::make_shared<detail::GraphRun>();
  run->nodes = std::move(graph.nodes_);
  run->edges = graph.edges_;
  run->token = active_cancel_token();
  run->rid = trace_request_id();
  run->on_complete = std::move(on_complete);
  run->submit_ns = trace_now_ns();

  const auto count = static_cast<std::int32_t>(run->nodes.size());
  run->remaining = count;
  run->pending.resize(run->nodes.size());
  std::vector<ReadyItem> ready;
  for (std::int32_t i = 0; i < count; ++i) {
    run->pending[i] = run->nodes[i].in_degree;
    if (run->pending[i] == 0) ready.push_back(ReadyItem{run, i});
  }
  graph_metrics().edges.inc(run->edges);

  if (count == 0) {
    run->done = true;
    graph_metrics().graphs.inc();
    if (run->on_complete) {
      GraphScheduler::Completion complete = std::move(run->on_complete);
      complete(run->stats(), nullptr);
    }
    return Handle(std::move(run));
  }
  enqueue(std::move(ready));
  return Handle(std::move(run));
}

Expected<GraphStats> GraphScheduler::run_inline(TaskGraph graph) {
  if (std::optional<Error> err = graph.validate()) return *err;

  detail::GraphRun run;
  run.nodes = std::move(graph.nodes_);
  run.edges = graph.edges_;
  run.token = active_cancel_token();
  run.rid = trace_request_id();
  const std::int64_t start_ns = trace_now_ns();

  // Kahn's algorithm with a FIFO ready list: among ready nodes, lower
  // ids (earlier add_node calls) run first, so a staged run executes in
  // the order it was staged wherever its edges allow.
  run.pending.resize(run.nodes.size());
  std::vector<NodeId> ready;
  ready.reserve(run.nodes.size());
  for (std::size_t i = 0; i < run.nodes.size(); ++i) {
    run.pending[i] = run.nodes[i].in_degree;
    if (run.pending[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  for (std::size_t next = 0; next < ready.size(); ++next) {
    const NodeId id = ready[next];
    execute(run, id);
    for (const NodeId succ : run.nodes[id].out) {
      if (--run.pending[succ] == 0) ready.push_back(succ);
    }
  }
  run.wall_ns = trace_now_ns() - start_ns;
  if (std::exception_ptr err = run.first_error()) {
    std::rethrow_exception(err);
  }
  return run.stats();
}

Expected<GraphStats> GraphScheduler::run(TaskGraph graph) {
  // A node body running a nested graph would block its runner waiting on
  // nodes that need runners — with every runner doing the same, the pool
  // wedges. Execute serially on the runner instead.
  if (t_is_runner) return run_inline(std::move(graph));
  Expected<Handle> handle = submit(std::move(graph));
  if (!handle.has_value()) return handle.error();
  return handle.value().wait();
}

GraphScheduler& shared_scheduler() {
  static GraphScheduler scheduler([] {
    const unsigned hw = std::thread::hardware_concurrency();
    unsigned n = hw;
    if (n < 2) n = 2;
    if (n > 8) n = 8;
    return static_cast<int>(n);
  }());
  return scheduler;
}

namespace {

std::atomic<int>& mode_flag() {
  static std::atomic<int> flag{-1};  // -1 = not yet read from the env
  return flag;
}

}  // namespace

bool enabled() {
  int mode = mode_flag().load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = obs::env_bool("FDBSCAN_SERVICE_GRAPH", true, "graph.env_ignored")
               ? 1
               : 0;
    mode_flag().store(mode, std::memory_order_relaxed);
  }
  return mode != 0;
}

void set_enabled(bool on) {
  mode_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

SchedulerTotals totals() {
  GraphMetrics& metrics = graph_metrics();
  SchedulerTotals t;
  t.graphs = metrics.graphs.value();
  t.nodes_run = metrics.nodes_run.value();
  t.edges = metrics.edges.value();
  t.ready_depth = metrics.ready_depth.value();
  t.overlap_pct = metrics.overlap_pct.value();
  return t;
}

}  // namespace fdbscan::exec::graph
