#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>

#include "exec/profile.h"
#include "exec/timer.h"
#include "exec/trace.h"
#include "obs/env.h"
#include "obs/metrics.h"

namespace fdbscan::exec {

int detail::default_num_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return obs::env_positive_int("FDBSCAN_NUM_THREADS",
                               hc > 0 ? static_cast<int>(hc) : 1,
                               "exec.env_ignored");
}

namespace {

std::atomic<int> g_num_threads{0};  // 0 = not yet initialized

// Pool ownership is behind g_pool_mutex; g_pool_raw is the lock-free
// fast-path handle so pool() costs one acquire load per launch.
std::mutex g_pool_mutex;
std::unique_ptr<detail::ThreadPool> g_pool;
std::atomic<detail::ThreadPool*> g_pool_raw{nullptr};

// Per-thread runtime identity. Workers are assigned 1..workers-1 at
// spawn; every other thread (the dispatcher included) is 0. Nested
// launches execute inline, so the identity never changes mid-kernel.
thread_local int t_thread_index = 0;
thread_local int t_parallel_depth = 0;

// Active cancellation token of this thread (exec/cancel.h). Set by
// CancelScope on dispatching threads; workers inherit the launch's token
// for the duration of work() so nested inline launches inside the functor
// observe it too.
thread_local const CancelToken* t_cancel_token = nullptr;

// --- Kernel profiling (see exec/profile.h) -------------------------------
// Per-thread busy slots are padded to a cache line and written only by
// their owning thread; snapshots read them with relaxed atomics.
constexpr int kMaxProfiledThreads = 256;
struct alignas(64) BusySlot {
  double seconds = 0.0;
};
BusySlot g_busy[kMaxProfiledThreads];
std::atomic<int> g_busy_high_water{0};  // 1 + highest slot ever written
std::atomic<std::int64_t> g_profile_launches{0};
std::atomic<std::int64_t> g_profile_chunks{0};

void profile_add_busy(double seconds) noexcept {
  const int i = t_thread_index;
  if (i >= kMaxProfiledThreads) return;
  std::atomic_ref<double> slot(g_busy[i].seconds);
  slot.store(slot.load(std::memory_order_relaxed) + seconds,
             std::memory_order_relaxed);
  int hw = g_busy_high_water.load(std::memory_order_relaxed);
  while (hw < i + 1 && !g_busy_high_water.compare_exchange_weak(
                           hw, i + 1, std::memory_order_relaxed)) {
  }
}

// Registry mirrors of the launch-granularity runtime metrics
// (DESIGN.md §13). References resolved once; every update below is one
// relaxed RMW, added only at launch granularity — never per chunk — so
// the hot chunk-claim loop keeps its striped-accumulator discipline.
struct ExecMetrics {
  obs::Counter& launches = obs::counter("fdbscan_exec_launches_total");
  obs::Counter& chunks = obs::counter("fdbscan_exec_chunks_total");
  obs::Counter& cancel_polls =
      obs::counter("fdbscan_exec_cancel_polls_total");
  obs::Gauge& inflight = obs::gauge("fdbscan_exec_inflight_launches");
};

ExecMetrics& exec_metrics() {
  static ExecMetrics m;
  return m;
}

// Holds fdbscan_exec_inflight_launches up for the guard's lifetime;
// exception-safe (a throwing kernel body still decrements).
class InflightGuard {
 public:
  explicit InflightGuard(bool active) : active_(active) {
    if (active_) exec_metrics().inflight.add(1);
  }
  ~InflightGuard() {
    if (active_) exec_metrics().inflight.add(-1);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  bool active_;
};

void profile_add_launch(std::int64_t chunks) noexcept {
  g_profile_launches.fetch_add(1, std::memory_order_relaxed);
  g_profile_chunks.fetch_add(chunks, std::memory_order_relaxed);
  ExecMetrics& m = exec_metrics();
  m.launches.inc();
  m.chunks.inc(chunks);
}

}  // namespace

int num_threads() noexcept {
  int n = g_num_threads.load(std::memory_order_acquire);
  if (n == 0) {
    int fresh = detail::default_num_threads();
    if (g_num_threads.compare_exchange_strong(n, fresh,
                                              std::memory_order_acq_rel)) {
      return fresh;
    }
    // Another thread initialized first; n now holds its value.
  }
  return n;
}

void set_num_threads(int n) {
  // Contract (DESIGN.md §7): never call while a kernel is in flight. A
  // nested call would tear the pool down under the very launch executing
  // it; a call concurrent with another thread's dispatch is drained via
  // quiesce(), but a dispatch *starting* after the drain is a race the
  // caller must exclude.
  assert(!in_parallel_region() &&
         "set_num_threads() must not be called from inside a parallel kernel");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool) g_pool->quiesce();
  g_pool_raw.store(nullptr, std::memory_order_release);
  g_pool.reset();  // lazily recreated with the new size
  g_num_threads.store(std::max(1, n), std::memory_order_release);
}

int thread_index() noexcept { return t_thread_index; }

bool in_parallel_region() noexcept { return t_parallel_depth > 0; }

CancelScope::CancelScope(const CancelToken& token) noexcept
    : previous_(t_cancel_token) {
  t_cancel_token = &token;
}

CancelScope::~CancelScope() { t_cancel_token = previous_; }

const CancelToken* active_cancel_token() noexcept { return t_cancel_token; }

void throw_if_cancelled() {
  const CancelToken* token = t_cancel_token;
  if (token && token->cancelled() && t_parallel_depth == 0) {
    throw CancelledError(token->reason());
  }
}

KernelProfileSnapshot kernel_profile() {
  KernelProfileSnapshot snap;
  snap.launches = g_profile_launches.load(std::memory_order_relaxed);
  snap.chunks = g_profile_chunks.load(std::memory_order_relaxed);
  const int hw = g_busy_high_water.load(std::memory_order_relaxed);
  snap.busy.resize(static_cast<std::size_t>(hw));
  for (int i = 0; i < hw; ++i) {
    snap.busy[static_cast<std::size_t>(i)] =
        std::atomic_ref<double>(g_busy[i].seconds)
            .load(std::memory_order_relaxed);
  }
  return snap;
}

namespace detail {

ThreadPool& pool() {
  ThreadPool* p = g_pool_raw.load(std::memory_order_acquire);
  if (p) return *p;
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(num_threads());
    g_pool_raw.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

ThreadPool::ThreadPool(int workers) {
  // The dispatching thread participates, so spawn workers-1 threads.
  int extra = std::max(0, workers - 1);
  threads_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::quiesce() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return launches_ == 0; });
}

ThreadPool::Job* ThreadPool::claimable() const noexcept {
  for (Job* job : jobs_) {
    if (job->token != nullptr && job->token->cancelled()) continue;
    if (job->next.load() < job->n) return job;
  }
  return nullptr;
}

void ThreadPool::worker_loop(int index) {
  t_thread_index = index;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] {
        return stop_ || (job = claimable()) != nullptr;
      });
      if (stop_) return;
      ++job->joined;
    }
    work(*job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--job->joined == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::work(Job& job) {
  const std::int64_t n = job.n;
  const std::int64_t grain = job.grain;
  const auto& body = *job.body;
  const CancelToken* token = job.token;
  const bool tracing = trace_enabled();
  const std::int64_t trace_begin = tracing ? trace_now_ns() : 0;
  std::int64_t my_chunks = 0;
  Timer busy;
  // Workers inherit the dispatcher's token for this launch so nested
  // inline launches inside the functor poll it too. Never throws here:
  // a raised token only stops the chunk-claim loop.
  const CancelToken* saved_token = t_cancel_token;
  t_cancel_token = token;
  std::int64_t my_polls = 0;
  ++t_parallel_depth;
  for (;;) {
    if (token) {
      ++my_polls;
      if (token->cancelled()) break;
    }
    std::int64_t begin = job.next.fetch_add(grain, std::memory_order_acq_rel);
    if (begin >= n) break;
    body(begin, std::min(begin + grain, n));
    ++my_chunks;
  }
  --t_parallel_depth;
  t_cancel_token = saved_token;
  profile_add_busy(busy.seconds());
  if (my_polls > 0) exec_metrics().cancel_polls.inc(my_polls);
  if (tracing && my_chunks > 0) {
    trace_record_kernel(job.name, trace_begin, trace_now_ns(), my_chunks,
                        TraceKernelKind::kWorker);
  }
}

void ThreadPool::run(const char* name, std::int64_t n, std::int64_t grain,
                     const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t chunks = (n + grain - 1) / grain;
  const CancelToken* token = t_cancel_token;
  const bool tracing = trace_enabled();
  const std::int64_t trace_begin = tracing ? trace_now_ns() : 0;
  if (t_parallel_depth > 0 || threads_.empty() || n <= grain) {
    // Inline serial path, chunked identically to the pooled dispatch.
    // Covers (a) nested launches — executing them inline on the calling
    // thread keeps the outer job state intact (the Kokkos behavior) and
    // cannot deadlock on the busy pool — and (b) the no-worker / tiny-n
    // fast path.
    Timer busy;
    const InflightGuard inflight(t_parallel_depth == 0);
    std::int64_t my_polls = 0;
    ++t_parallel_depth;
    for (std::int64_t b = 0; b < n; b += grain) {
      if (token) {
        ++my_polls;
        if (token->cancelled()) break;
      }
      body(b, std::min(b + grain, n));
    }
    --t_parallel_depth;
    profile_add_busy(busy.seconds());
    profile_add_launch(chunks);
    if (my_polls > 0) exec_metrics().cancel_polls.inc(my_polls);
    if (tracing) {
      trace_record_kernel(name, trace_begin, trace_now_ns(), chunks,
                          TraceKernelKind::kInline);
    }
    // Only the top level converts cancellation into an exception: a
    // nested launch unwinding through a worker's functor would escape
    // worker_loop and terminate. At depth 0 the pool is fully drained
    // here, so the throw leaves the runtime reusable.
    if (token && token->cancelled() && t_parallel_depth == 0) {
      throw CancelledError(token->reason());
    }
    return;
  }
  // Top-level launches from distinct user threads run side by side: each
  // posts its job, works its own chunks, and waits only for the workers
  // that joined it. Idle workers join the oldest job with chunks left.
  const InflightGuard inflight(true);
  Job job;
  job.n = n;
  job.grain = grain;
  job.name = name;
  job.token = token;
  job.body = &body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(&job);
    ++launches_;
  }
  cv_start_.notify_all();
  work(job);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Off the list first, so no worker joins a job whose chunks are all
    // claimed; then wait out the ones still inside it.
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    cv_done_.wait(lock, [&] { return job.joined == 0; });
    if (--launches_ == 0) cv_done_.notify_all();
  }
  profile_add_launch(chunks);
  if (tracing) {
    // The dispatcher's own chunk execution was recorded as a kWorker
    // slice inside this window by work(); this slice is the launch's
    // dispatch-to-done wall time.
    trace_record_kernel(name, trace_begin, trace_now_ns(), chunks,
                        TraceKernelKind::kLaunch);
  }
  // Every worker has left this job (cv_done_ above): safe to surface the
  // cancellation on the dispatching thread. Pooled dispatch only happens
  // at depth 0, so this is always the top level.
  if (token && token->cancelled()) throw CancelledError(token->reason());
}

}  // namespace detail
}  // namespace fdbscan::exec
