// A persistent worker pool that executes flat index spaces with dynamic
// (work-stealing-counter) scheduling. This is the "device" of the
// reproduction: the paper runs its kernels on a V100 through Kokkos; we run
// the identical kernels on a thread pool. See DESIGN.md §2 and §7 (the
// runtime contract: reentrancy, determinism, per-thread accumulation).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/cancel.h"

namespace fdbscan::exec {

/// Number of worker threads used by parallel kernels. Defaults to
/// detail::default_num_threads(): FDBSCAN_NUM_THREADS when it is a
/// positive integer, otherwise hardware concurrency.
/// Lazy initialization is thread-safe.
int num_threads() noexcept;

/// Override the worker count (recreates the pool). Must not be called
/// while any parallel launch is in flight (asserted): call only between
/// kernels, e.g. from the main thread of a test or bench. Launches
/// already dispatched from other threads are drained first.
void set_num_threads(int n);

/// Stable index of the calling thread within the runtime: 0 for a
/// dispatching (non-pool) thread, 1..num_threads()-1 for pool workers.
/// Always in [0, num_threads()) while inside a kernel; nested kernels
/// execute inline on the calling thread, so the index is stable across
/// nesting. This is the slot index used by PerThread<T>.
[[nodiscard]] int thread_index() noexcept;

/// True while the calling thread is executing inside a parallel kernel
/// (including the dispatching thread, which participates). Nested
/// launches observe true and execute serially inline.
[[nodiscard]] bool in_parallel_region() noexcept;

namespace detail {

/// The worker count num_threads() starts from: FDBSCAN_NUM_THREADS when
/// it is a positive integer (obs/env.h strict parse; any other set value
/// logs one "exec.env_ignored" warning), otherwise hardware concurrency.
/// Re-reads the environment on every call. Exposed for tests.
[[nodiscard]] int default_num_threads();

/// Internal pool. Dispatches a kernel over [0, n) in dynamically
/// scheduled chunks; the calling thread participates.
///
/// Reentrancy: a run() issued from inside a running kernel (a nested
/// launch) executes serially inline on the calling thread — the Kokkos
/// serial-backend behavior for nested parallelism — instead of touching
/// the shared job state. Concurrent top-level run() calls from distinct
/// user threads run side by side: each launcher works its own job and
/// idle workers join the oldest job with unclaimed chunks.
class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(begin, end) over contiguous chunks covering [0, n).
  /// Blocks until all chunks are processed — or, when the dispatching
  /// thread has a CancelToken installed (exec/cancel.h) and it is raised,
  /// until every participant has stopped claiming chunks, after which
  /// CancelledError is thrown on the dispatching thread (only at the top
  /// level: nested launches just stop). `grain` is the chunk size;
  /// chunk k covers [k*grain, min((k+1)*grain, n)) in every execution
  /// mode (pooled, serial, nested), which is what makes chunk-indexed
  /// reductions deterministic. `name` labels the launch for the tracing
  /// subsystem (exec/trace.h); it must outlive the launch (string
  /// literals and trace_intern() results qualify); nullptr reads as
  /// "<unnamed>".
  void run(const char* name, std::int64_t n, std::int64_t grain,
           const std::function<void(std::int64_t, std::int64_t)>& body);

  void run(std::int64_t n, std::int64_t grain,
           const std::function<void(std::int64_t, std::int64_t)>& body) {
    run(nullptr, n, grain, body);
  }

  int workers() const noexcept { return static_cast<int>(threads_.size()) + 1; }

  /// Blocks until no launch is in flight (used by set_num_threads before
  /// tearing the pool down).
  void quiesce();

 private:
  /// One top-level launch. Lives on the launcher's stack; listed in
  /// jobs_ while its chunks may still be claimed.
  struct Job {
    std::int64_t n = 0;
    std::int64_t grain = 1;
    const char* name = nullptr;          // kernel label for tracing
    const CancelToken* token = nullptr;  // launcher's token, or null
    const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
    alignas(64) std::atomic<std::int64_t> next{0};  // chunk cursor
    int joined = 0;  // workers inside work() on this job (under mutex_)
  };

  void worker_loop(int index);
  void work(Job& job);
  /// Oldest listed job with unclaimed chunks and no raised token, or
  /// null. Call under mutex_.
  [[nodiscard]] Job* claimable() const noexcept;

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<Job*> jobs_;  // launches accepting workers (under mutex_)
  int launches_ = 0;        // top-level launches in flight (under mutex_)
  bool stop_ = false;
};

ThreadPool& pool();

}  // namespace detail
}  // namespace fdbscan::exec
