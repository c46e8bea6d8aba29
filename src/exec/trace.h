// Named-kernel tracing for the exec runtime (DESIGN.md §8).
//
// Off by default; enabled by FDBSCAN_TRACE=<path> (flushed at process
// exit) or programmatically via trace_start()/trace_stop(). When off, the
// only cost on a launch is one relaxed atomic load; when on, each
// participating thread appends fixed-size records to a pre-reserved
// per-thread buffer — no locks, no allocation on the hot path. The flush
// serializes everything into Chrome trace-event JSON (Perfetto-loadable):
// one track per runtime thread, kernel slices nested under the
// algorithm-phase spans emitted by PhaseProfiler / TraceSpan.
//
// Timestamps come from trace_now_ns(): steady-clock nanoseconds relative
// to the first call in the process, so spans opened before tracing starts
// still share the same epoch as the kernels they enclose.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fdbscan::exec {

/// The label attached to launches issued through the unlabeled
/// parallel_for/reduce/scan overloads.
inline constexpr const char* kUnnamedKernel = "<unnamed>";

namespace trace_detail {
// 0 = not yet initialized (consult FDBSCAN_TRACE), 1 = off, 2 = on.
extern std::atomic<int> g_trace_state;
int trace_state_slow() noexcept;
}  // namespace trace_detail

/// True while event capture is active. One relaxed load on the fast path.
[[nodiscard]] inline bool trace_enabled() noexcept {
  int s = trace_detail::g_trace_state.load(std::memory_order_acquire);
  if (s == 0) s = trace_detail::trace_state_slow();
  return s == 2;
}

/// Monotonic nanoseconds since the first call in this process. Valid (and
/// consistent) whether or not tracing is enabled.
[[nodiscard]] std::int64_t trace_now_ns() noexcept;

/// Start capturing events. `path` (may be empty) is where trace_flush()
/// and the at-exit hook write the JSON. Pre-reserves the per-thread
/// buffers for the current worker count. Call between kernels.
void trace_start(const std::string& path);

/// Stop capturing. Buffered events are kept and still flushable.
void trace_stop();

/// Discard all buffered events (buffers stay reserved). Call between
/// kernels — must not race with recording threads.
void trace_reset();

/// Serialize all buffered events to Chrome trace-event JSON. Writes the
/// file configured by trace_start()/FDBSCAN_TRACE when a path is set, and
/// returns the JSON text either way.
///
/// Safe to call while other threads are still recording (the SIGUSR1
/// statusz path does exactly that). Partial-buffer semantics: each
/// per-thread slot is committed by a release-store of its name and read
/// back with an acquire-load, so a concurrent flush sees each event
/// either fully or not at all — an event claimed but not yet committed
/// at flush time is skipped (it appears in the next flush), and no
/// pointer can be read torn. Only trace_reset() must not race with
/// recording threads.
std::string trace_flush();

/// Number of events currently buffered / dropped to full buffers.
[[nodiscard]] std::int64_t trace_event_count();
[[nodiscard]] std::int64_t trace_dropped_count();

/// Copies a dynamically built name into trace-owned storage and returns a
/// stable pointer for use as an event name. Takes a lock — never call on
/// the hot path; intended for once-per-entry labels (bench names).
const char* trace_intern(const std::string& name);

/// Give the calling thread a dedicated trace track named `name` (copied).
/// By default every non-pool thread shares track 0 with the dispatcher;
/// long-lived auxiliary threads that record their own spans — the service
/// dispatchers — call this once at thread start so their events land on
/// a separate, named track. Slots are assigned from the top of the slot
/// space (downward from 255) to stay clear of pool workers. Idempotent
/// per thread; returns the slot, or -1 when the slot space is exhausted
/// (the thread then keeps using the shared track 0). Takes a lock — call
/// at thread start, not on the hot path.
int trace_register_thread(const char* name);

/// How a kernel slice was produced (drives busy/wall attribution).
enum class TraceKernelKind : std::uint8_t {
  kWorker = 0,  ///< one thread's participation in a pooled launch (busy)
  kLaunch = 1,  ///< a pooled launch's full dispatch-to-done window (wall)
  kInline = 2,  ///< a serial/nested launch executed inline (busy + wall)
};

/// Record a kernel slice [begin_ns, end_ns] on the calling thread's
/// track. `chunks` is the number of chunks executed within the slice.
/// No-op when tracing is off.
void trace_record_kernel(const char* name, std::int64_t begin_ns,
                         std::int64_t end_ns, std::int64_t chunks,
                         TraceKernelKind kind);

/// Record a named span [begin_ns, end_ns] (an algorithm phase or a bench
/// entry) on the calling thread's track. `cat` must be a string with
/// static storage duration ("phase" or "entry"). When the calling
/// thread has a request id installed (trace_set_request_id), the span
/// carries it as an `args.rid` tag in the flushed JSON.
void trace_record_span(const char* name, std::int64_t begin_ns,
                       std::int64_t end_ns, const char* cat);

/// Per-thread request-correlation tag: spans recorded while a non-zero
/// id is installed carry `args.rid` so traces and structured logs can
/// be joined per request. 0 = no request context. Prefer
/// obs::RequestScope (obs/request_id.h) over calling these directly —
/// it restores the previous id on scope exit.
void trace_set_request_id(std::uint64_t rid) noexcept;
[[nodiscard]] std::uint64_t trace_request_id() noexcept;

/// Record a counter sample (e.g. device-memory bytes) at trace_now_ns().
void trace_record_counter(const char* name, std::int64_t value);

/// RAII span: opens at construction, closes (records) at destruction or
/// on close(). Near-free when tracing is off. A begin timestamp may be
/// adopted to name a span retroactively (PhaseProfiler laps).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "phase")
      : name_(name), cat_(cat), begin_ns_(trace_now_ns()) {}
  TraceSpan(const char* name, std::int64_t begin_ns, const char* cat)
      : name_(name), cat_(cat), begin_ns_(begin_ns) {}
  ~TraceSpan() { close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void close() {
    if (open_) {
      open_ = false;
      if (trace_enabled())
        trace_record_span(name_, begin_ns_, trace_now_ns(), cat_);
    }
  }

 private:
  const char* name_;
  const char* cat_;
  std::int64_t begin_ns_;
  bool open_ = true;
};

/// Per-kernel aggregate over a window of the event stream (what bench
/// telemetry records per entry, and what trace_summary.py recomputes from
/// the JSON). `workers` counts threads that executed chunks for this
/// kernel; `imbalance` follows the KernelPhaseProfile convention
/// (busiest/mean busy thread; 0.0 = no busy samples).
struct KernelAggregate {
  std::string name;
  std::int64_t count = 0;   ///< launches
  std::int64_t chunks = 0;  ///< chunks executed across those launches
  double total_ms = 0.0;    ///< summed launch wall (may overlap across threads)
  double max_ms = 0.0;      ///< slowest single launch
  int workers = 0;
  double imbalance = 0.0;
};

/// Opaque position in the per-thread event buffers. Capture one before a
/// region of interest and pass it to trace_kernel_aggregates() after.
struct TraceCursor {
  std::vector<std::uint64_t> counts;
};

[[nodiscard]] TraceCursor trace_cursor();

/// Aggregates the kernel events recorded since `since`, sorted by
/// total_ms descending. Empty when tracing is off.
[[nodiscard]] std::vector<KernelAggregate> trace_kernel_aggregates(
    const TraceCursor& since);

}  // namespace fdbscan::exec
