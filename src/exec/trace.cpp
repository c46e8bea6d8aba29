#include "exec/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/env.h"

namespace fdbscan::exec {

namespace trace_detail {
std::atomic<int> g_trace_state{0};
}  // namespace trace_detail

namespace {

// Mirrors kMaxProfiledThreads in thread_pool.cpp: slot = thread_index().
constexpr int kMaxTraceThreads = 256;

struct TraceEvent {
  const char* name = nullptr;    // nullptr = slot not yet committed
  const char* cat = nullptr;     // spans only ("phase" / "entry")
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;       // counters: unused
  std::int64_t value = 0;        // kernels: chunks; counters: sample;
                                 // spans: request id (0 = none)
  std::uint8_t kind = 0;         // TraceKernelKind, or kSpan / kCounter
};

constexpr std::uint8_t kSpan = 3;
constexpr std::uint8_t kCounter = 4;

// Per-thread buffer. `size` is claimed with a relaxed fetch_add so the
// shared slot 0 (all non-pool threads) stays race-free; it may run past
// the capacity — readers clamp, writers count the overflow as dropped.
struct ThreadBuffer {
  std::atomic<TraceEvent*> events{nullptr};
  std::atomic<std::uint64_t> size{0};
};

ThreadBuffer g_buffers[kMaxTraceThreads];
std::atomic<std::uint64_t> g_capacity{0};  // events per thread, set once
std::atomic<std::int64_t> g_dropped{0};

// Dedicated slot of the calling thread (trace_register_thread), or -1 to
// fall back to thread_index(). Registered slots are handed out downward
// from the top of the slot space so they never collide with pool workers
// (which occupy [0, num_threads)).
thread_local int t_trace_slot = -1;
std::atomic<int> g_next_registered_slot{kMaxTraceThreads - 1};

// Request-correlation tag (obs/request_id.h installs it around each
// service request). Attached to spans recorded by this thread.
thread_local std::uint64_t t_request_id = 0;

std::mutex g_trace_mutex;  // guards path / interning / state transitions
std::string g_trace_path;
bool g_atexit_registered = false;

std::deque<std::string> g_interned;
std::unordered_map<std::string, const char*> g_interned_index;
std::map<int, std::string> g_registered_names;  // slot -> track name

std::uint64_t capacity_from_env() {
  const int cap = obs::env_positive_int("FDBSCAN_TRACE_BUFFER",
                                        1 << 18,  // 262144 events/thread
                                        "exec.env_ignored");
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(cap),
                                   std::uint64_t{1} << 10,
                                   std::uint64_t{1} << 24);
}

TraceEvent* ensure_buffer(ThreadBuffer& b) {
  TraceEvent* mem = b.events.load(std::memory_order_acquire);
  if (mem) return mem;
  // First event on a slot that trace_start() did not pre-reserve (a
  // worker spawned after a later set_num_threads). One-time CAS.
  auto* fresh = new TraceEvent[g_capacity.load(std::memory_order_relaxed)];
  if (b.events.compare_exchange_strong(mem, fresh,
                                       std::memory_order_acq_rel)) {
    return fresh;
  }
  delete[] fresh;
  return mem;
}

void record(const TraceEvent& ev) {
  const int slot = t_trace_slot >= 0 ? t_trace_slot : thread_index();
  if (slot < 0 || slot >= kMaxTraceThreads) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer& b = g_buffers[slot];
  TraceEvent* mem = ensure_buffer(b);
  const std::uint64_t idx = b.size.fetch_add(1, std::memory_order_relaxed);
  if (idx >= g_capacity.load(std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Commit protocol for concurrent flushes (trace_flush() may run from
  // the SIGUSR1 statusz thread while we write): the slot's name doubles
  // as the committed flag. Invalidate it, fill the payload, then
  // publish the name with a release-store; readers acquire-load the
  // name and skip the slot while it is nullptr. Fresh slots start at
  // nullptr (value-initialized), so the first store is redundant there
  // but keeps reused buffers (trace_reset) on the same protocol.
  TraceEvent& dst = mem[idx];
  std::atomic_ref<const char*> name_ref(dst.name);
  name_ref.store(nullptr, std::memory_order_release);
  dst.cat = ev.cat;
  dst.begin_ns = ev.begin_ns;
  dst.end_ns = ev.end_ns;
  dst.value = ev.value;
  dst.kind = ev.kind;
  name_ref.store(ev.name, std::memory_order_release);
}

// Acquire-load of a slot's committed-flag / name. nullptr = claimed by
// a writer but not yet committed (or never written): skip the slot.
const char* committed_name(TraceEvent& ev) {
  return std::atomic_ref<const char*>(ev.name).load(
      std::memory_order_acquire);
}

std::uint64_t slot_count(const ThreadBuffer& b) {
  return std::min(b.size.load(std::memory_order_acquire),
                  g_capacity.load(std::memory_order_relaxed));
}

void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void append_ts_us(std::string& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

const char* kind_label(std::uint8_t kind) {
  switch (static_cast<TraceKernelKind>(kind)) {
    case TraceKernelKind::kWorker: return "worker";
    case TraceKernelKind::kLaunch: return "launch";
    case TraceKernelKind::kInline: return "inline";
  }
  return "?";
}

void flush_at_exit() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_trace_mutex);
    path = g_trace_path;
  }
  if (trace_detail::g_trace_state.load(std::memory_order_acquire) == 2 &&
      !path.empty()) {
    trace_flush();
  }
}

// Must hold g_trace_mutex.
void enable_locked(const std::string& path) {
  const std::uint64_t cap = capacity_from_env();
  std::uint64_t expected = 0;
  g_capacity.compare_exchange_strong(expected, cap,
                                     std::memory_order_acq_rel);
  // Pre-reserve buffers for every thread the pool will use, so the hot
  // path never allocates.
  const int reserve = std::min(num_threads(), kMaxTraceThreads);
  for (int i = 0; i < reserve; ++i) ensure_buffer(g_buffers[i]);
  g_trace_path = path;
  if (!g_atexit_registered) {
    g_atexit_registered = true;
    std::atexit(flush_at_exit);
  }
  (void)trace_now_ns();  // pin the epoch before the first event
  trace_detail::g_trace_state.store(2, std::memory_order_release);
}

}  // namespace

namespace trace_detail {

int trace_state_slow() noexcept {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  int s = g_trace_state.load(std::memory_order_acquire);
  if (s != 0) return s;
  const char* env = std::getenv("FDBSCAN_TRACE");
  if (env && *env) {
    enable_locked(env);
    return 2;
  }
  g_trace_state.store(1, std::memory_order_release);
  return 1;
}

}  // namespace trace_detail

std::int64_t trace_now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void trace_start(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  enable_locked(path);
}

void trace_stop() {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  trace_detail::g_trace_state.store(1, std::memory_order_release);
}

void trace_reset() {
  for (ThreadBuffer& b : g_buffers) b.size.store(0, std::memory_order_release);
  g_dropped.store(0, std::memory_order_relaxed);
}

std::int64_t trace_event_count() {
  std::int64_t total = 0;
  for (ThreadBuffer& b : g_buffers) {
    total += static_cast<std::int64_t>(slot_count(b));
  }
  return total;
}

std::int64_t trace_dropped_count() {
  return g_dropped.load(std::memory_order_relaxed);
}

int trace_register_thread(const char* name) {
  if (t_trace_slot >= 0) return t_trace_slot;  // idempotent per thread
  int slot = g_next_registered_slot.fetch_sub(1, std::memory_order_acq_rel);
  // Keep the top half for registered tracks; below that we would risk
  // colliding with pool-worker slots, so give the slot back and let the
  // thread share track 0.
  if (slot < kMaxTraceThreads / 2) {
    g_next_registered_slot.fetch_add(1, std::memory_order_acq_rel);
    return -1;
  }
  t_trace_slot = slot;
  {
    std::lock_guard<std::mutex> lock(g_trace_mutex);
    g_registered_names[slot] = name && *name ? name : "registered";
  }
  if (trace_enabled()) ensure_buffer(g_buffers[slot]);
  return slot;
}

const char* trace_intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  auto it = g_interned_index.find(name);
  if (it != g_interned_index.end()) return it->second;
  g_interned.push_back(name);
  const char* stable = g_interned.back().c_str();
  g_interned_index.emplace(name, stable);
  return stable;
}

void trace_record_kernel(const char* name, std::int64_t begin_ns,
                         std::int64_t end_ns, std::int64_t chunks,
                         TraceKernelKind kind) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name ? name : kUnnamedKernel;
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  ev.value = chunks;
  ev.kind = static_cast<std::uint8_t>(kind);
  record(ev);
}

void trace_record_span(const char* name, std::int64_t begin_ns,
                       std::int64_t end_ns, const char* cat) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name ? name : "<span>";
  ev.cat = cat ? cat : "phase";
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  ev.value = static_cast<std::int64_t>(t_request_id);  // spans: rid tag
  ev.kind = kSpan;
  record(ev);
}

void trace_set_request_id(std::uint64_t rid) noexcept {
  t_request_id = rid;
}

std::uint64_t trace_request_id() noexcept { return t_request_id; }

void trace_record_counter(const char* name, std::int64_t value) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.begin_ns = trace_now_ns();
  ev.value = value;
  ev.kind = kCounter;
  record(ev);
}

TraceCursor trace_cursor() {
  TraceCursor c;
  c.counts.resize(kMaxTraceThreads);
  for (int i = 0; i < kMaxTraceThreads; ++i) {
    c.counts[static_cast<std::size_t>(i)] = slot_count(g_buffers[i]);
  }
  return c;
}

std::vector<KernelAggregate> trace_kernel_aggregates(const TraceCursor& since) {
  struct Agg {
    std::int64_t count = 0;
    std::int64_t chunks = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
    std::map<int, double> busy_by_tid;
  };
  std::map<std::string, Agg> by_name;
  for (int tid = 0; tid < kMaxTraceThreads; ++tid) {
    ThreadBuffer& b = g_buffers[tid];
    TraceEvent* mem = b.events.load(std::memory_order_acquire);
    if (!mem) continue;
    const std::uint64_t from =
        tid < static_cast<int>(since.counts.size())
            ? since.counts[static_cast<std::size_t>(tid)]
            : 0;
    const std::uint64_t to = slot_count(b);
    for (std::uint64_t i = from; i < to; ++i) {
      const char* name = committed_name(mem[i]);
      if (!name) continue;  // claimed, not yet committed
      const TraceEvent& ev = mem[i];
      if (ev.kind > static_cast<std::uint8_t>(TraceKernelKind::kInline))
        continue;
      Agg& a = by_name[name];
      const double ms =
          static_cast<double>(ev.end_ns - ev.begin_ns) * 1e-6;
      const auto kind = static_cast<TraceKernelKind>(ev.kind);
      if (kind != TraceKernelKind::kWorker) {
        // Launch-granularity stats: each launch's dispatch-to-done wall
        // time (launches from distinct threads may overlap).
        ++a.count;
        a.chunks += ev.value;
        a.total_ms += ms;
        if (ms > a.max_ms) a.max_ms = ms;
      }
      if (kind != TraceKernelKind::kLaunch) {
        // Busy attribution: worker slices and inline executions; a pooled
        // launch's window includes the dispatcher's wait, so it is
        // excluded from busy.
        a.busy_by_tid[tid] += ms;
      }
    }
  }
  std::vector<KernelAggregate> out;
  out.reserve(by_name.size());
  for (auto& [name, a] : by_name) {
    KernelAggregate k;
    k.name = name;
    k.count = a.count;
    k.chunks = a.chunks;
    k.total_ms = a.total_ms;
    k.max_ms = a.max_ms;
    k.workers = static_cast<int>(a.busy_by_tid.size());
    double busy_total = 0.0, busy_max = 0.0;
    for (const auto& [tid, busy] : a.busy_by_tid) {
      busy_total += busy;
      if (busy > busy_max) busy_max = busy;
    }
    if (k.workers > 0 && busy_total > 0.0) {
      k.imbalance = busy_max * static_cast<double>(k.workers) / busy_total;
    }
    out.push_back(std::move(k));
  }
  std::sort(out.begin(), out.end(),
            [](const KernelAggregate& x, const KernelAggregate& y) {
              return x.total_ms > y.total_ms;
            });
  return out;
}

std::string trace_flush() {
  // Slice records (kernels + spans) per thread track, counters globally.
  struct Slice {
    const TraceEvent* ev;
    std::int64_t end_ns;  // may be clamped to the enclosing slice
  };
  std::vector<std::vector<Slice>> per_tid(kMaxTraceThreads);
  std::vector<const TraceEvent*> counters;
  for (int tid = 0; tid < kMaxTraceThreads; ++tid) {
    ThreadBuffer& b = g_buffers[tid];
    TraceEvent* mem = b.events.load(std::memory_order_acquire);
    if (!mem) continue;
    const std::uint64_t n = slot_count(b);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Skip claimed-but-uncommitted slots (flush may run concurrently
      // with recorders — see the record() commit protocol). A committed
      // slot is never rewritten, so the pointer stays valid below.
      if (committed_name(mem[i]) == nullptr) continue;
      const TraceEvent& ev = mem[i];
      if (ev.kind == kCounter) {
        counters.push_back(&ev);
      } else {
        per_tid[static_cast<std::size_t>(tid)].push_back(
            Slice{&ev, ev.end_ns});
      }
    }
  }
  std::sort(counters.begin(), counters.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->begin_ns < b->begin_ns;
            });

  std::vector<std::string> lines;
  auto meta = [&lines](int tid, const char* key, const std::string& value) {
    std::string l = "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    l += std::to_string(tid);
    l += ",\"name\":\"";
    l += key;
    l += "\",\"args\":{\"name\":\"";
    append_escaped(l, value.c_str());
    l += "\"}}";
    lines.push_back(std::move(l));
  };
  meta(0, "process_name", "fdbscan");

  constexpr int kCounterTid = 9999;
  std::map<int, std::string> registered;
  {
    std::lock_guard<std::mutex> lock(g_trace_mutex);
    registered = g_registered_names;
  }
  for (int tid = 0; tid < kMaxTraceThreads; ++tid) {
    if (per_tid[static_cast<std::size_t>(tid)].empty()) continue;
    const auto it = registered.find(tid);
    meta(tid, "thread_name",
         it != registered.end() ? it->second
         : tid == 0             ? std::string("dispatcher (0)")
                                : "worker " + std::to_string(tid));
  }
  if (!counters.empty()) meta(kCounterTid, "thread_name", "counters");

  auto emit_begin = [&lines](int tid, const Slice& s) {
    std::string l = "{\"ph\":\"B\",\"pid\":1,\"tid\":";
    l += std::to_string(tid);
    l += ",\"ts\":";
    append_ts_us(l, s.ev->begin_ns);
    l += ",\"cat\":\"";
    l += s.ev->kind == kSpan ? s.ev->cat : "kernel";
    l += "\",\"name\":\"";
    append_escaped(l, s.ev->name);
    l += "\"";
    if (s.ev->kind != kSpan) {
      l += ",\"args\":{\"chunks\":";
      l += std::to_string(s.ev->value);
      l += ",\"kind\":\"";
      l += kind_label(s.ev->kind);
      l += "\"}";
    } else if (s.ev->value != 0) {
      // Spans reuse `value` for the request-correlation tag.
      l += ",\"args\":{\"rid\":";
      l += std::to_string(s.ev->value);
      l += "}";
    }
    l += "}";
    lines.push_back(std::move(l));
  };
  auto emit_end = [&lines](int tid, const Slice& s) {
    std::string l = "{\"ph\":\"E\",\"pid\":1,\"tid\":";
    l += std::to_string(tid);
    l += ",\"ts\":";
    append_ts_us(l, s.end_ns);
    l += ",\"name\":\"";
    append_escaped(l, s.ev->name);
    l += "\"}";
    lines.push_back(std::move(l));
  };

  for (int tid = 0; tid < kMaxTraceThreads; ++tid) {
    auto& slices = per_tid[static_cast<std::size_t>(tid)];
    if (slices.empty()) continue;
    // Sort outermost-first at equal begins so the stack walk nests
    // children under parents; a thread records its slices at their end
    // times, so the buffer order alone is end-ordered, not begin-ordered.
    std::sort(slices.begin(), slices.end(),
              [](const Slice& a, const Slice& b) {
                if (a.ev->begin_ns != b.ev->begin_ns)
                  return a.ev->begin_ns < b.ev->begin_ns;
                return a.end_ns > b.end_ns;
              });
    std::vector<Slice> stack;
    for (Slice s : slices) {
      while (!stack.empty() && stack.back().end_ns <= s.ev->begin_ns) {
        emit_end(tid, stack.back());
        stack.pop_back();
      }
      if (!stack.empty() && stack.back().end_ns < s.end_ns) {
        // Defensive clamp: overlapping (non-nested) slices cannot be
        // expressed as B/E pairs; truncate to the enclosing slice.
        s.end_ns = stack.back().end_ns;
      }
      emit_begin(tid, s);
      stack.push_back(s);
    }
    while (!stack.empty()) {
      emit_end(tid, stack.back());
      stack.pop_back();
    }
  }

  for (const TraceEvent* c : counters) {
    std::string l = "{\"ph\":\"C\",\"pid\":1,\"tid\":";
    l += std::to_string(kCounterTid);
    l += ",\"ts\":";
    append_ts_us(l, c->begin_ns);
    l += ",\"name\":\"";
    append_escaped(l, c->name);
    l += "\",\"args\":{\"value\":";
    l += std::to_string(c->value);
    l += "}}";
    lines.push_back(std::move(l));
  }

  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";

  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_trace_mutex);
    path = g_trace_path;
  }
  if (!path.empty()) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (f) f << out;
  }
  return out;
}

}  // namespace fdbscan::exec
