// fdbscan_perf: the driver binary of the repository benchmark
// (perfbench/README.md). It runs one workload for a fixed number of
// seconds and writes every metric it measured, with its unit, to a JSON
// file that perfbench/run.py turns into the benchmark's result line.
//
//   fdbscan_perf --workload batch_paper|service_mixed|stream_window
//                --seed N --seconds S --out FILE
//   fdbscan_perf --self-test
//
// Everything is measured from outside the library: wall clocks around
// calls into the public API, exec::kernel_profile() snapshots, the
// service's metrics()/pool_stats()/dataset_stats(), the graph
// scheduler's totals() and the fields of each returned Clustering. When
// FDBSCAN_TRACE is set, the driver also records exec::TraceSpan spans
// ("bench/..."), one track per driver thread, around the same calls.
//
// Every timed clustering is checked, outside its timed window, against a
// baselines::sequential_dbscan reference with equivalent_clusterings():
// a result bit-identical to one that already passed that check passes
// by the comparison; any other result gets the full check.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/sequential_dbscan.h"
#include "core/cluster.h"
#include "core/engine.h"
#include "core/validate.h"
#include "data/generators.h"
#include "exec/graph/task_graph.h"
#include "exec/parallel.h"
#include "exec/profile.h"
#include "exec/simd.h"
#include "exec/thread_pool.h"
#include "exec/trace.h"
#include "service/service.h"

namespace {

using namespace fdbscan;
using Clock = std::chrono::steady_clock;
using service::ClusterService;
using service::ServiceMetrics;
using service::ServiceResult;
using service::SessionResult;

// ---------------------------------------------------------------------------
// Time, statistics, host

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Seconds since `epoch`, the time base of one workload's stamps.
double since(Clock::time_point epoch) { return secs(Clock::now() - epoch); }

/// Percentile by linear interpolation between closest ranks (q in [0, 1]),
/// the definition numpy and Python's statistics module use by default.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Progress line on stderr, stamped with seconds since process start.
void note(const std::string& what) {
  static const auto start = Clock::now();
  std::fprintf(stderr, "[%7.2fs] %s\n", since(start), what.c_str());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the peak covers only what follows.
/// Returns false where the kernel refuses, in which case the peak also
/// covers the set-up before the timed window.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Cumulative CPU time of the host, from the first line of /proc/stat.
struct HostCpu {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu h;
  for (int field = 0; field < 10; ++field) {
    std::int64_t v = 0;
    if (!(in >> v)) break;
    h.total += v;
    if (field == 7) h.steal = v;
  }
  return h;
}

/// Share of the host's CPU time between two readings that the hypervisor
/// gave to other guests: how noisy a virtualized host was during a window.
double steal_pct(const HostCpu& before, const HostCpu& after) {
  return 100.0 * ratio(static_cast<double>(after.steal - before.steal),
                       static_cast<double>(after.total - before.total));
}

/// Registers the calling driver thread as its own trace track, so its
/// spans nest correctly (unregistered threads share track 0).
void trace_thread(const std::string& name) {
  if (exec::trace_enabled()) exec::trace_register_thread(name.c_str());
}

// ---------------------------------------------------------------------------
// Metrics ledger and correctness accounting

struct Ledger {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> host;
  std::mutex mutex;  // guards failed/failures for concurrent checkers

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex);
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string to_json(const Ledger& l) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"attempted\": " << l.attempted << ", \"failed\": " << l.failed
    << ", \"failures\": [";
  for (std::size_t i = 0; i < l.failures.size(); ++i) {
    o << (i ? ", " : "") << '"' << json_escape(l.failures[i]) << '"';
  }
  o << "], \"host\": {";
  bool first = true;
  for (const auto& [k, v] : l.host) {
    o << (first ? "" : ", ") << '"' << k << "\": \"" << json_escape(v) << '"';
    first = false;
  }
  o << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : l.metrics) {
    o << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << m.first
      << ", \"unit\": \"" << m.second << "\"}";
    first = false;
  }
  o << "}}\n";
  return o.str();
}

/// The reference for one (points, params) pair plus the results that
/// passed equivalent_clusterings() against it. Border points may join
/// any adjacent cluster, so concurrent runs can return a few distinct
/// valid labelings; each one is kept once it passed.
struct CheckSlot {
  std::string what;
  Parameters params;
  Clustering reference;
  std::vector<std::pair<std::vector<std::int32_t>, std::vector<std::uint8_t>>>
      verified;
};

/// True when `c` is bit-identical to a result of the slot that passed the
/// full check (the cheap path taken inside timed windows).
bool same_as_verified(const CheckSlot& slot, const Clustering& c) {
  for (const auto& [labels, is_core] : slot.verified) {
    if (c.labels == labels && c.is_core == is_core) return true;
  }
  return false;
}

bool same_result(const Clustering& a, const Clustering& b) {
  return a.labels == b.labels && a.is_core == b.is_core;
}

/// Queues `c` for the full check unless it is bit-identical to a result
/// that passed it or is already queued, so repeats hold no memory.
void queue_check(const CheckSlot& slot, std::vector<Clustering>& queue,
                 Clustering&& c) {
  if (same_as_verified(slot, c)) return;
  for (const Clustering& q : queue) {
    if (same_result(q, c)) return;
  }
  queue.push_back(std::move(c));
}

/// Remembers `c` as a verified result of the slot.
void remember(CheckSlot& slot, const Clustering& c) {
  constexpr std::size_t kMaxVariants = 8;
  if (slot.verified.size() < kMaxVariants && !same_as_verified(slot, c)) {
    slot.verified.emplace_back(c.labels, c.is_core);
  }
}

/// Full check (outside any timed window). Records a mismatch in `ledger`.
template <int DIM>
bool full_check(const CheckSlot& slot, const std::vector<Point<DIM>>& points,
                const Clustering& c, Ledger& ledger) {
  const CheckResult r =
      equivalent_clusterings(points, slot.params, slot.reference, c);
  if (!r) ledger.fail(slot.what + ": " + r.message);
  return r.ok;
}

/// Runs `jobs` on up to four threads (reference computations are
/// sequential algorithms; the driver never uses more than four threads).
void run_parallel(std::vector<std::function<void()>> jobs) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const std::size_t k = std::min<std::size_t>(4, jobs.size());
  for (std::size_t t = 0; t < k; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) jobs[i]();
    });
  }
  for (auto& t : threads) t.join();
}

/// Fully checks every result queued in `pending[i]` (see queue_check)
/// against `slots[i]`, all concurrently, and remembers those that pass.
/// `with_points(i, f)` calls f with the points of slot i. Returns the
/// number of full checks made.
template <class WithPoints>
std::int64_t check_pending(std::vector<CheckSlot>& slots,
                           std::vector<std::vector<Clustering>>& pending,
                           Ledger& ledger, WithPoints&& with_points) {
  std::vector<std::pair<std::size_t, const Clustering*>> todo;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (const Clustering& c : pending[i]) todo.emplace_back(i, &c);
  }
  std::vector<char> ok(todo.size(), 0);
  std::vector<std::function<void()>> jobs;
  for (std::size_t j = 0; j < todo.size(); ++j) {
    jobs.push_back([&, j] {
      with_points(todo[j].first, [&](const auto& pts) {
        ok[j] = full_check(slots[todo[j].first], pts, *todo[j].second, ledger);
      });
    });
  }
  run_parallel(std::move(jobs));
  for (std::size_t j = 0; j < todo.size(); ++j) {
    if (ok[j]) remember(slots[todo[j].first], *todo[j].second);
  }
  for (auto& p : pending) p.clear();
  return static_cast<std::int64_t>(todo.size());
}

// ---------------------------------------------------------------------------
// Per-layer accumulation from Clustering fields and kernel profiles

/// Sums of the fields of the clusterings one workload returned.
struct ClusterFields {
  std::int64_t calls = 0;
  double pre_ms = 0, main_ms = 0, finalize_ms = 0;
  double traverse_busy_s = 0;  ///< pre + main kernel busy time
  double traverse_wall_s = 0;  ///< pre + main wall time
  std::int64_t dist_comps = 0, nodes_visited = 0;
  std::int64_t bvh_calls = 0, grid_calls = 0;
  double bvh_build_ms = 0, grid_build_ms = 0;
  std::int64_t grid_points = 0, dense_points = 0;
  std::int64_t sharded = 0, ghosts = 0, cross_edges = 0, halo_bytes = 0;

  void add(const Clustering& c, Method method) {
    const PhaseTimings& t = c.timings;
    ++calls;
    pre_ms += t.preprocessing * 1e3;
    main_ms += t.main * 1e3;
    finalize_ms += t.finalization * 1e3;
    traverse_busy_s +=
        t.preprocessing_profile.busy_total + t.main_profile.busy_total;
    traverse_wall_s += t.preprocessing + t.main;
    dist_comps += c.distance_computations;
    nodes_visited += c.index_nodes_visited;
    if (c.num_shards > 1) {
      ++sharded;
      ghosts += c.shard_ghosts;
      cross_edges += c.shard_cross_edges;
      halo_bytes += c.shard_halo_bytes;
    } else if (method == Method::kDensebox) {
      ++grid_calls;
      grid_build_ms += t.index_construction * 1e3;
      grid_points += static_cast<std::int64_t>(c.labels.size());
      dense_points += c.points_in_dense_cells;
    } else {
      ++bvh_calls;
      bvh_build_ms += t.index_construction * 1e3;
    }
  }

  void emit(Ledger& l) const {
    const auto per_call = [&](double v) {
      return ratio(v, static_cast<double>(calls));
    };
    l.set("core.pre_ms", per_call(pre_ms), "ms");
    l.set("core.main_ms", per_call(main_ms), "ms");
    l.set("core.finalize_ms", per_call(finalize_ms), "ms");
    l.set("core.dist_comps", per_call(static_cast<double>(dist_comps)),
          "count/op");
    l.set("bvh.nodes_visited", per_call(static_cast<double>(nodes_visited)),
          "count/op");
    l.set("bvh.nodes_per_s",
          ratio(static_cast<double>(nodes_visited), traverse_wall_s), "1/s");
    l.set("exec.ns_per_dist",
          ratio(traverse_busy_s * 1e9, static_cast<double>(dist_comps)), "ns");
    l.set("bvh.build_ms", ratio(bvh_build_ms, static_cast<double>(bvh_calls)),
          "ms");
    l.set("grid.build_ms",
          ratio(grid_build_ms, static_cast<double>(grid_calls)), "ms");
    l.set("grid.dense_pts_frac",
          ratio(static_cast<double>(dense_points),
                static_cast<double>(grid_points)),
          "ratio");
    const double s = static_cast<double>(sharded);
    l.set("shard.ghosts", ratio(static_cast<double>(ghosts), s), "count/op");
    l.set("shard.cross_edges", ratio(static_cast<double>(cross_edges), s),
          "count/op");
    l.set("shard.halo_kb", ratio(static_cast<double>(halo_bytes) / 1024.0, s),
          "KiB/op");
  }
};

/// exec.* from two kernel_profile() snapshots around a timed window.
void emit_exec(Ledger& l, const exec::KernelProfileSnapshot& before,
               const exec::KernelProfileSnapshot& after, double wall_s,
               std::int64_t ops) {
  const exec::KernelPhaseProfile d = exec::profile_delta(before, after);
  const double n = static_cast<double>(std::max<std::int64_t>(ops, 1));
  l.set("exec.launches", static_cast<double>(d.launches) / n, "count/op");
  l.set("exec.chunks", static_cast<double>(d.chunks) / n, "count/op");
  l.set("exec.busy_s", d.busy_total, "s");
  l.set("exec.util",
        ratio(d.busy_total, wall_s * static_cast<double>(exec::num_threads())),
        "ratio");
  l.set("exec.imbalance", d.imbalance(), "ratio");
}

// ---------------------------------------------------------------------------
// Open-loop completion stamping

/// Stamps completions of outstanding futures by polling them all, so a
/// request that finishes out of submission order is stamped when it
/// finishes, not when the ones before it do. For each stamp the error
/// bound is the time since the future was last seen not ready (or was
/// added): the true completion lies inside that interval.
template <class R>
class Poller {
 public:
  struct Done {
    std::size_t index;
    double due_s, sent_s, done_s, stamp_err_s;
  };
  using Callback = std::function<void(const Done&, R&&)>;

  Poller(Clock::time_point epoch, Callback on_done, const char* track)
      : epoch_(epoch), on_done_(std::move(on_done)),
        thread_([this, track] { loop(track); }) {}
  ~Poller() { finish(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(std::size_t index, double due_s, double sent_s,
           std::future<R> future) {
    std::lock_guard<std::mutex> lock(mutex_);
    inbox_.push_back(Item{index, due_s, sent_s, sent_s, std::move(future)});
  }

  /// Waits for every added future, then stops the polling thread.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::size_t max_inflight() const { return max_inflight_; }

 private:
  struct Item {
    std::size_t index;
    double due_s, sent_s, seen_pending_s;
    std::future<R> future;
  };

  void loop(const char* track) {
    trace_thread(track);
    std::vector<Item> pending;
    for (;;) {
      bool closing;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& item : inbox_) pending.push_back(std::move(item));
        inbox_.clear();
        closing = closing_;
      }
      max_inflight_ = std::max(max_inflight_, pending.size());
      if (closing && pending.empty()) return;
      for (std::size_t i = 0; i < pending.size();) {
        Item& item = pending[i];
        const double checked = since(epoch_);
        if (item.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const double done = since(epoch_);
          R result = item.future.get();
          on_done_(Done{item.index, item.due_s, item.sent_s, done,
                        done - item.seen_pending_s},
                   std::move(result));
          pending[i] = std::move(pending.back());
          pending.pop_back();
        } else {
          item.seen_pending_s = checked;
          ++i;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  Clock::time_point epoch_;
  Callback on_done_;
  std::mutex mutex_;
  std::vector<Item> inbox_;
  bool closing_ = false;
  std::size_t max_inflight_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// Poisson send times (seconds from 0) at `rate_qps` up to `horizon_s`.
std::vector<double> poisson_schedule(double rate_qps, double horizon_s,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - u(rng)) / rate_qps;
    if (t >= horizon_s) return due;
    due.push_back(t);
  }
}

/// Sleeps until `t_s` seconds after `epoch` and returns the send time.
double send_at(Clock::time_point epoch, double t_s) {
  std::this_thread::sleep_until(
      epoch + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(t_s)));
  return since(epoch);
}

// ---------------------------------------------------------------------------
// Self-test: percentile math and completion stamping on synthetic traces

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("self-test %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  std::shuffle(ramp.begin(), ramp.end(), std::mt19937_64(7));
  expect(std::abs(percentile(ramp, 0.5) - 500.5) < 1e-9, "p50 of 1..1000");
  expect(std::abs(percentile(ramp, 0.99) - 990.01) < 1e-9, "p99 of 1..1000");
  expect(std::abs(percentile(ramp, 0.9) - 900.1) < 1e-9, "p90 of 1..1000");
  expect(percentile({4.0}, 0.99) == 4.0, "percentile of one sample");

  // Synthetic open loop: 400 requests at 400 req/s whose service times
  // are known (1 ms for 9 in 10, 12 ms for 1 in 10), completed out of
  // order by two completer threads. Stamped latencies must match the
  // completion times each completer recorded, within each stamp's bound.
  const std::size_t n = 400;
  const auto epoch = Clock::now();
  const std::vector<double> due = poisson_schedule(400.0, 10.0, 11);
  std::vector<std::promise<int>> promises(n);
  std::vector<std::atomic<bool>> sent(n);
  // The future became ready somewhere in [completed_at, resolved_by].
  std::vector<double> completed_at(n, 0.0), resolved_by(n, 0.0), planned(n);
  for (std::size_t i = 0; i < n; ++i) planned[i] = (i % 10 == 9) ? 12e-3 : 1e-3;
  std::vector<double> stamped(n, -1.0), bound(n, 0.0);
  std::mutex mu;
  std::vector<std::pair<double, std::size_t>> finish_plan;
  {
    Poller<int> poller(
        epoch,
        [&](const Poller<int>::Done& d, int&&) {
          stamped[d.index] = d.done_s;
          bound[d.index] = d.stamp_err_s;
        },
        "bench/selftest-poller");
    std::vector<std::thread> completers;
    std::vector<std::vector<std::size_t>> lanes(2);
    for (std::size_t i = 0; i < n; ++i) lanes[i % 2].push_back(i);
    for (auto& lane : lanes) {
      completers.emplace_back([&, lane] {
        std::vector<std::size_t> order = lane;
        std::sort(order.begin(), order.end(), [&](auto a, auto b) {
          return due[a] + planned[a] < due[b] + planned[b];
        });
        for (std::size_t i : order) {
          send_at(epoch, due[i] + planned[i]);
          // A request cannot finish before it was sent.
          while (!sent[i].load()) std::this_thread::yield();
          const double before = since(epoch);
          promises[i].set_value(0);
          const double after = since(epoch);
          std::lock_guard<std::mutex> lock(mu);
          completed_at[i] = before;
          resolved_by[i] = after;
        }
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double sent_s = send_at(epoch, due[i]);
      poller.add(i, due[i], sent_s, promises[i].get_future());
      sent[i].store(true);
    }
    for (auto& t : completers) t.join();
    poller.finish();
  }
  bool within_bound = true;
  std::vector<double> measured, truth;
  double max_bound = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (stamped[i] < completed_at[i] ||
        stamped[i] - resolved_by[i] > bound[i] + 1e-6) {
      within_bound = false;
    }
    measured.push_back(stamped[i] - due[i]);
    truth.push_back(completed_at[i] - due[i]);
    max_bound = std::max(max_bound, bound[i]);
  }
  expect(within_bound, "every stamp within its error bound");
  expect(std::abs(percentile(measured, 0.5) - percentile(truth, 0.5)) <=
             max_bound + 1e-6,
         "stamped p50 matches completion p50");
  expect(std::abs(percentile(measured, 0.99) - percentile(truth, 0.99)) <=
             max_bound + 1e-6,
         "stamped p99 matches completion p99");
  expect(percentile(truth, 0.99) >= 0.012, "synthetic p99 sees the slow tail");
  std::printf("self-test stamp error bound max = %.3f ms\n", max_bound * 1e3);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Inputs

/// Structure seed of every generated dataset. Like the paper's fixed
/// datasets, the structure (roads, lanes, halos) is the same in every
/// run; the workload seed draws the random subsample that is clustered
/// (§5.1 subsamples the real datasets the same way).
constexpr std::uint64_t kStructureSeed = 2023;

std::vector<Point3> hacc(std::int64_t n, std::uint64_t seed) {
  return data::hacc_like(n, seed);
}

/// hacc_like for a subsample of n / 4 particles at the particle density
/// and particles per halo of the 262144-particle paper set.
std::vector<Point3> small_hacc(std::int64_t n, std::uint64_t seed) {
  const double scale = static_cast<double>(n / 4) / 262144.0;
  data::CosmologyConfig config;
  config.box_size = static_cast<float>(64.0 * std::cbrt(scale));
  config.num_halos = static_cast<std::int32_t>(std::lround(400.0 * scale));
  return data::hacc_like(n, seed, config);
}

/// A random `n`-point subsample (drawn with the workload seed) of a
/// `kOversample * n`-point dataset of fixed structure.
template <int DIM>
std::vector<Point<DIM>> sample(
    std::vector<Point<DIM>> (*generate)(std::int64_t, std::uint64_t),
    std::int64_t n, std::uint64_t seed, std::uint64_t stream) {
  constexpr std::int64_t kOversample = 4;
  return data::subsample(generate(kOversample * n, kStructureSeed + stream), n,
                         mix_seed(seed, stream));
}

// ---------------------------------------------------------------------------
// Workload: batch_paper

/// One paper dataset at its Fig. 4(g-i) / Fig. 6 parameters.
struct PaperSet {
  const char* name;
  Parameters params;
  std::vector<Point2> p2;
  std::vector<Point3> p3;
  bool is3d = false;

  [[nodiscard]] std::size_t size() const { return is3d ? p3.size() : p2.size(); }
};

template <class F>
decltype(auto) with_points(const PaperSet& d, F&& f) {
  return d.is3d ? f(d.p3) : f(d.p2);
}

const char* method_name(Method m) {
  return m == Method::kDensebox ? "densebox" : "fdbscan";
}

/// A one-shot run through Engine::stage(): the phase closures cluster()
/// would run, each timed from outside; their summed wall lands in
/// `closures_s`.
template <int DIM>
Clustering run_staged(const std::vector<Point<DIM>>& points,
                      const Parameters& params, Method method,
                      double* closures_s) {
  exec::TraceSpan span("bench/stage", "bench");
  Engine<DIM> engine(points);
  StagedRun staged = method == Method::kDensebox
                         ? engine.stage_densebox(params)
                         : engine.stage(params);
  for (auto& phase : staged.phases) {
    const auto t0 = Clock::now();
    phase.fn();
    *closures_s += secs(Clock::now() - t0);
  }
  return std::move(*staged.result);
}

void batch_paper(std::uint64_t seed, double seconds, Ledger& l) {
  constexpr std::int64_t n2 = 65536, n3 = 262144;
  std::vector<PaperSet> sets(4);
  sets[0] = {"ngsim", {0.0025f, 500}, sample(data::ngsim_like, n2, seed, 1), {}};
  sets[1] = {"porto", {0.05f, 1000}, sample(data::porto_taxi_like, n2, seed, 2), {}};
  sets[2] = {"3droad", {0.01f, 100}, sample(data::road_network_like, n2, seed, 3), {}};
  sets[3] = {"hacc", {0.042f, 5}, {}, sample(hacc, n3, seed, 4), true};
  note("batch_paper: data generated");
  const Method methods[2] = {Method::kFdbscan, Method::kDensebox};

  std::vector<CheckSlot> slots(sets.size());
  {
    std::vector<std::function<void()>> jobs;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      slots[k].what = sets[k].name;
      slots[k].params = sets[k].params;
      jobs.push_back([&, k] {
        slots[k].reference = with_points(sets[k], [&](const auto& pts) {
          return baselines::sequential_dbscan(pts, sets[k].params);
        });
      });
    }
    run_parallel(std::move(jobs));
  }
  note("batch_paper: references computed");
  const bool hwm_reset = reset_peak_rss();

  // setup_s: pool start — a fresh worker pool up to its first launch.
  const int workers = exec::num_threads();
  std::vector<double> setups;
  for (int rep = 0; rep < 51; ++rep) {
    exec::set_num_threads(workers);
    const auto t0 = Clock::now();
    exec::parallel_for("bench/pool-start", workers * 64, [](std::int64_t) {});
    setups.push_back(secs(Clock::now() - t0));
  }

  // Untimed pass through Engine::stage(): each phase closure timed from
  // outside, and the result of every pair fully checked.
  ClusterFields stage_fields;
  double stage_gap_ms = 0.0;
  std::vector<CheckSlot> pair_slots;
  std::vector<std::vector<Clustering>> unchecked(2 * sets.size());
  for (std::size_t k = 0; k < sets.size(); ++k) {
    for (Method m : methods) {
      CheckSlot slot = slots[k];
      slot.what = std::string(sets[k].name) + "/" + method_name(m);
      with_points(sets[k], [&](const auto& pts) {
        if (auto error = validate_input(pts, sets[k].params)) {
          l.fail(slot.what + ": " + error->message);
          return;
        }
        ++l.attempted;
        double closures_s = 0.0;
        Clustering c = run_staged(pts, sets[k].params, m, &closures_s);
        stage_gap_ms += (closures_s - c.timings.total()) * 1e3;
        stage_fields.add(c, m);
        queue_check(slot, unchecked[pair_slots.size()], std::move(c));
      });
      pair_slots.push_back(std::move(slot));
    }
  }
  std::int64_t full_checks = 0;
  const auto check_unchecked = [&] {
    full_checks += check_pending(pair_slots, unchecked, l,
                                 [&](std::size_t p, auto&& f) {
                                   with_points(sets[p / 2], f);
                                 });
  };
  check_unchecked();
  note("batch_paper: staged pass checked");

  // Timed window: rotations of cold one-shot cluster() calls.
  ClusterFields fields;
  std::map<std::string, std::vector<double>> call_ms;
  std::vector<double> rot_pts, rot_calls, rot_slowest, all_calls_ms;
  const exec::KernelProfileSnapshot k0 = exec::kernel_profile();
  const HostCpu cpu0 = host_cpu();
  const auto window0 = Clock::now();
  while (secs(Clock::now() - window0) < seconds) {
    double wall = 0.0, slowest = 0.0, points = 0.0, calls = 0.0;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      for (std::size_t mi = 0; mi < 2; ++mi) {
        const Method m = methods[mi];
        const std::size_t p = 2 * k + mi;
        ++l.attempted;
        const auto t0 = Clock::now();
        Expected<Clustering> r = with_points(sets[k], [&](const auto& pts) {
          exec::TraceSpan span("bench/cluster", "bench");
          return cluster(pts, sets[k].params, {}, m);
        });
        const double dt = secs(Clock::now() - t0);
        wall += dt;
        slowest = std::max(slowest, dt);
        points += static_cast<double>(sets[k].size());
        calls += 1.0;
        all_calls_ms.push_back(dt * 1e3);
        call_ms[std::string(sets[k].name) + "." + method_name(m)].push_back(
            dt * 1e3);
        if (!r.has_value()) {
          l.fail(pair_slots[p].what + ": " + r.error().message);
          continue;
        }
        fields.add(*r, m);
        queue_check(pair_slots[p], unchecked[p], std::move(*r));
      }
    }
    rot_pts.push_back(points / wall);
    rot_calls.push_back(calls / wall);
    rot_slowest.push_back(slowest * 1e3);
  }
  const double window_s = secs(Clock::now() - window0);
  const exec::KernelProfileSnapshot k1 = exec::kernel_profile();
  l.set("host.steal_pct", steal_pct(cpu0, host_cpu()), "%");
  const double rss = peak_rss_mb();
  note("batch_paper: timed window done");
  check_unchecked();
  note("batch_paper: results checked");

  l.set("setup_s", median(setups), "s");
  l.set("pts_per_s", median(rot_pts), "points/s");
  l.set("ops_per_s", median(rot_calls), "1/s");
  l.set("p50_ms", median(all_calls_ms), "ms");
  l.set("tail_ms", median(rot_slowest), "ms");
  l.set("peak_rss_mb", rss, "MiB");

  emit_exec(l, k0, k1, window_s, fields.calls);
  fields.emit(l);
  l.set("core.stage_gap_ms",
        ratio(stage_gap_ms, static_cast<double>(stage_fields.calls)), "ms");
  for (const auto& [pair, v] : call_ms) {
    l.set("core.call_ms." + pair, median(v), "ms");
  }
  l.set("check.full_checks", static_cast<double>(full_checks), "count");
  l.set("bench.rotations", static_cast<double>(rot_pts.size()), "count");
  l.host["peak_rss_window_only"] = hwm_reset ? "1" : "0";
}

// ---------------------------------------------------------------------------
// Workload: service_mixed

/// One request shape of the fixed rotation.
struct Shape {
  std::size_t dataset;
  Parameters params;
  Method method;
  std::int32_t shards;
};

struct ServiceData {
  const char* name;
  std::shared_ptr<const std::vector<Point2>> p2;
  std::shared_ptr<const std::vector<Point3>> p3;
};

std::future<ServiceResult> submit_shape(ClusterService& svc,
                                        const std::vector<ServiceData>& data,
                                        const Shape& s) {
  RequestSpec spec;
  spec.params = s.params;
  spec.method = s.method;
  spec.shards = s.shards;
  const ServiceData& d = data[s.dataset];
  if (d.p3) return svc.submit<3>(d.name, d.p3, spec);
  return svc.submit<2>(d.name, d.p2, spec);
}

/// Aggregate service-side latency over a window: delta of two snapshots.
struct ServiceDelta {
  double queue_mean_ms, run_mean_ms;
  std::int64_t count;
};

ServiceDelta service_delta(const ServiceMetrics& a, const ServiceMetrics& b) {
  const auto n = b.run_time.count - a.run_time.count;
  const double d = static_cast<double>(std::max<std::int64_t>(n, 1));
  return {(b.queue_wait.total_ms - a.queue_wait.total_ms) / d,
          (b.run_time.total_ms - a.run_time.total_ms) / d, n};
}

void service_mixed(std::uint64_t seed, double seconds, Ledger& l) {
  // The fixed request rate of the open loop: about a quarter of this
  // rotation's saturation QPS (330-410 with 4 clients) on a 4-core
  // Xeon host.
  constexpr double kOpenRate = 80.0;

  std::vector<ServiceData> data = {
      {"ngsim", std::make_shared<const std::vector<Point2>>(
                    sample(data::ngsim_like, 4096, seed, 11)), nullptr},
      {"porto", std::make_shared<const std::vector<Point2>>(
                    sample(data::porto_taxi_like, 4096, seed, 12)), nullptr},
      {"3droad", std::make_shared<const std::vector<Point2>>(
                     sample(data::road_network_like, 8192, seed, 13)), nullptr},
      {"hacc", nullptr, std::make_shared<const std::vector<Point3>>(
                            sample(small_hacc, 8192, seed, 14))},
  };
  // A quarter of the shapes are sharded (always plain FDBSCAN); DenseBox
  // shapes use at most two (eps, minpts) per dataset, within the engine's
  // grid cache, so the warm pass builds every index the loop needs.
  const std::vector<Shape> rotation = {
      {0, {0.0025f, 20}, Method::kDensebox, 1},
      {1, {0.01f, 20}, Method::kFdbscan, 1},
      {2, {0.01f, 5}, Method::kFdbscan, 2},
      {3, {0.042f, 5}, Method::kFdbscan, 1},
      {0, {0.005f, 50}, Method::kDensebox, 1},
      {1, {0.02f, 100}, Method::kDensebox, 1},
      {2, {0.02f, 5}, Method::kDensebox, 1},
      {3, {0.042f, 5}, Method::kDensebox, 1},
      {1, {0.02f, 20}, Method::kFdbscan, 2},
      {2, {0.02f, 20}, Method::kFdbscan, 1},
      {3, {0.042f, 5}, Method::kFdbscan, 2},
      {0, {0.0025f, 20}, Method::kFdbscan, 1},
  };
  const auto with_data = [&](std::size_t k, auto&& f) {
    return data[k].p3 ? f(*data[k].p3) : f(*data[k].p2);
  };

  // One reference per distinct (dataset, params); one check slot per shape.
  std::vector<CheckSlot> slots(rotation.size());
  {
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      const Shape& s = rotation[i];
      slots[i].what = std::string(data[s.dataset].name) + "/" +
                      method_name(s.method) + "/eps=" +
                      std::to_string(s.params.eps) +
                      "/minpts=" + std::to_string(s.params.minpts) +
                      "/shards=" + std::to_string(s.shards);
      slots[i].params = s.params;
      jobs.push_back([&, i] {
        const Shape& sh = rotation[i];
        slots[i].reference = with_data(sh.dataset, [&](const auto& pts) {
          return baselines::sequential_dbscan(pts, sh.params);
        });
      });
    }
    run_parallel(std::move(jobs));
  }
  note("service_mixed: references computed");
  const bool hwm_reset = reset_peak_rss();
  // Results awaiting the full check, per shape.
  std::vector<std::vector<Clustering>> unchecked(rotation.size());
  std::int64_t full_checks = 0;
  const auto check_unchecked = [&] {
    full_checks += check_pending(slots, unchecked, l,
                                 [&](std::size_t i, auto&& f) {
                                   with_data(rotation[i].dataset, f);
                                 });
  };

  // setup_s: service construction + one warm-up pass over the rotation
  // (builds every dataset's engines, grids and sharded executors).
  std::unique_ptr<ClusterService> svc;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    svc.reset();
    std::vector<ServiceResult> warm;
    const auto t0 = Clock::now();
    svc = std::make_unique<ClusterService>();
    for (const Shape& s : rotation) {
      warm.push_back(submit_shape(*svc, data, s).get());
    }
    setups.push_back(secs(Clock::now() - t0));
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      ++l.attempted;
      if (!warm[i].has_value()) {
        l.fail(slots[i].what + " (warm-up): " + warm[i].error().message);
      } else {
        queue_check(slots[i], unchecked[i], std::move(*warm[i]));
      }
    }
    check_unchecked();
  }
  const int dispatchers = svc->config().dispatchers;
  note("service_mixed: set up");

  std::mutex mu;  // guards everything the completion callbacks touch
  ClusterFields fields;
  const auto record = [&](std::size_t shape, ServiceResult&& r) {
    std::lock_guard<std::mutex> lock(mu);
    if (!r.has_value()) {
      l.fail(slots[shape].what + ": " + r.error().message);
      return false;
    }
    fields.add(*r, rotation[shape].method);
    queue_check(slots[shape], unchecked[shape], std::move(*r));
    return true;
  };

  // At 25 s, the open loop sends ~1500 requests: >= 10 beyond its p99.
  const double open_s = seconds * 0.75, closed1_s = seconds * 0.1,
               closed4_s = seconds * 0.15;
  const ServiceMetrics m0 = svc->metrics();
  const exec::graph::SchedulerTotals g0 = exec::graph::totals();
  const service::EnginePoolStats pool0 = svc->pool_stats();
  const exec::KernelProfileSnapshot k0 = exec::kernel_profile();
  const HostCpu cpu0 = host_cpu();
  const auto window0 = Clock::now();

  // Phase A: open loop, Poisson arrivals at kOpenRate.
  const std::vector<double> due =
      poisson_schedule(kOpenRate, open_s, mix_seed(seed, 15));
  // Open-loop latency per segment of the schedule: a burst of host
  // interference inflates the segments it lands in, and the reported
  // p50/p90 are medians over the segments.
  constexpr int kSegments = 5;
  std::vector<double> lat_ms, client_ms, late_ms, stamp_err_ms, shard_lat_ms;
  std::vector<std::vector<double>> segment_ms(kSegments);
  std::size_t max_inflight = 0;
  {
    const auto epoch = Clock::now();
    Poller<ServiceResult> poller(
        epoch,
        [&](const Poller<ServiceResult>::Done& d, ServiceResult&& r) {
          const std::size_t shape = d.index % rotation.size();
          if (!record(shape, std::move(r))) return;
          std::lock_guard<std::mutex> lock(mu);
          lat_ms.push_back((d.done_s - d.due_s) * 1e3);
          const auto seg = std::min<std::size_t>(
              kSegments - 1,
              static_cast<std::size_t>(d.due_s / open_s * kSegments));
          segment_ms[seg].push_back((d.done_s - d.due_s) * 1e3);
          client_ms.push_back((d.done_s - d.sent_s) * 1e3);
          stamp_err_ms.push_back(d.stamp_err_s * 1e3);
          if (rotation[shape].shards > 1) {
            shard_lat_ms.push_back((d.done_s - d.due_s) * 1e3);
          }
        },
        "bench/poller");
    std::thread generator([&] {
      trace_thread("bench/generator");
      for (std::size_t i = 0; i < due.size(); ++i) {
        const double sent = send_at(epoch, due[i]);
        late_ms.push_back((sent - due[i]) * 1e3);
        exec::TraceSpan span("bench/submit", "bench");
        poller.add(i, due[i], sent,
                   submit_shape(*svc, data, rotation[i % rotation.size()]));
      }
    });
    generator.join();
    poller.finish();
    max_inflight = poller.max_inflight();
  }
  l.attempted += static_cast<std::int64_t>(due.size());
  const ServiceMetrics m_open = svc->metrics();

  // Phase B: closed loops with 1 client, then 4. With one client the
  // service is otherwise idle, so a metrics() delta around each request
  // is exactly that request's queue wait and run time.
  std::atomic<std::size_t> next_shape{0};
  double handoff_sum_ms = 0.0, shard_phase_s = 0.0, shard_run_s = 0.0;
  std::int64_t handoff_n = 0;
  const auto closed_loop = [&](int clients, double span_s) {
    std::atomic<std::int64_t> done{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        trace_thread("bench/client-" + std::to_string(c));
        while (secs(Clock::now() - t0) < span_s) {
          const std::size_t shape = next_shape.fetch_add(1) % rotation.size();
          ServiceMetrics before;
          if (clients == 1) before = svc->metrics();
          exec::TraceSpan span("bench/request", "bench");
          ServiceResult r = submit_shape(*svc, data, rotation[shape]).get();
          span.close();
          {
            std::lock_guard<std::mutex> lock(mu);
            ++l.attempted;
          }
          if (clients == 1 && r.has_value()) {
            const ServiceDelta d = service_delta(before, svc->metrics());
            const double phases_ms = r->timings.total() * 1e3;
            std::lock_guard<std::mutex> lock(mu);
            if (r->num_shards > 1) {
              shard_phase_s += phases_ms * 1e-3;
              shard_run_s += d.run_mean_ms * 1e-3;
            } else {
              handoff_sum_ms += d.run_mean_ms - phases_ms;
              ++handoff_n;
            }
          }
          if (record(shape, std::move(r))) done.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    return static_cast<double>(done.load()) / secs(Clock::now() - t0);
  };
  const double qps1 = closed_loop(1, closed1_s);
  const double qps4 = closed_loop(4, closed4_s);
  const double window_s = secs(Clock::now() - window0);
  const exec::KernelProfileSnapshot k1 = exec::kernel_profile();
  l.set("host.steal_pct", steal_pct(cpu0, host_cpu()), "%");
  const ServiceMetrics m1 = svc->metrics();
  const exec::graph::SchedulerTotals g1 = exec::graph::totals();
  const service::EnginePoolStats pool1 = svc->pool_stats();
  const double rss = peak_rss_mb();
  std::int64_t index_builds = 0;
  for (const auto& ds : svc->dataset_stats()) index_builds += ds.index_builds;
  const std::int64_t runners = exec::graph::shared_scheduler().runners();
  svc.reset();

  note("service_mixed: timed window done");
  check_unchecked();
  note("service_mixed: results checked");

  double points_per_req = 0.0;
  for (const Shape& sh : rotation) {
    const ServiceData& d = data[sh.dataset];
    points_per_req += static_cast<double>(d.p3 ? d.p3->size() : d.p2->size()) /
                      static_cast<double>(rotation.size());
  }
  l.set("setup_s", median(setups), "s");
  l.set("pts_per_s", qps4 * points_per_req, "points/s");
  l.set("ops_per_s", qps4, "1/s");
  // The end-to-end tail is the p90: the p99 of one ~20 s open loop moves
  // with the few host stalls that land in it, beyond any usable bound.
  std::vector<double> seg_p50, seg_p90;
  for (const auto& seg : segment_ms) {
    seg_p50.push_back(percentile(seg, 0.5));
    seg_p90.push_back(percentile(seg, 0.9));
  }
  l.set("p50_ms", median(seg_p50), "ms");
  l.set("tail_ms", median(seg_p90), "ms");
  l.set("service.req_p99_ms", percentile(lat_ms, 0.99), "ms");
  l.set("peak_rss_mb", rss, "MiB");

  emit_exec(l, k0, k1, window_s, fields.calls);
  fields.emit(l);
  const ServiceDelta open = service_delta(m0, m_open);
  const ServiceDelta all = service_delta(m0, m1);
  l.set("service.queue_wait_mean_ms", all.queue_mean_ms, "ms");
  l.set("service.queue_wait_max_ms", m1.queue_wait.max_ms, "ms");
  l.set("service.run_mean_ms", all.run_mean_ms, "ms");
  l.set("service.unattributed_ms",
        mean(client_ms) - open.queue_mean_ms - open.run_mean_ms, "ms");
  l.set("service.rejected", static_cast<double>(m1.rejected - m0.rejected),
        "count");
  const double hits = static_cast<double>(pool1.hits - pool0.hits);
  const double misses = static_cast<double>(pool1.misses - pool0.misses);
  l.set("service.pool_hit_ratio", ratio(hits, hits + misses), "ratio");
  l.set("service.index_builds", static_cast<double>(index_builds), "count");
  l.set("service.scaling_4v1", ratio(qps4, qps1), "ratio");
  l.set("service.open_requests", static_cast<double>(lat_ms.size()), "count");
  const double ops = static_cast<double>(std::max<std::int64_t>(fields.calls, 1));
  l.set("graph.graphs", static_cast<double>(g1.graphs - g0.graphs) / ops,
        "count/op");
  l.set("graph.nodes_run",
        static_cast<double>(g1.nodes_run - g0.nodes_run) / ops, "count/op");
  l.set("graph.overlap_pct", static_cast<double>(g1.overlap_pct), "%");
  l.set("graph.handoff_ms",
        ratio(handoff_sum_ms, static_cast<double>(handoff_n)), "ms");
  l.set("shard.req_p50_ms", percentile(shard_lat_ms, 0.5), "ms");
  l.set("shard.parallelism", ratio(shard_phase_s, shard_run_s), "ratio");
  l.set("loadgen.rate_qps", kOpenRate, "1/s");
  l.set("loadgen.late_p99_ms", percentile(late_ms, 0.99), "ms");
  l.set("loadgen.max_inflight", static_cast<double>(max_inflight), "count");
  l.set("loadgen.stamp_err_ms", percentile(stamp_err_ms, 0.99), "ms");
  l.set("check.full_checks", static_cast<double>(full_checks), "count");
  l.host["service_dispatchers"] = std::to_string(dispatchers);
  l.host["graph_runners"] = std::to_string(runners);
  l.host["peak_rss_window_only"] = hwm_reset ? "1" : "0";
}

// ---------------------------------------------------------------------------
// Workload: stream_window

void stream_window(std::uint64_t seed, double seconds, Ledger& l) {
  constexpr std::int64_t kWindow = 65536, kBatch = 1024, kPool = 262144;
  constexpr int kExpireEvery = 8, kQueryEvery = 2;
  // Checked queries: a fixed, seed-independent subset of the replay.
  constexpr int kCheckEvery = 8, kMaxChecks = 16;
  const Parameters params{0.042f, 5};

  // Arrivals: hacc-like particles of fixed structure in a seed-shuffled
  // order. Sequence number s carries arrivals[s % kPool], so a point
  // re-arrives only long after it expired.
  std::vector<Point3> arrivals = hacc(kPool, kStructureSeed + 21);
  std::shuffle(arrivals.begin(), arrivals.end(),
               std::mt19937_64(mix_seed(seed, 22)));
  const auto window_points = [&](std::int64_t begin, std::int64_t end) {
    std::vector<Point3> w;
    w.reserve(static_cast<std::size_t>(end - begin));
    for (std::int64_t s = begin; s < end; ++s) {
      w.push_back(arrivals[static_cast<std::size_t>(s % kPool)]);
    }
    return w;
  };
  auto initial = std::make_shared<const std::vector<Point3>>(
      window_points(0, kWindow));
  CheckSlot first_slot{"stream/initial", params,
                       baselines::sequential_dbscan(*initial, params), {}};
  note("stream_window: reference computed");
  const bool hwm_reset = reset_peak_rss();
  std::int64_t full_checks = 0;

  RequestSpec spec;
  spec.params = params;
  spec.method = Method::kFdbscan;
  ClusterService svc;

  // setup_s: open_session plus the first query.
  ClusterService::Session session;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    session.close();
    const auto t0 = Clock::now();
    auto opened = svc.open_session<3>("hacc-window", initial, spec);
    if (!opened.has_value()) {
      l.fail("open_session: " + opened.error().message);
      return;
    }
    session = std::move(*opened);
    ServiceResult q = session.query().get();
    setups.push_back(secs(Clock::now() - t0));
    ++l.attempted;
    if (!q.has_value()) {
      l.fail("first query: " + q.error().message);
      return;
    }
    if (!same_as_verified(first_slot, *q)) {
      ++full_checks;
      if (full_check(first_slot, *initial, *q, l)) remember(first_slot, *q);
    }
  }

  struct Snapshot {
    std::int64_t begin, end;
    Clustering c;
  };
  std::vector<Snapshot> snapshots;
  std::vector<double> append_ms, expire_ms, query_ms, query_index_ms,
      query_main_ms;
  ClusterFields fields;
  std::int64_t next_seq = kWindow, live_begin = 0, appended = 0, ops = 0;
  std::int64_t rebuilds0 = -1, rebuilds1 = 0, step = 0, queries = 0;
  const ServiceMetrics m0 = svc.metrics();
  const service::EnginePoolStats pool0 = svc.pool_stats();
  const exec::KernelProfileSnapshot k0 = exec::kernel_profile();
  const HostCpu cpu0 = host_cpu();
  const auto window0 = Clock::now();
  const auto timed = [&](auto&& op, std::vector<double>& into) {
    const auto t0 = Clock::now();
    auto r = op();
    into.push_back(secs(Clock::now() - t0) * 1e3);
    ++ops;
    ++l.attempted;
    return r;
  };
  const auto note_delta = [&](const SessionResult& r, const char* what) {
    if (!r.has_value()) {
      l.fail(std::string(what) + ": " + r.error().message);
      return;
    }
    if (rebuilds0 < 0) rebuilds0 = r->rebuilds;
    rebuilds1 = r->rebuilds;
  };
  while (secs(Clock::now() - window0) < seconds) {
    ++step;
    auto batch = std::make_shared<const std::vector<Point3>>(
        window_points(next_seq, next_seq + kBatch));
    SessionResult a = timed(
        [&] {
          exec::TraceSpan span("bench/append", "bench");
          return session.append<3>(batch).get();
        },
        append_ms);
    note_delta(a, "append");
    if (a.has_value()) {
      next_seq += kBatch;
      appended += kBatch;
    }
    if (step % kExpireEvery == 0) {
      SessionResult e = timed(
          [&] {
            exec::TraceSpan span("bench/expire", "bench");
            return session.expire(next_seq - kWindow).get();
          },
          expire_ms);
      note_delta(e, "expire");
      if (e.has_value()) live_begin = next_seq - kWindow;
    }
    if (step % kQueryEvery == 0) {
      ServiceResult q = timed(
          [&] {
            exec::TraceSpan span("bench/query", "bench");
            return session.query().get();
          },
          query_ms);
      ++queries;
      if (!q.has_value()) {
        l.fail("query: " + q.error().message);
        continue;
      }
      fields.add(*q, Method::kFdbscan);
      query_index_ms.push_back(q->timings.index_construction * 1e3);
      query_main_ms.push_back(q->timings.main * 1e3);
      if (queries % kCheckEvery == 1 &&
          static_cast<int>(snapshots.size()) < kMaxChecks) {
        snapshots.push_back({live_begin, next_seq, std::move(*q)});
      }
    }
  }
  const double window_s = secs(Clock::now() - window0);
  const exec::KernelProfileSnapshot k1 = exec::kernel_profile();
  l.set("host.steal_pct", steal_pct(cpu0, host_cpu()), "%");
  const ServiceMetrics m1 = svc.metrics();
  const double rss = peak_rss_mb();
  const service::EnginePoolStats pool1 = svc.pool_stats();
  std::int64_t index_builds = 0;
  for (const auto& ds : svc.dataset_stats()) index_builds += ds.index_builds;
  session.close();

  note("stream_window: timed window done");
  {
    std::vector<std::function<void()>> jobs;
    for (auto& snap : snapshots) {
      jobs.push_back([&] {
        const std::vector<Point3> pts = window_points(snap.begin, snap.end);
        CheckSlot slot{"stream/window[" + std::to_string(snap.begin) + "," +
                           std::to_string(snap.end) + ")",
                       params, baselines::sequential_dbscan(pts, params), {}};
        full_check(slot, pts, snap.c, l);
      });
    }
    full_checks += static_cast<std::int64_t>(jobs.size());
    run_parallel(std::move(jobs));
  }
  note("stream_window: results checked");

  l.set("setup_s", median(setups), "s");
  l.set("pts_per_s", static_cast<double>(appended) / window_s, "points/s");
  l.set("ops_per_s", static_cast<double>(ops) / window_s, "1/s");
  l.set("p50_ms", percentile(append_ms, 0.5), "ms");
  l.set("tail_ms", percentile(query_ms, 0.9), "ms");
  l.set("peak_rss_mb", rss, "MiB");

  emit_exec(l, k0, k1, window_s, ops);
  fields.emit(l);
  const ServiceDelta d = service_delta(m0, m1);
  l.set("service.queue_wait_mean_ms", d.queue_mean_ms, "ms");
  l.set("service.queue_wait_max_ms", m1.queue_wait.max_ms, "ms");
  l.set("service.run_mean_ms", d.run_mean_ms, "ms");
  l.set("service.rejected", static_cast<double>(m1.rejected - m0.rejected),
        "count");
  const double hits = static_cast<double>(pool1.hits - pool0.hits);
  const double misses = static_cast<double>(pool1.misses - pool0.misses);
  l.set("service.pool_hit_ratio", ratio(hits, hits + misses), "ratio");
  l.set("service.index_builds", static_cast<double>(index_builds), "count");
  l.set("stream.rebuilds",
        static_cast<double>(rebuilds0 < 0 ? 0 : rebuilds1 - rebuilds0),
        "count");
  l.set("stream.expire_p50_ms", percentile(expire_ms, 0.5), "ms");
  l.set("stream.query_index_ms", mean(query_index_ms), "ms");
  l.set("stream.query_main_ms", mean(query_main_ms), "ms");
  l.set("stream.query_p50_ms", percentile(query_ms, 0.5), "ms");
  l.set("stream.queries", static_cast<double>(query_ms.size()), "count");
  l.set("check.full_checks", static_cast<double>(full_checks), "count");
  l.host["service_dispatchers"] = std::to_string(svc.config().dispatchers);
  l.host["peak_rss_window_only"] = hwm_reset ? "1" : "0";
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: fdbscan_perf --workload NAME --seed N --seconds S "
               "--out FILE\n       fdbscan_perf --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::stoull(v);
    } else if (a == "--seconds") {
      seconds = std::stod(v);
    } else if (a == "--out") {
      out = v;
    } else {
      return usage();
    }
  }
  if (out.empty() || !(seconds > 0.0)) return usage();

  note("fdbscan_perf: " + workload);
  trace_thread("bench/main");
  Ledger ledger;
  ledger.host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  ledger.host["cpu_model"] = cpu_model();
  ledger.host["simd"] = simd::enabled() ? "1" : "0";
  ledger.host["exec_threads"] = std::to_string(exec::num_threads());
  ledger.host["seed"] = std::to_string(seed);
  ledger.host["traced"] = exec::trace_enabled() ? "1" : "0";

  if (workload == "batch_paper") {
    batch_paper(seed, seconds, ledger);
  } else if (workload == "service_mixed") {
    service_mixed(seed, seconds, ledger);
  } else if (workload == "stream_window") {
    stream_window(seed, seconds, ledger);
  } else {
    return usage();
  }
  ledger.host["graph_runners"] =
      std::to_string(exec::graph::shared_scheduler().runners());
  if (!ledger.host.count("service_dispatchers")) {
    ledger.host["service_dispatchers"] =
        std::to_string(service::ServiceConfig::from_env().dispatchers);
  }
  ledger.set("check.fail_frac",
             ratio(static_cast<double>(ledger.failed),
                   static_cast<double>(ledger.attempted)),
             "ratio");
  if (exec::trace_enabled()) {
    ledger.set("trace.dropped",
               static_cast<double>(exec::trace_dropped_count()), "count");
  }

  std::ofstream file(out);
  file << to_json(ledger);
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
