// Request-ID correlation (DESIGN.md §13).
//
// Every ClusterService::submit() mints a process-unique RequestId; the
// dispatcher installs a RequestScope around the request's whole
// lifetime (queue-wait span, engine lease, run, graph node spans), which
// publishes the id into the exec trace context so every span recorded
// on that thread — and every structured log line it emits — carries
// the id. A Chrome trace and a JSONL log can then be joined per
// request (`trace_summary.py --per-request`).
//
// Ids are minted from a single process-wide atomic starting at 1; 0
// means "no request context" and is never minted.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/trace.h"

namespace fdbscan::obs {

using RequestId = std::uint64_t;

namespace request_detail {
inline std::atomic<RequestId> g_next_request_id{1};
}  // namespace request_detail

/// Mint a fresh process-unique id (monotone, never 0).
[[nodiscard]] inline RequestId mint_request_id() noexcept {
  return request_detail::g_next_request_id.fetch_add(
      1, std::memory_order_relaxed);
}

/// The id installed on the calling thread, or 0 outside any request.
[[nodiscard]] inline RequestId current_request_id() noexcept {
  return exec::trace_request_id();
}

/// RAII: installs `id` as the calling thread's request context and
/// restores the previous id on destruction (nesting-safe, so a request
/// that drives another request keeps the inner attribution).
class RequestScope {
 public:
  explicit RequestScope(RequestId id) noexcept
      : previous_(exec::trace_request_id()) {
    exec::trace_set_request_id(id);
  }
  ~RequestScope() { exec::trace_set_request_id(previous_); }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  RequestId previous_;
};

}  // namespace fdbscan::obs
