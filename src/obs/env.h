// Strict parsing of environment knobs, shared by every layer that reads
// one: positive integers (FDBSCAN_NUM_THREADS, the FDBSCAN_SERVICE_*
// knobs, FDBSCAN_SESSION_REBUILD_PCT, FDBSCAN_TRACE_BUFFER) and booleans
// (FDBSCAN_SIMD, FDBSCAN_SERVICE_GRAPH).
#pragma once

#include <optional>

namespace fdbscan::obs {

/// Strict parse of a positive-integer knob value: the whole string must
/// be a base-10 integer that fits in int and is > 0. Anything else —
/// null, empty, trailing junk, zero, negative, overflow — is rejected
/// (std::nullopt).
[[nodiscard]] std::optional<int> parse_positive_env_int(const char* value);

/// Strict parse of a boolean knob value: exactly "1" (true) or "0"
/// (false). Anything else — null, empty, "yes", "true", "2", " 1" — is
/// rejected (std::nullopt).
[[nodiscard]] std::optional<bool> parse_env_bool(const char* value);

/// The value of env var `name` under parse_positive_env_int, or
/// `fallback` when it is unset. A set but unusable value also yields
/// `fallback` and emits one warning per variable, named `event`
/// (e.g. "service.env_ignored"), on the structured log (obs/log.h; the
/// default sink keeps warnings on stderr), instead of silently falling
/// back.
[[nodiscard]] int env_positive_int(const char* name, int fallback,
                                   const char* event);

/// env_positive_int for a boolean knob, under parse_env_bool.
[[nodiscard]] bool env_bool(const char* name, bool fallback,
                            const char* event);

}  // namespace fdbscan::obs
