#include "obs/env.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>

#include "obs/log.h"

namespace fdbscan::obs {

std::optional<int> parse_positive_env_int(const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (errno == ERANGE || end == value || *end != '\0') return std::nullopt;
  if (v <= 0 || v > std::numeric_limits<int>::max()) return std::nullopt;
  return static_cast<int>(v);
}

namespace {

/// The value of env var `name` under `parse`, or `fallback`. A set but
/// unusable knob silently becoming the default is how typos ship to
/// production: warn once per variable.
template <class T, class Parse>
T env_value(const char* name, T fallback, const char* event,
            const char* expected, Parse parse) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  if (const std::optional<T> v = parse(env)) return *v;
  static std::mutex warned_mutex;
  static std::set<std::string> warned;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(warned_mutex);
    first = warned.insert(name).second;
  }
  if (first) {
    log_event(LogLevel::kWarn, event,
              {{"var", name},
               {"value", env},
               {"expected", expected},
               {"fallback", fallback}});
  }
  return fallback;
}

}  // namespace

std::optional<bool> parse_env_bool(const char* value) {
  if (value == nullptr) return std::nullopt;
  if (std::strcmp(value, "1") == 0) return true;
  if (std::strcmp(value, "0") == 0) return false;
  return std::nullopt;
}

int env_positive_int(const char* name, int fallback, const char* event) {
  return env_value(name, fallback, event, "positive integer",
                   parse_positive_env_int);
}

bool env_bool(const char* name, bool fallback, const char* event) {
  return env_value(name, fallback, event, "0 or 1", parse_env_bool);
}

}  // namespace fdbscan::obs
