#include "obs/env.h"

#include <cerrno>
#include <cstdlib>
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

int env_positive_int(const char* name, int fallback, const char* event) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  if (const auto v = parse_positive_env_int(env)) return *v;
  // A set-but-unusable knob silently becoming the default is how typos
  // ship to production; warn once per variable.
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
               {"expected", "positive integer"},
               {"fallback", fallback}});
  }
  return fallback;
}

}  // namespace fdbscan::obs
