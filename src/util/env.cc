#include "util/env.h"

#include <cstdlib>
#include <filesystem>

namespace fastmatch {

int64_t GetEnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  long long v = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<int64_t>(v);
}

int CountProcessThreads() {
  int n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return ec ? -1 : n;
}

}  // namespace fastmatch
