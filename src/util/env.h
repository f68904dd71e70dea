// Environment-variable helpers for benchmark/test scale knobs.

#ifndef FASTMATCH_UTIL_ENV_H_
#define FASTMATCH_UTIL_ENV_H_

#include <cstdint>

namespace fastmatch {

/// \brief Integer env var, or `fallback` when unset/unparseable.
int64_t GetEnvInt64(const char* name, int64_t fallback);

/// \brief Live threads of this process (Linux: /proc/self/task entries),
/// or -1 where that interface is unavailable. Used by the lifecycle
/// stress test to assert the scheduler's thread bound.
int CountProcessThreads();

}  // namespace fastmatch

#endif  // FASTMATCH_UTIL_ENV_H_
