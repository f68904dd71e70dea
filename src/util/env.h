// Environment-variable helpers for benchmark/test scale knobs.

#ifndef FASTMATCH_UTIL_ENV_H_
#define FASTMATCH_UTIL_ENV_H_

#include <cstdint>

namespace fastmatch {

/// \brief Integer env var, or `fallback` when unset/unparseable.
int64_t GetEnvInt64(const char* name, int64_t fallback);

}  // namespace fastmatch

#endif  // FASTMATCH_UTIL_ENV_H_
