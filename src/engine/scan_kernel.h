// Block-scan count kernels: the per-row hot loop behind IoManager.
//
// A block scan folds (candidate z, group x) pairs into a CountMatrix.
// Two interchangeable kernels implement it:
//
//  * scalar  — the reference: one CountMatrix::Add-equivalent per row.
//  * avx2    — key precompute + tiled accumulate: 8 rows per step are
//    widened to u32 lanes (vpmovzxbd / vpmovzxwd / plain load per
//    ValueType), combined into flat cell keys z * |VX| + x with
//    vpmulld + vpaddd, and spilled to a stack tile; the tile is then
//    folded with interleaved sub-histograms (small domains) or direct
//    64-bit adds (large domains). Per-candidate row totals come from a
//    per-call stack tally flushed once at the end, not from a per-row
//    read-modify-write.
//
// Counts are commutative integer sums over the same rows, so both
// kernels produce bit-for-bit identical CountMatrix contents — the
// differential suite in tests/test_scan_kernel.cc asserts exactly that
// over every ValueType pair and tail length.
//
// Selection is layered:
//   compile time  — the FASTMATCH_SIMD CMake option (default ON)
//                   compiles src/engine/scan_kernel_avx2.cc with
//                   -mavx2; OFF leaves link-compatible stubs, so the
//                   scalar kernel is the only path (CI's force-scalar
//                   leg builds this way).
//   run time      — the AVX2 body runs only when the host CPU reports
//                   AVX2 (checked once per process).
//   per call      — shapes the AVX2 kernel cannot hold on the stack
//                   (|VZ| > kScanTallyMaxCandidates) or whose flat key
//                   space overflows u32 fall back to scalar.
//
// The dispatchers live in this (non-AVX2) translation unit, so no AVX2
// instruction is reachable before the runtime check passes.

#ifndef FASTMATCH_ENGINE_SCAN_KERNEL_H_
#define FASTMATCH_ENGINE_SCAN_KERNEL_H_

#include <cstdint>
#include <cstring>

#include "core/histogram.h"
#include "storage/types.h"

namespace fastmatch {

/// Largest |VZ| for which the AVX2 kernels keep the per-candidate row
/// tally on the stack. Larger domains take the scalar kernel.
inline constexpr int kScanTallyMaxCandidates = 1024;

/// \brief True when scan_kernel_avx2.cc was compiled with AVX2 bodies
/// (the FASTMATCH_SIMD build option was ON and the compiler supports
/// -mavx2).
bool ScanKernelSimdCompiled();

/// \brief SimdCompiled and the host CPU reports AVX2 (evaluated once
/// per process). This is what the auto dispatchers consult.
bool ScanKernelSimdSupported();

/// \brief Human-readable name of the kernel the auto dispatchers would
/// pick: "avx2" or "scalar".
const char* ScanKernelName();

/// \brief One x column of a generic (multi-x) scan: a chunk base
/// pointer, its physical width, and the attribute's cardinality (the
/// mixed-radix digit base).
struct ScanColumn {
  const uint8_t* data = nullptr;
  ValueType type = ValueType::kU8;
  int card = 0;
};

// Kernel contract (all variants): fold `rows` rows into `out` — cell
// (z[r], x[r]) and row total z[r] both advance by one per row. Values
// must lie inside out's domain, exactly as CountMatrix::Add requires.

/// \brief Reference kernel for one typed (z, x) block slice.
template <typename ZT, typename XT>
void ScanBlockScalar(const ZT* z, const XT* x, int64_t rows, CountMatrix* out);

/// \brief AVX2 kernel for one typed (z, x) block slice. Returns false —
/// writing nothing — when the AVX2 path is physically unavailable (not
/// compiled, CPU without AVX2) or the shape is unsuitable (|VZ| >
/// kScanTallyMaxCandidates, flat key space wider than u32).
template <typename ZT, typename XT>
bool ScanBlockSimd(const ZT* z, const XT* x, int64_t rows, CountMatrix* out);

/// \brief Auto dispatcher: the AVX2 kernel when supported and suitable,
/// else scalar. Returns true iff the AVX2 kernel ran.
template <typename ZT, typename XT>
bool ScanBlock(const ZT* z, const XT* x, int64_t rows, CountMatrix* out);

/// \brief Reference kernel for the multi-x generic case: the composite
/// group is the mixed-radix fold g = (...(x_0) * card_1 + x_1...) the
/// paper's Appendix A.1.3 composite uses.
void ScanBlockGenericScalar(const ScanColumn& z, const ScanColumn* xs,
                            int num_x, int64_t rows, CountMatrix* out);

/// \brief AVX2 kernel for the multi-x generic case: the mixed-radix
/// fold runs widened (one vpmulld + vpaddd per x column per 8 rows)
/// instead of through a per-row per-column switch. Same availability /
/// suitability contract as ScanBlockSimd.
bool ScanBlockGenericSimd(const ScanColumn& z, const ScanColumn* xs, int num_x,
                          int64_t rows, CountMatrix* out);

/// \brief Auto dispatcher for the generic case.
bool ScanBlockGeneric(const ScanColumn& z, const ScanColumn* xs, int num_x,
                      int64_t rows, CountMatrix* out);

/// \brief One dictionary code from a type-erased chunk (the scalar
/// building block of the generic kernels' per-row loads and tails).
inline uint32_t ScanLoadValue(const uint8_t* base, int64_t row, ValueType t) {
  switch (t) {
    case ValueType::kU8:
      return base[row];
    case ValueType::kU16: {
      uint16_t v;
      std::memcpy(&v, base + row * 2, 2);
      return v;
    }
    case ValueType::kU32: {
      uint32_t v;
      std::memcpy(&v, base + row * 4, 4);
      return v;
    }
  }
  return 0;
}

// Internal seam between the dispatchers (scan_kernel.cc, compiled
// without -mavx2) and the AVX2 bodies (scan_kernel_avx2.cc, compiled
// with -mavx2 when FASTMATCH_SIMD is ON — link-compatible CHECK-fail
// stubs otherwise). Callers must gate on ScanKernelSimdSupported() and
// the shape checks; use the public entry points above instead.
namespace scan_kernel_detail {

/// True when this build carries real AVX2 bodies.
bool CompiledAvx2();

template <typename ZT, typename XT>
void ScanBlockAvx2(const ZT* z, const XT* x, int64_t rows, CountMatrix* out);

void ScanBlockGenericAvx2(const ScanColumn& z, const ScanColumn* xs, int num_x,
                          int64_t rows, CountMatrix* out);

}  // namespace scan_kernel_detail

// The nine typed instantiations live in scan_kernel.cc / _avx2.cc.
#define FASTMATCH_SCAN_KERNEL_FOR_EACH_TYPED(M) \
  M(uint8_t, uint8_t)                           \
  M(uint8_t, uint16_t)                          \
  M(uint8_t, uint32_t)                          \
  M(uint16_t, uint8_t)                          \
  M(uint16_t, uint16_t)                         \
  M(uint16_t, uint32_t)                         \
  M(uint32_t, uint8_t)                          \
  M(uint32_t, uint16_t)                         \
  M(uint32_t, uint32_t)

#define FASTMATCH_SCAN_KERNEL_EXTERN(ZT, XT)                                  \
  extern template void ScanBlockScalar<ZT, XT>(const ZT*, const XT*, int64_t, \
                                               CountMatrix*);                 \
  extern template bool ScanBlockSimd<ZT, XT>(const ZT*, const XT*, int64_t,   \
                                             CountMatrix*);                   \
  extern template bool ScanBlock<ZT, XT>(const ZT*, const XT*, int64_t,       \
                                         CountMatrix*);
FASTMATCH_SCAN_KERNEL_FOR_EACH_TYPED(FASTMATCH_SCAN_KERNEL_EXTERN)
#undef FASTMATCH_SCAN_KERNEL_EXTERN

}  // namespace fastmatch

#endif  // FASTMATCH_ENGINE_SCAN_KERNEL_H_
