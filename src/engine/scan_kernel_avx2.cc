// AVX2 scan-kernel bodies (see scan_kernel.h for the selection model).
//
// This is the only translation unit compiled with -mavx2 (the
// FASTMATCH_SIMD CMake option); everything here runs strictly behind
// the runtime ScanKernelSimdSupported() gate in scan_kernel.cc. When
// the option is OFF the same file compiles to CHECK-fail stubs, so the
// link interface never changes.
//
// Kernel shape, per tile of up to kKeyTile rows:
//
//   1. key precompute — 8 rows per step are widened to u32 lanes
//      (vpmovzxbd / vpmovzxwd / plain load, per ValueType) and folded
//      into flat cell keys z * |VX| + x with vpmulld + vpaddd; the
//      generic multi-x case folds one mul+add per x column
//      (mixed-radix). Keys spill to a stack tile; tail rows (< 8) are
//      computed scalar, which is why odd tail lengths are a dimension
//      of the differential suite.
//
//   2. accumulate — small domains (cells <= kLocalCells) count into
//      four interleaved u16 sub-histograms (four independent
//      read-modify-write chains instead of one) and fold them into the
//      int64 matrix once per tile; large domains add directly. A u16
//      sub-histogram cell cannot overflow: it sees at most kKeyTile
//      (< 65536) rows per tile.
//
//   3. tally flush — per-candidate row counts accumulate in a stack
//      tally (derived from the sub-histogram fold on the small-domain
//      path) and land in row_totals once per call, not per row.

#include "engine/scan_kernel.h"

#include "util/logging.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace fastmatch {
namespace scan_kernel_detail {
namespace {

/// Rows of u32 keys staged on the stack per tile (16 KiB).
constexpr int kKeyTile = 4096;
/// Largest flat domain counted through the u16 sub-histograms (16 KiB).
constexpr int kLocalCells = 2048;
/// Interleaved sub-histogram count (independent RMW chains).
constexpr int kSubHists = 4;

inline __m256i WidenLoad8(const uint8_t* p) {
  return _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
inline __m256i WidenLoad8(const uint16_t* p) {
  return _mm256_cvtepu16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline __m256i WidenLoad8(const uint32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline __m256i WidenLoad8Dyn(const uint8_t* base, ValueType t, int64_t row) {
  switch (t) {
    case ValueType::kU8:
      return WidenLoad8(base + row);
    case ValueType::kU16:
      return WidenLoad8(reinterpret_cast<const uint16_t*>(base) + row);
    case ValueType::kU32:
      return WidenLoad8(reinterpret_cast<const uint32_t*>(base) + row);
  }
  return _mm256_setzero_si256();
}

/// Folds one tile of flat keys into `counts`, adding each candidate's
/// tile row count into `ztally`. `h` is the caller's sub-histogram
/// scratch; `z_of_row` recovers a row's candidate on the large-domain
/// path (called only when cells > kLocalCells).
template <typename ZOfRow>
void AccumulateTile(const uint32_t* keys, int n, int cands, int groups,
                    int64_t cells, int64_t* counts, int64_t* ztally,
                    uint16_t (*h)[kLocalCells], ZOfRow&& z_of_row) {
  if (cells <= kLocalCells) {
    // Clear only the used prefix of each sub-histogram: a full 16 KiB
    // memset would cost several bytes of traffic per row on small
    // domains, dwarfing the counting itself.
    for (int j = 0; j < kSubHists; ++j) {
      std::memset(h[j], 0, sizeof(uint16_t) * static_cast<size_t>(cells));
    }
    int r = 0;
    for (; r + kSubHists <= n; r += kSubHists) {
      ++h[0][keys[r]];
      ++h[1][keys[r + 1]];
      ++h[2][keys[r + 2]];
      ++h[3][keys[r + 3]];
    }
    for (; r < n; ++r) ++h[0][keys[r]];
    size_t k = 0;
    for (int c = 0; c < cands; ++c) {
      int64_t zt = 0;
      for (int g = 0; g < groups; ++g, ++k) {
        const int64_t t = static_cast<int64_t>(h[0][k]) + h[1][k] + h[2][k] +
                          h[3][k];
        counts[k] += t;
        zt += t;
      }
      ztally[c] += zt;
    }
  } else {
    for (int r = 0; r < n; ++r) {
      ++counts[keys[r]];
      ++ztally[z_of_row(r)];
    }
  }
}

/// Flushes the per-call candidate tally into the matrix row totals.
inline void FlushTally(const int64_t* ztally, int cands, int64_t* row_totals) {
  for (int c = 0; c < cands; ++c) row_totals[c] += ztally[c];
}

}  // namespace

bool CompiledAvx2() { return true; }

template <typename ZT, typename XT>
void ScanBlockAvx2(const ZT* z, const XT* x, int64_t rows, CountMatrix* out) {
  const int cands = out->num_candidates();
  const int groups = out->num_groups();
  const int64_t cells = static_cast<int64_t>(cands) * groups;
  int64_t* counts = out->MutableData();
  alignas(32) uint32_t keys[kKeyTile];
  alignas(32) uint16_t h[kSubHists][kLocalCells];
  int64_t ztally[kScanTallyMaxCandidates];
  std::fill(ztally, ztally + cands, 0);
  const __m256i vg = _mm256_set1_epi32(groups);
  for (int64_t done = 0; done < rows; done += kKeyTile) {
    const int n = static_cast<int>(std::min<int64_t>(kKeyTile, rows - done));
    const ZT* zt = z + done;
    const XT* xt = x + done;
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i zv = WidenLoad8(zt + i);
      const __m256i xv = WidenLoad8(xt + i);
      _mm256_store_si256(reinterpret_cast<__m256i*>(keys + i),
                         _mm256_add_epi32(_mm256_mullo_epi32(zv, vg), xv));
    }
    for (; i < n; ++i) {
      keys[i] = static_cast<uint32_t>(zt[i]) * static_cast<uint32_t>(groups) +
                static_cast<uint32_t>(xt[i]);
    }
    AccumulateTile(keys, n, cands, groups, cells, counts, ztally, h,
                   [zt](int r) { return static_cast<size_t>(zt[r]); });
  }
  FlushTally(ztally, cands, out->MutableRowTotals());
}

void ScanBlockGenericAvx2(const ScanColumn& z, const ScanColumn* xs, int num_x,
                          int64_t rows, CountMatrix* out) {
  const int cands = out->num_candidates();
  const int groups = out->num_groups();
  const int64_t cells = static_cast<int64_t>(cands) * groups;
  int64_t* counts = out->MutableData();
  alignas(32) uint32_t keys[kKeyTile];
  alignas(32) uint16_t h[kSubHists][kLocalCells];
  int64_t ztally[kScanTallyMaxCandidates];
  std::fill(ztally, ztally + cands, 0);
  for (int64_t done = 0; done < rows; done += kKeyTile) {
    const int n = static_cast<int>(std::min<int64_t>(kKeyTile, rows - done));
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      // Widened mixed-radix fold: key = ((z * card_0 + x_0) * card_1 +
      // x_1) ... — the same digit order as ScanBlockGenericScalar, so
      // keys (and therefore counts) agree bit-for-bit.
      __m256i k = WidenLoad8Dyn(z.data, z.type, done + i);
      for (int a = 0; a < num_x; ++a) {
        k = _mm256_add_epi32(
            _mm256_mullo_epi32(k, _mm256_set1_epi32(xs[a].card)),
            WidenLoad8Dyn(xs[a].data, xs[a].type, done + i));
      }
      _mm256_store_si256(reinterpret_cast<__m256i*>(keys + i), k);
    }
    for (; i < n; ++i) {
      uint32_t k = ScanLoadValue(z.data, done + i, z.type);
      for (int a = 0; a < num_x; ++a) {
        k = k * static_cast<uint32_t>(xs[a].card) +
            ScanLoadValue(xs[a].data, done + i, xs[a].type);
      }
      keys[i] = k;
    }
    AccumulateTile(keys, n, cands, groups, cells, counts, ztally, h,
                   [&z, done](int r) {
                     return static_cast<size_t>(
                         ScanLoadValue(z.data, done + r, z.type));
                   });
  }
  FlushTally(ztally, cands, out->MutableRowTotals());
}

#define FASTMATCH_SCAN_KERNEL_INSTANTIATE_AVX2(ZT, XT)               \
  template void ScanBlockAvx2<ZT, XT>(const ZT*, const XT*, int64_t, \
                                      CountMatrix*);
FASTMATCH_SCAN_KERNEL_FOR_EACH_TYPED(FASTMATCH_SCAN_KERNEL_INSTANTIATE_AVX2)
#undef FASTMATCH_SCAN_KERNEL_INSTANTIATE_AVX2

}  // namespace scan_kernel_detail
}  // namespace fastmatch

#else  // !(__AVX2__ && x86)

namespace fastmatch {
namespace scan_kernel_detail {

// Link-compatible stubs: unreachable because every dispatcher gates on
// ScanKernelSimdSupported(), which is false when CompiledAvx2() is.

bool CompiledAvx2() { return false; }

template <typename ZT, typename XT>
void ScanBlockAvx2(const ZT*, const XT*, int64_t, CountMatrix*) {
  FASTMATCH_CHECK(false);
}

void ScanBlockGenericAvx2(const ScanColumn&, const ScanColumn*, int, int64_t,
                          CountMatrix*) {
  FASTMATCH_CHECK(false);
}

#define FASTMATCH_SCAN_KERNEL_INSTANTIATE_AVX2(ZT, XT)               \
  template void ScanBlockAvx2<ZT, XT>(const ZT*, const XT*, int64_t, \
                                      CountMatrix*);
FASTMATCH_SCAN_KERNEL_FOR_EACH_TYPED(FASTMATCH_SCAN_KERNEL_INSTANTIATE_AVX2)
#undef FASTMATCH_SCAN_KERNEL_INSTANTIATE_AVX2

}  // namespace scan_kernel_detail
}  // namespace fastmatch

#endif  // __AVX2__
