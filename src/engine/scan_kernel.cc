// Scalar scan kernels and the kernel dispatchers.
//
// This translation unit is compiled WITHOUT -mavx2 on purpose: the
// runtime CPU check below is the only gate in front of the AVX2 bodies
// in scan_kernel_avx2.cc, so no AVX2 instruction may be emitted here.

#include "engine/scan_kernel.h"

namespace fastmatch {
namespace {

/// Shapes the AVX2 kernels accept: the per-candidate row tally must fit
/// its fixed stack buffer and every flat cell key z * |VX| + x must fit a
/// u32 lane.
bool ShapeSimdable(const CountMatrix& out) {
  const int64_t cells =
      static_cast<int64_t>(out.num_candidates()) * out.num_groups();
  return out.num_candidates() > 0 &&
         out.num_candidates() <= kScanTallyMaxCandidates &&
         cells <= static_cast<int64_t>(UINT32_MAX);
}

}  // namespace

bool ScanKernelSimdCompiled() { return scan_kernel_detail::CompiledAvx2(); }

bool ScanKernelSimdSupported() {
  static const bool supported = [] {
    if (!ScanKernelSimdCompiled()) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return supported;
}

const char* ScanKernelName() {
  return ScanKernelSimdSupported() ? "avx2" : "scalar";
}

template <typename ZT, typename XT>
void ScanBlockScalar(const ZT* z, const XT* x, int64_t rows, CountMatrix* out) {
  const int groups = out->num_groups();
  int64_t* counts = out->MutableData();
  int64_t* row_totals = out->MutableRowTotals();
  for (int64_t r = 0; r < rows; ++r) {
    const size_t c = static_cast<size_t>(z[r]);
    ++counts[c * static_cast<size_t>(groups) + x[r]];
    ++row_totals[c];
  }
}

template <typename ZT, typename XT>
bool ScanBlockSimd(const ZT* z, const XT* x, int64_t rows, CountMatrix* out) {
  if (!ScanKernelSimdSupported() || !ShapeSimdable(*out)) return false;
  scan_kernel_detail::ScanBlockAvx2<ZT, XT>(z, x, rows, out);
  return true;
}

template <typename ZT, typename XT>
bool ScanBlock(const ZT* z, const XT* x, int64_t rows, CountMatrix* out) {
  if (ScanBlockSimd(z, x, rows, out)) return true;
  ScanBlockScalar(z, x, rows, out);
  return false;
}

void ScanBlockGenericScalar(const ScanColumn& z, const ScanColumn* xs,
                            int num_x, int64_t rows, CountMatrix* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const uint32_t c = ScanLoadValue(z.data, r, z.type);
    uint32_t g = 0;
    for (int a = 0; a < num_x; ++a) {
      g = g * static_cast<uint32_t>(xs[a].card) +
          ScanLoadValue(xs[a].data, r, xs[a].type);
    }
    out->Add(static_cast<int>(c), static_cast<int>(g));
  }
}

bool ScanBlockGenericSimd(const ScanColumn& z, const ScanColumn* xs, int num_x,
                          int64_t rows, CountMatrix* out) {
  // Each x column is one widened mul+add per 8 rows; past a handful of
  // columns (possible only with degenerate cardinality-1 attributes,
  // since |VX| is bounded by IoManager's 2^24 composite cap) the scalar
  // loop is no worse.
  constexpr int kMaxGenericX = 24;
  if (!ScanKernelSimdSupported() || !ShapeSimdable(*out) ||
      num_x > kMaxGenericX) {
    return false;
  }
  scan_kernel_detail::ScanBlockGenericAvx2(z, xs, num_x, rows, out);
  return true;
}

bool ScanBlockGeneric(const ScanColumn& z, const ScanColumn* xs, int num_x,
                      int64_t rows, CountMatrix* out) {
  if (ScanBlockGenericSimd(z, xs, num_x, rows, out)) return true;
  ScanBlockGenericScalar(z, xs, num_x, rows, out);
  return false;
}

#define FASTMATCH_SCAN_KERNEL_INSTANTIATE(ZT, XT)                      \
  template void ScanBlockScalar<ZT, XT>(const ZT*, const XT*, int64_t, \
                                        CountMatrix*);                 \
  template bool ScanBlockSimd<ZT, XT>(const ZT*, const XT*, int64_t,   \
                                      CountMatrix*);                   \
  template bool ScanBlock<ZT, XT>(const ZT*, const XT*, int64_t,       \
                                  CountMatrix*);
FASTMATCH_SCAN_KERNEL_FOR_EACH_TYPED(FASTMATCH_SCAN_KERNEL_INSTANTIATE)
#undef FASTMATCH_SCAN_KERNEL_INSTANTIATE

}  // namespace fastmatch
