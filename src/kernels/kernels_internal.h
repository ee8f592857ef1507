#pragma once

// Internal contract between the dispatcher (kernels.cpp) and the per-tier
// translation units. Each tier TU defines a table_<tier>() accessor; a tier
// that is not compiled in simply has no TU (kernels.cpp gates on the
// PUPPIES_KERNELS_HAVE_AVX2 macro from CMake).
//
// Bit-exactness rules for every implementation in these TUs:
//  - float kernels: one output column per vector lane, accumulating in the
//    scalar order (x, then y/v/u ascending), first term by multiply (not
//    0 + term), separate mul/add instructions — never FMA;
//  - the TUs are compiled with -ffp-contract=off so the compiler cannot
//    introduce fused multiply-adds either;
//  - integer kernels must be exactly the seed algorithms.

#include <cmath>

#include "puppies/jpeg/zigzag.h"
#include "puppies/kernels/kernels.h"

namespace puppies::kernels::detail {

const KernelTable& table_scalar();
#if defined(PUPPIES_KERNELS_HAVE_AVX2)
const KernelTable& table_avx2();
#endif

// Scalar reference bodies, shared so the SIMD tiers can delegate border /
// tail handling (and whole kernels where vectorization does not pay) to the
// exact same code path the scalar tier runs.
void fdct8x8_scalar(const float* in, float* out);
void idct8x8_scalar(const float* in, float* out);
void quantize_scalar(const float* raw, const QuantConstants& qc,
                     std::int16_t* out);
std::uint64_t nonzero_mask_scalar(const std::int16_t* block_zigzag);
std::uint64_t quantize_scan_scalar(const float* raw, const QuantConstants& qc,
                                   std::int16_t* out);
void dequantize_scalar(const std::int16_t* in, const QuantConstants& qc,
                       float* out);
void rgb_to_ycc_px(const std::uint8_t* r, const std::uint8_t* g,
                   const std::uint8_t* b, int first, int n, float* y,
                   float* cb, float* cr);
void ycc_to_rgb_px(const float* y, const float* cb, const float* cr,
                   int first, int n, std::uint8_t* r, std::uint8_t* g,
                   std::uint8_t* b);
void downsample2x_px(const float* row0, const float* row1, int in_w,
                     int first, int out_w, float* out);
void upsample_px(const float* row0, const float* row1, int in_w, float sx,
                 float wy, int first, int n, float* out);
/// upsample_px without the clamps, for [first, n) inside the interior run.
void upsample_interior_px(const float* row0, const float* row1, float sx,
                          float wy, int first, int n, float* out);
void upsample_row_scalar(const float* row0, const float* row1, int in_w,
                         float sx, float wy, int out_w, float* out);

/// lround with clamp for one already-divided value; kept inline so scalar
/// and tail paths share the exact sequence.
inline std::int16_t quantize_one(float raw, double recip, float lo,
                                 float hi) {
  const float r = static_cast<float>(static_cast<double>(raw) * recip);
  long q = std::lround(r);
  const long llo = static_cast<long>(lo), lhi = static_cast<long>(hi);
  if (q < llo) q = llo;
  if (q > lhi) q = lhi;
  return static_cast<std::int16_t>(q);
}

}  // namespace puppies::kernels::detail
