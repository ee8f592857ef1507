// Scalar kernel tier: the reference implementations every SIMD tier must
// match bit-for-bit. The DCT loops keep the seed accumulation order
// (innermost tap index ascending, left-associated sums) but start from the
// first product instead of 0.f so the signed-zero pattern matches the
// lane-per-output-column SIMD formulation exactly.
#include "kernels_internal.h"

namespace puppies::kernels::detail {

void fdct8x8_scalar(const float* in, float* out) {
  const float* c = cos_table();  // c[u * 8 + x]
  float tmp[64];
  // Rows first.
  for (int y = 0; y < 8; ++y)
    for (int u = 0; u < 8; ++u) {
      float acc = in[y * 8] * c[u * 8];
      for (int x = 1; x < 8; ++x) acc += in[y * 8 + x] * c[u * 8 + x];
      tmp[y * 8 + u] = acc;
    }
  // Then columns.
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v) {
      float acc = tmp[u] * c[v * 8];
      for (int y = 1; y < 8; ++y) acc += tmp[y * 8 + u] * c[v * 8 + y];
      out[v * 8 + u] = acc;
    }
}

void idct8x8_scalar(const float* in, float* out) {
  const float* c = cos_table();
  float tmp[64];
  for (int u = 0; u < 8; ++u)
    for (int y = 0; y < 8; ++y) {
      float acc = in[u] * c[y];
      for (int v = 1; v < 8; ++v) acc += in[v * 8 + u] * c[v * 8 + y];
      tmp[y * 8 + u] = acc;
    }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      float acc = tmp[y * 8] * c[x];
      for (int u = 1; u < 8; ++u) acc += tmp[y * 8 + u] * c[u * 8 + x];
      out[y * 8 + x] = acc;
    }
}

void quantize_scalar(const float* raw, const QuantConstants& qc,
                     std::int16_t* out) {
  std::int16_t nat[64];
  for (int n = 0; n < 64; ++n)
    nat[n] = quantize_one(raw[n], qc.recip[n], qc.lo[n], qc.hi[n]);
  for (int z = 0; z < 64; ++z) out[z] = nat[jpeg::kZigzagToNatural[z]];
}

std::uint64_t nonzero_mask_scalar(const std::int16_t* block_zigzag) {
  std::uint64_t mask = 0;
  for (int z = 0; z < 64; ++z)
    mask |= static_cast<std::uint64_t>(block_zigzag[z] != 0) << z;
  return mask;
}

std::uint64_t quantize_scan_scalar(const float* raw, const QuantConstants& qc,
                                   std::int16_t* out) {
  std::int16_t nat[64];
  for (int n = 0; n < 64; ++n)
    nat[n] = quantize_one(raw[n], qc.recip[n], qc.lo[n], qc.hi[n]);
  // Zig-zag permute and nonzero scan in one pass.
  std::uint64_t mask = 0;
  for (int z = 0; z < 64; ++z) {
    out[z] = nat[jpeg::kZigzagToNatural[z]];
    mask |= static_cast<std::uint64_t>(out[z] != 0) << z;
  }
  return mask;
}

void dequantize_scalar(const std::int16_t* in, const QuantConstants& qc,
                       float* out) {
  for (int z = 0; z < 64; ++z) {
    const int n = jpeg::kZigzagToNatural[z];
    out[n] = static_cast<float>(in[z]) * qc.step[n];
  }
}

void rgb_to_ycc_px(const std::uint8_t* r, const std::uint8_t* g,
                   const std::uint8_t* b, int first, int n, float* y,
                   float* cb, float* cr) {
  for (int x = first; x < n; ++x) {
    const float fr = r[x], fg = g[x], fb = b[x];
    y[x] = 0.299f * fr + 0.587f * fg + 0.114f * fb;
    cb[x] = -0.168736f * fr - 0.331264f * fg + 0.5f * fb + 128.f;
    cr[x] = 0.5f * fr - 0.418688f * fg - 0.081312f * fb + 128.f;
  }
}

namespace {

std::uint8_t clamp_round_u8(float v) {
  if (v <= 0.f) return 0;
  if (v >= 255.f) return 255;
  return static_cast<std::uint8_t>(std::lround(v));
}

}  // namespace

void ycc_to_rgb_px(const float* y, const float* cb, const float* cr,
                   int first, int n, std::uint8_t* r, std::uint8_t* g,
                   std::uint8_t* b) {
  for (int x = first; x < n; ++x) {
    const float Y = y[x];
    const float fcb = cb[x] - 128.f;
    const float fcr = cr[x] - 128.f;
    r[x] = clamp_round_u8(Y + 1.402f * fcr);
    g[x] = clamp_round_u8(Y - 0.344136f * fcb - 0.714136f * fcr);
    b[x] = clamp_round_u8(Y + 1.772f * fcb);
  }
}

void downsample2x_px(const float* row0, const float* row1, int in_w,
                     int first, int out_w, float* out) {
  for (int x = first; x < out_w; ++x) {
    const int x0 = 2 * x;
    const int x1 = x0 + 1 < in_w ? x0 + 1 : in_w - 1;
    out[x] = 0.25f * (row0[x0] + row0[x1] + row1[x0] + row1[x1]);
  }
}

void upsample_px(const float* row0, const float* row1, int in_w, float sx,
                 float wy, int first, int n, float* out) {
  for (int x = first; x < n; ++x) {
    const float fx = (x + 0.5f) * sx - 0.5f;
    const int x0 = static_cast<int>(std::floor(fx));
    const float wx = fx - x0;
    const int xa = x0 < 0 ? 0 : (x0 >= in_w ? in_w - 1 : x0);
    const int xb = x0 + 1 < 0 ? 0 : (x0 + 1 >= in_w ? in_w - 1 : x0 + 1);
    out[x] = row0[xa] * (1 - wx) * (1 - wy) + row0[xb] * wx * (1 - wy) +
             row1[xa] * (1 - wx) * wy + row1[xb] * wx * wy;
  }
}

void upsample_interior_px(const float* row0, const float* row1, float sx,
                          float wy, int first, int n, float* out) {
  for (int x = first; x < n; ++x) {
    const float fx = (x + 0.5f) * sx - 0.5f;
    const int x0 = static_cast<int>(std::floor(fx));
    const float wx = fx - x0;
    out[x] = row0[x0] * (1 - wx) * (1 - wy) + row0[x0 + 1] * wx * (1 - wy) +
             row1[x0] * (1 - wx) * wy + row1[x0 + 1] * wx * wy;
  }
}

void upsample_row_scalar(const float* row0, const float* row1, int in_w,
                         float sx, float wy, int out_w, float* out) {
  // Split the one-pixel-deep clamped borders from the unchecked interior:
  // fx is monotonic in x, so the interior (x0 >= 0 and x0 + 1 <= in_w - 1)
  // is one contiguous run found by scanning inward from both ends.
  int lo = 0;
  while (lo < out_w &&
         static_cast<int>(std::floor((lo + 0.5f) * sx - 0.5f)) < 0)
    ++lo;
  int hi = out_w;
  while (hi > lo &&
         static_cast<int>(std::floor((hi - 1 + 0.5f) * sx - 0.5f)) + 1 >
             in_w - 1)
    --hi;
  upsample_px(row0, row1, in_w, sx, wy, 0, lo, out);
  upsample_interior_px(row0, row1, sx, wy, lo, hi, out);
  upsample_px(row0, row1, in_w, sx, wy, hi, out_w, out);
}

namespace {

void rgb_to_ycc_row_scalar(const std::uint8_t* r, const std::uint8_t* g,
                           const std::uint8_t* b, int n, float* y, float* cb,
                           float* cr) {
  rgb_to_ycc_px(r, g, b, 0, n, y, cb, cr);
}

void ycc_to_rgb_row_scalar(const float* y, const float* cb, const float* cr,
                           int n, std::uint8_t* r, std::uint8_t* g,
                           std::uint8_t* b) {
  ycc_to_rgb_px(y, cb, cr, 0, n, r, g, b);
}

void downsample2x_row_scalar(const float* row0, const float* row1, int in_w,
                             int out_w, float* out) {
  // Interior pairs (2x + 1 < in_w) index directly; only the odd-width tail
  // column needs the clamp.
  const int interior = in_w / 2;
  for (int x = 0; x < interior && x < out_w; ++x) {
    const int x0 = 2 * x;
    out[x] = 0.25f * (row0[x0] + row0[x0 + 1] + row1[x0] + row1[x0 + 1]);
  }
  downsample2x_px(row0, row1, in_w, interior < out_w ? interior : out_w,
                  out_w, out);
}

void dequantize_idct_scalar(const std::int16_t* in, const QuantConstants& qc,
                            float* out) {
  float raw[64];
  dequantize_scalar(in, qc, raw);
  idct8x8_scalar(raw, out);
}

}  // namespace

const KernelTable& table_scalar() {
  static const KernelTable t = {
      fdct8x8_scalar,         idct8x8_scalar,
      quantize_scalar,        dequantize_scalar,
      rgb_to_ycc_row_scalar,  ycc_to_rgb_row_scalar,
      downsample2x_row_scalar, upsample_row_scalar,
      nonzero_mask_scalar,    quantize_scan_scalar,
      dequantize_idct_scalar,
  };
  return t;
}

}  // namespace puppies::kernels::detail
