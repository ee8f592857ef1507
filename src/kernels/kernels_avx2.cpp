// AVX2 kernel tier: one full 8-column block row per 256-bit lane, so the
// DCT passes are a straight-line broadcast/mul/add sequence per row. The
// intrinsics use separate mul/add (never FMA) and this TU is built with
// -ffp-contract=off, so every lane reproduces the scalar float sequence
// bit-for-bit.
#include "kernels_internal.h"

#if defined(PUPPIES_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <array>
#include <cstring>

namespace puppies::kernels::detail {

namespace {

inline __m256 mul(__m256 a, __m256 b) { return _mm256_mul_ps(a, b); }
inline __m256 add(__m256 a, __m256 b) { return _mm256_add_ps(a, b); }
inline __m256 bcast(float v) { return _mm256_set1_ps(v); }

void fdct8x8_avx2(const float* in, float* out) {
  const float* ct = cos_table_t();  // ct[x * 8 + u]
  const float* c = cos_table();     // c[u * 8 + x]
  float tmp[64];
  // Rows: tmp[y][u] = sum_x in[y][x] * c[u][x], all 8 u in one vector.
  for (int y = 0; y < 8; ++y) {
    __m256 acc = mul(bcast(in[y * 8]), _mm256_loadu_ps(ct));
    for (int x = 1; x < 8; ++x)
      acc = add(acc, mul(bcast(in[y * 8 + x]), _mm256_loadu_ps(ct + x * 8)));
    _mm256_storeu_ps(tmp + y * 8, acc);
  }
  // Columns: out[v][u] = sum_y tmp[y][u] * c[v][y].
  for (int v = 0; v < 8; ++v) {
    __m256 acc = mul(_mm256_loadu_ps(tmp), bcast(c[v * 8]));
    for (int y = 1; y < 8; ++y)
      acc = add(acc, mul(_mm256_loadu_ps(tmp + y * 8), bcast(c[v * 8 + y])));
    _mm256_storeu_ps(out + v * 8, acc);
  }
}

void idct8x8_avx2(const float* in, float* out) {
  const float* c = cos_table();
  float tmp[64];
  // tmp[y][u] = sum_v in[v][u] * c[v][y], lanes over u.
  for (int y = 0; y < 8; ++y) {
    __m256 acc = mul(_mm256_loadu_ps(in), bcast(c[y]));
    for (int v = 1; v < 8; ++v)
      acc = add(acc, mul(_mm256_loadu_ps(in + v * 8), bcast(c[v * 8 + y])));
    _mm256_storeu_ps(tmp + y * 8, acc);
  }
  // out[y][x] = sum_u tmp[y][u] * c[u][x], lanes over x.
  for (int y = 0; y < 8; ++y) {
    __m256 acc = mul(bcast(tmp[y * 8]), _mm256_loadu_ps(c));
    for (int u = 1; u < 8; ++u)
      acc = add(acc, mul(bcast(tmp[y * 8 + u]), _mm256_loadu_ps(c + u * 8)));
    _mm256_storeu_ps(out + y * 8, acc);
  }
}

/// round-half-away-from-zero of pre-clamped lanes (|v| small enough that
/// adding the signed 0.5 is exact, so truncation equals std::lround).
inline __m256i round_half_away(__m256 v) {
  const __m256 sign_mask = _mm256_set1_ps(-0.f);
  const __m256 half =
      _mm256_or_ps(_mm256_and_ps(v, sign_mask), _mm256_set1_ps(0.5f));
  return _mm256_cvttps_epi32(_mm256_add_ps(v, half));
}

/// Divide/clamp/round core of quantize: natural-order int16 out.
inline void quantize_natural_avx2(const float* raw, const QuantConstants& qc,
                                  std::int16_t* nat) {
  for (int n = 0; n < 64; n += 8) {
    // Divide via the double reciprocal, 4 doubles per half.
    const __m256 v = _mm256_loadu_ps(raw + n);
    const __m256d v03 = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d v47 = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    const __m128 r03 = _mm256_cvtpd_ps(
        _mm256_mul_pd(v03, _mm256_loadu_pd(qc.recip.data() + n)));
    const __m128 r47 = _mm256_cvtpd_ps(
        _mm256_mul_pd(v47, _mm256_loadu_pd(qc.recip.data() + n + 4)));
    __m256 q = _mm256_set_m128(r47, r03);
    q = _mm256_max_ps(q, _mm256_loadu_ps(qc.lo.data() + n));
    q = _mm256_min_ps(q, _mm256_loadu_ps(qc.hi.data() + n));
    const __m256i i32 = round_half_away(q);
    const __m128i p = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                      _mm256_extracti128_si256(i32, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(nat + n), p);
  }
}

/// Byte-shuffle tables for one 64-entry int16 permute out[d] = in[src[d]].
/// Output vector v holds entries 16v..16v+15 (two 8-entry 128-bit lanes);
/// shuf[v][r] moves each of those entries that lives in source row r
/// (entries 8r..8r+7) into place and zeroes the rest (0x80). pshufb only
/// reads within a 128-bit lane, so each source row is broadcast to both
/// lanes and the output vector is the OR of its rows' shuffles; rows
/// [first[v], last[v]] are the only ones that contribute.
struct Permute64 {
  alignas(32) std::uint8_t shuf[4][8][32];
  int first[4], last[4];
};

constexpr Permute64 permute64_tables(const std::array<int, 64>& src) {
  Permute64 t{};
  for (int v = 0; v < 4; ++v) {
    t.first[v] = 7;
    t.last[v] = 0;
    for (auto& row : t.shuf[v])
      for (std::uint8_t& b : row) b = 0x80;
    for (int i = 0; i < 16; ++i) {
      const int s = src[static_cast<std::size_t>(16 * v + i)];
      const int r = s / 8;
      t.shuf[v][r][2 * i] = static_cast<std::uint8_t>(2 * (s % 8));
      t.shuf[v][r][2 * i + 1] = static_cast<std::uint8_t>(2 * (s % 8) + 1);
      t.first[v] = r < t.first[v] ? r : t.first[v];
      t.last[v] = r > t.last[v] ? r : t.last[v];
    }
  }
  return t;
}

/// Natural -> zig-zag and back, both from the one standard zig-zag table.
constexpr Permute64 kToZigzag = permute64_tables(jpeg::kZigzagToNatural);
constexpr Permute64 kToNatural = permute64_tables(jpeg::kNaturalToZigzag);

/// The tables are a template argument so that, fully unrolled, the row
/// ranges fold to constants: the source rows stay in registers and only the
/// contributing shuffles are emitted.
template <const Permute64& T>
inline void permute64(const std::int16_t* in, std::int16_t* out) {
  __m256i rows[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r)
    rows[r] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 8 * r)));
#pragma GCC unroll 4
  for (int v = 0; v < 4; ++v) {
    __m256i acc = _mm256_setzero_si256();
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r)
      if (r >= T.first[v] && r <= T.last[v])
        acc = _mm256_or_si256(
            acc, _mm256_shuffle_epi8(rows[r],
                                     _mm256_load_si256(
                                         reinterpret_cast<const __m256i*>(
                                             T.shuf[v][r]))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16 * v), acc);
  }
}

void quantize_avx2(const float* raw, const QuantConstants& qc,
                   std::int16_t* out) {
  alignas(32) std::int16_t nat[64];
  quantize_natural_avx2(raw, qc, nat);
  permute64<kToZigzag>(nat, out);
}

std::uint64_t nonzero_mask_avx2(const std::int16_t* block_zigzag) {
  // 32 coefficients per round: cmpeq against zero, pack to bytes (the pack
  // interleaves 128-bit lanes as [a.lo b.lo a.hi b.hi], so one 64-bit
  // permute restores coefficient order), movemask, invert.
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t mask = 0;
  for (int i = 0; i < 2; ++i) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block_zigzag + 32 * i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block_zigzag + 32 * i + 16));
    __m256i eq = _mm256_packs_epi16(_mm256_cmpeq_epi16(a, zero),
                                    _mm256_cmpeq_epi16(b, zero));
    eq = _mm256_permute4x64_epi64(eq, _MM_SHUFFLE(3, 1, 2, 0));
    const std::uint32_t zeros =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(eq));
    mask |= static_cast<std::uint64_t>(~zeros) << (32 * i);
  }
  return mask;
}

std::uint64_t quantize_scan_avx2(const float* raw, const QuantConstants& qc,
                                 std::int16_t* out) {
  quantize_avx2(raw, qc, out);
  return nonzero_mask_avx2(out);
}

void dequantize_avx2(const std::int16_t* in, const QuantConstants& qc,
                     float* out) {
  alignas(32) std::int16_t nat[64];
  permute64<kToNatural>(in, nat);
  for (int n = 0; n < 64; n += 8) {
    const __m128i v16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nat + n));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(v16));
    _mm256_storeu_ps(out + n, mul(f, _mm256_loadu_ps(qc.step.data() + n)));
  }
}

/// Loads 8 u8 values as floats (exact conversion).
inline __m256 load8_u8(const std::uint8_t* p) {
  __m128i v = _mm_setzero_si128();
  std::memcpy(&v, p, 8);
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(v));
}

void rgb_to_ycc_row_avx2(const std::uint8_t* r, const std::uint8_t* g,
                         const std::uint8_t* b, int n, float* y, float* cb,
                         float* cr) {
  int x = 0;
  const __m256 k128 = bcast(128.f);
  for (; x + 8 <= n; x += 8) {
    const __m256 fr = load8_u8(r + x);
    const __m256 fg = load8_u8(g + x);
    const __m256 fb = load8_u8(b + x);
    const __m256 Y = add(add(mul(bcast(0.299f), fr), mul(bcast(0.587f), fg)),
                         mul(bcast(0.114f), fb));
    const __m256 Cb =
        add(add(_mm256_sub_ps(mul(bcast(-0.168736f), fr),
                              mul(bcast(0.331264f), fg)),
                mul(bcast(0.5f), fb)),
            k128);
    const __m256 Cr =
        add(_mm256_sub_ps(_mm256_sub_ps(mul(bcast(0.5f), fr),
                                        mul(bcast(0.418688f), fg)),
                          mul(bcast(0.081312f), fb)),
            k128);
    _mm256_storeu_ps(y + x, Y);
    _mm256_storeu_ps(cb + x, Cb);
    _mm256_storeu_ps(cr + x, Cr);
  }
  rgb_to_ycc_px(r, g, b, x, n, y, cb, cr);
}

/// clamp_u8 on 8 lanes: clamp to [0,255] first, then half-up round; the
/// clamped v is non-negative, so this equals clamp(lround(v)).
inline __m256i clamp_round8(__m256 v) {
  v = _mm256_max_ps(v, _mm256_setzero_ps());
  v = _mm256_min_ps(v, bcast(255.f));
  return _mm256_cvttps_epi32(_mm256_add_ps(v, bcast(0.5f)));
}

inline void store8_u8(std::uint8_t* p, __m256i v32) {
  const __m128i v16 = _mm_packs_epi32(_mm256_castsi256_si128(v32),
                                      _mm256_extracti128_si256(v32, 1));
  const __m128i v8 = _mm_packus_epi16(v16, v16);
  std::memcpy(p, &v8, 8);
}

void ycc_to_rgb_row_avx2(const float* y, const float* cb, const float* cr,
                         int n, std::uint8_t* r, std::uint8_t* g,
                         std::uint8_t* b) {
  int x = 0;
  const __m256 k128 = bcast(128.f);
  for (; x + 8 <= n; x += 8) {
    const __m256 Y = _mm256_loadu_ps(y + x);
    const __m256 Cb = _mm256_sub_ps(_mm256_loadu_ps(cb + x), k128);
    const __m256 Cr = _mm256_sub_ps(_mm256_loadu_ps(cr + x), k128);
    const __m256 R = add(Y, mul(bcast(1.402f), Cr));
    const __m256 G =
        _mm256_sub_ps(_mm256_sub_ps(Y, mul(bcast(0.344136f), Cb)),
                      mul(bcast(0.714136f), Cr));
    const __m256 B = add(Y, mul(bcast(1.772f), Cb));
    store8_u8(r + x, clamp_round8(R));
    store8_u8(g + x, clamp_round8(G));
    store8_u8(b + x, clamp_round8(B));
  }
  ycc_to_rgb_px(y, cb, cr, x, n, r, g, b);
}

void downsample2x_row_avx2(const float* row0, const float* row1, int in_w,
                           int out_w, float* out) {
  const int interior = in_w / 2 < out_w ? in_w / 2 : out_w;
  // shuffle_ps(2,0,2,0) deinterleaves within each 128-bit half, leaving the
  // outputs in crossed order [0,1,4,5,2,3,6,7]; sums and scaling are
  // elementwise so one permute before the store restores order.
  const __m256i fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  int x = 0;
  for (; x + 8 <= interior; x += 8) {
    const __m256 a0 = _mm256_loadu_ps(row0 + 2 * x);
    const __m256 a1 = _mm256_loadu_ps(row0 + 2 * x + 8);
    const __m256 b0 = _mm256_loadu_ps(row1 + 2 * x);
    const __m256 b1 = _mm256_loadu_ps(row1 + 2 * x + 8);
    const __m256 even0 = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 odd0 = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 even1 = _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 odd1 = _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 sum = add(add(add(even0, odd0), even1), odd1);
    _mm256_storeu_ps(out + x,
                     _mm256_permutevar8x32_ps(mul(bcast(0.25f), sum), fix));
  }
  for (; x < interior; ++x) {
    const int x0 = 2 * x;
    out[x] = 0.25f * (row0[x0] + row0[x0 + 1] + row1[x0] + row1[x0 + 1]);
  }
  downsample2x_px(row0, row1, in_w, x, out_w, out);
}

/// The four-tap blend every upsample lane computes, in the scalar order:
/// r00*(1-wx)*(1-wy) + r10*wx*(1-wy) + r01*(1-wx)*wy + r11*wx*wy.
inline __m256 bilerp(__m256 r00, __m256 r10, __m256 r01, __m256 r11,
                     __m256 wx, __m256 omwx, __m256 wy, __m256 omwy) {
  return add(add(add(mul(mul(r00, omwx), omwy), mul(mul(r10, wx), omwy)),
                 mul(mul(r01, omwx), wy)),
             mul(mul(r11, wx), wy));
}

void upsample_row_avx2(const float* row0, const float* row1, int in_w,
                       float sx, float wy, int out_w, float* out) {
  // Same border/interior split as upsample_row_scalar.
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
  const __m256 vone = bcast(1.f);
  const __m256 vwy = bcast(wy);
  const __m256 vomwy = _mm256_sub_ps(vone, vwy);
  int x = lo;
  if (sx == 0.5f) {
    // Exact 2x (every even-width 4:2:0 chroma row): output 2m+1 blends
    // source m, m+1 with wx = 0.25 and output 2m+2 the same pair with
    // wx = 0.75 (fx = m + 0.25 / m + 0.75 exactly), so 8 outputs from odd x
    // read source m..m+4 of one 8-float load, spread by two permutes. x
    // starts odd: lo is 1, output 0 being the clamped left border.
    const __m256i tap0 = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
    const __m256i tap1 = _mm256_setr_epi32(1, 1, 2, 2, 3, 3, 4, 4);
    const __m256 wx = _mm256_setr_ps(0.25f, 0.75f, 0.25f, 0.75f, 0.25f,
                                     0.75f, 0.25f, 0.75f);
    const __m256 omwx = _mm256_sub_ps(vone, wx);
    // The second bound keeps the whole 8-float load inside the row.
    for (; x + 8 <= hi && (x - 1) / 2 + 8 <= in_w; x += 8) {
      const int m = (x - 1) / 2;
      const __m256 a = _mm256_loadu_ps(row0 + m);
      const __m256 b = _mm256_loadu_ps(row1 + m);
      _mm256_storeu_ps(
          out + x, bilerp(_mm256_permutevar8x32_ps(a, tap0),
                          _mm256_permutevar8x32_ps(a, tap1),
                          _mm256_permutevar8x32_ps(b, tap0),
                          _mm256_permutevar8x32_ps(b, tap1), wx, omwx, vwy,
                          vomwy));
    }
  }
  // Any other ratio (odd-width 4:2:0, scale steps), and the last 2x
  // outputs the load bound stopped, gather their four taps with unchecked
  // indices.
  for (; x + 8 <= hi; x += 8) {
    const __m256 xf = _mm256_cvtepi32_ps(_mm256_setr_epi32(
        x, x + 1, x + 2, x + 3, x + 4, x + 5, x + 6, x + 7));
    const __m256 fx = _mm256_sub_ps(
        mul(_mm256_add_ps(xf, bcast(0.5f)), bcast(sx)), bcast(0.5f));
    const __m256 fl = _mm256_floor_ps(fx);
    const __m256i x0 = _mm256_cvttps_epi32(fl);
    const __m256i x1 = _mm256_add_epi32(x0, _mm256_set1_epi32(1));
    const __m256 wx = _mm256_sub_ps(fx, fl);
    _mm256_storeu_ps(
        out + x,
        bilerp(_mm256_i32gather_ps(row0, x0, 4),
               _mm256_i32gather_ps(row0, x1, 4),
               _mm256_i32gather_ps(row1, x0, 4),
               _mm256_i32gather_ps(row1, x1, 4), wx,
               _mm256_sub_ps(vone, wx), vwy, vomwy));
  }
  upsample_interior_px(row0, row1, sx, wy, x, hi, out);
  upsample_px(row0, row1, in_w, sx, wy, hi, out_w, out);
}

void dequantize_idct_avx2(const std::int16_t* in, const QuantConstants& qc,
                          float* out) {
  float raw[64];
  dequantize_avx2(in, qc, raw);
  idct8x8_avx2(raw, out);
}

}  // namespace

const KernelTable& table_avx2() {
  static const KernelTable t = {
      fdct8x8_avx2,         idct8x8_avx2,
      quantize_avx2,        dequantize_avx2,
      rgb_to_ycc_row_avx2,  ycc_to_rgb_row_avx2,
      downsample2x_row_avx2, upsample_row_avx2,
      nonzero_mask_avx2,    quantize_scan_avx2,
      dequantize_idct_avx2,
  };
  return t;
}

}  // namespace puppies::kernels::detail

#endif  // PUPPIES_KERNELS_HAVE_AVX2
