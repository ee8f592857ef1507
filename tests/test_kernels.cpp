// Equivalence suite for puppies::kernels: every kernel, on every SIMD tier
// this machine supports, must be bit-identical to the scalar tier and to the
// pre-kernel reference implementations embedded below. Run the binary twice
// in CI — once native and once with PUPPIES_SIMD=scalar — to cover the env
// override path too.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/core/pipeline.h"
#include "puppies/jpeg/bitio.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/huffman.h"
#include "puppies/jpeg/quant.h"
#include "puppies/jpeg/zigzag.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"
#include "puppies/synth/synth.h"

namespace puppies {
namespace {

using jpeg::FloatBlock;
using kernels::SimdTier;
using kernels::supported_tiers;

/// Restores the active tier on scope exit so tests can configure() freely.
struct TierGuard {
  SimdTier saved = kernels::active_tier();
  ~TierGuard() { kernels::configure(saved); }
};

FloatBlock random_block(std::mt19937& rng, float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  FloatBlock b;
  for (float& v : b) v = dist(rng);
  return b;
}

bool bits_equal(const float* a, const float* b, int n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Reference implementations: verbatim copies of the pre-kernel code paths.

struct RefCosTable {
  float t[8][8];
  RefCosTable() {
    for (int u = 0; u < 8; ++u) {
      const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
      for (int x = 0; x < 8; ++x)
        t[u][x] = static_cast<float>(
            0.5 * cu *
            std::cos((2 * x + 1) * u * 3.14159265358979323846 / 16.0));
    }
  }
};

const RefCosTable& ref_cosines() {
  static const RefCosTable table;
  return table;
}

FloatBlock ref_fdct8x8(const FloatBlock& samples) {
  const auto& c = ref_cosines();
  FloatBlock tmp{};
  for (int y = 0; y < 8; ++y)
    for (int u = 0; u < 8; ++u) {
      float acc = 0;
      for (int x = 0; x < 8; ++x) acc += samples[y * 8 + x] * c.t[u][x];
      tmp[y * 8 + u] = acc;
    }
  FloatBlock out{};
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v) {
      float acc = 0;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + u] * c.t[v][y];
      out[v * 8 + u] = acc;
    }
  return out;
}

FloatBlock ref_idct8x8(const FloatBlock& coefficients) {
  const auto& c = ref_cosines();
  FloatBlock tmp{};
  for (int u = 0; u < 8; ++u)
    for (int y = 0; y < 8; ++y) {
      float acc = 0;
      for (int v = 0; v < 8; ++v) acc += coefficients[v * 8 + u] * c.t[v][y];
      tmp[y * 8 + u] = acc;
    }
  FloatBlock out{};
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      float acc = 0;
      for (int u = 0; u < 8; ++u) acc += tmp[y * 8 + u] * c.t[u][x];
      out[y * 8 + x] = acc;
    }
  return out;
}

int ref_clamp_coef(long v, int lo, int hi) {
  return v < lo ? lo : (v > hi ? hi : static_cast<int>(v));
}

std::array<std::int16_t, 64> ref_quantize(const FloatBlock& raw,
                                          const jpeg::QuantTable& table) {
  std::array<std::int16_t, 64> out{};
  for (int z = 0; z < 64; ++z) {
    const float v = raw[jpeg::kZigzagToNatural[z]];
    const long q = std::lround(v / table.q[z]);
    out[z] = static_cast<std::int16_t>(
        z == 0 ? ref_clamp_coef(q, jpeg::kDcMin, jpeg::kDcMax)
               : ref_clamp_coef(q, jpeg::kAcMin, jpeg::kAcMax));
  }
  return out;
}

FloatBlock ref_dequantize(const std::array<std::int16_t, 64>& block,
                          const jpeg::QuantTable& table) {
  FloatBlock raw{};
  for (int z = 0; z < 64; ++z)
    raw[jpeg::kZigzagToNatural[z]] =
        static_cast<float>(block[z]) * static_cast<float>(table.q[z]);
  return raw;
}

std::uint64_t ref_nonzero_mask(const std::array<std::int16_t, 64>& block) {
  std::uint64_t mask = 0;
  for (int z = 0; z < 64; ++z)
    if (block[z] != 0) mask |= std::uint64_t{1} << z;
  return mask;
}

/// quantize_scan must write exactly quantize()'s block and return the
/// nonzero mask of it.
void expect_quantize_scan(const kernels::KernelTable& k, const FloatBlock& raw,
                          const kernels::QuantConstants& qc,
                          const std::array<std::int16_t, 64>& want,
                          const std::string& where) {
  std::array<std::int16_t, 64> got{};
  const std::uint64_t mask = k.quantize_scan(raw.data(), qc, got.data());
  ASSERT_EQ(got, want) << where;
  ASSERT_EQ(mask, ref_nonzero_mask(want)) << where;
  ASSERT_EQ(mask, k.nonzero_mask(want.data())) << where;
}

std::uint8_t ref_clamp_u8(float v) {
  if (v <= 0.f) return 0;
  if (v >= 255.f) return 255;
  return static_cast<std::uint8_t>(std::lround(v));
}

// ---------------------------------------------------------------------------
// DCT

TEST(Kernels, FdctIdctIdenticalAcrossTiers) {
  TierGuard guard;
  std::mt19937 rng(7);
  const auto& scalar = kernels::table_for(SimdTier::kScalar);
  for (int rep = 0; rep < 200; ++rep) {
    const FloatBlock in = random_block(rng, -128.f, 127.f);
    FloatBlock want_f, want_i;
    scalar.fdct8x8(in.data(), want_f.data());
    scalar.idct8x8(in.data(), want_i.data());
    for (SimdTier tier : supported_tiers()) {
      const auto& k = kernels::table_for(tier);
      FloatBlock got;
      k.fdct8x8(in.data(), got.data());
      ASSERT_TRUE(bits_equal(got.data(), want_f.data(), 64))
          << "fdct " << kernels::to_string(tier) << " rep " << rep;
      k.idct8x8(in.data(), got.data());
      ASSERT_TRUE(bits_equal(got.data(), want_i.data(), 64))
          << "idct " << kernels::to_string(tier) << " rep " << rep;
    }
  }
}

// The kernel DCT starts each accumulation from the first product instead of
// 0.f; the only representable difference is the sign of exact zeros, so the
// outputs must still compare equal value-wise, and the quantized blocks
// (which normalize the zero sign) must be bit-identical.
TEST(Kernels, DctMatchesPreKernelReference) {
  std::mt19937 rng(11);
  const jpeg::QuantTable qt = jpeg::luma_quant_table(75);
  for (int rep = 0; rep < 200; ++rep) {
    const FloatBlock in = random_block(rng, -128.f, 127.f);
    const FloatBlock want = ref_fdct8x8(in);
    const FloatBlock got = jpeg::fdct8x8(in);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(got[i], want[i]) << "coef " << i;
    ASSERT_EQ(jpeg::quantize(got, qt), ref_quantize(want, qt));

    const FloatBlock want_i = ref_idct8x8(in);
    const FloatBlock got_i = jpeg::idct8x8(in);
    for (int i = 0; i < 64; ++i)
      ASSERT_EQ(got_i[i], want_i[i]) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Quantize / dequantize

// The load-bearing claim behind the reciprocal-multiply quantizer: for every
// int16-scaled input and every representable table entry, rounding the
// double-reciprocal product equals rounding the single-precision division.
TEST(Kernels, ReciprocalDivisionExhaustive) {
  long mismatches = 0;
  for (int q = 1; q <= 255; ++q) {
    const double recip = 1.0 / static_cast<double>(q);
    for (int v = -32768; v <= 32767; ++v) {
      const float fv = static_cast<float>(v);
      const long want = std::lround(fv / static_cast<float>(q));
      const long got = std::lround(
          static_cast<float>(static_cast<double>(fv) * recip));
      if (want != got) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Kernels, ReciprocalDivisionWideStepsAndFloats) {
  long mismatches = 0;
  for (int q : {256, 257, 999, 4096, 4097, 20000, 32768, 65535}) {
    const double recip = 1.0 / static_cast<double>(q);
    for (int v = -32768; v <= 32767; ++v) {
      const float fv = static_cast<float>(v);
      if (std::lround(fv / static_cast<float>(q)) !=
          std::lround(static_cast<float>(static_cast<double>(fv) * recip)))
        ++mismatches;
    }
  }
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> vals(-40000.f, 40000.f);
  std::uniform_int_distribution<int> steps(1, 65535);
  for (int rep = 0; rep < 2000000; ++rep) {
    const float v = vals(rng);
    const int q = steps(rng);
    if (std::lround(v / static_cast<float>(q)) !=
        std::lround(static_cast<float>(static_cast<double>(v) *
                                       (1.0 / static_cast<double>(q)))))
      ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Kernels, QuantizeDequantizeMatchReferenceOnAllTiers) {
  TierGuard guard;
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> quality(1, 100);
  for (int rep = 0; rep < 200; ++rep) {
    const jpeg::QuantTable qt = rep % 2 == 0
                                    ? jpeg::luma_quant_table(quality(rng))
                                    : jpeg::chroma_quant_table(quality(rng));
    const kernels::QuantConstants qc = jpeg::quant_constants(qt);
    // Large range so the DC/AC clamps are exercised on both sides; half the
    // blocks are mostly zeros so the nonzero masks are not all-ones.
    FloatBlock raw = random_block(rng, -3000.f, 3000.f);
    if (rep % 4 >= 2)
      for (float& v : raw)
        if (rng() % 4 != 0) v = 0.f;
    const std::array<std::int16_t, 64> want = ref_quantize(raw, qt);
    const FloatBlock want_d = ref_dequantize(want, qt);
    FloatBlock want_s;
    kernels::table_for(SimdTier::kScalar)
        .idct8x8(want_d.data(), want_s.data());
    const FloatBlock ref_s = ref_idct8x8(want_d);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(want_s[i], ref_s[i]) << i;
    for (SimdTier tier : supported_tiers()) {
      const auto& k = kernels::table_for(tier);
      const std::string where =
          std::string(kernels::to_string(tier)) + " rep " + std::to_string(rep);
      std::array<std::int16_t, 64> got{};
      k.quantize(raw.data(), qc, got.data());
      ASSERT_EQ(got, want) << where;
      expect_quantize_scan(k, raw, qc, want, where);
      FloatBlock got_d;
      k.dequantize(want.data(), qc, got_d.data());
      ASSERT_TRUE(bits_equal(got_d.data(), want_d.data(), 64)) << where;
      k.dequantize_idct(want.data(), qc, got_d.data());
      ASSERT_TRUE(bits_equal(got_d.data(), want_s.data(), 64)) << where;
    }
  }
}

TEST(Kernels, QuantizeClampEdges) {
  // +-0.5 ties, clamp boundaries, and huge values that would overflow a
  // naive float->int conversion.
  const jpeg::QuantTable qt = jpeg::flat_quant_table(1);
  const kernels::QuantConstants qc = jpeg::quant_constants(qt);
  FloatBlock raw{};
  const float edge[] = {0.5f,     -0.5f,    1.5f,      -1.5f,   1022.5f,
                        -1022.5f, 1023.4f,  -1023.4f,  1023.5f, -1023.5f,
                        1024.5f,  -1024.5f, 5e8f,      -5e8f,   0.f,
                        -0.f,     2.5f,     -2.5f,     3.5f,    -3.5f};
  for (std::size_t i = 0; i < std::size(edge); ++i) raw[i] = edge[i];
  const std::array<std::int16_t, 64> want = ref_quantize(raw, qt);
  for (SimdTier tier : supported_tiers()) {
    const auto& k = kernels::table_for(tier);
    std::array<std::int16_t, 64> got{};
    k.quantize(raw.data(), qc, got.data());
    ASSERT_EQ(got, want) << kernels::to_string(tier);
    expect_quantize_scan(k, raw, qc, want,
                         std::string(kernels::to_string(tier)));
  }
}

// ---------------------------------------------------------------------------
// Color conversion rows

TEST(Kernels, ColorRowsIdenticalAcrossTiersAndReference) {
  TierGuard guard;
  std::mt19937 rng(17);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_real_distribution<float> f(-64.f, 320.f);
  for (int n : {1, 2, 3, 7, 8, 9, 15, 16, 31, 64, 127}) {
    std::vector<std::uint8_t> r(n), g(n), b(n);
    std::vector<float> yf(n), cbf(n), crf(n);
    for (int i = 0; i < n; ++i) {
      r[i] = static_cast<std::uint8_t>(byte(rng));
      g[i] = static_cast<std::uint8_t>(byte(rng));
      b[i] = static_cast<std::uint8_t>(byte(rng));
      yf[i] = f(rng);
      cbf[i] = f(rng);
      crf[i] = f(rng);
    }
    // Reference: the pre-kernel per-pixel expressions.
    std::vector<float> wy(n), wcb(n), wcr(n);
    std::vector<std::uint8_t> wr(n), wg(n), wb(n);
    for (int i = 0; i < n; ++i) {
      const float fr = r[i], fg = g[i], fb = b[i];
      wy[i] = 0.299f * fr + 0.587f * fg + 0.114f * fb;
      wcb[i] = -0.168736f * fr - 0.331264f * fg + 0.5f * fb + 128.f;
      wcr[i] = 0.5f * fr - 0.418688f * fg - 0.081312f * fb + 128.f;
      const float Y = yf[i], cb = cbf[i] - 128.f, cr = crf[i] - 128.f;
      wr[i] = ref_clamp_u8(Y + 1.402f * cr);
      wg[i] = ref_clamp_u8(Y - 0.344136f * cb - 0.714136f * cr);
      wb[i] = ref_clamp_u8(Y + 1.772f * cb);
    }
    for (SimdTier tier : supported_tiers()) {
      const auto& k = kernels::table_for(tier);
      std::vector<float> gy(n), gcb(n), gcr(n);
      k.rgb_to_ycc_row(r.data(), g.data(), b.data(), n, gy.data(),
                       gcb.data(), gcr.data());
      ASSERT_TRUE(bits_equal(gy.data(), wy.data(), n));
      ASSERT_TRUE(bits_equal(gcb.data(), wcb.data(), n));
      ASSERT_TRUE(bits_equal(gcr.data(), wcr.data(), n));
      std::vector<std::uint8_t> gr(n), gg(n), gb(n);
      k.ycc_to_rgb_row(yf.data(), cbf.data(), crf.data(), n, gr.data(),
                       gg.data(), gb.data());
      ASSERT_EQ(gr, wr) << kernels::to_string(tier) << " n=" << n;
      ASSERT_EQ(gg, wg) << kernels::to_string(tier) << " n=" << n;
      ASSERT_EQ(gb, wb) << kernels::to_string(tier) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Resampling rows

TEST(Kernels, DownsampleRowIdenticalAcrossTiersAndReference) {
  std::mt19937 rng(19);
  std::uniform_real_distribution<float> f(-64.f, 320.f);
  for (int in_w : {1, 2, 3, 5, 8, 15, 16, 17, 31, 32, 33, 64, 127}) {
    const int out_w = (in_w + 1) / 2;
    std::vector<float> r0(in_w), r1(in_w);
    for (int i = 0; i < in_w; ++i) {
      r0[i] = f(rng);
      r1[i] = f(rng);
    }
    // Reference: the pre-kernel clamped_at formulation.
    std::vector<float> want(out_w);
    for (int x = 0; x < out_w; ++x) {
      auto cl = [&](const std::vector<float>& row, int i) {
        return row[i < in_w ? i : in_w - 1];
      };
      want[x] = 0.25f * (cl(r0, 2 * x) + cl(r0, 2 * x + 1) + cl(r1, 2 * x) +
                         cl(r1, 2 * x + 1));
    }
    for (SimdTier tier : supported_tiers()) {
      std::vector<float> got(out_w);
      kernels::table_for(tier).downsample2x_row(r0.data(), r1.data(), in_w,
                                                out_w, got.data());
      ASSERT_TRUE(bits_equal(got.data(), want.data(), out_w))
          << kernels::to_string(tier) << " in_w=" << in_w;
    }
  }
}

/// Every tier's upsample_row against the pre-kernel clamped_at formulation,
/// for one in_w -> out_w pair at sx = in_w / out_w.
void check_upsample_row(int in_w, int out_w, std::mt19937& rng) {
  std::uniform_real_distribution<float> f(-64.f, 320.f);
  std::uniform_real_distribution<float> wdist(0.f, 1.f);
  const float sx = static_cast<float>(in_w) / out_w;
  const float wy = wdist(rng);
  std::vector<float> r0(in_w), r1(in_w);
  for (int i = 0; i < in_w; ++i) {
    r0[i] = f(rng);
    r1[i] = f(rng);
  }
  std::vector<float> want(out_w);
  for (int x = 0; x < out_w; ++x) {
    const float fx = (x + 0.5f) * sx - 0.5f;
    const int x0 = static_cast<int>(std::floor(fx));
    const float wx = fx - x0;
    auto cl = [&](const std::vector<float>& row, int i) {
      return row[i < 0 ? 0 : (i >= in_w ? in_w - 1 : i)];
    };
    want[x] = cl(r0, x0) * (1 - wx) * (1 - wy) +
              cl(r0, x0 + 1) * wx * (1 - wy) + cl(r1, x0) * (1 - wx) * wy +
              cl(r1, x0 + 1) * wx * wy;
  }
  for (SimdTier tier : supported_tiers()) {
    std::vector<float> got(out_w);
    kernels::table_for(tier).upsample_row(r0.data(), r1.data(), in_w, sx, wy,
                                          out_w, got.data());
    ASSERT_TRUE(bits_equal(got.data(), want.data(), out_w))
        << kernels::to_string(tier) << " " << in_w << "->" << out_w;
  }
}

TEST(Kernels, UpsampleRowIdenticalAcrossTiersAndReference) {
  std::mt19937 rng(29);
  // Assorted ratios, up and down.
  for (int in_w : {1, 2, 3, 5, 8, 16, 17, 33, 64})
    for (int out_w : {1, 2, 7, 16, 31, 32, 64, 129})
      check_upsample_row(in_w, out_w, rng);
  // Exact 2x (even-width 4:2:0 chroma, the sx == 0.5 permute path) and the
  // odd-width 4:2:0 ratio, at every width through several vector lengths
  // and their tails.
  for (int in_w = 1; in_w <= 96; ++in_w) {
    check_upsample_row(in_w, 2 * in_w, rng);
    check_upsample_row(in_w, 2 * in_w - 1, rng);
  }
  // The chroma widths of the serving benchmark's photo sizes.
  for (int in_w : {576, 816, 1000, 1296, 1632, 2000}) {
    check_upsample_row(in_w, 2 * in_w, rng);
    check_upsample_row(in_w, 2 * in_w - 1, rng);
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline equivalence across tiers

TEST(TierPipeline, EncodedBytesAndDecodedPixelsIdenticalAcrossTiers) {
  TierGuard guard;
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 3, 120, 88);
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    std::vector<Bytes> encoded;
    std::vector<RgbImage> decoded;
    for (SimdTier tier : supported_tiers()) {
      kernels::configure(tier);
      jpeg::EncodeOptions opts;
      opts.chroma = mode;
      const Bytes jpg = jpeg::compress(scene.image, 80, opts);
      decoded.push_back(jpeg::decompress(jpg));
      encoded.push_back(jpg);
    }
    for (std::size_t i = 1; i < encoded.size(); ++i) {
      EXPECT_EQ(encoded[i], encoded[0]) << "tier index " << i;
      EXPECT_EQ(decoded[i], decoded[0]) << "tier index " << i;
    }
  }
}

TEST(TierPipeline, ProtectRecoverExactOnEveryTierAndScheme) {
  TierGuard guard;
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 0, 128, 96);
  const SecretKey key = SecretKey::from_label("kernels/test");
  for (core::Scheme scheme : {core::Scheme::kNaive, core::Scheme::kBase,
                              core::Scheme::kCompression, core::Scheme::kZero}) {
    for (SimdTier tier : supported_tiers()) {
      kernels::configure(tier);
      const jpeg::CoefficientImage original =
          jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
      const std::vector<core::RoiPolicy> policies = {core::RoiPolicy{
          Rect{16, 16, 32, 24}, key, scheme, core::PrivacyLevel::kMedium}};
      const core::ProtectResult result = core::protect(original, policies);
      core::KeyRing keys;
      keys.add(key);
      EXPECT_EQ(core::recover(result.perturbed, result.params, keys),
                original)
          << kernels::to_string(tier) << " scheme "
          << static_cast<int>(scheme);
    }
  }
}

// ---------------------------------------------------------------------------
// BitReader: buffered refill vs a byte-at-a-time reference

/// Verbatim copy of the pre-kernel byte-at-a-time BitReader.
class RefBitReader {
 public:
  explicit RefBitReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t get(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i)
      v = (v << 1) | static_cast<std::uint32_t>(next_bit());
    return v;
  }
  int bit() { return next_bit(); }

  void expect_restart_marker(int expected_n) {
    avail_ = 0;
    if (pos_ + 2 > data_.size())
      throw ParseError("missing restart marker");
    if (data_[pos_] != 0xff) throw ParseError("expected restart marker");
    const std::uint8_t marker = data_[pos_ + 1];
    if (marker != static_cast<std::uint8_t>(0xd0 + expected_n))
      throw ParseError("restart marker out of sequence");
    pos_ += 2;
  }

 private:
  int next_bit() {
    if (avail_ == 0) {
      if (pos_ >= data_.size()) throw ParseError("entropy segment underrun");
      std::uint8_t b = data_[pos_++];
      if (b == 0xff) {
        if (pos_ >= data_.size()) throw ParseError("dangling 0xFF in scan");
        if (data_[pos_] == 0x00)
          ++pos_;
        else
          throw ParseError("unexpected marker inside entropy-coded segment");
      }
      cur_ = b;
      avail_ = 8;
    }
    --avail_;
    return static_cast<int>((cur_ >> avail_) & 1);
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t cur_ = 0;
  int avail_ = 0;
};

/// Runs the same randomized read schedule against both readers; both must
/// produce identical values and fail at the same read with the same message.
void compare_readers(const Bytes& data, std::mt19937& rng, bool restarts) {
  jpeg::BitReader fast(data);
  RefBitReader ref(data);
  std::uniform_int_distribution<int> counts(0, 24);
  std::uniform_int_distribution<int> kind(0, restarts ? 12 : 9);
  int restart_n = 0;
  for (int step = 0; step < 4000; ++step) {
    const int what = kind(rng);
    std::string fast_err, ref_err;
    std::uint32_t fast_v = 0, ref_v = 0;
    if (what >= 10) {
      try {
        fast.expect_restart_marker(restart_n % 8);
      } catch (const ParseError& e) {
        fast_err = e.what();
      }
      try {
        ref.expect_restart_marker(restart_n % 8);
      } catch (const ParseError& e) {
        ref_err = e.what();
      }
      ++restart_n;
      ASSERT_EQ(fast_err, ref_err) << "restart at step " << step;
      if (!fast_err.empty()) return;
      continue;
    }
    const int n = counts(rng);
    try {
      fast_v = fast.get(n);
    } catch (const ParseError& e) {
      fast_err = e.what();
    }
    try {
      ref_v = ref.get(n);
    } catch (const ParseError& e) {
      ref_err = e.what();
    }
    ASSERT_EQ(fast_err, ref_err) << "step " << step << " count " << n;
    if (!fast_err.empty()) return;
    ASSERT_EQ(fast_v, ref_v) << "step " << step << " count " << n;
  }
}

TEST(FastBitReader, MatchesReferenceOnStuffedStreams) {
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 600);
  for (int rep = 0; rep < 50; ++rep) {
    Bytes data;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) {
      // Heavy 0xFF density so stuffing is constantly exercised.
      const std::uint8_t b =
          rep % 2 ? static_cast<std::uint8_t>(byte(rng))
                  : static_cast<std::uint8_t>(byte(rng) < 128 ? 0xff
                                                              : byte(rng));
      data.push_back(b);
      if (b == 0xff) data.push_back(0x00);
    }
    compare_readers(data, rng, false);
  }
}

TEST(FastBitReader, MatchesReferenceOnCorruptStreams) {
  std::mt19937 rng(37);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 80);
  for (int rep = 0; rep < 200; ++rep) {
    Bytes data;
    const int n = len(rng);
    // Raw random bytes: dangling 0xFF, markers, and truncation all occur.
    for (int i = 0; i < n; ++i)
      data.push_back(static_cast<std::uint8_t>(byte(rng)));
    compare_readers(data, rng, false);
  }
}

TEST(FastBitReader, MatchesReferenceWithRestartMarkers) {
  std::mt19937 rng(41);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int rep = 0; rep < 100; ++rep) {
    Bytes data;
    jpeg::BitWriter writer(data);
    std::uniform_int_distribution<int> nbits(0, 24);
    int marker = 0;
    for (int seg = 0; seg < 6; ++seg) {
      for (int i = 0; i < 40; ++i) {
        const int n = nbits(rng);
        writer.put(static_cast<std::uint32_t>(byte(rng)), n > 8 ? 8 : n);
      }
      writer.restart_marker(marker++ % 8);
    }
    writer.flush();
    compare_readers(data, rng, true);
  }
}

TEST(FastBitReader, ExactErrorMessages) {
  {
    jpeg::BitReader r(std::span<const std::uint8_t>{});
    EXPECT_THROW(
        {
          try {
            r.get(1);
          } catch (const ParseError& e) {
            EXPECT_STREQ(e.what(), "parse error: entropy segment underrun");
            throw;
          }
        },
        ParseError);
  }
  {
    const Bytes data = {0xab, 0xff};
    jpeg::BitReader r(data);
    EXPECT_EQ(r.get(8), 0xabu);
    EXPECT_THROW(
        {
          try {
            r.get(1);
          } catch (const ParseError& e) {
            EXPECT_STREQ(e.what(), "parse error: dangling 0xFF in scan");
            throw;
          }
        },
        ParseError);
  }
  {
    const Bytes data = {0xab, 0xff, 0xd9};
    jpeg::BitReader r(data);
    EXPECT_EQ(r.get(8), 0xabu);
    EXPECT_THROW(
        {
          try {
            r.get(1);
          } catch (const ParseError& e) {
            EXPECT_STREQ(
                e.what(),
                "parse error: unexpected marker inside entropy-coded segment");
            throw;
          }
        },
        ParseError);
  }
  {
    // Stuffed 0xFF decodes as a data byte on both sides of a refill.
    const Bytes data = {0xff, 0x00, 0x12, 0xff, 0x00};
    jpeg::BitReader r(data);
    EXPECT_EQ(r.get(8), 0xffu);
    EXPECT_EQ(r.get(8), 0x12u);
    EXPECT_EQ(r.get(8), 0xffu);
  }
}

TEST(FastBitReader, PeekAndSkip) {
  const Bytes data = {0b10110100, 0b01100011};
  jpeg::BitReader r(data);
  std::uint32_t bits = 0;
  ASSERT_TRUE(r.peek(8, bits));
  EXPECT_EQ(bits, 0b10110100u);
  r.skip(3);  // consume "101"
  ASSERT_TRUE(r.peek(8, bits));
  EXPECT_EQ(bits, 0b10100011u);
  EXPECT_EQ(r.get(8), 0b10100011u);
  // 5 bits remain: peek(8) must fail without consuming, get(5) still works.
  EXPECT_FALSE(r.peek(8, bits));
  EXPECT_EQ(r.get(5), 0b00011u);
  EXPECT_FALSE(r.peek(1, bits));
}

// ---------------------------------------------------------------------------
// Huffman decode: first-level LUT vs MAXCODE-only reference

/// MAXCODE/MINCODE/VALPTR decode exactly as the pre-LUT decoder did, reading
/// through the production BitReader.
class RefHuffmanDecoder {
 public:
  explicit RefHuffmanDecoder(const jpeg::HuffmanSpec& spec)
      : values_(spec.values) {
    std::int32_t code = 0;
    std::int32_t val_index = 0;
    for (int len = 1; len <= 16; ++len) {
      const auto l = static_cast<std::size_t>(len);
      if (spec.bits[l] == 0) {
        maxcode_[l] = -1;
      } else {
        valptr_[l] = val_index;
        mincode_[l] = code;
        code += spec.bits[l];
        val_index += spec.bits[l];
        maxcode_[l] = code - 1;
      }
      code <<= 1;
    }
  }

  template <typename Reader>
  std::uint8_t decode(Reader& in) const {
    std::int32_t code = in.bit();
    for (int len = 1; len <= 16; ++len) {
      const auto l = static_cast<std::size_t>(len);
      if (maxcode_[l] >= 0 && code <= maxcode_[l] && code >= mincode_[l])
        return values_[static_cast<std::size_t>(valptr_[l] +
                                                (code - mincode_[l]))];
      code = (code << 1) | in.bit();
    }
    throw ParseError("invalid Huffman code");
  }

 private:
  std::array<std::int32_t, 17> mincode_{};
  std::array<std::int32_t, 17> maxcode_{};
  std::array<std::int32_t, 17> valptr_{};
  std::vector<std::uint8_t> values_;
};

void roundtrip_symbols(const jpeg::HuffmanSpec& spec, std::mt19937& rng,
                       int count) {
  const jpeg::HuffmanEncoder enc(spec);
  std::uniform_int_distribution<std::size_t> pick(0, spec.values.size() - 1);
  std::vector<std::uint8_t> symbols;
  Bytes data;
  jpeg::BitWriter writer(data);
  for (int i = 0; i < count; ++i) {
    const std::uint8_t sym = spec.values[pick(rng)];
    symbols.push_back(sym);
    enc.emit(writer, sym);
  }
  writer.flush();

  const jpeg::HuffmanDecoder fast(spec);
  const RefHuffmanDecoder ref(spec);
  jpeg::BitReader fast_in(data);
  RefBitReader ref_in(data);
  for (int i = 0; i < count; ++i) {
    ASSERT_EQ(fast.decode(fast_in), symbols[static_cast<std::size_t>(i)])
        << "symbol " << i;
    ASSERT_EQ(ref.decode(ref_in), symbols[static_cast<std::size_t>(i)]);
  }
}

TEST(HuffmanLut, DecodesStandardTablesIdentically) {
  std::mt19937 rng(43);
  // AC tables carry 16-bit codes, so both LUT hit and MAXCODE fallback run.
  roundtrip_symbols(jpeg::std_dc_luma(), rng, 2000);
  roundtrip_symbols(jpeg::std_dc_chroma(), rng, 2000);
  roundtrip_symbols(jpeg::std_ac_luma(), rng, 4000);
  roundtrip_symbols(jpeg::std_ac_chroma(), rng, 4000);
}

TEST(HuffmanLut, DecodesOptimalTablesIdentically) {
  std::mt19937 rng(47);
  // Skewed histogram: a few hot symbols (short codes) and a long cold tail
  // (long codes).
  std::array<long, 256> freq{};
  for (int i = 0; i < 256; ++i)
    freq[static_cast<std::size_t>(i)] = i < 4 ? 100000 : (i % 3 ? 1 : 0);
  roundtrip_symbols(jpeg::build_optimal_spec(freq), rng, 4000);
}

TEST(HuffmanLut, InvalidCodeThrowsLikeReference) {
  // 24 one-bits: the all-ones 16-bit code is reserved in the standard AC
  // tables, so decode must throw after consuming 17 bits.
  const Bytes data = {0xff, 0x00, 0xff, 0x00, 0xff, 0x00};
  const jpeg::HuffmanDecoder fast(jpeg::std_ac_luma());
  const RefHuffmanDecoder ref(jpeg::std_ac_luma());
  jpeg::BitReader fast_in(data);
  RefBitReader ref_in(data);
  std::string fast_err, ref_err;
  try {
    fast.decode(fast_in);
  } catch (const ParseError& e) {
    fast_err = e.what();
  }
  try {
    ref.decode(ref_in);
  } catch (const ParseError& e) {
    ref_err = e.what();
  }
  EXPECT_EQ(fast_err, "parse error: invalid Huffman code");
  EXPECT_EQ(fast_err, ref_err);
  // Both consumed 17 bits; the remaining 7 must line up.
  EXPECT_EQ(fast_in.get(7), ref_in.get(7));
}

// ---------------------------------------------------------------------------
// Dispatch plumbing

TEST(Dispatch, ParseAndPrintTiers) {
  EXPECT_EQ(kernels::parse_tier("scalar"), SimdTier::kScalar);
  EXPECT_EQ(kernels::parse_tier("avx2"), SimdTier::kAvx2);
  // There is no SSE2 tier: x86 hosts without AVX2 run scalar.
  EXPECT_THROW(kernels::parse_tier("sse2"), InvalidArgument);
  EXPECT_THROW(kernels::parse_tier("avx512"), InvalidArgument);
  EXPECT_THROW(kernels::parse_tier(""), InvalidArgument);
  for (SimdTier t : supported_tiers())
    EXPECT_EQ(kernels::parse_tier(kernels::to_string(t)), t);
}

TEST(Dispatch, ConfigurePublishesGauge) {
  TierGuard guard;
  for (SimdTier t : supported_tiers()) {
    kernels::configure(t);
    EXPECT_EQ(kernels::active_tier(), t);
    EXPECT_EQ(metrics::gauge("kernels.simd_tier").value(),
              static_cast<int>(t));
  }
}

TEST(Dispatch, DetectedTierIsSupportedAndScalarAlwaysAvailable) {
  EXPECT_TRUE(kernels::tier_supported(SimdTier::kScalar));
  EXPECT_TRUE(kernels::tier_supported(kernels::detected_tier()));
  // The active tier honors PUPPIES_SIMD when the harness sets it.
  if (const char* env = std::getenv("PUPPIES_SIMD")) {
    EXPECT_EQ(kernels::active_tier(), kernels::parse_tier(env));
  }
}

}  // namespace
}  // namespace puppies
