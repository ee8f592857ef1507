#include "puppies/jpeg/quant.h"

#include "puppies/common/error.h"
#include "puppies/jpeg/zigzag.h"

namespace puppies::jpeg {

namespace {

// Annex K tables in natural (row-major) order.
constexpr std::array<int, 64> kLumaBase = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaBase = {
    17, 18, 24, 47, 99, 99, 99, 99,  //
    18, 21, 26, 66, 99, 99, 99, 99,  //
    24, 26, 56, 99, 99, 99, 99, 99,  //
    47, 66, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99};

QuantTable scaled(const std::array<int, 64>& base, int quality) {
  require(quality >= 1 && quality <= 100, "JPEG quality must be in [1,100]");
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  QuantTable t;
  for (int z = 0; z < 64; ++z) {
    int v = (base[kZigzagToNatural[z]] * scale + 50) / 100;
    if (v < 1) v = 1;
    if (v > 255) v = 255;
    t.q[z] = static_cast<std::uint16_t>(v);
  }
  return t;
}

}  // namespace

QuantTable luma_quant_table(int quality) { return scaled(kLumaBase, quality); }
QuantTable chroma_quant_table(int quality) {
  return scaled(kChromaBase, quality);
}

QuantTable flat_quant_table(std::uint16_t step) {
  require(step >= 1, "quantizer step must be >= 1");
  QuantTable t;
  t.q.fill(step);
  return t;
}

kernels::QuantConstants quant_constants(const QuantTable& table) {
  kernels::QuantConstants qc;
  for (int z = 0; z < 64; ++z) {
    const int n = kZigzagToNatural[z];
    qc.recip[n] = 1.0 / static_cast<double>(table.q[z]);
    qc.step[n] = static_cast<float>(table.q[z]);
    qc.lo[n] = static_cast<float>(z == 0 ? kDcMin : kAcMin);
    qc.hi[n] = static_cast<float>(z == 0 ? kDcMax : kAcMax);
  }
  return qc;
}

std::array<std::int16_t, 64> quantize(const FloatBlock& raw,
                                      const QuantTable& table) {
  const kernels::QuantConstants qc = quant_constants(table);
  std::array<std::int16_t, 64> out{};
  kernels::active().quantize(raw.data(), qc, out.data());
  return out;
}

FloatBlock dequantize(const std::array<std::int16_t, 64>& block,
                      const QuantTable& table) {
  const kernels::QuantConstants qc = quant_constants(table);
  FloatBlock raw{};
  kernels::active().dequantize(block.data(), qc, raw.data());
  return raw;
}

}  // namespace puppies::jpeg
