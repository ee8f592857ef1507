#include "puppies/jpeg/huffman.h"

#include <climits>

#include "puppies/common/error.h"

namespace puppies::jpeg {

namespace {

HuffmanSpec make_spec(std::initializer_list<std::uint8_t> bits_1_to_16,
                      std::initializer_list<std::uint8_t> values) {
  HuffmanSpec s;
  int l = 1;
  for (std::uint8_t b : bits_1_to_16) s.bits[static_cast<std::size_t>(l++)] = b;
  s.values.assign(values);
  require(s.total_codes() == static_cast<int>(s.values.size()),
          "Huffman spec bits/values mismatch");
  return s;
}

}  // namespace

const HuffmanSpec& std_dc_luma() {
  static const HuffmanSpec spec = make_spec(
      {0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  return spec;
}

const HuffmanSpec& std_dc_chroma() {
  static const HuffmanSpec spec = make_spec(
      {0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  return spec;
}

const HuffmanSpec& std_ac_luma() {
  static const HuffmanSpec spec = make_spec(
      {0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d},
      {0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
       0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
       0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72,
       0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
       0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
       0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
       0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75,
       0x76, 0x77, 0x78, 0x79, 0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
       0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3,
       0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
       0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9,
       0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
       0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4,
       0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa});
  return spec;
}

const HuffmanSpec& std_ac_chroma() {
  static const HuffmanSpec spec = make_spec(
      {0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77},
      {0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
       0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
       0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1,
       0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
       0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
       0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
       0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74,
       0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
       0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a,
       0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
       0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
       0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
       0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4,
       0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa});
  return spec;
}

HuffmanSpec build_optimal_spec(const std::array<long, 256>& histogram) {
  // libjpeg's jpeg_gen_optimal_table: 257 pseudo-symbols, symbol 256 reserved
  // so no real symbol gets the all-ones code.
  std::array<long, 257> freq{};
  for (int i = 0; i < 256; ++i) freq[static_cast<std::size_t>(i)] = histogram[static_cast<std::size_t>(i)];
  freq[256] = 1;

  std::array<int, 257> codesize{};
  std::array<int, 257> others{};
  others.fill(-1);

  for (;;) {
    // Find the two least-frequent nonzero entries (c1 lowest, break ties by
    // larger symbol value per libjpeg). libjpeg starts the search at 1e9,
    // which leaves any entry (or merged subtree) counted above that out of
    // the tree, so a symbol can end up with no code. LONG_MAX picks the same
    // entries whenever the histogram's total stays below 1e9.
    int c1 = -1, c2 = -1;
    long v = LONG_MAX;
    for (int i = 0; i <= 256; ++i)
      if (freq[static_cast<std::size_t>(i)] && freq[static_cast<std::size_t>(i)] <= v) {
        v = freq[static_cast<std::size_t>(i)];
        c1 = i;
      }
    v = LONG_MAX;
    for (int i = 0; i <= 256; ++i)
      if (freq[static_cast<std::size_t>(i)] && freq[static_cast<std::size_t>(i)] <= v && i != c1) {
        v = freq[static_cast<std::size_t>(i)];
        c2 = i;
      }
    if (c2 < 0) break;

    freq[static_cast<std::size_t>(c1)] += freq[static_cast<std::size_t>(c2)];
    freq[static_cast<std::size_t>(c2)] = 0;
    ++codesize[static_cast<std::size_t>(c1)];
    while (others[static_cast<std::size_t>(c1)] >= 0) {
      c1 = others[static_cast<std::size_t>(c1)];
      ++codesize[static_cast<std::size_t>(c1)];
    }
    others[static_cast<std::size_t>(c1)] = c2;
    ++codesize[static_cast<std::size_t>(c2)];
    while (others[static_cast<std::size_t>(c2)] >= 0) {
      c2 = others[static_cast<std::size_t>(c2)];
      ++codesize[static_cast<std::size_t>(c2)];
    }
  }

  std::array<int, 33> bits{};
  for (int i = 0; i <= 256; ++i)
    if (codesize[static_cast<std::size_t>(i)]) {
      require(codesize[static_cast<std::size_t>(i)] <= 32, "huffman code too long");
      ++bits[static_cast<std::size_t>(codesize[static_cast<std::size_t>(i)])];
    }

  // Limit code lengths to 16 bits (libjpeg's adjustment).
  for (int l = 32; l > 16; --l) {
    while (bits[static_cast<std::size_t>(l)] > 0) {
      int j = l - 2;
      while (bits[static_cast<std::size_t>(j)] == 0) --j;
      bits[static_cast<std::size_t>(l)] -= 2;
      ++bits[static_cast<std::size_t>(l - 1)];
      bits[static_cast<std::size_t>(j + 1)] += 2;
      --bits[static_cast<std::size_t>(j)];
    }
  }
  // Remove the reserved symbol's code from the longest used length.
  int l = 16;
  while (l > 0 && bits[static_cast<std::size_t>(l)] == 0) --l;
  if (l > 0) --bits[static_cast<std::size_t>(l)];

  HuffmanSpec spec;
  for (int i = 1; i <= 16; ++i)
    spec.bits[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(bits[static_cast<std::size_t>(i)]);
  // Values sorted by code length, then by symbol value.
  for (int len = 1; len <= 32; ++len)
    for (int i = 0; i < 256; ++i)
      if (codesize[static_cast<std::size_t>(i)] == len)
        spec.values.push_back(static_cast<std::uint8_t>(i));
  require(spec.total_codes() == static_cast<int>(spec.values.size()),
          "optimal Huffman spec inconsistent");
  return spec;
}

void SymbolHistogram::merge(const SymbolHistogram& other) {
  for (int cls = 0; cls < 2; ++cls)
    for (int id = 0; id < 2; ++id)
      for (int s = 0; s < 256; ++s)
        freq[cls][id][static_cast<std::size_t>(s)] +=
            other.freq[cls][id][static_cast<std::size_t>(s)];
}

HuffmanEncoder::HuffmanEncoder(const HuffmanSpec& spec) {
  std::uint32_t code = 0;
  std::size_t k = 0;
  for (int len = 1; len <= 16; ++len) {
    for (int i = 0; i < spec.bits[static_cast<std::size_t>(len)]; ++i) {
      require(k < spec.values.size(), "Huffman spec truncated");
      const std::uint8_t sym = spec.values[k++];
      packed_[sym] = (code << 6) | static_cast<std::uint32_t>(len);
      ++code;
    }
    code <<= 1;
  }
}

void HuffmanEncoder::emit(BitWriter& out, std::uint8_t symbol) const {
  const std::uint32_t p = packed_[symbol];
  require(p != 0, "symbol has no Huffman code in this table");
  out.put(p >> 6, static_cast<int>(p & 63u));
}

HuffmanDecoder::HuffmanDecoder(const HuffmanSpec& spec)
    : values_(spec.values) {
  std::int32_t code = 0;
  std::int32_t val_index = 0;
  for (int len = 1; len <= 16; ++len) {
    const auto l = static_cast<std::size_t>(len);
    if (spec.bits[l] == 0) {
      maxcode_[l] = -1;
      mincode_[l] = 0;
      valptr_[l] = 0;
    } else {
      valptr_[l] = val_index;
      mincode_[l] = code;
      code += spec.bits[l];
      val_index += spec.bits[l];
      maxcode_[l] = code - 1;
    }
    code <<= 1;
  }

  // First-level LUT: every code of length <= 8 prefix-fills the 2^(8-len)
  // window entries it owns (canonical code enumeration, same as the encoder).
  std::uint32_t lut_code = 0;
  std::size_t k = 0;
  for (int len = 1; len <= 8; ++len) {
    for (int i = 0; i < spec.bits[static_cast<std::size_t>(len)]; ++i) {
      if (k >= spec.values.size()) return;  // corrupt spec: LUT stays partial
      const std::uint8_t sym = spec.values[k++];
      const int shift = 8 - len;
      const std::uint32_t base = lut_code << shift;
      if (base + (1u << shift) > 256) return;  // corrupt spec overflow
      for (std::uint32_t j = 0; j < (1u << shift); ++j) {
        lut_len_[base + j] = static_cast<std::uint8_t>(len);
        lut_sym_[base + j] = sym;
      }
      ++lut_code;
    }
    lut_code <<= 1;
  }
}

std::uint8_t HuffmanDecoder::decode(BitReader& in) const {
  std::uint32_t window = 0;
  if (in.peek(8, window)) {
    const int len = lut_len_[window];
    if (len != 0) {
      in.skip(len);
      return lut_sym_[window];
    }
    // Longer than 8 bits: the 8 peeked bits are consumed and extended a bit
    // at a time through the MAXCODE tables.
    in.skip(8);
    std::int32_t code = static_cast<std::int32_t>(window);
    for (int len2 = 9; len2 <= 16; ++len2) {
      code = (code << 1) | in.bit();
      const auto l = static_cast<std::size_t>(len2);
      if (maxcode_[l] >= 0 && code <= maxcode_[l] && code >= mincode_[l]) {
        const std::int32_t idx = valptr_[l] + (code - mincode_[l]);
        return values_[static_cast<std::size_t>(idx)];
      }
    }
    in.bit();  // a bit-serial reader consumes a 17th bit before giving up
    throw ParseError("invalid Huffman code");
  }
  // Fewer than 8 bits left before the end of the segment: bit-serial.
  std::int32_t code = in.bit();
  for (int len = 1; len <= 16; ++len) {
    const auto l = static_cast<std::size_t>(len);
    if (maxcode_[l] >= 0 && code <= maxcode_[l] && code >= mincode_[l]) {
      const std::int32_t idx = valptr_[l] + (code - mincode_[l]);
      return values_[static_cast<std::size_t>(idx)];
    }
    code = (code << 1) | in.bit();
  }
  throw ParseError("invalid Huffman code");
}

}  // namespace puppies::jpeg
