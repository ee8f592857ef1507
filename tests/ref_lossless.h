// Test-side reference lossless transforms: the seed jpegtran-style passes
// that jpeg::remap (src/jpeg/lossless.cpp) must reproduce exactly, kept as
// the differential suite's independent oracle the way
// tests/ref_pixel_codec.h keeps the seed pixel codec. Each D4 generator is
// its own whole-image pass with a zig-zag -> natural -> zig-zag round trip
// per block; rotations compose those passes (rot90 = flip_h . transpose).
#pragma once

#include <array>
#include <cstdint>

#include "puppies/jpeg/coeffs.h"
#include "puppies/jpeg/zigzag.h"

namespace puppies::ref {

using jpeg::CoefBlock;
using jpeg::CoefficientImage;
using jpeg::Component;
using jpeg::QuantTable;
using jpeg::kNaturalToZigzag;
using jpeg::kZigzagToNatural;

inline void check_block_aligned(const CoefficientImage& img) {
  require(!img.subsampled(),
          "lossless coefficient transforms require 4:4:4 (transcode "
          "subsampled images through the pixel path)");
  require(img.width() % 8 == 0 && img.height() % 8 == 0,
          "lossless flip/rotate requires multiple-of-8 dimensions");
}

// Natural-order views of a zig-zag block.
inline std::array<std::int16_t, 64> to_natural(const CoefBlock& z) {
  std::array<std::int16_t, 64> n{};
  for (int i = 0; i < 64; ++i)
    n[static_cast<std::size_t>(kZigzagToNatural[static_cast<std::size_t>(i)])] =
        z[static_cast<std::size_t>(i)];
  return n;
}

inline CoefBlock to_zigzag(const std::array<std::int16_t, 64>& n) {
  CoefBlock z{};
  for (int i = 0; i < 64; ++i)
    z[static_cast<std::size_t>(i)] =
        n[static_cast<std::size_t>(kZigzagToNatural[static_cast<std::size_t>(i)])];
  return z;
}

inline CoefBlock block_flip_h(const CoefBlock& b) {
  auto n = to_natural(b);
  for (int v = 0; v < 8; ++v)
    for (int u = 1; u < 8; u += 2) n[static_cast<std::size_t>(v * 8 + u)] =
        static_cast<std::int16_t>(-n[static_cast<std::size_t>(v * 8 + u)]);
  return to_zigzag(n);
}

inline CoefBlock block_flip_v(const CoefBlock& b) {
  auto n = to_natural(b);
  for (int v = 1; v < 8; v += 2)
    for (int u = 0; u < 8; ++u) n[static_cast<std::size_t>(v * 8 + u)] =
        static_cast<std::int16_t>(-n[static_cast<std::size_t>(v * 8 + u)]);
  return to_zigzag(n);
}

inline CoefBlock block_transpose(const CoefBlock& b) {
  auto n = to_natural(b);
  std::array<std::int16_t, 64> t{};
  for (int v = 0; v < 8; ++v)
    for (int u = 0; u < 8; ++u)
      t[static_cast<std::size_t>(u * 8 + v)] = n[static_cast<std::size_t>(v * 8 + u)];
  return to_zigzag(t);
}

inline CoefficientImage like(const CoefficientImage& img, int w, int h) {
  CoefficientImage out(w, h, img.component_count(), img.qtable(0),
                       img.qtable(1));
  for (int c = 0; c < img.component_count(); ++c)
    out.component(c).quant_index = img.component(c).quant_index;
  return out;
}

/// Annex-K tables are not symmetric, so transposing coefficients requires
/// transposing the quantizer steps with them (as jpegtran does).
inline QuantTable transpose_qtable(const QuantTable& t) {
  QuantTable out;
  for (int z = 0; z < 64; ++z) {
    const int n = kZigzagToNatural[static_cast<std::size_t>(z)];
    const int transposed = (n % 8) * 8 + (n / 8);
    out.q[static_cast<std::size_t>(kNaturalToZigzag[static_cast<std::size_t>(transposed)])] =
        t.q[static_cast<std::size_t>(z)];
  }
  return out;
}

inline CoefficientImage flip_horizontal(const CoefficientImage& img) {
  check_block_aligned(img);
  CoefficientImage out = like(img, img.width(), img.height());
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < src.blocks_h; ++by)
      for (int bx = 0; bx < src.blocks_w; ++bx)
        dst.block(src.blocks_w - 1 - bx, by) = block_flip_h(src.block(bx, by));
  }
  return out;
}

inline CoefficientImage flip_vertical(const CoefficientImage& img) {
  check_block_aligned(img);
  CoefficientImage out = like(img, img.width(), img.height());
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < src.blocks_h; ++by)
      for (int bx = 0; bx < src.blocks_w; ++bx)
        dst.block(bx, src.blocks_h - 1 - by) = block_flip_v(src.block(bx, by));
  }
  return out;
}

inline CoefficientImage transpose(const CoefficientImage& img) {
  check_block_aligned(img);
  CoefficientImage out = like(img, img.height(), img.width());
  out.qtable(0) = transpose_qtable(img.qtable(0));
  out.qtable(1) = transpose_qtable(img.qtable(1));
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < src.blocks_h; ++by)
      for (int bx = 0; bx < src.blocks_w; ++bx)
        dst.block(by, bx) = block_transpose(src.block(bx, by));
  }
  return out;
}

inline CoefficientImage rotate90(const CoefficientImage& img) {
  return flip_horizontal(transpose(img));
}

inline CoefficientImage rotate180(const CoefficientImage& img) {
  return flip_vertical(flip_horizontal(img));
}

inline CoefficientImage rotate270(const CoefficientImage& img) {
  return flip_vertical(transpose(img));
}

inline CoefficientImage crop_aligned(const CoefficientImage& img, const Rect& r) {
  require(!img.subsampled(),
          "lossless crop requires 4:4:4 (transcode subsampled images "
          "through the pixel path)");
  require(img.bounds().contains(r), "crop rect outside image");
  const Rect br = CoefficientImage::pixel_to_block_rect(r);
  CoefficientImage out = like(img, r.w, r.h);
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < dst.blocks_h; ++by)
      for (int bx = 0; bx < dst.blocks_w; ++bx)
        dst.block(bx, by) = src.block(br.x + bx, br.y + by);
  }
  return out;
}

}  // namespace puppies::ref
