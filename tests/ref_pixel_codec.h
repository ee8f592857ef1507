// Test-side reference pixel codec: the seed whole-image algorithm that the
// band pipeline (jpeg/chunk.cpp) must reproduce bit for bit, kept as the
// differential suites' independent oracle the way tests/test_encode.cpp keeps
// its seed entropy encoder. It runs serially over whole planes, reads every
// block tap through Plane::clamped_at, clamps every vertical resampling tap
// itself, and shares only the per-block and per-row kernels of
// kernels::active() with the library (tests_kernels pins those per tier).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "puppies/image/image.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/dct.h"
#include "puppies/jpeg/quant.h"
#include "puppies/kernels/kernels.h"

namespace puppies::ref {

/// DCT + quantize every block of `plane` into `comp`; a non-null `masks`
/// receives the per-block nonzero masks in block row-major order.
inline void encode_plane(const Plane<float>& plane, jpeg::Component& comp,
                         const jpeg::QuantTable& qt,
                         std::vector<std::uint64_t>* masks = nullptr) {
  const kernels::QuantConstants qc = jpeg::quant_constants(qt);
  const kernels::KernelTable& k = kernels::active();
  if (masks) masks->assign(comp.blocks.size(), 0);
  jpeg::FloatBlock samples, coeffs;
  for (int by = 0; by < comp.blocks_h; ++by)
    for (int bx = 0; bx < comp.blocks_w; ++bx) {
      for (int i = 0; i < 64; ++i)
        samples[static_cast<std::size_t>(i)] =
            plane.clamped_at(bx * 8 + i % 8, by * 8 + i / 8) - 128.f;
      k.fdct8x8(samples.data(), coeffs.data());
      const std::uint64_t m =
          k.quantize_scan(coeffs.data(), qc, comp.block(bx, by).data());
      if (masks)
        (*masks)[static_cast<std::size_t>(by * comp.blocks_w + bx)] = m;
    }
}

/// The seed forward_transform: unclamped float YCbCr -> coefficients, with
/// 2x box decimation of 4:2:0 chroma (odd tails clamped).
inline jpeg::CoefficientImage forward(
    const YccImage& img, int quality,
    jpeg::ChromaMode mode = jpeg::ChromaMode::k444,
    jpeg::ScanIndex* scan = nullptr) {
  jpeg::CoefficientImage out(img.width(), img.height(), 3,
                             jpeg::luma_quant_table(quality),
                             jpeg::chroma_quant_table(quality), mode);
  if (scan) scan->masks.resize(3);
  const kernels::KernelTable& k = kernels::active();
  for (int c = 0; c < 3; ++c) {
    Plane<float> plane = img.component(c);
    if (c > 0 && mode == jpeg::ChromaMode::k420) {
      Plane<float> half((plane.width() + 1) / 2, (plane.height() + 1) / 2);
      for (int y = 0; y < half.height(); ++y)
        k.downsample2x_row(plane.row(2 * y).data(),
                           plane.row(std::min(2 * y + 1, plane.height() - 1))
                               .data(),
                           plane.width(), half.width(), half.row(y).data());
      plane = std::move(half);
    }
    encode_plane(plane, out.component(c), out.qtable_for(c),
                 scan ? &scan->masks[static_cast<std::size_t>(c)] : nullptr);
  }
  return out;
}

/// The seed inverse_transform: coefficients -> unclamped float YCbCr, with
/// bilinear upsampling of subsampled chroma (vertical taps clamped here,
/// horizontal ones in the row kernel).
inline YccImage inverse(const jpeg::CoefficientImage& coeffs) {
  const int w = coeffs.width(), h = coeffs.height();
  const kernels::KernelTable& k = kernels::active();
  YccImage out(w, h);
  for (int c = 0; c < 3; ++c) {
    const jpeg::Component& comp = coeffs.component(c);
    const int cw = (w * comp.h + coeffs.h_max() - 1) / coeffs.h_max();
    const int ch = (h * comp.v + coeffs.v_max() - 1) / coeffs.v_max();
    const kernels::QuantConstants qc =
        jpeg::quant_constants(coeffs.qtable_for(c));
    Plane<float> plane(cw, ch);
    jpeg::FloatBlock samples;
    for (int by = 0; by < comp.blocks_h; ++by)
      for (int bx = 0; bx < comp.blocks_w; ++bx) {
        k.dequantize_idct(comp.block(bx, by).data(), qc, samples.data());
        for (int i = 0; i < 64; ++i) {
          const int x = bx * 8 + i % 8, y = by * 8 + i / 8;
          if (x < cw && y < ch)
            plane.at(x, y) = samples[static_cast<std::size_t>(i)] + 128.f;
        }
      }
    if (cw != w || ch != h) {
      Plane<float> full(w, h);
      const float sx = static_cast<float>(cw) / w;
      const float sy = static_cast<float>(ch) / h;
      for (int y = 0; y < h; ++y) {
        const float fy = (y + 0.5f) * sy - 0.5f;
        const int t = static_cast<int>(std::floor(fy));
        k.upsample_row(plane.row(std::clamp(t, 0, ch - 1)).data(),
                       plane.row(std::clamp(t + 1, 0, ch - 1)).data(), cw, sx,
                       fy - t, w, full.row(y).data());
      }
      plane = std::move(full);
    }
    out.component(c) = std::move(plane);
  }
  return out;
}

}  // namespace puppies::ref
