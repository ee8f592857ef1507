#include "puppies/jpeg/lossless.h"

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/zigzag.h"

namespace puppies::jpeg {

namespace {

/// How `e` moves the coefficients of one block, in zig-zag order:
/// out[z] = sign[z] * in[from[z]].
struct BlockMap {
  std::array<std::uint8_t, 64> from{};
  std::array<std::int16_t, 64> sign{};
};

BlockMap block_map(const Dihedral& e) {
  // Mirroring a pixel axis negates that axis's odd frequencies; swapping
  // the axes swaps the frequencies. Output pixel (0, 0) comes from source
  // pixel 7 on each mirrored source axis.
  const auto [x0, y0] = e.inverse().map_point(0, 0, 8, 8);
  BlockMap m;
  for (std::size_t z = 0; z < 64; ++z) {
    const int n = kZigzagToNatural[z];
    const int u = e.transposes() ? n / 8 : n % 8;  // source frequencies
    const int v = e.transposes() ? n % 8 : n / 8;
    const bool negate = (x0 == 7 && u % 2 == 1) != (y0 == 7 && v % 2 == 1);
    m.from[z] = static_cast<std::uint8_t>(
        kNaturalToZigzag[static_cast<std::size_t>(v * 8 + u)]);
    m.sign[z] = negate ? -1 : 1;
  }
  return m;
}

/// A quant table follows its coefficients (Annex-K tables are not
/// symmetric, so a transposing element transposes them too).
QuantTable permuted(const QuantTable& t, const BlockMap& m) {
  QuantTable out;
  for (std::size_t z = 0; z < 64; ++z) out.q[z] = t.q[m.from[z]];
  return out;
}

}  // namespace

CoefficientImage remap(const CoefficientImage& img, const Rect& window,
                       const Dihedral& e) {
  require(!img.subsampled(),
          "lossless coefficient transforms require 4:4:4 (transcode "
          "subsampled images through the pixel path)");
  require(img.bounds().contains(window), "crop rect outside image");
  require(window.x % 8 == 0 && window.y % 8 == 0 && window.w % 8 == 0 &&
              window.h % 8 == 0,
          "lossless flip/rotate requires multiple-of-8 dimensions");

  const auto [ow, oh] = e.size(window.w, window.h);
  const BlockMap m = block_map(e);
  CoefficientImage out(ow, oh, img.component_count(),
                       permuted(img.qtable(0), m), permuted(img.qtable(1), m));
  for (int c = 0; c < img.component_count(); ++c)
    out.component(c).quant_index = img.component(c).quant_index;

  // The source block of output block (ox, oy) is affine in (ox, oy); read
  // origin and steps off the inverse element's map of the output block grid.
  const int obw = ow / 8, obh = oh / 8;
  const Dihedral inv = e.inverse();
  const auto [x0, y0] = inv.map_point(0, 0, obw, obh);
  const auto [x1, y1] = inv.map_point(1, 0, obw, obh);
  const auto [x2, y2] = inv.map_point(0, 1, obw, obh);
  const int sx0 = window.x / 8 + x0, sy0 = window.y / 8 + y0;
  // Output block rows are independent; each writes only its own blocks.
  exec::parallel_for(static_cast<std::size_t>(obh), [&](std::size_t row) {
    const int oy = static_cast<int>(row);
    for (int c = 0; c < out.component_count(); ++c) {
      const Component& src = img.component(c);
      CoefBlock* dst = out.component(c).blocks.data() + row * obw;
      for (int ox = 0; ox < obw; ++ox) {
        const int sx = sx0 + ox * (x1 - x0) + oy * (x2 - x0);
        const int sy = sy0 + ox * (y1 - y0) + oy * (y2 - y0);
        const CoefBlock& b =
            src.blocks[static_cast<std::size_t>(sy) * src.blocks_w + sx];
        for (std::size_t z = 0; z < 64; ++z)
          dst[ox][z] = static_cast<std::int16_t>(m.sign[z] * b[m.from[z]]);
      }
    }
  });
  return out;
}

}  // namespace puppies::jpeg
