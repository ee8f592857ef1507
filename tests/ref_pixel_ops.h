// Test-side reference pixel steps: the seed whole-plane bilinear resample
// and 3x3 convolution that the row kernels of transform.cpp (shared by
// transform::apply and the streamed re-encode) must reproduce bit for bit.
// Like ref_pixel_codec.h it is the differential suites' independent oracle:
// it runs serially, computes every tap's position per pixel and reads every
// tap through Plane::clamped_at.
#pragma once

#include <array>
#include <cmath>

#include "puppies/image/image.h"

namespace puppies::ref {

/// Bilinear resize of `in` to nw x nh, pixel centers aligned.
inline Plane<float> scale_plane(const Plane<float>& in, int nw, int nh) {
  Plane<float> out(nw, nh, 0.f);
  const float sx = static_cast<float>(in.width()) / nw;
  const float sy = static_cast<float>(in.height()) / nh;
  for (int y = 0; y < nh; ++y) {
    const float fy = (y + 0.5f) * sy - 0.5f;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - y0;
    for (int x = 0; x < nw; ++x) {
      const float fx = (x + 0.5f) * sx - 0.5f;
      const int x0 = static_cast<int>(std::floor(fx));
      const float wx = fx - x0;
      const float a = in.clamped_at(x0, y0);
      const float b = in.clamped_at(x0 + 1, y0);
      const float c = in.clamped_at(x0, y0 + 1);
      const float d = in.clamped_at(x0 + 1, y0 + 1);
      out.at(x, y) =
          a * (1 - wx) * (1 - wy) + b * wx * (1 - wy) + c * (1 - wx) * wy +
          d * wx * wy;
    }
  }
  return out;
}

/// 3x3 convolution of `in` with `k` (row-major taps), borders replicated.
inline Plane<float> convolve_plane(const Plane<float>& in,
                                   const std::array<float, 9>& k) {
  Plane<float> out(in.width(), in.height(), 0.f);
  for (int y = 0; y < in.height(); ++y)
    for (int x = 0; x < in.width(); ++x) {
      float acc = 0;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          acc += k[static_cast<std::size_t>((dy + 1) * 3 + (dx + 1))] *
                 in.clamped_at(x + dx, y + dy);
      out.at(x, y) = acc;
    }
  return out;
}

}  // namespace puppies::ref
