#include "puppies/transform/transform.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/lossless.h"

namespace puppies::transform {

namespace {

/// The rotations and flips: the contiguous Kind range kRotate90..kFlipV.
bool is_rot_or_flip(Kind k) {
  return k >= Kind::kRotate90 && k <= Kind::kFlipV;
}

}  // namespace

bool Step::lossless() const {
  return kind == Kind::kIdentity || kind == Kind::kCropAligned ||
         is_rot_or_flip(kind);
}

bool Step::linear() const {
  // Everything except requantization is linear in pixel values; requantize
  // rounds. (Crop/rotate/flip are linear as maps between pixel vectors.)
  return kind != Kind::kRecompress;
}

std::string Step::to_string() const {
  switch (kind) {
    case Kind::kIdentity:
      return "identity";
    case Kind::kScale:
      return "scale(" + std::to_string(arg0) + "x" + std::to_string(arg1) + ")";
    case Kind::kCropAligned:
      return "crop" + rect.to_string();
    case Kind::kRotate90:
      return "rotate90";
    case Kind::kRotate180:
      return "rotate180";
    case Kind::kRotate270:
      return "rotate270";
    case Kind::kFlipH:
      return "flip_h";
    case Kind::kFlipV:
      return "flip_v";
    case Kind::kFilter3x3:
      return "filter3x3";
    case Kind::kRecompress:
      return "recompress(q=" + std::to_string(arg0) + ")";
  }
  return "?";
}

Step identity() { return Step{}; }

Step scale(int new_w, int new_h) {
  require(new_w > 0 && new_h > 0, "scale target must be positive");
  Step s;
  s.kind = Kind::kScale;
  s.arg0 = new_w;
  s.arg1 = new_h;
  return s;
}

Step crop_aligned(const Rect& r) {
  require(r.x % 8 == 0 && r.y % 8 == 0 && r.w % 8 == 0 && r.h % 8 == 0,
          "crop rect must be 8-aligned");
  require(r.x >= 0 && r.y >= 0 && !r.empty(),
          "crop rect must be non-empty at a non-negative origin");
  Step s;
  s.kind = Kind::kCropAligned;
  s.rect = r;
  return s;
}

Dihedral dihedral(Kind kind) {
  require(is_rot_or_flip(kind), "not a rotation/flip");
  // rotate 90/180/270, flip_h, and flip_v (a half turn after flip_h).
  constexpr Dihedral kElements[] = {
      {1, false}, {2, false}, {3, false}, {0, true}, {2, true}};
  return kElements[static_cast<int>(kind) - static_cast<int>(Kind::kRotate90)];
}

Step rotate(int degrees_cw) {
  Step s;
  switch (degrees_cw) {
    case 90:
      s.kind = Kind::kRotate90;
      break;
    case 180:
      s.kind = Kind::kRotate180;
      break;
    case 270:
      s.kind = Kind::kRotate270;
      break;
    default:
      throw InvalidArgument("rotate supports 90/180/270 degrees");
  }
  return s;
}

Step flip_h() {
  Step s;
  s.kind = Kind::kFlipH;
  return s;
}

Step flip_v() {
  Step s;
  s.kind = Kind::kFlipV;
  return s;
}

Step filter3x3(const std::array<float, 9>& kernel) {
  Step s;
  s.kind = Kind::kFilter3x3;
  s.kernel = kernel;
  return s;
}

Step box_blur() {
  constexpr float k = 1.f / 9.f;
  return filter3x3({k, k, k, k, k, k, k, k, k});
}

Step sharpen() {
  return filter3x3({0, -1, 0, -1, 5, -1, 0, -1, 0});
}

Step recompress(int quality) {
  require(quality >= 1 && quality <= 100, "recompress quality");
  Step s;
  s.kind = Kind::kRecompress;
  s.arg0 = quality;
  return s;
}

namespace {

/// The bilinear taps of a resample from n to m samples along one axis:
/// output i blends clamped inputs a[i] and b[i] = clamp(a + 1) with weight
/// t[i] on b — the floor and clamp of the continuous map, once per index.
struct BilinearTaps {
  std::vector<int> a, b;
  std::vector<float> t;
};

BilinearTaps bilinear_taps(int n, int m) {
  BilinearTaps k{std::vector<int>(static_cast<std::size_t>(m)),
                 std::vector<int>(static_cast<std::size_t>(m)),
                 std::vector<float>(static_cast<std::size_t>(m))};
  const float s = static_cast<float>(n) / m;
  const auto clamp = [n](int v) { return v < 0 ? 0 : (v >= n ? n - 1 : v); };
  for (int i = 0; i < m; ++i) {
    const float f = (i + 0.5f) * s - 0.5f;
    const int i0 = static_cast<int>(std::floor(f));
    k.a[static_cast<std::size_t>(i)] = clamp(i0);
    k.b[static_cast<std::size_t>(i)] = clamp(i0 + 1);
    k.t[static_cast<std::size_t>(i)] = f - i0;
  }
  return k;
}

/// One output row of a bilinear resample: rows r0/r1 are the clamped
/// vertical taps, wy the weight on r1.
void bilinear_row(const float* r0, const float* r1, float wy,
                  const BilinearTaps& cols, float* out) {
  const float uy = 1 - wy;
  const std::size_t n = cols.t.size();
  for (std::size_t x = 0; x < n; ++x) {
    const int xa = cols.a[x], xb = cols.b[x];
    const float wx = cols.t[x], ux = 1 - wx;
    out[x] = r0[xa] * ux * uy + r0[xb] * wx * uy + r1[xa] * ux * wy +
             r1[xb] * wx * wy;
  }
}

/// One output row of a 3x3 convolution with replicated borders: rows
/// up/mid/down are the clamped rows y-1, y, y+1. Taps accumulate row-major
/// from 0, as a clamped per-pixel read would.
void filter_row(const float* __restrict up, const float* __restrict mid,
                const float* __restrict down, int w,
                const std::array<float, 9>& k, float* __restrict out) {
  const float* rows[3] = {up, mid, down};
  const auto edge = [&](int x) {
    float acc = 0;
    for (int dy = 0; dy < 3; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        const int c = std::clamp(x + dx, 0, w - 1);
        acc += k[static_cast<std::size_t>(dy * 3 + dx + 1)] * rows[dy][c];
      }
    return acc;
  };
  out[0] = edge(0);
  if (w > 1) out[w - 1] = edge(w - 1);
  // Interior columns: every tap in range, fixed order, no clamps.
  const float k0 = k[0], k1 = k[1], k2 = k[2], k3 = k[3], k4 = k[4],
              k5 = k[5], k6 = k[6], k7 = k[7], k8 = k[8];
  for (int x = 1; x < w - 1; ++x) {
    float acc = 0;
    acc += k0 * up[x - 1];
    acc += k1 * up[x];
    acc += k2 * up[x + 1];
    acc += k3 * mid[x - 1];
    acc += k4 * mid[x];
    acc += k5 * mid[x + 1];
    acc += k6 * down[x - 1];
    acc += k7 * down[x];
    acc += k8 * down[x + 1];
    out[x] = acc;
  }
}

/// n samples of a line through a plane: d[x] = s[x * step].
void remap_row(const float* s, std::ptrdiff_t step, std::ptrdiff_t n,
               float* d) {
  for (std::ptrdiff_t x = 0; x < n; ++x) d[x] = s[x * step];
}

/// The row stage of a scale or filter step over a w x h plane: the one
/// arithmetic both the whole-plane apply and the streamed re-encode run.
jpeg::RowStage pixel_stage(const Step& s, int w, int h) {
  jpeg::RowStage st;
  if (s.kind == Kind::kScale) {
    st.out_w = s.arg0;
    st.out_h = s.arg1;
    auto rows = std::make_shared<const BilinearTaps>(bilinear_taps(h, s.arg1));
    auto cols = std::make_shared<const BilinearTaps>(bilinear_taps(w, s.arg0));
    st.reads = [rows](int y) {
      const auto i = static_cast<std::size_t>(y);
      return std::pair{rows->a[i], rows->b[i]};
    };
    st.row = [rows, cols](const jpeg::RowWindow& in, int y, float* out) {
      const auto i = static_cast<std::size_t>(y);
      bilinear_row(in.row(rows->a[i]), in.row(rows->b[i]), rows->t[i], *cols,
                   out);
    };
    return st;
  }
  require(s.kind == Kind::kFilter3x3, "not a row-local pixel step");
  st.out_w = w;
  st.out_h = h;
  st.reads = [h](int y) {
    return std::pair{std::max(y - 1, 0), std::min(y + 1, h - 1)};
  };
  st.row = [h, w, k = s.kernel](const jpeg::RowWindow& in, int y, float* out) {
    filter_row(in.row(std::max(y - 1, 0)), in.row(y),
               in.row(std::min(y + 1, h - 1)), w, k, out);
  };
  return st;
}

/// `st` over whole planes: each output row written once, from rows of the
/// full input plane.
YccImage run_stage(const jpeg::RowStage& st, const YccImage& img) {
  YccImage out(st.out_w, st.out_h, kUninitialized);
  const std::size_t n = static_cast<std::size_t>(st.out_h);
  exec::parallel_for(3 * n, [&](std::size_t job) {
    const int c = static_cast<int>(job / n);
    const int y = static_cast<int>(job % n);
    const Plane<float>& in = img.component(c);
    jpeg::RowWindow win{in.pixels().data(), in.height(),
                        static_cast<std::size_t>(in.width())};
    std::tie(win.first, win.last) = st.reads(y);
    st.row(win, y, out.component(c).row(y).data());
  });
  return out;
}

/// `e` applied to the `window` of `in`: one pass, each output row written
/// once from a line of source pixels whose start and step the inverse
/// element's map gives.
Plane<float> remap_plane(const Plane<float>& in, const Rect& window,
                         const Dihedral& e) {
  const auto [ow, oh] = e.size(window.w, window.h);
  Plane<float> out(ow, oh, kUninitialized);
  const Dihedral inv = e.inverse();
  const auto [x0, y0] = inv.map_point(0, 0, ow, oh);
  const auto [x1, y1] = inv.map_point(1, 0, ow, oh);
  const auto [x2, y2] = inv.map_point(0, 1, ow, oh);
  const std::ptrdiff_t stride = in.width();
  const std::ptrdiff_t step = (y1 - y0) * stride + (x1 - x0);
  const float* src = in.pixels().data();
  exec::parallel_for(static_cast<std::size_t>(oh), [&](std::size_t row) {
    const auto oy = static_cast<std::ptrdiff_t>(row);
    remap_row(src + (window.y + y0 + oy * (y2 - y0)) * stride + window.x +
                  x0 + oy * (x2 - x0),
              step, ow, out.row(static_cast<int>(row)).data());
  });
  return out;
}

/// A run of identity/rotate/flip/crop steps folded into one remap: the
/// output is `element` applied to the `window` of the run's input. A D4
/// element maps an axis-aligned rect to an axis-aligned rect, so a crop
/// after any rotations and flips pulls back to a window of the input, and
/// the whole run costs one pass.
struct Remap {
  Rect window;
  Dihedral element;
  bool moved = false;  ///< any non-identity step (else the run is a no-op)
};

/// Folds `run` over a w x h input. `check(step, w, h)` vets each
/// non-identity step against the size it sees, before it folds and before
/// anything is allocated.
template <typename Check>
Remap fold(std::span<const Step> run, int w, int h, Check&& check) {
  Remap m{Rect{0, 0, w, h}, Dihedral{}};
  for (const Step& s : run) {
    if (s.kind == Kind::kIdentity) continue;
    check(s, w, h);
    m.moved = true;
    if (s.kind == Kind::kCropAligned) {
      const Rect r = m.element.inverse().map_rect(s.rect, w, h);
      m.window = Rect{m.window.x + r.x, m.window.y + r.y, r.w, r.h};
    } else {
      m.element = m.element.compose(dihedral(s.kind));
    }
    std::tie(w, h) = map_size(s, w, h);
  }
  return m;
}

/// Folds a run of lossless steps in the pixel domain, where only a crop has
/// a precondition.
Remap fold_pixels(std::span<const Step> run, int w, int h) {
  return fold(run, w, h, [](const Step& s, int pw, int ph) {
    if (s.kind == Kind::kCropAligned)
      require(Rect{0, 0, pw, ph}.contains(s.rect), "crop rect outside image");
  });
}

/// The row stage of a folded run that keeps rows whole — a window, flipped
/// horizontally or not.
jpeg::RowStage remap_stage(const Remap& m) {
  jpeg::RowStage st;
  st.out_w = m.window.w;
  st.out_h = m.window.h;
  const int y0 = m.window.y;
  st.reads = [y0](int y) { return std::pair{y0 + y, y0 + y}; };
  const bool flip = m.element.flipped;
  st.row = [y0, flip, x0 = m.window.x, w = m.window.w](
               const jpeg::RowWindow& in, int y, float* out) {
    remap_row(in.row(y0 + y) + x0 + (flip ? w - 1 : 0), flip ? -1 : 1, w,
              out);
  };
  return st;
}

/// Refuses a chain any of whose intermediate images would exceed
/// max_decode_pixels(), walking map_size before anything is allocated: a
/// scale(60000, 60000) of a thumbnail is a bad request, not a 43 GB plane.
void require_bounded_sizes(std::span<const Step> chain, int w, int h) {
  for (const Step& s : chain) {
    std::tie(w, h) = map_size(s, w, h);
    const std::uint64_t pixels =
        static_cast<std::uint64_t>(std::max(w, 0)) *
        static_cast<std::uint64_t>(std::max(h, 0));
    require(w > 0 && h > 0 && pixels <= jpeg::max_decode_pixels(),
            "transform step " + s.to_string() + " yields a " +
                std::to_string(w) + "x" + std::to_string(h) +
                " image, outside the limit of " +
                std::to_string(jpeg::max_decode_pixels()) +
                " pixels (PUPPIES_MAX_PIXELS)");
  }
}

/// One non-lossless step over whole planes.
YccImage apply_pixel_step(const Step& step, const YccImage& img) {
  if (step.kind == Kind::kRecompress) {
    // Pixel-domain stand-in for requantization: round trip through the
    // coefficient domain at the new quality.
    const jpeg::CoefficientImage c = jpeg::forward_transform(img, step.arg0);
    return jpeg::inverse_transform(c);
  }
  if (step.kind == Kind::kScale || step.kind == Kind::kFilter3x3)
    return run_stage(pixel_stage(step, img.width(), img.height()), img);
  throw InvalidArgument("unknown transform step");
}

/// A folded lossless run over whole planes, one pass per plane.
YccImage remap_image(const YccImage& img, const Remap& m) {
  YccImage out;
  for (int c = 0; c < 3; ++c)
    out.component(c) = remap_plane(img.component(c), m.window, m.element);
  return out;
}

}  // namespace

YccImage apply(const Step& step, const YccImage& img) {
  require_bounded_sizes({&step, 1}, img.width(), img.height());
  if (!step.lossless()) return apply_pixel_step(step, img);
  const Remap m = fold_pixels({&step, 1}, img.width(), img.height());
  return m.moved ? remap_image(img, m) : img;
}

YccImage apply(const Chain& chain, YccImage img) {
  require_bounded_sizes(chain, img.width(), img.height());
  for (auto it = chain.begin(); it != chain.end();) {
    if (!it->lossless()) {
      img = apply_pixel_step(*it++, img);
      continue;
    }
    const auto end = std::find_if(
        it, chain.end(), [](const Step& s) { return !s.lossless(); });
    const Remap m = fold_pixels({it, end}, img.width(), img.height());
    if (m.moved) img = remap_image(img, m);
    it = end;
  }
  return img;
}

bool streamable(const Chain& chain) {
  // Each run of rotations/flips must fold to the identity or flip_h: those
  // keep every output row inside one input row.
  Dihedral run;
  for (const Step& s : chain) {
    if (is_rot_or_flip(s.kind)) {
      run = run.compose(dihedral(s.kind));
    } else if (s.kind == Kind::kScale || s.kind == Kind::kFilter3x3) {
      if (run.quarter_turns != 0) return false;
      run = Dihedral{};
    } else if (s.kind == Kind::kRecompress) {
      return false;
    }
  }
  return run.quarter_turns == 0;
}

jpeg::CoefficientImage reencode_streamed(const Chain& chain,
                                         const jpeg::CoefficientImage& coeffs,
                                         int quality, jpeg::ChromaMode mode,
                                         const jpeg::ChunkOptions& copt,
                                         jpeg::ScanIndex* scan,
                                         jpeg::ChunkStats* stats) {
  require(streamable(chain), "transform chain does not stream");
  int w = coeffs.width(), h = coeffs.height();
  require_bounded_sizes(chain, w, h);
  std::vector<jpeg::RowStage> stages;
  for (auto it = chain.begin(); it != chain.end();) {
    if (!it->lossless()) {
      stages.push_back(pixel_stage(*it, w, h));
      std::tie(w, h) = map_size(*it++, w, h);
      continue;
    }
    const auto end = std::find_if(
        it, chain.end(), [](const Step& s) { return !s.lossless(); });
    const Remap m = fold_pixels({it, end}, w, h);
    if (m.window != Rect{0, 0, w, h} || m.element.flipped)
      stages.push_back(remap_stage(m));
    w = m.window.w;
    h = m.window.h;
    it = end;
  }
  return jpeg::reencode_chunked(coeffs, stages, quality, mode, copt, scan,
                                stats);
}

jpeg::CoefficientImage apply_lossless(const Step& step,
                                      const jpeg::CoefficientImage& img) {
  return apply_lossless(Chain{step}, img);
}

jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      const jpeg::CoefficientImage& img,
                                      jpeg::DirtyMcuSet* dirty) {
  // Each step's refusal, in the order and words of a step-by-step apply.
  const Remap m = fold(
      chain, img.width(), img.height(), [&](const Step& s, int w, int h) {
        if (!s.lossless())
          throw InvalidArgument("transform step is not lossless: " +
                                s.to_string());
        if (s.kind == Kind::kCropAligned) {
          require(!img.subsampled(),
                  "lossless crop requires 4:4:4 (transcode subsampled "
                  "images through the pixel path)");
          require(Rect{0, 0, w, h}.contains(s.rect), "crop rect outside image");
          (void)jpeg::CoefficientImage::pixel_to_block_rect(s.rect);  // aligned
        } else {
          require(!img.subsampled(),
                  "lossless coefficient transforms require 4:4:4 (transcode "
                  "subsampled images through the pixel path)");
          require(w % 8 == 0 && h % 8 == 0,
                  "lossless flip/rotate requires multiple-of-8 dimensions");
        }
      });
  jpeg::CoefficientImage out =
      m.moved ? jpeg::remap(img, m.window, m.element) : img;
  if (dirty) {
    // Crops/rotates/flips permute every block (and may change the grid), so
    // no source segment's entropy bytes survive: size the set to the output
    // grid and mark it wholesale. Identity-only chains leave a clean set of
    // the (unchanged) grid — every segment copies.
    if (m.moved || dirty->total != out.mcu_count())
      dirty->reset(out.mcu_count());
    if (m.moved) dirty->mark_all();
  }
  return out;
}

std::pair<int, int> map_size(const Step& step, int w, int h) {
  if (is_rot_or_flip(step.kind)) return dihedral(step.kind).size(w, h);
  switch (step.kind) {
    case Kind::kScale:
      return {step.arg0, step.arg1};
    case Kind::kCropAligned:
      return {step.rect.w, step.rect.h};
    default:
      return {w, h};
  }
}

std::pair<int, int> map_size(const Chain& chain, int w, int h) {
  for (const Step& s : chain) std::tie(w, h) = map_size(s, w, h);
  return {w, h};
}

Rect map_rect(const Step& step, const Rect& r, int w, int h) {
  if (is_rot_or_flip(step.kind)) return dihedral(step.kind).map_rect(r, w, h);
  switch (step.kind) {
    case Kind::kScale: {
      const double sx = static_cast<double>(step.arg0) / w;
      const double sy = static_cast<double>(step.arg1) / h;
      const int x0 = static_cast<int>(std::floor(r.x * sx));
      const int y0 = static_cast<int>(std::floor(r.y * sy));
      const int x1 = static_cast<int>(std::ceil(r.right() * sx));
      const int y1 = static_cast<int>(std::ceil(r.bottom() * sy));
      return Rect{x0, y0, x1 - x0, y1 - y0};
    }
    case Kind::kCropAligned: {
      const Rect inter = Rect::intersect(r, step.rect);
      return Rect{inter.x - step.rect.x, inter.y - step.rect.y, inter.w,
                  inter.h};
    }
    default:
      return r;
  }
}

Rect map_rect(const Chain& chain, Rect r, int w, int h) {
  for (const Step& s : chain) {
    r = map_rect(s, r, w, h);
    std::tie(w, h) = map_size(s, w, h);
  }
  return r;
}

void write_chain(ByteWriter& out, const Chain& chain) {
  out.u32(static_cast<std::uint32_t>(chain.size()));
  for (const Step& s : chain) {
    out.u8(static_cast<std::uint8_t>(s.kind));
    out.i32(s.arg0);
    out.i32(s.arg1);
    out.i32(s.rect.x);
    out.i32(s.rect.y);
    out.i32(s.rect.w);
    out.i32(s.rect.h);
    for (float k : s.kernel) {
      // Fixed-point kernel storage (1e-6 resolution) keeps the format
      // platform-independent.
      out.i32(static_cast<std::int32_t>(std::lround(k * 1e6)));
    }
  }
}

Chain read_chain(ByteReader& in) {
  const std::uint32_t n = in.u32();
  // Every step is 61 wire bytes (kind, 6 i32 args, 9 i32 kernel taps), so a
  // count the payload cannot hold is rejected before it sizes anything.
  constexpr std::size_t kStepBytes = 1 + 6 * 4 + 9 * 4;
  if (n > in.remaining() / kStepBytes)
    throw ParseError("transform chain longer than its payload");
  Chain chain;
  chain.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Step s;
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(Kind::kRecompress))
      throw ParseError("unknown transform kind");
    s.kind = static_cast<Kind>(kind);
    s.arg0 = in.i32();
    s.arg1 = in.i32();
    s.rect.x = in.i32();
    s.rect.y = in.i32();
    s.rect.w = in.i32();
    s.rect.h = in.i32();
    for (float& k : s.kernel) k = static_cast<float>(in.i32()) * 1e-6f;
    try {  // the factories' own checks, so workers never see a bad step
      if (s.kind == Kind::kScale) scale(s.arg0, s.arg1);
      if (s.kind == Kind::kCropAligned) crop_aligned(s.rect);
      if (s.kind == Kind::kRecompress) recompress(s.arg0);
    } catch (const InvalidArgument& e) {
      throw ParseError(std::string("transform step: ") + e.what());
    }
    chain.push_back(s);
  }
  return chain;
}

namespace {

/// Zeroes the fields `kind` does not read, so hand-built steps with stray
/// values in unused fields key the cache identically to factory-built ones.
Step normalized(const Step& s) {
  Step out;
  out.kind = s.kind;
  switch (s.kind) {
    case Kind::kScale:
      out.arg0 = s.arg0;
      out.arg1 = s.arg1;
      break;
    case Kind::kCropAligned:
      out.rect = s.rect;
      break;
    case Kind::kFilter3x3:
      out.kernel = s.kernel;
      break;
    case Kind::kRecompress:
      out.arg0 = s.arg0;
      break;
    default:  // identity / rotations / flips carry no parameters
      break;
  }
  return out;
}

/// Emits a folded run as at most two steps: [flip_h] then [rotate].
void emit(const Dihedral& d, Chain& out) {
  if (d.flipped) out.push_back(flip_h());
  if (d.quarter_turns != 0) out.push_back(rotate(d.quarter_turns * 90));
}

}  // namespace

Chain canonicalize(const Chain& chain) {
  Chain out;
  Dihedral run;
  bool in_run = false;
  for (const Step& s : chain) {
    if (s.kind == Kind::kIdentity) continue;
    if (is_rot_or_flip(s.kind)) {
      run = run.compose(dihedral(s.kind));
      in_run = true;
      continue;
    }
    if (in_run) {
      emit(run, out);
      run = Dihedral{};
      in_run = false;
    }
    out.push_back(normalized(s));
  }
  if (in_run) emit(run, out);
  return out;
}

}  // namespace puppies::transform
