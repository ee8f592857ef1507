#include "puppies/transform/transform.h"

#include <cmath>
#include <tuple>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/lossless.h"

namespace puppies::transform {

bool Step::lossless() const {
  switch (kind) {
    case Kind::kIdentity:
    case Kind::kCropAligned:
    case Kind::kRotate90:
    case Kind::kRotate180:
    case Kind::kRotate270:
    case Kind::kFlipH:
    case Kind::kFlipV:
      return true;
    default:
      return false;
  }
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
  Step s;
  s.kind = Kind::kCropAligned;
  s.rect = r;
  return s;
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

Plane<float> scale_plane(const Plane<float>& in, int nw, int nh) {
  Plane<float> out(nw, nh, 0.f);
  const float sx = static_cast<float>(in.width()) / nw;
  const float sy = static_cast<float>(in.height()) / nh;
  // Output rows are independent; each writes only its own row.
  exec::parallel_for(static_cast<std::size_t>(nh), [&](std::size_t row) {
    const int y = static_cast<int>(row);
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
  });
  return out;
}

Plane<float> crop_plane(const Plane<float>& in, const Rect& r) {
  Plane<float> out(r.w, r.h, 0.f);
  for (int y = 0; y < r.h; ++y)
    for (int x = 0; x < r.w; ++x) out.at(x, y) = in.at(r.x + x, r.y + y);
  return out;
}

Plane<float> rot_plane(const Plane<float>& in, Kind kind) {
  const int w = in.width(), h = in.height();
  switch (kind) {
    case Kind::kRotate90: {
      Plane<float> out(h, w, 0.f);
      for (int y = 0; y < w; ++y)
        for (int x = 0; x < h; ++x) out.at(x, y) = in.at(y, h - 1 - x);
      return out;
    }
    case Kind::kRotate180: {
      Plane<float> out(w, h, 0.f);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out.at(x, y) = in.at(w - 1 - x, h - 1 - y);
      return out;
    }
    case Kind::kRotate270: {
      Plane<float> out(h, w, 0.f);
      for (int y = 0; y < w; ++y)
        for (int x = 0; x < h; ++x) out.at(x, y) = in.at(w - 1 - y, x);
      return out;
    }
    case Kind::kFlipH: {
      Plane<float> out(w, h, 0.f);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out.at(x, y) = in.at(w - 1 - x, y);
      return out;
    }
    case Kind::kFlipV: {
      Plane<float> out(w, h, 0.f);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out.at(x, y) = in.at(x, h - 1 - y);
      return out;
    }
    default:
      throw InvalidArgument("rot_plane: not a rotation/flip");
  }
}

Plane<float> convolve_plane(const Plane<float>& in,
                            const std::array<float, 9>& k) {
  Plane<float> out(in.width(), in.height(), 0.f);
  // Reads overlap rows but writes don't: out-of-place convolution.
  exec::parallel_for_2d(in.height(), in.width(), [&](int y, int x) {
    float acc = 0;
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx)
        acc += k[static_cast<std::size_t>((dy + 1) * 3 + (dx + 1))] *
               in.clamped_at(x + dx, y + dy);
    out.at(x, y) = acc;
  });
  return out;
}

YccImage per_plane(const YccImage& img, auto&& fn) {
  YccImage out;
  out.y = fn(img.y);
  out.cb = fn(img.cb);
  out.cr = fn(img.cr);
  return out;
}

}  // namespace

YccImage apply(const Step& step, const YccImage& img) {
  switch (step.kind) {
    case Kind::kIdentity:
      return img;
    case Kind::kScale:
      return per_plane(img,
                       [&](const Plane<float>& p) {
                         return scale_plane(p, step.arg0, step.arg1);
                       });
    case Kind::kCropAligned:
      require(img.bounds().contains(step.rect), "crop rect outside image");
      return per_plane(
          img, [&](const Plane<float>& p) { return crop_plane(p, step.rect); });
    case Kind::kRotate90:
    case Kind::kRotate180:
    case Kind::kRotate270:
    case Kind::kFlipH:
    case Kind::kFlipV:
      return per_plane(
          img, [&](const Plane<float>& p) { return rot_plane(p, step.kind); });
    case Kind::kFilter3x3:
      return per_plane(img, [&](const Plane<float>& p) {
        return convolve_plane(p, step.kernel);
      });
    case Kind::kRecompress: {
      // Pixel-domain stand-in for requantization: round trip through the
      // coefficient domain at the new quality.
      const jpeg::CoefficientImage c = jpeg::forward_transform(img, step.arg0);
      return jpeg::inverse_transform(c);
    }
  }
  throw InvalidArgument("unknown transform step");
}

YccImage apply(const Chain& chain, YccImage img) {
  for (const Step& s : chain) img = apply(s, img);
  return img;
}

jpeg::CoefficientImage apply_lossless(const Step& step,
                                      const jpeg::CoefficientImage& img) {
  switch (step.kind) {
    case Kind::kIdentity:
      return img;
    case Kind::kCropAligned:
      return jpeg::crop_aligned(img, step.rect);
    case Kind::kRotate90:
      return jpeg::rotate90(img);
    case Kind::kRotate180:
      return jpeg::rotate180(img);
    case Kind::kRotate270:
      return jpeg::rotate270(img);
    case Kind::kFlipH:
      return jpeg::flip_horizontal(img);
    case Kind::kFlipV:
      return jpeg::flip_vertical(img);
    default:
      throw InvalidArgument("transform step is not lossless: " +
                            step.to_string());
  }
}

jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      jpeg::CoefficientImage img,
                                      jpeg::DirtyMcuSet* dirty) {
  bool rewritten = false;
  for (const Step& s : chain) {
    if (s.kind == Kind::kIdentity) continue;  // no blocks move
    img = apply_lossless(s, img);
    rewritten = true;
  }
  if (dirty) {
    // Crops/rotates/flips permute every block (and may change the grid), so
    // no source segment's entropy bytes survive: size the set to the output
    // grid and mark it wholesale. Identity-only chains leave a clean set of
    // the (unchanged) grid — every segment copies.
    if (rewritten || dirty->total != img.mcu_count())
      dirty->reset(img.mcu_count());
    if (rewritten) dirty->mark_all();
  }
  return img;
}

std::pair<int, int> map_size(const Step& step, int w, int h) {
  switch (step.kind) {
    case Kind::kScale:
      return {step.arg0, step.arg1};
    case Kind::kCropAligned:
      return {step.rect.w, step.rect.h};
    case Kind::kRotate90:
    case Kind::kRotate270:
      return {h, w};
    default:
      return {w, h};
  }
}

std::pair<int, int> map_size(const Chain& chain, int w, int h) {
  for (const Step& s : chain) std::tie(w, h) = map_size(s, w, h);
  return {w, h};
}

Rect map_rect(const Step& step, const Rect& r, int w, int h) {
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
    case Kind::kRotate90:
      return Rect{h - r.bottom(), r.x, r.h, r.w};
    case Kind::kRotate180:
      return Rect{w - r.right(), h - r.bottom(), r.w, r.h};
    case Kind::kRotate270:
      return Rect{r.y, w - r.right(), r.h, r.w};
    case Kind::kFlipH:
      return Rect{w - r.right(), r.y, r.w, r.h};
    case Kind::kFlipV:
      return Rect{r.x, h - r.bottom(), r.w, r.h};
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

bool is_rot_or_flip(Kind k) {
  return k == Kind::kRotate90 || k == Kind::kRotate180 ||
         k == Kind::kRotate270 || k == Kind::kFlipH || k == Kind::kFlipV;
}

/// Accumulated dihedral element: flip_h first (if `flipped`), then rotate
/// `quarter_turns` * 90 degrees clockwise. Every composition of rotations
/// and flips reduces to this form; both reductions below are exact because
/// each operation is a pure permutation of pixels (and, in the coefficient
/// domain, of blocks with fixed sign patterns that obey the same group law).
struct Dihedral {
  int quarter_turns = 0;
  bool flipped = false;

  void compose(Kind k) {
    switch (k) {
      case Kind::kRotate90:
        quarter_turns = (quarter_turns + 1) % 4;
        break;
      case Kind::kRotate180:
        quarter_turns = (quarter_turns + 2) % 4;
        break;
      case Kind::kRotate270:
        quarter_turns = (quarter_turns + 3) % 4;
        break;
      case Kind::kFlipH:
        // flipH . rot(k) == rot(-k) . flipH, so pulling the new flip
        // through the accumulated rotation negates it.
        quarter_turns = (4 - quarter_turns) % 4;
        flipped = !flipped;
        break;
      case Kind::kFlipV:
        // flipV == rot180 . flipH.
        compose(Kind::kFlipH);
        quarter_turns = (quarter_turns + 2) % 4;
        break;
      default:
        throw InvalidArgument("not a rotation/flip");
    }
  }

  void emit(Chain& out) const {
    if (flipped) out.push_back(flip_h());
    if (quarter_turns != 0) out.push_back(rotate(quarter_turns * 90));
  }
};

}  // namespace

Chain canonicalize(const Chain& chain) {
  Chain out;
  Dihedral run;
  bool in_run = false;
  for (const Step& s : chain) {
    if (s.kind == Kind::kIdentity) continue;
    if (is_rot_or_flip(s.kind)) {
      run.compose(s.kind);
      in_run = true;
      continue;
    }
    if (in_run) {
      run.emit(out);
      run = Dihedral{};
      in_run = false;
    }
    out.push_back(normalized(s));
  }
  if (in_run) run.emit(out);
  return out;
}

}  // namespace puppies::transform
