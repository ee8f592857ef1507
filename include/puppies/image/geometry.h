#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace puppies {

/// Integer pixel rectangle: origin (x, y), size w x h. Empty iff w<=0 || h<=0.
struct Rect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;

  bool empty() const { return w <= 0 || h <= 0; }
  long long area() const {
    return empty() ? 0 : static_cast<long long>(w) * h;
  }
  int right() const { return x + w; }    // exclusive
  int bottom() const { return y + h; }   // exclusive

  bool contains(int px, int py) const {
    return px >= x && py >= y &&
           static_cast<long long>(px) < static_cast<long long>(x) + w &&
           static_cast<long long>(py) < static_cast<long long>(y) + h;
  }
  /// Both containment tests compare in 64 bits: a rect read off the wire may
  /// sit near INT_MAX, where right()/bottom() would overflow.
  bool contains(const Rect& o) const {
    return !o.empty() && o.x >= x && o.y >= y &&
           static_cast<long long>(o.x) + o.w <= static_cast<long long>(x) + w &&
           static_cast<long long>(o.y) + o.h <= static_cast<long long>(y) + h;
  }
  bool intersects(const Rect& o) const {
    return !intersect(*this, o).empty();
  }

  static Rect intersect(const Rect& a, const Rect& b) {
    const int x0 = std::max(a.x, b.x);
    const int y0 = std::max(a.y, b.y);
    const int x1 = std::min(a.right(), b.right());
    const int y1 = std::min(a.bottom(), b.bottom());
    return Rect{x0, y0, x1 - x0, y1 - y0};
  }

  /// Smallest rect containing both (bounding union).
  static Rect bound(const Rect& a, const Rect& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    const int x0 = std::min(a.x, b.x);
    const int y0 = std::min(a.y, b.y);
    const int x1 = std::max(a.right(), b.right());
    const int y1 = std::max(a.bottom(), b.bottom());
    return Rect{x0, y0, x1 - x0, y1 - y0};
  }

  /// Expands outward so that origin and size are multiples of `grid`
  /// (JPEG needs 8x8-block-aligned ROIs), clipped to `bounds`.
  Rect aligned_to(int grid, const Rect& bounds) const {
    const int x0 = (x / grid) * grid;
    const int y0 = (y / grid) * grid;
    int x1 = ((right() + grid - 1) / grid) * grid;
    int y1 = ((bottom() + grid - 1) / grid) * grid;
    Rect r{x0, y0, x1 - x0, y1 - y0};
    return intersect(r, bounds);
  }

  bool operator==(const Rect&) const = default;

  std::string to_string() const;
};

/// An element of the dihedral group D4 — the 8 rotations and flips of an
/// image: flip horizontally (if `flipped`), then rotate `quarter_turns` x 90
/// degrees clockwise. Every composition of rotations and flips reduces to
/// this form exactly, because each is a pure permutation of pixels (and, in
/// the coefficient domain, of blocks with fixed sign patterns that obey the
/// same group law). One element drives the pixel remap, the coefficient
/// remap, ROI mapping and cache-key canonicalization alike.
struct Dihedral {
  int quarter_turns = 0;  ///< 0..3
  bool flipped = false;

  /// `next` applied after this element.
  Dihedral compose(const Dihedral& next) const {
    // flip . rot(k) == rot(-k) . flip: pulling next's flip through this
    // element's rotation negates it.
    const int q = next.flipped ? next.quarter_turns - quarter_turns
                               : next.quarter_turns + quarter_turns;
    return Dihedral{(q + 4) % 4, flipped != next.flipped};
  }
  Dihedral inverse() const {
    return Dihedral{flipped ? quarter_turns : (4 - quarter_turns) % 4,
                    flipped};
  }
  /// True iff the element swaps the axes (an odd number of quarter turns).
  bool transposes() const { return quarter_turns % 2 != 0; }

  /// Size of a w x h image after the element.
  std::pair<int, int> size(int w, int h) const {
    return transposes() ? std::pair{h, w} : std::pair{w, h};
  }
  /// Where pixel (px, py) of a w x h image lands.
  std::pair<int, int> map_point(int px, int py, int w, int h) const {
    if (flipped) px = w - 1 - px;
    for (int i = 0; i < quarter_turns; ++i) {
      std::tie(px, py) = std::pair{h - 1 - py, px};
      std::swap(w, h);
    }
    return {px, py};
  }
  /// Where rect `r` of a w x h image lands.
  Rect map_rect(Rect r, int w, int h) const {
    if (flipped) r.x = w - r.right();
    for (int i = 0; i < quarter_turns; ++i) {
      r = Rect{h - r.bottom(), r.x, r.h, r.w};
      std::swap(w, h);
    }
    return r;
  }

  bool operator==(const Dihedral&) const = default;
};

/// Splits a set of possibly-overlapping rectangles into disjoint rectangles
/// whose union equals the union of the inputs (Section IV-A "split the
/// overall detected regions into disjoint regions"). Output rects are
/// maximal row-merged cells of the coordinate-compacted grid; deterministic.
std::vector<Rect> split_disjoint(const std::vector<Rect>& rects);

/// True iff no two rects in the list overlap.
bool pairwise_disjoint(const std::vector<Rect>& rects);

/// Sum of areas of the union of `rects` (inclusion-free via splitting).
long long union_area(const std::vector<Rect>& rects);

}  // namespace puppies
