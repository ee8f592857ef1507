#include <gtest/gtest.h>

#include "puppies/common/rng.h"
#include "puppies/image/geometry.h"

namespace puppies {
namespace {

TEST(Rect, Basics) {
  const Rect r{10, 20, 30, 40};
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.area(), 1200);
  EXPECT_EQ(r.right(), 40);
  EXPECT_EQ(r.bottom(), 60);
  EXPECT_TRUE(r.contains(10, 20));
  EXPECT_TRUE(r.contains(39, 59));
  EXPECT_FALSE(r.contains(40, 20));
  EXPECT_TRUE((Rect{0, 0, 0, 5}.empty()));
  EXPECT_TRUE((Rect{0, 0, -3, 5}.empty()));
}

TEST(Rect, Intersect) {
  const Rect a{0, 0, 10, 10}, b{5, 5, 10, 10};
  EXPECT_EQ(Rect::intersect(a, b), (Rect{5, 5, 5, 5}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(Rect{10, 0, 5, 5}));  // abutting, not overlapping
  EXPECT_TRUE(Rect::intersect(a, Rect{20, 20, 5, 5}).empty());
}

TEST(Rect, Bound) {
  EXPECT_EQ(Rect::bound(Rect{0, 0, 2, 2}, Rect{8, 8, 2, 2}),
            (Rect{0, 0, 10, 10}));
  EXPECT_EQ(Rect::bound(Rect{}, Rect{1, 2, 3, 4}), (Rect{1, 2, 3, 4}));
}

TEST(Rect, ContainsRect) {
  const Rect outer{0, 0, 100, 100};
  EXPECT_TRUE(outer.contains(Rect{10, 10, 20, 20}));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Rect{90, 90, 20, 20}));
  EXPECT_FALSE(outer.contains(Rect{}));
  // right()/bottom() of these rects overflow int (a wire crop step once
  // passed this check and crashed the server); containment must say no.
  EXPECT_FALSE(outer.contains(Rect{2147483640, 0, 8, 8}));
  EXPECT_FALSE(outer.contains(Rect{0, 2147483640, 8, 8}));
  EXPECT_FALSE(outer.contains(Rect{8, 8, 2147483647, 8}));
  EXPECT_FALSE(outer.contains(Rect{8, 8, 8, 2147483647}));
  EXPECT_FALSE(outer.contains(2147483647, 0));
  // A container whose own right()/bottom() is INT_MAX still contains itself.
  const Rect edge{2147483640, 2147483640, 7, 7};
  EXPECT_TRUE(edge.contains(edge));
  EXPECT_TRUE(edge.contains(2147483646, 2147483646));
}

TEST(Dihedral, GroupLawAndMapsAgree) {
  std::vector<Dihedral> all;
  for (int q = 0; q < 4; ++q)
    for (const bool f : {false, true}) all.push_back(Dihedral{q, f});
  const int w = 5, h = 3;
  for (const Dihedral& a : all) {
    EXPECT_EQ(a.compose(a.inverse()), Dihedral{});
    EXPECT_EQ(a.inverse().compose(a), Dihedral{});
    const auto [aw, ah] = a.size(w, h);
    EXPECT_EQ(a.transposes(), aw != w);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const auto [px, py] = a.map_point(x, y, w, h);
        ASSERT_TRUE((Rect{0, 0, aw, ah}.contains(px, py)));
        EXPECT_EQ(a.map_rect(Rect{x, y, 1, 1}, w, h), (Rect{px, py, 1, 1}));
        EXPECT_EQ(a.inverse().map_point(px, py, aw, ah), std::pair(x, y));
        for (const Dihedral& b : all) {
          const auto [bx, by] = b.map_point(px, py, aw, ah);
          EXPECT_EQ(a.compose(b).map_point(x, y, w, h), std::pair(bx, by));
        }
      }
  }
  // The generators: flip_h mirrors x; one quarter turn is clockwise.
  EXPECT_EQ((Dihedral{0, true}.map_point(0, 0, w, h)), std::pair(4, 0));
  EXPECT_EQ((Dihedral{1, false}.map_point(0, 0, w, h)), std::pair(2, 0));
}

TEST(Rect, AlignedToExpandsOutward) {
  const Rect bounds{0, 0, 640, 480};
  const Rect a = Rect{13, 9, 10, 10}.aligned_to(8, bounds);
  EXPECT_EQ(a, (Rect{8, 8, 16, 16}));
  // Already aligned rects are unchanged.
  EXPECT_EQ((Rect{16, 24, 32, 8}).aligned_to(8, bounds), (Rect{16, 24, 32, 8}));
  // Clipped at bounds.
  const Rect edge = Rect{636, 476, 10, 10}.aligned_to(8, bounds);
  EXPECT_TRUE(bounds.contains(edge));
}

TEST(SplitDisjoint, EmptyAndSingle) {
  EXPECT_TRUE(split_disjoint({}).empty());
  const auto one = split_disjoint({Rect{3, 4, 5, 6}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (Rect{3, 4, 5, 6}));
}

TEST(SplitDisjoint, OverlappingPairPreservesUnionArea) {
  const std::vector<Rect> input{{0, 0, 10, 10}, {5, 5, 10, 10}};
  const auto out = split_disjoint(input);
  EXPECT_TRUE(pairwise_disjoint(out));
  long long area = 0;
  for (const Rect& r : out) area += r.area();
  EXPECT_EQ(area, 175);  // 100 + 100 - 25
}

TEST(SplitDisjoint, CoverageMatchesPointwise) {
  // Property: a point is covered by the output iff covered by the input.
  Rng rng("split-coverage");
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Rect> input;
    const int n = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < n; ++i)
      input.push_back(Rect{static_cast<int>(rng.below(40)),
                           static_cast<int>(rng.below(40)),
                           1 + static_cast<int>(rng.below(20)),
                           1 + static_cast<int>(rng.below(20))});
    const auto out = split_disjoint(input);
    EXPECT_TRUE(pairwise_disjoint(out));
    for (int probe = 0; probe < 200; ++probe) {
      const int x = static_cast<int>(rng.below(70));
      const int y = static_cast<int>(rng.below(70));
      bool in_input = false, in_output = false;
      for (const Rect& r : input) in_input |= r.contains(x, y);
      for (const Rect& r : out) in_output |= r.contains(x, y);
      EXPECT_EQ(in_input, in_output) << "at (" << x << "," << y << ")";
    }
  }
}

TEST(SplitDisjoint, UnionAreaInvariant) {
  Rng rng("split-area");
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Rect> input;
    for (int i = 0; i < 4; ++i)
      input.push_back(Rect{static_cast<int>(rng.below(30)),
                           static_cast<int>(rng.below(30)),
                           1 + static_cast<int>(rng.below(25)),
                           1 + static_cast<int>(rng.below(25))});
    long long split_area = 0;
    for (const Rect& r : split_disjoint(input)) split_area += r.area();
    EXPECT_EQ(split_area, union_area(input));
  }
}

TEST(SplitDisjoint, AlignedInputsStayAligned) {
  // The ROI recommender depends on this: splitting 8-aligned rects must only
  // cut along 8-aligned edges.
  Rng rng("split-aligned");
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Rect> input;
    for (int i = 0; i < 4; ++i)
      input.push_back(Rect{8 * static_cast<int>(rng.below(10)),
                           8 * static_cast<int>(rng.below(10)),
                           8 * (1 + static_cast<int>(rng.below(6))),
                           8 * (1 + static_cast<int>(rng.below(6)))});
    for (const Rect& r : split_disjoint(input)) {
      EXPECT_EQ(r.x % 8, 0);
      EXPECT_EQ(r.y % 8, 0);
      EXPECT_EQ(r.w % 8, 0);
      EXPECT_EQ(r.h % 8, 0);
    }
  }
}

TEST(SplitDisjoint, IgnoresEmptyRects) {
  const auto out = split_disjoint({Rect{0, 0, 0, 10}, Rect{2, 2, 4, 4}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Rect{2, 2, 4, 4}));
}

}  // namespace
}  // namespace puppies
