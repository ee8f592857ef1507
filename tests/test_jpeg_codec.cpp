#include <gtest/gtest.h>

#include "puppies/common/rng.h"
#include "puppies/common/error.h"
#include "puppies/image/draw.h"
#include "puppies/image/metrics.h"
#include "puppies/jpeg/bitio.h"
#include "puppies/jpeg/codec.h"
#include "puppies/exec/pool.h"
#include "puppies/jpeg/lossless.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"
#include "ref_lossless.h"

namespace puppies::jpeg {
namespace {

CoefficientImage random_coefficients(Rng& rng, int w, int h, int comps,
                                     int quality = 75) {
  CoefficientImage img(w, h, comps, luma_quant_table(quality),
                       chroma_quant_table(quality));
  for (int c = 0; c < comps; ++c) {
    Component& comp = img.component(c);
    for (CoefBlock& block : comp.blocks) {
      block[0] = static_cast<std::int16_t>(rng.range(kDcMin, kDcMax));
      for (int z = 1; z < 64; ++z) {
        // Realistic sparsity: most high-frequency coefficients are zero.
        if (rng.chance(0.6)) continue;
        block[static_cast<std::size_t>(z)] =
            static_cast<std::int16_t>(rng.range(kAcMin, kAcMax));
      }
    }
  }
  return img;
}

TEST(BitIo, RoundTripWithStuffing) {
  Bytes data;
  {
    BitWriter bw(data);
    bw.put(0xff, 8);  // must be stuffed
    bw.put(0x5, 3);
    bw.put(0x1abcd, 17);
    bw.flush();
  }
  // A stuffed 0x00 must follow the 0xff.
  ASSERT_GE(data.size(), 2u);
  EXPECT_EQ(data[0], 0xff);
  EXPECT_EQ(data[1], 0x00);
  BitReader br(data);
  EXPECT_EQ(br.get(8), 0xffu);
  EXPECT_EQ(br.get(3), 0x5u);
  EXPECT_EQ(br.get(17), 0x1abcdu);
}

TEST(Codec, SerializeParseRoundTripColor) {
  Rng rng("codec-color");
  for (const HuffmanMode mode : {HuffmanMode::kStandard, HuffmanMode::kOptimized}) {
    const CoefficientImage img = random_coefficients(rng, 64, 48, 3);
    const Bytes data = serialize(img, EncodeOptions{mode});
    EXPECT_EQ(parse(data), img);
  }
}

TEST(Codec, SerializeParseRoundTripGray) {
  Rng rng("codec-gray");
  const CoefficientImage img = random_coefficients(rng, 40, 24, 1);
  EXPECT_EQ(parse(serialize(img)), img);
}

TEST(Codec, RoundTripNonMultipleOf8Dimensions) {
  Rng rng("codec-odd");
  const CoefficientImage img = random_coefficients(rng, 37, 29, 3);
  const CoefficientImage back = parse(serialize(img));
  EXPECT_EQ(back.width(), 37);
  EXPECT_EQ(back.height(), 29);
  EXPECT_EQ(back, img);
}

TEST(Codec, RoundTripExtremeCoefficients) {
  // Every coefficient at a ring boundary must survive entropy coding: this
  // is what makes the perturbation ring choice sound (DESIGN.md §5.2).
  CoefficientImage img(16, 16, 3, luma_quant_table(50), chroma_quant_table(50));
  for (int c = 0; c < 3; ++c)
    for (CoefBlock& b : img.component(c).blocks) {
      b[0] = kDcMin;
      b[1] = kAcMax;
      b[2] = kAcMin;
      b[63] = kAcMax;
    }
  for (const HuffmanMode mode : {HuffmanMode::kStandard, HuffmanMode::kOptimized}) {
    EXPECT_EQ(parse(serialize(img, EncodeOptions{mode})), img);
  }
}

TEST(Codec, StartsWithSoiEndsWithEoi) {
  Rng rng("codec-markers");
  const Bytes data = serialize(random_coefficients(rng, 16, 16, 3));
  ASSERT_GE(data.size(), 4u);
  EXPECT_EQ(data[0], 0xff);
  EXPECT_EQ(data[1], 0xd8);
  EXPECT_EQ(data[data.size() - 2], 0xff);
  EXPECT_EQ(data[data.size() - 1], 0xd9);
}

TEST(Codec, ParseRejectsGarbage) {
  const Bytes garbage{1, 2, 3, 4};
  EXPECT_THROW(parse(garbage), ParseError);
  const Bytes truncated{0xff, 0xd8, 0xff};
  EXPECT_THROW(parse(truncated), ParseError);
}

TEST(Codec, OptimizedTablesNeverLargerThanStandardOnRealImages) {
  const synth::SceneImage scene = synth::generate(synth::Dataset::kPascal, 0);
  const CoefficientImage img = forward_transform(rgb_to_ycc(scene.image), 75);
  const std::size_t std_size =
      serialize(img, EncodeOptions{HuffmanMode::kStandard}).size();
  const std::size_t opt_size =
      serialize(img, EncodeOptions{HuffmanMode::kOptimized}).size();
  EXPECT_LE(opt_size, std_size);
}

TEST(Codec, EncodeDecodePixelFidelity) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 3, 160, 120);
  for (int quality : {50, 75, 90}) {
    const Bytes data = compress(scene.image, quality);
    const RgbImage back = decompress(data);
    EXPECT_GT(psnr(scene.image, back), quality >= 90 ? 32.0 : 26.0)
        << "quality " << quality;
  }
}

TEST(Codec, HigherQualityMeansHigherFidelityAndLargerFiles) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 5, 160, 120);
  const Bytes lo = compress(scene.image, 30);
  const Bytes hi = compress(scene.image, 90);
  EXPECT_LT(lo.size(), hi.size());
  EXPECT_LT(psnr(scene.image, decompress(lo)), psnr(scene.image, decompress(hi)));
}

TEST(Codec, InverseTransformIsUnclamped) {
  // A wildly perturbed coefficient image must produce out-of-range float
  // pixels rather than silently clamping (the linear shadow path depends
  // on it).
  CoefficientImage img(8, 8, 3, flat_quant_table(16), flat_quant_table(16));
  img.component(0).block(0, 0)[0] = 1000;  // DC far beyond displayable range
  const YccImage ycc = inverse_transform(img);
  EXPECT_GT(ycc.y.at(0, 0), 300.f);
}

TEST(Codec, RequantizeChangesTablesAndPreservesContent) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 7, 160, 120);
  const CoefficientImage img = forward_transform(rgb_to_ycc(scene.image), 90);
  const CoefficientImage requant = requantize(img, 40);
  EXPECT_EQ(requant.qtable(0), luma_quant_table(40));
  // Same scene, lower fidelity, fewer bytes.
  EXPECT_LT(serialize(requant).size(), serialize(img).size());
  EXPECT_GT(psnr(scene.image, decode_to_rgb(requant)), 22.0);
}

// The D4 generators and the crop, each one jpeg::remap pass over the image.
CoefficientImage d4(const CoefficientImage& img, const Dihedral& e) {
  return remap(img, img.bounds(), e);
}
CoefficientImage rotate90(const CoefficientImage& img) {
  return d4(img, Dihedral{1, false});
}
CoefficientImage rotate180(const CoefficientImage& img) {
  return d4(img, Dihedral{2, false});
}
CoefficientImage flip_horizontal(const CoefficientImage& img) {
  return d4(img, Dihedral{0, true});
}
CoefficientImage flip_vertical(const CoefficientImage& img) {
  return d4(img, Dihedral{2, true});
}
CoefficientImage transpose(const CoefficientImage& img) {
  return d4(img, Dihedral{3, true});
}
CoefficientImage crop_aligned(const CoefficientImage& img, const Rect& r) {
  return remap(img, r, Dihedral{});
}

TEST(Lossless, Rotate90FourTimesIsIdentity) {
  Rng rng("lossless-rot");
  const CoefficientImage img = random_coefficients(rng, 32, 24, 3);
  EXPECT_EQ(rotate90(rotate90(rotate90(rotate90(img)))), img);
}

TEST(Lossless, FlipsAreInvolutions) {
  Rng rng("lossless-flip");
  const CoefficientImage img = random_coefficients(rng, 32, 24, 3);
  EXPECT_EQ(flip_horizontal(flip_horizontal(img)), img);
  EXPECT_EQ(flip_vertical(flip_vertical(img)), img);
  EXPECT_EQ(transpose(transpose(img)), img);
}

TEST(Lossless, Rotate180EqualsBothFlips) {
  Rng rng("lossless-180");
  const CoefficientImage img = random_coefficients(rng, 32, 24, 3);
  EXPECT_EQ(rotate180(img), flip_vertical(flip_horizontal(img)));
}

TEST(Lossless, CoefficientRotationMatchesPixelRotation) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 9, 64, 48);
  const CoefficientImage img = forward_transform(rgb_to_ycc(scene.image), 80);
  const GrayU8 rotated_pixels = [&] {
    const RgbImage dec = decode_to_rgb(rotate90(img));
    return to_gray(dec);
  }();
  // Rotate the decoded original in the pixel domain.
  const RgbImage dec = decode_to_rgb(img);
  GrayU8 reference(48, 64);
  const GrayU8 dec_gray = to_gray(dec);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 48; ++x)
      reference.at(x, y) = dec_gray.at(y, 48 - 1 - x);
  EXPECT_GT(psnr(rotated_pixels, reference), 48.0);
}

TEST(Lossless, CropAlignedExtractsBlocks) {
  Rng rng("lossless-crop");
  const CoefficientImage img = random_coefficients(rng, 64, 64, 3);
  const Rect r{16, 24, 32, 16};
  const CoefficientImage cropped = crop_aligned(img, r);
  EXPECT_EQ(cropped.width(), 32);
  EXPECT_EQ(cropped.height(), 16);
  EXPECT_EQ(cropped.component(0).block(0, 0), img.component(0).block(2, 3));
  EXPECT_EQ(cropped.component(2).block(3, 1), img.component(2).block(5, 4));
}

TEST(Lossless, NonAlignedDimensionsThrow) {
  Rng rng("lossless-bad");
  const CoefficientImage img = random_coefficients(rng, 36, 24, 3);
  EXPECT_THROW(rotate90(img), InvalidArgument);
  const CoefficientImage ok = random_coefficients(rng, 32, 24, 3);
  EXPECT_THROW(crop_aligned(ok, Rect{3, 0, 8, 8}), InvalidArgument);
}

/// The reference image of D4 element `e` (flip_h if flipped, then
/// quarter_turns clockwise), built from the seed's named passes.
CoefficientImage ref_element(const CoefficientImage& img, const Dihedral& e) {
  switch (e.quarter_turns + (e.flipped ? 4 : 0)) {
    case 0: return img;
    case 1: return ref::rotate90(img);
    case 2: return ref::rotate180(img);
    case 3: return ref::rotate270(img);
    case 4: return ref::flip_horizontal(img);
    case 5: return ref::rotate180(ref::transpose(img));  // anti-transpose
    case 6: return ref::flip_vertical(img);
    default: return ref::transpose(img);
  }
}

/// The steps `e` folds from: transpose and anti-transpose have no step of
/// their own, so a chain reaches them only by folding flip_h and a rotate.
transform::Chain steps_of(const Dihedral& e) {
  transform::Chain c;
  if (e.flipped) c.push_back(transform::flip_h());
  if (e.quarter_turns != 0) c.push_back(transform::rotate(e.quarter_turns * 90));
  return c;
}

TEST(Lossless, RemapMatchesComposedReference) {
  struct Shape {
    int w, h, comps;
  };
  // Odd block grids (5x3, 7x9), square and not, gray and color.
  const Shape shapes[] = {{40, 24, 3}, {56, 72, 1}, {56, 72, 3}, {64, 64, 1}};
  for (const int threads : {1, 2, 8}) {
    exec::configure(exec::Config{threads});
    for (const Shape& sh : shapes) {
      Rng rng("lossless-diff/" + std::to_string(sh.w) + "x" +
              std::to_string(sh.h) + "/" + std::to_string(sh.comps));
      const CoefficientImage img =
          random_coefficients(rng, sh.w, sh.h, sh.comps, 60);
      const Rect window{8, 8, sh.w - 16, sh.h - 8};
      for (int q = 0; q < 4; ++q)
        for (const bool flipped : {false, true}) {
          const Dihedral e{q, flipped};
          SCOPED_TRACE(::testing::Message()
                       << sh.w << "x" << sh.h << "x" << sh.comps << " q=" << q
                       << " flipped=" << flipped << " threads=" << threads);
          const CoefficientImage want = ref_element(img, e);
          const CoefficientImage want_window =
              ref_element(ref::crop_aligned(img, window), e);
          // CoefficientImage equality covers blocks, quant tables and every
          // component's quant_index.
          EXPECT_EQ(remap(img, img.bounds(), e), want);
          EXPECT_EQ(remap(img, window, e), want_window);

          // The same element reached by a chain: a crop before the run, and
          // one after it that the fold pulls back through the element.
          const transform::Chain steps = steps_of(e);
          EXPECT_EQ(transform::apply_lossless(steps, img), want);
          transform::Chain crop_first{transform::crop_aligned(window)};
          crop_first.insert(crop_first.end(), steps.begin(), steps.end());
          EXPECT_EQ(transform::apply_lossless(crop_first, img), want_window);
          const auto [ow, oh] = e.size(sh.w, sh.h);
          const Rect late{0, 8, ow - 8, oh - 8};
          transform::Chain crop_last = steps;
          crop_last.push_back(transform::crop_aligned(late));
          EXPECT_EQ(transform::apply_lossless(crop_last, img),
                    ref::crop_aligned(want, late));
        }
    }
  }
  exec::configure(exec::Config{});
}

}  // namespace
}  // namespace puppies::jpeg
