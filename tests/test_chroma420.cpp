// 4:2:0 chroma subsampling: codec round trips, fidelity, and the full
// PUPPIES pipeline on subsampled images.
#include <gtest/gtest.h>

#include "puppies/common/error.h"
#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/lossless.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

namespace puppies {
namespace {

jpeg::CoefficientImage coeffs420(int index = 0, int w = 96, int h = 64,
                                 int quality = 75) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, index, w, h);
  return jpeg::forward_transform(rgb_to_ycc(scene.image), quality,
                                 jpeg::ChromaMode::k420);
}

TEST(Chroma420, ComponentGeometry) {
  const jpeg::CoefficientImage img = coeffs420(0, 96, 64);
  EXPECT_TRUE(img.subsampled());
  EXPECT_EQ(img.mcu_pixels(), 16);
  EXPECT_EQ(img.component(0).h, 2);
  EXPECT_EQ(img.component(0).v, 2);
  EXPECT_EQ(img.component(1).h, 1);
  EXPECT_EQ(img.component(2).v, 1);
  // 96x64 -> 6x4 MCUs -> luma 12x8 blocks, chroma 6x4 blocks.
  EXPECT_EQ(img.blocks_w(), 12);
  EXPECT_EQ(img.blocks_h(), 8);
  EXPECT_EQ(img.component(1).blocks_w, 6);
  EXPECT_EQ(img.component(1).blocks_h, 4);
}

TEST(Chroma420, PaddedGeometryForOddSizes) {
  // 50x30 -> MCU grid 4x2 -> luma 8x4, chroma 4x2.
  const jpeg::CoefficientImage img =
      jpeg::CoefficientImage(50, 30, 3, jpeg::luma_quant_table(75),
                             jpeg::chroma_quant_table(75),
                             jpeg::ChromaMode::k420);
  EXPECT_EQ(img.blocks_w(), 8);
  EXPECT_EQ(img.blocks_h(), 4);
  EXPECT_EQ(img.component(1).blocks_w, 4);
  EXPECT_EQ(img.component(2).blocks_h, 2);
}

TEST(Chroma420, GrayscaleCannotBeSubsampled) {
  EXPECT_THROW(jpeg::CoefficientImage(32, 32, 1, jpeg::luma_quant_table(75),
                                      jpeg::chroma_quant_table(75),
                                      jpeg::ChromaMode::k420),
               InvalidArgument);
}

TEST(Chroma420, SerializeParseRoundTripIsExact) {
  for (const auto& [w, h] : {std::pair{96, 64}, {50, 30}, {41, 23}}) {
    const jpeg::CoefficientImage img = coeffs420(1, std::max(w, 32),
                                                 std::max(h, 32));
    const jpeg::CoefficientImage back = jpeg::parse(jpeg::serialize(img));
    EXPECT_EQ(back, img);
    EXPECT_TRUE(back.subsampled());
  }
}

TEST(Chroma420, SerializeParseRoundTripStdTables) {
  const jpeg::CoefficientImage img = coeffs420(2);
  EXPECT_EQ(jpeg::parse(jpeg::serialize(
                img, jpeg::EncodeOptions{jpeg::HuffmanMode::kStandard})),
            img);
}

TEST(Chroma420, PixelFidelityReasonable) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 3, 160, 120);
  const jpeg::CoefficientImage img = jpeg::forward_transform(
      rgb_to_ycc(scene.image), 85, jpeg::ChromaMode::k420);
  const RgbImage back = jpeg::decode_to_rgb(img);
  // Luma barely affected; overall PSNR close to the 4:4:4 encode.
  EXPECT_GT(psnr(to_gray(scene.image), to_gray(back)), 28.0);
  EXPECT_GT(psnr(scene.image, back), 24.0);
}

TEST(Chroma420, SmallerFilesThan444) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kInria, 2, 256, 192);
  jpeg::EncodeOptions opts;
  opts.chroma = jpeg::ChromaMode::k420;
  const std::size_t sub = jpeg::compress(scene.image, 80, opts).size();
  const std::size_t full = jpeg::compress(scene.image, 80).size();
  EXPECT_LT(sub, full);
}

TEST(Chroma420, LosslessTransformsRejectSubsampled) {
  const jpeg::CoefficientImage img = coeffs420(4, 96, 64);
  EXPECT_THROW(transform::apply_lossless(transform::rotate(90), img),
               InvalidArgument);
  EXPECT_THROW(transform::apply_lossless(transform::flip_h(), img),
               InvalidArgument);
  EXPECT_THROW(transform::apply_lossless(
                   transform::crop_aligned(Rect{0, 0, 16, 16}), img),
               InvalidArgument);
  // The remap itself refuses 4:2:0 too, for callers that bypass the fold.
  EXPECT_THROW(jpeg::remap(img, img.bounds(), Dihedral{1, false}),
               InvalidArgument);
}

TEST(Chroma420, PerturbRecoverRoundTripAllSchemes) {
  const jpeg::CoefficientImage original = coeffs420(5, 128, 96);
  const core::MatrixPair keys =
      core::MatrixPair::derive(SecretKey::from_label("c420"));
  const Rect roi{16, 16, 64, 48};  // 16-aligned
  for (const core::Scheme scheme :
       {core::Scheme::kBase, core::Scheme::kCompression, core::Scheme::kZero}) {
    jpeg::CoefficientImage img = original;
    const core::PerturbOutcome outcome = core::perturb_roi(
        img, roi, keys, scheme, core::params_for(core::PrivacyLevel::kMedium));
    EXPECT_NE(img, original);
    core::recover_roi(img, roi, keys, scheme,
                      core::params_for(core::PrivacyLevel::kMedium),
                      outcome.zind);
    EXPECT_EQ(img, original) << core::to_string(scheme);
  }
}

TEST(Chroma420, PerturbRejectsNonMcuAlignedRoi) {
  jpeg::CoefficientImage img = coeffs420(6, 128, 96);
  const core::MatrixPair keys =
      core::MatrixPair::derive(SecretKey::from_label("c420-align"));
  EXPECT_THROW(core::perturb_roi(img, Rect{8, 0, 16, 16}, keys,
                                 core::Scheme::kBase,
                                 core::params_for(core::PrivacyLevel::kMedium)),
               InvalidArgument);
}

TEST(Chroma420, PerturbationCoversChromaToo) {
  // Chroma blocks inside the ROI must change (color leakage otherwise).
  const jpeg::CoefficientImage original = coeffs420(7, 128, 96);
  jpeg::CoefficientImage img = original;
  core::perturb_roi(img, Rect{0, 0, 64, 64},
                    core::MatrixPair::derive(SecretKey::from_label("c420-cr")),
                    core::Scheme::kBase,
                    core::params_for(core::PrivacyLevel::kMedium));
  // Chroma ROI = blocks [0,4)x[0,4).
  int changed = 0;
  for (int by = 0; by < 4; ++by)
    for (int bx = 0; bx < 4; ++bx)
      if (img.component(1).block(bx, by) != original.component(1).block(bx, by))
        ++changed;
  EXPECT_EQ(changed, 16);
  // Chroma outside the ROI untouched.
  EXPECT_EQ(img.component(1).block(5, 5), original.component(1).block(5, 5));
}

TEST(Chroma420, EndToEndProtectShareRecover) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 8, 160, 112);
  const jpeg::CoefficientImage original = jpeg::forward_transform(
      rgb_to_ycc(scene.image), 75, jpeg::ChromaMode::k420);
  const SecretKey key = SecretKey::from_label("c420-e2e");
  const core::ProtectResult shared = core::protect(
      original, {core::RoiPolicy{Rect{20, 20, 60, 40}, key}});
  // The ROI was MCU-aligned outward.
  EXPECT_EQ(shared.params.rois[0].rect.x % 16, 0);
  EXPECT_EQ(shared.params.rois[0].rect.w % 16, 0);
  EXPECT_EQ(shared.params.chroma, jpeg::ChromaMode::k420);

  // Wire round trip through JFIF + params.
  const jpeg::CoefficientImage downloaded =
      jpeg::parse(jpeg::serialize(shared.perturbed));
  const core::PublicParameters params =
      core::PublicParameters::parse(shared.params.serialize());
  core::KeyRing keys;
  keys.add(key);
  EXPECT_EQ(core::recover(downloaded, params, keys), original);
}

TEST(Chroma420, ShadowRecoveryAfterPspScaling) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 9, 160, 112);
  const jpeg::CoefficientImage original = jpeg::forward_transform(
      rgb_to_ycc(scene.image), 75, jpeg::ChromaMode::k420);
  const SecretKey key = SecretKey::from_label("c420-shadow");
  const core::ProtectResult shared = core::protect(
      original, {core::RoiPolicy{Rect{32, 32, 64, 48}, key,
                                 core::Scheme::kCompression,
                                 core::PrivacyLevel::kMedium}});
  const transform::Chain chain{transform::scale(80, 56)};
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(shared.perturbed));
  core::KeyRing keys;
  keys.add(key);
  const YccImage recovered =
      core::recover_pixels(transformed, shared.params, chain, keys);
  const YccImage reference =
      transform::apply(chain, jpeg::inverse_transform(original));
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(recovered)),
                 to_gray(ycc_to_rgb(reference))),
            45.0);
}

}  // namespace
}  // namespace puppies
