#include "puppies/core/pipeline.h"

#include <tuple>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/lossless.h"

namespace puppies::core {

namespace {

Rect padded_bounds(const jpeg::CoefficientImage& img) {
  return Rect{0, 0, img.blocks_w() * 8, img.blocks_h() * 8};
}

std::vector<DeltaRoi> recoverable_deltas(const PublicParameters& params,
                                         const KeyRing& keys) {
  std::vector<DeltaRoi> deltas;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;
    require(roi.scheme != Scheme::kZero,
            "pixel-domain recovery of a PuPPIeS-Z ROI is not possible; use a "
            "lossless chain or scheme B/C (DESIGN.md limitations)");
    deltas.push_back(DeltaRoi{roi.rect, *set, roi.scheme, roi.params,
                              &roi.wind});
  }
  return deltas;
}

jpeg::CoefficientImage geometry_of(const PublicParameters& params) {
  return jpeg::CoefficientImage(params.width, params.height, params.components,
                                params.luma_qtable, params.chroma_qtable,
                                params.chroma);
}

/// Inverse of one lossless step, given the image size *before* the step.
jpeg::CoefficientImage invert_lossless(const transform::Step& step,
                                       const jpeg::CoefficientImage& img,
                                       int pre_w, int pre_h) {
  using transform::Kind;
  switch (step.kind) {
    case Kind::kIdentity:
      return img;
    case Kind::kRotate90:
    case Kind::kRotate180:
    case Kind::kRotate270:
    case Kind::kFlipH:
    case Kind::kFlipV:
      return jpeg::remap(img, img.bounds(),
                         transform::dihedral(step.kind).inverse());
    case Kind::kCropAligned: {
      // "Uncrop": embed into a zero canvas of the pre-crop size. Blocks that
      // were cropped away stay zero and are cropped away again on replay.
      jpeg::CoefficientImage canvas(pre_w, pre_h, img.component_count(),
                                    img.qtable(0), img.qtable(1),
                                    img.chroma_mode());
      for (int c = 0; c < img.component_count(); ++c)
        canvas.component(c).quant_index = img.component(c).quant_index;
      const Rect br = jpeg::CoefficientImage::pixel_to_block_rect(step.rect);
      for (int c = 0; c < img.component_count(); ++c) {
        const jpeg::Component& src = img.component(c);
        jpeg::Component& dst = canvas.component(c);
        for (int by = 0; by < src.blocks_h; ++by)
          for (int bx = 0; bx < src.blocks_w; ++bx)
            dst.block(br.x + bx, br.y + by) = src.block(bx, by);
      }
      return canvas;
    }
    default:
      throw InvalidArgument("recover_lossless: non-lossless step " +
                            step.to_string());
  }
}

}  // namespace

ProtectResult protect(const jpeg::CoefficientImage& original,
                      const std::vector<RoiPolicy>& policies) {
  ProtectResult result;
  result.perturbed = original;
  result.params.width = original.width();
  result.params.height = original.height();
  result.params.components = original.component_count();
  result.params.chroma = original.chroma_mode();
  result.params.luma_qtable = original.qtable(0);
  result.params.chroma_qtable = original.qtable(1);

  std::vector<Rect> aligned;
  const Rect grid = padded_bounds(original);
  // ROIs align to whole MCUs: 8 px for 4:4:4, 16 px for 4:2:0.
  const int mcu = original.mcu_pixels();
  for (const RoiPolicy& policy : policies) {
    const Rect rect = policy.rect.aligned_to(mcu, grid);
    require(!rect.empty(), "ROI policy rect is empty after alignment");
    for (const Rect& prev : aligned)
      require(!rect.intersects(prev),
              "aligned ROI rects overlap; split them disjointly first");
    aligned.push_back(rect);
  }

  for (std::size_t i = 0; i < policies.size(); ++i) {
    const RoiPolicy& policy = policies[i];
    const MatrixSet set = MatrixSet::derive(policy.key, policy.matrix_count);
    const PerturbParams params = params_for(policy.level);
    PerturbOutcome outcome = perturb_roi(result.perturbed, aligned[i], set,
                                         policy.scheme, params);
    ProtectedRoi roi;
    roi.id = static_cast<std::uint32_t>(i);
    roi.rect = aligned[i];
    roi.scheme = policy.scheme;
    roi.params = params;
    roi.matrix_id = policy.key.id();
    roi.matrix_count = policy.matrix_count;
    roi.zind = std::move(outcome.zind);
    roi.wind = std::move(outcome.wind);
    result.params.rois.push_back(std::move(roi));
  }
  return result;
}

jpeg::CoefficientImage recover(const jpeg::CoefficientImage& shared,
                               const PublicParameters& params,
                               const KeyRing& keys) {
  jpeg::CoefficientImage out = shared;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;  // not shared with this receiver
    recover_roi(out, roi.rect, *set, roi.scheme, roi.params, roi.zind);
  }
  return out;
}

jpeg::CoefficientImage recover_lossless(
    const jpeg::CoefficientImage& transformed, const PublicParameters& params,
    const transform::Chain& chain, const KeyRing& keys) {
  // Sizes before each step, for crop inversion.
  std::vector<std::pair<int, int>> pre_sizes;
  int w = params.width, h = params.height;
  for (const transform::Step& s : chain) {
    pre_sizes.emplace_back(w, h);
    std::tie(w, h) = transform::map_size(s, w, h);
  }

  // Replay the chain backwards to original geometry.
  jpeg::CoefficientImage img = transformed;
  for (std::size_t i = chain.size(); i-- > 0;)
    img = invert_lossless(chain[i], img, pre_sizes[i].first,
                          pre_sizes[i].second);

  img = recover(img, params, keys);

  // Replay forwards, folded into one remap.
  return transform::apply_lossless(chain, img);
}

YccImage build_shadow(const PublicParameters& params, const KeyRing& keys) {
  const std::vector<DeltaRoi> deltas = recoverable_deltas(params, keys);
  const jpeg::CoefficientImage geometry = geometry_of(params);
  const jpeg::CoefficientImage delta_img = build_delta_image(geometry, deltas);
  YccImage shadow = jpeg::inverse_transform(delta_img);
  // inverse_transform applies the +128 level shift; a shadow is a pure
  // difference signal centred at 0.
  for (int c = 0; c < 3; ++c) {
    Plane<float>& plane = shadow.component(c);
    exec::parallel_for(static_cast<std::size_t>(plane.height()),
                       [&](std::size_t y) {
                         for (float& v : plane.row(static_cast<int>(y)))
                           v -= 128.f;
                       });
  }
  return shadow;
}

YccImage recover_pixels(const YccImage& transformed,
                        const PublicParameters& params,
                        const transform::Chain& chain, const KeyRing& keys) {
  YccImage shadow = build_shadow(params, keys);

  // Replay the PSP chain on the shadow; requantization is not linear, so the
  // shadow passes through recompress steps unchanged (bounded error).
  for (const transform::Step& s : chain) {
    if (s.kind == transform::Kind::kRecompress) continue;
    shadow = transform::apply(s, shadow);
  }

  require(shadow.width() == transformed.width() &&
              shadow.height() == transformed.height(),
          "transform chain does not match the downloaded image size");

  YccImage out = transformed;
  for (int c = 0; c < 3; ++c) {
    Plane<float>& plane = out.component(c);
    const Plane<float>& s = shadow.component(c);
    exec::parallel_for_2d(plane.height(), plane.width(), [&](int y, int x) {
      plane.at(x, y) -= s.at(x, y);
    });
  }
  return out;
}

}  // namespace puppies::core
