#include "puppies/core/perturb.h"

#include "puppies/common/error.h"
#include "puppies/exec/parallel_for.h"

namespace puppies::core {

std::string_view to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNaive:
      return "PuPPIeS-N";
    case Scheme::kBase:
      return "PuPPIeS-B";
    case Scheme::kCompression:
      return "PuPPIeS-C";
    case Scheme::kZero:
      return "PuPPIeS-Z";
  }
  return "?";
}

std::unordered_set<std::uint64_t> PositionSet::lookup() const {
  std::unordered_set<std::uint64_t> set;
  set.reserve(entries_.size());
  for (const CoefPosition& p : entries_) set.insert(p.packed());
  return set;
}

void PositionSet::serialize(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const CoefPosition& p : entries_) {
    out.u8(p.component);
    out.u32(p.block);
    out.u8(p.coef);
  }
}

PositionSet PositionSet::parse(ByteReader& in) {
  PositionSet set;
  const std::uint32_t n = in.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    CoefPosition p;
    p.component = in.u8();
    p.block = in.u32();
    p.coef = in.u8();
    if (p.component > 2 || p.coef > 63) throw ParseError("bad coef position");
    set.add(p);
  }
  return set;
}

namespace {

/// Per-component block-grid rect of an ROI. For 4:2:0 images the chroma
/// grids are half size in both directions, so the ROI must be MCU-aligned
/// (16 px) to map cleanly onto every component.
std::vector<Rect> component_walks(const jpeg::CoefficientImage& img,
                                  const Rect& roi) {
  const int mcu = img.mcu_pixels();
  // ROIs may extend into the block-padding area of non-multiple images.
  const Rect padded{0, 0, img.blocks_w() * 8, img.blocks_h() * 8};
  require(padded.contains(roi), "ROI outside image block grid");
  require(roi.x % mcu == 0 && roi.y % mcu == 0 && roi.w % mcu == 0 &&
              roi.h % mcu == 0,
          "ROI must be MCU-aligned (8 px for 4:4:4, 16 px for 4:2:0)");
  std::vector<Rect> walks;
  const int hmax = img.h_max(), vmax = img.v_max();
  for (int c = 0; c < img.component_count(); ++c) {
    const jpeg::Component& comp = img.component(c);
    walks.push_back(Rect{roi.x / (8 * hmax) * comp.h,
                         roi.y / (8 * vmax) * comp.v,
                         roi.w / (8 * hmax) * comp.h,
                         roi.h / (8 * vmax) * comp.v});
  }
  return walks;
}

/// AC delta for zig-zag index i of local block k under `scheme`.
int ac_delta(const MatrixSet& keys, const RangeMatrix& q, Scheme scheme,
             int i, int k) {
  const auto idx = static_cast<std::size_t>(i);
  const MatrixPair& pair = keys.for_block(k);
  switch (scheme) {
    case Scheme::kNaive:
    case Scheme::kBase:
      return pair.ac.p[idx];
    case Scheme::kCompression:
    case Scheme::kZero:
      return pair.ac.p[idx] % q[idx];
  }
  throw InvalidArgument("unknown scheme");
}

/// DC delta for local block index k under `scheme`.
int dc_delta(const MatrixSet& keys, Scheme scheme, int k) {
  if (scheme == Scheme::kNaive)
    return keys.pairs[0].ac.p[0];  // the naive weakness
  return keys.for_block(k).dc.p[static_cast<std::size_t>(k % 64)];
}

/// For C/Z the paper only perturbs coefficients the range matrix covers;
/// for N/B every coefficient is perturbed.
bool ac_perturbed(const RangeMatrix& q, Scheme scheme, int i) {
  if (scheme == Scheme::kNaive || scheme == Scheme::kBase) return true;
  return q[static_cast<std::size_t>(i)] > 1;
}

bool dc_perturbed(const PerturbParams&, Scheme) {
  return true;  // DC is perturbed in all schemes and at all privacy levels
}

}  // namespace

PerturbOutcome perturb_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const MatrixPair& keys, Scheme scheme,
                           const PerturbParams& params) {
  return perturb_roi(img, roi, MatrixSet{{keys}}, scheme, params);
}

void recover_roi(jpeg::CoefficientImage& img, const Rect& roi,
                 const MatrixPair& keys, Scheme scheme,
                 const PerturbParams& params, const PositionSet& zind) {
  recover_roi(img, roi, MatrixSet{{keys}}, scheme, params, zind);
}

PerturbOutcome perturb_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const MatrixSet& keys, Scheme scheme,
                           const PerturbParams& params) {
  require(!keys.pairs.empty(), "matrix set must not be empty");
  const std::vector<Rect> walks = component_walks(img, roi);
  const RangeMatrix q = make_range_matrix(params);
  PerturbOutcome outcome;

  for (int c = 0; c < img.component_count(); ++c) {
    jpeg::Component& comp = img.component(c);
    const Rect& walk = walks[static_cast<std::size_t>(c)];
    // Block rows run concurrently. Each chunk appends ZInd/WInd entries to
    // its own slot; merging in chunk order reproduces the sequential
    // (row-major) position order bit-for-bit at any thread count.
    const std::size_t rows = static_cast<std::size_t>(walk.h);
    std::vector<PerturbOutcome> partial(exec::chunk_count(rows, 1));
    exec::parallel_for_chunked(
        rows, 1, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          PerturbOutcome& local = partial[chunk];
          for (std::size_t row = begin; row < end; ++row) {
            const int ly = static_cast<int>(row);
            for (int lx = 0; lx < walk.w; ++lx) {
              const int k = ly * walk.w + lx;
              jpeg::CoefBlock& blk = comp.block(walk.x + lx, walk.y + ly);

              if (dc_perturbed(params, scheme)) {
                const auto [v, wrapped] =
                    wrap_add(blk[0], dc_delta(keys, scheme, k), kDcRing);
                blk[0] = static_cast<std::int16_t>(v);
                if (wrapped)
                  local.wind.add({static_cast<std::uint8_t>(c),
                                  static_cast<std::uint32_t>(k), 0});
              }

              for (int i = 1; i < 64; ++i) {
                if (!ac_perturbed(q, scheme, i)) continue;
                const auto idx = static_cast<std::size_t>(i);
                if (scheme == Scheme::kZero && blk[idx] == 0) continue;
                const auto [v, wrapped] = wrap_add(
                    blk[idx], ac_delta(keys, q, scheme, i, k), kAcRing);
                blk[idx] = static_cast<std::int16_t>(v);
                if (wrapped)
                  local.wind.add({static_cast<std::uint8_t>(c),
                                  static_cast<std::uint32_t>(k),
                                  static_cast<std::uint8_t>(i)});
                if (scheme == Scheme::kZero && v == 0)
                  local.zind.add({static_cast<std::uint8_t>(c),
                                  static_cast<std::uint32_t>(k),
                                  static_cast<std::uint8_t>(i)});
              }
            }
          }
        });
    for (const PerturbOutcome& local : partial) {
      outcome.zind.append(local.zind);
      outcome.wind.append(local.wind);
    }
  }
  return outcome;
}

void recover_roi(jpeg::CoefficientImage& img, const Rect& roi,
                 const MatrixSet& keys, Scheme scheme,
                 const PerturbParams& params, const PositionSet& zind) {
  require(!keys.pairs.empty(), "matrix set must not be empty");
  const std::vector<Rect> walks = component_walks(img, roi);
  const RangeMatrix q = make_range_matrix(params);
  const std::unordered_set<std::uint64_t> zeros = zind.lookup();

  for (int c = 0; c < img.component_count(); ++c) {
    jpeg::Component& comp = img.component(c);
    const Rect& walk = walks[static_cast<std::size_t>(c)];
    // Pure per-block inverse; rows touch disjoint blocks, no accumulation.
    exec::parallel_for(
        static_cast<std::size_t>(walk.h), [&](std::size_t row) {
          const int ly = static_cast<int>(row);
          for (int lx = 0; lx < walk.w; ++lx) {
            const int k = ly * walk.w + lx;
            jpeg::CoefBlock& blk = comp.block(walk.x + lx, walk.y + ly);

            if (dc_perturbed(params, scheme))
              blk[0] = static_cast<std::int16_t>(
                  wrap_sub(blk[0], dc_delta(keys, scheme, k), kDcRing));

            for (int i = 1; i < 64; ++i) {
              if (!ac_perturbed(q, scheme, i)) continue;
              const auto idx = static_cast<std::size_t>(i);
              if (scheme == Scheme::kZero && blk[idx] == 0) {
                const CoefPosition pos{static_cast<std::uint8_t>(c),
                                       static_cast<std::uint32_t>(k),
                                       static_cast<std::uint8_t>(i)};
                if (!zeros.contains(pos.packed())) continue;  // original zero
              }
              blk[idx] = static_cast<std::int16_t>(wrap_sub(
                  blk[idx], ac_delta(keys, q, scheme, i, k), kAcRing));
            }
          }
        });
  }
}

jpeg::CoefficientImage build_delta_image(
    const jpeg::CoefficientImage& geometry, const std::vector<DeltaRoi>& rois) {
  jpeg::CoefficientImage delta(geometry.width(), geometry.height(),
                               geometry.component_count(), geometry.qtable(0),
                               geometry.qtable(1), geometry.chroma_mode());
  for (int c = 0; c < geometry.component_count(); ++c)
    delta.component(c).quant_index = geometry.component(c).quant_index;

  for (const DeltaRoi& d : rois) {
    require(d.scheme != Scheme::kZero,
            "PuPPIeS-Z deltas depend on the original coefficients and cannot "
            "feed pixel-domain shadow recovery (see DESIGN.md)");
    const std::vector<Rect> walks = component_walks(delta, d.roi);
    const RangeMatrix q = make_range_matrix(d.params);
    const std::unordered_set<std::uint64_t> wraps =
        d.wind ? d.wind->lookup() : std::unordered_set<std::uint64_t>{};

    for (int c = 0; c < delta.component_count(); ++c) {
      jpeg::Component& comp = delta.component(c);
      const Rect& walk = walks[static_cast<std::size_t>(c)];
      // ROIs are applied sequentially (deltas accumulate across overlapping
      // ROIs); rows within one ROI touch disjoint blocks.
      exec::parallel_for(
          static_cast<std::size_t>(walk.h), [&](std::size_t row) {
            const int ly = static_cast<int>(row);
            for (int lx = 0; lx < walk.w; ++lx) {
              const int k = ly * walk.w + lx;
              jpeg::CoefBlock& blk = comp.block(walk.x + lx, walk.y + ly);

              auto effective = [&](int raw_delta, Ring ring, int coef) {
                const CoefPosition pos{static_cast<std::uint8_t>(c),
                                       static_cast<std::uint32_t>(k),
                                       static_cast<std::uint8_t>(coef)};
                return wraps.contains(pos.packed()) ? raw_delta - ring.size()
                                                    : raw_delta;
              };

              blk[0] = static_cast<std::int16_t>(
                  blk[0] +
                  effective(dc_delta(d.keys, d.scheme, k), kDcRing, 0));
              for (int i = 1; i < 64; ++i) {
                if (!ac_perturbed(q, d.scheme, i)) continue;
                const auto idx = static_cast<std::size_t>(i);
                blk[idx] = static_cast<std::int16_t>(
                    blk[idx] + effective(ac_delta(d.keys, q, d.scheme, i, k),
                                         kAcRing, i));
              }
            }
          });
    }
  }
  return delta;
}

}  // namespace puppies::core
