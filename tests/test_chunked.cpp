// Differential suite for the chunked codec pipeline (jpeg/chunk.h) and the
// parallel restart-segment entropy encoder (DESIGN.md §11).
//
// The contract under test: the band pipeline and the segment-parallel
// serialize are pure execution-strategy changes — for every chunk size,
// chroma mode, perturbation scheme, Huffman table mode, restart interval, and
// thread count, the bytes match the serial seed algorithm exactly (the
// test-side reference codec in ref_pixel_codec.h, and a single-thread
// serialize). scripts/tier1.sh reruns this binary with PUPPIES_SIMD=scalar
// and under TSan (the segment writers are shared-state parallel code).

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "puppies/core/pipeline.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/fault/fault.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"
#include "ref_pixel_codec.h"
#include "ref_pixel_ops.h"

namespace puppies {
namespace {

RgbImage scene(int w, int h, int index = 1) {
  return synth::generate(synth::Dataset::kPascal, index, w, h).image;
}

/// synth::generate requires >= 32x32 scenes; sub-MCU and tiny shapes get a
/// deterministic gradient-plus-texture fill instead so every channel varies
/// along both axes.
RgbImage tiny_pattern(int w, int h) {
  RgbImage img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      img.r.at(x, y) = static_cast<std::uint8_t>(x * 29 + y * 7);
      img.g.at(x, y) = static_cast<std::uint8_t>(x * 5 + y * 31 + 64);
      img.b.at(x, y) = static_cast<std::uint8_t>((x ^ (y * 3)) * 17 + 128);
    }
  return img;
}

RgbImage test_image(int w, int h) {
  return (w >= 32 && h >= 32) ? scene(w, h) : tiny_pattern(w, h);
}

jpeg::CoefficientImage perturbed(const jpeg::CoefficientImage& img,
                                 core::Scheme scheme) {
  core::RoiPolicy policy;
  policy.rect = Rect{16, 16, 48, 32};
  policy.key = SecretKey::from_label("chunked-differential");
  policy.scheme = scheme;
  policy.level = core::PrivacyLevel::kMedium;
  return core::protect(img, {policy}).perturbed;
}

/// Restores auto thread count when a test pins the pool width.
struct ThreadGuard {
  ~ThreadGuard() { exec::configure(exec::Config{}); }
};

/// Restores the env/default pixel limit.
struct PixelLimitGuard {
  ~PixelLimitGuard() { jpeg::set_max_decode_pixels(0); }
};

// ---------------------------------------------------------------------------
// Band forward transform vs the seed reference.

TEST(ChunkedForward, MatchesWholeImageAcrossChunkSizesAndShapes) {
  // Odd sizes exercise clamped border blocks and (in 4:2:0) the duplicated
  // odd-height chroma tail; chunk sizes 1/2/5 exercise band boundaries that
  // are not block-aligned with image features, and 1000 exercises the
  // single-chunk degenerate case.
  const std::vector<std::pair<int, int>> sizes = {
      {96, 64}, {97, 63}, {33, 17}, {16, 16}, {8, 8}, {129, 40}};
  for (const auto& [w, h] : sizes) {
    const RgbImage img = test_image(w, h);
    for (jpeg::ChromaMode mode :
         {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
      jpeg::ScanIndex whole_scan;
      const jpeg::CoefficientImage whole =
          ref::forward(rgb_to_ycc(img), 75, mode, &whole_scan);
      for (int chunk : {1, 2, 5, 1000}) {
        jpeg::ChunkOptions copt;
        copt.mcu_rows = chunk;
        jpeg::ScanIndex scan;
        jpeg::ChunkStats stats;
        const jpeg::CoefficientImage chunked = jpeg::forward_transform_chunked(
            img, 75, mode, copt, &scan, &stats);
        ASSERT_EQ(chunked, whole)
            << w << "x" << h << " chroma "
            << (mode == jpeg::ChromaMode::k420 ? 420 : 444) << " chunk "
            << chunk;
        ASSERT_EQ(scan.masks, whole_scan.masks);
        ASSERT_EQ(stats.chunk_mcu_rows, chunk);
        ASSERT_EQ(jpeg::serialize(chunked, {}, &scan),
                  jpeg::serialize(whole, {}, &whole_scan));
      }
    }
  }
}

/// The streamed-chain matrix of ClampedReencodeMatchesWholeImagePath: the
/// pixel-photo kinds, a folded crop + flip_h before a scale, and the empty
/// chain, over a w x h source.
std::vector<std::pair<std::string, transform::Chain>> streamed_chains(int w,
                                                                      int h) {
  const transform::Step half = transform::scale(w / 2, h / 2);
  return {
      {"half", {half}},
      {"thumb8", {transform::scale(8, std::max(1, 8 * h / w))}},
      {"thumb40", {transform::scale(40, std::max(8, 40 * h / w))}},
      {"box_blur", {transform::box_blur()}},
      {"sharpen", {transform::sharpen()}},
      {"half+blur", {half, transform::box_blur()}},
      {"crop+flip_h+scale",
       {transform::crop_aligned(Rect{8, 8, 64, 40}), transform::flip_h(),
        transform::scale(51, 29)}},
      {"empty", {}},
  };
}

TEST(ChunkedForward, ClampedReencodeMatchesWholeImagePath) {
  // The serving-side path: a float YCC image with out-of-range samples
  // (what a pixel-domain transform of a perturbed image produces) is
  // clamped to u8 RGB and re-encoded. The band pipeline and the reference
  // must agree bit for bit, including on the clamp.
  const RgbImage img = scene(97, 63);
  YccImage ycc = rgb_to_ycc(img);
  for (int y = 0; y < ycc.height(); ++y)
    for (int x = 0; x < ycc.width(); ++x) {
      ycc.y.at(x, y) += ((x + y) % 7 - 3) * 40.f;  // push outside [0, 255]
      ycc.cb.at(x, y) -= (x % 5) * 30.f;
    }
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    jpeg::ScanIndex whole_scan;
    const jpeg::CoefficientImage whole =
        ref::forward(rgb_to_ycc(ycc_to_rgb(ycc)), 85, mode, &whole_scan);
    jpeg::ChunkOptions copt;
    copt.mcu_rows = 2;
    jpeg::ScanIndex scan;
    const jpeg::CoefficientImage chunked =
        jpeg::forward_transform_clamped_chunked(ycc, 85, mode, copt, &scan);
    ASSERT_EQ(chunked, whole);
    ASSERT_EQ(scan.masks, whole_scan.masks);
  }

  // The streamed chain: decode -> row stages -> clamp -> encode per band
  // must hold the bytes of the materialized path (whole-plane inverse,
  // transform::apply, clamped band encode) for every chain, source and
  // output chroma, chunk size and thread count. The perturbed ROI makes the
  // pixel steps leave [0, 255], so the clamp is exercised.
  ThreadGuard guard;
  const int w = 97, h = 63;
  for (jpeg::ChromaMode in_mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    const jpeg::CoefficientImage src = perturbed(
        jpeg::forward_transform_chunked(img, 90, in_mode),
        core::Scheme::kCompression);
    for (const auto& [name, chain] : streamed_chains(w, h)) {
      ASSERT_TRUE(transform::streamable(chain)) << name;
      for (jpeg::ChromaMode out_mode :
           {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
        exec::configure(exec::Config{1});
        jpeg::ScanIndex want_scan;
        const jpeg::CoefficientImage want =
            jpeg::forward_transform_clamped_chunked(
                transform::apply(chain, jpeg::inverse_transform(src)), 70,
                out_mode, {}, &want_scan);
        const Bytes want_bytes = jpeg::serialize(want, {}, &want_scan);
        for (int threads : {1, 2, 8}) {
          exec::configure(exec::Config{threads});
          for (int chunk : {1, 2, 5, 1000}) {
            jpeg::ChunkOptions copt;
            copt.mcu_rows = chunk;
            jpeg::ScanIndex scan;
            const jpeg::CoefficientImage got = transform::reencode_streamed(
                chain, src, 70, out_mode, copt, &scan);
            const std::string at =
                name + " in=" + std::to_string(static_cast<int>(in_mode)) +
                " out=" + std::to_string(static_cast<int>(out_mode)) +
                " threads=" + std::to_string(threads) +
                " chunk=" + std::to_string(chunk);
            ASSERT_EQ(got, want) << at;
            ASSERT_EQ(scan.masks, want_scan.masks) << at;
            ASSERT_EQ(jpeg::serialize(got, {}, &scan), want_bytes) << at;
          }
        }
      }
    }
  }
}

TEST(ChunkedForward, StreamedPathRefusesWhatApplyRefuses) {
  const jpeg::CoefficientImage src =
      jpeg::forward_transform_chunked(scene(64, 48), 80);
  // Not streamable: rotations that transpose, flip_v, recompress.
  for (const transform::Chain& chain :
       {transform::Chain{transform::rotate(90), transform::scale(8, 8)},
        transform::Chain{transform::flip_v()},
        transform::Chain{transform::scale(32, 24),
                         transform::recompress(50)}}) {
    EXPECT_FALSE(transform::streamable(chain));
    EXPECT_THROW(transform::reencode_streamed(chain, src, 70),
                 InvalidArgument);
  }
  // Runs that fold to the identity or flip_h stream.
  EXPECT_TRUE(transform::streamable(
      {transform::rotate(90), transform::rotate(270), transform::box_blur()}));
  EXPECT_TRUE(transform::streamable(
      {transform::rotate(180), transform::flip_v(), transform::scale(8, 8)}));
  // Intermediate sizes and crops are vetted before anything is decoded.
  EXPECT_THROW(transform::reencode_streamed(
                   {transform::scale(60000, 60000), transform::scale(8, 8)},
                   src, 70),
               InvalidArgument);
  EXPECT_THROW(transform::reencode_streamed(
                   {transform::crop_aligned(Rect{32, 0, 64, 16})}, src, 70),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Row kernels vs the seed whole-plane pixel steps (ref_pixel_ops.h).

Plane<float> noise_plane(int w, int h, std::uint32_t seed) {
  Plane<float> p(w, h);
  for (float& v : p.pixels()) {
    seed = seed * 1664525u + 1013904223u;
    v = static_cast<float>(seed >> 8) / static_cast<float>(1u << 24) * 400.f -
        72.f;  // [-72, 328): out of range both ways
  }
  return p;
}

bool same_bits(const Plane<float>& a, const Plane<float>& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(float)) == 0;
}

TEST(RowKernels, MatchSeedPixelOpsBitForBit) {
  ThreadGuard guard;
  const std::vector<std::pair<int, int>> sizes = {
      {1, 1}, {1, 9}, {9, 1}, {1, 40}, {40, 1}, {2, 3}, {37, 29}, {160, 7}};
  std::uint32_t seed = 1;
  for (const auto& [w, h] : sizes) {
    YccImage img;
    for (int c = 0; c < 3; ++c) img.component(c) = noise_plane(w, h, ++seed);
    std::vector<std::pair<int, int>> targets = {
        {w * 3 / 2 + 1, h * 5 / 3 + 1},                      // non-integer up
        {std::max(1, w * 2 / 5), std::max(1, h * 3 / 7)},    // non-integer down
        {std::max(1, w / 2), std::max(1, h / 2)},
        {8, std::max(1, 8 * h / std::max(w, 1))},            // 8-px thumbnail
        {std::max(1, 8 * w / std::max(h, 1)), 8},
        {1, 1}};
    for (int threads : {1, 8}) {
      exec::configure(exec::Config{threads});
      for (const auto& [nw, nh] : targets) {
        const YccImage got = transform::apply(transform::scale(nw, nh), img);
        for (int c = 0; c < 3; ++c)
          ASSERT_TRUE(same_bits(got.component(c),
                                ref::scale_plane(img.component(c), nw, nh)))
              << w << "x" << h << " -> " << nw << "x" << nh;
      }
      for (const transform::Step& f :
           {transform::box_blur(), transform::sharpen(),
            transform::filter3x3({0.5f, -1.25f, 0.f, 2.f, 1e-3f, -0.75f, 3.f,
                                  0.f, -2.5f})}) {
        const YccImage got = transform::apply(f, img);
        for (int c = 0; c < 3; ++c)
          ASSERT_TRUE(same_bits(got.component(c),
                                ref::convolve_plane(img.component(c),
                                                    f.kernel)))
              << w << "x" << h << " filter";
      }
    }
  }
}

TEST(ChunkedForward, CompressRoutesThroughChunkedPipeline) {
  const RgbImage img = scene(97, 63);
  jpeg::EncodeOptions eo;
  eo.chroma = jpeg::ChromaMode::k420;
  jpeg::ScanIndex scan;
  const Bytes want = jpeg::serialize(
      ref::forward(rgb_to_ycc(img), 75, eo.chroma, &scan), eo, &scan);
  jpeg::ChunkOptions copt;
  copt.mcu_rows = 2;
  jpeg::ChunkStats stats;
  ASSERT_EQ(jpeg::compress(img, 75, eo, copt, &stats), want);
  EXPECT_EQ(stats.chunk_mcu_rows, 2);
  EXPECT_GT(stats.peak_chunk_bytes, 0u);
  ASSERT_EQ(jpeg::compress(img, 75, eo), want);
}

TEST(ChunkedForward, DefaultKnobResolution) {
  jpeg::set_default_chunk_mcu_rows(2);
  jpeg::ChunkStats stats;
  jpeg::forward_transform_chunked(scene(64, 64), 75, jpeg::ChromaMode::k444,
                                  {}, nullptr, &stats);
  EXPECT_EQ(stats.chunk_mcu_rows, 2);
  jpeg::set_default_chunk_mcu_rows(0);
  jpeg::forward_transform_chunked(scene(64, 64), 75, jpeg::ChromaMode::k444,
                                  {}, nullptr, &stats);
  EXPECT_GT(stats.chunk_mcu_rows, 0);
  EXPECT_THROW(jpeg::set_default_chunk_mcu_rows(-1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Parallel restart-segment serialize: thread-count and scheme invariance.

TEST(ParallelSegments, ByteIdenticalAcrossThreadCountsAndSchemes) {
  ThreadGuard guard;
  const std::vector<core::Scheme> schemes = {
      core::Scheme::kNaive, core::Scheme::kBase, core::Scheme::kCompression,
      core::Scheme::kZero};
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    const jpeg::CoefficientImage base =
        jpeg::forward_transform(rgb_to_ycc(scene(96, 64)), 75, mode);
    for (core::Scheme s : schemes) {
      const jpeg::CoefficientImage img = perturbed(base, s);
      for (jpeg::HuffmanMode hm :
           {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
        for (int restart : {0, 1, 4, 64}) {
          jpeg::EncodeOptions opts;
          opts.huffman = hm;
          opts.restart_interval = restart;
          exec::configure(exec::Config{1});
          const Bytes oracle = jpeg::serialize(img, opts);
          for (int threads : {2, 8}) {
            exec::configure(exec::Config{threads});
            ASSERT_EQ(jpeg::serialize(img, opts), oracle)
                << "chroma " << (mode == jpeg::ChromaMode::k420 ? 420 : 444)
                << " scheme " << static_cast<int>(s) << " mode "
                << static_cast<int>(hm) << " restart " << restart
                << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(ParallelSegments, ParallelEncodedStreamsDecodeLosslessly) {
  ThreadGuard guard;
  exec::configure(exec::Config{8});
  const jpeg::CoefficientImage img = perturbed(
      jpeg::forward_transform(rgb_to_ycc(scene(96, 64)), 75,
                              jpeg::ChromaMode::k444),
      core::Scheme::kCompression);
  for (jpeg::HuffmanMode hm :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    jpeg::EncodeOptions opts;
    opts.huffman = hm;
    opts.restart_interval = 4;
    ASSERT_EQ(jpeg::parse(jpeg::serialize(img, opts)), img);
  }
}

TEST(ParallelSegments, CorruptSegmentInjectionIsDetectedOrVisible) {
  ThreadGuard guard;
  exec::configure(exec::Config{8});
  const jpeg::CoefficientImage img = perturbed(
      jpeg::forward_transform(rgb_to_ycc(scene(96, 64)), 75,
                              jpeg::ChromaMode::k444),
      core::Scheme::kBase);
  jpeg::EncodeOptions opts;
  opts.restart_interval = 4;  // 96x64 = 96 MCUs -> 24 segments
  Bytes corrupt;
  {
    // fired() counts since arming, and ScopedPlan's disarm resets the
    // count, so it must be read while the plan is still live.
    fault::ScopedPlan plan("jpeg.encode.segment=once");
    corrupt = jpeg::serialize(img, opts);
    EXPECT_EQ(fault::fired("jpeg.encode.segment"), 1u);
  }
  // A corrupted parallel worker must never silently produce the clean
  // stream: the decoder either rejects the stream or decodes something
  // else. Restart markers bound the blast radius to one segment, so the
  // stream structure itself usually survives.
  bool detected = false;
  try {
    detected = !(jpeg::parse(corrupt) == img);
  } catch (const ParseError&) {
    detected = true;
  }
  EXPECT_TRUE(detected);
  // And with no plan armed, the same encode is clean.
  ASSERT_EQ(jpeg::parse(jpeg::serialize(img, opts)), img);
}

// ---------------------------------------------------------------------------
// Bounded-allocation guarantee (PUPPIES_MAX_PIXELS on the streaming path).

TEST(BoundedMemory, JustOverLimitImageFailsCleanly) {
  PixelLimitGuard guard;
  jpeg::set_max_decode_pixels(10'000);
  const RgbImage over = scene(128, 80);  // 10'240 pixels
  EXPECT_THROW(jpeg::forward_transform_chunked(over, 75), InvalidArgument);
  EXPECT_THROW(jpeg::compress(over, 75), InvalidArgument);
  EXPECT_THROW(jpeg::forward_transform(rgb_to_ycc(over), 75), InvalidArgument);
  try {
    jpeg::forward_transform_chunked(over, 75);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("PUPPIES_MAX_PIXELS"),
              std::string::npos);
  }
  // A large image under the limit encodes fine.
  const RgbImage under = scene(124, 80);  // 9'920 pixels
  EXPECT_EQ(jpeg::parse(jpeg::compress(under, 75)),
            ref::forward(rgb_to_ycc(under), 75));
}

TEST(BoundedMemory, ScratchIsIndependentOfImageHeight) {
  jpeg::ChunkOptions copt;
  copt.mcu_rows = 4;
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    jpeg::ChunkStats short_stats, tall_stats;
    jpeg::forward_transform_chunked(scene(64, 128), 75, mode, copt, nullptr,
                                    &short_stats);
    jpeg::forward_transform_chunked(scene(64, 1024), 75, mode, copt, nullptr,
                                    &tall_stats);
    // 8x the pixel rows, same scratch high-water mark: the band buffer is
    // the only pixel-domain allocation and it never grows with height.
    EXPECT_EQ(tall_stats.peak_chunk_bytes, short_stats.peak_chunk_bytes);
    EXPECT_GT(tall_stats.chunks, short_stats.chunks);
    // Measured budget: 3 u8 + 3 float full-res band planes (+ 2 decimated
    // float chroma planes in 4:2:0), for width * (4 MCU rows) pixels.
    const int band_rows = copt.mcu_rows * (mode == jpeg::ChromaMode::k420
                                               ? 16 : 8);
    std::size_t budget = static_cast<std::size_t>(64) * band_rows *
                         (3 * sizeof(std::uint8_t) + 3 * sizeof(float));
    if (mode == jpeg::ChromaMode::k420)
      budget += 2 * static_cast<std::size_t>(32) * (band_rows / 2) *
                sizeof(float);
    EXPECT_LE(tall_stats.peak_chunk_bytes, budget);
  }

  // The streamed re-encode: every row window is sized by width and band,
  // so the footprint is the same for a short and a tall source, and for a
  // 2x and a 10x vertical downscale to the same width. A 10x downscale
  // runs its scale stage in sub-bands instead of growing the window.
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    const jpeg::CoefficientImage short_src =
        jpeg::forward_transform_chunked(test_image(64, 640), 80, mode);
    const jpeg::CoefficientImage tall_src =
        jpeg::forward_transform_chunked(test_image(64, 2560), 80, mode);
    const auto peak = [&](const jpeg::CoefficientImage& src,
                          const transform::Chain& chain) {
      jpeg::ChunkStats stats;
      transform::reencode_streamed(chain, src, 70, mode, copt, nullptr,
                                   &stats);
      return stats.peak_chunk_bytes;
    };
    const auto tenth = [](const jpeg::CoefficientImage& src) {
      return transform::scale(32, src.height() / 10);
    };
    const auto half = [](const jpeg::CoefficientImage& src) {
      return transform::scale(32, src.height() / 2);
    };
    for (const auto& make :
         {std::function<transform::Chain(const jpeg::CoefficientImage&)>(
              [](const jpeg::CoefficientImage&) { return transform::Chain{}; }),
          std::function<transform::Chain(const jpeg::CoefficientImage&)>(
              [](const jpeg::CoefficientImage&) {
                return transform::Chain{transform::box_blur()};
              }),
          std::function<transform::Chain(const jpeg::CoefficientImage&)>(
              [&](const jpeg::CoefficientImage& src) {
                return transform::Chain{tenth(src), transform::sharpen()};
              })}) {
      const std::size_t short_peak = peak(short_src, make(short_src));
      EXPECT_EQ(peak(tall_src, make(tall_src)), short_peak);
      // Far below one full-resolution float YCbCr image of the tall source.
      EXPECT_LT(short_peak, static_cast<std::size_t>(64) * 2560 * 3 *
                                sizeof(float) / 8);
    }
    EXPECT_EQ(peak(tall_src, {tenth(tall_src)}),
              peak(short_src, {half(short_src)}));
  }
}

// ---------------------------------------------------------------------------
// ScanIndex rebuild observability (psp.codec.scanindex_rebuilds).

TEST(ScanIndexMetrics, RebuildCounterTracksFastPathExits) {
  jpeg::ScanIndex scan;
  const jpeg::CoefficientImage img = jpeg::forward_transform(
      rgb_to_ycc(scene(64, 64)), 75, jpeg::ChromaMode::k444, &scan);
  auto rebuilds = [] {
    return metrics::counter("psp.codec.scanindex_rebuilds").value();
  };

  // Fast path: a matching index is trusted, no rebuild.
  const std::uint64_t base = rebuilds();
  jpeg::serialize(img, {}, &scan);
  EXPECT_EQ(rebuilds(), base);

  // No index: one rebuild.
  jpeg::serialize(img, {});
  EXPECT_EQ(rebuilds(), base + 1);

  // Shape-mismatched index (stale after a geometry change): one rebuild,
  // and the bytes still match the fast path exactly.
  jpeg::ScanIndex stale;
  stale.masks.resize(1);
  const Bytes via_stale = jpeg::serialize(img, {}, &stale);
  EXPECT_EQ(rebuilds(), base + 2);
  EXPECT_EQ(via_stale, jpeg::serialize(img, {}, &scan));

  // Once touched, the counter is part of the registry dump — the same JSON
  // `puppies store stats --json` embeds, so rebuild storms are observable
  // operationally, not just in this test.
  EXPECT_NE(metrics::dump_json().find("psp.codec.scanindex_rebuilds"),
            std::string::npos);
}

}  // namespace
}  // namespace puppies
