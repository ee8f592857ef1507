// Differential suite for the decode side of the codec: the segment-parallel
// entropy decoder, the marker-aware restart-segment scanner, the fused
// Huffman+magnitude LUT, and the chunked inverse pipeline (DESIGN.md §13).
//
// The contract under test mirrors tests_chunked's encode-side contract: all
// of these are pure execution-strategy changes — for every restart interval,
// chroma mode, thread count, SIMD tier, and chunk size, the decoded
// coefficients and error taxonomy match the serial entropy decoder, and the
// decoded pixels (clamped RGB and unclamped float YCbCr) match the serial
// seed pixel codec kept test-side in ref_pixel_codec.h. scripts/tier1.sh
// reruns this binary with PUPPIES_SIMD=scalar and under TSan (the segment
// decoders are shared-state parallel code).

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "puppies/common/error.h"
#include "puppies/common/rng.h"
#include "puppies/core/pipeline.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"
#include "ref_pixel_codec.h"

namespace puppies::jpeg {
namespace {

RgbImage scene(int w, int h, int index = 9) {
  return synth::generate(synth::Dataset::kPascal, index, w, h).image;
}

Bytes encode(const RgbImage& img, int quality, int restart,
             ChromaMode chroma = ChromaMode::k444,
             HuffmanMode huffman = HuffmanMode::kOptimized) {
  EncodeOptions eo;
  eo.restart_interval = restart;
  eo.chroma = chroma;
  eo.huffman = huffman;
  return compress(img, quality, eo);
}

/// Restores auto thread count when a test pins the pool width.
struct ThreadGuard {
  ~ThreadGuard() { exec::configure(exec::Config{}); }
};

/// Restores the env/default parallel-decode resolution.
struct DecodeKnobGuard {
  ~DecodeKnobGuard() { set_parallel_decode_enabled(-1); }
};

/// Serial reference decode (the pre-existing single-reader path).
CoefficientImage parse_serial(const Bytes& data, ParseStats* stats = nullptr) {
  set_parallel_decode_enabled(0);
  CoefficientImage img = parse(data, stats);
  set_parallel_decode_enabled(-1);
  return img;
}

using kernels::supported_tiers;

// ---------------------------------------------------------------------------
// Segment-parallel decode vs the serial decoder.

TEST(ParallelDecode, MatchesSerialAcrossRestartChromaAndThreads) {
  DecodeKnobGuard knob;
  ThreadGuard guard;
  const RgbImage img = scene(120, 88);
  for (int restart : {0, 1, 3, 64}) {
    for (ChromaMode chroma : {ChromaMode::k444, ChromaMode::k420}) {
      const Bytes stream = encode(img, 80, restart, chroma);
      ParseStats serial_stats;
      const CoefficientImage want = parse_serial(stream, &serial_stats);
      EXPECT_FALSE(serial_stats.parallel);
      for (int threads : {1, 2, 8}) {
        exec::configure(exec::Config{threads});
        set_parallel_decode_enabled(1);
        ParseStats stats;
        const CoefficientImage got = parse(stream, &stats);
        ASSERT_EQ(got, want) << "restart=" << restart
                             << " chroma=" << static_cast<int>(chroma)
                             << " threads=" << threads;
        EXPECT_EQ(stats.restart_segments, serial_stats.restart_segments);
        // Multi-segment scans from our own encoder always partition cleanly.
        EXPECT_EQ(stats.parallel, stats.restart_segments > 1)
            << "restart=" << restart << " threads=" << threads;
      }
      exec::configure(exec::Config{});
    }
  }
}

TEST(ParallelDecode, ReportsSegmentCountAndKnob) {
  DecodeKnobGuard knob;
  const RgbImage img = scene(96, 64);
  // 96x64 in 4:4:4 = 12x8 MCUs; restart every 5 MCUs = ceil(96/5) = 20
  // segments.
  const Bytes stream = encode(img, 75, 5);
  ParseStats stats;
  (void)parse(stream, &stats);
  EXPECT_EQ(stats.restart_segments, 20);
  EXPECT_TRUE(stats.parallel);
  set_parallel_decode_enabled(0);
  EXPECT_FALSE(parallel_decode_enabled());
  ParseStats off;
  (void)parse(stream, &off);
  EXPECT_EQ(off.restart_segments, 20);
  EXPECT_FALSE(off.parallel);
  set_parallel_decode_enabled(-1);
  EXPECT_TRUE(parallel_decode_enabled());
  // No restart interval: one segment, nothing to parallelize.
  ParseStats single;
  (void)parse(encode(img, 75, 0), &single);
  EXPECT_EQ(single.restart_segments, 1);
  EXPECT_FALSE(single.parallel);
}

TEST(ParallelDecode, MatchesSerialWithStandardTablesAndHighDetail) {
  // Standard (mismatched) tables produce longer codes, exercising the fused
  // LUT's slow-path fallback for codes over 8 bits; a low-quality encode of
  // a busy scene exercises dense AC runs.
  DecodeKnobGuard knob;
  const RgbImage img = scene(104, 72, 23);
  for (int quality : {25, 92}) {
    const Bytes stream =
        encode(img, quality, 4, ChromaMode::k444, HuffmanMode::kStandard);
    ASSERT_EQ(parse(stream), parse_serial(stream)) << "quality=" << quality;
  }
}

// ---------------------------------------------------------------------------
// The marker-aware segment scanner, on synthetic byte streams.

TEST(SegmentScanner, SplitsAtMarkersAndSkipsStuffedBytes) {
  // Stuffed 0xFF 0x00 inside segment 0 must not split it; the RST0 marker
  // separates two segments whose ranges exclude the marker bytes.
  const std::vector<std::uint8_t> entropy = {0x12, 0xFF, 0x00, 0x34,
                                             0xFF, 0xD0, 0x56, 0x78};
  const auto segs = scan_restart_segments(entropy, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, 4u);
  EXPECT_EQ(segs[1].begin, 6u);
  EXPECT_EQ(segs[1].end, 8u);
}

TEST(SegmentScanner, RejectsAnomalies) {
  const std::vector<std::uint8_t> ok = {0x11, 0xFF, 0xD0, 0x22};
  EXPECT_EQ(scan_restart_segments(ok, 2).size(), 2u);
  // Wrong expected count (markers present but too few/too many segments).
  EXPECT_TRUE(scan_restart_segments(ok, 1).empty());
  EXPECT_TRUE(scan_restart_segments(ok, 3).empty());
  // Out-of-sequence marker (RST1 where RST0 is due).
  const std::vector<std::uint8_t> wrong_seq = {0x11, 0xFF, 0xD1, 0x22};
  EXPECT_TRUE(scan_restart_segments(wrong_seq, 2).empty());
  // A non-restart marker terminates the scan: the segment ends there and the
  // count must line up.
  const std::vector<std::uint8_t> eoi = {0x11, 0xFF, 0xD0, 0x22, 0xFF, 0xD9};
  const auto segs = scan_restart_segments(eoi, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].end, 4u);
  EXPECT_TRUE(scan_restart_segments(eoi, 3).empty());
}

TEST(SegmentScanner, DanglingTrailingFfStaysInFinalSegment) {
  // A truncated stream ending in a bare 0xFF: the scanner must not read past
  // the end; the byte lands in the final segment for the entropy decoder to
  // reject exactly as the serial path would.
  const std::vector<std::uint8_t> dangling = {0x11, 0xFF, 0xD0, 0x22, 0xFF};
  const auto segs = scan_restart_segments(dangling, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].begin, 3u);
  EXPECT_EQ(segs[1].end, 5u);
}

// ---------------------------------------------------------------------------
// Fuzz differential: the parallel path (with its serial fallback) must be
// observationally identical to the serial decoder on corrupt input — same
// accept/reject outcome, same image, same error message.

Bytes mutate_stream(const Bytes& base, Rng& rng) {
  Bytes m = base;
  switch (rng.below(4)) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int f = 0; f < flips; ++f)
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1:  // truncation
      m.resize(rng.below(m.size()));
      break;
    case 2: {  // corrupt the byte after some 0xFF (marker-targeted)
      std::vector<std::size_t> markers;
      for (std::size_t i = 0; i + 1 < m.size(); ++i)
        if (m[i] == 0xFF) markers.push_back(i + 1);
      if (!markers.empty())
        m[markers[rng.below(markers.size())]] =
            static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    default: {  // overwrite a span with 0xFF bytes (forges markers)
      const std::size_t pos = rng.below(m.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(4), m.size() - pos);
      for (std::size_t i = 0; i < len; ++i) m[pos + i] = 0xFF;
      break;
    }
  }
  return m;
}

TEST(FuzzDifferential, ParallelAndSerialAgreeOnMutants) {
  constexpr int kMutants = 2'500;
  DecodeKnobGuard knob;
  const RgbImage img = scene(96, 64, 31);
  const std::vector<Bytes> bases = {
      encode(img, 70, 3),
      encode(img, 55, 1, ChromaMode::k420),
      encode(img, 85, 16, ChromaMode::k444, HuffmanMode::kStandard),
  };
  Rng rng("decode-differential");
  int rejected = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    const Bytes mutant = mutate_stream(bases[rng.below(bases.size())], rng);
    bool serial_ok = true;
    std::string serial_err;
    CoefficientImage serial_img;
    try {
      serial_img = parse_serial(mutant);
    } catch (const ParseError& e) {
      serial_ok = false;
      serial_err = e.what();
    }
    set_parallel_decode_enabled(1);
    try {
      const CoefficientImage par_img = parse(mutant);
      ASSERT_TRUE(serial_ok) << "trial " << trial
                             << ": parallel accepted what serial rejected ("
                             << serial_err << ")";
      ASSERT_EQ(par_img, serial_img) << "trial " << trial;
    } catch (const ParseError& e) {
      ASSERT_FALSE(serial_ok)
          << "trial " << trial << ": parallel rejected what serial accepted: "
          << e.what();
      ASSERT_EQ(std::string(e.what()), serial_err) << "trial " << trial;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);  // the mix must actually reach the reject paths
}

// ---------------------------------------------------------------------------
// Band inverse pipeline vs the seed reference.

TEST(ChunkedDecode, MatchesDecodeToRgbAcrossChunkSizes) {
  for (ChromaMode chroma : {ChromaMode::k444, ChromaMode::k420}) {
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {33, 33}, {64, 48}, {96, 200}, {120, 88}}) {
      const CoefficientImage coeffs = parse(encode(scene(w, h), 80, 0, chroma));
      const RgbImage want = ycc_to_rgb(ref::inverse(coeffs));
      for (int rows : {1, 2, 5, 1000}) {
        ChunkOptions copt;
        copt.mcu_rows = rows;
        ChunkStats stats;
        const RgbImage got = decode_to_rgb(coeffs, copt, &stats);
        ASSERT_EQ(got, want) << w << "x" << h << " chunk=" << rows
                             << " chroma=" << static_cast<int>(chroma);
        EXPECT_EQ(stats.chunk_mcu_rows, rows);
        EXPECT_GT(stats.chunks, 0);
        EXPECT_GT(stats.peak_chunk_bytes, 0u);
      }
    }
  }
}

TEST(ChunkedDecode, MatchesOnEverySupportedTier) {
  const CoefficientImage coeffs =
      parse(encode(scene(88, 72), 77, 0, ChromaMode::k420));
  ChunkOptions copt;
  copt.mcu_rows = 2;
  for (kernels::SimdTier tier : supported_tiers()) {
    kernels::configure(tier);
    const RgbImage want = ycc_to_rgb(ref::inverse(coeffs));
    const RgbImage got = decode_to_rgb(coeffs, copt);
    EXPECT_EQ(got, want) << "tier=" << kernels::to_string(tier);
  }
  kernels::configure(kernels::detected_tier());
}

TEST(ChunkedDecode, PeakScratchIsHeightIndependent) {
  // Same width and chunk size, 4x the height: the band scratch must not
  // change — that is the bounded-memory claim of the streaming decoder.
  ChunkOptions copt;
  copt.mcu_rows = 2;
  ChunkStats small, tall;
  const CoefficientImage a = parse(encode(scene(96, 64), 80, 0));
  const CoefficientImage b = parse(encode(scene(96, 256), 80, 0));
  (void)decode_to_rgb(a, copt, &small);
  (void)decode_to_rgb(b, copt, &tall);
  EXPECT_EQ(small.peak_chunk_bytes, tall.peak_chunk_bytes);
  EXPECT_GT(tall.chunks, small.chunks);
}

TEST(ChunkedDecode, SinkSeesEveryRowInOrder) {
  const CoefficientImage coeffs = parse(encode(scene(64, 56), 75, 0));
  int next = 0;
  ChunkOptions copt;
  copt.mcu_rows = 1;
  inverse_transform_chunked(
      coeffs,
      [&](int y, const std::uint8_t* r, const std::uint8_t* g,
          const std::uint8_t* b) {
        EXPECT_EQ(y, next++);
        EXPECT_NE(r, nullptr);
        EXPECT_NE(g, nullptr);
        EXPECT_NE(b, nullptr);
      },
      copt);
  EXPECT_EQ(next, 56);
}

// ---------------------------------------------------------------------------
// The float codec stays linear: inverse_transform and forward_transform
// never clamp, which shadow-ROI subtraction depends on (DESIGN.md §5.3).

TEST(FloatCodec, InverseAndForwardStayUnclampedAndMatchReference) {
  // Perturbing the whole image at the high level pushes decoded samples far
  // outside [0, 255]; both directions must carry them through unclamped.
  core::RoiPolicy policy;
  policy.key = SecretKey::from_label("unclamped-float-codec");
  policy.scheme = core::Scheme::kBase;
  policy.level = core::PrivacyLevel::kHigh;
  for (ChromaMode chroma : {ChromaMode::k444, ChromaMode::k420}) {
    for (const auto& [w, h] :
         std::vector<std::pair<int, int>>{{97, 63}, {33, 17}, {8, 8}}) {
      const RgbImage img = h >= 32 ? scene(w, h) : RgbImage(w, h, 200);
      policy.rect = Rect{0, 0, w, h};
      const CoefficientImage coeffs =
          core::protect(parse(encode(img, 85, 0, chroma)), {policy}).perturbed;
      const YccImage want = ref::inverse(coeffs);
      const auto pixels = want.y.pixels();
      ASSERT_TRUE(std::any_of(pixels.begin(), pixels.end(), [](float v) {
        return v < 0.f || v > 255.f;
      })) << w << "x" << h;
      ScanIndex want_scan, got_scan;
      const CoefficientImage want_coeffs =
          ref::forward(want, 70, chroma, &want_scan);
      for (int rows : {1, 2, 5, 1000}) {
        // The whole-image entry points band on the process-wide default.
        set_default_chunk_mcu_rows(rows);
        const YccImage got = inverse_transform(coeffs);
        const CoefficientImage got_coeffs =
            forward_transform(want, 70, chroma, &got_scan);
        set_default_chunk_mcu_rows(0);
        const std::string at = std::to_string(w) + "x" + std::to_string(h) +
                               " chunk=" + std::to_string(rows) + " chroma=" +
                               std::to_string(static_cast<int>(chroma));
        for (int c = 0; c < 3; ++c)
          ASSERT_TRUE(got.component(c) == want.component(c)) << at;
        ASSERT_EQ(got_coeffs, want_coeffs) << at;
        ASSERT_EQ(got_scan.masks, want_scan.masks) << at;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming transcode vs the materializing inverse + forward.

TEST(ChunkedTranscode, MatchesInverseThenForwardPath) {
  for (ChromaMode in_chroma : {ChromaMode::k444, ChromaMode::k420}) {
    const CoefficientImage coeffs =
        parse(encode(scene(104, 120), 85, 0, in_chroma));
    for (ChromaMode out_chroma : {ChromaMode::k444, ChromaMode::k420}) {
      for (int rows : {1, 3, 1000}) {
        ChunkOptions copt;
        copt.mcu_rows = rows;
        ScanIndex want_scan, got_scan;
        const CoefficientImage want =
            ref::forward(rgb_to_ycc(ycc_to_rgb(ref::inverse(coeffs))), 60,
                         out_chroma, &want_scan);
        ChunkStats stats;
        const CoefficientImage got =
            transcode_chunked(coeffs, 60, out_chroma, copt, &got_scan, &stats);
        ASSERT_EQ(got, want)
            << "in=" << static_cast<int>(in_chroma)
            << " out=" << static_cast<int>(out_chroma) << " chunk=" << rows;
        // Identical coefficients + identical scan masks => identical bytes.
        EXPECT_EQ(serialize(got, {}, &got_scan), serialize(want, {}, &want_scan));
        EXPECT_GT(stats.peak_chunk_bytes, 0u);
      }
    }
  }
}

TEST(ChunkedTranscode, PspStreamsIdentityChainRecompress) {
  // A transform chain that folds to the identity (a full D4 turn) must take
  // the streamed transcode path on the PSP's clamped-reencode branch — and
  // because D4 folding is exact, the served bytes must equal the jpeg-layer
  // streamed recompress of the retained parse, which tests above pin equal
  // to the materializing inverse+forward path. That byte identity is what
  // keeps the transform cache key honest about ignoring the execution path.
  psp::PspService psp;
  const Bytes upload = encode(scene(72, 96), 88, 0);
  const std::string id = psp.upload(upload, {});
  const transform::Chain full_turn{transform::rotate(90), transform::rotate(90),
                                   transform::rotate(90),
                                   transform::rotate(90)};
  ASSERT_TRUE(transform::canonicalize(full_turn).empty());
  const std::uint64_t streamed_before =
      metrics::counter("psp.codec.recompress_streamed").value();
  psp.apply_transform(id, full_turn, psp::DeliveryMode::kClampedReencode, 70);
  const psp::Download d = psp.download(id);
  EXPECT_EQ(metrics::counter("psp.codec.recompress_streamed").value(),
            streamed_before + 1);

  // PSP defaults: optimized Huffman, 4:4:4, restart every 64 MCUs.
  EncodeOptions eo;
  eo.restart_interval = psp::PspConfig{}.restart_interval;
  ScanIndex scan;
  const CoefficientImage want =
      transcode_chunked(parse(upload), 70, eo.chroma, {}, &scan);
  EXPECT_EQ(d.jfif, serialize(want, eo, &scan));
}

TEST(ChunkedTranscode, RecompressMatchesSerializeOfTranscode) {
  const CoefficientImage coeffs = parse(encode(scene(80, 64), 90, 0));
  EncodeOptions eo;
  eo.chroma = ChromaMode::k420;
  ScanIndex scan;
  const Bytes want = serialize(
      transcode_chunked(coeffs, 55, eo.chroma, {}, &scan), eo, &scan);
  EXPECT_EQ(recompress_chunked(coeffs, 55, eo), want);
  // And the round trip stays parseable.
  EXPECT_NO_THROW((void)parse(recompress_chunked(coeffs, 55, eo)));
}

}  // namespace
}  // namespace puppies::jpeg
