// Substrate microbenchmarks: the JPEG codec and perturbation primitives that
// every experiment sits on (google-benchmark).
#include <benchmark/benchmark.h>

#include <thread>

#include "bench_common.h"
#include "puppies/core/perturb.h"
#include "puppies/exec/pool.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/dct.h"
#include "puppies/jpeg/quant.h"
#include "puppies/kernels/kernels.h"

using namespace puppies;

namespace {

const synth::SceneImage& scene() {
  static const synth::SceneImage s =
      synth::generate(synth::Dataset::kPascal, 0, 496, 328);
  return s;
}

using kernels::supported_tiers;

jpeg::FloatBlock bench_block() {
  jpeg::FloatBlock block;
  Rng rng("bench-dct");
  for (float& v : block) v = static_cast<float>(rng.range(-128, 127));
  return block;
}

/// Registers one benchmark per kernel per tier this host supports, e.g.
/// BM_Fdct8x8<avx2>, so the tiers can be compared in one run.
void register_kernel_benchmarks() {
  constexpr int kRowW = 1184;
  for (kernels::SimdTier tier : supported_tiers()) {
    const kernels::KernelTable& k = kernels::table_for(tier);
    const std::string sfx =
        "<" + std::string(kernels::to_string(tier)) + ">";
    benchmark::RegisterBenchmark(
        ("BM_Fdct8x8" + sfx).c_str(), [&k](benchmark::State& state) {
          const jpeg::FloatBlock in = bench_block();
          jpeg::FloatBlock out;
          for (auto _ : state) {
            k.fdct8x8(in.data(), out.data());
            benchmark::DoNotOptimize(out);
          }
        });
    benchmark::RegisterBenchmark(
        ("BM_Idct8x8" + sfx).c_str(), [&k](benchmark::State& state) {
          const jpeg::FloatBlock in = bench_block();
          jpeg::FloatBlock out;
          for (auto _ : state) {
            k.idct8x8(in.data(), out.data());
            benchmark::DoNotOptimize(out);
          }
        });
    benchmark::RegisterBenchmark(
        ("BM_Quantize" + sfx).c_str(), [&k](benchmark::State& state) {
          const kernels::QuantConstants qc =
              jpeg::quant_constants(jpeg::luma_quant_table(75));
          jpeg::FloatBlock raw = bench_block();
          for (float& v : raw) v *= 8.f;
          std::array<std::int16_t, 64> out{};
          for (auto _ : state) {
            k.quantize(raw.data(), qc, out.data());
            benchmark::DoNotOptimize(out);
          }
        });
    benchmark::RegisterBenchmark(
        ("BM_Dequantize" + sfx).c_str(), [&k](benchmark::State& state) {
          const kernels::QuantConstants qc =
              jpeg::quant_constants(jpeg::luma_quant_table(75));
          std::array<std::int16_t, 64> block{};
          Rng rng("bench-deq");
          for (std::int16_t& v : block)
            v = static_cast<std::int16_t>(rng.range(-64, 64));
          jpeg::FloatBlock out;
          for (auto _ : state) {
            k.dequantize(block.data(), qc, out.data());
            benchmark::DoNotOptimize(out);
          }
        });
    benchmark::RegisterBenchmark(
        ("BM_RgbToYccRow" + sfx).c_str(), [&k](benchmark::State& state) {
          Rng rng("bench-rgb");
          std::vector<std::uint8_t> r(kRowW), g(kRowW), b(kRowW);
          for (int i = 0; i < kRowW; ++i) {
            r[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(rng.range(0, 255));
            g[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(rng.range(0, 255));
            b[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(rng.range(0, 255));
          }
          std::vector<float> y(kRowW), cb(kRowW), cr(kRowW);
          for (auto _ : state) {
            k.rgb_to_ycc_row(r.data(), g.data(), b.data(), kRowW, y.data(),
                             cb.data(), cr.data());
            benchmark::DoNotOptimize(y.data());
          }
          state.SetItemsProcessed(state.iterations() * kRowW);
        });
    benchmark::RegisterBenchmark(
        ("BM_YccToRgbRow" + sfx).c_str(), [&k](benchmark::State& state) {
          Rng rng("bench-ycc");
          std::vector<float> y(kRowW), cb(kRowW), cr(kRowW);
          for (int i = 0; i < kRowW; ++i) {
            y[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
            cb[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
            cr[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
          }
          std::vector<std::uint8_t> r(kRowW), g(kRowW), b(kRowW);
          for (auto _ : state) {
            k.ycc_to_rgb_row(y.data(), cb.data(), cr.data(), kRowW, r.data(),
                             g.data(), b.data());
            benchmark::DoNotOptimize(r.data());
          }
          state.SetItemsProcessed(state.iterations() * kRowW);
        });
    benchmark::RegisterBenchmark(
        ("BM_Downsample2xRow" + sfx).c_str(), [&k](benchmark::State& state) {
          Rng rng("bench-down");
          std::vector<float> r0(kRowW), r1(kRowW), out(kRowW / 2);
          for (int i = 0; i < kRowW; ++i) {
            r0[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
            r1[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
          }
          for (auto _ : state) {
            k.downsample2x_row(r0.data(), r1.data(), kRowW, kRowW / 2,
                               out.data());
            benchmark::DoNotOptimize(out.data());
          }
          state.SetItemsProcessed(state.iterations() * (kRowW / 2));
        });
    benchmark::RegisterBenchmark(
        ("BM_NonzeroMask" + sfx).c_str(), [&k](benchmark::State& state) {
          std::array<std::int16_t, 64> block{};
          Rng rng("bench-mask");
          for (std::int16_t& v : block)
            v = static_cast<std::int16_t>(
                rng.range(0, 3) == 0 ? rng.range(-64, 64) : 0);
          for (auto _ : state) {
            std::uint64_t m = k.nonzero_mask(block.data());
            benchmark::DoNotOptimize(m);
          }
        });
    benchmark::RegisterBenchmark(
        ("BM_QuantizeScan" + sfx).c_str(), [&k](benchmark::State& state) {
          const kernels::QuantConstants qc =
              jpeg::quant_constants(jpeg::luma_quant_table(75));
          jpeg::FloatBlock raw = bench_block();
          for (float& v : raw) v *= 8.f;
          std::array<std::int16_t, 64> out{};
          for (auto _ : state) {
            std::uint64_t m = k.quantize_scan(raw.data(), qc, out.data());
            benchmark::DoNotOptimize(m);
            benchmark::DoNotOptimize(out);
          }
        });
    // Whole entropy-encode path (scan index + Huffman + bit I/O) pinned to
    // one tier; the tier only affects speed, never the bytes.
    benchmark::RegisterBenchmark(
        ("BM_SerializeEntropy" + sfx).c_str(),
        [tier](benchmark::State& state) {
          const kernels::SimdTier prev = kernels::active_tier();
          kernels::configure(tier);
          const jpeg::CoefficientImage img =
              jpeg::forward_transform(rgb_to_ycc(scene().image), 75);
          for (auto _ : state) benchmark::DoNotOptimize(jpeg::serialize(img));
          kernels::configure(prev);
        });
    benchmark::RegisterBenchmark(
        ("BM_UpsampleRow" + sfx).c_str(), [&k](benchmark::State& state) {
          Rng rng("bench-up");
          std::vector<float> r0(kRowW / 2), r1(kRowW / 2), out(kRowW);
          for (int i = 0; i < kRowW / 2; ++i) {
            r0[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
            r1[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.range(0, 255));
          }
          const float sx = static_cast<float>(kRowW / 2) / kRowW;
          for (auto _ : state) {
            k.upsample_row(r0.data(), r1.data(), kRowW / 2, sx, 0.25f, kRowW,
                           out.data());
            benchmark::DoNotOptimize(out.data());
          }
          state.SetItemsProcessed(state.iterations() * kRowW);
        });
  }
}

void BM_ForwardTransform444(benchmark::State& state) {
  const YccImage ycc = rgb_to_ycc(scene().image);
  for (auto _ : state)
    benchmark::DoNotOptimize(jpeg::forward_transform(ycc, 75));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ycc.width() * ycc.height() * 3);
}
BENCHMARK(BM_ForwardTransform444)->Unit(benchmark::kMillisecond);

void BM_ForwardTransform420(benchmark::State& state) {
  const YccImage ycc = rgb_to_ycc(scene().image);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        jpeg::forward_transform(ycc, 75, jpeg::ChromaMode::k420));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ycc.width() * ycc.height() * 3);
}
BENCHMARK(BM_ForwardTransform420)->Unit(benchmark::kMillisecond);

void BM_SerializeOptimized(benchmark::State& state) {
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene().image), 75);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::serialize(img));
}
BENCHMARK(BM_SerializeOptimized)->Unit(benchmark::kMillisecond);

void BM_SerializeStandardTables(benchmark::State& state) {
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene().image), 75);
  const jpeg::EncodeOptions opts{jpeg::HuffmanMode::kStandard,
                                 jpeg::ChromaMode::k444, 0};
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::serialize(img, opts));
}
BENCHMARK(BM_SerializeStandardTables)->Unit(benchmark::kMillisecond);

void BM_Parse(benchmark::State& state) {
  const Bytes data = jpeg::compress(scene().image, 75);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::parse(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Parse)->Unit(benchmark::kMillisecond);

void BM_InverseTransform(benchmark::State& state) {
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene().image), 75);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::inverse_transform(img));
}
BENCHMARK(BM_InverseTransform)->Unit(benchmark::kMillisecond);

/// Full decode on the active tier: entropy decode (buffered BitReader +
/// Huffman LUT), dequantize + IDCT, color convert, clamp to 8-bit RGB.
void BM_Decompress(benchmark::State& state) {
  const Bytes data = jpeg::compress(scene().image, 75);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::decompress(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          scene().image.width() * scene().image.height() * 3);
}
BENCHMARK(BM_Decompress)->Unit(benchmark::kMillisecond);

void BM_PerturbRoiQuarterImage(benchmark::State& state) {
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene().image), 75);
  const core::MatrixPair pair =
      core::MatrixPair::derive(SecretKey::from_label("bench"));
  const Rect roi{0, 0, 248 / 8 * 8, 164 / 8 * 8};
  const core::PerturbParams params =
      core::params_for(core::PrivacyLevel::kMedium);
  for (auto _ : state) {
    jpeg::CoefficientImage copy = img;
    core::perturb_roi(copy, roi, pair, core::Scheme::kCompression, params);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PerturbRoiQuarterImage)->Unit(benchmark::kMillisecond);

/// Thread-scaling sweep over the block-parallel codec on a >= 1 MP image;
/// records ms and MP/s per stage at 1 and N threads into BENCH_codec.json
/// and checks the determinism contract (byte-identical serialize output).
void emit_codec_json() {
  // 1184 x 888 = 1.05 MP, both dimensions multiples of 16.
  const int w = 1184, h = 888;
  const synth::SceneImage big =
      synth::generate(synth::Dataset::kPascal, 0, w, h);
  const YccImage ycc = rgb_to_ycc(big.image);
  const double mp = w * h / 1e6;

  const unsigned hw = std::thread::hardware_concurrency();
  const int n_threads =
      static_cast<int>(std::max(4u, hw > 0 ? hw : 1u));

  std::vector<bench::StageRecord> stages;
  Bytes bytes_at_1;
  bool identical = true;
  double fwd_inv_ms_1 = 0, fwd_inv_ms_n = 0;

  for (const int threads : {1, n_threads}) {
    exec::configure(exec::Config{threads});
    jpeg::CoefficientImage coeffs = jpeg::forward_transform(ycc, 75);

    const double fwd_ms =
        bench::min_ms(3, [&] { coeffs = jpeg::forward_transform(ycc, 75); });
    YccImage decoded;
    const double inv_ms =
        bench::min_ms(3, [&] { decoded = jpeg::inverse_transform(coeffs); });

    stages.push_back({"forward_transform", threads, fwd_ms,
                      mp / (fwd_ms / 1e3)});
    stages.push_back({"inverse_transform", threads, inv_ms,
                      mp / (inv_ms / 1e3)});
    stages.push_back({"forward_plus_inverse", threads, fwd_ms + inv_ms,
                      mp / ((fwd_ms + inv_ms) / 1e3)});
    if (threads == 1) {
      fwd_inv_ms_1 = fwd_ms + inv_ms;
      bytes_at_1 = jpeg::serialize(coeffs);
    } else {
      fwd_inv_ms_n = fwd_ms + inv_ms;
      identical = jpeg::serialize(coeffs) == bytes_at_1;
    }
  }
  exec::configure(exec::Config{});

  const double speedup = fwd_inv_ms_n > 0 ? fwd_inv_ms_1 / fwd_inv_ms_n : 0;
  std::printf(
      "codec scaling: forward+inverse %.1f ms @1 thread, %.1f ms @%d "
      "threads (%.2fx, hardware_concurrency=%u), serialize %s\n",
      fwd_inv_ms_1, fwd_inv_ms_n, n_threads, speedup, hw,
      identical ? "byte-identical" : "DIVERGED");

  // SIMD tier comparison, single-threaded so only the kernels differ:
  // per-kernel ns/block plus end-to-end encode (pixels -> coefficients) and
  // decode (JFIF bytes -> RGB) throughput on every tier this host supports.
  const kernels::SimdTier initial_tier = kernels::active_tier();
  exec::configure(exec::Config{1});
  const Bytes jpg = jpeg::compress(big.image, 75);
  char line[512];
  std::string extras = "  \"simd_tier\": \"" +
                       std::string(kernels::to_string(initial_tier)) +
                       "\",\n  \"tiers\": [\n";
  const std::vector<kernels::SimdTier> tiers = supported_tiers();
  double scalar_fdct_ns = 0, scalar_enc = 0, scalar_entropy = 0,
         scalar_dec = 0;
  double best_fdct_ns = 0, best_enc = 0, best_dec = 0;
  for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
    const kernels::SimdTier tier = tiers[ti];
    kernels::configure(tier);
    const kernels::KernelTable& k = kernels::table_for(tier);

    const jpeg::FloatBlock in = bench_block();
    const kernels::QuantConstants qc =
        jpeg::quant_constants(jpeg::luma_quant_table(75));
    jpeg::FloatBlock fout;
    std::array<std::int16_t, 64> qout{};
    constexpr int kIters = 200000;
    auto ns_per_block = [&](auto&& fn) {
      return bench::min_ms(3,
                           [&] {
                             for (int i = 0; i < kIters; ++i) fn();
                           }) *
             1e6 / kIters;
    };
    const double fdct_ns = ns_per_block([&] {
      k.fdct8x8(in.data(), fout.data());
      benchmark::DoNotOptimize(fout);
    });
    const double idct_ns = ns_per_block([&] {
      k.idct8x8(in.data(), fout.data());
      benchmark::DoNotOptimize(fout);
    });
    const double quant_ns = ns_per_block([&] {
      k.quantize(in.data(), qc, qout.data());
      benchmark::DoNotOptimize(qout);
    });
    const double dequant_ns = ns_per_block([&] {
      k.dequantize(qout.data(), qc, fout.data());
      benchmark::DoNotOptimize(fout);
    });
    // The fused band-codec kernels: quantize + zig-zag + nonzero mask on the
    // encode side, un-zigzag + dequantize + IDCT on the decode side.
    const double quant_scan_ns = ns_per_block([&] {
      std::uint64_t m = k.quantize_scan(in.data(), qc, qout.data());
      benchmark::DoNotOptimize(m);
      benchmark::DoNotOptimize(qout);
    });
    const double dequant_idct_ns = ns_per_block([&] {
      k.dequantize_idct(qout.data(), qc, fout.data());
      benchmark::DoNotOptimize(fout);
    });
    // Exact 2x chroma upsample (sx = 0.5, an even-width 4:2:0 row of the
    // bench image) in ns per output pixel.
    std::vector<float> up_in(static_cast<std::size_t>(w / 2));
    std::vector<float> up_out(static_cast<std::size_t>(w));
    for (std::size_t i = 0; i < up_in.size(); ++i)
      up_in[i] = static_cast<float>(i % 251);
    constexpr int kRows = 20000;
    const double upsample_ns =
        bench::min_ms(3,
                      [&] {
                        for (int i = 0; i < kRows; ++i) {
                          k.upsample_row(up_in.data(), up_in.data(), w / 2,
                                         0.5f, 0.25f, w, up_out.data());
                          benchmark::DoNotOptimize(up_out.data());
                        }
                      }) *
        1e6 / (static_cast<double>(kRows) * w);

    jpeg::CoefficientImage coeffs;
    const double enc_ms =
        bench::min_ms(3, [&] { coeffs = jpeg::forward_transform(ycc, 75); });
    Bytes ser;
    const double ser_ms =
        bench::min_ms(3, [&] { ser = jpeg::serialize(coeffs); });
    RgbImage rgb;
    const double dec_ms =
        bench::min_ms(3, [&] { rgb = jpeg::decompress(jpg); });
    const double enc_mp_s = mp / (enc_ms / 1e3);
    const double entropy_mp_s = mp / (ser_ms / 1e3);
    const double dec_mp_s = mp / (dec_ms / 1e3);

    if (tier == kernels::SimdTier::kScalar) {
      scalar_fdct_ns = fdct_ns;
      scalar_enc = enc_mp_s;
      scalar_entropy = entropy_mp_s;
      scalar_dec = dec_mp_s;
    }
    best_fdct_ns = fdct_ns;
    best_enc = enc_mp_s;
    best_dec = dec_mp_s;

    std::snprintf(line, sizeof(line),
                  "    {\"tier\": \"%.*s\", \"fdct8x8_ns_per_block\": %.1f, "
                  "\"idct8x8_ns_per_block\": %.1f, "
                  "\"quantize_ns_per_block\": %.1f, "
                  "\"dequantize_ns_per_block\": %.1f, "
                  "\"quantize_scan_ns_per_block\": %.1f, "
                  "\"dequantize_idct_ns_per_block\": %.1f, "
                  "\"upsample_row_2x_ns_per_px\": %.3f, "
                  "\"encode_mp_per_s\": %.3f, "
                  "\"entropy_encode_mp_per_s\": %.3f, "
                  "\"decode_mp_per_s\": %.3f}%s\n",
                  static_cast<int>(kernels::to_string(tier).size()),
                  kernels::to_string(tier).data(), fdct_ns, idct_ns, quant_ns,
                  dequant_ns, quant_scan_ns, dequant_idct_ns, upsample_ns,
                  enc_mp_s, entropy_mp_s, dec_mp_s,
                  ti + 1 < tiers.size() ? "," : "");
    extras += line;
    std::printf(
        "tier %-6s: fdct %6.1f ns/blk, idct %6.1f, quant %5.1f, dequant "
        "%5.1f, quant_scan %5.1f, dequant_idct %5.1f; upsample 2x %.3f "
        "ns/px; encode %6.2f MP/s, entropy-encode %6.2f MP/s, decode %6.2f "
        "MP/s (1 thread)\n",
        std::string(kernels::to_string(tier)).c_str(), fdct_ns, idct_ns,
        quant_ns, dequant_ns, quant_scan_ns, dequant_idct_ns, upsample_ns,
        enc_mp_s, entropy_mp_s, dec_mp_s);
  }
  extras += "  ],\n";

  // Optimized-vs-standard Huffman table accounting on the bench image:
  // entropy-segment sizes from EncodeStats plus a decode round-trip check
  // of the optimized stream.
  {
    const jpeg::CoefficientImage coeffs = jpeg::forward_transform(ycc, 75);
    jpeg::EncodeStats opt_stats, std_stats;
    const Bytes opt_bytes =
        jpeg::serialize(coeffs, {}, nullptr, &opt_stats);
    const jpeg::EncodeOptions std_opts{jpeg::HuffmanMode::kStandard,
                                       jpeg::ChromaMode::k444, 0};
    jpeg::serialize(coeffs, std_opts, nullptr, &std_stats);
    const double ratio =
        std_stats.entropy_bytes > 0
            ? static_cast<double>(opt_stats.entropy_bytes) /
                  static_cast<double>(std_stats.entropy_bytes)
            : 0;
    const bool roundtrip = jpeg::parse(opt_bytes) == coeffs;
    std::snprintf(line, sizeof(line),
                  "  \"encode_entropy_mp_s\": %.3f,\n"
                  "  \"optimized_table_bytes_ratio\": %.4f,\n"
                  "  \"optimized_roundtrip_exact\": %s,\n",
                  scalar_entropy, ratio, roundtrip ? "true" : "false");
    extras += line;
    std::printf(
        "optimized tables: entropy %zu bytes vs %zu standard (ratio %.4f, "
        "%.1f%% smaller), round-trip %s\n",
        opt_stats.entropy_bytes, std_stats.entropy_bytes, ratio,
        (1 - ratio) * 100, roundtrip ? "exact" : "MISMATCH");
  }
  kernels::configure(initial_tier);
  exec::configure(exec::Config{});

  // Chunked streaming encode (DESIGN.md §11): full pixels -> JFIF bytes via
  // the bounded-memory MCU-row pipeline, with one restart segment per MCU
  // row so the entropy encode parallelizes maximally. Byte identity between
  // the 1-thread and N-thread runs is the determinism contract;
  // peak_chunk_bytes is the fixed per-chunk scratch footprint that makes
  // the path memory-bounded regardless of image height.
  {
    jpeg::EncodeOptions eo;
    eo.restart_interval = w / 8;  // one segment per MCU row
    jpeg::ChunkStats cstats;
    Bytes chunked_1, chunked_n;
    exec::configure(exec::Config{1});
    const double ms1 = bench::min_ms(3, [&] {
      chunked_1 = jpeg::compress(big.image, 75, eo, {}, &cstats);
    });
    exec::configure(exec::Config{n_threads});
    const double msn = bench::min_ms(3, [&] {
      chunked_n = jpeg::compress(big.image, 75, eo, {}, &cstats);
    });
    exec::configure(exec::Config{});
    const bool chunk_identical = chunked_1 == chunked_n;
    const double mp1 = mp / (ms1 / 1e3), mpn = mp / (msn / 1e3);
    std::snprintf(line, sizeof(line),
                  "  \"chunked_encode_mp_s_1t\": %.3f,\n"
                  "  \"chunked_encode_mp_s_nt\": %.3f,\n"
                  "  \"chunked_speedup\": %.2f,\n"
                  "  \"peak_chunk_bytes\": %zu,\n"
                  "  \"chunked_byte_identical\": %s,\n",
                  mp1, mpn, msn > 0 ? ms1 / msn : 0,
                  cstats.peak_chunk_bytes,
                  chunk_identical ? "true" : "false");
    extras += line;
    std::printf(
        "chunked encode: %.2f MP/s @1 thread, %.2f MP/s @%d threads "
        "(%.2fx), peak chunk scratch %zu bytes, output %s\n",
        mp1, mpn, n_threads, msn > 0 ? ms1 / msn : 0, cstats.peak_chunk_bytes,
        chunk_identical ? "byte-identical" : "DIVERGED");
  }

  // Decode-side mirror (DESIGN.md §13): segment-parallel entropy decode of a
  // restart-interval stream at 1 and N threads, the serial fused-LUT decode
  // of a plain stream, and the coefficient-identity check between the
  // parallel and the forced-serial paths (the determinism contract).
  {
    jpeg::EncodeOptions eo;
    eo.restart_interval = w / 8;  // one segment per MCU row
    const Bytes restart_jpg = jpeg::compress(big.image, 75, eo);
    jpeg::CoefficientImage dec_coeffs;
    jpeg::ParseStats pstats;
    exec::configure(exec::Config{1});
    const double dec_ms1 = bench::min_ms(5, [&] {
      dec_coeffs = jpeg::parse(restart_jpg, &pstats);
    });
    exec::configure(exec::Config{n_threads});
    jpeg::CoefficientImage dec_coeffs_n;
    const double dec_msn = bench::min_ms(5, [&] {
      dec_coeffs_n = jpeg::parse(restart_jpg, &pstats);
    });
    jpeg::set_parallel_decode_enabled(0);
    const jpeg::CoefficientImage dec_serial = jpeg::parse(restart_jpg);
    jpeg::set_parallel_decode_enabled(-1);
    const bool dec_identical =
        dec_coeffs == dec_serial && dec_coeffs_n == dec_serial;
    // Plain stream, one segment: the serial fused-LUT entropy decoder alone.
    exec::configure(exec::Config{1});
    const double fused_ms = bench::min_ms(5, [&] {
      benchmark::DoNotOptimize(jpeg::parse(jpg));
    });
    exec::configure(exec::Config{});
    const double dmp1 = mp / (dec_ms1 / 1e3), dmpn = mp / (dec_msn / 1e3);
    std::snprintf(line, sizeof(line),
                  "  \"parallel_decode_mp_s_1t\": %.3f,\n"
                  "  \"parallel_decode_mp_s_nt\": %.3f,\n"
                  "  \"decode_speedup\": %.2f,\n"
                  "  \"decode_restart_segments\": %d,\n"
                  "  \"fused_lut_decode_mp_s\": %.3f,\n"
                  "  \"decode_byte_identical\": %s,\n",
                  dmp1, dmpn, dec_msn > 0 ? dec_ms1 / dec_msn : 0,
                  pstats.restart_segments, mp / (fused_ms / 1e3),
                  dec_identical ? "true" : "false");
    extras += line;
    std::printf(
        "parallel decode: %.2f MP/s @1 thread, %.2f MP/s @%d threads "
        "(%.2fx, %d segments), fused-LUT serial parse %.2f MP/s, output %s\n",
        dmp1, dmpn, n_threads, dec_msn > 0 ? dec_ms1 / dec_msn : 0,
        pstats.restart_segments, mp / (fused_ms / 1e3),
        dec_identical ? "coefficient-identical" : "DIVERGED");
  }

  if (scalar_fdct_ns > 0 && tiers.size() > 1)
    std::printf(
        "tier speedup (%s vs scalar): fdct %.2fx, encode %.2fx, decode "
        "%.2fx\n",
        std::string(kernels::to_string(tiers.back())).c_str(),
        scalar_fdct_ns / best_fdct_ns, best_enc / scalar_enc,
        best_dec / scalar_dec);

  bench::write_bench_json("BENCH_codec.json", "codec_throughput", w, h,
                          static_cast<int>(hw), stages, identical, speedup,
                          extras);
}

}  // namespace

int main(int argc, char** argv) {
  emit_codec_json();
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
