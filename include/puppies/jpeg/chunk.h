#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "puppies/common/bytes.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg {

/// The band pipeline — the library's only pixel <-> coefficient codec; the
/// whole-image entry points of jpeg/codec.h (forward_transform,
/// inverse_transform, decode_to_rgb, compress, decompress) are thin wrappers
/// over it. The encoder streams one band of MCU rows at a time through
/// rgb_to_ycc_row -> downsample2x_row -> fdct8x8/quantize_scan, and the
/// decoder pulls dequantize_idct -> upsample_row -> ycc_to_rgb_row the same
/// way, so pixel scratch is O(width * chunk rows) regardless of image
/// height. Coefficients, scan masks, pixels and bytes are identical for
/// every chunk size, SIMD tier, and thread count; tests pin them against
/// the serial seed codec in tests/ref_pixel_codec.h (DESIGN.md §11, §13).

/// forward_transform(rgb_to_ycc(img), ...) without the float YCbCr image:
/// reads the RGB planes row by row and converts one band at a time. Like
/// every entry point of the pipeline, fails with InvalidArgument (mentioning
/// PUPPIES_MAX_PIXELS) before allocating anything if width * height exceeds
/// max_decode_pixels() — pixel scratch never exceeds one band, so that limit
/// is a real bounded-allocation guarantee.
CoefficientImage forward_transform_chunked(
    const RgbImage& img, int quality, ChromaMode mode = ChromaMode::k444,
    const ChunkOptions& copt = {}, ScanIndex* scan = nullptr,
    ChunkStats* stats = nullptr);

/// The serving-side clamp + re-encode:
/// forward_transform(rgb_to_ycc(ycc_to_rgb(ycc)), ...) without ever holding
/// the clamped RGB image or the round-tripped YCbCr planes. `ycc` is the
/// unclamped float result of a pixel-domain transform chain.
CoefficientImage forward_transform_clamped_chunked(
    const YccImage& ycc, int quality, ChromaMode mode = ChromaMode::k444,
    const ChunkOptions& copt = {}, ScanIndex* scan = nullptr,
    ChunkStats* stats = nullptr);

/// One row of clamped 8-bit RGB handed out by the chunked inverse pipeline.
/// Called serially in top-to-bottom row order; the pointers address the
/// pipeline's band buffer and are only valid during the call.
using RgbRowSink = std::function<void(
    int y, const std::uint8_t* r, const std::uint8_t* g,
    const std::uint8_t* b)>;

/// Chunked (bounded-memory) inverse pipeline: the decode-side mirror of
/// the forward band pipeline. Pulls dequantize+IDCT -> chroma upsample
/// -> color-convert through one band of MCU rows at a time and hands each
/// clamped RGB row to `sink`; pixel-domain scratch is O(width * chunk rows)
/// regardless of image height, gated by max_decode_pixels() like the encode
/// side. decode_to_rgb() is this pipeline with a sink into an RgbImage; the
/// rows are identical at every chunk size, SIMD tier, and thread count
/// (DESIGN.md §13). Requires a 3-component image, like inverse_transform.
void inverse_transform_chunked(const CoefficientImage& coeffs,
                               const RgbRowSink& sink,
                               const ChunkOptions& copt = {},
                               ChunkStats* stats = nullptr);

/// The input rows a stage sees while it computes one output row. Rows sit
/// in a ring of `slots` rows, so row(r) addresses slot r % slots; a whole
/// plane is the window whose ring holds every row. Only the rows the stage
/// declared for this output row, [first, last], may be read: any other row
/// is refused (InvalidArgument), on the whole-plane path too, so a stage
/// that under-declares its halo fails instead of reading a stale slot.
struct RowWindow {
  const float* base = nullptr;
  int slots = 1;
  std::size_t stride = 0;  ///< floats per row
  int first = 0, last = -1;
  const float* row(int r) const {
    require(r >= first && r <= last, "row stage read an undeclared row");
    return base + static_cast<std::size_t>(r % slots) * stride;
  }
};

/// One band-local pixel step of a streamed re-encode (reencode_chunked): it
/// maps a float plane to an out_w x out_h plane one output row at a time,
/// the same way on each of the three YCbCr planes. Output row y reads only
/// the input rows reads(y) names, a closed range [first, last] of at most 3
/// rows whose ends never decrease as y grows. `row` writes out_w samples and
/// may run concurrently for distinct output rows.
struct RowStage {
  int out_w = 0;
  int out_h = 0;
  std::function<std::pair<int, int>(int y)> reads;
  std::function<void(const RowWindow& in, int y, float* out)> row;
};

/// The streamed clamped re-encode: decode `coeffs` one band at a time, run
/// each stage on the float YCbCr rows it needs, clamp to 8-bit RGB and
/// re-encode at `quality`, pulled by the output bands. No full-resolution
/// pixel plane is held on any side: the decoder and every stage keep a
/// window of about one band of their output rows, O(width * chunk rows),
/// whatever the image height or a stage's scale factor (a stage that reads
/// more input rows than its window holds runs in sub-bands). The result is
/// identical to forward_transform_clamped_chunked of the stages run one
/// after another over whole planes of inverse_transform(coeffs). ChunkStats
/// reports the forward scratch plus every window. Each stage's output size
/// is vetted against max_decode_pixels() before anything is allocated.
CoefficientImage reencode_chunked(const CoefficientImage& coeffs,
                                  std::span<const RowStage> stages,
                                  int quality,
                                  ChromaMode mode = ChromaMode::k444,
                                  const ChunkOptions& copt = {},
                                  ScanIndex* scan = nullptr,
                                  ChunkStats* stats = nullptr);

/// The empty-chain reencode_chunked: decode, clamp and re-encode at
/// `quality` — forward_transform_clamped_chunked(inverse_transform(coeffs),
/// ...) without the full planes. The PSP recompress path streams through
/// this when a transform chain folds to the identity.
CoefficientImage transcode_chunked(const CoefficientImage& coeffs, int quality,
                                   ChromaMode mode = ChromaMode::k444,
                                   const ChunkOptions& copt = {},
                                   ScanIndex* scan = nullptr,
                                   ChunkStats* stats = nullptr);

/// transcode_chunked + serialize: recompress a parsed stream at a new
/// quality with bounded pixel memory. `encode_stats` receives serialize()'s
/// entropy accounting.
Bytes recompress_chunked(const CoefficientImage& coeffs, int quality,
                         const EncodeOptions& opts = {},
                         const ChunkOptions& copt = {},
                         ChunkStats* stats = nullptr,
                         EncodeStats* encode_stats = nullptr);

/// Process-wide default for ChunkOptions::mcu_rows == 0. Resolution order:
/// set_default_chunk_mcu_rows() > PUPPIES_CHUNK_ROWS env var > 16.
int default_chunk_mcu_rows();

/// Overrides the default (CLI --chunk-rows, embedders); 0 restores the
/// env/default resolution. Purely an execution knob: output bytes are
/// identical for every value.
void set_default_chunk_mcu_rows(int rows);

}  // namespace puppies::jpeg
