#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "puppies/common/bytes.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::transform {

/// The PSP-side image transformations PUPPIES supports (Table I columns).
/// 32-bit so that Step has no padding bytes: a Step's object representation
/// (what gtest prints for a parameterized test's name) is then fully set by
/// its value, never by stale stack bytes. The wire format stays one byte.
enum class Kind : std::int32_t {
  kIdentity = 0,
  kScale,        ///< bilinear resize to (arg0 x arg1)
  kCropAligned,  ///< crop to 8-aligned `rect`
  kRotate90,     ///< clockwise
  kRotate180,
  kRotate270,
  kFlipH,
  kFlipV,
  kFilter3x3,    ///< convolution with `kernel` (filtering / blur / sharpen)
  kRecompress,   ///< requantize to quality arg0 (lossy "compression")
};

/// One transformation step with its public parameters. The PSP publishes the
/// steps it applied (the paper's "transformation type at PSP side" public
/// datum); receivers replay them on shadow ROIs.
struct Step {
  Kind kind = Kind::kIdentity;
  int arg0 = 0;
  int arg1 = 0;
  Rect rect{};
  std::array<float, 9> kernel{};

  /// True if this step can run losslessly in the coefficient domain.
  bool lossless() const;
  /// True if the step is linear in pixel values (shadow-ROI recoverable).
  bool linear() const;

  std::string to_string() const;
  bool operator==(const Step&) const = default;
};

using Chain = std::vector<Step>;

// Factories.
Step identity();
Step scale(int new_w, int new_h);
Step crop_aligned(const Rect& r);
Step rotate(int degrees_cw);  ///< 90 / 180 / 270
Step flip_h();
Step flip_v();
Step filter3x3(const std::array<float, 9>& kernel);
Step box_blur();
Step sharpen();
Step recompress(int quality);

/// The D4 element of a rotate/flip kind (InvalidArgument for any other).
Dihedral dihedral(Kind kind);

/// Applies a step / chain in the float pixel domain (unclamped, linear).
/// Each maximal run of identity/rotate/flip/crop steps folds into one
/// (window, D4 element) pair and costs one pass per plane; scale and
/// filter3x3 write each output row once through the same row kernels the
/// streamed re-encode runs. Before anything is allocated, a chain any of
/// whose intermediate images would exceed jpeg::max_decode_pixels() is
/// refused (InvalidArgument), as is a crop outside its input.
YccImage apply(const Step& step, const YccImage& img);
YccImage apply(const Chain& chain, YccImage img);

/// True iff `chain` runs on the streamed re-encode (reencode_streamed): it
/// has no recompress step, and every run of rotations/flips folds to the
/// identity or flip_h, so each output row comes from input rows alone.
/// Identity, scale, filter3x3 and crop steps always qualify. A pure
/// function of the chain.
bool streamable(const Chain& chain);

/// The clamped re-encode of `chain` applied to `coeffs`, streamed through
/// the band pipeline (jpeg::reencode_chunked) without any full-resolution
/// float plane: byte-identical to
/// jpeg::forward_transform_clamped_chunked(apply(chain,
/// jpeg::inverse_transform(coeffs)), quality, mode, ...) for every chunk
/// size, thread count and SIMD tier. Scale and filter steps become row
/// stages; each run of identity/crop/flip steps folds to one window stage.
/// Refuses what apply() refuses, before decoding; requires
/// streamable(chain).
jpeg::CoefficientImage reencode_streamed(
    const Chain& chain, const jpeg::CoefficientImage& coeffs, int quality,
    jpeg::ChromaMode mode = jpeg::ChromaMode::k444,
    const jpeg::ChunkOptions& copt = {}, jpeg::ScanIndex* scan = nullptr,
    jpeg::ChunkStats* stats = nullptr);

/// Applies a lossless step in the coefficient domain.
/// Throws InvalidArgument for non-lossless steps.
jpeg::CoefficientImage apply_lossless(const Step& step,
                                      const jpeg::CoefficientImage& img);

/// Applies a chain of lossless steps in the coefficient domain as one
/// jpeg::remap pass: the chain folds into a (window, D4 element) pair. Each
/// step is vetted while folding, before anything is allocated, and refused
/// (InvalidArgument) as a step-by-step apply would.
jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      const jpeg::CoefficientImage& img);

/// Maps a pixel rect through a step/chain: where an ROI lands after the PSP
/// transformation (image size `w` x `h` before the step).
Rect map_rect(const Step& step, const Rect& r, int w, int h);
Rect map_rect(const Chain& chain, Rect r, int w, int h);
/// Output image size of a step applied to a w x h image.
std::pair<int, int> map_size(const Step& step, int w, int h);
std::pair<int, int> map_size(const Chain& chain, int w, int h);

/// The longest chain read_chain accepts, both as sent and in canonical
/// form. Each step can be a full-image pass, so a request's work is bounded
/// by this count, not by its payload.
inline constexpr std::size_t kMaxChainSteps = 64;

/// Chain (de)serialization for the PSP's public metadata. read_chain
/// refuses a chain whose step count, or whose canonicalize() length, is
/// above kMaxChainSteps, applies the factories' parameter checks (scale
/// size, crop alignment and extent, recompress quality), and throws
/// ParseError on any of these.
void write_chain(ByteWriter& out, const Chain& chain);
Chain read_chain(ByteReader& in);

/// Canonical form of a chain for cache keying: two chains with equal
/// canonical forms produce byte-identical results in every delivery mode.
/// Three rewrites, each exactness-preserving (see DESIGN.md §7):
///   1. identity steps are dropped;
///   2. fields a step kind does not read are zeroed (e.g. a rotate's rect);
///   3. consecutive runs of rotations/flips — the dihedral group D4, whose
///      elements compose exactly as pixel/coefficient permutations — fold
///      into one Dihedral element, emitted as at most two steps ([flip_h]
///      then [rotate]).
/// Scales, crops, filters, and recompressions are never merged.
Chain canonicalize(const Chain& chain);

}  // namespace puppies::transform

// ---------------------------------------------------------------------------
// Forwarders for servebench/src/replay.cpp only. The ROI-delta serving path
// was removed (DESIGN.md §15), but replay.cpp still names its entry points;
// each forwarder returns exactly what the one remaining encode path returns.
// Delete this block with the benchmark change that re-sources servebench's
// per-layer metrics from server traces (ROADMAP.md, in-server tracing).
namespace puppies::jpeg {
struct ScanSource {};
struct DirtyMcuSet {};
inline CoefficientImage parse(std::span<const std::uint8_t> data,
                              ParseStats* stats, ScanSource*) {
  return parse(data, stats);
}
inline Bytes serialize_delta(const CoefficientImage& c, const EncodeOptions& o,
                             const ScanSource&, const DirtyMcuSet&) {
  return serialize(c, o);
}
inline Bytes recompress_delta_chunked(const CoefficientImage& r,
                                      const ScanSource&, int q,
                                      const EncodeOptions& o,
                                      const ChunkOptions& co) {
  return recompress_chunked(r, q, o, co);
}
}  // namespace puppies::jpeg
namespace puppies::transform {
inline jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                             const jpeg::CoefficientImage& img,
                                             jpeg::DirtyMcuSet*) {
  return apply_lossless(chain, img);
}
}  // namespace puppies::transform
