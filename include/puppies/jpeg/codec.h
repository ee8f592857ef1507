#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "puppies/common/bytes.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg {

/// Which Huffman tables serialize() uses.
///
/// kStandard = Annex K typical tables (what the paper's PuPPIeS-B overhead
/// numbers implicitly measure: default tables mismatched to perturbed
/// statistics). kOptimized = tables rebuilt from the actual symbol histogram
/// (libjpeg -optimize; the paper's fix in PuPPIeS-C).
enum class HuffmanMode { kStandard, kOptimized };

struct EncodeOptions {
  HuffmanMode huffman = HuffmanMode::kOptimized;
  /// Chroma layout used by compress() when encoding pixels.
  ChromaMode chroma = ChromaMode::k444;
  /// Restart interval in MCUs (DRI segment + RSTn markers); 0 = none.
  /// Restart markers bound error propagation in damaged streams.
  int restart_interval = 0;
};

/// Per-block nonzero-coefficient masks (bit z set iff the zig-zag position z
/// of that block is nonzero), one vector per component in block row-major
/// order. The fused quantize→zigzag→scan kernel fills this during
/// forward_transform; serialize() then run-length codes by iterating set
/// bits instead of rescanning 64 coefficients per block. Purely an
/// accelerator: the encoded bytes never depend on whether an index is
/// supplied.
struct ScanIndex {
  std::vector<std::vector<std::uint64_t>> masks;

  /// True iff the index shape matches `img` (the validity precondition
  /// serialize() enforces before trusting the masks).
  bool matches(const CoefficientImage& img) const;
};

/// What serialize() spent and saved on the entropy-coded segment(s).
struct EncodeStats {
  /// Entropy-coded bytes emitted (scan data incl. stuffing and restart
  /// markers, excluding headers and EOI).
  std::size_t entropy_bytes = 0;
  /// Exact bytes the optimized tables saved vs the Annex K standard tables
  /// (priced from the symbol histograms; 0 in kStandard mode).
  std::size_t saved_bytes = 0;
};

/// Execution knob of the pixel codec, the band pipeline of jpeg/chunk.h:
/// output is identical for every band size, SIMD tier, and thread count.
struct ChunkOptions {
  /// MCU rows per chunk (one MCU row = 8 pixel rows in 4:4:4, 16 in 4:2:0).
  /// 0 resolves set_default_chunk_mcu_rows(), then the PUPPIES_CHUNK_ROWS
  /// environment variable, then the built-in default of 16.
  int mcu_rows = 0;
};

/// What one pass of the band pipeline cost in scratch.
struct ChunkStats {
  /// High-water mark of the per-band pixel scratch. Depends on width, chunk
  /// rows, chroma mode, and the entry point — never on image height.
  std::size_t peak_chunk_bytes = 0;
  int chunks = 0;          ///< number of bands processed
  int chunk_mcu_rows = 0;  ///< resolved MCU-rows-per-chunk knob
};

/// Pixel -> quantized-coefficient domain at the given JPEG quality.
/// `mode` selects full-resolution (4:4:4) or subsampled (4:2:0) chroma.
/// A non-null `scan` is filled with per-block nonzero masks for serialize().
/// The float input may lie outside [0,255] and is never clamped, so a shadow
/// image round-trips linearly (DESIGN.md §5.3).
CoefficientImage forward_transform(const YccImage& img, int quality,
                                   ChromaMode mode = ChromaMode::k444,
                                   ScanIndex* scan = nullptr);

/// Coefficient -> pixel domain. The YccImage result is float and UNCLAMPED:
/// perturbed regions may exceed [0,255], and keeping them linear is what
/// makes shadow-ROI subtraction exact (DESIGN.md §5.3). Requires a
/// 3-component image.
YccImage inverse_transform(const CoefficientImage& coeffs);

/// Decode straight to clamped 8-bit RGB (display path), one band at a time.
RgbImage decode_to_rgb(const CoefficientImage& coeffs,
                       const ChunkOptions& copt = {},
                       ChunkStats* stats = nullptr);

/// Entropy-encodes a coefficient image into a JFIF byte stream. Lossless:
/// parse(serialize(x)) == x.
///
/// `scan` (optional) supplies precomputed nonzero masks from
/// forward_transform; a null or shape-mismatched index is recomputed on the
/// fly via the active nonzero_mask kernel, so output bytes are identical
/// either way. `stats` (optional) receives entropy-segment accounting.
Bytes serialize(const CoefficientImage& coeffs, const EncodeOptions& opts = {},
                const ScanIndex* scan = nullptr, EncodeStats* stats = nullptr);

/// What parse() observed in the entropy-coded scan.
struct ParseStats {
  /// Restart segments in the scan (1 when no restart interval is in force).
  int restart_segments = 0;
  /// True iff the scan decoded on the exec pool (segment-parallel path);
  /// false for single-segment scans, a disabled knob, or a fallback.
  bool parallel = false;
};

/// One restart segment's byte range within an entropy-coded scan:
/// [begin, end) holds the segment's entropy bytes; the RSTn marker (or the
/// scan-terminating marker) sits at `end`.
struct ScanSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The retained source-scan context serialize_delta copies clean segments
/// from: the entropy bytes of a previously parsed (or serialized) stream,
/// its restart cadence, the per-segment byte ranges, and whether the scan
/// was coded with exactly the Annex K standard tables serialize() assigns in
/// HuffmanMode::kStandard. parse() fills one on request whenever the scan's
/// restart structure partitions cleanly (DESIGN.md §15).
struct ScanSource {
  int restart_interval = 0;           ///< MCUs per segment (DRI value)
  Bytes entropy;                      ///< scan bytes, RSTn markers included
  std::vector<ScanSegment> segments;  ///< byte ranges within `entropy`
  /// True iff every component's DC and AC spec equals the standard spec
  /// serialize() would assign it (luma tables for component 0, chroma for
  /// the rest) — the table-compatibility precondition of the delta path.
  bool standard_tables = false;
  // Geometry the entropy bytes encode; a delta target must match exactly.
  int width = 0;
  int height = 0;
  int components = 0;
  ChromaMode chroma = ChromaMode::k444;

  bool valid() const { return restart_interval > 0 && !segments.empty(); }
};

/// Parses a JFIF stream produced by serialize() (baseline, 4:4:4 or gray).
/// Malformed or hostile input throws ParseError — never anything else, and
/// never an unbounded allocation: SOF dimensions whose pixel footprint
/// exceeds max_decode_pixels() are rejected before any buffer is sized.
///
/// Scans with restart intervals decode segment-parallel on the exec pool
/// (each segment gets its own BitReader and fresh DC predictors — the exact
/// inverse of serialize()'s parallel segment writers); anything the
/// marker-aware segment scanner cannot cleanly partition falls back to the
/// serial decoder, so output bytes and error taxonomy are identical to a
/// serial decode at any thread count.
///
/// A non-null `source` is filled with the scan's delta-serving context
/// (entropy bytes + segment table) when the stream has a restart interval
/// and its markers partition cleanly; otherwise it is left !valid(). Purely
/// an extra retained output — the parse result never depends on it.
CoefficientImage parse(std::span<const std::uint8_t> data,
                       ParseStats* stats = nullptr,
                       ScanSource* source = nullptr);

/// What serialize_delta did with each restart segment.
struct DeltaStats {
  int segments_total = 0;
  int segments_copied = 0;     ///< clean: entropy bytes copied verbatim
  int segments_reencoded = 0;  ///< dirty: entropy-coded on the exec pool
  /// True iff a precondition miss routed the call through full serialize().
  bool fallback = false;
};

/// Incremental re-encode (DESIGN.md §15): entropy-codes only the restart
/// segments `dirty` touches and copies every clean segment's bytes verbatim
/// from `src`, splicing segment·RSTn in scan order under freshly written
/// headers. Requires HuffmanMode::kStandard, opts.restart_interval ==
/// src.restart_interval > 0, a standard-table source, matching geometry, and
/// a `dirty` set sized to this image's MCU grid; ANY precondition miss falls
/// back to serialize() (same bytes, full cost) and reports
/// DeltaStats::fallback.
///
/// Contract: the result always parses back to `coeffs` exactly. When `src`
/// holds canonical entropy bytes — produced by this library's serialize()
/// for coefficients that equal `coeffs` on every clean segment — the result
/// is byte-identical to a full serialize(coeffs, opts) at every thread count
/// and SIMD tier (DC predictors reset at each RSTn and BitWriter pads
/// flush() with 1-bits, so a segment's bytes depend only on its own
/// coefficients; tests_delta differences the two paths).
Bytes serialize_delta(const CoefficientImage& coeffs,
                      const EncodeOptions& opts, const ScanSource& src,
                      const DirtyMcuSet& dirty, const ScanIndex* scan = nullptr,
                      EncodeStats* stats = nullptr,
                      DeltaStats* delta_stats = nullptr);

/// Marks every MCU whose coefficients differ between `a` and `b` into
/// `dirty` (reset to the shared grid first). Requires identical geometry.
/// This is the diff that feeds serialize_delta when a transform recomputed
/// coefficients wholesale — e.g. the identity-fold recompress round trip,
/// where most blocks survive bit-exactly and only clamped ROIs change.
void diff_dirty_mcus(const CoefficientImage& a, const CoefficientImage& b,
                     DirtyMcuSet& dirty);

/// Marker-aware partition of an entropy-coded byte range at its RSTn
/// boundaries: O(bytes), stuffed-0xFF-safe, no entropy decoding. Returns
/// exactly `expected_segments` ranges when the scan's restart structure is
/// well formed (markers present, in RST0..RST7 sequence, right count before
/// the terminating marker), and an empty vector on any anomaly — the
/// caller's cue to decode serially and surface the serial error.
std::vector<ScanSegment> scan_restart_segments(
    std::span<const std::uint8_t> entropy, int expected_segments);

/// Test/bench hook for the segment-parallel decode path (default on).
/// Purely an execution knob: parse output and errors are identical either
/// way — tests and benches toggle it to difference the two paths.
bool parallel_decode_enabled();

/// 0 disables the path; any other value (conventionally -1) re-enables it.
void set_parallel_decode_enabled(int enabled);

/// Test/bench hook for the delta re-encode path (default on). When off,
/// serialize_delta routes straight to serialize() — output bytes are
/// identical either way, so benches toggle it to difference delta-on vs
/// delta-off serving.
bool delta_reencode_enabled();

/// 0 disables the path; any other value (conventionally -1) re-enables it.
void set_delta_reencode_enabled(int enabled);

/// Decoder allocation guard: the largest width*height (in pixels) parse()
/// will accept from an SOF header. Default 1'000'000'000 (1 GP — both codec
/// directions stream MCU-row bands, so pixel scratch stays O(width × chunk
/// rows) and only the coefficient planes scale with the image), overridable
/// with the PUPPIES_MAX_PIXELS environment variable; a crafted 65535x65535
/// header would otherwise commit the decoder to multi-GB coefficient
/// buffers before a single MCU is decoded.
std::size_t max_decode_pixels();

/// Overrides the guard at runtime (tests, embedders); 0 restores the
/// env/default resolution.
void set_max_decode_pixels(std::size_t pixels);

/// End-to-end conveniences; `stats` reports compress()'s band scratch.
Bytes compress(const RgbImage& img, int quality,
               const EncodeOptions& opts = {}, const ChunkOptions& copt = {},
               ChunkStats* stats = nullptr);
RgbImage decompress(std::span<const std::uint8_t> data);

/// The PSP-side "compression" transform: requantizes all coefficients to a
/// coarser quality level (new tables, values re-rounded).
CoefficientImage requantize(const CoefficientImage& coeffs, int new_quality);

}  // namespace puppies::jpeg
