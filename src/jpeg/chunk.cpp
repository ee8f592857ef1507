#include "puppies/jpeg/chunk.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/dct.h"
#include "puppies/jpeg/quant.h"
#include "puppies/kernels/kernels.h"

namespace puppies::jpeg {

namespace {

constexpr int kDefaultChunkMcuRows = 16;

/// 0 = unset: resolve PUPPIES_CHUNK_ROWS, else the default.
std::atomic<int> g_chunk_mcu_rows{0};

/// Reads block (bx, by) of a plane_w x plane_h component plane whose rows
/// [band_y0, band_y0 + band rows) are resident at `band` (stride plane_w).
/// Border blocks replicate the last column and row, exactly like
/// Plane::clamped_at — the clamped row index never exceeds plane_h - 1,
/// which the caller guarantees is resident whenever a block row needs it
/// (padded block rows only exist in the last band).
void extract_band_block(const float* band, int plane_w, int plane_h,
                        int band_y0, int bx, int by, float* out) {
  const int x0 = bx * 8, y0 = by * 8;
  if (x0 + 8 <= plane_w && y0 + 8 <= plane_h) {
    for (int y = 0; y < 8; ++y) {
      const float* src =
          band + static_cast<std::size_t>(y0 + y - band_y0) * plane_w + x0;
      for (int x = 0; x < 8; ++x) out[y * 8 + x] = src[x] - 128.f;
    }
    return;
  }
  for (int y = 0; y < 8; ++y) {
    const int py = std::min(y0 + y, plane_h - 1);
    const float* src = band + static_cast<std::size_t>(py - band_y0) * plane_w;
    for (int x = 0; x < 8; ++x) {
      const int px = std::min(x0 + x, plane_w - 1);
      out[y * 8 + x] = src[px] - 128.f;
    }
  }
}

/// Bounded-allocation gate shared by both directions: past this check the
/// pipeline allocates only the output plus one band of pixel scratch.
void require_pixel_limit(int width, int height, const char* direction) {
  const std::uint64_t pixels =
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
  require(pixels <= max_decode_pixels(),
          "image " + std::to_string(width) + "x" + std::to_string(height) +
              " exceeds the " + direction + " limit of " +
              std::to_string(max_decode_pixels()) +
              " pixels (PUPPIES_MAX_PIXELS)");
}

int resolve_chunk_rows(const ChunkOptions& copt) {
  return copt.mcu_rows > 0 ? copt.mcu_rows : default_chunk_mcu_rows();
}

/// One row of clamped 8-bit RGB handed to the forward pipeline.
struct RgbRow {
  const std::uint8_t* r;
  const std::uint8_t* g;
  const std::uint8_t* b;
};

/// Supplies image row `y`: either fills the width-pixel scratch rows it is
/// handed and returns them, or returns rows of storage it owns (zero-copy).
/// Called concurrently from pool workers with distinct `y` and distinct
/// scratch, so it may only read shared state.
using RgbRowSource = std::function<RgbRow(int y, std::uint8_t* r,
                                          std::uint8_t* g, std::uint8_t* b)>;

/// The forward pipeline's band scratch, allocated once per encode and
/// reused for every band: the 2x-decimated chroma rows in 4:2:0, plus u8
/// RGB and float YCbCr rows once a converting stage 1 asks for them. This
/// IS the pixel-domain footprint of an encode (ChunkStats::peak_chunk_bytes).
struct ForwardScratch {
  ForwardScratch(int width, int pixel_rows, ChromaMode mode)
      : w(width),
        rows(pixel_rows),
        cw(mode == ChromaMode::k420 ? (width + 1) / 2 : 0),
        crows(mode == ChromaMode::k420 ? (pixel_rows + 1) / 2 : 0) {
    chroma2.resize(2 * static_cast<std::size_t>(cw) * crows);
  }
  /// Sizes the RGB and YCbCr rows on first use (a no-op afterwards).
  void ensure_convert_rows() {
    if (!ycc.empty()) return;
    rgb.resize(3 * static_cast<std::size_t>(w) * rows);
    ycc.resize(3 * static_cast<std::size_t>(w) * rows);
  }
  std::uint8_t* rgb_row(int plane, int i) { return rgb.data() + at(plane, i); }
  float* ycc_row(int plane, int i) { return ycc.data() + at(plane, i); }
  /// Decimated chroma row i of plane 0 (Cb) or 1 (Cr), cw samples.
  float* chroma2_row(int plane, int i) {
    return chroma2.data() + (static_cast<std::size_t>(plane) * crows + i) * cw;
  }
  std::size_t bytes() const {
    return rgb.size() + (ycc.size() + chroma2.size()) * sizeof(float);
  }

  int w, rows, cw, crows;
  std::vector<std::uint8_t> rgb;
  std::vector<float> ycc, chroma2;

 private:
  std::size_t at(int plane, int i) const {
    return (static_cast<std::size_t>(plane) * rows + i) * w;
  }
};

/// Float YCbCr rows of the band in flight: the band's first row of each
/// full-resolution plane, row stride = image width.
struct YccBand {
  const float* y;
  const float* cb;
  const float* cr;
};

/// Stage 1 of the forward pipeline: makes image rows [y0, y1) available as
/// float YCbCr. Called serially once per band, before any later stage reads
/// the band.
using BandStage =
    std::function<YccBand(int y0, int y1, ForwardScratch& scratch)>;

/// Stage 1 for an RGB row source: produce the band's rows and color-convert
/// them into the scratch. Rows are independent and each writes only its own
/// scratch slots. `source` must outlive the returned stage.
BandStage convert_rows(const RgbRowSource& source) {
  return [&source](int y0, int y1, ForwardScratch& buf) {
    buf.ensure_convert_rows();
    const kernels::KernelTable& k = kernels::active();
    exec::parallel_for(static_cast<std::size_t>(y1 - y0), [&](std::size_t r) {
      const int i = static_cast<int>(r);
      const RgbRow rgb = source(y0 + i, buf.rgb_row(0, i), buf.rgb_row(1, i),
                                buf.rgb_row(2, i));
      k.rgb_to_ycc_row(rgb.r, rgb.g, rgb.b, buf.w, buf.ycc_row(0, i),
                       buf.ycc_row(1, i), buf.ycc_row(2, i));
    });
    return YccBand{buf.ycc_row(0, 0), buf.ycc_row(1, 0), buf.ycc_row(2, 0)};
  };
}

/// The forward band pipeline: stage 1 either converts into the scratch (RGB
/// sources) or hands out rows of caller-owned float planes.
CoefficientImage forward_bands(int width, int height, const BandStage& stage1,
                               int quality, ChromaMode mode,
                               const ChunkOptions& copt, ScanIndex* scan,
                               ChunkStats* stats) {
  require(width > 0 && height > 0, "chunked encode dimensions");
  require_pixel_limit(width, height, "encode");

  const int chunk_mcu_rows = resolve_chunk_rows(copt);
  // Stage 3 writes every coefficient of every block, padding included, so
  // the pool workers that fill the blocks first-touch their pages.
  CoefficientImage out(width, height, 3, luma_quant_table(quality),
                       chroma_quant_table(quality), mode, kUninitialized);
  if (scan) {
    scan->masks.resize(3);
    for (int c = 0; c < 3; ++c)
      scan->masks[static_cast<std::size_t>(c)].assign(
          out.component(c).blocks.size(), 0);
  }

  const int mcu_px = 8 * out.v_max();  // 8 (4:4:4) or 16 (4:2:0)
  const int total_mcu_rows = out.blocks_h() / out.component(0).v;
  const int nchunks =
      (total_mcu_rows + chunk_mcu_rows - 1) / chunk_mcu_rows;
  ForwardScratch buf(width, std::min(total_mcu_rows, chunk_mcu_rows) * mcu_px,
                     mode);

  const kernels::QuantConstants qc_luma = quant_constants(out.qtable_for(0));
  const kernels::QuantConstants qc_chroma = quant_constants(out.qtable_for(1));
  const kernels::KernelTable& k = kernels::active();

  for (int ci = 0; ci < nchunks; ++ci) {
    // Band = MCU rows [m0, m1) = pixel rows [y0, y1); the last may be short.
    const int m0 = ci * chunk_mcu_rows;
    const int m1 = std::min(total_mcu_rows, m0 + chunk_mcu_rows);
    const int y0 = m0 * mcu_px;
    const int y1 = std::min(height, m1 * mcu_px);
    const YccBand band = stage1(y0, y1, buf);

    // Stage 2 (4:2:0): decimate the band's chroma rows. y0 is a multiple of
    // 16, so every output chroma row's two source rows live in this band;
    // the odd-height tail duplicates the last image row, as a clamped
    // vertical tap would.
    const int cy0 = y0 / 2;
    if (mode == ChromaMode::k420) {
      exec::parallel_for(
          static_cast<std::size_t>((y1 + 1) / 2 - cy0), [&](std::size_t j) {
            const int i = static_cast<int>(j);
            const std::size_t ya = static_cast<std::size_t>(2 * i) * width;
            const std::size_t yb =
                static_cast<std::size_t>(std::min(2 * i + 1, height - 1 - y0)) *
                width;
            k.downsample2x_row(band.cb + ya, band.cb + yb, width, buf.cw,
                               buf.chroma2_row(0, i));
            k.downsample2x_row(band.cr + ya, band.cr + yb, width, buf.cw,
                               buf.chroma2_row(1, i));
          });
    }

    // Stage 3: DCT + quantize this band's block rows of every component,
    // all components in one pass on the pool (component grids are padded to
    // whole MCUs, so MCU rows [m0, m1) are block rows [m0 * v, m1 * v)).
    // Every block's samples are exactly those of a whole-plane read, and
    // each block writes its own preallocated slot — hence bit-identical for
    // every band size and thread count.
    int rows[3], total = 0;
    for (int c = 0; c < 3; ++c)
      total += rows[c] = (m1 - m0) * out.component(c).v;
    exec::parallel_for(static_cast<std::size_t>(total), [&](std::size_t job) {
      int c = 0, rel = static_cast<int>(job);
      while (rel >= rows[c]) rel -= rows[c++];
      Component& comp = out.component(c);
      const bool subsampled = mode == ChromaMode::k420 && c > 0;
      const float* plane = c == 0       ? band.y
                           : subsampled ? buf.chroma2_row(c - 1, 0)
                           : c == 1     ? band.cb
                                        : band.cr;
      const int plane_w = subsampled ? (width + 1) / 2 : width;
      const int plane_h = subsampled ? (height + 1) / 2 : height;
      const int band_y0 = subsampled ? cy0 : y0;
      const int by = m0 * comp.v + rel;
      FloatBlock samples, coeffs;
      for (int bx = 0; bx < comp.blocks_w; ++bx) {
        extract_band_block(plane, plane_w, plane_h, band_y0, bx, by,
                           samples.data());
        k.fdct8x8(samples.data(), coeffs.data());
        const std::uint64_t m = k.quantize_scan(
            coeffs.data(), c == 0 ? qc_luma : qc_chroma,
            comp.block(bx, by).data());
        if (scan)
          scan->masks[static_cast<std::size_t>(c)]
                     [static_cast<std::size_t>(by) * comp.blocks_w +
                      static_cast<std::size_t>(bx)] = m;
      }
    });
  }
  if (stats) {
    stats->peak_chunk_bytes = buf.bytes();
    stats->chunks = nchunks;
    stats->chunk_mcu_rows = chunk_mcu_rows;
  }
  return out;
}

}  // namespace

CoefficientImage forward_transform(const YccImage& img, int quality,
                                   ChromaMode mode, ScanIndex* scan) {
  const int w = img.width(), h = img.height();
  require(img.cb.width() == w && img.cb.height() == h &&
              img.cr.width() == w && img.cr.height() == h,
          "forward_transform expects full-resolution YCbCr planes");
  // The float planes already hold the band's rows: stage 1 points at them.
  const BandStage stage1 = [&img](int y0, int, ForwardScratch&) {
    return YccBand{img.y.row(y0).data(), img.cb.row(y0).data(),
                   img.cr.row(y0).data()};
  };
  return forward_bands(w, h, stage1, quality, mode, {}, scan, nullptr);
}

CoefficientImage forward_transform_chunked(const RgbImage& img, int quality,
                                           ChromaMode mode,
                                           const ChunkOptions& copt,
                                           ScanIndex* scan,
                                           ChunkStats* stats) {
  // Zero-copy source: the RGB planes already hold clamped 8-bit rows.
  const RgbRowSource source = [&img](int y, std::uint8_t*, std::uint8_t*,
                                     std::uint8_t*) {
    return RgbRow{img.r.row(y).data(), img.g.row(y).data(),
                  img.b.row(y).data()};
  };
  return forward_bands(img.width(), img.height(), convert_rows(source),
                       quality, mode, copt, scan, stats);
}

CoefficientImage forward_transform_clamped_chunked(const YccImage& ycc,
                                                   int quality,
                                                   ChromaMode mode,
                                                   const ChunkOptions& copt,
                                                   ScanIndex* scan,
                                                   ChunkStats* stats) {
  // Clamp one row at a time through the same kernel ycc_to_rgb uses, so the
  // round trip float YCC -> u8 RGB -> float YCC matches
  // rgb_to_ycc(ycc_to_rgb(ycc)) sample for sample without materializing
  // either intermediate.
  const RgbRowSource source = [&ycc](int y, std::uint8_t* r, std::uint8_t* g,
                                     std::uint8_t* b) {
    ycc_to_rgb_row_u8(ycc, y, r, g, b);
    return RgbRow{r, g, b};
  };
  return forward_bands(ycc.width(), ycc.height(), convert_rows(source),
                       quality, mode, copt, scan, stats);
}

Bytes compress(const RgbImage& img, int quality, const EncodeOptions& opts,
               const ChunkOptions& copt, ChunkStats* stats) {
  ScanIndex scan;
  const CoefficientImage coeffs =
      forward_transform_chunked(img, quality, opts.chroma, copt, &scan, stats);
  return serialize(coeffs, opts, &scan);
}

namespace {

/// Band-resident inverse pipeline behind every decode entry point:
/// dequantize+IDCT the block rows covering a pixel-row range of every
/// component and upsample subsampled chroma through its one-row vertical
/// halo, leaving the unclamped float YCbCr rows either in a ring of
/// `ring_rows` rows per plane (row y in slot y % ring_rows) or — with an
/// `out` image — in `out`'s planes. Every kernel invocation sees exactly the
/// values a whole-plane decode would hand it — same dequantize_idct samples,
/// same upsample taps — so the rows are bit-identical for every band size
/// and ring position (DESIGN.md §13). A decoded row stays resident until a
/// later decode_rows() call reuses its slot.
class InverseBandDecoder {
 public:
  InverseBandDecoder(const CoefficientImage& coeffs, int ring_rows,
                     YccImage* out = nullptr)
      : coeffs_(coeffs),
        out_(out),
        w_(coeffs.width()),
        h_(coeffs.height()),
        ring_(std::min(ring_rows, coeffs.height())) {
    require(coeffs.component_count() == 3,
            "chunked inverse expects a 3-component image");
    require(ring_ > 0, "chunked inverse band capacity");
    for (int c = 0; c < 3; ++c) {
      const Component& comp = coeffs.component(c);
      cw_[c] = (w_ * comp.h + coeffs.h_max() - 1) / coeffs.h_max();
      ch_[c] = (h_ * comp.v + coeffs.v_max() - 1) / coeffs.v_max();
      qc_[c] = quant_constants(coeffs.qtable_for(c));
    }
    subsampled_ = cw_[1] != w_ || ch_[1] != h_;
    if (!out_) ycc_.resize(3 * static_cast<std::size_t>(w_) * ring_);
    if (subsampled_) {
      // A band of N output rows reads at most N * (ch/h) + 1 chroma rows
      // (the vertical taps are monotonic in y), block-aligned at both ends:
      // N/2 rounded up, one halo row each side, padded to 8-row blocks.
      ccap_ = std::min((ring_ + 1) / 2 + 24, ch_[1]);
      chroma_.resize(2 * static_cast<std::size_t>(cw_[1]) * ccap_);
    }
  }

  int width() const { return w_; }
  int height() const { return h_; }

  /// Decodes pixel rows [y0, y1) of the image into their slots. y0 must be
  /// block-row aligned, so no 8-row luma block ever straddles two calls.
  void decode_rows(int y0, int y1) {
    require(y0 >= 0 && y0 < y1 && y1 <= h_ && y1 - y0 <= ring_ &&
                y0 % 8 == 0 && (y1 == h_ || y1 % 8 == 0),
            "decode_rows range must be block-aligned and fit the band");
    const kernels::KernelTable& k = kernels::active();
    if (!subsampled_) {
      decode_blocks(k, {ycc_rows(0, y0, y1), ycc_rows(1, y0, y1),
                        ycc_rows(2, y0, y1)});
    } else {
      upsample_chroma(k, y0, y1);
    }
  }

  /// Float YCbCr row y of `plane`; valid once decoded, until its slot is
  /// reused.
  float* row(int plane, int y) {
    if (out_) return out_->component(plane).row(y).data();
    return ycc_.data() +
           (static_cast<std::size_t>(plane) * ring_ + y % ring_) * w_;
  }

  /// The ring of `plane` as a row window (ring decoders only).
  RowWindow window(int plane) const {
    return {ycc_.data() + static_cast<std::size_t>(plane) * ring_ * w_, ring_,
            static_cast<std::size_t>(w_)};
  }

  /// Resident scratch (the decode-side ChunkStats::peak_chunk_bytes).
  std::size_t bytes() const {
    return (ycc_.size() + chroma_.size()) * sizeof(float);
  }

 private:
  /// Component `c`'s share of a band decode: its plane rows [row_begin,
  /// row_end) land at rows of `base` (stride plane_w), row y in slot
  /// (y - origin) % slots. row_begin is block-aligned and row_end at most
  /// the plane height.
  struct PlaneRows {
    int c;
    float* base;
    int plane_w, origin, slots, row_begin, row_end;
    float* row(int y) const {
      return base + static_cast<std::size_t>((y - origin) % slots) * plane_w;
    }
  };

  /// Rows [y0, y1) of full-resolution YCbCr plane `c`.
  PlaneRows ycc_rows(int c, int y0, int y1) {
    if (out_) return {c, out_->component(c).row(0).data(), w_, 0, h_, y0, y1};
    return {c, ycc_.data() + static_cast<std::size_t>(c) * ring_ * w_, w_, 0,
            ring_, y0, y1};
  }

  /// Writes samples + 128 into rows [max(row_begin, 8*by),
  /// min(row_end, 8*by + 8)) of `p`, columns clipped to plane_w — the same
  /// values a whole-plane deposit writes.
  static void deposit_band_block(const PlaneRows& p, int bx, int by,
                                 const float* samples) {
    const int x0 = bx * 8, y0 = by * 8;
    const int ya = std::max(y0, p.row_begin);
    const int yb = std::min(y0 + 8, p.row_end);
    const int xe = std::min(8, p.plane_w - x0);
    for (int y = ya; y < yb; ++y) {
      float* dst = p.row(y) + x0;
      const float* src = samples + (y - y0) * 8;
      if (xe == 8) {
        // Interior column: a fixed trip count lets the compiler vectorize.
        for (int x = 0; x < 8; ++x) dst[x] = src[x] + 128.f;
      } else {
        for (int x = 0; x < xe; ++x) dst[x] = src[x] + 128.f;
      }
    }
  }

  /// Dequantize+IDCT the block rows covering every listed component's rows,
  /// all components in one pass on the pool; block rows write disjoint
  /// rows.
  void decode_blocks(const kernels::KernelTable& k,
                     std::initializer_list<PlaneRows> planes) {
    int rows[3], total = 0, n = 0;
    for (const PlaneRows& p : planes)
      total += rows[n++] = (p.row_end + 7) / 8 - p.row_begin / 8;
    exec::parallel_for(static_cast<std::size_t>(total), [&](std::size_t job) {
      int i = 0, rel = static_cast<int>(job);
      while (rel >= rows[i]) rel -= rows[i++];
      const PlaneRows& p = planes.begin()[i];
      const Component& comp = coeffs_.component(p.c);
      const int by = p.row_begin / 8 + rel;
      FloatBlock samples;
      for (int bx = 0; bx < comp.blocks_w; ++bx) {
        k.dequantize_idct(comp.block(bx, by).data(), qc_[p.c], samples.data());
        deposit_band_block(p, bx, by, samples.data());
      }
    });
  }

  /// 4:2:0 chroma for output rows [y0, y1): decode the chroma block rows the
  /// band's vertical taps read (including the one-row halo past each edge —
  /// boundary block rows decode again in the next band, bit-identically),
  /// then select each output row's two clamped vertical taps exactly as a
  /// whole-plane bilinear upsample does.
  void upsample_chroma(const kernels::KernelTable& k, int y0, int y1) {
    const int cw = cw_[1], ch = ch_[1];
    const float sy = static_cast<float>(ch) / h_;
    const float sx = static_cast<float>(cw) / w_;
    const int last = ch - 1;
    const auto clampc = [last](int t) {
      return t < 0 ? 0 : (t > last ? last : t);
    };
    const int ca =
        clampc(static_cast<int>(std::floor((y0 + 0.5f) * sy - 0.5f)));
    const int cb =
        clampc(static_cast<int>(std::floor((y1 - 1 + 0.5f) * sy - 0.5f)) + 1);
    cbase_ = ca / 8 * 8;
    const int cend = std::min((cb / 8 + 1) * 8, ch);
    require(cend - cbase_ <= ccap_, "chroma band overflow");
    const auto chroma_rows = [&](int c) {
      return PlaneRows{c, chroma_row(c - 1, cbase_), cw, cbase_, ccap_, cbase_,
                       cend};
    };
    decode_blocks(k, {ycc_rows(0, y0, y1), chroma_rows(1), chroma_rows(2)});
    exec::parallel_for(static_cast<std::size_t>(y1 - y0), [&](std::size_t i) {
      const int y = y0 + static_cast<int>(i);
      const float fy = (y + 0.5f) * sy - 0.5f;
      const int t0 = static_cast<int>(std::floor(fy));
      const float wy = fy - t0;
      const int ya = clampc(t0);
      const int yb = clampc(t0 + 1);
      k.upsample_row(chroma_row(0, ya), chroma_row(0, yb), cw, sx, wy, w_,
                     row(1, y));
      k.upsample_row(chroma_row(1, ya), chroma_row(1, yb), cw, sx, wy, w_,
                     row(2, y));
    });
  }

  /// Decoded (subsampled) chroma rows addressed by chroma-plane row.
  float* chroma_row(int plane, int cy) {
    return chroma_.data() +
           (static_cast<std::size_t>(plane) * ccap_ + (cy - cbase_)) * cw_[1];
  }

  const CoefficientImage& coeffs_;
  YccImage* out_ = nullptr;
  int w_ = 0, h_ = 0;
  int ring_ = 0;
  int ccap_ = 0;
  int cbase_ = 0;
  bool subsampled_ = false;
  int cw_[3] = {0, 0, 0}, ch_[3] = {0, 0, 0};
  kernels::QuantConstants qc_[3];
  std::vector<float> ycc_;
  std::vector<float> chroma_;
};

/// Runs the inverse pipeline band by band over the whole image; `emit` sees
/// each decoded band [y0, y1) while its rows are resident. A non-null `out`
/// is sized to the image after the pixel gate and receives the rows instead
/// of the band ring.
void decode_bands(
    const CoefficientImage& coeffs, YccImage* out, const ChunkOptions& copt,
    ChunkStats* stats,
    const std::function<void(InverseBandDecoder&, int, int)>& emit) {
  require_pixel_limit(coeffs.width(), coeffs.height(), "decode");
  // Every sample is written by the band workers below, which thereby
  // first-touch the planes' pages.
  if (out) *out = YccImage(coeffs.width(), coeffs.height(), kUninitialized);
  const int chunk_mcu_rows = resolve_chunk_rows(copt);
  const int mcu_px = 8 * coeffs.v_max();
  const int total_mcu_rows = coeffs.blocks_h() / coeffs.component(0).v;
  const int nchunks = (total_mcu_rows + chunk_mcu_rows - 1) / chunk_mcu_rows;
  InverseBandDecoder dec(
      coeffs, std::min(total_mcu_rows, chunk_mcu_rows) * mcu_px, out);
  if (stats) {
    stats->peak_chunk_bytes = dec.bytes();
    stats->chunks = nchunks;
    stats->chunk_mcu_rows = chunk_mcu_rows;
  }
  for (int ci = 0; ci < nchunks; ++ci) {
    const int m0 = ci * chunk_mcu_rows;
    const int m1 = std::min(total_mcu_rows, m0 + chunk_mcu_rows);
    const int y0 = m0 * mcu_px;
    const int y1 = std::min(coeffs.height(), m1 * mcu_px);
    dec.decode_rows(y0, y1);
    if (emit) emit(dec, y0, y1);
  }
}

/// One node of a streamed re-encode — the source decoder or a row stage —
/// keeping a window of its output rows [lo, hi) resident. A request may
/// span at most `cap` rows, and requests only move down the image.
class StreamNode {
 public:
  /// The source: the decoder's ring, with slack for whole block rows.
  StreamNode(InverseBandDecoder& dec, int cap)
      : cap_(cap), w_(dec.width()), h_(dec.height()), dec_(&dec) {}

  /// A stage reading `up`'s rows into a ring of `cap` rows per plane.
  StreamNode(const RowStage& stage, StreamNode& up, int cap)
      : cap_(cap),
        w_(stage.out_w),
        h_(stage.out_h),
        stage_(&stage),
        up_(&up),
        ring_(3 * static_cast<std::size_t>(w_) * cap) {}

  /// Ring rows a decoder source needs for requests of `cap` rows: the
  /// request's rows, widened to whole 8-row block rows at both ends.
  static int decoder_slots(int cap) { return cap + 16; }

  int cap() const { return cap_; }
  int width() const { return w_; }
  int height() const { return h_; }

  /// Makes output rows [lo, hi) resident. Rows below lo may be dropped, and
  /// rows a request skips over are never produced.
  void ensure(int lo, int hi) {
    require(lo >= lo_ && lo < hi && hi <= h_ && hi - lo <= cap_,
            "streamed row window request");
    lo_ = lo;
    if (dec_) {
      // Block rows decode whole: resume at the block row holding lo when
      // nothing useful is resident, and finish the block row holding hi-1.
      if (lo >= hi_) hi_ = lo / 8 * 8;
      if (hi_ < hi) {
        const int end = std::min(h_, (hi + 7) / 8 * 8);
        dec_->decode_rows(hi_, end);
        hi_ = end;
      }
      return;
    }
    if (lo >= hi_) hi_ = lo;
    while (hi_ < hi) {
      // The longest run of output rows [a, b) whose input rows fit the
      // upstream window: a heavy downscale runs in several sub-bands.
      const int a = hi_;
      const int first = stage_->reads(a).first;
      int last = stage_->reads(a).second;
      require(first >= 0 && first <= last && last < up_->height() &&
                  last - first < up_->cap(),
              "row stage reads outside its input window");
      int b = a + 1;
      for (; b < hi; ++b) {
        const int l = stage_->reads(b).second;
        if (l - first >= up_->cap()) break;
        last = l;
      }
      up_->ensure(first, last + 1);
      const std::size_t n = static_cast<std::size_t>(b - a);
      exec::parallel_for(3 * n, [&](std::size_t job) {
        const int plane = static_cast<int>(job / n);
        const int y = a + static_cast<int>(job % n);
        RowWindow in = up_->window(plane);
        std::tie(in.first, in.last) = stage_->reads(y);
        stage_->row(in, y, row(plane, y));
      });
      hi_ = b;
    }
  }

  float* row(int plane, int y) {
    if (dec_) return dec_->row(plane, y);
    return ring_.data() +
           (static_cast<std::size_t>(plane) * cap_ + y % cap_) * w_;
  }

  RowWindow window(int plane) const {
    if (dec_) return dec_->window(plane);
    return {ring_.data() + static_cast<std::size_t>(plane) * cap_ * w_, cap_,
            static_cast<std::size_t>(w_)};
  }

  std::size_t bytes() const { return ring_.size() * sizeof(float); }

 private:
  int cap_, w_, h_;
  int lo_ = 0;  ///< first row of the last request; requests never go back
  int hi_ = 0;  ///< one past the last row produced
  InverseBandDecoder* dec_ = nullptr;
  const RowStage* stage_ = nullptr;
  StreamNode* up_ = nullptr;
  std::vector<float> ring_;
};

}  // namespace

void inverse_transform_chunked(const CoefficientImage& coeffs,
                               const RgbRowSink& sink,
                               const ChunkOptions& copt, ChunkStats* stats) {
  // Each band is color-converted and clamped through the kernel row op
  // ycc_to_rgb uses, into one band of RGB rows (plane-major).
  std::vector<std::uint8_t> rgb;
  const kernels::KernelTable& k = kernels::active();
  const auto emit = [&](InverseBandDecoder& dec, int y0, int y1) {
    const int w = dec.width();
    const std::size_t plane = static_cast<std::size_t>(w) * (y1 - y0);
    if (rgb.size() < 3 * plane) rgb.resize(3 * plane);
    const auto row = [&](int y) {
      return rgb.data() + static_cast<std::size_t>(y - y0) * w;
    };
    exec::parallel_for(static_cast<std::size_t>(y1 - y0), [&](std::size_t i) {
      const int y = y0 + static_cast<int>(i);
      std::uint8_t* r = row(y);
      k.ycc_to_rgb_row(dec.row(0, y), dec.row(1, y), dec.row(2, y), w, r,
                       r + plane, r + 2 * plane);
    });
    for (int y = y0; y < y1; ++y)
      sink(y, row(y), row(y) + plane, row(y) + 2 * plane);
  };
  decode_bands(coeffs, nullptr, copt, stats, emit);
  if (stats) stats->peak_chunk_bytes += rgb.size();
}

YccImage inverse_transform(const CoefficientImage& coeffs) {
  YccImage out;
  decode_bands(coeffs, &out, {}, nullptr, {});
  return out;
}

RgbImage decode_to_rgb(const CoefficientImage& coeffs,
                       const ChunkOptions& copt, ChunkStats* stats) {
  RgbImage out(coeffs.width(), coeffs.height());
  const std::size_t row_bytes = static_cast<std::size_t>(coeffs.width());
  inverse_transform_chunked(
      coeffs,
      [&](int y, const std::uint8_t* r, const std::uint8_t* g,
          const std::uint8_t* b) {
        std::memcpy(out.r.row(y).data(), r, row_bytes);
        std::memcpy(out.g.row(y).data(), g, row_bytes);
        std::memcpy(out.b.row(y).data(), b, row_bytes);
      },
      copt, stats);
  return out;
}

RgbImage decompress(std::span<const std::uint8_t> data) {
  return decode_to_rgb(parse(data));
}

CoefficientImage reencode_chunked(const CoefficientImage& coeffs,
                                  std::span<const RowStage> stages,
                                  int quality, ChromaMode mode,
                                  const ChunkOptions& copt, ScanIndex* scan,
                                  ChunkStats* stats) {
  require_pixel_limit(coeffs.width(), coeffs.height(), "decode");
  for (const RowStage& s : stages) {
    require(s.out_w > 0 && s.out_h > 0, "row stage dimensions");
    require_pixel_limit(s.out_w, s.out_h, "row stage");
  }
  // Band on the OUTPUT geometry: the forward pipeline decides which rows it
  // needs next, and stage 1 pulls them through the nodes — serially, before
  // any row is read, so the row source stays a pure read under the pool's
  // concurrency. Each node's window holds one output band plus the 3-row
  // reach of the stage reading it; the decoder adds whole block rows.
  const int band_rows = resolve_chunk_rows(copt) * 8 *
                        (mode == ChromaMode::k420 ? 2 : 1);
  const int cap = band_rows + 2;
  InverseBandDecoder dec(
      coeffs, StreamNode::decoder_slots(stages.empty() ? band_rows : cap));
  std::vector<StreamNode> nodes;
  nodes.reserve(stages.size() + 1);
  nodes.emplace_back(dec, stages.empty() ? band_rows : cap);
  for (std::size_t i = 0; i < stages.size(); ++i)
    nodes.emplace_back(stages[i], nodes.back(),
                       i + 1 == stages.size() ? band_rows : cap);
  StreamNode& last = nodes.back();
  const int w = last.width();
  // Clamp one row at a time through the kernel ycc_to_rgb uses, as
  // forward_transform_clamped_chunked does.
  const kernels::KernelTable& k = kernels::active();
  const RgbRowSource source = [&](int y, std::uint8_t* r, std::uint8_t* g,
                                  std::uint8_t* b) {
    k.ycc_to_rgb_row(last.row(0, y), last.row(1, y), last.row(2, y), w, r, g,
                     b);
    return RgbRow{r, g, b};
  };
  const BandStage convert = convert_rows(source);
  const BandStage stage1 = [&](int y0, int y1, ForwardScratch& buf) {
    last.ensure(y0, y1);
    return convert(y0, y1, buf);
  };
  CoefficientImage out = forward_bands(w, last.height(), stage1, quality, mode,
                                       copt, scan, stats);
  // Every window is resident at once; stats reports the true pixel-domain
  // footprint of the re-encode (still height-independent).
  if (stats) {
    stats->peak_chunk_bytes += dec.bytes();
    for (const StreamNode& n : nodes) stats->peak_chunk_bytes += n.bytes();
  }
  return out;
}

CoefficientImage transcode_chunked(const CoefficientImage& coeffs, int quality,
                                   ChromaMode mode, const ChunkOptions& copt,
                                   ScanIndex* scan, ChunkStats* stats) {
  return reencode_chunked(coeffs, {}, quality, mode, copt, scan, stats);
}

Bytes recompress_chunked(const CoefficientImage& coeffs, int quality,
                         const EncodeOptions& opts, const ChunkOptions& copt,
                         ChunkStats* stats, EncodeStats* encode_stats) {
  ScanIndex scan;
  const CoefficientImage out =
      transcode_chunked(coeffs, quality, opts.chroma, copt, &scan, stats);
  return serialize(out, opts, &scan, encode_stats);
}

int default_chunk_mcu_rows() {
  const int v = g_chunk_mcu_rows.load(std::memory_order_relaxed);
  if (v > 0) return v;
  static const int resolved = [] {
    const char* env = std::getenv("PUPPIES_CHUNK_ROWS");
    if (env && *env) {
      char* end = nullptr;
      const long n = std::strtol(env, &end, 10);
      if (end && *end == '\0' && n > 0 && n <= 1 << 20)
        return static_cast<int>(n);
    }
    return kDefaultChunkMcuRows;
  }();
  return resolved;
}

void set_default_chunk_mcu_rows(int rows) {
  require(rows >= 0, "chunk MCU rows must be >= 0");
  g_chunk_mcu_rows.store(rows, std::memory_order_relaxed);
}

}  // namespace puppies::jpeg
