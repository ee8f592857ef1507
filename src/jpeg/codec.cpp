#include "puppies/jpeg/codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "puppies/exec/parallel_for.h"
#include "puppies/fault/fault.h"
#include "puppies/jpeg/bitio.h"
#include "puppies/jpeg/huffman.h"
#include "puppies/jpeg/zigzag.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"

namespace puppies::jpeg {

namespace {

constexpr std::uint8_t kMarkerPrefix = 0xff;
constexpr std::uint8_t kSOI = 0xd8;
constexpr std::uint8_t kEOI = 0xd9;
constexpr std::uint8_t kAPP0 = 0xe0;
constexpr std::uint8_t kDQT = 0xdb;
constexpr std::uint8_t kSOF0 = 0xc0;
constexpr std::uint8_t kDHT = 0xc4;
constexpr std::uint8_t kSOS = 0xda;

// ---------------------------------------------------------------------------
// Entropy coding. The scan decomposes into restart segments (the whole scan
// is one segment when there is no restart interval). Each segment starts
// with fresh DC predictors and — because BitWriter::flush() pads to a byte
// boundary before every RSTn — owns a self-contained byte range, so
// segments feed statistics gathering and entropy emission independently on
// the exec pool and concatenate deterministically (DESIGN.md §11).

/// Run-length walk of one block driven by its nonzero mask: set bits are
/// visited via countr_zero, zero runs come from position deltas. Emits
/// exactly the seed scan's symbol sequence (ZRL for runs > 15, EOB iff the
/// block ends in zeros).
template <typename DcSink, typename AcSink>
void walk_block(const CoefBlock& block, std::uint64_t nonzero, int& prev_dc,
                DcSink&& dc_sink, AcSink&& ac_sink) {
  const int diff = block[0] - prev_dc;
  prev_dc = block[0];
  const int dc_cat = magnitude_category(diff);
  dc_sink(static_cast<std::uint8_t>(dc_cat), diff, dc_cat);

  std::uint64_t rest = nonzero & ~std::uint64_t{1};  // AC positions only
  int prev_z = 0;
  while (rest != 0) {
    const int z = std::countr_zero(rest);
    rest &= rest - 1;
    int run = z - prev_z - 1;
    while (run > 15) {
      ac_sink(0xf0, 0, 0);  // ZRL
      run -= 16;
    }
    const int v = block[static_cast<std::size_t>(z)];
    const int cat = magnitude_category(v);
    ac_sink(static_cast<std::uint8_t>((run << 4) | cat), v, cat);
    prev_z = z;
  }
  if (prev_z < 63) ac_sink(0x00, 0, 0);  // EOB
}

int huff_table_id_for_component(int c) { return c == 0 ? 0 : 1; }

/// Visits every block in scan (MCU-interleaved) order. `on_mcu(i)` fires
/// before MCU i's blocks (restart handling); `visit(component, bx, by)` per
/// block.
template <typename OnMcu, typename Visit>
void for_each_block_in_scan_order(const CoefficientImage& img, OnMcu&& on_mcu,
                                  Visit&& visit) {
  const int ncomp = img.component_count();
  const int mcu_cols = img.blocks_w() / img.component(0).h;
  const int mcu_rows = img.blocks_h() / img.component(0).v;
  int mcu_index = 0;
  for (int my = 0; my < mcu_rows; ++my)
    for (int mx = 0; mx < mcu_cols; ++mx) {
      on_mcu(mcu_index++);
      for (int c = 0; c < ncomp; ++c) {
        const Component& comp = img.component(c);
        for (int by = 0; by < comp.v; ++by)
          for (int bx = 0; bx < comp.h; ++bx)
            visit(c, mx * comp.h + bx, my * comp.v + by);
      }
    }
}

/// Visits the blocks of MCUs [mcu_begin, mcu_end) in scan order — one
/// restart segment's worth when a restart interval is in force.
template <typename Visit>
void for_each_block_in_mcu_range(const CoefficientImage& img, int mcu_begin,
                                 int mcu_end, Visit&& visit) {
  const int ncomp = img.component_count();
  const int mcu_cols = img.blocks_w() / img.component(0).h;
  for (int m = mcu_begin; m < mcu_end; ++m) {
    const int my = m / mcu_cols, mx = m % mcu_cols;
    for (int c = 0; c < ncomp; ++c) {
      const Component& comp = img.component(c);
      for (int by = 0; by < comp.v; ++by)
        for (int bx = 0; bx < comp.h; ++bx)
          visit(c, mx * comp.h + bx, my * comp.v + by);
    }
  }
}

int total_mcu_count(const CoefficientImage& img) {
  const int mcu_cols = img.blocks_w() / img.component(0).h;
  const int mcu_rows = img.blocks_h() / img.component(0).v;
  return mcu_cols * mcu_rows;
}

/// Looks up block (bx, by) of component c in a validated ScanIndex.
inline std::uint64_t mask_at(const ScanIndex& scan, const CoefficientImage& img,
                             int c, int bx, int by) {
  return scan.masks[static_cast<std::size_t>(c)]
                   [static_cast<std::size_t>(by) *
                        img.component(c).blocks_w +
                    static_cast<std::size_t>(bx)];
}

void gather_segment_statistics(const CoefficientImage& img,
                               const ScanIndex& scan, int mcu_begin,
                               int mcu_end, SymbolHistogram& stats) {
  // DC predictors start at 0: segment begins either at the scan start or
  // just after a restart marker, both of which reset prediction.
  std::vector<int> prev_dc(static_cast<std::size_t>(img.component_count()), 0);
  for_each_block_in_mcu_range(
      img, mcu_begin, mcu_end, [&](int c, int bx, int by) {
        const int t = huff_table_id_for_component(c);
        walk_block(
            img.component(c).block(bx, by), mask_at(scan, img, c, bx, by),
            prev_dc[static_cast<std::size_t>(c)],
            [&](std::uint8_t sym, int, int) { ++stats.freq[0][t][sym]; },
            [&](std::uint8_t sym, int, int) { ++stats.freq[1][t][sym]; });
      });
}

void encode_segment(const CoefficientImage& img, const ScanIndex& scan,
                    int mcu_begin, int mcu_end,
                    const HuffmanEncoder dc_enc[2],
                    const HuffmanEncoder ac_enc[2], BitWriter& bits) {
  std::vector<int> prev_dc(static_cast<std::size_t>(img.component_count()), 0);
  for_each_block_in_mcu_range(
      img, mcu_begin, mcu_end, [&](int c, int bx, int by) {
        const int t = huff_table_id_for_component(c);
        walk_block(
            img.component(c).block(bx, by), mask_at(scan, img, c, bx, by),
            prev_dc[static_cast<std::size_t>(c)],
            [&](std::uint8_t sym, int v, int cat) {
              dc_enc[t].emit_with_magnitude(bits, sym,
                                            magnitude_bits(v, cat), cat);
            },
            [&](std::uint8_t sym, int v, int cat) {
              ac_enc[t].emit_with_magnitude(bits, sym,
                                            magnitude_bits(v, cat), cat);
            });
      });
}

/// Nonzero masks for every block of `img` via the active nonzero_mask
/// kernel — the fallback when serialize() is handed coefficients that did
/// not come through forward_transform (lossless edits, requantize, parse).
ScanIndex build_scan_index(const CoefficientImage& img) {
  const kernels::KernelTable& k = kernels::active();
  ScanIndex scan;
  scan.masks.resize(static_cast<std::size_t>(img.component_count()));
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& comp = img.component(c);
    auto& masks = scan.masks[static_cast<std::size_t>(c)];
    masks.assign(comp.blocks.size(), 0);
    exec::parallel_for(static_cast<std::size_t>(comp.blocks_h),
                       [&](std::size_t by) {
                         const std::size_t row =
                             by * static_cast<std::size_t>(comp.blocks_w);
                         for (int bx = 0; bx < comp.blocks_w; ++bx)
                           masks[row + static_cast<std::size_t>(bx)] =
                               k.nonzero_mask(
                                   comp.blocks[row +
                                               static_cast<std::size_t>(bx)]
                                       .data());
                       });
  }
  return scan;
}

/// Bits a symbol stream costs under `enc`, priced from its histogram. The
/// magnitude bits are table-independent, so the table-to-table delta is
/// exactly the optimized-Huffman saving.
long long priced_bits(const std::array<long, 256>& freq,
                      const HuffmanEncoder& enc) {
  long long bits = 0;
  for (int s = 0; s < 256; ++s)
    if (freq[static_cast<std::size_t>(s)])
      bits += freq[static_cast<std::size_t>(s)] *
              enc.code_length(static_cast<std::uint8_t>(s));
  return bits;
}

// --------------------------------------------------------------------------
// Marker segment writers.

void write_marker(ByteWriter& w, std::uint8_t marker) {
  w.u8(kMarkerPrefix);
  w.u8(marker);
}

void write_app0(ByteWriter& w) {
  write_marker(w, kAPP0);
  w.u16(16);
  const char jfif[5] = {'J', 'F', 'I', 'F', 0};
  for (char c : jfif) w.u8(static_cast<std::uint8_t>(c));
  w.u8(1);  // version 1.1
  w.u8(1);
  w.u8(0);   // units: none
  w.u16(1);  // x density
  w.u16(1);  // y density
  w.u8(0);   // no thumbnail
  w.u8(0);
}

void write_dqt(ByteWriter& w, const QuantTable& t, int id) {
  write_marker(w, kDQT);
  w.u16(2 + 1 + 64);
  w.u8(static_cast<std::uint8_t>(id));  // 8-bit precision, table id
  for (int z = 0; z < 64; ++z) {
    require(t.q[static_cast<std::size_t>(z)] >= 1 &&
                t.q[static_cast<std::size_t>(z)] <= 255,
            "8-bit DQT entry out of range");
    w.u8(static_cast<std::uint8_t>(t.q[static_cast<std::size_t>(z)]));
  }
}

void write_sof0(ByteWriter& w, const CoefficientImage& img) {
  const int ncomp = img.component_count();
  write_marker(w, kSOF0);
  w.u16(static_cast<std::uint16_t>(8 + 3 * ncomp));
  w.u8(8);  // precision
  require(img.height() <= 0xffff && img.width() <= 0xffff, "image too large");
  w.u16(static_cast<std::uint16_t>(img.height()));
  w.u16(static_cast<std::uint16_t>(img.width()));
  w.u8(static_cast<std::uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    const Component& comp = img.component(c);
    w.u8(static_cast<std::uint8_t>(c + 1));  // component id
    w.u8(static_cast<std::uint8_t>((comp.h << 4) | comp.v));
    w.u8(static_cast<std::uint8_t>(comp.quant_index));
  }
}

void write_dht(ByteWriter& w, const HuffmanSpec& spec, int table_class,
               int id) {
  write_marker(w, kDHT);
  w.u16(static_cast<std::uint16_t>(2 + 1 + 16 + spec.values.size()));
  w.u8(static_cast<std::uint8_t>((table_class << 4) | id));
  for (int l = 1; l <= 16; ++l) w.u8(spec.bits[static_cast<std::size_t>(l)]);
  w.raw(spec.values);
}

void write_sos(ByteWriter& w, const CoefficientImage& img) {
  const int ncomp = img.component_count();
  write_marker(w, kSOS);
  w.u16(static_cast<std::uint16_t>(6 + 2 * ncomp));
  w.u8(static_cast<std::uint8_t>(ncomp));
  for (int c = 0; c < ncomp; ++c) {
    w.u8(static_cast<std::uint8_t>(c + 1));
    const int t = huff_table_id_for_component(c);
    w.u8(static_cast<std::uint8_t>((t << 4) | t));
  }
  w.u8(0);   // spectral start
  w.u8(63);  // spectral end
  w.u8(0);   // successive approximation
}

/// Everything before the entropy-coded data: SOI through SOS, DRI included
/// when a restart interval is in force. Shared verbatim by serialize() and
/// serialize_delta(), so a delta stream's headers cannot drift from the full
/// path's.
void write_headers(ByteWriter& w, const CoefficientImage& coeffs,
                   const HuffmanSpec dc_spec[2], const HuffmanSpec ac_spec[2],
                   int restart_interval) {
  write_marker(w, kSOI);
  write_app0(w);
  write_dqt(w, coeffs.qtable(0), 0);
  if (coeffs.component_count() == 3) write_dqt(w, coeffs.qtable(1), 1);
  write_sof0(w, coeffs);
  write_dht(w, dc_spec[0], 0, 0);
  write_dht(w, ac_spec[0], 1, 0);
  if (coeffs.component_count() == 3) {
    write_dht(w, dc_spec[1], 0, 1);
    write_dht(w, ac_spec[1], 1, 1);
  }
  if (restart_interval > 0) {
    require(restart_interval <= 0xffff, "restart interval too large");
    write_marker(w, 0xdd);  // DRI
    w.u16(4);
    w.u16(static_cast<std::uint16_t>(restart_interval));
  }
  write_sos(w, coeffs);
}

/// The standard DC/AC spec serialize() assigns component `c` in
/// HuffmanMode::kStandard (luma tables for component 0, chroma otherwise).
const HuffmanSpec& std_spec_for_component(int table_class, int c) {
  if (table_class == 0)
    return huff_table_id_for_component(c) == 0 ? std_dc_luma()
                                               : std_dc_chroma();
  return huff_table_id_for_component(c) == 0 ? std_ac_luma() : std_ac_chroma();
}

// --------------------------------------------------------------------------
// Parser helpers.

struct FrameComponent {
  int id = 0;
  int h = 1;
  int v = 1;
  int quant_index = 0;
  int dc_table = 0;
  int ac_table = 0;
};

/// Decodes one block (DC + AC run-length symbols) into `block` in zig-zag
/// order. The fused LUT path resolves symbol and magnitude in one wide peek
/// per coefficient; the slow branch is the verbatim seed sequence
/// (decode() + get() + extend), taken for codes longer than 8 bits and near
/// segment boundaries, so error strings and bit consumption on corrupt
/// input are unchanged. `block` must be all-zero on entry (freshly
/// constructed CoefficientImage blocks are; the serial-fallback path
/// re-zeroes explicitly) — only nonzero coefficients are written, which
/// saves a full second write pass over the coefficient planes.
void decode_block(BitReader& bits, const HuffmanDecoder& dc,
                  const HuffmanDecoder& ac, int& dc_pred, CoefBlock& block) {
  std::uint8_t dc_cat;
  int diff;
  if (dc.decode_fused<true>(bits, dc_cat, diff)) {
    if (dc_cat > 11) throw ParseError("DC category out of range");
  } else {
    dc_cat = dc.decode(bits);
    if (dc_cat > 11) throw ParseError("DC category out of range");
    diff = extend_magnitude(bits.get(dc_cat), dc_cat);
  }
  dc_pred += diff;
  block[0] = static_cast<std::int16_t>(dc_pred);

  int z = 1;
  while (z < 64) {
    std::uint8_t sym;
    int v;
    if (!ac.decode_fused<false>(bits, sym, v)) {
      sym = ac.decode(bits);
      if (sym == 0x00) break;  // EOB
      const int run = sym >> 4, cat = sym & 0xf;
      if (sym == 0xf0) {
        z += 16;
        continue;
      }
      z += run;
      if (z > 63 || cat == 0 || cat > 10) throw ParseError("corrupt AC symbol");
      v = extend_magnitude(bits.get(cat), cat);
    } else {
      if (sym == 0x00) break;  // EOB
      const int run = sym >> 4, cat = sym & 0xf;
      if (sym == 0xf0) {
        z += 16;
        continue;
      }
      z += run;
      if (z > 63 || cat == 0 || cat > 10) throw ParseError("corrupt AC symbol");
    }
    block[static_cast<std::size_t>(z)] = static_cast<std::int16_t>(v);
    ++z;
  }
}

}  // namespace

bool ScanIndex::matches(const CoefficientImage& img) const {
  if (masks.size() != static_cast<std::size_t>(img.component_count()))
    return false;
  for (int c = 0; c < img.component_count(); ++c)
    if (masks[static_cast<std::size_t>(c)].size() !=
        img.component(c).blocks.size())
      return false;
  return true;
}

Bytes serialize(const CoefficientImage& coeffs, const EncodeOptions& opts,
                const ScanIndex* scan, EncodeStats* stats) {
  require(coeffs.component_count() == 1 || coeffs.component_count() == 3,
          "serialize supports 1 or 3 components");
  // Trust a supplied index only if its shape matches; otherwise rebuild.
  // Either way the masks are exact, so the output bytes are unaffected —
  // but a rebuild means the caller fell off the forward_transform fast
  // path, so make it observable (`store stats --json`).
  ScanIndex local_scan;
  if (!scan || !scan->matches(coeffs)) {
    metrics::counter("psp.codec.scanindex_rebuilds").add();
    local_scan = build_scan_index(coeffs);
    scan = &local_scan;
  }

  // Restart-segment decomposition of the scan: segment s covers MCUs
  // [s*R, min((s+1)*R, total)); no restart interval = one segment.
  const int total_mcus = total_mcu_count(coeffs);
  const int R = opts.restart_interval;
  const int nseg = R > 0 ? (total_mcus + R - 1) / R : 1;
  const auto segment_bounds = [&](int s) {
    const int m0 = R > 0 ? s * R : 0;
    return std::pair<int, int>(m0, R > 0 ? std::min(total_mcus, m0 + R)
                                         : total_mcus);
  };

  HuffmanSpec dc_spec[2] = {std_dc_luma(), std_dc_chroma()};
  HuffmanSpec ac_spec[2] = {std_ac_luma(), std_ac_chroma()};
  if (stats) *stats = EncodeStats{};

  if (opts.huffman == HuffmanMode::kOptimized) {
    // Per-segment histograms gathered on the pool into preallocated slots,
    // folded in segment order: identical counts to a serial scan pass.
    std::vector<SymbolHistogram> seg_hist(static_cast<std::size_t>(nseg));
    exec::parallel_for(static_cast<std::size_t>(nseg), [&](std::size_t s) {
      const auto [m0, m1] = segment_bounds(static_cast<int>(s));
      gather_segment_statistics(coeffs, *scan, m0, m1, seg_hist[s]);
    });
    SymbolHistogram sym;
    for (const SymbolHistogram& h : seg_hist) sym.merge(h);
    dc_spec[0] = build_optimal_spec(sym.freq[0][0]);
    ac_spec[0] = build_optimal_spec(sym.freq[1][0]);
    if (coeffs.component_count() == 3) {
      dc_spec[1] = build_optimal_spec(sym.freq[0][1]);
      ac_spec[1] = build_optimal_spec(sym.freq[1][1]);
    }
    if (stats) {
      // Price the histograms under both table sets: the magnitude bits are
      // identical, so the length-weighted frequency delta is the exact
      // optimized-table saving.
      long long saved_bits = 0;
      const int ntables = coeffs.component_count() == 3 ? 2 : 1;
      for (int t = 0; t < ntables; ++t) {
        saved_bits +=
            priced_bits(sym.freq[0][t],
                        HuffmanEncoder(t == 0 ? std_dc_luma()
                                              : std_dc_chroma())) -
            priced_bits(sym.freq[0][t], HuffmanEncoder(dc_spec[t]));
        saved_bits +=
            priced_bits(sym.freq[1][t],
                        HuffmanEncoder(t == 0 ? std_ac_luma()
                                              : std_ac_chroma())) -
            priced_bits(sym.freq[1][t], HuffmanEncoder(ac_spec[t]));
      }
      if (saved_bits > 0)
        stats->saved_bytes = static_cast<std::size_t>(saved_bits / 8);
    }
  }

  ByteWriter w;
  write_headers(w, coeffs, dc_spec, ac_spec, opts.restart_interval);

  Bytes out = w.take();
  const std::size_t entropy_start = out.size();
  {
    const HuffmanEncoder dc_enc[2] = {HuffmanEncoder(dc_spec[0]),
                                      HuffmanEncoder(dc_spec[1])};
    const HuffmanEncoder ac_enc[2] = {HuffmanEncoder(ac_spec[0]),
                                      HuffmanEncoder(ac_spec[1])};
    if (nseg == 1) {
      // No restart markers: the single segment writes straight into `out`.
      BitWriter bits(out);
      encode_segment(coeffs, *scan, 0, total_mcus, dc_enc, ac_enc, bits);
      bits.flush();
    } else {
      // Restart segments are independently encodable: each starts with
      // fresh DC predictors, and flush() leaves every BitWriter
      // byte-aligned, so segment bytes never depend on their neighbours.
      // Encode them on the pool into per-segment buffers, then concatenate
      // in segment order with the RSTn markers interleaved — byte-identical
      // to a serial scan writer at any thread count.
      std::vector<Bytes> seg(static_cast<std::size_t>(nseg));
      exec::parallel_for(static_cast<std::size_t>(nseg), [&](std::size_t s) {
        const auto [m0, m1] = segment_bounds(static_cast<int>(s));
        BitWriter bits(seg[s]);
        encode_segment(coeffs, *scan, m0, m1, dc_enc, ac_enc, bits);
        bits.flush();
        // Fault hook: flip a byte of this finished segment, so tests can
        // prove a bad parallel worker stays contained to its segment.
        if (fault::point("jpeg.encode.segment") && !seg[s].empty())
          seg[s][seg[s].size() / 2] ^= 0x40;
      });
      std::size_t entropy_total = 0;
      for (const Bytes& b : seg) entropy_total += b.size() + 2;
      out.reserve(out.size() + entropy_total);
      for (int s = 0; s < nseg; ++s) {
        const Bytes& b = seg[static_cast<std::size_t>(s)];
        out.insert(out.end(), b.begin(), b.end());
        if (s + 1 < nseg) {
          // Same marker index the serial writer emitted before MCU
          // (s + 1) * R: ((m / R) - 1) % 8 == s % 8.
          out.push_back(kMarkerPrefix);
          out.push_back(static_cast<std::uint8_t>(0xd0 + s % 8));
        }
      }
    }
  }
  if (stats) stats->entropy_bytes = out.size() - entropy_start;
  out.push_back(kMarkerPrefix);
  out.push_back(kEOI);
  return out;
}

Bytes serialize_delta(const CoefficientImage& coeffs,
                      const EncodeOptions& opts, const ScanSource& src,
                      const DirtyMcuSet& dirty, const ScanIndex* scan,
                      EncodeStats* stats, DeltaStats* delta_stats) {
  if (delta_stats) *delta_stats = DeltaStats{};
  const int R = opts.restart_interval;
  const int total_mcus = total_mcu_count(coeffs);
  const int nseg = R > 0 ? (total_mcus + R - 1) / R : 1;
  // Preconditions of the byte-identity contract: standard tables on both
  // sides, the same restart cadence, the same geometry, and a dirty set
  // sized to this MCU grid. Optimized-Huffman output depends on the global
  // symbol histogram (one dirty MCU retables every segment), so it can
  // never delta.
  bool eligible =
      delta_reencode_enabled() && opts.huffman == HuffmanMode::kStandard &&
      R > 0 && src.restart_interval == R && src.standard_tables &&
      src.width == coeffs.width() && src.height == coeffs.height() &&
      src.components == coeffs.component_count() &&
      src.chroma == coeffs.chroma_mode() &&
      static_cast<int>(src.segments.size()) == nseg &&
      dirty.total == total_mcus &&
      (coeffs.component_count() == 1 || coeffs.component_count() == 3);
  if (eligible)  // malformed segment table = not a usable source
    for (const ScanSegment& r : src.segments)
      if (r.begin > r.end || r.end > src.entropy.size()) {
        eligible = false;
        break;
      }
  if (!eligible) {
    if (delta_stats) delta_stats->fallback = true;
    return serialize(coeffs, opts, scan, stats);
  }

  // Segment s covers MCUs [s*R, min((s+1)*R, total)); it re-encodes iff the
  // dirty set intersects that range.
  std::vector<char> seg_dirty(static_cast<std::size_t>(nseg), 0);
  std::vector<int> dirty_segs;
  for (int s = 0; s < nseg; ++s) {
    const int m0 = s * R;
    if (dirty.any_in(m0, std::min(total_mcus, m0 + R))) {
      seg_dirty[static_cast<std::size_t>(s)] = 1;
      dirty_segs.push_back(s);
    }
  }

  if (stats) *stats = EncodeStats{};  // kStandard: saved_bytes stays 0

  const HuffmanSpec dc_spec[2] = {std_dc_luma(), std_dc_chroma()};
  const HuffmanSpec ac_spec[2] = {std_ac_luma(), std_ac_chroma()};
  ByteWriter w;
  write_headers(w, coeffs, dc_spec, ac_spec, R);
  Bytes out = w.take();
  const std::size_t entropy_start = out.size();

  // Nonzero masks: trust a matching supplied index, else build a PARTIAL
  // one covering only the dirty segments' blocks. Skipping the mask scan of
  // the clean blocks is most of the delta win on lightly-touched images.
  // Disjoint MCU ranges own disjoint blocks, so the parallel fill is
  // race-free.
  ScanIndex partial;
  const ScanIndex* use_scan = scan && scan->matches(coeffs) ? scan : nullptr;
  if (!use_scan && !dirty_segs.empty()) {
    partial.masks.resize(static_cast<std::size_t>(coeffs.component_count()));
    for (int c = 0; c < coeffs.component_count(); ++c)
      partial.masks[static_cast<std::size_t>(c)].assign(
          coeffs.component(c).blocks.size(), 0);
    const kernels::KernelTable& k = kernels::active();
    exec::parallel_for(dirty_segs.size(), [&](std::size_t i) {
      const int s = dirty_segs[i];
      const int m0 = s * R;
      for_each_block_in_mcu_range(
          coeffs, m0, std::min(total_mcus, m0 + R),
          [&](int c, int bx, int by) {
            const Component& comp = coeffs.component(c);
            partial.masks[static_cast<std::size_t>(c)]
                         [static_cast<std::size_t>(by) * comp.blocks_w +
                          static_cast<std::size_t>(bx)] =
                k.nonzero_mask(comp.block(bx, by).data());
          });
    });
    use_scan = &partial;
  }

  // Dirty segments entropy-code on the pool exactly like serialize()'s
  // parallel writers (fresh DC predictors, byte-aligned flush); clean
  // segments are verbatim copies of the source bytes.
  std::vector<Bytes> seg(static_cast<std::size_t>(nseg));
  {
    const HuffmanEncoder dc_enc[2] = {HuffmanEncoder(dc_spec[0]),
                                      HuffmanEncoder(dc_spec[1])};
    const HuffmanEncoder ac_enc[2] = {HuffmanEncoder(ac_spec[0]),
                                      HuffmanEncoder(ac_spec[1])};
    exec::parallel_for(dirty_segs.size(), [&](std::size_t i) {
      const int s = dirty_segs[i];
      const int m0 = s * R;
      auto& b = seg[static_cast<std::size_t>(s)];
      BitWriter bits(b);
      encode_segment(coeffs, *use_scan, m0, std::min(total_mcus, m0 + R),
                     dc_enc, ac_enc, bits);
      bits.flush();
      if (fault::point("jpeg.encode.segment") && !b.empty())
        b[b.size() / 2] ^= 0x40;
    });
  }

  std::size_t entropy_total = 0;
  for (int s = 0; s < nseg; ++s)
    entropy_total +=
        (seg_dirty[static_cast<std::size_t>(s)]
             ? seg[static_cast<std::size_t>(s)].size()
             : src.segments[static_cast<std::size_t>(s)].end -
                   src.segments[static_cast<std::size_t>(s)].begin) +
        2;
  out.reserve(out.size() + entropy_total);
  for (int s = 0; s < nseg; ++s) {
    if (seg_dirty[static_cast<std::size_t>(s)]) {
      const Bytes& b = seg[static_cast<std::size_t>(s)];
      out.insert(out.end(), b.begin(), b.end());
    } else {
      const ScanSegment& r = src.segments[static_cast<std::size_t>(s)];
      out.insert(out.end(), src.entropy.data() + r.begin,
                 src.entropy.data() + r.end);
    }
    if (s + 1 < nseg) {
      out.push_back(kMarkerPrefix);
      out.push_back(static_cast<std::uint8_t>(0xd0 + s % 8));
    }
  }
  if (stats) stats->entropy_bytes = out.size() - entropy_start;
  out.push_back(kMarkerPrefix);
  out.push_back(kEOI);
  if (delta_stats) {
    delta_stats->segments_total = nseg;
    delta_stats->segments_reencoded = static_cast<int>(dirty_segs.size());
    delta_stats->segments_copied = nseg - delta_stats->segments_reencoded;
  }
  return out;
}

void diff_dirty_mcus(const CoefficientImage& a, const CoefficientImage& b,
                     DirtyMcuSet& dirty) {
  require(a.width() == b.width() && a.height() == b.height() &&
              a.component_count() == b.component_count() &&
              a.chroma_mode() == b.chroma_mode(),
          "diff_dirty_mcus requires identical geometry");
  const int total = a.mcu_count();
  dirty.reset(total);
  const int mcu_cols = a.mcu_cols();
  // Per-MCU char flags: parallel rows write disjoint elements; the serial
  // fold below owns the shared bitset words. Compares stored (quantized)
  // values only — callers gate on equal quant tables where that matters.
  std::vector<char> flags(static_cast<std::size_t>(total), 0);
  exec::parallel_for(static_cast<std::size_t>(a.mcu_rows()),
                     [&](std::size_t my) {
                       for (int mx = 0; mx < mcu_cols; ++mx) {
                         bool diff = false;
                         for (int c = 0;
                              c < a.component_count() && !diff; ++c) {
                           const Component& ca = a.component(c);
                           const Component& cb = b.component(c);
                           for (int by = 0; by < ca.v && !diff; ++by)
                             for (int bx = 0; bx < ca.h; ++bx) {
                               const int gx = mx * ca.h + bx;
                               const int gy =
                                   static_cast<int>(my) * ca.v + by;
                               if (std::memcmp(ca.block(gx, gy).data(),
                                               cb.block(gx, gy).data(),
                                               sizeof(CoefBlock)) != 0) {
                                 diff = true;
                                 break;
                               }
                             }
                         }
                         if (diff)
                           flags[my * static_cast<std::size_t>(mcu_cols) +
                                 static_cast<std::size_t>(mx)] = 1;
                       }
                     });
  for (int m = 0; m < total; ++m)
    if (flags[static_cast<std::size_t>(m)]) dirty.mark(m);
}

std::vector<ScanSegment> scan_restart_segments(
    std::span<const std::uint8_t> entropy, int expected_segments) {
  std::vector<ScanSegment> segs;
  if (expected_segments <= 0) return segs;
  segs.reserve(static_cast<std::size_t>(expected_segments));
  std::size_t begin = 0;
  std::size_t i = 0;
  const std::size_t n = entropy.size();
  while (i < n) {
    if (entropy[i] != 0xff) {
      ++i;
      continue;
    }
    // A dangling 0xFF as the very last byte cannot be classified; leave it
    // inside the final segment, whose reader reports it iff bits past it
    // are actually needed — exactly like the serial decoder.
    if (i + 1 >= n) break;
    const std::uint8_t m = entropy[i + 1];
    if (m == 0x00) {  // stuffed data byte
      i += 2;
      continue;
    }
    if (m >= 0xd0 && m <= 0xd7) {  // RSTn: segment boundary
      // The serial decoder requires marker index s % 8 after segment s.
      if (m != 0xd0 + segs.size() % 8) return {};
      segs.push_back({begin, i});
      // More segments follow this marker than the header promised.
      if (static_cast<int>(segs.size()) >= expected_segments) return {};
      begin = i + 2;
      i += 2;
      continue;
    }
    // Any other marker terminates the scan.
    segs.push_back({begin, i});
    if (static_cast<int>(segs.size()) != expected_segments) return {};
    return segs;
  }
  segs.push_back({begin, n});
  if (static_cast<int>(segs.size()) != expected_segments) return {};
  return segs;
}

namespace {

// 1 GP: both codec directions stream MCU-row bands (pixel scratch is
// O(width × chunk rows)), so the guard only has to bound the coefficient
// planes — ~6 GB worst case at 4:4:4, an explicit operator opt-in via the
// env var below that, and still small enough to reject a crafted
// 65535×65535 (4.29 GP) header outright.
constexpr std::size_t kDefaultMaxDecodePixels = 1'000'000'000;

/// 0 = unset: resolve PUPPIES_MAX_PIXELS, else the default.
std::atomic<std::size_t> g_max_decode_pixels{0};

/// Test/bench hooks (set_parallel_decode_enabled,
/// set_delta_reencode_enabled): each selects between two paths whose output
/// bytes are identical, so neither is an operator setting.
std::atomic<bool> g_parallel_decode{true};
std::atomic<bool> g_delta_reencode{true};

/// Segment-parallel scan decode — the exact inverse of serialize()'s
/// parallel segment writers. Returns true iff every segment decoded cleanly
/// and every non-final segment consumed exactly its byte range; any anomaly
/// (a ParseError inside a segment, leftover bytes before an RSTn) makes the
/// caller rerun the serial decoder, which re-deposits every block and owns
/// the error message. Workers write disjoint blocks of `img`, so success is
/// bit-identical to the serial decode at any thread count.
bool try_parallel_decode(CoefficientImage& img,
                         const std::vector<FrameComponent>& fcs,
                         const std::vector<HuffmanDecoder>& dc_dec,
                         const std::vector<HuffmanDecoder>& ac_dec, int R,
                         int total_mcus, int nseg,
                         std::span<const std::uint8_t> entropy) {
  const std::vector<ScanSegment> segs = scan_restart_segments(entropy, nseg);
  if (static_cast<int>(segs.size()) != nseg) return false;
  std::atomic<bool> ok{true};
  exec::parallel_for(static_cast<std::size_t>(nseg), [&](std::size_t s) {
    if (!ok.load(std::memory_order_relaxed)) return;
    const int m0 = static_cast<int>(s) * R;
    const int m1 = std::min(total_mcus, m0 + R);
    BitReader bits(
        entropy.subspan(segs[s].begin, segs[s].end - segs[s].begin));
    std::vector<int> prev_dc(static_cast<std::size_t>(img.component_count()),
                             0);
    try {
      for_each_block_in_mcu_range(img, m0, m1, [&](int c, int bx, int by) {
        const FrameComponent& fc = fcs[static_cast<std::size_t>(c)];
        decode_block(bits, dc_dec[static_cast<std::size_t>(fc.dc_table)],
                     ac_dec[static_cast<std::size_t>(fc.ac_table)],
                     prev_dc[static_cast<std::size_t>(c)],
                     img.component(c).block(bx, by));
      });
      // A non-final segment must land exactly on its restart boundary (the
      // condition under which the serial decoder's expect_restart_marker
      // would have succeeded here). The final segment mirrors the serial
      // decoder, which ignores trailing bytes after the last MCU.
      if (s + 1 < static_cast<std::size_t>(nseg) && !bits.at_segment_end())
        ok.store(false, std::memory_order_relaxed);
    } catch (const Error&) {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  return ok.load();
}

CoefficientImage parse_impl(std::span<const std::uint8_t> data,
                            ParseStats* stats, ScanSource* source) {
  ByteReader r(data);
  if (r.u8() != kMarkerPrefix || r.u8() != kSOI)
    throw ParseError("missing SOI");

  QuantTable qtables[2] = {flat_quant_table(1), flat_quant_table(1)};
  bool have_q[2] = {false, false};
  HuffmanSpec huff[2][2];  // [class][id]
  bool have_huff[2][2] = {{false, false}, {false, false}};

  int width = 0, height = 0;
  int restart_interval = 0;
  std::vector<FrameComponent> frame_comps;

  for (;;) {
    std::uint8_t b = r.u8();
    if (b != kMarkerPrefix) throw ParseError("expected marker");
    std::uint8_t marker = r.u8();
    while (marker == kMarkerPrefix) marker = r.u8();  // fill bytes

    if (marker == kEOI) throw ParseError("EOI before SOS");
    if (marker == kSOS) break;

    const std::uint16_t len = r.u16();
    if (len < 2) throw ParseError("bad segment length");
    Bytes seg = r.raw(len - 2);
    ByteReader s(seg);

    switch (marker) {
      case kDQT: {
        while (!s.done()) {
          const std::uint8_t pq_tq = s.u8();
          const int precision = pq_tq >> 4;
          const int id = pq_tq & 0xf;
          if (id > 1) throw ParseError("only 2 quant tables supported");
          for (int z = 0; z < 64; ++z)
            qtables[id].q[static_cast<std::size_t>(z)] =
                precision ? s.u16() : s.u8();
          have_q[id] = true;
        }
        break;
      }
      case kSOF0: {
        if (s.u8() != 8) throw ParseError("only 8-bit precision supported");
        height = s.u16();
        width = s.u16();
        // Allocation guard: a crafted SOF (up to 65535x65535) would commit
        // the decoder to multi-GB coefficient buffers before decoding one
        // MCU. Reject by pixel footprint before any buffer is sized.
        const std::uint64_t pixels =
            static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
        if (pixels > max_decode_pixels())
          throw ParseError(
              "SOF dimensions " + std::to_string(width) + "x" +
              std::to_string(height) + " exceed the decode limit of " +
              std::to_string(max_decode_pixels()) +
              " pixels (PUPPIES_MAX_PIXELS)");
        const int ncomp = s.u8();
        if (ncomp != 1 && ncomp != 3)
          throw ParseError("only 1 or 3 components supported");
        for (int c = 0; c < ncomp; ++c) {
          FrameComponent fc;
          fc.id = s.u8();
          const std::uint8_t hv = s.u8();
          fc.h = hv >> 4;
          fc.v = hv & 0xf;
          fc.quant_index = s.u8();
          if (fc.quant_index > 1) throw ParseError("quant table id > 1");
          frame_comps.push_back(fc);
        }
        break;
      }
      case kDHT: {
        while (!s.done()) {
          const std::uint8_t tc_th = s.u8();
          const int tc = tc_th >> 4, th = tc_th & 0xf;
          if (tc > 1 || th > 1) throw ParseError("huffman table id");
          HuffmanSpec spec;
          int total = 0;
          for (int l = 1; l <= 16; ++l) {
            spec.bits[static_cast<std::size_t>(l)] = s.u8();
            total += spec.bits[static_cast<std::size_t>(l)];
          }
          spec.values = s.raw(static_cast<std::size_t>(total));
          huff[tc][th] = std::move(spec);
          have_huff[tc][th] = true;
        }
        break;
      }
      case 0xdd: {  // DRI
        restart_interval = s.u16();
        break;
      }
      default:
        // APPn / COM / anything else: skipped.
        break;
    }
  }

  if (frame_comps.empty() || width == 0 || height == 0)
    throw ParseError("missing SOF0 before SOS");

  // Determine the chroma mode from the sampling factors.
  ChromaMode mode = ChromaMode::k444;
  if (frame_comps.size() == 3) {
    const bool all_111 = frame_comps[0].h == 1 && frame_comps[0].v == 1 &&
                         frame_comps[1].h == 1 && frame_comps[1].v == 1 &&
                         frame_comps[2].h == 1 && frame_comps[2].v == 1;
    const bool is_420 = frame_comps[0].h == 2 && frame_comps[0].v == 2 &&
                        frame_comps[1].h == 1 && frame_comps[1].v == 1 &&
                        frame_comps[2].h == 1 && frame_comps[2].v == 1;
    if (is_420)
      mode = ChromaMode::k420;
    else if (!all_111)
      throw ParseError("only 4:4:4 and 4:2:0 sampling supported");
  } else if (frame_comps[0].h != 1 || frame_comps[0].v != 1) {
    throw ParseError("grayscale must use 1x1 sampling");
  }

  // SOS header.
  const std::uint16_t sos_len = r.u16();
  Bytes sos = r.raw(sos_len - 2);
  ByteReader s(sos);
  const int scan_ncomp = s.u8();
  if (scan_ncomp != static_cast<int>(frame_comps.size()))
    throw ParseError("scan/frame component mismatch");
  for (int c = 0; c < scan_ncomp; ++c) {
    const int id = s.u8();
    if (id != frame_comps[static_cast<std::size_t>(c)].id)
      throw ParseError("scan component order mismatch");
    const std::uint8_t td_ta = s.u8();
    // Baseline allows table ids 0 and 1 only; anything else would index
    // past the two-decoder tables below.
    if ((td_ta >> 4) > 1 || (td_ta & 0xf) > 1)
      throw ParseError("scan references an invalid Huffman table id");
    frame_comps[static_cast<std::size_t>(c)].dc_table = td_ta >> 4;
    frame_comps[static_cast<std::size_t>(c)].ac_table = td_ta & 0xf;
  }

  CoefficientImage img(width, height, scan_ncomp, qtables[0], qtables[1],
                       mode);
  for (int c = 0; c < scan_ncomp; ++c)
    img.component(c).quant_index =
        frame_comps[static_cast<std::size_t>(c)].quant_index;
  if (!have_q[img.component(0).quant_index])
    throw ParseError("missing quant table");

  std::vector<HuffmanDecoder> dc_dec, ac_dec;
  for (int t = 0; t < 2; ++t) {
    dc_dec.emplace_back(have_huff[0][t] ? huff[0][t] : std_dc_luma());
    ac_dec.emplace_back(have_huff[1][t] ? huff[1][t] : std_ac_luma());
  }

  // Entropy-coded data runs from here to the next marker.
  const std::size_t entropy_start = data.size() - r.remaining();
  const std::span<const std::uint8_t> entropy = data.subspan(entropy_start);

  const int total_mcus = total_mcu_count(img);
  const int nseg =
      restart_interval > 0
          ? (total_mcus + restart_interval - 1) / restart_interval
          : 1;
  if (stats) {
    stats->restart_segments = nseg;
    stats->parallel = false;
  }

  // Retain the delta-serving context on request: the scan's entropy bytes,
  // its segment table, and whether the tables are exactly the standard
  // specs serialize() assigns. Left !valid() when there is no restart
  // interval or the markers don't partition cleanly (the same all-or-nothing
  // contract the parallel decoder applies). Filled before the scan decodes:
  // if the entropy data turns out corrupt, parse throws and the caller never
  // sees the ScanSource.
  if (source) {
    *source = ScanSource{};
    if (restart_interval > 0) {
      std::vector<ScanSegment> segs = scan_restart_segments(entropy, nseg);
      if (static_cast<int>(segs.size()) == nseg) {
        source->restart_interval = restart_interval;
        source->entropy.assign(entropy.data(),
                               entropy.data() + segs.back().end);
        source->segments = std::move(segs);
        bool std_tables = true;
        for (int c = 0; c < scan_ncomp; ++c) {
          const FrameComponent& fc = frame_comps[static_cast<std::size_t>(c)];
          const HuffmanSpec& dc_used = have_huff[0][fc.dc_table]
                                           ? huff[0][fc.dc_table]
                                           : std_dc_luma();
          const HuffmanSpec& ac_used = have_huff[1][fc.ac_table]
                                           ? huff[1][fc.ac_table]
                                           : std_ac_luma();
          if (!(dc_used == std_spec_for_component(0, c)) ||
              !(ac_used == std_spec_for_component(1, c))) {
            std_tables = false;
            break;
          }
        }
        source->standard_tables = std_tables;
        source->width = width;
        source->height = height;
        source->components = scan_ncomp;
        source->chroma = mode;
      }
    }
  }

  if (nseg > 1 && parallel_decode_enabled()) {
    if (try_parallel_decode(img, frame_comps, dc_dec, ac_dec,
                            restart_interval, total_mcus, nseg, entropy)) {
      if (stats) stats->parallel = true;
      return img;
    }
    // A half-written parallel attempt leaves residue in the sparse-write
    // blocks; restore the all-zero precondition decode_block relies on
    // before the serial rerun.
    for (int c = 0; c < img.component_count(); ++c) {
      auto& blocks = img.component(c).blocks;
      std::fill(blocks.begin(), blocks.end(), CoefBlock{});
    }
  }

  // Serial scan decode: the reference path, and the fallback that owns all
  // error reporting when the restart structure is malformed (the parallel
  // path never throws — it re-runs this loop over re-zeroed planes, so a
  // half-written parallel attempt leaves no residue).
  BitReader bits(entropy);
  std::vector<int> prev_dc(static_cast<std::size_t>(scan_ncomp), 0);
  for_each_block_in_scan_order(
      img,
      [&](int mcu) {
        if (restart_interval > 0 && mcu > 0 && mcu % restart_interval == 0) {
          bits.expect_restart_marker((mcu / restart_interval - 1) % 8);
          std::fill(prev_dc.begin(), prev_dc.end(), 0);
        }
      },
      [&](int c, int bx, int by) {
        const FrameComponent& fc = frame_comps[static_cast<std::size_t>(c)];
        decode_block(bits, dc_dec[static_cast<std::size_t>(fc.dc_table)],
                     ac_dec[static_cast<std::size_t>(fc.ac_table)],
                     prev_dc[static_cast<std::size_t>(c)],
                     img.component(c).block(bx, by));
      });

  return img;
}

}  // namespace

std::size_t max_decode_pixels() {
  const std::size_t v = g_max_decode_pixels.load(std::memory_order_relaxed);
  if (v) return v;
  static const std::size_t resolved = [] {
    const char* env = std::getenv("PUPPIES_MAX_PIXELS");
    if (env && *env) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(env, &end, 10);
      if (end && *end == '\0' && n > 0) return static_cast<std::size_t>(n);
    }
    return kDefaultMaxDecodePixels;
  }();
  return resolved;
}

void set_max_decode_pixels(std::size_t pixels) {
  g_max_decode_pixels.store(pixels, std::memory_order_relaxed);
}

bool parallel_decode_enabled() {
  return g_parallel_decode.load(std::memory_order_relaxed);
}

void set_parallel_decode_enabled(int enabled) {
  g_parallel_decode.store(enabled != 0, std::memory_order_relaxed);
}

bool delta_reencode_enabled() {
  return g_delta_reencode.load(std::memory_order_relaxed);
}

void set_delta_reencode_enabled(int enabled) {
  g_delta_reencode.store(enabled != 0, std::memory_order_relaxed);
}

CoefficientImage parse(std::span<const std::uint8_t> data, ParseStats* stats,
                       ScanSource* source) {
  // Clean taxonomy for hostile input: anything a malformed stream trips —
  // including deep precondition checks (Huffman spec sizes, image
  // dimensions) that report InvalidArgument — surfaces as ParseError.
  try {
    return parse_impl(data, stats, source);
  } catch (const ParseError&) {
    throw;
  } catch (const InvalidArgument& e) {
    throw ParseError(std::string("malformed stream: ") + e.what());
  }
}

CoefficientImage requantize(const CoefficientImage& coeffs, int new_quality) {
  CoefficientImage out(coeffs.width(), coeffs.height(),
                       coeffs.component_count(), luma_quant_table(new_quality),
                       chroma_quant_table(new_quality), coeffs.chroma_mode());
  for (int c = 0; c < coeffs.component_count(); ++c) {
    const Component& src = coeffs.component(c);
    Component& dst = out.component(c);
    dst.quant_index = src.quant_index;
    const QuantTable& old_qt = coeffs.qtable(src.quant_index);
    const QuantTable& new_qt = out.qtable(dst.quant_index);
    exec::parallel_for(static_cast<std::size_t>(src.blocks_h), [&](std::size_t row) {
      const int by = static_cast<int>(row);
      for (int bx = 0; bx < src.blocks_w; ++bx) {
        const CoefBlock& in_b = src.block(bx, by);
        CoefBlock& out_b = dst.block(bx, by);
        for (int z = 0; z < 64; ++z) {
          const long raw = static_cast<long>(in_b[static_cast<std::size_t>(z)]) *
                           old_qt.q[static_cast<std::size_t>(z)];
          long q = raw >= 0
                       ? (raw + new_qt.q[static_cast<std::size_t>(z)] / 2) /
                             new_qt.q[static_cast<std::size_t>(z)]
                       : -((-raw + new_qt.q[static_cast<std::size_t>(z)] / 2) /
                           new_qt.q[static_cast<std::size_t>(z)]);
          const int lo = z == 0 ? kDcMin : kAcMin;
          const int hi = z == 0 ? kDcMax : kAcMax;
          if (q < lo) q = lo;
          if (q > hi) q = hi;
          out_b[static_cast<std::size_t>(z)] = static_cast<std::int16_t>(q);
        }
      }
    });
  }
  return out;
}

}  // namespace puppies::jpeg
