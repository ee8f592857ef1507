#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

namespace servebench {
namespace {

using puppies::Rng;
using puppies::jpeg::ChromaMode;
using puppies::psp::DeliveryMode;
namespace tf = puppies::transform;

// ---- photo workloads -------------------------------------------------------
//
// Six photo sizes from 1 to 12 MP (4:3, multiples of 16 so they are whole
// MCUs in both 4:4:4 and 4:2:0), drawn by a stratified deck: every
// connection uploads exactly kPhotoWeights[c] images of class c, one deck
// per run (about 15 s of work on a 4-CPU x86 host; every upload stays in
// the server's memory, about 1 GB per deck, so a run never replays more).
// Fixed per-class counts keep the latency mix — and so the medians — the
// same for every seed; the seed changes content, keys, ROIs, chains, crop
// offsets and qualities.
//
// The weights are an assumption, not a measured traffic mix: they put the
// median upload and apply at 2 MP, the size the serving figures this
// benchmark was sized against were taken at, and the p90 apply among the
// 5-12 MP images.
struct Size {
  int w, h;
};
constexpr Size kPhotoSizes[] = {{1152, 864},  {1632, 1232}, {2000, 1504},
                                {2592, 1952}, {3264, 2448}, {4000, 3008}};
constexpr int kPhotoWeights[] = {5, 4, 3, 2, 1, 1};  // images per class per deck
constexpr int kPhotoConnections = 2;

// ---- feed-small ------------------------------------------------------------
constexpr Size kFeedSizes[] = {{160, 120}, {208, 160}, {256, 192}, {320, 240},
                               {384, 288}, {448, 336}, {512, 384}, {640, 480}};
constexpr int kFeedClasses = 8;
constexpr Size kFeedFreshSizes[] = {{160, 112}, {208, 160}};
constexpr int kFeedConnections = 4;
constexpr int kFeedRaw = 128;      ///< set-up images never transformed
constexpr int kFeedDerived = 128;  ///< set-up images with a derivative
constexpr double kFeedZipfS = 1.0;
/// Open-loop arrival rate (requests/s, all connections together): half the
/// capacity measured for this mix on the commit that introduced the
/// benchmark (38.8K requests/s closed loop, 4 connections, 4-CPU host;
/// `--calibrate` remeasures it).
constexpr double kFeedRatePerS = 19000.0;
/// Latency percentiles are medians over windows of this many seconds.
constexpr double kFeedWindowSeconds = 2.0;
/// One feed deck per connection: 45 downloads (one of them of the fresh
/// upload), 3 repeat applies, 1 upload and its first apply (2% / 8% / 90%).
constexpr int kFeedDeck = 50;
constexpr int kFeedRepeatApplies = 3;
/// Of the zipfian downloads, this many per ten read a raw original back
/// from the store (digest-verified) rather than a cached derivative.
constexpr int kFeedRawPerTen = 6;

std::string label(const Plan& p, int image) {
  return "servebench/" + std::string(workload_name(p.workload)) + "/" +
         std::to_string(p.seed) + "/" + std::to_string(image);
}

/// A face-sized ROI somewhere inside a w x h image.
Rect random_roi(Rng& rng, int w, int h) {
  const int rw = std::max(16, static_cast<int>(w * (0.1 + 0.15 * rng.uniform())));
  const int rh = std::max(16, static_cast<int>(h * (0.1 + 0.15 * rng.uniform())));
  return Rect{static_cast<int>(rng.below(static_cast<std::uint64_t>(w - rw))),
              static_cast<int>(rng.below(static_cast<std::uint64_t>(h - rh))),
              rw, rh};
}

/// Photo uploads share one base scene per size (synthesizing 12 MP scenes
/// is the generator's slowest step); feed images draw from a few.
int add_image(Plan& p, Rng& rng, int w, int h, ChromaMode chroma, int owner,
              int scenes) {
  ImageSpec s;
  s.width = w;
  s.height = h;
  s.chroma = chroma;
  s.scene = static_cast<int>(rng.below(static_cast<std::uint64_t>(scenes)));
  s.roi = random_roi(rng, w, h);
  s.owner = owner;
  p.images.push_back(s);
  const int index = static_cast<int>(p.images.size()) - 1;
  p.images.back().key_label = label(p, index);
  return index;
}

/// An 8-aligned crop keeping `keep` of each side of a w x h image, at a
/// seeded offset.
tf::Step crop(Rng& rng, int w, int h, double keep) {
  auto span = [&](int extent) {
    const int blocks = extent / 8;
    const int kept = std::max(1, static_cast<int>(blocks * keep));
    const int off = static_cast<int>(rng.below(static_cast<std::uint64_t>(blocks - kept + 1)));
    return std::pair{off * 8, kept * 8};
  };
  const auto [x, cw] = span(w);
  const auto [y, ch] = span(h);
  return tf::crop_aligned(Rect{x, y, cw, ch});
}

/// Crop sizes come from a fixed list, in a seeded order, so every image
/// gets the same mix of crop areas whatever the seed.
std::vector<double> crop_keeps(Rng& rng) {
  std::vector<double> k = {0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95};
  shuffle(k, rng);
  return k;
}

tf::Step random_d4_step(Rng& rng) {
  switch (rng.below(5)) {
    case 0: return tf::rotate(90);
    case 1: return tf::rotate(180);
    case 2: return tf::rotate(270);
    case 3: return tf::flip_h();
    default: return tf::flip_v();
  }
}

std::string chain_key(const tf::Chain& chain, int quality) {
  std::string k;
  for (const tf::Step& s : tf::canonicalize(chain)) k += s.to_string() + ";";
  return k + "q" + std::to_string(quality);
}

/// The 28 coef-photo chains of one image, each canonically distinct: the
/// seven non-identity D4 elements (five as single steps, two as 2-3 step
/// chains that fold), each of the seven again followed by a crop, twice,
/// and seven plain crops.
std::vector<tf::Chain> coef_chains(Rng& rng, int w, int h) {
  std::vector<tf::Chain> d4 = {{tf::rotate(90)}, {tf::rotate(180)},
                               {tf::rotate(270)}, {tf::flip_h()},
                               {tf::flip_v()}};
  std::set<std::string> used;
  for (const tf::Chain& c : d4) used.insert(chain_key(c, 0));
  while (d4.size() < 7) {
    tf::Chain c;
    const int steps = 2 + static_cast<int>(rng.below(2));
    for (int i = 0; i < steps; ++i) c.push_back(random_d4_step(rng));
    if (tf::canonicalize(c).empty()) continue;
    if (used.insert(chain_key(c, 0)).second) d4.push_back(c);
  }
  std::vector<tf::Chain> out = d4;
  auto add_unique = [&](const tf::Chain& prefix, double keep) {
    while (true) {
      tf::Chain c = prefix;
      const auto [cw, ch] = tf::map_size(c, w, h);
      c.push_back(crop(rng, cw, ch, keep));
      if (used.insert(chain_key(c, 0)).second) {
        out.push_back(std::move(c));
        return;
      }
    }
  };
  for (int round = 0; round < 2; ++round) {
    const std::vector<double> keeps = crop_keeps(rng);
    for (std::size_t i = 0; i < d4.size(); ++i) add_unique(d4[i], keeps[i]);
  }
  for (double keep : crop_keeps(rng)) add_unique({}, keep);
  shuffle(out, rng);
  return out;
}

struct PixelSession {
  tf::Chain chain;
  int quality;
};

/// The 24 pixel-photo sessions of one image, twice: half size (twice),
/// three thumbnails, box blur, sharpen, half size + blur, half size +
/// sharpen, and three identity recompresses. Each has its own quality in
/// [50, 90], so every (chain, quality) is new.
std::vector<PixelSession> pixel_sessions(Rng& rng, int w, int h) {
  auto thumb = [&](int long_side) {
    return tf::scale(long_side, std::max(8, long_side * h / w));
  };
  const tf::Step half = tf::scale(w / 2, h / 2);
  std::vector<tf::Chain> chains = {
      {half}, {half}, {thumb(160)}, {thumb(320)}, {thumb(640)},
      {tf::box_blur()}, {tf::sharpen()}, {half, tf::box_blur()},
      {half, tf::sharpen()}, {}, {}, {}};
  chains.insert(chains.end(), chains.begin(), chains.end());
  std::vector<PixelSession> out;
  std::set<std::string> used;
  for (tf::Chain& c : chains) {
    int q;
    do {
      q = static_cast<int>(rng.range(50, 90));
    } while (!used.insert(chain_key(c, q)).second);
    out.push_back({std::move(c), q});
  }
  shuffle(out, rng);
  return out;
}

/// One connection's image sizes (indices into kPhotoSizes), kPhotoWeights[c]
/// of class c: a 3 MP image uploaded during set-up, then largest first. The
/// order is the same for every seed and both connections: the two 12 MP
/// images are processed side by side at the start, so the peak memory and
/// the contention pattern do not depend on the seed (a seeded order moved
/// the peak RSS by up to a third between seeds). With a 3 MP set-up image
/// the 30 timed uploads are ten 1 MP, eight 2 MP and twelve larger ones, so
/// their median falls inside the 2 MP class; with a 1 MP one it fell on the
/// 2|3 MP boundary, and one slow 2 MP upload moved it by a fifth.
std::vector<int> photo_size_deck() {
  constexpr int kSetupClass = 2;
  std::vector<int> deck = {kSetupClass};
  for (int c = 5; c >= 0; --c)
    for (int k = 0; k < kPhotoWeights[c] - (c == kSetupClass ? 1 : 0); ++k)
      deck.push_back(c);
  return deck;
}

Plan make_photo_plan(Workload w, std::uint64_t seed) {
  Plan p;
  p.workload = w;
  p.seed = seed;
  p.align_uploads = true;
  const bool coef = w == Workload::kCoefPhoto;
  const ChromaMode chroma = coef ? ChromaMode::k444 : ChromaMode::k420;
  Rng root(seed);
  p.conns.resize(kPhotoConnections);
  for (int c = 0; c < kPhotoConnections; ++c) {
    Rng rng = root.fork("conn/" + std::to_string(c));
    ConnectionPlan& cp = p.conns[static_cast<std::size_t>(c)];
    for (int cls : photo_size_deck()) {
      const Size sz = kPhotoSizes[cls];
      const int img = add_image(p, rng, sz.w, sz.h, chroma, c, 1);
      if (cp.setup_uploads.empty())
        cp.setup_uploads.push_back(img);
      else
        cp.timed.push_back(make_request(Op::kUpload, img));
      // The uploader views the original first: a store get of the raw
      // upload, before any transform replaces what download serves.
      cp.timed.push_back(make_request(Op::kDownload, img));
      auto session = [&](tf::Chain chain, DeliveryMode mode, int quality) {
        Request a = make_request(Op::kApply, img);
        a.chain = std::move(chain);
        a.mode = mode;
        a.quality = quality;
        cp.timed.push_back(std::move(a));
        cp.timed.push_back(make_request(Op::kDownload, img));
      };
      if (coef) {
        const std::vector<tf::Chain> chains = coef_chains(rng, sz.w, sz.h);
        // One seeded session per image also checks receiver recovery.
        const std::size_t check = rng.below(chains.size());
        for (std::size_t i = 0; i < chains.size(); ++i) {
          session(chains[i], DeliveryMode::kCoefficients, 85);
          cp.timed.back().verify_recovery = i == check;
        }
      } else {
        for (PixelSession& s : pixel_sessions(rng, sz.w, sz.h))
          session(std::move(s.chain), DeliveryMode::kClampedReencode,
                  s.quality);
      }
    }
  }
  return p;
}

/// A feed derivative: a D4 step in the coefficient domain (4:4:4 only) or
/// a preview scale re-encoded at a seeded quality.
Request feed_derivative(Rng& rng, int image, const ImageSpec& s) {
  Request a = make_request(Op::kApply, image);
  if (s.chroma == ChromaMode::k444 && rng.chance(0.5)) {
    a.chain = {random_d4_step(rng)};
    a.mode = DeliveryMode::kCoefficients;
  } else {
    a.chain = {tf::scale(s.width / 2, s.height / 2)};
    a.mode = DeliveryMode::kClampedReencode;
    a.quality = static_cast<int>(rng.range(70, 90));
  }
  return a;
}

Plan make_feed_plan(std::uint64_t seed, double seconds) {
  Plan p;
  p.workload = Workload::kFeedSmall;
  p.seed = seed;
  p.open_loop = true;
  p.rate_per_s = kFeedRatePerS;
  p.windows = std::max(1, static_cast<int>(std::lround(seconds / kFeedWindowSeconds)));
  Rng root(seed);
  Rng corpus = root.fork("corpus");
  p.conns.resize(kFeedConnections);
  // Shared corpus: raw originals first, then derived images; size class is
  // index mod 8 in both halves, so a zipf rank always maps to the same size
  // whatever the seed.
  std::vector<Request> derivatives;
  for (int i = 0; i < kFeedRaw + kFeedDerived; ++i) {
    const Size sz = kFeedSizes[i % kFeedClasses];
    const int img = add_image(p, corpus, sz.w, sz.h, ChromaMode::k444, -1, 4);
    p.conns[static_cast<std::size_t>(i % kFeedConnections)].setup_uploads.push_back(img);
    if (i >= kFeedRaw) {
      derivatives.push_back(feed_derivative(corpus, img, p.images.back()));
      p.conns[static_cast<std::size_t>(i % kFeedConnections)]
          .setup_applies.push_back(derivatives.back());
    }
  }
  static_assert(kFeedRaw == kFeedDerived, "one zipf ranks both halves");
  const Zipf zipf(kFeedRaw, kFeedZipfS);
  const double per_conn_rate = kFeedRatePerS / kFeedConnections;
  const auto per_conn = static_cast<std::size_t>(std::ceil(per_conn_rate * seconds));
  for (int c = 0; c < kFeedConnections; ++c) {
    Rng rng = root.fork("conn/" + std::to_string(c));
    ConnectionPlan& cp = p.conns[static_cast<std::size_t>(c)];
    // Fixed arrival rate: each connection sends every `period`, the four
    // offset by a quarter period, so arrivals are evenly spaced overall.
    const double period_us = 1e6 / per_conn_rate;
    double t_us = period_us * c / kFeedConnections;
    int fresh_class = c;
    std::vector<int> raw_deck;  // 1 = raw original, 0 = cached derivative
    while (cp.timed.size() < per_conn) {
      // Deck roles: 0 = zipf download, 1 = repeat apply, 2 = upload,
      // 3 = first apply of that upload, 4 = download of its derivative.
      std::vector<int> roles(kFeedDeck, 0);
      for (int k = 0; k < kFeedRepeatApplies; ++k) roles[static_cast<std::size_t>(k)] = 1;
      std::vector<int> chained = {kFeedRepeatApplies, kFeedRepeatApplies + 1,
                                  kFeedRepeatApplies + 2};
      for (int k : chained) roles[static_cast<std::size_t>(k)] = 2;
      shuffle(roles, rng);
      // The three chained slots keep their order: upload, apply, download.
      int next_chained = 2;
      // Fresh uploads are small 4:2:0 previews, as phones send them: the
      // server keeps each upload's parse for good, and the feed uploads
      // thousands per run.
      const Size sz = kFeedFreshSizes[fresh_class++ % 2];
      const int fresh = add_image(p, rng, sz.w, sz.h, ChromaMode::k420, c, 4);
      const Request fresh_apply = feed_derivative(rng, fresh, p.images[static_cast<std::size_t>(fresh)]);
      for (int role : roles) {
        Request r;
        if (role == 2) role = next_chained++;
        switch (role) {
          case 0: {
            if (raw_deck.empty()) {
              raw_deck.assign(10, 0);
              std::fill_n(raw_deck.begin(), kFeedRawPerTen, 1);
              shuffle(raw_deck, rng);
            }
            const bool raw = raw_deck.back() == 1;
            raw_deck.pop_back();
            r = make_request(Op::kDownload, (raw ? 0 : kFeedRaw) + zipf.sample(rng));
            break;
          }
          case 1:
            r = derivatives[static_cast<std::size_t>(zipf.sample(rng))];
            r.expect_hit = true;
            break;
          case 2: r = make_request(Op::kUpload, fresh); break;
          case 3: r = fresh_apply; break;
          default: r = make_request(Op::kDownload, fresh); break;
        }
        r.due_us = static_cast<std::int64_t>(t_us);
        t_us += period_us;
        cp.timed.push_back(std::move(r));
      }
    }
  }
  return p;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {
      Workload::kCoefPhoto, Workload::kPixelPhoto, Workload::kFeedSmall};
  return all;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kCoefPhoto: return "coef-photo";
    case Workload::kPixelPhoto: return "pixel-photo";
    case Workload::kFeedSmall: return "feed-small";
  }
  return "?";
}

Workload parse_workload(std::string_view name) {
  for (Workload w : all_workloads())
    if (workload_name(w) == name) return w;
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kUpload: return "upload";
    case Op::kApply: return "apply";
    case Op::kDownload: return "download";
  }
  return "?";
}

std::size_t Plan::timed_requests() const {
  std::size_t n = 0;
  for (const ConnectionPlan& c : conns) n += c.timed.size();
  return n;
}

std::size_t Plan::count(Op op) const {
  std::size_t n = 0;
  for (const ConnectionPlan& c : conns)
    for (const Request& r : c.timed) n += r.op == op;
  return n;
}

double Plan::planned_hit_share() const {
  std::size_t applies = 0, hits = 0;
  for (const ConnectionPlan& c : conns)
    for (const Request& r : c.timed)
      if (r.op == Op::kApply) {
        ++applies;
        hits += r.expect_hit;
      }
  return applies ? static_cast<double>(hits) / static_cast<double>(applies) : 0.0;
}

namespace {

/// The chain as the server decodes it. The wire stores filter kernels in
/// 1e-6 fixed point, so e.g. box_blur()'s 1/9 arrives rounded and filters
/// to other bytes than the in-memory step; the reference replay must apply
/// what the server received.
tf::Chain wire_exact(const tf::Chain& chain) {
  puppies::ByteWriter out;
  tf::write_chain(out, chain);
  puppies::ByteReader in(out.bytes());
  return tf::read_chain(in);
}

}  // namespace

Plan make_plan(Workload w, std::uint64_t seed, double seconds) {
  seconds = std::min(seconds, kMaxPlanSeconds);
  Plan p = w == Workload::kFeedSmall ? make_feed_plan(seed, seconds)
                                     : make_photo_plan(w, seed);
  for (ConnectionPlan& c : p.conns) {
    for (Request& r : c.setup_applies) r.chain = wire_exact(r.chain);
    for (Request& r : c.timed) r.chain = wire_exact(r.chain);
  }
  return p;
}

std::string fingerprint(const Plan& p) {
  std::ostringstream o;
  o << workload_name(p.workload) << " seed " << p.seed << " rate "
    << p.rate_per_s << " align " << p.align_uploads << " windows "
    << p.windows << "\n";
  for (const ImageSpec& s : p.images)
    o << "img " << s.width << "x" << s.height << " c" << static_cast<int>(s.chroma)
      << " scene " << s.scene << " roi " << s.roi.x << "," << s.roi.y << ","
      << s.roi.w << "," << s.roi.h << " " << s.key_label << " owner "
      << s.owner << "\n";
  auto req = [&](const Request& r) {
    o << op_name(r.op) << " " << r.image;
    if (r.op == Op::kApply) {
      o << " mode " << static_cast<int>(r.mode) << " q " << r.quality
        << " hit " << r.expect_hit << " [";
      for (const tf::Step& s : r.chain) o << s.to_string() << ";";
      o << "]";
    }
    o << " rec " << r.verify_recovery << " due " << r.due_us << "\n";
  };
  for (std::size_t c = 0; c < p.conns.size(); ++c) {
    o << "conn " << c << "\n";
    for (int i : p.conns[c].setup_uploads) o << "setup-upload " << i << "\n";
    for (const Request& r : p.conns[c].setup_applies) req(r);
    for (const Request& r : p.conns[c].timed) req(r);
  }
  return o.str();
}

Zipf::Zipf(int n, double s) {
  double acc = 0;
  for (int i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
}

int Zipf::rank(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

double Zipf::probability(int rank) const {
  const auto r = static_cast<std::size_t>(rank);
  return cdf_[r] - (r == 0 ? 0.0 : cdf_[r - 1]);
}

}  // namespace servebench
