// Seeded request lists for the serving benchmark.
//
// A Plan is everything one run sends: the images each connection uploads
// (as recipes, not bytes), the derivative applies made during set-up, and
// every connection's timed request list. It is a pure function of
// (workload, seed, seconds), so two runs with the same arguments replay the
// same work, and the correctness reference can replay it again afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "puppies/common/rng.h"
#include "puppies/image/geometry.h"
#include "puppies/jpeg/coeffs.h"
#include "puppies/psp/psp.h"
#include "puppies/transform/transform.h"

namespace servebench {

using puppies::Rect;

enum class Workload { kCoefPhoto, kPixelPhoto, kFeedSmall };

const std::vector<Workload>& all_workloads();
std::string_view workload_name(Workload w);
/// Throws std::invalid_argument for an unknown name.
Workload parse_workload(std::string_view name);

enum class Op : std::uint8_t { kUpload = 0, kApply = 1, kDownload = 2 };
std::string_view op_name(Op op);

/// One upload's content recipe: a base scene of the given size, protected
/// with a key of its own over `roi`, so every upload carries distinct bytes
/// (identical bytes would dedup in the content-addressed store and share
/// transform-cache entries).
struct ImageSpec {
  int width = 0;
  int height = 0;
  puppies::jpeg::ChromaMode chroma = puppies::jpeg::ChromaMode::k444;
  int scene = 0;  ///< base-scene index (synth::generate seed)
  Rect roi;
  std::string key_label;
  /// Connection that owns the image (uploads it and is the only one that
  /// applies to it), or -1 for a shared set-up image.
  int owner = -1;
  double megapixels() const { return width * static_cast<double>(height) / 1e6; }
};

struct Request {
  Op op = Op::kDownload;
  int image = 0;  ///< index into Plan::images
  // Apply only.
  puppies::transform::Chain chain;
  puppies::psp::DeliveryMode mode = puppies::psp::DeliveryMode::kCoefficients;
  int quality = 85;
  bool expect_hit = false;  ///< planned transform-cache hit (feed-small)
  // Download only: the receiver-side exact-recovery check (coef-photo).
  bool verify_recovery = false;
  /// Open loop: when the request is due, in microseconds after the timed
  /// phase starts. Closed loop: 0 (sent as soon as the previous one ends).
  std::int64_t due_us = 0;
};

inline Request make_request(Op op, int image) {
  Request r;
  r.op = op;
  r.image = image;
  return r;
}

struct ConnectionPlan {
  /// Images this connection uploads during set-up, in order.
  std::vector<int> setup_uploads;
  /// Set-up derivative applies (image + chain + mode + quality).
  std::vector<Request> setup_applies;
  std::vector<Request> timed;
};

struct Plan {
  Workload workload = Workload::kCoefPhoto;
  std::uint64_t seed = 0;
  bool open_loop = false;
  double rate_per_s = 0;  ///< open loop: total arrival rate
  /// Closed loop: every connection waits for the others before each upload,
  /// so the uploads run side by side. The photo workloads set it: their
  /// connections upload the same sizes in the same order, so each upload
  /// runs beside the other connection's upload of the same size, instead of
  /// beside whatever that connection is doing at the time.
  bool align_uploads = false;
  /// Time windows the latency percentiles are taken over (median of the
  /// per-window values; see windowed_percentile). 1 for the photo
  /// workloads, whose size mix is balanced only over the whole run.
  int windows = 1;
  std::vector<ImageSpec> images;
  std::vector<ConnectionPlan> conns;

  std::size_t timed_requests() const;
  std::size_t count(Op op) const;
  /// Planned share of timed applies that hit the transform cache.
  double planned_hit_share() const;
};

/// The longest list a plan covers. The photo workloads replay one fixed
/// deck whatever `seconds` asks; feed-small's list is `seconds` long at its
/// rate, clamped to this. The wire has no delete op, so every upload stays
/// in the server's memory for the rest of the run.
inline constexpr double kMaxPlanSeconds = 20.0;

Plan make_plan(Workload w, std::uint64_t seed, double seconds);

/// A stable text rendering of the whole plan: equal plans print equally.
/// The determinism tests compare these.
std::string fingerprint(const Plan& plan);

/// Zipf sampler over ranks [0, n): P(rank) proportional to 1 / (rank+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  /// Maps a uniform draw u in [0, 1) to a rank.
  int rank(double u) const;
  int sample(puppies::Rng& rng) const { return rank(rng.uniform()); }
  double probability(int rank) const;

 private:
  std::vector<double> cdf_;
};

/// Fisher-Yates shuffle driven by the repo's deterministic Rng, so the
/// order is the same on every platform (std::shuffle is not).
template <typename T>
void shuffle(std::vector<T>& v, puppies::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

}  // namespace servebench
