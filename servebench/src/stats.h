// Small numeric and parsing helpers for the serving benchmark: percentiles,
// the per-op reconciliation arithmetic, a 64-bit content hash for byte
// identity checks, and a reader for the server's kStats metrics JSON.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// Linearly interpolated percentile (q in [0, 100]) of `values`, the
/// definition numpy and Python's statistics module call "inclusive".
/// 0 for an empty input.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// A latency sample: when its clock started (ms into the timed phase) and
/// how long it took.
struct Sample {
  double start_ms = 0;
  double latency_ms = 0;
};

/// The median, over `windows` equal time windows of [0, span_ms), of each
/// window's q-th percentile; windows with fewer than kMinWindowSamples
/// samples are skipped. One window is the plain percentile of all samples.
/// A stationary open-loop mix uses several windows, so a burst of host
/// noise in one window moves the result by at most one rank.
inline constexpr std::size_t kMinWindowSamples = 20;
double windowed_percentile(const std::vector<Sample>& samples, double q,
                           int windows, double span_ms);

/// One op's time split, all in ms. `stages` are the layer calls the op
/// makes; the remainders are what those calls do not explain.
struct Reconciliation {
  double client = 0;  ///< as the client sees it, over the wire
  double psp = 0;     ///< the in-process PspService call
  std::vector<std::pair<std::string, double>> stages;

  double stage_sum() const;
  /// PSP time no stage accounts for: psp == stage_sum() + unattributed().
  double unattributed() const { return psp - stage_sum(); }
  /// Wire, framing, dispatch and queueing: client == psp + net_overhead().
  double net_overhead() const { return client - psp; }
};

/// Fast 64-bit content hash (not cryptographic): download bytes are compared
/// with the reference by (length, hash), so the client never buffers them.
std::uint64_t hash64(std::span<const std::uint8_t> data);

/// The server's metrics registry as the kStats op returns it: counters
/// and, per histogram, its sample count and sum.
struct ServerStats {
  std::map<std::string, double> counters;
  struct Hist {
    double count = 0;
    double sum_ms = 0;
  };
  std::map<std::string, Hist> histograms;

  double counter(const std::string& name) const;
  Hist histogram(const std::string& name) const;
  /// Counter and histogram growth from `before` to this snapshot.
  ServerStats since(const ServerStats& before) const;
};

/// Parses metrics::Registry::to_json output. Throws std::runtime_error on
/// malformed input.
ServerStats parse_server_stats(std::string_view json);

}  // namespace servebench
