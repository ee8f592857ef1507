// In-process replays of a Plan after the timed phase.
//
// The reference replay runs every connection's sequence against a
// PspService of its own and reports what each download should have been,
// as (length, hash64) of the encoded DownloadReply. The traced replay does
// the same one request at a time and, after each PspService call, repeats
// the call's work through the public layer APIs the service is built from
// (jpeg, transform, store, common), with a span around each: the per-layer
// times and the unattributed remainder come from these spans. After every
// request the repeat must hold the same bytes the service serves, or the
// replay throws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.h"
#include "puppies/psp/psp.h"
#include "trace.h"
#include "workload.h"

namespace servebench {

/// What one download returned (client side) or should return (reference).
struct DownloadDigest {
  std::size_t length = 0;
  std::uint64_t hash = 0;
  bool operator==(const DownloadDigest&) const = default;
};

/// Per-request identity inside a traced replay: connection and position in
/// the timed list (set-up requests are not traced).
inline std::uint64_t request_id(int conn, std::size_t index) {
  return (static_cast<std::uint64_t>(conn) << 32) | index;
}

/// Replays set-up, then every connection's timed list, against a
/// PspService with the server's default config. Returns, per connection,
/// the expected digest of each timed download (in list order; other ops get
/// a default entry). Images are released once their last request has run,
/// so the replay holds no more than the server did. A non-null `trace`
/// replays one request at a time and records spans; otherwise connections
/// replay in parallel. Throws what a replayed call throws.
std::vector<std::vector<DownloadDigest>> replay(const Plan& plan,
                                                const Corpus& corpus,
                                                Trace* trace);

}  // namespace servebench
