#pragma once

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "puppies/common/digest.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/codec.h"
#include "puppies/transform/transform.h"

namespace puppies::store {

/// One transform result as the PSP serves it: exactly one of `jfif` /
/// `pixels` is populated, depending on the delivery mode.
struct TransformResult {
  Bytes jfif;
  YccImage pixels;

  /// Bytes this result charges against the cache budget.
  std::size_t cost_bytes() const;
};

/// Cache key for a transform result: a digest over (source blob digest,
/// canonicalized chain, delivery mode, reencode quality, encode mode). The
/// chain is canonicalized (transform::canonicalize) so e.g.
/// rotate(90)+rotate(90) and rotate(180) share an entry; `quality_relevant` masks
/// the quality out of the key for delivery modes that never re-encode.
/// `encode_mode` is the Huffman mode the serving path re-encodes with —
/// results serialized with different table modes are different bytes, so
/// they must not share an entry. The default matches PspConfig's default,
/// keeping keys identical to pre-encode-mode builds' behavior for default
/// configurations. `restart_interval` is the serving-side restart cadence
/// (PspConfig::restart_interval): DRI + RSTn markers change the served
/// bytes, so two intervals never share an entry; the default 0 keys
/// restart-free encodes exactly as pre-delta builds did. Both knobs live
/// only in this key; the chain wire format (transform::write_chain) is
/// unchanged, so previously serialized chains still parse.
Digest transform_cache_key(
    const Digest& source, const transform::Chain& chain,
    std::uint8_t delivery_mode, int reencode_quality, bool quality_relevant,
    std::uint8_t encode_mode =
        static_cast<std::uint8_t>(jpeg::HuffmanMode::kOptimized),
    int restart_interval = 0);

/// LRU transform-result cache with a byte budget and single-flight
/// computation: concurrent get_or_compute() calls for the same key (e.g.
/// PspService::apply_transform_all workers on the exec pool) run `compute`
/// once; everyone else blocks until the result lands. Results are immutable
/// and shared, so an entry may be evicted while downloads still hold it.
///
/// Metrics: cache.hit / cache.miss / cache.eviction / cache.wait counters,
/// cache.compute_ms histogram.
class TransformCache {
 public:
  using ResultPtr = std::shared_ptr<const TransformResult>;

  /// budget_bytes == 0 disables caching: get_or_compute always computes.
  explicit TransformCache(std::size_t budget_bytes);

  ResultPtr get_or_compute(const Digest& key,
                           const std::function<TransformResult()>& compute);

  bool enabled() const { return budget_ > 0; }
  std::size_t budget_bytes() const { return budget_; }
  std::size_t size_bytes() const;
  std::size_t count() const;
  void clear();

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ResultPtr result;
    std::exception_ptr error;
  };
  struct Slot {
    ResultPtr result;
    std::list<Digest>::iterator lru_it;
  };

  void evict_over_budget_locked();

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::list<Digest> lru_;  // front = most recently used
  std::unordered_map<Digest, Slot, DigestHash> map_;
  std::unordered_map<Digest, std::shared_ptr<Flight>, DigestHash> flights_;
  std::size_t bytes_ = 0;
};

}  // namespace puppies::store
