// Runtime dispatch for the puppies::kernels tier table. Resolution order
// for the active tier: configure() (CLI --simd) > PUPPIES_SIMD env var >
// CPUID probe. The selected tier is published as the metrics gauge
// "kernels.simd_tier" so `store stats --json` and the bench records show
// what the process actually dispatched to.
#include "puppies/kernels/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <numbers>
#include <string>

#include "kernels_internal.h"
#include "puppies/common/error.h"
#include "puppies/metrics/metrics.h"

namespace puppies::kernels {

namespace {

struct CosTables {
  float c[64];   // c[u * 8 + x] = 0.5 * C(u) * cos((2x+1) u pi / 16)
  float ct[64];  // transpose: ct[x * 8 + u]
  CosTables() {
    for (int u = 0; u < 8; ++u) {
      const double cu = u == 0 ? 1.0 / std::numbers::sqrt2 : 1.0;
      for (int x = 0; x < 8; ++x) {
        const float v = static_cast<float>(
            0.5 * cu * std::cos((2 * x + 1) * u * std::numbers::pi / 16.0));
        c[u * 8 + x] = v;
        ct[x * 8 + u] = v;
      }
    }
  }
};

const CosTables& cosines() {
  static const CosTables tables;
  return tables;
}

bool cpu_supported(SimdTier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2");
  }
  return false;
#else
  return tier == SimdTier::kScalar;
#endif
}

bool compiled_in(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
#if defined(PUPPIES_KERNELS_HAVE_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

void publish_tier(SimdTier tier) {
  metrics::Registry::instance()
      .gauge("kernels.simd_tier")
      .set(static_cast<int>(tier));
}

std::mutex g_mu;
std::atomic<const KernelTable*> g_active{nullptr};
SimdTier g_active_tier = SimdTier::kScalar;

SimdTier resolve_initial_tier() {
  if (const char* env = std::getenv("PUPPIES_SIMD"); env && *env) {
    const SimdTier t = parse_tier(env);
    require(tier_supported(t),
            "PUPPIES_SIMD requests a tier this machine cannot run");
    return t;
  }
  return detected_tier();
}

void activate_locked(SimdTier tier) {
  g_active_tier = tier;
  g_active.store(&table_for(tier), std::memory_order_release);
  publish_tier(tier);
}

const KernelTable* ensure_active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t) return t;
  std::lock_guard lock(g_mu);
  if (!g_active.load(std::memory_order_relaxed))
    activate_locked(resolve_initial_tier());
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace

std::string_view to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdTier parse_tier(std::string_view name) {
  if (name == "scalar") return SimdTier::kScalar;
  if (name == "avx2") return SimdTier::kAvx2;
  throw InvalidArgument("unknown SIMD tier '" + std::string(name) +
                        "', expected scalar|avx2");
}

SimdTier detected_tier() {
  static const SimdTier best =
      tier_supported(SimdTier::kAvx2) ? SimdTier::kAvx2 : SimdTier::kScalar;
  return best;
}

bool tier_supported(SimdTier tier) {
  return compiled_in(tier) && cpu_supported(tier);
}

std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> out;
  for (const SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2})
    if (tier_supported(t)) out.push_back(t);
  return out;
}

const KernelTable& table_for(SimdTier tier) {
  if (!tier_supported(tier))
    throw InvalidArgument("SIMD tier " + std::string(to_string(tier)) +
                          " is not supported on this machine");
#if defined(PUPPIES_KERNELS_HAVE_AVX2)
  if (tier == SimdTier::kAvx2) return detail::table_avx2();
#endif
  return detail::table_scalar();
}

void configure(SimdTier tier) {
  const KernelTable& table = table_for(tier);  // validates support
  std::lock_guard lock(g_mu);
  g_active_tier = tier;
  g_active.store(&table, std::memory_order_release);
  publish_tier(tier);
}

SimdTier active_tier() {
  ensure_active();
  std::lock_guard lock(g_mu);
  return g_active_tier;
}

const KernelTable& active() { return *ensure_active(); }

const float* cos_table() { return cosines().c; }
const float* cos_table_t() { return cosines().ct; }

}  // namespace puppies::kernels
