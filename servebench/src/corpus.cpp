#include "corpus.h"

#include "puppies/core/pipeline.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

namespace servebench {

using namespace puppies;

namespace {
constexpr int kSenderQuality = 85;
}

Corpus::BaseKey Corpus::key_of(const ImageSpec& s) {
  return {s.width, s.height, static_cast<int>(s.chroma), s.scene};
}

Corpus::Corpus(const Plan& plan) {
  for (const ImageSpec& s : plan.images) {
    const BaseKey k = key_of(s);
    if (bases_.count(k)) continue;
    const synth::SceneImage scene =
        synth::generate(synth::Dataset::kPascal, s.scene, s.width, s.height);
    bases_.emplace(k, jpeg::forward_transform_chunked(scene.image,
                                                      kSenderQuality, s.chroma));
  }
  uploads_.resize(plan.images.size());
  // Independent images: protect + serialize each on the exec pool.
  exec::parallel_for(plan.images.size(), [&](std::size_t i) {
    const ImageSpec& s = plan.images[i];
    const core::ProtectResult shared = core::protect(
        original(s), {core::RoiPolicy{s.roi, SecretKey::from_label(s.key_label),
                                      core::Scheme::kCompression,
                                      core::PrivacyLevel::kMedium}});
    uploads_[i].jfif = jpeg::serialize(shared.perturbed);
    uploads_[i].params = shared.params.serialize();
  });
}

const jpeg::CoefficientImage& Corpus::original(const ImageSpec& spec) const {
  return bases_.at(key_of(spec));
}

core::KeyRing Corpus::ring(const ImageSpec& spec) const {
  core::KeyRing ring;
  ring.add(SecretKey::from_label(spec.key_label));
  return ring;
}

}  // namespace servebench
