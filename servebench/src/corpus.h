// Upload bytes for a Plan's images: each is a synthesized base scene,
// forward-transformed, protected over its ROI under a key of its own, and
// serialized the way the `puppies protect` sender does.
#pragma once

#include <map>
#include <tuple>
#include <vector>

#include "puppies/common/bytes.h"
#include "puppies/core/params.h"
#include "puppies/jpeg/coeffs.h"
#include "workload.h"

namespace servebench {

struct Upload {
  puppies::Bytes jfif;
  puppies::Bytes params;
};

class Corpus {
 public:
  /// Synthesizes every image of `plan` (the generator's own cost; not part
  /// of the measured set-up time).
  explicit Corpus(const Plan& plan);

  const Upload& upload(int image) const {
    return uploads_[static_cast<std::size_t>(image)];
  }
  /// The unperturbed coefficients an image was protected from.
  const puppies::jpeg::CoefficientImage& original(const ImageSpec& spec) const;
  /// The receiver key ring that recovers `spec`'s ROI.
  puppies::core::KeyRing ring(const ImageSpec& spec) const;

 private:
  using BaseKey = std::tuple<int, int, int, int>;  // w, h, chroma, scene
  static BaseKey key_of(const ImageSpec& s);
  std::map<BaseKey, puppies::jpeg::CoefficientImage> bases_;
  std::vector<Upload> uploads_;
};

}  // namespace servebench
