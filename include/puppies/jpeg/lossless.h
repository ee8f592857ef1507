#pragma once

#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg {

/// The one lossless coefficient-domain transform (jpegtran-style), on which
/// PUPPIES' bit-exact recovery rests: D4 element `e` applied to the pixel
/// `window` of `img`, in one pass that permutes and sign-flips quantized
/// coefficients with no re-rounding. The quant tables follow the
/// coefficients. Requires 4:4:4 and an 8-aligned window inside the image
/// (the jpegtran "perfect transform" condition); otherwise InvalidArgument.
CoefficientImage remap(const CoefficientImage& img, const Rect& window,
                       const Dihedral& e);

}  // namespace puppies::jpeg
