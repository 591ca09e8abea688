// `conv_block_f32` spelled as its definition (registry.h): each block of
// four channels starts at the bias and takes one `Dot4` call per present
// tap, in tap order.  The portable and NEON tables instantiate it with
// their own dot4, so their entry returns their dot4 bits by construction.
#pragma once

#include <algorithm>
#include <cstdint>

#include "infer/kernels/registry.h"

namespace mlpm::infer::kernels {

template <decltype(KernelTable::dot4_f32) Dot4>
void ConvBlockPerTap(const float* const* x0, const float* const* x1,
                     const std::int64_t* woff, std::int64_t ntaps,
                     const float* w, std::int64_t wstride, std::int64_t len,
                     std::int64_t oc4, const float* bias, float* out0,
                     float* out1) {
  for (std::int64_t oc = 0; oc < oc4; oc += 4) {
    const float* wb = w + oc * wstride;
    for (int p = 0; p < 2; ++p) {
      const float* const* x = p == 0 ? x0 : x1;
      if (x == nullptr) continue;
      float acc[4] = {bias[oc], bias[oc + 1], bias[oc + 2], bias[oc + 3]};
      for (std::int64_t t = 0; t < ntaps; ++t) {
        if (x[t] == nullptr) continue;
        const float* w0 = wb + woff[t];
        Dot4(x[t], w0, w0 + wstride, w0 + 2 * wstride, w0 + 3 * wstride, len,
             acc);
      }
      std::copy_n(acc, 4, (p == 0 ? out0 : out1) + oc);
    }
  }
}

}  // namespace mlpm::infer::kernels
