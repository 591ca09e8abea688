#include "quant/rules.h"

#include <algorithm>
#include <unordered_set>

namespace mlpm::quant {

LegalityReport CheckCalibrationSet(std::span<const std::size_t> approved,
                                   std::span<const std::size_t> used) {
  LegalityReport r;
  const std::unordered_set<std::size_t> ok(approved.begin(), approved.end());
  for (std::size_t idx : used) {
    if (!ok.contains(idx))
      r.Violate("calibration sample " + std::to_string(idx) +
                " is not in the approved calibration set");
  }
  return r;
}

}  // namespace mlpm::quant
