// Calibration legality (paper §5.1): submitters may only use the approved
// calibration subset.  The submission checker runs this over every task's
// calibration indices.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mlpm::quant {

struct LegalityReport {
  bool legal = true;
  std::vector<std::string> violations;

  void Violate(std::string what) {
    legal = false;
    violations.push_back(std::move(what));
  }
};

// Calibration legality: every index used must come from the approved set
// (paper: "submitters can only use the approved calibration data set",
// typically 500 samples).
[[nodiscard]] LegalityReport CheckCalibrationSet(
    std::span<const std::size_t> approved,
    std::span<const std::size_t> used);

}  // namespace mlpm::quant
