#include "soc/thermal.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mlpm::soc {

ThermalModel::ThermalModel(ThermalParams params)
    : p_(params), temp_c_(params.ambient_c) {
  Expects(p_.capacitance_j_per_c > 0 && p_.resistance_c_per_w > 0,
          "thermal parameters must be positive");
  Expects(p_.throttle_limit_c > p_.throttle_start_c,
          "throttle limit must exceed throttle start");
  Expects(p_.min_throttle_factor > 0 && p_.min_throttle_factor <= 1,
          "throttle factor must be in (0,1]");
}

void ThermalModel::Step(double power_w, double dt_s) {
  Expects(dt_s >= 0 && power_w >= 0, "negative time or power");
  // Exact solution of the first-order RC response over dt.
  if (dt_s != decay_dt_s_) {
    const double tau = p_.resistance_c_per_w * p_.capacitance_j_per_c;
    decay_dt_s_ = dt_s;
    decay_ = std::exp(-dt_s / tau);
  }
  const double steady = p_.ambient_c + power_w * p_.resistance_c_per_w;
  temp_c_ = steady + (temp_c_ - steady) * decay_;
}

double ThermalModel::ThrottleFactor() const {
  if (temp_c_ <= p_.throttle_start_c) return 1.0;
  const double span = p_.throttle_limit_c - p_.throttle_start_c;
  double frac = std::min((temp_c_ - p_.throttle_start_c) / span, 1.0);
  if (p_.governor == GovernorMode::kStepped) {
    // Quantize to the frequency ladder: crossing each trip point drops one
    // discrete step (ceil, so any excursion past a trip point bites).
    const double steps = static_cast<double>(p_.governor_steps);
    frac = std::ceil(frac * steps) / steps;
  }
  return 1.0 - frac * (1.0 - p_.min_throttle_factor);
}

void ThermalModel::Reset() { temp_c_ = p_.ambient_c; }

}  // namespace mlpm::soc
