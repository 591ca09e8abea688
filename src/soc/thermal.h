// Lumped thermal model with DVFS-style throttling (paper §6.1: ML models
// are computationally heavy and trigger run-time thermal throttling; the
// run rules therefore mandate room temperature and cooldown intervals).
//
// Single thermal mass: dT/dt = P/C - (T - T_ambient)/(R*C).  Above the
// throttle-start temperature the effective clock scales down linearly to
// `min_throttle_factor` at the hard-limit temperature.
#pragma once

#include <cstdint>

namespace mlpm::soc {

// How the DVFS governor translates die temperature into clock scaling.
//   kLinear  — idealized proportional controller (smooth factor).
//   kStepped — realistic discrete frequency ladder: the governor drops to
//              the next operating point when temperature crosses evenly
//              spaced trip points inside the throttle band.
enum class GovernorMode : std::uint8_t { kLinear, kStepped };

struct ThermalParams {
  double ambient_c = 22.0;          // run rules: 20-25 degC room temperature
  double capacitance_j_per_c = 8.0;  // thermal mass
  double resistance_c_per_w = 9.0;   // junction-to-ambient
  double throttle_start_c = 36.0;
  double throttle_limit_c = 50.0;
  double min_throttle_factor = 0.45;
  GovernorMode governor = GovernorMode::kLinear;
  int governor_steps = 4;  // frequency ladder size for kStepped
};

class ThermalModel {
 public:
  explicit ThermalModel(ThermalParams params);

  // Advance by `dt` seconds with `power_w` being dissipated.
  void Step(double power_w, double dt_s);

  // Idle cooling for `dt` seconds (cooldown interval between tests).
  void Cool(double dt_s) { Step(0.0, dt_s); }

  [[nodiscard]] double temperature_c() const { return temp_c_; }

  // Effective clock multiplier in (0, 1]; 1 below throttle_start.
  [[nodiscard]] double ThrottleFactor() const;

  // Pins the die temperature (thermal-emergency injection; the fault model
  // uses this to jump straight to the hard limit).
  void ForceTemperature(double temp_c) { temp_c_ = temp_c; }
  [[nodiscard]] double throttle_limit_c() const { return p_.throttle_limit_c; }

  void Reset();

 private:
  ThermalParams p_;
  double temp_c_;
  // exp(-dt/tau) of the last Step, for the dt it was taken at: a single
  // stream steps by one latency over and over.  dt < 0: none yet.
  double decay_dt_s_ = -1.0;
  double decay_ = 0.0;
};

}  // namespace mlpm::soc
