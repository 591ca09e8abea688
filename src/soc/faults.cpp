#include "soc/faults.h"

#include <cstdio>
#include <utility>

#include "common/check.h"

namespace mlpm::soc {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  for (const FaultSpec& s : plan_.specs)
    Expects(s.probability >= 0.0 && s.probability <= 1.0,
            "fault probability must be in [0, 1]");
}

const FaultSpec* FaultInjector::NextAttempt() {
  ++attempts_;
  const FaultSpec* fired = nullptr;
  // Always draw once per spec: the schedule must not depend on whether an
  // earlier spec fired, or same-seed runs with different plans would skew.
  for (const FaultSpec& spec : plan_.specs) {
    const double u = rng_.NextDouble();
    if (fired == nullptr && u < spec.probability) fired = &spec;
  }
  return fired;
}

void FaultInjector::RecordFault(const FaultSpec& spec, double time_s,
                                double penalty_s) {
  events_.push_back(FaultEvent{spec.kind, attempts_, time_s, penalty_s});
}

std::string FaultInjector::EventLogText() const {
  std::string out;
  char line[128];
  for (const FaultEvent& e : events_) {
    std::snprintf(line, sizeof line, "fault %s attempt=%llu t=%.9f dt=%.9f\n",
                  std::string(ToString(e.kind)).c_str(),
                  static_cast<unsigned long long>(e.attempt_index), e.time_s,
                  e.penalty_s);
    out += line;
  }
  return out;
}

}  // namespace mlpm::soc
