// The headless "mobile app" (paper §4.3, App. A): one call runs the whole
// suite under the run rules — the programmatic equivalent of tapping "Go".
#pragma once

#include <string>
#include <vector>

#include "harness/run_session.h"
#include "obs/aggregate.h"

namespace mlpm::harness {

struct AppRunOutput {
  SubmissionResult result;
  std::string report_text;     // the results screen
  std::string checker_text;    // submission-checker verdict
  bool submission_valid = false;
};

// Runs accuracy + performance for every task on the given chipset and
// validates the outcome with the submission checker.
[[nodiscard]] AppRunOutput RunMobileApp(const soc::ChipsetDesc& chipset,
                                        models::SuiteVersion version,
                                        SuiteBundles& bundles,
                                        const RunOptions& options = {});

// Per-op aggregates of the recorded trace (DESIGN.md §11): executor nodes
// on the host and simulated IP steps.
struct OpProfile {
  std::vector<obs::OpAggregate> host;
  std::vector<obs::OpAggregate> sim;
};
[[nodiscard]] OpProfile CollectOpProfile();

// The profiling tables appended to the results screen: each non-empty
// OpProfile table, then the process metrics snapshot.  Empty unless
// `options` asked for profiling or a trace.
[[nodiscard]] std::string FormatProfileTables(const RunOptions& options);

}  // namespace mlpm::harness
