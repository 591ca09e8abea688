// Rolling-submission result store (paper App. E: "rolling submissions"
// would allow vendors to submit continuously, with up-to-date
// latest-per-device reporting).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/run_session.h"

namespace mlpm::harness {

struct DatedSubmission {
  std::string date_iso;  // "2021-04-28"
  SubmissionResult result;
};

class ResultStore {
 public:
  // Rejects submissions whose checker report is invalid if one is given.
  void Add(std::string date_iso, SubmissionResult result);

  [[nodiscard]] std::size_t size() const { return submissions_.size(); }

  // Latest submission per (chipset, version) by date — the rolling view.
  [[nodiscard]] std::vector<DatedSubmission> LatestPerDevice() const;

  // All submissions for one chipset, oldest first (generational history).
  [[nodiscard]] std::vector<DatedSubmission> HistoryFor(
      const std::string& chipset_name) const;

 private:
  std::vector<DatedSubmission> submissions_;
};

}  // namespace mlpm::harness
