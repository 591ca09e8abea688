// Machine-readable result export (paper App. B: technical analysts and
// performance-crowdsourcing platforms consume benchmark results for
// apples-to-apples comparisons; roadmaps like IRDS consume rolling data).
#pragma once

#include <string>

#include "harness/run_session.h"

namespace mlpm::harness {

// One CSV row per (submission, task).  The header and every cell come from
// one column table in export.cpp (chipset, version, task, model, numerics,
// ..., tile_slab_bytes); export_roundtrip_test pins the column order.
[[nodiscard]] std::string ToCsv(const SubmissionResult& result,
                                bool include_header = true);

}  // namespace mlpm::harness
