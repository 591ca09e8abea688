// Machine-readable result export (paper App. B: technical analysts and
// performance-crowdsourcing platforms consume benchmark results for
// apples-to-apples comparisons; roadmaps like IRDS consume rolling data).
#pragma once

#include <string>
#include <vector>

#include "harness/result_store.h"
#include "harness/run_session.h"

namespace mlpm::harness {

// One CSV row per (submission, task).  The header and every cell come from
// one column table in export.cpp (chipset, version, task, model, numerics,
// ..., tile_slab_bytes); export_roundtrip_test pins the column order.
[[nodiscard]] std::string ToCsv(const SubmissionResult& result,
                                bool include_header = true);

// Whole store, one header, rows ordered as stored; `date` column prepended.
[[nodiscard]] std::string ToCsv(const ResultStore& store);

// RFC 4180 parser for the exports above: records of fields, handling quoted
// fields with embedded commas, doubled quotes and line breaks (CRLF or LF).
// The exact inverse of the writer — ParseCsv(ToCsv(r)) round-trips every
// field byte-for-byte.  A trailing newline does not produce an empty record.
[[nodiscard]] std::vector<std::vector<std::string>> ParseCsv(
    const std::string& text);

}  // namespace mlpm::harness
