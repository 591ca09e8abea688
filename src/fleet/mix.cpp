#include "fleet/mix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "common/check.h"

namespace mlpm::fleet {
namespace {

// Task-id aliases accepted in mix specs.
[[nodiscard]] std::string CanonicalTaskId(const std::string& token) {
  if (token == "ic") return "image_classification";
  if (token == "od") return "object_detection";
  if (token == "is") return "image_segmentation";
  if (token == "qa") return "question_answering";
  return token;
}

[[nodiscard]] std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  std::size_t e = s.find_last_not_of(" \t");
  if (b == std::string::npos) return {};
  return s.substr(b, e - b + 1);
}

}  // namespace

std::vector<FleetMixEntry> ParseFleetMix(const std::string& spec) {
  std::vector<FleetMixEntry> mix;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', pos), spec.size());
    const std::string part = Trim(spec.substr(pos, end - pos));
    pos = end + 1;
    if (part.empty()) continue;

    const std::size_t c1 = part.find(':');
    Expects(c1 != std::string::npos, [&] {
      return "fleet mix entry needs '<chipset>:<task>[:<weight>]': " + part;
    });
    const std::size_t c2 = part.find(':', c1 + 1);

    FleetMixEntry e;
    e.chipset = Trim(part.substr(0, c1));
    e.task_id = CanonicalTaskId(
        Trim(part.substr(c1 + 1, (c2 == std::string::npos ? part.size() : c2) -
                                     c1 - 1)));
    Expects(!e.chipset.empty(),
            [&] { return "empty chipset in fleet mix entry: " + part; });
    Expects(!e.task_id.empty(),
            [&] { return "empty task in fleet mix entry: " + part; });
    if (c2 != std::string::npos) {
      const std::string w = Trim(part.substr(c2 + 1));
      char* rest = nullptr;
      e.weight = std::strtod(w.c_str(), &rest);
      Expects(rest != nullptr && *rest == '\0' && std::isfinite(e.weight) &&
                  e.weight > 0.0,
              [&] {
                return "fleet mix weight must be a positive number: " + part;
              });
    }
    mix.push_back(std::move(e));
  }
  Expects(!mix.empty(), "fleet mix spec has no entries");
  return mix;
}

std::vector<FleetMixEntry> DefaultFleetMix(models::SuiteVersion version) {
  const std::vector<soc::ChipsetDesc> catalog =
      version == models::SuiteVersion::kV0_7 ? soc::CatalogV07()
                                             : soc::CatalogV10();
  std::vector<FleetMixEntry> mix;
  for (const soc::ChipsetDesc& chipset : catalog)
    for (const models::BenchmarkEntry& e : models::SuiteFor(version))
      mix.push_back(FleetMixEntry{chipset.name, e.id, 1.0});
  return mix;
}

std::string FormatFleetMix(const std::vector<FleetMixEntry>& mix) {
  std::string out;
  for (const FleetMixEntry& e : mix) {
    if (!out.empty()) out += ';';
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", e.weight);
    out += e.chipset + ':' + e.task_id + ':' + buf;
  }
  return out;
}

std::vector<std::size_t> AssignShardCounts(
    const std::vector<FleetMixEntry>& mix, std::size_t shard_count) {
  Expects(!mix.empty(), "fleet mix is empty");
  Expects(shard_count > 0, "fleet needs at least one shard");
  double total = 0.0;
  for (const FleetMixEntry& e : mix) {
    Expects(std::isfinite(e.weight) && e.weight > 0.0,
            "fleet mix weight must be positive");
    total += e.weight;
  }

  // Largest remainder: floors first, then hand out the leftover shards in
  // decreasing fractional-part order (ties toward the earlier entry).
  std::vector<std::size_t> counts(mix.size(), 0);
  std::vector<double> frac(mix.size(), 0.0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double exact =
        static_cast<double>(shard_count) * mix[i].weight / total;
    counts[i] = static_cast<std::size_t>(exact);
    frac[i] = exact - static_cast<double>(counts[i]);
    assigned += counts[i];
  }
  std::vector<std::size_t> order(mix.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return frac[a] > frac[b];
  });
  for (std::size_t k = 0; assigned < shard_count; ++k)
    ++counts[order[k % order.size()]], ++assigned;
  return counts;
}

std::vector<ResolvedMixEntry> ResolveMix(
    const std::vector<FleetMixEntry>& mix, models::SuiteVersion version) {
  const std::vector<soc::ChipsetDesc> catalog =
      version == models::SuiteVersion::kV0_7 ? soc::CatalogV07()
                                             : soc::CatalogV10();
  const std::vector<models::BenchmarkEntry> suite = models::SuiteFor(version);

  std::vector<ResolvedMixEntry> out;
  out.reserve(mix.size());
  for (const FleetMixEntry& e : mix) {
    ResolvedMixEntry r;
    r.spec = e;
    const auto chip = std::find_if(
        catalog.begin(), catalog.end(),
        [&](const soc::ChipsetDesc& c) { return c.name == e.chipset; });
    Expects(chip != catalog.end(), [&] {
      return "chipset not in the " + std::string(ToString(version)) +
             " catalog: " + e.chipset;
    });
    const auto entry = std::find_if(
        suite.begin(), suite.end(),
        [&](const models::BenchmarkEntry& s) { return s.id == e.task_id; });
    Expects(entry != suite.end(), [&] {
      return "task not in the " + std::string(ToString(version)) + " suite: " +
             e.task_id;
    });
    r.chipset = *chip;
    r.entry = *entry;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace mlpm::fleet
