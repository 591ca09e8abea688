#include "fleet/journal.h"

#include "harness/journal.h"

namespace mlpm::fleet {

std::uint64_t HashFleetConfig(const FleetOptions& options,
                              const std::vector<FleetMixEntry>& mix) {
  // The shared settings canonicaliser plus the fleet's own identity.
  // Workers and the journal/cancel plumbing are deliberately absent.
  using harness::schema::Put;
  std::string canon = harness::CanonicalSettings(
      options.settings, options.fault_plan, options.circuit_breaker);
  Put(canon, "version", ToString(options.version));
  Put(canon, "mix", FormatFleetMix(mix));
  Put(canon, "split_seed_per_shard", options.split_seed_per_shard);
  Put(canon, "accuracy", options.accuracy);
  Put(canon, "kernel_isa", ToString(options.kernel_isa));
  return harness::Fnv1a64(canon);
}

}  // namespace mlpm::fleet

namespace mlpm::harness::schema {

template <> Table<fleet::FleetJournalMeta> FieldsOf<fleet::FleetJournalMeta>() {
  using M = fleet::FleetJournalMeta;
  static constexpr FieldDesc<M> kFields[] = {
      Member<&M::version>("version", /*required=*/true),
      Member<&M::seed>("seed"),
      Member<&M::shard_count>("shard_count", /*required=*/true),
      Member<&M::config_hash>("config_hash"),
  };
  return kFields;
}

template <> Table<fleet::ShardResult> FieldsOf<fleet::ShardResult>() {
  // `resumed` is run-local (set on replay), so it is not journaled.
  using S = fleet::ShardResult;
  static constexpr FieldDesc<S> kFields[] = {
      Member<&S::shard_id>("shard_id"),
      Member<&S::chipset>("chipset"),
      Member<&S::task_id>("task_id"),
      Member<&S::numerics, DataType::kInt32>("numerics"),
      Member<&S::config_key>("config_key"),
      Member<&S::state, TaskStatus::kErrored>("state"),
      Member<&S::slo_met>("slo_met"),
      Member<&S::breaker_trips>("breaker_trips"),
      Member<&S::fault_count>("fault_count"),
      Member<&S::energy_j>("energy_j"),
      Member<&S::peak_temperature_c>("peak_temperature_c"),
      Member<&S::accuracy>("accuracy"),
      Member<&S::fp32_reference>("fp32_reference"),
      Member<&S::ratio_to_fp32>("ratio_to_fp32"),
      Member<&S::quality_passed>("quality_passed"),
      Member<&S::result>("result"),
  };
  return kFields;
}

}  // namespace mlpm::harness::schema
