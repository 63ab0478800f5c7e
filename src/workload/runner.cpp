#include "workload/runner.hpp"

#include <algorithm>

namespace srcache::workload {

void FaultOutcome::merge_add(const FaultOutcome& o) {
  active = active || o.active;
  events_fired += o.events_fired;
  injected += o.injected;
  detected += o.detected;
  repaired += o.repaired;
  repaired_by_rebuild += o.repaired_by_rebuild;
  undetected += o.undetected;
  if (o.first_fault_s >= 0.0 &&
      (first_fault_s < 0.0 || o.first_fault_s < first_fault_s))
    first_fault_s = o.first_fault_s;
  degraded_bytes += o.degraded_bytes;
  degraded_latency.merge_from(o.degraded_latency);
}

void TierOutcome::merge_add(const TierOutcome& o) {
  // `active` pads to a word, so five words follow the base.
  static_assert(sizeof(TierOutcome) == sizeof(TierStats) + 5 * sizeof(u64),
                "a new TierOutcome field must join merge_add");
  active = active || o.active;
  TierStats::operator+=(o);
  resident_blocks += o.resident_blocks;
  resident_compressed_bytes += o.resident_compressed_bytes;
  dirty_blocks += o.dirty_blocks;
  budget_bytes += o.budget_bytes;
}

void TenantOutcome::merge_add(const TenantOutcome& o) {
  static_assert(sizeof(TenantOutcome) == 5 * sizeof(u64),
                "a new TenantOutcome field must join merge_add");
  ops += o.ops;
  bytes += o.bytes;
  hit_blocks += o.hit_blocks;
  miss_blocks += o.miss_blocks;
  target_blocks += o.target_blocks;
}

void RunResult::merge_add(const RunResult& o) {
  seconds = std::max(seconds, o.seconds);
  ops += o.ops;
  bytes += o.bytes;
  cache += o.cache;
  ssd += o.ssd;
  latency.merge_from(o.latency);
  metrics.merge_add(o.metrics);
  fault.merge_add(o.fault);
  rebuild.merge_add(o.rebuild);
  provenance.merge_add(o.provenance);
  spans.merge_add(o.spans);
  tier.merge_add(o.tier);
  if (o.tenants.size() > tenants.size()) tenants.resize(o.tenants.size());
  for (size_t t = 0; t < o.tenants.size(); ++t)
    tenants[t].merge_add(o.tenants[t]);
  // Epoch counts coincide across domains (same window, same epoch length);
  // max keeps the invariant when a domain ran out of ops early.
  adapt_epochs = std::max(adapt_epochs, o.adapt_epochs);
  adapt_rebalances += o.adapt_rebalances;
  trace_info.present = trace_info.present || o.trace_info.present;
  trace_info.malformed_lines += o.trace_info.malformed_lines;
}

void RunResult::derive() {
  throughput_mbps =
      seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
  const u64 app_blocks = cache.app_blocks();
  io_amplification = app_blocks == 0
                         ? 0.0
                         : static_cast<double>(ssd.total_blocks()) /
                               static_cast<double>(app_blocks);
  hit_ratio = cache.hit_ratio();

  read_lat = obs::LatencySummary::of(latency.reads());
  write_lat = obs::LatencySummary::of(latency.writes());
  for (int c = 0; c < obs::kNumReqClasses; ++c) {
    class_lat[static_cast<size_t>(c)] = obs::LatencySummary::of(
        latency.histogram(static_cast<obs::ReqClass>(c)));
  }
  latency_clamped = latency.clamped();
  // Surface the clamp counter alongside the stack's own metrics so timing
  // bugs show up in REPRO_JSON instead of being swallowed.
  metrics.counters["obs.latency.clamped"] = latency_clamped;

  if (!fault.active) return;
  // The window splits at the first fired event. A merged result uses the
  // earliest fault across domains: when the same plan reaches every domain
  // at the same window-relative time (the engine's normal mode) all domains
  // agree and the split is exact; with heterogeneous plans it is the
  // conservative split. With no fired event the whole window is healthy.
  if (fault.first_fault_s < 0.0) {
    fault.healthy_mbps = throughput_mbps;
    return;
  }
  const double healthy_s = fault.first_fault_s;
  const double degraded_s = seconds - healthy_s;
  const u64 healthy_bytes = bytes - fault.degraded_bytes;
  fault.healthy_mbps =
      healthy_s > 0.0 ? static_cast<double>(healthy_bytes) / 1e6 / healthy_s
                      : 0.0;
  fault.degraded_mbps =
      degraded_s > 0.0
          ? static_cast<double>(fault.degraded_bytes) / 1e6 / degraded_s
          : 0.0;
  fault.degraded_read_lat =
      obs::LatencySummary::of(fault.degraded_latency.reads());
  fault.degraded_write_lat =
      obs::LatencySummary::of(fault.degraded_latency.writes());
}

}  // namespace srcache::workload
