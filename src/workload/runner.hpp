// Configuration and outcome of one closed-loop replay — the simulated
// equivalent of the paper's trace-replay tool (§5.1): each trace is replayed
// by a fixed number of threads with a fixed queue depth, all traces of a
// group running simultaneously; throughput and I/O amplification are
// measured over a fixed (virtual) duration. workload::ClosedLoop issues the
// requests; engine::ParallelEngine drives every loop (engine::run_one is a
// serial run of one loop).
#pragma once

#include <array>
#include <vector>

#include "adapt/adaptive.hpp"
#include "block/block_device.hpp"
#include "cache/cache_device.hpp"
#include "fault/fault_injector.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "raid/rebuild.hpp"
#include "tier/tier_cache.hpp"
#include "workload/generators.hpp"

namespace srcache::workload {

struct RunConfig {
  int threads_per_gen = 4;   // the paper replays each trace with 4 threads
  int iodepth = 1;           // outstanding requests per thread (FIO: 32)
  sim::SimTime duration = 10 * sim::kSec;
  u64 max_ops = 0;           // optional hard op budget (0 = unlimited)
  bool with_tags = false;    // carry content tags through the cache
  // Bytes of untimed workload to run first (cache warm-up); statistics and
  // the measurement window start after it completes.
  u64 warmup_bytes = 0;
  // Optional: a registry over the stack under test. The loop snapshots it
  // after warm-up and at the end; RunResult.metrics holds the delta, so the
  // measurement window excludes cache-fill traffic.
  const obs::MetricsRegistry* registry = nullptr;
  // Optional: fixed-interval time-series sampling of the measurement window
  // (0 = off). Derived per-interval series (throughput, hit ratio, per-
  // resource utilization, ...) land in RunResult.timeseries; resource series
  // need `registry` to be set as well.
  sim::SimTime timeseries_interval = 0;
  // Optional: a scripted fault injector (fault/fault_plan.hpp). The loop
  // anchors its triggers at the measurement-window start and advances it
  // before every measured request; RunResult.fault reports the ledger
  // counters and the healthy-vs-degraded split of the window.
  fault::FaultInjector* fault = nullptr;
  // Optional background rebuild engine (raid/rebuild.hpp). The loop pumps
  // it before every measured request (and once at the window end), so the
  // rate-limited reconstruction interleaves with foreground traffic at
  // request granularity; RunResult.rebuild reports the outcome.
  raid::RebuildManager* rebuild = nullptr;
  // Multi-tenant: number of tenants to report per-tenant outcomes for
  // (0 = single-tenant, RunResult.tenants stays empty). Requests carrying a
  // larger tenant id are folded into the last slot.
  u32 num_tenants = 0;
  // Optional adaptive partition controller. Every request (warm-up
  // included) is fed to observe(); epoch boundaries are anchored at the
  // measurement-window start, like fault triggers, and closed at request
  // boundaries inside the window.
  adapt::AdaptiveController* adapt = nullptr;
  // Optional write-provenance ledger of the cache under test. The loop
  // snapshots it after warm-up and reports the measurement-window delta in
  // RunResult.provenance, mirroring the ssd-stats window delta so the
  // balance invariant (ledger flash bytes == SSD write bytes) holds exactly.
  const obs::ProvenanceLedger* provenance = nullptr;
  // Optional op-span tracer. The loop opens a root span ("op.read"/
  // "op.write") around every measured request; components wired to the same
  // tracer attach children. RunResult.spans carries the aggregate outcome.
  obs::SpanTracer* spans = nullptr;
  // Optional compressed DRAM tier sitting above the cache under test
  // (src/tier). The loop snapshots its stats after warm-up and reports the
  // measurement-window delta in RunResult.tier. Note `cache` should already
  // be the tier itself when one is attached — this pointer only adds the
  // tier-specific accounting.
  tier::TierCache* tier = nullptr;
};

// Fault-scenario outcome of a run (RunConfig::fault). The window is split at
// the first fired event: before it the array is healthy, from it on the run
// is the paper's degraded window (§4.3) — failure-handling cost shows up as
// the throughput drop and the degraded-side latency tail.
struct FaultOutcome {
  bool active = false;      // a FaultInjector was attached
  u64 events_fired = 0;
  // FaultLedger counters at the end of the window; the ledger invariant
  // injected == detected + undetected must hold (see fault/ledger.hpp).
  u64 injected = 0;
  u64 detected = 0;
  u64 repaired = 0;
  // Of `repaired`: device-scope repairs completed by the background rebuild
  // engine (a distinct bucket; see FaultLedger::record_repaired_by_rebuild).
  u64 repaired_by_rebuild = 0;
  u64 undetected = 0;
  // Seconds into the measurement window of the first fired event; < 0 when
  // no event fired (plan empty or triggers past the window).
  double first_fault_s = -1.0;
  // Throughput over the healthy prefix / the degraded remainder. With no
  // fired event the whole window is healthy.
  double healthy_mbps = 0.0;
  double degraded_mbps = 0.0;
  // Bytes moved from the first fired event on (the numerator of
  // degraded_mbps; kept so per-shard outcomes merge exactly).
  u64 degraded_bytes = 0;
  // Request latency over the degraded part of the window only. The raw
  // recorder backs the summaries and lets the engine merge shard-domain
  // outcomes bucket-exactly.
  obs::LatencyRecorder degraded_latency;
  obs::LatencySummary degraded_read_lat;
  obs::LatencySummary degraded_write_lat;

  // Sums the exact aggregates and keeps the earliest first_fault_s; the
  // split itself is derived by RunResult::derive().
  void merge_add(const FaultOutcome& o);
};

// Compressed-DRAM-tier outcome of a run (inactive unless RunConfig::tier
// was set): the tier::TierStats delta over the measurement window plus
// end-of-window occupancy. Everything is exact integer arithmetic so
// per-shard outcomes merge bit-identically.
struct TierOutcome : tier::TierStats {
  bool active = false;
  // End-of-window occupancy and configuration (budgets sum across domains,
  // like the flash capacity they shadow).
  u64 resident_blocks = 0;
  u64 resident_compressed_bytes = 0;
  u64 dirty_blocks = 0;
  u64 budget_bytes = 0;

  void merge_add(const TierOutcome& o);
};

// Per-tenant slice of the measurement window (RunConfig::num_tenants > 0).
// Hit/miss blocks are classified loop-side from the cache's miss-counter
// delta around each submit, so any CacheDevice works.
struct TenantOutcome {
  u64 ops = 0;
  u64 bytes = 0;
  u64 hit_blocks = 0;
  u64 miss_blocks = 0;
  u64 target_blocks = 0;  // final enforced share (0 without a controller)
  [[nodiscard]] double hit_ratio() const {
    const u64 total = hit_blocks + miss_blocks;
    return total == 0 ? 0.0
                      : static_cast<double>(hit_blocks) /
                            static_cast<double>(total);
  }
  void merge_add(const TenantOutcome& o);
};

// One run's outcome. Fields fall in two groups: exact aggregates (counts,
// stats deltas, histograms, ledgers), which merge_add() sums across shard
// domains, and derived metrics (throughput, amplification, hit ratio,
// latency summaries, the fault healthy/degraded split), which derive()
// computes from the aggregates. derive() is the only place any derived
// metric is computed; ClosedLoop::finish and engine::merge_results both
// call it, so a serial run and a merged run share one definition.

struct RunResult {
  double seconds = 0.0;
  u64 ops = 0;
  u64 bytes = 0;
  double throughput_mbps = 0.0;

  cache::CacheStats cache;
  // Sum over the cache SSDs for the run window.
  blockdev::DeviceStats ssd;
  // (SSD reads + writes) / application blocks — the paper's I/O
  // amplification metric ("observed I/Os at the cache layer divided by the
  // actual I/Os requested").
  double io_amplification = 0.0;
  double hit_ratio = 0.0;

  // End-to-end request latency over the measurement window (ns): merged
  // per-direction summaries plus the four read/write x hit/miss classes
  // (indexed by obs::ReqClass) and their full histograms.
  obs::LatencySummary read_lat;
  obs::LatencySummary write_lat;
  std::array<obs::LatencySummary, obs::kNumReqClasses> class_lat;
  obs::LatencyRecorder latency;
  // Samples whose negative latency the recorder clamped to 0 (nonzero means
  // a timing bug in the simulated stack; also exported as the
  // "obs.latency.clamped" metrics counter).
  u64 latency_clamped = 0;

  // Delta of RunConfig::registry across the measurement window (empty when
  // no registry was supplied).
  obs::MetricsSnapshot metrics;

  // Fixed-interval samples of the measurement window (empty unless
  // RunConfig::timeseries_interval > 0).
  obs::TimeSeries timeseries;

  // Fault-scenario outcome (inactive unless RunConfig::fault was set).
  FaultOutcome fault;

  // Background-rebuild outcome (inactive unless RunConfig::rebuild was
  // set).
  raid::RebuildOutcome rebuild;

  // Write-provenance ledger delta over the measurement window (empty unless
  // RunConfig::provenance was set).
  obs::ProvenanceLedger provenance;

  // Op-span tracing outcome (inactive unless RunConfig::spans was set).
  obs::SpanOutcome spans;

  // Compressed-DRAM-tier outcome (inactive unless RunConfig::tier was set).
  TierOutcome tier;

  // Epoch SLO watchdog outcome (inactive unless a watchdog observed this
  // run; the engine harness assigns it on the merged result).
  obs::SloOutcome slo;

  // Per-tenant outcomes (empty unless RunConfig::num_tenants > 0) and the
  // adaptive controller's epoch/rebalance counts over the window.
  std::vector<TenantOutcome> tenants;
  u32 adapt_epochs = 0;
  u32 adapt_rebalances = 0;

  // Trace-file provenance, filled by benches replaying parsed traces so the
  // malformed-line count surfaces in REPRO_JSON instead of being swallowed.
  struct TraceInfo {
    bool present = false;
    u64 malformed_lines = 0;
  };
  TraceInfo trace_info;

  // Deterministic shape of a sharded engine run (engine::ParallelEngine
  // fills it on merged results). Only shard-count-invariant facts live here
  // — the domain partition and per-domain slices are a property of the
  // experiment, not of how it was executed. Shard/thread counts and wall-
  // clock timings go to the report-level "perf" section instead, which is
  // explicitly outside the bit-identical-REPRO_JSON contract.
  struct EngineInfo {
    bool active = false;
    u32 domains = 0;
    u32 epochs = 0;  // epoch barriers crossed
    struct DomainSlice {
      u64 ops = 0;
      u64 bytes = 0;
    };
    std::vector<DomainSlice> per_domain;
  };
  EngineInfo engine;

  // Adds another domain's exact aggregates (every field above except the
  // derived metrics, timeseries, slo and engine, which describe the merged
  // run as a whole). Domains share one window length, so seconds is the
  // larger of the two, not a sum.
  void merge_add(const RunResult& o);
  // Recomputes every derived metric from the exact aggregates.
  void derive();
};

}  // namespace srcache::workload
