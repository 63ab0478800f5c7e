// AdaptiveController: the adapt subsystem's front door.
//
// One instance manages cache capacity as a per-tenant resource for a whole
// run: it owns one GhostCache per tenant (online MRC profiling), counts each
// tenant's accesses per epoch, and at every epoch boundary asks the
// PartitionController for a new capacity split, which it pushes into the
// cache under management through an apply callback — typically
// SrcCache::set_tenant_quotas. The controller never evicts anything itself:
// enforcement is the cache's job (admission gating plus GC steering), so a
// shrinking tenant drains by attrition instead of an eviction storm.
//
// The driver (workload::ClosedLoop) calls observe() for every request and
// epoch_due()/run_epoch() at request boundaries; epochs are measured in
// simulated time, anchored by set_epoch_start() at the measurement-window
// start (mirroring how FaultInjector is anchored).
#pragma once

#include <functional>
#include <vector>

#include "adapt/ghost_cache.hpp"
#include "adapt/partition.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace srcache::adapt {

struct AdaptConfig {
  u32 num_tenants = 2;
  // Managed capacity: normally SrcConfig::capacity_blocks() of the cache
  // under management.
  u64 capacity_blocks = 0;
  // Epoch length in simulated time; every boundary re-solves the split.
  sim::SimTime epoch = 1 * sim::kSec;
  // SHARDS sampling rate for the ghost caches.
  double sampling_rate = 0.1;
  // Hard per-tenant ghost memory budget (entries).
  u64 ghost_max_entries = 1 << 16;
  // MRC resolution: candidate sizes at capacity * k / mrc_points.
  u32 mrc_points = 32;
  double ghost_decay = 0.5;

  // Partitioner stabilizers (see partition.hpp).
  double min_share = 0.05;
  double hysteresis = 0.02;
  u64 quantum_blocks = 0;            // 0 = capacity/64
  std::vector<double> weights;       // per-tenant miss cost, empty = 1.0

  void validate() const;
};

class AdaptiveController {
 public:
  using ApplyFn = std::function<void(const std::vector<u64>&)>;

  // `apply` receives every adopted split (called once at construction with
  // the even split so the cache starts managed, then at epoch boundaries).
  AdaptiveController(const AdaptConfig& cfg, ApplyFn apply);

  // One application request: feeds the tenant's ghost cache and the epoch
  // access counters. Cheap for non-sampled lbas.
  void observe(u32 tenant, u64 lba, u32 nblocks);

  // Anchors epoch boundaries (e.g. at the measurement-window start). Resets
  // the epoch clock but keeps ghost state — warm-up traffic profiles too.
  void set_epoch_start(sim::SimTime t0);

  [[nodiscard]] bool epoch_due(sim::SimTime now) const;

  // Closes the epoch at `now`: solve, apply on change, decay ghosts.
  // Returns the (possibly unchanged) enforced split.
  const std::vector<u64>& run_epoch(sim::SimTime now);

  [[nodiscard]] const std::vector<u64>& targets() const { return targets_; }
  [[nodiscard]] u32 epochs_completed() const { return epochs_; }
  [[nodiscard]] u32 rebalances() const { return rebalances_; }
  [[nodiscard]] const GhostCache& ghost(u32 tenant) const {
    return ghosts_[tenant];
  }
  [[nodiscard]] u64 ghost_entries_total() const;
  [[nodiscard]] size_t ghost_memory_bytes() const;
  [[nodiscard]] const AdaptConfig& config() const { return cfg_; }

  // Registers "epochs"/"rebalances" counters, ghost-budget gauges and
  // per-tenant "tenant.<t>.target_blocks" gauges under `scope` (e.g.
  // "adapt"). The controller must outlive the registry's snapshots.
  void register_metrics(const obs::Scope& scope);

 private:
  AdaptConfig cfg_;
  ApplyFn apply_;
  PartitionController partitioner_;
  std::vector<GhostCache> ghosts_;
  std::vector<double> epoch_accesses_;  // per-tenant blocks this epoch

  std::vector<u64> targets_;
  sim::SimTime epoch_start_ = 0;
  u32 epochs_ = 0;
  u32 rebalances_ = 0;
};

}  // namespace srcache::adapt
