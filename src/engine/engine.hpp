// Sharded parallel simulation engine.
//
// The rest of srcache advances one virtual timeline; wall-clock speed is the
// binding constraint on every full-footprint experiment. This engine
// exploits the paper's own structure — an SSD-array cache is an array of
// *independent* extent groups over *independent* devices — by partitioning a
// run into N shard domains, each owning a complete simulation instance: its
// own virtual timeline, SrcCache + SimSsd + backend stack, generators, RNG
// streams, and obs registry. Domains never share mutable state, so a fixed
// pool of worker threads advances them concurrently, synchronizing at epoch
// barriers where per-shard clocks meet and cross-domain work (fault-plan
// events, adapt quota decisions, telemetry merges) runs on the coordinator
// thread against quiescent domains.
//
// Determinism contract (what makes this a simulation engine rather than a
// thread-pool hack): the merged result is bit-identical regardless of
// REPRO_SHARDS and REPRO_THREADS.
//  1. The domain partition is a property of the experiment (num_domains in
//     run()), never of the execution configuration. Shards are execution
//     lanes over that fixed partition; lane d runs domains {d, d+shards,
//     ...} but a domain's execution depends only on its own inputs, so
//     placement is free.
//  2. Epoch boundaries are window-relative virtual times, identical for
//     every domain and every execution configuration. Epoch hooks run on
//     the coordinator thread, after every domain reached the barrier and
//     before any resumes, and must themselves be deterministic functions of
//     the (index-ordered) domain states they observe.
//  3. Merging walks domains in index order; all aggregation is exact
//     (integer sums, histogram-bucket adds) or a fixed-order function of
//     exact aggregates.
// Wall-clock measurements (per-lane busy time, ops/sec) are inherently
// execution-dependent and are reported only through EngineResult's perf
// fields, which the bench harness emits into the REPRO_JSON "perf" section
// — explicitly excluded from the bit-identity contract.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "workload/closed_loop.hpp"
#include "workload/runner.hpp"

namespace srcache::engine {

struct EngineConfig {
  // Execution lanes over the domain partition (REPRO_SHARDS). Lanes beyond
  // the domain count idle; 1 runs the domains one after another on the
  // caller's thread.
  u32 shards = 1;
  // Worker threads (REPRO_THREADS); 0 = min(lanes, hardware_concurrency).
  // Fewer threads than lanes just multiplexes lanes onto the pool.
  u32 threads = 0;
  // Virtual time between epoch barriers; 0 = duration / 8.
  sim::SimTime epoch = 0;
};

// Everything one shard domain needs: a cache stack, the devices whose
// traffic counts as cache-layer I/O, generators, and a per-domain RunConfig
// (registry/fault/adapt wired to *this domain's* instances). `owned` keeps
// the whole rig alive for the engine's lifetime.
struct DomainSetup {
  cache::CacheDevice* cache = nullptr;
  std::vector<blockdev::BlockDevice*> ssds;
  std::vector<workload::Generator*> gens;
  workload::RunConfig cfg;
  std::shared_ptr<void> owned = nullptr;
};

// Builds domain `index` of `count`. May run on a worker thread; factories
// must not touch shared mutable state (build your rig from the arguments
// and values captured by copy).
using DomainFactory = std::function<DomainSetup(u32 index, u32 count)>;

// One shard domain under engine control. Epoch hooks receive these (index-
// ordered) to observe per-domain state and deliver cross-domain events
// against a quiescent simulation.
class ShardDomain {
 public:
  [[nodiscard]] u32 index() const { return index_; }
  [[nodiscard]] u32 lane() const { return lane_; }
  [[nodiscard]] u64 ops() const { return loop_->ops(); }
  [[nodiscard]] u64 bytes() const { return loop_->bytes(); }
  [[nodiscard]] bool finished() const { return loop_->finished(); }
  [[nodiscard]] sim::SimTime window_start() const {
    return loop_->window_start();
  }
  // Next pending completion, relative to the domain's window start. At an
  // epoch-k barrier this is >= the barrier's rel_end for every unfinished
  // domain — the quiescence invariant hooks may rely on.
  [[nodiscard]] sim::SimTime rel_next_event() const {
    return loop_->next_event() - loop_->window_start();
  }
  [[nodiscard]] cache::CacheDevice* cache() const { return setup_.cache; }
  // Cumulative measured-window latency of this domain so far — the input an
  // epoch SLO watchdog deltas at barriers.
  [[nodiscard]] const obs::LatencyRecorder& latency() const {
    return loop_->latency();
  }
  // The domain's cache-layer devices — what a fault-plan hook fails, heals
  // or degrades at a barrier.
  [[nodiscard]] const std::vector<blockdev::BlockDevice*>& ssds() const {
    return setup_.ssds;
  }
  [[nodiscard]] const workload::RunConfig& config() const {
    return setup_.cfg;
  }

 private:
  friend class ParallelEngine;

  DomainSetup setup_;
  std::optional<workload::ClosedLoop> loop_;
  u32 index_ = 0;
  u32 lane_ = 0;
};

// Barrier context handed to epoch hooks.
struct EpochView {
  u32 epoch = 0;                // 0-based barrier index
  sim::SimTime rel_end = 0;     // window-relative virtual time of the barrier
  sim::SimTime epoch_length = 0;
  const std::vector<std::unique_ptr<ShardDomain>>* domains = nullptr;
};

// Runs on the coordinator thread at every barrier; must be a deterministic
// function of the view (see the contract above).
using EpochHook = std::function<void(const EpochView&)>;

// Wall-clock view of one execution lane (nondeterministic by nature).
struct ShardPerf {
  u32 lane = 0;
  u32 domains = 0;
  u64 ops = 0;
  u64 bytes = 0;
  double wall_seconds = 0.0;  // lane busy time across all phases
};

struct EngineResult {
  // Deterministic merged run (res.engine carries the partition shape).
  workload::RunResult merged;
  // Per-domain results in index order, for callers that want the slices.
  std::vector<workload::RunResult> per_domain;

  u32 domains = 0;
  u32 shards = 0;   // lanes actually used (min(cfg.shards, domains))
  u32 threads = 0;  // pool size actually used
  u32 epochs = 0;   // barriers crossed

  // Wall-clock performance (excluded from the determinism contract).
  // wall_seconds spans the whole run; setup_seconds its build + warm-up
  // prefix; sim_ops_per_sec is window ops over the rest (window open to
  // merge), so set-up cost never dilutes the throughput figure.
  double setup_seconds = 0.0;
  double wall_seconds = 0.0;
  double sim_ops_per_sec = 0.0;
  std::vector<ShardPerf> per_shard;
};

class ParallelEngine {
 public:
  explicit ParallelEngine(const EngineConfig& cfg);

  // Hooks run at every barrier in registration order.
  void add_epoch_hook(EpochHook hook);

  // Builds `num_domains` domains via `factory` (on the lanes, in parallel),
  // runs warm-up, then the epoch-barrier loop, then merges. Every domain
  // must use the same cfg.duration. Throws std::invalid_argument on
  // misconfiguration; exceptions from domain code are rethrown (lowest
  // domain index wins when several lanes fail).
  EngineResult run(u32 num_domains, const DomainFactory& factory);

 private:
  EngineConfig cfg_;
  std::vector<EpochHook> hooks_;
};

// A serial run: `setup` as the one domain of ParallelEngine(EngineConfig{})
// with no epoch hooks. One lane runs inline on the caller, so no thread is
// started. Returns the domain's own result, which carries no engine block:
// it serializes exactly like that domain's ClosedLoop driven straight
// through.
workload::RunResult run_one(DomainSetup setup);

// Deterministic merge of per-domain results (exposed for tests). `parts`
// must be index-ordered and share seconds/duration: a fold of
// RunResult::merge_add, then RunResult::derive() and the time-series merge.
workload::RunResult merge_results(
    const std::vector<workload::RunResult>& parts);

}  // namespace srcache::engine
