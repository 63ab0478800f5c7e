// Shared experiment rig for the bench binaries.
//
// Every bench reproduces one table or figure of the paper at a configurable
// scale: REPRO_SCALE (default 0.25) multiplies device capacities, erase
// groups, cache regions and workload footprints together, preserving every
// pressure ratio (cache/working-set, OPS fraction, segments per SG);
// REPRO_SECONDS (default 10) sets the measured virtual duration per point
// (the paper measures 10 wall-clock minutes; virtual seconds only change
// statistical noise, not the shape). Every REPRO_* knob, its range and its
// default are defined once, in knobs.hpp (reference: EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bcache_like.hpp"
#include "baselines/flashcache_like.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "engine/engine.hpp"
#include "cost/cost_model.hpp"
#include "fault/fault_injector.hpp"
#include "flash/sim_ssd.hpp"
#include "hdd/iscsi_target.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "raid/raid_device.hpp"
#include "raid/rebuild.hpp"
#include "src_cache/src_cache.hpp"
#include "tier/tier_cache.hpp"
#include "workload/report.hpp"
#include "workload/runner.hpp"
#include "workload/trace_synth.hpp"

#include "knobs.hpp"

namespace srcache::bench {

// Borrowed raw pointers over an owning SSD vector (shared by all rigs).
inline std::vector<blockdev::BlockDevice*> borrow_ssds(
    const std::vector<std::unique_ptr<flash::SimSsd>>& ssds) {
  std::vector<blockdev::BlockDevice*> v;
  v.reserve(ssds.size());
  for (const auto& s : ssds) v.push_back(s.get());
  return v;
}

// --- machine-readable output (REPRO_JSON) ----------------------------------

// Writes a Chrome trace-event JSON document to REPRO_TRACE.
inline void write_chrome_trace_json(const std::string& json) {
  const char* path = knob_path("REPRO_TRACE");
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr ||
      std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
    std::fprintf(stderr, "REPRO_TRACE: cannot write %s\n", path);
  }
  if (f != nullptr) std::fclose(f);
}

inline workload::ReproReport& json_report() {
  static workload::ReproReport report(scale(),
                                      sim::to_seconds(run_duration()));
  return report;
}

// Records one measured run into the REPRO_JSON document (no-op without the
// env var). The file is rewritten after every run so a crashed or
// interrupted bench still leaves valid JSON behind.
inline void report_run(const char* bench, const std::string& name,
                       const workload::RunResult& r) {
  const char* path = knob_path("REPRO_JSON");
  if (path == nullptr) return;
  json_report().add(bench, name, r);
  if (!json_report().write_file(path))
    std::fprintf(stderr, "REPRO_JSON: cannot write %s\n", path);
}

// Paper geometry scaled: erase group, chunk, 18-SG cache region.
struct Geometry {
  u64 erase_group_bytes;
  u64 chunk_bytes;
  u64 region_bytes_per_ssd;  // 18 erase groups
  u64 ssd_capacity_bytes;    // region + spare (the paper's dummy-filled rest)
  u64 group_footprint_bytes; // ~50 GB per trace group at scale 1

  static Geometry at(double k) {
    Geometry g;
    g.erase_group_bytes = static_cast<u64>(256.0 * k) * MiB;
    if (g.erase_group_bytes < 8 * MiB) g.erase_group_bytes = 8 * MiB;
    g.chunk_bytes = 512 * KiB;
    g.region_bytes_per_ssd = 18 * g.erase_group_bytes;
    g.ssd_capacity_bytes = g.region_bytes_per_ssd + 2 * g.erase_group_bytes;
    g.group_footprint_bytes = static_cast<u64>(50.0 * k * 1024.0) * MiB;
    return g;
  }
};

// Scales an SsdSpec's NAND geometry so the device exports exactly
// `capacity` with its erase group scaled by the same factor as everything
// else (flash block count and per-op timing stay realistic).
inline flash::SsdSpec sized_spec(flash::SsdSpec s, u64 capacity_bytes,
                                 double k = scale()) {
  s.capacity_bytes = capacity_bytes;
  const u64 target_eg = std::max<u64>(
      8 * MiB,
      static_cast<u64>(static_cast<double>(s.erase_group_bytes()) * k));
  u64 ppb = target_eg / (static_cast<u64>(s.units) * kBlockSize);
  // Power-of-two pages per block, at least 64 (256 KiB flash blocks).
  u64 rounded = 64;
  while (rounded * 2 <= ppb) rounded *= 2;
  s.pages_per_block = rounded;
  // Never let one erase group exceed a quarter of the device.
  while (static_cast<u64>(s.units) * s.pages_per_block * kBlockSize >
             capacity_bytes / 4 &&
         s.pages_per_block > 64) {
    s.pages_per_block /= 2;
  }
  return s;
}

struct SrcRig {
  Geometry geo;
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::unique_ptr<src::SrcCache> cache;
  // Registry over the whole stack ("src.*", "ssd.<i>.*", "hdd.*"); wired by
  // make_src_rig. Op-span tracer, allocated on demand by enable_spans().
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::SpanTracer> spans;

  [[nodiscard]] std::vector<blockdev::BlockDevice*> ssd_ptrs() const {
    return borrow_ssds(ssds);
  }
};

// Attaches an op-span tracer to every layer of the rig (idempotent): the
// cache contributes src.*/backend.* child spans and events, each SSD its
// ssd.*/nand.* descent tagged with its array index, the primary its hdd.*
// commands. The caller wires the tracer into RunConfig::spans so the closed
// loop opens the per-op roots.
inline obs::SpanTracer& enable_spans(SrcRig& rig, u64 seed, double rate) {
  if (!rig.spans) {
    rig.spans = std::make_unique<obs::SpanTracer>(seed, rate);
    rig.cache->set_span(rig.spans.get());
    rig.primary->set_span(rig.spans.get());
    for (size_t i = 0; i < rig.ssds.size(); ++i)
      rig.ssds[i]->set_span(rig.spans.get(), static_cast<u32>(i));
  }
  return *rig.spans;
}

inline std::unique_ptr<hdd::IscsiTarget> make_primary(double k) {
  hdd::IscsiConfig cfg;
  cfg.disk.capacity_bytes = static_cast<u64>(2000.0 * k * 1024.0) * MiB;
  cfg.disk.track_content = false;
  // The target server's page cache scales with the testbed (32 GB host).
  cfg.server_cache_bytes = static_cast<u64>(24.0 * k * 1024.0) * MiB;
  cfg.dirty_limit_bytes = static_cast<u64>(1.0 * k * 1024.0) * MiB;
  return std::make_unique<hdd::IscsiTarget>(cfg);
}

// Builds the full SRC stack: 4 preconditioned SSDs + iSCSI primary.
// `cfg_tweak`, when set, runs after the geometry-derived fields are filled
// in and before the cache is built — the hook a bench uses to sweep a
// geometry-coupled parameter (e.g. Fig. 4's erase-group size) without
// make_src_rig overwriting it.
inline std::unique_ptr<SrcRig> make_src_rig(
    const src::SrcConfig& overrides, const flash::SsdSpec& base_spec,
    double k = scale(), bool precondition = true,
    const std::function<void(src::SrcConfig&, const Geometry&)>& cfg_tweak =
        {}) {
  auto rig = std::make_unique<SrcRig>();
  rig->geo = Geometry::at(k);

  src::SrcConfig cfg = overrides;
  cfg.erase_group_bytes = rig->geo.erase_group_bytes;
  cfg.chunk_bytes = rig->geo.chunk_bytes;
  cfg.region_bytes_per_ssd = rig->geo.region_bytes_per_ssd;
  cfg.verify_checksums = false;  // perf runs use non-tracking devices
  cfg.twait = 10 * sim::kMs;     // see EXPERIMENTS.md (paper: 20 us)
  if (cfg_tweak) cfg_tweak(cfg, rig->geo);

  const flash::SsdSpec spec =
      sized_spec(base_spec, rig->geo.ssd_capacity_bytes);
  for (u32 i = 0; i < cfg.num_ssds; ++i) {
    rig->ssds.push_back(
        std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
    if (precondition) rig->ssds.back()->precondition();
    rig->ssds.back()->register_metrics(
        obs::Scope(rig->registry, "ssd." + std::to_string(i)));
  }
  rig->primary = make_primary(k);
  rig->primary->register_metrics(obs::Scope(rig->registry, "hdd"));
  rig->cache =
      std::make_unique<src::SrcCache>(cfg, rig->ssd_ptrs(), rig->primary.get());
  rig->cache->register_metrics(obs::Scope(rig->registry, "src"));
  rig->cache->format(0);
  return rig;
}

inline src::SrcConfig default_src_config() {
  src::SrcConfig cfg;  // paper defaults (Table 7 bold entries)
  // Benches pass this config into make_src_rig / run_group_sharded, so the
  // knob-selected policies propagate into every engine domain's stack.
  cfg.eviction = static_cast<policy::EvictionKind>(knob("REPRO_POLICY"));
  cfg.admission = static_cast<policy::AdmissionKind>(knob("REPRO_ADMIT"));
  return cfg;
}

// Bcache5 / Flashcache5: the baseline over a RAID-5 of the same four SSDs
// (§5.4 settings: 4 KiB RAID chunk, 2 MiB sets/buckets, 90% thresholds).
struct BaselineRig {
  Geometry geo;
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<raid::RaidDevice> raid5;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::unique_ptr<cache::CacheDevice> cache;
  // Op-span tracer (REPRO_SPAN_SAMPLE): the RAID layer contributes stripe-
  // strategy children, the SSDs their NAND descent.
  std::unique_ptr<obs::SpanTracer> spans;

  [[nodiscard]] std::vector<blockdev::BlockDevice*> ssd_ptrs() const {
    return borrow_ssds(ssds);
  }
};

inline std::unique_ptr<BaselineRig> make_baseline_devices(
    const flash::SsdSpec& base_spec, double k,
    raid::RaidLevel level = raid::RaidLevel::kRaid5, int num_ssds = 4) {
  auto rig = std::make_unique<BaselineRig>();
  rig->geo = Geometry::at(k);
  const flash::SsdSpec spec =
      sized_spec(base_spec, rig->geo.ssd_capacity_bytes);
  for (int i = 0; i < num_ssds; ++i) {
    rig->ssds.push_back(
        std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
    rig->ssds.back()->precondition();
  }
  raid::RaidConfig rc{level, 1};  // 4 KiB chunks (paper's optimal for 4K RW)
  std::vector<blockdev::BlockDevice*> members = rig->ssd_ptrs();
  rig->raid5 = std::make_unique<raid::RaidDevice>(rc, members);
  rig->primary = make_primary(k);
  return rig;
}

inline u64 baseline_cache_blocks(const BaselineRig& rig) {
  // Same cache region as SRC: 18 erase groups per SSD worth of data space.
  const u64 data_ssds =
      rig.raid5->config().level == raid::RaidLevel::kRaid1
          ? rig.ssds.size() / 2
          : (rig.raid5->config().level == raid::RaidLevel::kRaid0
                 ? rig.ssds.size()
                 : rig.ssds.size() - 1);
  return data_ssds * (rig.geo.region_bytes_per_ssd / kBlockSize);
}

inline std::unique_ptr<BaselineRig> make_bcache5_rig(
    const flash::SsdSpec& spec, double k,
    raid::RaidLevel level = raid::RaidLevel::kRaid5) {
  auto rig = make_baseline_devices(spec, k, level);
  baselines::BcacheConfig cfg;
  cfg.cache_blocks = baseline_cache_blocks(*rig);
  cfg.bucket_blocks = 512;        // 2 MiB buckets
  cfg.writeback_percent = 0.90;   // §5.4 setting
  rig->cache = std::make_unique<baselines::BcacheLike>(cfg, rig->raid5.get(),
                                                       rig->primary.get());
  return rig;
}

inline std::unique_ptr<BaselineRig> make_flashcache5_rig(
    const flash::SsdSpec& spec, double k,
    raid::RaidLevel level = raid::RaidLevel::kRaid5) {
  auto rig = make_baseline_devices(spec, k, level);
  baselines::FlashcacheConfig cfg;
  cfg.cache_blocks = baseline_cache_blocks(*rig);
  cfg.set_blocks = 512;           // 2 MiB sets
  cfg.dirty_thresh_pct = 0.90;    // §5.4 setting
  rig->cache = std::make_unique<baselines::FlashcacheLike>(
      cfg, rig->raid5.get(), rig->primary.get());
  return rig;
}

// --- sharded-engine replay (src/engine) ------------------------------------

// The fixed logical partition bench groups are split into. A property of
// the experiment, NOT of REPRO_SHARDS: every execution configuration runs
// these same domains, which is what makes the merged output bit-identical
// across shard counts. 8 matches the paper-scale geometry exactly (at the
// default REPRO_SCALE=0.25 each domain's erase group lands on the 8 MiB
// floor rather than below it).
inline constexpr u32 kEngineDomains = 8;

// One engine domain's rig: a full (1/kEngineDomains-scale) SRC stack plus
// the trace set whose generators the domain replays. Owned via
// DomainSetup::owned so it outlives the engine run.
struct EngineDomainRig {
  std::unique_ptr<SrcRig> rig;
  workload::TraceSet set;
  // Armed only under REPRO_FAULT_PLAN: the domain's scripted injector and
  // the rebuild engine its replace/spare actions drive.
  std::unique_ptr<fault::FaultInjector> fault;
  std::unique_ptr<raid::RebuildManager> rebuild;
  // Armed only with a tier budget (REPRO_TIER_MB or a bench override): the
  // compressed DRAM tier fronting this domain's SRC stack.
  std::unique_ptr<tier::TierCache> tier;
};

// Per-domain seed stream: expand the group seed so domains replay distinct
// (but fixed) trace sets regardless of build order or lane placement.
inline u64 domain_seed(u64 seed, u32 index) {
  common::SplitMix64 seq(seed);
  u64 dseed = 0;
  for (u32 i = 0; i <= index; ++i) dseed = seq.next();
  return dseed;
}

// Shared tail of every sharded bench run: engine configuration from the
// REPRO_SHARDS/REPRO_THREADS knobs, the epoch SLO watchdog when any
// REPRO_SLO_* target is armed, the [engine] stdout line, the REPRO_JSON
// "perf" record, and the merged-run report. The watchdog hook is a
// deterministic function of quiescent index-ordered domain state (exact op/
// byte sums, bucket-exact histogram merges), so arming it never perturbs the
// bit-identity contract of the run itself.
inline workload::RunResult run_engine_sharded(
    const char* bench, const std::string& name, u32 num_domains,
    const engine::DomainFactory& factory) {
  engine::EngineConfig ecfg;
  ecfg.shards = repro_shards();
  ecfg.threads = repro_threads();
  engine::ParallelEngine eng(ecfg);

  // Pump every domain's background rebuild at the barrier, so rate-limited
  // reconstruction advances through op-sparse stretches too. pump(now) is
  // monotone and idempotent, the barrier time is a fixed window-relative
  // virtual time, and domains are walked in index order — the hook is a
  // deterministic function of quiescent domain state, as the engine
  // contract requires. Registered first so an SLO hook at the same barrier
  // judges the post-pump state.
  eng.add_epoch_hook([](const engine::EpochView& v) {
    for (const auto& dom : *v.domains) {
      raid::RebuildManager* mgr = dom->config().rebuild;
      if (mgr != nullptr) mgr->pump(dom->window_start() + v.rel_end);
    }
  });

  const obs::SloPolicy policy = slo_policy(knobs());
  std::shared_ptr<obs::SloWatchdog> watchdog;
  if (policy.any()) {
    watchdog = std::make_shared<obs::SloWatchdog>(policy);
    eng.add_epoch_hook([watchdog](const engine::EpochView& v) {
      u64 ops = 0;
      u64 bytes = 0;
      common::Histogram reads;
      common::Histogram writes;
      u32 degraded = 0;
      for (const auto& dom : *v.domains) {
        ops += dom->ops();
        bytes += dom->bytes();
        reads.merge(dom->latency().reads());
        writes.merge(dom->latency().writes());
        bool any_degraded = false;
        for (const blockdev::BlockDevice* d : dom->ssds())
          any_degraded = any_degraded || d->failed();
        // A domain mid-rebuild is degraded too: the replacement is installed
        // but still serves reconstructed reads until the copy completes.
        const raid::RebuildManager* mgr = dom->config().rebuild;
        if (mgr != nullptr && mgr->rebuilding()) any_degraded = true;
        if (any_degraded) ++degraded;
      }
      watchdog->observe_epoch(v.rel_end, ops, bytes, reads, writes, degraded);
    });
  }

  engine::EngineResult er = eng.run(num_domains, factory);
  // Assigned on the merged result (not merged per-domain): the verdicts are
  // properties of the whole fleet at each barrier.
  if (watchdog) er.merged.slo = watchdog->outcome();

  std::printf(
      "[engine] %s: domains=%u shards=%u threads=%u epochs=%u "
      "setup=%.2fs wall=%.2fs sim-ops/s=%.0f\n",
      name.c_str(), er.domains, er.shards, er.threads, er.epochs,
      er.setup_seconds, er.wall_seconds, er.sim_ops_per_sec);
  if (watchdog && er.merged.slo.active) {
    std::printf("[slo] %s: epochs=%u violations=%u burn=%.2f %s\n",
                name.c_str(), er.merged.slo.epochs, er.merged.slo.violations,
                er.merged.slo.burn_rate,
                er.merged.slo.breached ? "BREACHED" : "ok");
  }

  if (knob_path("REPRO_JSON") != nullptr) {
    json_report().set_perf_config(er.shards, er.threads);
    workload::PerfRun pr;
    pr.bench = bench;
    pr.name = name;
    pr.setup_seconds = er.setup_seconds;
    pr.wall_seconds = er.wall_seconds;
    pr.sim_ops_per_sec = er.sim_ops_per_sec;
    pr.per_shard.reserve(er.per_shard.size());
    for (const engine::ShardPerf& sp : er.per_shard)
      pr.per_shard.push_back({sp.ops, sp.wall_seconds});
    json_report().add_perf(std::move(pr));
  }
  report_run(bench, name, er.merged);
  return std::move(er.merged);
}

// Runs one trace group through the SRC stack: partitions the group into
// kEngineDomains independent domains — each a full SRC stack at scale
// k/kEngineDomains replaying its own seed-derived trace set over its own
// footprint slice — and drives them through engine::ParallelEngine under
// REPRO_SHARDS/REPRO_THREADS. The write-provenance ledger is always wired;
// op-span tracing follows REPRO_SPAN_SAMPLE with a per-domain tracer (seeded
// from the domain seed, merged exactly). Returns the deterministically
// merged result; wall-clock numbers go to the REPRO_JSON "perf" section and
// stdout, and with REPRO_TRACE domain 0's span tracer is written as a Chrome
// trace. `name_override` labels the run in reports (default: the group
// name), letting one bench report several schemes over the same group.
// `tier_mb` overrides the compressed-DRAM-tier budget: -1 follows the
// REPRO_TIER_MB knob, 0 forces the tier off, >0 forces that many MiB summed
// across the domain partition — bench_tier uses the override to A/B
// tier-on/tier-off in one process. `cfg_tweak` is forwarded to every
// domain's make_src_rig (see there).
inline workload::RunResult run_group_sharded(
    const src::SrcConfig& overrides, const flash::SsdSpec& base_spec,
    workload::TraceGroup group, double k, const char* bench, u64 seed = 42,
    const char* name_override = nullptr, i64 tier_mb = -1,
    const std::function<void(src::SrcConfig&, const Geometry&)>& cfg_tweak =
        {}) {
  const double dk = k / kEngineDomains;
  const bool want_trace = knob_path("REPRO_TRACE") != nullptr;
  const u64 tier_bytes =
      (tier_mb < 0 ? static_cast<u64>(repro_tier_mb())
                   : static_cast<u64>(tier_mb)) *
      MiB;
  // Keeps domain 0's rig (the only traced one) alive past the engine run so
  // its span tracer can be written afterwards.
  std::shared_ptr<EngineDomainRig> traced;

  const auto factory = [&overrides, &base_spec, group, dk, seed, want_trace,
                        tier_bytes, &cfg_tweak, &traced](u32 index, u32 count) {
    auto holder = std::make_shared<EngineDomainRig>();
    holder->rig = make_src_rig(overrides, base_spec, dk, true, cfg_tweak);
    const Geometry geo = holder->rig->geo;
    const u64 dseed = domain_seed(seed, index);
    holder->set =
        workload::make_trace_set(group, geo.group_footprint_bytes, dseed);

    engine::DomainSetup s;
    s.cache = holder->rig->cache.get();
    s.ssds = holder->rig->ssd_ptrs();
    s.gens = holder->set.generators();
    s.cfg.threads_per_gen = 4;
    s.cfg.iodepth = 4;
    s.cfg.duration = run_duration();
    s.cfg.warmup_bytes = 2 * 3 * geo.region_bytes_per_ssd;
    s.cfg.registry = &holder->rig->registry;
    s.cfg.timeseries_interval = repro_timeseries_interval();
    s.cfg.provenance = &holder->rig->cache->provenance();
    if (tier_bytes > 0) {
      // One tier per domain, budget split evenly — the same 1/kEngineDomains
      // scaling every other capacity gets, so pressure ratios are preserved
      // and the merged outcome stays bit-identical across shard counts.
      tier::TierConfig tc;
      tc.budget_bytes = std::max<u64>(kBlockSize, tier_bytes / kEngineDomains);
      tc.dirty_pct = repro_tier_dirty_pct();
      tc.eviction = repro_tier_policy();
      tc.cpu_ns_per_byte = repro_tier_cpu_nspb();
      tc.destage_batch_blocks = static_cast<u32>(
          holder->rig->cache->config().segment_data_slots(true));
      holder->tier = std::make_unique<tier::TierCache>(
          tc, holder->rig->cache.get(), holder->rig->cache.get());
      holder->tier->register_metrics(obs::Scope(holder->rig->registry, "tier"));
      s.cache = holder->tier.get();
      s.cfg.tier = holder->tier.get();
    }
    if (knob("REPRO_SPAN_SAMPLE") > 0.0) {
      s.cfg.spans = &enable_spans(*holder->rig,
                                  common::SplitMix64(dseed).next(),
                                  knob("REPRO_SPAN_SAMPLE"));
    }
    if (knob_path("REPRO_FAULT_PLAN") != nullptr) {
      // Scripted faults per domain: the plan syntax was validated up front
      // (validate_repro_knobs); the domain seed feeds the plan's RNG so
      // seeded-random corruption picks differ (but are fixed) per domain.
      holder->fault = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse_or_die(knob_path("REPRO_FAULT_PLAN"), dseed));
      raid::RebuildConfig rbc;
      rbc.mbps = knob("REPRO_REBUILD_MBPS");
      rbc.spares = knob_u32("REPRO_REBUILD_SPARES");
      holder->rebuild =
          std::make_unique<raid::RebuildManager>(rbc, holder->rig->ssd_ptrs());
      holder->rig->cache->attach_faults(*holder->fault, holder->rebuild.get());
      if (holder->tier) {
        // The tier sits above the cache, so its hookup is made here. DRAM
        // vanishes at a power cut: dirty tier blocks are counted lost and
        // ledgered as injected+detected data loss, never silently dropped
        // (tier::TierCache::on_power_cut).
        holder->tier->set_fault_ledger(&holder->fault->ledger());
        tier::TierCache* tcache = holder->tier.get();
        holder->fault->set_powercut_callback(
            [tcache](sim::SimTime t) { tcache->on_power_cut(t); });
      }
      s.cfg.fault = holder->fault.get();
      s.cfg.rebuild = holder->rebuild.get();
    }
    // One domain's worth of timeline is what a Chrome trace can usefully
    // show; domain 0 is the deterministic choice.
    if (want_trace && index == 0) traced = holder;
    (void)count;
    s.owned = holder;
    return s;
  };

  const std::string name =
      name_override != nullptr ? name_override : workload::to_string(group);
  workload::RunResult res =
      run_engine_sharded(bench, name, kEngineDomains, factory);
  if (traced && traced->rig->spans)
    write_chrome_trace_json(traced->rig->spans->to_chrome_json());
  return res;
}

// One engine domain's baseline rig (Bcache5/Flashcache5 over RAID), owned
// via DomainSetup::owned.
struct BaselineDomainRig {
  std::unique_ptr<BaselineRig> rig;
  workload::TraceSet set;
};

// Sharded replay for the baseline schemes: same fixed kEngineDomains
// partition and per-domain seed stream as run_group_sharded, with
// `make_rig(dk)` building each domain's cache stack. With REPRO_SPAN_SAMPLE
// on, each domain's RAID layer and SSDs contribute spans under the op roots
// (baselines have no provenance ledger — that is an SRC-cache property).
template <typename MakeRig>
inline workload::RunResult run_baseline_group_sharded(
    const char* bench, const std::string& name, MakeRig make_rig,
    workload::TraceGroup group, double k, u64 seed = 42) {
  const double dk = k / kEngineDomains;
  const auto factory = [&make_rig, group, dk, seed](u32 index, u32 count) {
    auto holder = std::make_shared<BaselineDomainRig>();
    holder->rig = make_rig(dk);
    const Geometry geo = holder->rig->geo;
    const u64 dseed = domain_seed(seed, index);
    holder->set =
        workload::make_trace_set(group, geo.group_footprint_bytes, dseed);

    engine::DomainSetup s;
    s.cache = holder->rig->cache.get();
    s.ssds = holder->rig->ssd_ptrs();
    s.gens = holder->set.generators();
    s.cfg.threads_per_gen = 4;
    s.cfg.iodepth = 4;
    s.cfg.duration = run_duration();
    s.cfg.warmup_bytes = 2 * 3 * geo.region_bytes_per_ssd;
    s.cfg.timeseries_interval = repro_timeseries_interval();
    if (knob("REPRO_SPAN_SAMPLE") > 0.0) {
      holder->rig->spans = std::make_unique<obs::SpanTracer>(
          common::SplitMix64(dseed).next(), knob("REPRO_SPAN_SAMPLE"));
      holder->rig->raid5->set_span(holder->rig->spans.get());
      for (size_t i = 0; i < holder->rig->ssds.size(); ++i)
        holder->rig->ssds[i]->set_span(holder->rig->spans.get(),
                                       static_cast<u32>(i));
      s.cfg.spans = holder->rig->spans.get();
    }
    (void)count;
    s.owned = holder;
    return s;
  };
  return run_engine_sharded(bench, name, kEngineDomains, factory);
}

inline void print_header(const char* experiment, const char* paper_ref) {
  validate_repro_knobs();
  std::printf("=== %s ===\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale=%.3g, duration=%.3gs virtual\n", scale(),
              sim::to_seconds(run_duration()));
  std::string set;
  for (size_t i = 0; i < kNumKnobs; ++i)
    if (knobs().on(i))
      set += " " + std::string(kKnobs[i].name) + "=" + knobs().text[i];
  if (!set.empty()) std::printf("knobs:%s\n", set.c_str());
  std::printf("\n");
}

}  // namespace srcache::bench
