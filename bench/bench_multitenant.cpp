// Multi-tenant adaptive partitioning (extension over the paper's §4 SRC).
//
// Two deliberately mismatched tenants share one SRC stack: tenant 0 is a
// Zipf-hot, read-heavy server trace whose working set roughly fits the
// cache; tenant 1 is a scan-heavy sequential reader sweeping ~4x the cache.
// A static split wastes whatever it grants the scan (its re-reference
// distance exceeds any affordable share), so the adaptive controller —
// online per-tenant MRCs (SHARDS-sampled ghost LRU) feeding a greedy
// marginal-gain partitioner each epoch — should shift capacity to tenant 0
// and beat every static split on aggregate hit ratio.
//
// Runs: static-25-75, static-50-50, static-75-25 (tenant 0's share first),
// then adaptive. Knobs: REPRO_EPOCH_MS (epoch length, default 1000) and
// REPRO_SHARDS_RATE (MRC sampling rate, default 0.1) on top of the usual
// REPRO_SCALE / REPRO_SECONDS / REPRO_JSON. CI asserts adaptive beats
// static-50-50 via `repro_report --assert-hit-gt`.
#include "harness.hpp"

#include "adapt/adaptive.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

struct MtWorkload {
  std::unique_ptr<workload::TraceSynth> hot;   // tenant 0
  std::unique_ptr<workload::FioGen> scan;      // tenant 1
  std::unique_ptr<workload::TenantMixGen> mix;
};

MtWorkload make_workload(u64 capacity_blocks, u64 seed) {
  MtWorkload w;
  // Footprint ~1.3x the cache with moderate skew: the MRC keeps a slope all
  // the way to full capacity, so every extra block granted to tenant 0 buys
  // hits — the signal the partitioner is supposed to find. Half writes, so
  // the tenant builds residency at SSD speed instead of HDD-fetch speed.
  workload::TraceSynth::Config hot;
  hot.spec = {"zipf-hot", 4.0, 0.0, 50};
  hot.footprint_blocks = capacity_blocks * 13 / 10;
  hot.offset_blocks = 0;
  hot.zipf_theta = 0.9;
  hot.seed = seed;
  hot.tenant = 0;
  w.hot = std::make_unique<workload::TraceSynth>(hot);

  // An ingest-style sequential write sweep over 4x the cache: none of it is
  // ever re-referenced, so every cached block is pure pollution — the
  // capacity it occupies is exactly what a static split wastes on it.
  workload::FioGen::Config scan;
  scan.span_blocks = capacity_blocks * 4;
  scan.offset_blocks = capacity_blocks * 2;  // disjoint from tenant 0's region
  scan.req_blocks = 16;                      // 64 KiB sequential sweeps
  scan.read_pct = 0;
  scan.sequential = true;
  scan.seed = seed + 1;
  scan.tenant = 1;
  w.scan = std::make_unique<workload::FioGen>(scan);

  // The hot tenant issues 3x the requests; the sweep still moves more bytes
  // (16-block writes), so neither tenant is negligible in the aggregate.
  w.mix = std::make_unique<workload::TenantMixGen>(
      std::vector<workload::TenantMixGen::Source>{{w.hot.get(), 3.0},
                                                  {w.scan.get(), 1.0}},
      seed + 2);
  return w;
}

// A deliberately small cache region (6 erase groups per SSD instead of the
// paper's 18): partitioning only matters when capacity is the contended
// resource, and the closed loop at bench scale cannot push enough traffic to
// contend 18 SGs. Everything else matches make_src_rig.
std::unique_ptr<SrcRig> make_mt_rig(double k) {
  auto rig = std::make_unique<SrcRig>();
  rig->geo = Geometry::at(k);
  rig->geo.region_bytes_per_ssd = 6 * rig->geo.erase_group_bytes;

  src::SrcConfig cfg = default_src_config();
  cfg.erase_group_bytes = rig->geo.erase_group_bytes;
  cfg.chunk_bytes = rig->geo.chunk_bytes;
  cfg.region_bytes_per_ssd = rig->geo.region_bytes_per_ssd;
  cfg.verify_checksums = false;
  cfg.twait = 10 * sim::kMs;

  const flash::SsdSpec spec =
      sized_spec(flash::spec_840pro_128(), rig->geo.ssd_capacity_bytes, k);
  for (u32 i = 0; i < cfg.num_ssds; ++i) {
    rig->ssds.push_back(
        std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
    rig->ssds.back()->precondition();
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

}  // namespace

int main() {
  print_header("Multi-tenant adaptive partitioning",
               "extension: adaptive capacity split over the §4 SRC stack");
  const double k = scale();

  common::Table t({"Run", "MB/s", "hit", "t0 hit", "t1 hit", "t0 share",
                   "epochs", "rebal"});
  struct StaticSplit {
    const char* name;
    double t0_share;
  };
  const StaticSplit splits[] = {
      {"static-25-75", 0.25}, {"static-50-50", 0.50}, {"static-75-25", 0.75}};

  auto run_one = [&](const char* name, double t0_share, bool adaptive) {
    auto rig = make_mt_rig(k);
    const u64 cap = rig->cache->config().capacity_blocks();
    MtWorkload w = make_workload(cap, /*seed=*/42);

    workload::RunConfig rc;
    rc.threads_per_gen = 8;
    rc.iodepth = 8;
    rc.duration = run_duration();
    rc.warmup_bytes = 2 * 3 * rig->geo.region_bytes_per_ssd;
    rc.registry = &rig->registry;
    rc.timeseries_interval = repro_timeseries_interval();
    rc.num_tenants = 2;

    std::unique_ptr<adapt::AdaptiveController> ctrl;
    if (adaptive) {
      adapt::AdaptConfig ac;
      ac.num_tenants = 2;
      ac.capacity_blocks = cap;
      ac.epoch = repro_epoch();
      ac.sampling_rate = repro_shards_rate();
      ctrl = std::make_unique<adapt::AdaptiveController>(
          ac, [&rig](const std::vector<u64>& q) {
            rig->cache->set_tenant_quotas(q);
          });
      ctrl->register_metrics(obs::Scope(rig->registry, "adapt"));
      rc.adapt = ctrl.get();
    } else {
      const u64 t0 = static_cast<u64>(static_cast<double>(cap) * t0_share);
      rig->cache->set_tenant_quotas({t0, cap - t0});
    }

    const workload::RunResult res = engine::run_one(
        {rig->cache.get(), rig->ssd_ptrs(), {w.mix.get()}, rc});

    const double t0_final_share =
        adaptive && !res.tenants.empty()
            ? static_cast<double>(res.tenants[0].target_blocks) /
                  static_cast<double>(cap)
            : t0_share;
    t.add_row({name, common::Table::num(res.throughput_mbps, 1),
               common::Table::num(res.hit_ratio, 3),
               common::Table::num(res.tenants[0].hit_ratio(), 3),
               common::Table::num(res.tenants[1].hit_ratio(), 3),
               common::Table::num(t0_final_share, 2),
               std::to_string(res.adapt_epochs),
               std::to_string(res.adapt_rebalances)});
    report_run("bench_multitenant", name, res);
    return res;
  };

  for (const StaticSplit& s : splits) run_one(s.name, s.t0_share, false);
  run_one("adaptive", 0.0, true);
  t.print();
  return 0;
}
