// Scenario: sizing a cache for a mail-server volume (the paper's Exchange
// traces are the motivating workload). Replays an exch-like synthetic
// trace against SRC and against Bcache-over-RAID-5 and reports which
// delivers more throughput from the same four SSDs.
#include <cstdio>
#include <memory>

#include "baselines/bcache_like.hpp"
#include "engine/engine.hpp"
#include "flash/sim_ssd.hpp"
#include "hdd/iscsi_target.hpp"
#include "raid/raid_device.hpp"
#include "src_cache/src_cache.hpp"
#include "workload/trace_synth.hpp"

using namespace srcache;

namespace {

flash::SsdSpec small_ssd() {
  flash::SsdSpec spec = flash::spec_840pro_128();
  spec.capacity_bytes = 3 * GiB;
  spec.pages_per_block = 512;
  return spec;
}

// The Exchange server trace profile from Table 6 (exch9), scaled down.
workload::TraceSynth::Config exchange_profile() {
  workload::TraceSynth::Config cfg;
  cfg.spec = workload::TraceSpec{"exch9", 21.06, 110.46, 31};
  cfg.footprint_blocks = 10 * GiB / kBlockSize;
  cfg.seed = 99;
  return cfg;
}

struct Outcome {
  double mbps;
  double hit;
};

Outcome run(cache::CacheDevice* cache,
            std::vector<blockdev::BlockDevice*> ssds) {
  workload::TraceSynth trace(exchange_profile());
  workload::RunConfig rc;
  rc.threads_per_gen = 4;
  rc.iodepth = 4;
  rc.duration = 5 * sim::kSec;
  rc.warmup_bytes = 2 * GiB;
  const auto res = engine::run_one({cache, std::move(ssds), {&trace}, rc});
  return {res.throughput_mbps, res.hit_ratio};
}

}  // namespace

int main() {
  std::printf("Mail-server cache shoot-out: 4x commodity SATA SSDs, "
              "Exchange-like workload (21 KiB avg, 31%% reads)\n\n");
  const flash::SsdSpec spec = small_ssd();

  // Candidate A: SRC, paper defaults.
  Outcome src_result{};
  {
    std::vector<std::unique_ptr<flash::SimSsd>> ssds;
    std::vector<blockdev::BlockDevice*> ptrs;
    for (int i = 0; i < 4; ++i) {
      ssds.push_back(std::make_unique<flash::SimSsd>(spec, false));
      ssds.back()->precondition();
      ptrs.push_back(ssds.back().get());
    }
    hdd::IscsiConfig pc;
    pc.disk.capacity_bytes = 32 * GiB;
    pc.disk.track_content = false;
    auto primary = std::make_unique<hdd::IscsiTarget>(pc);
    src::SrcConfig cfg;
    cfg.erase_group_bytes = spec.erase_group_bytes();
    cfg.region_bytes_per_ssd = 18 * cfg.erase_group_bytes;
    cfg.verify_checksums = false;
    src::SrcCache cache(cfg, ptrs, primary.get());
    cache.format(0);
    src_result = run(&cache, ptrs);
  }

  // Candidate B: Bcache over md-RAID-5 of the same SSDs.
  Outcome bcache_result{};
  {
    std::vector<std::unique_ptr<flash::SimSsd>> ssds;
    std::vector<blockdev::BlockDevice*> ptrs;
    for (int i = 0; i < 4; ++i) {
      ssds.push_back(std::make_unique<flash::SimSsd>(spec, false));
      ssds.back()->precondition();
      ptrs.push_back(ssds.back().get());
    }
    raid::RaidDevice raid5(raid::RaidConfig{raid::RaidLevel::kRaid5, 1}, ptrs);
    hdd::IscsiConfig pc;
    pc.disk.capacity_bytes = 32 * GiB;
    pc.disk.track_content = false;
    auto primary = std::make_unique<hdd::IscsiTarget>(pc);
    baselines::BcacheConfig cfg;
    cfg.cache_blocks = 3 * (18 * spec.erase_group_bytes() / kBlockSize);
    cfg.writeback_percent = 0.9;
    baselines::BcacheLike cache(cfg, &raid5, primary.get());
    bcache_result = run(&cache, ptrs);
  }

  std::printf("SRC (RAID-5, Sel-GC):   %7.1f MB/s  hit %.2f\n",
              src_result.mbps, src_result.hit);
  std::printf("Bcache over RAID-5:     %7.1f MB/s  hit %.2f\n",
              bcache_result.mbps, bcache_result.hit);
  std::printf("\n=> %s delivers %.1fx the throughput from identical "
              "hardware.\n",
              src_result.mbps > bcache_result.mbps ? "SRC" : "Bcache",
              src_result.mbps > bcache_result.mbps
                  ? src_result.mbps / bcache_result.mbps
                  : bcache_result.mbps / src_result.mbps);
  return 0;
}
