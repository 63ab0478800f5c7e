// Quickstart: build an SRC cache over four simulated commodity SSDs in
// front of an iSCSI HDD array, run a mixed workload, and read the gauges.
//
//   $ ./build/examples/quickstart
//
// This walks the whole public API surface: SSD specs, devices, SrcConfig,
// SrcCache, the FIO-style generator and a serial engine run.
#include <cstdio>
#include <memory>

#include "engine/engine.hpp"
#include "flash/sim_ssd.hpp"
#include "hdd/iscsi_target.hpp"
#include "src_cache/src_cache.hpp"
#include "workload/generators.hpp"

using namespace srcache;

int main() {
  // 1. Four commodity SATA SSDs (Samsung 840 Pro class, scaled to 3 GiB so
  // the example runs in seconds) — preconditioned to steady state.
  flash::SsdSpec spec = flash::spec_840pro_128();
  spec.capacity_bytes = 3 * GiB;
  spec.pages_per_block = 512;  // 2 MiB flash blocks at this small capacity
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::vector<blockdev::BlockDevice*> ssd_ptrs;
  for (int i = 0; i < 4; ++i) {
    ssds.push_back(std::make_unique<flash::SimSsd>(spec, false));
    ssds.back()->precondition();
    ssd_ptrs.push_back(ssds.back().get());
  }
  std::printf("SSD: %s, erase group %llu MiB, NAND write %.0f MB/s\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(spec.erase_group_bytes() / MiB),
              spec.nand_write_mbps());

  // 2. Primary storage: 8-disk RAID-10 behind a 1 Gbps iSCSI link.
  hdd::IscsiConfig pcfg;
  pcfg.disk.capacity_bytes = 64 * GiB;
  pcfg.disk.track_content = false;
  auto primary = std::make_unique<hdd::IscsiTarget>(pcfg);

  // 3. SRC with the paper's default design choices (Table 7): RAID-5
  // stripes, NPC clean segments, Sel-GC with FIFO victims, UMAX 90%,
  // flush per segment group.
  src::SrcConfig cfg;
  cfg.erase_group_bytes = spec.erase_group_bytes();
  cfg.region_bytes_per_ssd = 18 * cfg.erase_group_bytes;
  cfg.verify_checksums = false;
  cfg.twait = 50 * sim::kMs;  // partial-segment timeout
  // Uniform-random traffic has no cold data for Sel-GC to shed, so cap
  // utilization earlier than the paper's 90% skewed-workload default.
  cfg.umax = 0.75;
  src::SrcCache cache(cfg, ssd_ptrs, primary.get());
  cache.format(0);
  std::printf("cache: %s\n", cfg.describe().c_str());
  std::printf("cache data capacity: %llu MiB\n\n",
              static_cast<unsigned long long>(
                  blocks_to_bytes(cfg.capacity_blocks()) / MiB));

  // 4. A 70/30 write/read workload, 8 KiB requests, over a 4 GiB hot
  // region of the volume (a bit larger than the cache).
  workload::FioGen::Config fio;
  fio.span_blocks = 4 * GiB / kBlockSize;
  fio.req_blocks = 2;
  fio.read_pct = 30;
  fio.seed = 42;
  workload::FioGen gen(fio);

  // 5. Replay it closed-loop as one simulation domain on this thread.
  workload::RunConfig rc;
  rc.threads_per_gen = 4;
  rc.iodepth = 8;
  rc.duration = 5 * sim::kSec;
  rc.warmup_bytes = 6 * GiB;  // fill the cache before measuring
  const workload::RunResult res =
      engine::run_one({&cache, ssd_ptrs, {&gen}, rc});

  // 6. The gauges the paper reports.
  std::printf("throughput:        %.1f MB/s\n", res.throughput_mbps);
  std::printf("hit ratio:         %.2f\n", res.hit_ratio);
  std::printf("I/O amplification: %.2f\n", res.io_amplification);
  const auto& ex = cache.extra();
  std::printf("segments written:  %llu (%llu partial)\n",
              static_cast<unsigned long long>(ex.segments_written),
              static_cast<unsigned long long>(ex.partial_segments));
  std::printf("SG reclaims:       %llu (%llu S2S, %llu S2D)\n",
              static_cast<unsigned long long>(ex.sg_reclaims),
              static_cast<unsigned long long>(ex.s2s_reclaims),
              static_cast<unsigned long long>(ex.s2d_reclaims));
  std::printf("utilization:       %.2f\n", cache.utilization());
  return 0;
}
