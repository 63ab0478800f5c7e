// Combined-fault scenarios through the full SRC stack: faults stacking on
// top of each other (corruption discovered while the array is already
// degraded, a scrub racing a fault window), with the fault ledger
// reconciling at every step (fault/ledger.hpp).
#include <gtest/gtest.h>

#include <string_view>

#include "engine/engine.hpp"
#include "fault/fault_injector.hpp"
#include "src_test_util.hpp"
#include "workload/generators.hpp"

namespace srcache::src {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using testutil::Rig;
using testutil::small_config;

// Wires an injector to a test rig through SrcCache::attach_faults, the call
// every bench and fault_matrix make: device hooks, the §4.3 fail-stop
// reaction, and the cache's detection/repair reports into the ledger.
FaultInjector make_injector(Rig& rig, const std::string& plan, u64 seed = 7) {
  FaultInjector inj(FaultPlan::parse_or_die(plan, seed));
  rig.cache->attach_faults(inj);
  return inj;
}

// Seals one dirty segment with known tags and returns them.
std::vector<u64> seal_one_dirty(Rig& rig, u64 lba_base = 0) {
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0xF000 + i;
    rig.write(0, lba_base + i, 1, &tags[i]);
  }
  return tags;
}

TEST(FaultInjection, CorruptionDiscoveredDuringDegradedReads) {
  // Fail-stop first, then silent corruption on a *second* device: reads in
  // degraded mode must still detect the corruption via CRC, and the double
  // fault must be counted (parity cannot repair it), never served silently.
  SrcConfig cfg = small_config();
  cfg.raid = SrcRaidLevel::kRaid5;
  Rig rig(cfg);
  const auto tags = seal_one_dirty(rig);
  const u64 sg1_base = rig.cfg.eg_blocks();  // SG 0 is the superblock

  FaultInjector inj(make_injector(
      rig, "at=1s fail dev=ssd1; at=2s corrupt dev=ssd0 lba=" +
               std::to_string(sg1_base + 1) + ".." +
               std::to_string(sg1_base + 2)));
  inj.advance(1 * sim::kSec, 0);
  ASSERT_TRUE(rig.ssds[1]->failed());
  inj.advance(2 * sim::kSec, 0);

  const auto before = rig.cache->extra();
  u64 served_corrupt = 0;
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(3 * sim::kSec, i, 1, &out);
    if (out != 0 && out != tags[i]) served_corrupt++;
  }
  EXPECT_EQ(served_corrupt, 0u) << "a corrupt tag was served as valid data";
  EXPECT_GT(rig.cache->extra().checksum_errors, before.checksum_errors);
  // ssd1 is down, so the stripe cannot repair ssd0's block: the loss is
  // explicit, not hidden.
  EXPECT_GT(rig.cache->extra().unrecoverable_blocks,
            before.unrecoverable_blocks);
  // Two faults on the ledger: the fail-stop (detected when it fired) and
  // the corruption (detected by CRC); neither is repairable here.
  EXPECT_EQ(inj.ledger().detected(), 2u);
  EXPECT_EQ(inj.ledger().repaired(), 0u);
  EXPECT_TRUE(inj.ledger().reconciles());
}

TEST(FaultInjection, DegradedCleanReadsRepairByRefetch) {
  // Same double fault, but on a clean (refetchable) block: primary storage
  // still holds the data, so degraded reads repair instead of losing it.
  SrcConfig cfg = small_config();
  cfg.raid = SrcRaidLevel::kRaid5;
  cfg.clean_redundancy = CleanRedundancy::kNPC;
  Rig rig(cfg);

  // Populate primary, then miss-fetch everything into a clean segment.
  const u64 cap = rig.cfg.segment_data_slots(false);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0xC000 + i;
    rig.primary->write(0, i, 1, std::span<const u64>(&tags[i], 1));
  }
  for (u64 i = 0; i < cap; ++i) rig.read(1 * sim::kMs * (i + 1), i, 1);

  const u64 sg1_base = rig.cfg.eg_blocks();
  FaultInjector inj(make_injector(
      rig, "at=1s fail dev=ssd1; at=2s corrupt dev=ssd0 lba=" +
               std::to_string(sg1_base + 1) + ".." +
               std::to_string(sg1_base + 2)));
  inj.advance(1 * sim::kSec, 0);
  inj.advance(2 * sim::kSec, 0);

  const auto before = rig.cache->extra();
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(3 * sim::kSec + sim::kMs * static_cast<sim::SimTime>(i), i, 1,
             &out);
    if (rig.cache->residence(i) != SrcCache::Residence::kAbsent)
      EXPECT_EQ(out, tags[i]) << "lba " << i;
  }
  EXPECT_EQ(rig.cache->extra().unrecoverable_blocks,
            before.unrecoverable_blocks);
  // The fail-stop and the corruption were both detected; the corrupted
  // block (the only repairable fault) was refetch-repaired.
  EXPECT_EQ(inj.ledger().detected(), 2u);
  EXPECT_EQ(inj.ledger().repaired(), 1u);
  EXPECT_TRUE(inj.ledger().reconciles());
}

TEST(FaultInjection, ScrubRacesAFaultWindow) {
  // Latent errors injected *between* scrub passes, including re-injection
  // into blocks the first pass already repaired: every pass must converge
  // (repair everything it can see) and the ledger must reconcile throughout.
  SrcConfig cfg = small_config();
  cfg.raid = SrcRaidLevel::kRaid5;
  Rig rig(cfg);
  const auto tags = seal_one_dirty(rig);
  const u64 sg1_base = rig.cfg.eg_blocks();
  const std::string range = std::to_string(sg1_base + 1) + ".." +
                            std::to_string(sg1_base + 4);

  FaultInjector inj(make_injector(rig, "at=1s latent dev=ssd0 lba=" + range +
                                           "; at=10s latent dev=ssd0 lba=" +
                                           range));
  // Pass 0: healthy array, nothing to find.
  auto rep = rig.cache->scrub(500 * sim::kMs);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_EQ(rep.unrecoverable, 0u);

  // Fault window opens; the next scrub pass finds and repairs the damage
  // (parity rebuild + write-back remaps the bad sectors).
  inj.advance(1 * sim::kSec, 0);
  rep = rig.cache->scrub(2 * sim::kSec);
  EXPECT_GT(rep.repaired, 0u);
  EXPECT_EQ(rep.unrecoverable, 0u);
  EXPECT_EQ(rig.ssds[0]->media_error_blocks(), 0u);
  EXPECT_EQ(inj.ledger().repaired(), inj.ledger().detected());
  EXPECT_TRUE(inj.ledger().reconciles());

  // Re-injection into the already-repaired blocks: the ledger re-opens the
  // records, and the next pass repairs them again.
  inj.advance(10 * sim::kSec, 0);
  rep = rig.cache->scrub(11 * sim::kSec);
  EXPECT_GT(rep.repaired, 0u);
  EXPECT_EQ(rep.unrecoverable, 0u);
  EXPECT_TRUE(inj.ledger().reconciles());

  // The data survived both windows.
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(20 * sim::kSec, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
}

TEST(FaultInjection, MediaErrorRepairRemapsTheSector) {
  // A latent sector error on a parity-protected block: the verified read
  // reconstructs the data and the write-back remaps the sector, so the
  // media error is physically gone afterwards (not just masked).
  SrcConfig cfg = small_config();
  cfg.raid = SrcRaidLevel::kRaid4;
  Rig rig(cfg);
  const auto tags = seal_one_dirty(rig);
  const u64 sg1_base = rig.cfg.eg_blocks();

  FaultInjector inj(make_injector(
      rig, "at=1s latent dev=ssd0 lba=" + std::to_string(sg1_base + 1) +
               ".." + std::to_string(sg1_base + 2)));
  inj.advance(1 * sim::kSec, 0);
  ASSERT_EQ(rig.ssds[0]->media_error_blocks(), 1u);

  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(2 * sim::kSec, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
  EXPECT_GE(rig.cache->extra().media_errors, 1u);
  EXPECT_GE(rig.cache->extra().parity_repairs, 1u);
  EXPECT_EQ(rig.ssds[0]->media_error_blocks(), 0u);  // remapped on write
  EXPECT_EQ(inj.ledger().detected(), 1u);
  EXPECT_EQ(inj.ledger().repaired(), 1u);
  EXPECT_TRUE(inj.ledger().reconciles());
}

TEST(FaultInjection, RunnerReportsTheDegradedWindow) {
  // End-to-end through a serial engine run: the injector is anchored at the
  // measurement window, fires mid-run, and the result carries the ledger
  // counters plus the healthy/degraded split.
  SrcConfig cfg = small_config();
  cfg.raid = SrcRaidLevel::kRaid5;
  Rig rig(cfg);

  FaultInjector inj(make_injector(rig, "at=ops:200 fail dev=ssd1"));
  workload::FioGen::Config gc;
  gc.span_blocks = 4096;
  gc.req_blocks = 4;
  gc.read_pct = 30;
  workload::FioGen gen(gc);

  std::vector<blockdev::BlockDevice*> devs;
  for (auto& s : rig.ssds) devs.push_back(s.get());
  workload::RunConfig rc;
  rc.duration = 60 * sim::kSec;
  rc.max_ops = 600;
  rc.fault = &inj;
  const workload::RunResult res =
      engine::run_one({rig.cache.get(), devs, {&gen}, rc});

  EXPECT_TRUE(res.fault.active);
  EXPECT_EQ(res.fault.events_fired, 1u);
  EXPECT_GE(res.fault.first_fault_s, 0.0);
  EXPECT_GT(res.fault.healthy_mbps, 0.0);
  EXPECT_GT(
      res.fault.degraded_read_lat.count + res.fault.degraded_write_lat.count,
      0u);
  EXPECT_EQ(res.fault.injected, 1u);
  EXPECT_EQ(res.fault.detected, 1u);  // fail-stop is device-reported
  EXPECT_EQ(res.fault.injected, res.fault.detected + res.fault.undetected);
  EXPECT_TRUE(rig.ssds[1]->failed());
}

TEST(FaultInjection, SsdFailureEventCarriesTheFireTime) {
  // The fail-stop reaction is stamped with the virtual time the injector
  // fired at, not 0: the event lands on the timeline where the SSD died.
  SrcConfig cfg = small_config();
  cfg.raid = SrcRaidLevel::kRaid5;
  Rig rig(cfg);
  FaultInjector inj(make_injector(rig, "at=ops:200 fail dev=ssd1"));
  obs::SpanTracer spans(/*seed=*/3, /*rate=*/0.1);
  rig.cache->set_span(&spans);
  workload::FioGen::Config gc;
  gc.span_blocks = 4096;
  gc.req_blocks = 4;
  gc.read_pct = 30;
  workload::FioGen gen(gc);

  std::vector<blockdev::BlockDevice*> devs;
  for (auto& s : rig.ssds) devs.push_back(s.get());
  workload::RunConfig rc;
  rc.duration = 60 * sim::kSec;
  rc.max_ops = 600;
  rc.fault = &inj;
  rc.spans = &spans;
  (void)engine::run_one({rig.cache.get(), devs, {&gen}, rc});

  ASSERT_EQ(inj.events_fired(), 1u);
  ASSERT_GT(inj.first_fire_time(), 0);
  u32 found = 0;
  for (const obs::SpanRecord& r : spans.records()) {
    if (std::string_view(r.name) != "src.ssd_failure") continue;
    ++found;
    EXPECT_TRUE(r.instant);
    EXPECT_EQ(r.start, inj.first_fire_time());
    EXPECT_EQ(r.arg, 1u);  // the failed SSD's index
  }
  EXPECT_EQ(found, 1u);
}

}  // namespace
}  // namespace srcache::src
