#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "src_test_util.hpp"

namespace srcache::src {
namespace {

using testutil::Rig;
using testutil::small_config;

// Writes enough distinct dirty blocks to fill `sgs` segment groups.
void fill_dirty(Rig& rig, double sgs, u64 lba_base = 0) {
  const u64 per_sg =
      rig.cfg.segments_per_sg() * rig.cfg.segment_data_slots(true);
  const u64 blocks = static_cast<u64>(sgs * static_cast<double>(per_sg));
  sim::SimTime t = 0;
  for (u64 i = 0; i < blocks; ++i) t = rig.write(t, lba_base + i);
}

TEST(SrcGc, FillingCacheTriggersReclaim) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  Rig rig(cfg);
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 2.0);
  EXPECT_GT(rig.cache->extra().sg_reclaims, 0u);
  EXPECT_GE(rig.cache->free_sg_count(), cfg.free_sg_reserve);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcGc, S2DDestagesDirtyToPrimary) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  Rig rig(cfg);
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 1.0);
  EXPECT_GT(rig.cache->stats().destage_blocks, 0u);
  EXPECT_GT(rig.primary->stats().write_blocks, 0u);
  EXPECT_EQ(rig.cache->stats().gc_copy_blocks, 0u);
  EXPECT_EQ(rig.cache->extra().s2s_reclaims, 0u);
}

TEST(SrcGc, DestagedDataReadableFromPrimary) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  cfg.victim = VictimPolicy::kFifo;
  Rig rig(cfg);
  // Tag block 0 and never touch it again: FIFO will destage it.
  const u64 tag = 0xD00D;
  rig.write(0, 0, 1, &tag);
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 2.0, /*lba_base=*/10);
  ASSERT_EQ(rig.cache->residence(0), SrcCache::Residence::kAbsent);
  std::vector<u64> out(1);
  rig.primary->read(0, 0, 1, out);
  EXPECT_EQ(out[0], tag);
}

TEST(SrcGc, SelGcCopiesInsteadOfDestaging) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  cfg.umax = 0.95;
  Rig rig(cfg);
  // Working set smaller than the cache, overwritten repeatedly: utilization
  // stays below UMAX, so reclaims use S2S copies, not destages.
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  const u64 ws = per_sg * (cfg.sg_count() / 2);
  common::Xoshiro256 rng(1);
  sim::SimTime t = 0;
  for (u64 i = 0; i < 4 * ws; ++i) t = rig.write(t, rng.below(ws));
  EXPECT_GT(rig.cache->extra().s2s_reclaims, 0u);
  EXPECT_GT(rig.cache->stats().gc_copy_blocks, 0u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcGc, SelGcFallsBackToS2DAboveUmax) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  cfg.umax = 0.10;  // practically always above
  Rig rig(cfg);
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 2.0);
  EXPECT_GT(rig.cache->extra().s2d_reclaims, 0u);
  EXPECT_GT(rig.cache->stats().destage_blocks, 0u);
}

TEST(SrcGc, SelGcDropsColdCleanKeepsHotClean) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  cfg.umax = 0.95;
  Rig rig(cfg);
  // Two clean segments: blocks of the first are re-read (hot), the second
  // never touched (cold).
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  sim::SimTime t = 0;
  for (u64 i = 0; i < 2 * clean_cap; ++i) t = rig.read(t, 100000 + i);
  for (u64 i = 0; i < clean_cap; ++i) t = rig.read(t, 100000 + i);  // heat
  // Fill with dirty data until the clean SG gets reclaimed.
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 1.0);
  EXPECT_GT(rig.cache->stats().dropped_clean_blocks, 0u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcGc, FifoPicksOldestSealed) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  cfg.victim = VictimPolicy::kFifo;
  Rig rig(cfg);
  const u64 tag = 0xAA;
  rig.write(0, 99999, 1, &tag);  // lives in the first-sealed SG
  fill_dirty(rig, static_cast<double>(cfg.sg_count()), 0);
  // The first SG must have been reclaimed (oldest first) and the block
  // destaged.
  EXPECT_EQ(rig.cache->residence(99999), SrcCache::Residence::kAbsent);
}

TEST(SrcGc, GreedyPrefersEmptierSg) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  cfg.victim = VictimPolicy::kGreedy;
  Rig rig(cfg);
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  // SG A: written then fully overwritten (0 live). Later SGs: live data.
  sim::SimTime t = 0;
  for (u64 i = 0; i < per_sg; ++i) t = rig.write(t, i);
  for (u64 i = 0; i < per_sg; ++i) t = rig.write(t, i);  // invalidates SG A
  const u64 destaged_before = rig.cache->stats().destage_blocks;
  // Now force a reclaim: fill remaining SGs.
  for (u64 i = 0; i < per_sg * cfg.sg_count(); ++i) {
    t = rig.write(t, 100000 + i);
    if (rig.cache->extra().sg_reclaims > 0) break;
  }
  ASSERT_GT(rig.cache->extra().sg_reclaims, 0u);
  // Greedy found the dead SG: nothing needed destaging.
  EXPECT_EQ(rig.cache->stats().destage_blocks, destaged_before);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcGc, UtilizationTracksLiveBlocks) {
  Rig rig;
  EXPECT_DOUBLE_EQ(rig.cache->utilization(), 0.0);
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  const double u1 = rig.cache->utilization();
  EXPECT_GT(u1, 0.0);
  // Overwriting the same blocks must not inflate utilization.
  for (u64 i = 0; i < cap; ++i) rig.write(1, i);
  EXPECT_NEAR(rig.cache->utilization(), u1, 1e-9);
}

TEST(SrcGc, ReclaimTrimsTheSegmentGroup) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  Rig rig(cfg);
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 1.0);
  for (auto& ssd : rig.ssds) EXPECT_GT(ssd->stats().trim_blocks, 0u);
}

TEST(SrcGc, SelGcSurvivesSustainedOverwrite) {
  // Long-running random overwrites with Sel-GC must neither deadlock nor
  // violate invariants (the nested-reclaim path).
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  cfg.umax = 0.90;
  Rig rig(cfg);
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  const u64 ws = per_sg * (cfg.sg_count() - 4);
  common::Xoshiro256 rng(7);
  sim::SimTime t = 0;
  for (u64 i = 0; i < 6 * ws; ++i) t = rig.write(t, rng.below(ws));
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
  EXPECT_GT(rig.cache->extra().sg_reclaims, 0u);
}

TEST(SrcGc, MixedCleanDirtyWorkloadStaysConsistent) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  Rig rig(cfg);
  common::Xoshiro256 rng(11);
  sim::SimTime t = 0;
  for (int i = 0; i < 20000; ++i) {
    const u64 lba = rng.below(6000);
    if (rng.chance(0.5)) {
      t = rig.write(t, lba);
    } else {
      t = rig.read(t, lba);
    }
  }
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
}

TEST(SrcGc, CostBenefitPrefersDeadOverYoung) {
  // Extension (§6 future work): LFS cost-benefit victim selection must
  // prefer an old mostly-dead SG over a young fuller one, like Greedy...
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  cfg.victim = VictimPolicy::kCostBenefit;
  Rig rig(cfg);
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  sim::SimTime t = 0;
  for (u64 i = 0; i < per_sg; ++i) t = rig.write(t, i);        // SG A
  for (u64 i = 0; i < per_sg; ++i) t = rig.write(t, i);        // kills SG A
  const u64 destaged_before = rig.cache->stats().destage_blocks;
  for (u64 i = 0; i < per_sg * cfg.sg_count(); ++i) {
    t = rig.write(t, 100000 + i);
    if (rig.cache->extra().sg_reclaims > 0) break;
  }
  ASSERT_GT(rig.cache->extra().sg_reclaims, 0u);
  // The dead SG was chosen: nothing to destage.
  EXPECT_EQ(rig.cache->stats().destage_blocks, destaged_before);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcGc, CostBenefitSurvivesChurn) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  cfg.victim = VictimPolicy::kCostBenefit;
  Rig rig(cfg);
  common::Xoshiro256 rng(31);
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  const u64 ws = per_sg * (cfg.sg_count() - 4);
  sim::SimTime t = 0;
  for (u64 i = 0; i < 5 * ws; ++i) t = rig.write(t, rng.below(ws));
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
  EXPECT_GT(rig.cache->extra().sg_reclaims, 0u);
}

TEST(SrcGc, ReclaimedSgNotWritableBeforeDestageCompletes) {
  // ready_at back-pressure: with a crawling primary, S2D reclaims gate
  // segment writes into the recycled SG far into the future.
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  Rig rig(cfg);
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  sim::SimTime t = 0;
  sim::SimTime last_ack = 0;
  for (u64 i = 0; i < per_sg * (cfg.sg_count() + 3); ++i) {
    t = rig.write(t, i);
    last_ack = std::max(last_ack, t);
  }
  ASSERT_GT(rig.cache->extra().sg_reclaims, 0u);
  // Destages happened and writes experienced back-pressure beyond pure
  // SSD time (the 5 ms/op primary is far slower than the 20 us MemDisks).
  EXPECT_GT(rig.cache->stats().destage_blocks, 0u);
  EXPECT_GT(last_ack, 50 * sim::kMs);
}

TEST(SrcGc, MultiSegmentCopyForwardKeepsMapBuffersAndTenantsExact) {
  // One S2S reclaim copies a whole victim SG forward: several segments of
  // copies staged behind a partly sealed buffer, then sealed one by one.
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  cfg.umax = 0.95;
  Rig rig(cfg);
  const u64 seg = cfg.segment_data_slots(true);
  const u64 per_sg = cfg.segments_per_sg() * seg;
  std::map<u64, u64> tag_of;  // last written tag per lba
  std::map<u64, u16> owner;   // last writer per lba
  sim::SimTime t = 0;
  u64 version = 0;
  const auto write = [&](u64 lba, u16 tenant) {
    const u64 tag = blockdev::make_tag(lba, ++version);
    cache::AppRequest r;
    r.now = t;
    r.is_write = true;
    r.lba = lba;
    r.nblocks = 1;
    r.tenant = tenant;
    r.tags = &tag;
    t = rig.cache->submit(r);
    tag_of[lba] = tag;
    owner[lba] = tenant;
  };
  // SG A holds lbas [0, per_sg), alternating tenants; overwriting a tenth
  // of them (as tenant 0) keeps A under the 95% nearly-full cut, so FIFO
  // reclaims it with S2S copies of every block still live there.
  const u64 dead = per_sg / 10;
  for (u64 l = 0; l < per_sg; ++l) write(l, static_cast<u16>(l % 2));
  for (u64 l = 0; l < dead; ++l) write(l, 0);
  u64 cold = 100000;
  while (rig.cache->extra().sg_reclaims == 0) write(cold++, 0);
  ASSERT_EQ(rig.cache->extra().s2s_reclaims, 1u);
  const u64 copied = per_sg - dead;
  ASSERT_GT(copied, 2 * seg);
  EXPECT_EQ(rig.cache->stats().gc_copy_blocks, copied);
  ASSERT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();

  // More seals over the copies: overwrite two segments' worth of them
  // under the other tenant, then leave a partial segment buffered.
  for (u64 l = dead; l < dead + 2 * seg; ++l)
    write(l, static_cast<u16>(1 - l % 2));
  for (u64 l = per_sg - 3; l < per_sg; ++l) write(l, owner[l]);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();

  // Hand count: no copied block was dropped since, so tenant 1 owns
  // exactly the copied blocks it wrote last; tenant 0 owns the rest that
  // is resident (later S2D reclaims destaged some of its blocks).
  u64 buffered = 0;
  std::vector<u64> live(2, 0);
  for (const auto& [lba, tenant] : owner) {
    const auto where = rig.cache->residence(lba);
    if (lba >= dead && lba < per_sg) {
      ASSERT_NE(where, SrcCache::Residence::kAbsent) << lba;
    }
    if (where == SrcCache::Residence::kAbsent) continue;
    if (where == SrcCache::Residence::kDirtyBuffer) ++buffered;
    ++live[tenant];
  }
  u64 tenant1 = 0;
  for (u64 l = dead; l < per_sg; ++l) tenant1 += owner[l] == 1 ? 1 : 0;
  EXPECT_GT(buffered, 0u);
  EXPECT_EQ(live[1], tenant1);
  ASSERT_EQ(rig.cache->tenant_count(), 2u);
  EXPECT_EQ(rig.cache->tenant_stats()[0].live_blocks, live[0]);
  EXPECT_EQ(rig.cache->tenant_stats()[1].live_blocks, live[1]);
  EXPECT_EQ(rig.cache->cached_blocks(), live[0] + live[1]);
  // The later reclaims met only fully live (cold) victims: S2D.
  EXPECT_EQ(rig.cache->extra().s2s_reclaims, 1u);
  EXPECT_EQ(rig.cache->stats().gc_copy_blocks, copied);

  // Every block reads back its last-written tag, buffered, sealed or
  // destaged.
  for (const auto& [lba, tag] : tag_of) {
    u64 out = 0;
    t = rig.read(t, lba, 1, &out);
    ASSERT_EQ(out, tag) << lba;
  }
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
}

}  // namespace
}  // namespace srcache::src
