// Tests for src/adapt: ghost-cache MRC profiling (SHARDS sampling, memory
// budget), the greedy partition solver, and the end-to-end acceptance
// scenario — two mismatched tenants on a small SRC rig where the adaptive
// split must beat every static split once it has had 3 epochs to adapt.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adaptive.hpp"
#include "adapt/ghost_cache.hpp"
#include "adapt/partition.hpp"
#include "engine/engine.hpp"
#include "src_test_util.hpp"
#include "workload/generators.hpp"
#include "workload/trace_synth.hpp"

namespace srcache {
namespace {

using adapt::AdaptConfig;
using adapt::AdaptiveController;
using adapt::GhostCache;
using adapt::PartitionController;

// --- GhostCache -------------------------------------------------------------

GhostCache::Config unsampled(std::vector<u64> sizes) {
  GhostCache::Config cfg;
  cfg.sampling_rate = 1.0;  // exact: every access profiled
  cfg.sizes = std::move(sizes);
  cfg.decay = 1.0;          // no forgetting: counts are exact too
  return cfg;
}

TEST(GhostCache, CyclicReuseClassifiedAtItsStackDepth) {
  // Cycling over 16 blocks: after the cold round every access has stack
  // distance exactly 16 — a miss for any cache smaller than 16 blocks, a
  // hit for any cache of at least 16.
  GhostCache g(unsampled({8, 16, 32}));
  for (int round = 0; round < 10; ++round)
    for (u64 lba = 0; lba < 16; ++lba) g.access(lba);

  const GhostCache::Mrc mrc = g.mrc();
  ASSERT_EQ(mrc.sizes.size(), 3u);
  // 160 accesses, 16 cold misses, 144 hits at depth 16.
  EXPECT_DOUBLE_EQ(mrc.accesses, 160.0);
  EXPECT_DOUBLE_EQ(mrc.miss_ratio[0], 1.0);          // size 8: all miss
  EXPECT_DOUBLE_EQ(mrc.miss_ratio[1], 16.0 / 160.0); // size 16: only cold
  EXPECT_DOUBLE_EQ(mrc.miss_ratio[2], 16.0 / 160.0);
  EXPECT_GT(mrc.hit_ratio_at(16), 0.85);
  EXPECT_LT(mrc.hit_ratio_at(8), 0.05);
}

TEST(GhostCache, SequentialScanIsFlatAllMiss) {
  GhostCache g(unsampled({64, 256}));
  for (u64 lba = 0; lba < 4096; ++lba) g.access(lba);
  const GhostCache::Mrc mrc = g.mrc();
  EXPECT_DOUBLE_EQ(mrc.miss_ratio[0], 1.0);
  EXPECT_DOUBLE_EQ(mrc.miss_ratio[1], 1.0);
  EXPECT_DOUBLE_EQ(mrc.hit_ratio_at(10000), 0.0);
}

TEST(GhostCache, MissRatioMonotoneNonIncreasing) {
  GhostCache::Config cfg;
  cfg.sampling_rate = 1.0;
  cfg.sizes = {16, 32, 64, 128, 256};
  GhostCache g(cfg);
  common::Xoshiro256 rng(11);
  for (int i = 0; i < 20000; ++i) g.access(rng.below(300));
  const GhostCache::Mrc mrc = g.mrc();
  for (size_t k = 1; k < mrc.miss_ratio.size(); ++k)
    EXPECT_LE(mrc.miss_ratio[k], mrc.miss_ratio[k - 1] + 1e-12) << k;
}

TEST(GhostCache, ShardsMemoryStaysWithinBudget) {
  GhostCache::Config cfg;
  cfg.sampling_rate = 0.01;
  cfg.max_entries = 512;
  cfg.sizes = {1 << 16, 1 << 18, 1 << 20};  // ladder far beyond the cap
  GhostCache g(cfg);
  for (u64 lba = 0; lba < 1'000'000; ++lba) g.access(lba);

  EXPECT_LE(g.entries(), 512u);
  EXPECT_LE(g.max_entries(), 512u);
  // The budget holds in bytes too: per-entry cost is a small constant.
  const size_t per_entry_bound = 128;
  EXPECT_LE(g.memory_bytes(), 512 * per_entry_bound + 4096);
}

TEST(GhostCache, SamplingPreservesCurveShape) {
  // The sampled curve must approximate the exact one: uniform reuse over
  // 200 blocks has a sharp knee at size 200.
  GhostCache::Config exact = unsampled({100, 200, 400});
  GhostCache::Config sampled = exact;
  sampled.sampling_rate = 0.25;
  GhostCache ge(exact), gs(sampled);
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 100000; ++i) {
    const u64 lba = rng.below(200);
    ge.access(lba);
    gs.access(lba);
  }
  const auto me = ge.mrc(), ms = gs.mrc();
  for (size_t k = 0; k < me.miss_ratio.size(); ++k)
    EXPECT_NEAR(ms.miss_ratio[k], me.miss_ratio[k], 0.08) << k;
}

TEST(GhostCache, EpochDecayAgesCounts) {
  GhostCache g(unsampled({8}));
  for (int round = 0; round < 4; ++round)
    for (u64 lba = 0; lba < 4; ++lba) g.access(lba);
  const double before = g.mrc().accesses;
  g.new_epoch();  // decay 1.0 in unsampled() — switch to a decaying config
  EXPECT_DOUBLE_EQ(g.mrc().accesses, before);

  GhostCache::Config cfg = unsampled({8});
  cfg.decay = 0.5;
  GhostCache h(cfg);
  for (u64 lba = 0; lba < 4; ++lba) h.access(lba);
  h.new_epoch();
  EXPECT_DOUBLE_EQ(h.mrc().accesses, 2.0);
}

// --- PartitionController ----------------------------------------------------

GhostCache::Mrc linear_mrc(u64 cap, double best_hit) {
  // Hit ratio rising linearly to best_hit at full capacity.
  GhostCache::Mrc m;
  for (u64 k = 1; k <= 8; ++k) {
    m.sizes.push_back(cap * k / 8);
    m.miss_ratio.push_back(1.0 - best_hit * static_cast<double>(k) / 8.0);
  }
  m.accesses = 1000.0;
  return m;
}

GhostCache::Mrc flat_mrc(u64 cap) {
  GhostCache::Mrc m;
  for (u64 k = 1; k <= 8; ++k) {
    m.sizes.push_back(cap * k / 8);
    m.miss_ratio.push_back(1.0);
  }
  m.accesses = 1000.0;
  return m;
}

PartitionController::Config pc_config(u64 cap) {
  PartitionController::Config cfg;
  cfg.capacity_blocks = cap;
  cfg.min_share = 0.05;
  cfg.hysteresis = 0.0;
  return cfg;
}

TEST(Partition, GreedyStarvesTheFlatTenant) {
  const u64 cap = 10000;
  PartitionController pc(pc_config(cap));
  const std::vector<GhostCache::Mrc> mrcs = {linear_mrc(cap, 0.8),
                                             flat_mrc(cap)};
  const std::vector<u64> shares = pc.solve(mrcs, {1000.0, 1000.0}, {});
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0] + shares[1], cap);
  // The scan-shaped tenant gets exactly its floor; everything else goes to
  // the tenant whose curve rewards capacity.
  EXPECT_EQ(shares[1], static_cast<u64>(0.05 * cap));
  EXPECT_GE(shares[0], static_cast<u64>(0.95 * cap));
}

TEST(Partition, WeightsBiasTheSplit) {
  const u64 cap = 10000;
  PartitionController::Config cfg = pc_config(cap);
  cfg.weights = {1.0, 4.0};  // tenant 1's misses cost 4x
  PartitionController pc(cfg);
  const std::vector<GhostCache::Mrc> mrcs = {linear_mrc(cap, 0.8),
                                             linear_mrc(cap, 0.8)};
  const std::vector<u64> shares = pc.solve(mrcs, {1000.0, 1000.0}, {});
  EXPECT_GT(shares[1], shares[0]);
}

TEST(Partition, HysteresisKeepsPreviousSplit) {
  const u64 cap = 10000;
  PartitionController::Config cfg = pc_config(cap);
  cfg.hysteresis = 0.5;  // only a move > 50% of capacity may rebalance
  PartitionController pc(cfg);
  const std::vector<GhostCache::Mrc> mrcs = {linear_mrc(cap, 0.8),
                                             linear_mrc(cap, 0.6)};
  const std::vector<u64> prev = {cap / 2, cap / 2};
  EXPECT_EQ(pc.solve(mrcs, {1000.0, 1000.0}, prev), prev);
  // Without hysteresis the same inputs do move.
  PartitionController loose(pc_config(cap));
  EXPECT_NE(loose.solve(mrcs, {1000.0, 1000.0}, prev), prev);
}

TEST(Partition, ColdStartFallsBackToEvenSplit) {
  const u64 cap = 10000;
  PartitionController pc(pc_config(cap));
  const std::vector<GhostCache::Mrc> mrcs = {flat_mrc(cap), flat_mrc(cap)};
  const std::vector<u64> shares = pc.solve(mrcs, {0.0, 0.0}, {});
  EXPECT_EQ(shares[0] + shares[1], cap);
  EXPECT_NEAR(static_cast<double>(shares[0]),
              static_cast<double>(shares[1]),
              static_cast<double>(cap) * 0.01);
}

TEST(Partition, ZeroGainSurplusFollowsDemonstratedUtility) {
  // Both curves saturate instantly (all reuse below the first ladder
  // point): marginal gains are zero everywhere past it, but tenant 0 has
  // hits and tenant 1 has none — the surplus must follow the hits.
  const u64 cap = 10000;
  GhostCache::Mrc sat;
  sat.sizes = {cap / 8, cap};
  sat.miss_ratio = {0.2, 0.2};
  sat.accesses = 1000.0;
  PartitionController pc(pc_config(cap));
  const std::vector<GhostCache::Mrc> mrcs = {sat, flat_mrc(cap)};
  const std::vector<u64> shares = pc.solve(mrcs, {1000.0, 1000.0}, {});
  EXPECT_EQ(shares[1], static_cast<u64>(0.05 * cap));
}

TEST(Partition, FloorsExhaustCapacityFallsBackEven) {
  PartitionController::Config cfg = pc_config(100);
  cfg.min_share = 0.5;
  PartitionController pc(cfg);
  const std::vector<GhostCache::Mrc> mrcs = {linear_mrc(100, 0.8),
                                             flat_mrc(100)};
  const std::vector<u64> shares = pc.solve(mrcs, {10.0, 10.0}, {});
  EXPECT_EQ(shares[0] + shares[1], 100u);
}

// --- AdaptiveController -----------------------------------------------------

TEST(Adaptive, AppliesEvenSplitAtConstructionThenAdapts) {
  AdaptConfig cfg;
  cfg.num_tenants = 2;
  cfg.capacity_blocks = 4096;
  cfg.epoch = 100 * sim::kMs;
  cfg.sampling_rate = 1.0;
  cfg.hysteresis = 0.0;
  std::vector<std::vector<u64>> applied;
  AdaptiveController ctrl(cfg, [&](const std::vector<u64>& q) {
    applied.push_back(q);
  });
  ASSERT_EQ(applied.size(), 1u);  // managed from the start
  EXPECT_EQ(applied[0][0], 2048u);
  EXPECT_EQ(applied[0][1], 2048u);

  // Tenant 0 re-uses a 1024-block set; tenant 1 streams. After one epoch
  // the split must shift toward tenant 0.
  for (int round = 0; round < 20; ++round)
    for (u64 lba = 0; lba < 1024; ++lba) ctrl.observe(0, lba, 1);
  for (u64 lba = 0; lba < 20000; ++lba) ctrl.observe(1, 1 << 20 | lba, 1);

  ctrl.set_epoch_start(0);
  EXPECT_FALSE(ctrl.epoch_due(50 * sim::kMs));
  ASSERT_TRUE(ctrl.epoch_due(100 * sim::kMs));
  const std::vector<u64>& t = ctrl.run_epoch(100 * sim::kMs);
  EXPECT_EQ(ctrl.epochs_completed(), 1u);
  EXPECT_GE(ctrl.rebalances(), 1u);
  EXPECT_GT(t[0], t[1]);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied.back(), t);
}

TEST(Adaptive, GhostBudgetHoldsAcrossTenants) {
  AdaptConfig cfg;
  cfg.num_tenants = 4;
  cfg.capacity_blocks = 1 << 20;
  cfg.sampling_rate = 0.05;
  cfg.ghost_max_entries = 1024;
  AdaptiveController ctrl(cfg, nullptr);
  for (u64 i = 0; i < 400000; ++i) ctrl.observe(static_cast<u32>(i % 4), i, 1);
  EXPECT_LE(ctrl.ghost_entries_total(), 4u * 1024u);
  EXPECT_LE(ctrl.ghost_memory_bytes(), 4u * 1024u * 128u + 16384u);
}

// --- end-to-end: adaptive vs static on the small SRC rig --------------------

struct MtOutcome {
  workload::RunResult res;
  double late_hit = 0.0;  // op hit ratio after the first 3 epochs
};

constexpr sim::SimTime kEpoch = 500 * sim::kMs;

// One run of the acceptance workload: tenant 0 reuses a near-uniform working
// set ~0.9x the cache (every block granted to it buys hits, so its residency
// is quota-limited); tenant 1 is an ingest-style sequential write sweep over
// 4x the cache that is never re-read. `t0_share` < 0 runs the adaptive
// controller instead of a static split.
MtOutcome run_two_tenant(double t0_share) {
  src::testutil::Rig rig;
  const u64 cap = rig.cache->config().capacity_blocks();

  workload::TraceSynth::Config hot;
  hot.spec = {"zipf-hot", 4.0, 0.0, 50};
  hot.footprint_blocks = cap * 9 / 10;
  hot.zipf_theta = 0.3;
  hot.extent_blocks = 8;  // fine-grained placement: ~243 extents, so the
                          // reuse set spans the whole footprint, not a few
                          // hot extents — residency is then quota-limited
  hot.seed = 7;
  hot.tenant = 0;
  workload::TraceSynth t0(hot);

  workload::FioGen::Config sweep;
  sweep.span_blocks = cap * 4;
  sweep.offset_blocks = cap * 2;
  sweep.req_blocks = 8;
  sweep.read_pct = 0;
  sweep.sequential = true;
  sweep.seed = 8;
  sweep.tenant = 1;
  workload::FioGen t1(sweep);

  workload::TenantMixGen mix({{&t0, 6.0}, {&t1, 1.0}}, 9);

  workload::RunConfig rc;
  rc.threads_per_gen = 4;
  rc.iodepth = 4;
  rc.duration = 6 * sim::kSec;
  rc.warmup_bytes = 2 * blocks_to_bytes(cap);
  rc.timeseries_interval = kEpoch;
  rc.num_tenants = 2;

  std::unique_ptr<AdaptiveController> ctrl;
  if (t0_share < 0.0) {
    AdaptConfig ac;
    ac.num_tenants = 2;
    ac.capacity_blocks = cap;
    ac.epoch = kEpoch;
    ac.sampling_rate = 0.5;  // small cache: sample densely for a crisp MRC
    ctrl = std::make_unique<AdaptiveController>(
        ac, [&rig](const std::vector<u64>& q) {
          rig.cache->set_tenant_quotas(q);
        });
    rc.adapt = ctrl.get();
  } else {
    const u64 q0 = static_cast<u64>(static_cast<double>(cap) * t0_share);
    rig.cache->set_tenant_quotas({q0, cap - q0});
  }

  std::vector<blockdev::BlockDevice*> ssds;
  for (auto& s : rig.ssds) ssds.push_back(s.get());

  MtOutcome out;
  out.res = engine::run_one({rig.cache.get(), ssds, {&mix}, rc});
  u64 hits = 0, misses = 0;
  const auto& samples = out.res.timeseries.samples;
  for (size_t i = 3; i < samples.size(); ++i) {
    hits += samples[i].hits;
    misses += samples[i].misses;
  }
  if (hits + misses > 0)
    out.late_hit = static_cast<double>(hits) /
                   static_cast<double>(hits + misses);

  if (ctrl) {
    // The acceptance clock: adaptation must have happened within 3 epochs.
    EXPECT_GE(out.res.adapt_epochs, 3u);
    EXPECT_GE(out.res.adapt_rebalances, 1u);
    // SHARDS budget holds under real traffic.
    for (u32 t = 0; t < 2; ++t)
      EXPECT_LE(ctrl->ghost(t).entries(), ctrl->ghost(t).max_entries());
    EXPECT_LE(ctrl->ghost_memory_bytes(),
              2u * ctrl->config().ghost_max_entries * 128u + 16384u);
    // The split moved toward the tenant that can use the capacity.
    EXPECT_GT(ctrl->targets()[0], ctrl->targets()[1]);
  }
  return out;
}

TEST(AdaptiveEndToEnd, BeatsEveryStaticSplitAfterThreeEpochs) {
  const MtOutcome adaptive = run_two_tenant(-1.0);
  const double statics[] = {0.25, 0.50, 0.75};
  double best_static = 0.0;
  for (const double share : statics) {
    const MtOutcome s = run_two_tenant(share);
    best_static = std::max(best_static, s.late_hit);
  }
  // Once the controller has had 3 epochs to adapt, the adaptive split's
  // aggregate hit ratio exceeds the best static split's over the same
  // window. Fully deterministic: seeded generators, simulated time.
  EXPECT_GT(adaptive.late_hit, best_static);
  // Sanity: the workload is not degenerate — somebody hits the cache.
  EXPECT_GT(adaptive.late_hit, 0.1);
}

}  // namespace
}  // namespace srcache
