#include <gtest/gtest.h>

#include <memory>

#include "block/mem_disk.hpp"
#include "common/rng.hpp"
#include "raid/raid_device.hpp"
#include "raid/rebuild.hpp"

namespace srcache::raid {
namespace {

using blockdev::MemDisk;
using blockdev::MemDiskConfig;

struct Rig {
  std::vector<std::unique_ptr<MemDisk>> disks;
  std::unique_ptr<RaidDevice> raid;

  Rig(RaidLevel level, u32 chunk, int n = 4, u64 blocks_per_dev = 4096) {
    MemDiskConfig cfg;
    cfg.capacity_blocks = blocks_per_dev;
    cfg.op_latency = 10 * sim::kUs;
    for (int i = 0; i < n; ++i) disks.push_back(std::make_unique<MemDisk>(cfg));
    std::vector<blockdev::BlockDevice*> members;
    for (auto& d : disks) members.push_back(d.get());
    raid = std::make_unique<RaidDevice>(RaidConfig{level, chunk}, members);
  }
};

// --- construction ------------------------------------------------------------

TEST(Raid, CapacityPerLevel) {
  EXPECT_EQ(Rig(RaidLevel::kRaid0, 4).raid->capacity_blocks(), 4u * 4096u);
  EXPECT_EQ(Rig(RaidLevel::kRaid1, 4).raid->capacity_blocks(), 2u * 4096u);
  EXPECT_EQ(Rig(RaidLevel::kRaid4, 4).raid->capacity_blocks(), 3u * 4096u);
  EXPECT_EQ(Rig(RaidLevel::kRaid5, 4).raid->capacity_blocks(), 3u * 4096u);
}

TEST(Raid, RejectsBadConfigs) {
  MemDiskConfig cfg;
  std::vector<blockdev::BlockDevice*> one;
  MemDisk d(cfg);
  one.push_back(&d);
  EXPECT_THROW(RaidDevice(RaidConfig{RaidLevel::kRaid0, 1}, one),
               std::invalid_argument);
}

TEST(Raid, Raid1NeedsEvenCount) {
  MemDiskConfig cfg;
  MemDisk a(cfg), b(cfg), c(cfg);
  std::vector<blockdev::BlockDevice*> three{&a, &b, &c};
  EXPECT_THROW(RaidDevice(RaidConfig{RaidLevel::kRaid1, 1}, three),
               std::invalid_argument);
}

// --- content round trips across levels and chunk sizes (property sweep) ------

struct RoundTripParam {
  RaidLevel level;
  u32 chunk;
};

class RaidRoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RaidRoundTrip, RandomWritesReadBack) {
  const auto p = GetParam();
  Rig rig(p.level, p.chunk);
  common::Xoshiro256 rng(1234);
  // Model of expected contents.
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (int op = 0; op < 400; ++op) {
    const u32 n = static_cast<u32>(rng.range(1, 16));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) {
      tags[i] = rng.next() | 1;
      model[lba + i] = tags[i];
    }
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok());
  }
  for (int probe = 0; probe < 300; ++probe) {
    const u32 n = static_cast<u32>(rng.range(1, 16));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> out(n, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, n, out).ok());
    for (u32 i = 0; i < n; ++i) EXPECT_EQ(out[i], model[lba + i]);
  }
}

TEST_P(RaidRoundTrip, ParityConsistentAfterRandomWrites) {
  const auto p = GetParam();
  Rig rig(p.level, p.chunk);
  common::Xoshiro256 rng(77);
  for (int op = 0; op < 300; ++op) {
    const u32 n = static_cast<u32>(rng.range(1, 24));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) tags[i] = rng.next();
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok());
    EXPECT_TRUE(rig.raid->verify_parity(lba)) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndChunks, RaidRoundTrip,
    ::testing::Values(RoundTripParam{RaidLevel::kRaid0, 1},
                      RoundTripParam{RaidLevel::kRaid0, 16},
                      RoundTripParam{RaidLevel::kRaid1, 1},
                      RoundTripParam{RaidLevel::kRaid1, 8},
                      RoundTripParam{RaidLevel::kRaid4, 1},
                      RoundTripParam{RaidLevel::kRaid4, 8},
                      RoundTripParam{RaidLevel::kRaid5, 1},
                      RoundTripParam{RaidLevel::kRaid5, 4},
                      RoundTripParam{RaidLevel::kRaid5, 16}),
    [](const auto& info) {
      return std::string(to_string(info.param.level)).substr(5) + "_chunk" +
             std::to_string(info.param.chunk);
    });

// --- small-write behaviour ---------------------------------------------------

TEST(Raid5, FullStripeWriteAvoidsReads) {
  Rig rig(RaidLevel::kRaid5, 4);  // stripe = 3 data chunks of 4 = 12 blocks
  const u64 before_reads = rig.raid->stats().read_blocks;
  std::vector<u64> tags(12, 1);
  ASSERT_TRUE(rig.raid->write(0, 0, 12, tags).ok());
  EXPECT_EQ(rig.raid->stats().read_blocks, before_reads);
  EXPECT_EQ(rig.raid->raid_stats().full_stripe_writes, 1u);
  // 12 data + 4 parity blocks written.
  EXPECT_EQ(rig.raid->stats().write_blocks, 16u);
}

TEST(Raid5, SmallWriteTriggersRmw) {
  Rig rig(RaidLevel::kRaid5, 4);
  std::vector<u64> tag = {42};
  ASSERT_TRUE(rig.raid->write(0, 0, 1, tag).ok());
  EXPECT_EQ(rig.raid->raid_stats().rmw_writes, 1u);
  // Read old data + old parity, write new data + new parity.
  EXPECT_EQ(rig.raid->stats().read_blocks, 2u);
  EXPECT_EQ(rig.raid->stats().write_blocks, 2u);
}

TEST(Raid5, NearFullStripeUsesReconstructWrite) {
  Rig rig(RaidLevel::kRaid5, 4);
  // 11 of 12 data blocks: reconstruct (1 read) beats RMW (11+rows reads).
  std::vector<u64> tags(11, 3);
  ASSERT_TRUE(rig.raid->write(0, 0, 11, tags).ok());
  EXPECT_EQ(rig.raid->raid_stats().reconstruct_writes, 1u);
  EXPECT_EQ(rig.raid->stats().read_blocks, 1u);
}

TEST(Raid5, SmallWritesCostMoreThanRaid0) {
  // The small-write problem (§2.2): same workload, higher device traffic.
  Rig r5(RaidLevel::kRaid5, 1);
  Rig r0(RaidLevel::kRaid0, 1);
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const u64 lba = rng.below(r5.raid->capacity_blocks());
    std::vector<u64> tag = {rng.next()};
    r5.raid->write(0, lba, 1, tag);
    r0.raid->write(0, lba % r0.raid->capacity_blocks(), 1, tag);
  }
  const u64 t5 = r5.raid->stats().total_blocks();
  const u64 t0 = r0.raid->stats().total_blocks();
  EXPECT_GE(t5, 4 * t0 - 4);  // 4 I/Os per small write vs 1
}

// --- degraded operation ------------------------------------------------------

class RaidDegraded : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDegraded, ReadsSurviveSingleFailure) {
  Rig rig(GetParam(), 4);
  common::Xoshiro256 rng(9);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (int op = 0; op < 200; ++op) {
    const u64 lba = rng.below(rig.raid->capacity_blocks());
    std::vector<u64> tag = {rng.next() | 1};
    model[lba] = tag[0];
    ASSERT_TRUE(rig.raid->write(0, lba, 1, tag).ok());
  }
  rig.disks[1]->fail();
  EXPECT_FALSE(rig.raid->failed());  // still serviceable
  for (int probe = 0; probe < 200; ++probe) {
    const u64 lba = rng.below(rig.raid->capacity_blocks());
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok());
    EXPECT_EQ(out[0], model[lba]);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RaidDegraded,
                         ::testing::Values(RaidLevel::kRaid1, RaidLevel::kRaid4,
                                           RaidLevel::kRaid5),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(5);
                         });

TEST(Raid0, FailureIsFatal) {
  Rig rig(RaidLevel::kRaid0, 4);
  rig.raid->write(0, 0, 1, {});
  rig.disks[0]->fail();
  EXPECT_TRUE(rig.raid->failed());
  std::vector<u64> out(1);
  EXPECT_EQ(rig.raid->read(0, 0, 1, out).error, ErrorCode::kDeviceFailed);
}

TEST(Raid5, WritesContinueDegraded) {
  Rig rig(RaidLevel::kRaid5, 4);
  rig.disks[2]->fail();
  std::vector<u64> tags(4, 5);
  ASSERT_TRUE(rig.raid->write(0, 0, 4, tags).ok());
  std::vector<u64> out(4);
  ASSERT_TRUE(rig.raid->read(0, 0, 4, out).ok());
  for (u64 t : out) EXPECT_EQ(t, 5u);
}

// Degraded writes with multi-block chunks: the write path must keep parity
// consistent while one member is down, across runs that straddle chunk and
// stripe boundaries, for both the dedicated-parity and rotated layouts.
class RaidDegradedWrites : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDegradedWrites, MultiBlockChunkWritesReadBackDegraded) {
  Rig rig(GetParam(), 4);  // chunk_blocks = 4 > 1, stripe = 12 data blocks
  common::Xoshiro256 rng(21);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (int op = 0; op < 150; ++op) {
    const u32 n = static_cast<u32>(rng.range(1, 20));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) {
      tags[i] = rng.next() | 1;
      model[lba + i] = tags[i];
    }
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok());
  }
  rig.disks[2]->fail();
  EXPECT_FALSE(rig.raid->failed());
  for (int op = 0; op < 150; ++op) {
    // Lengths up to 20 blocks cross chunk (4) and stripe (12) boundaries,
    // exercising RMW, reconstruct and full-stripe paths while degraded.
    const u32 n = static_cast<u32>(rng.range(1, 20));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) {
      tags[i] = rng.next() | 1;
      model[lba + i] = tags[i];
    }
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok()) << "op " << op;
  }
  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok()) << lba;
    ASSERT_EQ(out[0], model[lba]) << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RaidDegradedWrites,
                         ::testing::Values(RaidLevel::kRaid4,
                                           RaidLevel::kRaid5),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(5);
                         });

// A double fault exceeds every single-redundancy level's tolerance. The
// contract is an explicit error, never a fabricated tag: a read that claims
// success must return the true value; reads needing both lost members fail.
class RaidDoubleFault : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDoubleFault, ReadsErrorNotGarbage) {
  const RaidLevel level = GetParam();
  Rig rig(level, 4, 4, 512);
  common::Xoshiro256 rng(33);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> tag = {rng.next() | 1};
    model[lba] = tag[0];
    ASSERT_TRUE(rig.raid->write(0, lba, 1, tag).ok());
  }
  // RAID-1 pairs are (dev, dev^1): kill both members of pair 0. Parity
  // levels lose any two members.
  rig.disks[0]->fail();
  rig.disks[1]->fail();
  u64 errors = 0;
  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    constexpr u64 kSentinel = 0xDEADBEEFDEADBEEFull;
    std::vector<u64> out(1, kSentinel);
    const auto r = rig.raid->read(0, lba, 1, out);
    if (r.ok()) {
      ASSERT_EQ(out[0], model[lba]) << "garbage served at lba " << lba;
    } else {
      ++errors;
    }
  }
  // RAID-1 loses exactly the half of the address space mapped to pair 0;
  // parity levels lose every data block living on the two dead members
  // (about 2/3 of them) — reconstruction hits the second failure. Blocks on
  // survivors still read directly; the contract is they stay correct.
  EXPECT_GT(errors, 0u);
  if (level == RaidLevel::kRaid1) {
    EXPECT_EQ(errors, rig.raid->capacity_blocks() / 2);
  } else {
    EXPECT_GE(errors, rig.raid->capacity_blocks() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RaidDoubleFault,
                         ::testing::Values(RaidLevel::kRaid1, RaidLevel::kRaid4,
                                           RaidLevel::kRaid5),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(5);
                         });

TEST(Raid1, ReadsBalanceAcrossMirrors) {
  Rig rig(RaidLevel::kRaid1, 4);
  rig.raid->write(0, 0, 1, {});
  for (int i = 0; i < 100; ++i) rig.raid->read(0, 0, 1, {});
  // Both mirrors of pair 0 should have served reads.
  EXPECT_GT(rig.disks[0]->stats().read_ops, 20u);
  EXPECT_GT(rig.disks[1]->stats().read_ops, 20u);
}

TEST(Raid, TrimFullStripesReachesParity) {
  Rig rig(RaidLevel::kRaid5, 4);
  std::vector<u64> tags(12, 9);
  rig.raid->write(0, 0, 12, tags);
  ASSERT_TRUE(rig.raid->trim(0, 0, 12).ok());
  u64 trimmed = 0;
  for (auto& d : rig.disks) trimmed += d->stats().trim_blocks;
  EXPECT_EQ(trimmed, 16u);  // 12 data + 4 parity blocks
}

TEST(Raid, PayloadWithinChunkRoundTrips) {
  Rig rig(RaidLevel::kRaid5, 8);
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{1, 2, 3});
  ASSERT_TRUE(rig.raid->write_payload(0, 8, p).ok());
  auto r = rig.raid->read_payload(0, 8, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value(), (std::vector<u8>{1, 2, 3}));
}

TEST(Raid, TimingOverlapsAcrossDevices) {
  // A full-stripe write should take about one device-op time, not four.
  Rig rig(RaidLevel::kRaid0, 4);
  std::vector<u64> tags(4, 1);
  const auto r = rig.raid->write(0, 0, 4, tags);
  EXPECT_LT(r.done, 2 * (10 * sim::kUs + 5 * sim::kUs));
}

// --- background rebuild engine (raid/rebuild.hpp) ---------------------------

constexpr u64 kDevBlocks = 512;

// Fill a rig's full address space with distinct tags; returns the model.
std::vector<u64> fill_all(Rig& rig, u64 seed) {
  common::Xoshiro256 rng(seed);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (u64 lba = 0; lba < model.size(); ++lba) {
    std::vector<u64> tag = {rng.next() | 1};
    model[lba] = tag[0];
    EXPECT_TRUE(rig.raid->write(0, lba, 1, tag).ok());
  }
  return model;
}

TEST(Rebuild, MirrorSweepRestoresContent) {
  Rig rig(RaidLevel::kRaid1, 1, 4, kDevBlocks);
  const auto model = fill_all(rig, 101);

  RebuildConfig cfg;
  cfg.mbps = 1e6;  // effectively unthrottled: one pump finishes the sweep
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid1, kDevBlocks));

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  EXPECT_FALSE(mgr.rebuilding());

  rig.disks[1]->replace_media();  // blank swap-in
  mgr.on_device_replaced(1, sim::kMs);
  EXPECT_TRUE(mgr.rebuilding());
  EXPECT_TRUE(mgr.covers(1, 0));
  EXPECT_EQ(mgr.blocks_at_risk(), kDevBlocks);

  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());
  EXPECT_FALSE(mgr.covers(1, 0));

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.rebuilds_started, 1u);
  EXPECT_EQ(o.rebuilds_completed, 1u);
  EXPECT_EQ(o.rebuilds_aborted, 0u);
  EXPECT_EQ(o.spares_used, 1u);
  EXPECT_EQ(o.blocks_copied, kDevBlocks);
  EXPECT_EQ(o.blocks_unrecovered, 0u);
  EXPECT_EQ(o.write_bytes, kDevBlocks * kBlockSize);
  EXPECT_EQ(o.blocks_at_risk_peak, kDevBlocks);
  EXPECT_GT(o.degraded_ns, 0);

  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok());
    ASSERT_EQ(out[0], model[lba]) << lba;
  }
}

TEST(Rebuild, ParitySweepRestoresContent) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  const auto model = fill_all(rig, 202);

  RebuildConfig cfg;
  cfg.mbps = 1e6;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));

  rig.disks[2]->fail();
  mgr.on_device_failed(2, 0);
  rig.disks[2]->replace_media();
  mgr.on_device_replaced(2, sim::kMs);
  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.rebuilds_completed, 1u);
  EXPECT_EQ(o.blocks_copied, kDevBlocks);
  // XOR decode reads every survivor: 3 reads per rebuilt block.
  EXPECT_EQ(o.read_bytes, 3 * kDevBlocks * kBlockSize);

  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok());
    ASSERT_EQ(out[0], model[lba]) << lba;
  }
}

TEST(Rebuild, RateLimitPacesCopy) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 303);

  RebuildConfig cfg;
  cfg.mbps = 1.0;  // 1 MB/s = ~244 blocks/s of 4 KiB
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, 0);

  // 100 ms at 1 MB/s is a 100 KB budget: ~24 blocks, nowhere near done.
  mgr.pump(100 * sim::kMs);
  EXPECT_TRUE(mgr.rebuilding());
  const u64 early = mgr.outcome().blocks_copied;
  EXPECT_GT(early, 0u);
  EXPECT_LT(early, 100u);
  // Double-pumping the same instant must not copy more (idempotence).
  mgr.pump(100 * sim::kMs);
  EXPECT_EQ(mgr.outcome().blocks_copied, early);
  // Enough virtual time finishes the sweep.
  mgr.pump(10 * sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());
  EXPECT_EQ(mgr.outcome().blocks_copied, kDevBlocks);
}

TEST(Rebuild, SecondFailureAbortsAndMasksDead) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 404);

  RebuildConfig cfg;
  cfg.mbps = 1.0;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));
  u64 lost_blocks = 0;
  size_t lost_dev = SIZE_MAX;
  sim::SimTime lost_at = -1;
  mgr.set_abort_callback(
      [&](size_t dev, const std::vector<RebuildExtent>& lost, sim::SimTime t) {
        lost_dev = dev;
        lost_at = t;
        for (const auto& ex : lost) lost_blocks += ex.count;
      });

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, 0);
  mgr.pump(100 * sim::kMs);  // partial copy
  const u64 copied = mgr.outcome().blocks_copied;
  ASSERT_TRUE(mgr.rebuilding());

  // Second failure: every still-pending parity extent needs disk 3.
  rig.disks[3]->fail();
  mgr.on_device_failed(3, sim::kSec);

  EXPECT_EQ(lost_dev, 1u);
  EXPECT_EQ(lost_at, sim::kSec);  // stamped with the second failure's time
  EXPECT_EQ(lost_blocks, kDevBlocks - copied);
  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.rebuilds_aborted, 1u);
  EXPECT_EQ(o.rebuilds_completed, 0u);
  EXPECT_EQ(o.blocks_unrecovered, kDevBlocks - copied);
  // Copied blocks are served; lost blocks stay masked forever — a blank
  // device must never satisfy a read with fabricated zero tags.
  EXPECT_FALSE(mgr.covers(1, 0));
  EXPECT_TRUE(mgr.covers(1, kDevBlocks - 1));
  // Further pumping is a no-op: nothing is left to rebuild.
  mgr.pump(10 * sim::kSec);
  EXPECT_EQ(mgr.outcome().blocks_copied, copied);
}

TEST(Rebuild, DiscardSkipsFreshlyWrittenBlocks) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 505);

  RebuildConfig cfg;
  cfg.mbps = 1e6;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));

  rig.disks[0]->fail();
  mgr.on_device_failed(0, 0);
  rig.disks[0]->replace_media();
  mgr.on_device_replaced(0, 0);

  // Fresh content lands on the first half of the device (a seal/trim path
  // would report it via discard): rebuild must not overwrite it with a
  // stale decode, so only the second half is copied.
  mgr.discard(0, kDevBlocks / 2);
  EXPECT_FALSE(mgr.covers(0, 0));

  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());
  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.blocks_copied, kDevBlocks / 2);
  EXPECT_EQ(o.blocks_skipped, kDevBlocks / 2);
  EXPECT_EQ(o.rebuilds_completed, 1u);
}

TEST(Rebuild, SpareDeficitIsReported) {
  Rig rig(RaidLevel::kRaid1, 1, 4, kDevBlocks);
  RebuildConfig cfg;
  cfg.spares = 0;  // empty pool: a replace still proceeds but is flagged
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid1, kDevBlocks));

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, 0);
  mgr.pump(sim::kSec);

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.spares_total, 0u);
  EXPECT_EQ(o.spares_used, 1u);  // used > total: deficit visible in JSON
}

}  // namespace
}  // namespace srcache::raid
