// Cross-implementation property tests: every cache (SRC in several
// configurations, BcacheLike, FlashcacheLike) must preserve read-your-writes
// and never lose acknowledged data while healthy, under a randomized
// workload with verification through content tags.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <unordered_map>

#include "baselines/bcache_like.hpp"
#include "baselines/flashcache_like.hpp"
#include "block/mem_disk.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "src_test_util.hpp"
#include "workload/trace_synth.hpp"

namespace srcache {
namespace {

using cache::AppRequest;
using cache::CacheDevice;

struct CacheRig {
  std::vector<std::unique_ptr<blockdev::MemDisk>> ssds;
  std::unique_ptr<blockdev::MemDisk> primary;
  std::unique_ptr<CacheDevice> cache;
  std::string name;
};

using RigFactory = std::function<std::unique_ptr<CacheRig>()>;

std::unique_ptr<CacheRig> make_devices(int num_ssds) {
  auto rig = std::make_unique<CacheRig>();
  blockdev::MemDiskConfig fast;
  fast.capacity_blocks = 8 * MiB / kBlockSize;
  fast.op_latency = 20 * sim::kUs;
  fast.bandwidth_mbps = 500.0;
  fast.flush_latency = 2 * sim::kMs;
  for (int i = 0; i < num_ssds; ++i)
    rig->ssds.push_back(std::make_unique<blockdev::MemDisk>(fast));
  blockdev::MemDiskConfig slow;
  slow.capacity_blocks = 256 * MiB / kBlockSize;
  slow.op_latency = 2 * sim::kMs;
  slow.bandwidth_mbps = 110.0;
  rig->primary = std::make_unique<blockdev::MemDisk>(slow);
  return rig;
}

RigFactory src_factory(src::SrcConfig cfg, const std::string& name) {
  return [cfg, name]() {
    auto rig = make_devices(static_cast<int>(cfg.num_ssds));
    std::vector<blockdev::BlockDevice*> devs;
    for (auto& s : rig->ssds) devs.push_back(s.get());
    auto c = std::make_unique<src::SrcCache>(cfg, devs, rig->primary.get());
    c->format(0);
    rig->cache = std::move(c);
    rig->name = name;
    return rig;
  };
}

RigFactory bcache_factory() {
  return []() {
    auto rig = make_devices(1);
    baselines::BcacheConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.bucket_blocks = 128;
    rig->cache = std::make_unique<baselines::BcacheLike>(
        cfg, rig->ssds[0].get(), rig->primary.get());
    rig->name = "bcache";
    return rig;
  };
}

RigFactory flashcache_factory() {
  return []() {
    auto rig = make_devices(1);
    baselines::FlashcacheConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.set_blocks = 128;
    rig->cache = std::make_unique<baselines::FlashcacheLike>(
        cfg, rig->ssds[0].get(), rig->primary.get());
    rig->name = "flashcache";
    return rig;
  };
}

std::vector<RigFactory> all_factories() {
  using src::CleanRedundancy;
  using src::GcPolicy;
  using src::SrcConfig;
  using src::SrcRaidLevel;
  using src::VictimPolicy;
  std::vector<RigFactory> out;
  SrcConfig base = src::testutil::small_config();
  for (auto raid : {SrcRaidLevel::kRaid0, SrcRaidLevel::kRaid1,
                    SrcRaidLevel::kRaid4, SrcRaidLevel::kRaid5}) {
    for (auto gc : {GcPolicy::kS2D, GcPolicy::kSelGc}) {
      SrcConfig cfg = base;
      cfg.raid = raid;
      cfg.gc = gc;
      cfg.victim = gc == GcPolicy::kSelGc ? VictimPolicy::kGreedy
                                          : VictimPolicy::kFifo;
      cfg.clean_redundancy = gc == GcPolicy::kSelGc ? CleanRedundancy::kNPC
                                                    : CleanRedundancy::kPC;
      out.push_back(src_factory(cfg, std::string("src_") +
                                         src::to_string(raid) + "_" +
                                         src::to_string(gc)));
    }
  }
  out.push_back(bcache_factory());
  out.push_back(flashcache_factory());
  return out;
}

class CacheProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheProperty, ReadYourWritesUnderChurn) {
  auto rig = all_factories()[GetParam()]();
  common::Xoshiro256 rng(101 + GetParam());
  std::unordered_map<u64, u64> model;
  const u64 span = 3000;
  sim::SimTime t = 0;
  u64 version = 0;
  for (int i = 0; i < 6000; ++i) {
    const u64 lba = rng.below(span);
    const u32 n = static_cast<u32>(rng.range(1, 4));
    AppRequest req;
    req.now = t;
    req.lba = lba;
    req.nblocks = n;
    if (rng.chance(0.55)) {
      req.is_write = true;
      std::vector<u64> tags(n);
      for (u32 k = 0; k < n; ++k) {
        tags[k] = blockdev::make_tag(lba + k, ++version);
        model[lba + k] = tags[k];
      }
      req.tags = tags.data();
      t = rig->cache->submit(req);
    } else {
      std::vector<u64> out(n, 0);
      req.tags_out = out.data();
      t = rig->cache->submit(req);
      for (u32 k = 0; k < n; ++k) {
        auto it = model.find(lba + k);
        const u64 expect = it == model.end() ? 0 : it->second;
        ASSERT_EQ(out[k], expect)
            << rig->name << " lba " << lba + k << " op " << i;
      }
    }
    ASSERT_GE(t, req.now) << rig->name;
  }
}

TEST_P(CacheProperty, NoAcknowledgedWriteLostToPrimaryView) {
  // After a full drain (flush + read every block), the combination of cache
  // and primary must serve the newest acknowledged version of every block.
  auto rig = all_factories()[GetParam()]();
  common::Xoshiro256 rng(202 + GetParam());
  std::unordered_map<u64, u64> model;
  sim::SimTime t = 0;
  u64 version = 0;
  for (int i = 0; i < 3000; ++i) {
    const u64 lba = rng.below(2000);
    AppRequest req;
    req.now = t;
    req.lba = lba;
    req.nblocks = 1;
    req.is_write = true;
    const u64 tag = blockdev::make_tag(lba, ++version);
    req.tags = &tag;
    model[lba] = tag;
    t = rig->cache->submit(req);
  }
  t = rig->cache->flush(t);
  for (const auto& [lba, tag] : model) {
    AppRequest req;
    req.now = t;
    req.lba = lba;
    req.nblocks = 1;
    u64 out = 0;
    req.tags_out = &out;
    t = rig->cache->submit(req);
    ASSERT_EQ(out, tag) << rig->name << " lba " << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCaches, CacheProperty,
                         ::testing::Range<size_t>(0, 10),
                         [](const auto& info) {
                           std::string n = all_factories()[info.param]()->name;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

// --- full-stack smoke: SRC over simulated SSDs + iSCSI -----------------------

TEST(Integration, TraceGroupRunsEndToEnd) {
  auto rig = make_devices(4);
  src::SrcConfig cfg = src::testutil::small_config();
  std::vector<blockdev::BlockDevice*> devs;
  for (auto& s : rig->ssds) devs.push_back(s.get());
  auto cache = std::make_unique<src::SrcCache>(cfg, devs, rig->primary.get());
  cache->format(0);

  workload::TraceSet set =
      workload::make_trace_set(workload::TraceGroup::kMixed, 64 * MiB, 7);
  workload::RunConfig rc;
  rc.threads_per_gen = 2;
  rc.iodepth = 2;
  rc.duration = 2 * sim::kSec;
  rc.max_ops = 20000;
  const auto res =
      engine::run_one({cache.get(), devs, set.generators(), rc});
  EXPECT_GT(res.ops, 1000u);
  EXPECT_GT(res.throughput_mbps, 0.0);
  EXPECT_GT(res.io_amplification, 0.5);
  EXPECT_TRUE(cache->verify_consistency().is_ok())
      << cache->verify_consistency().to_string();
}

}  // namespace
}  // namespace srcache
