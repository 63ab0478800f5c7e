// tier::TierCache: compressed DRAM tier unit semantics — write absorption,
// compressed-size budgeting, incompressible bypass, dirty-bound destaging,
// read hits with CPU charges, demotion vs drop, and power-cut loss
// accounting. The inner cache is the small SRC test rig throughout, so
// destages and demotes ride the real provenance-attributed staging paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/ledger.hpp"
#include "src_test_util.hpp"
#include "tier/tier_cache.hpp"

namespace srcache::tier {
namespace {

using src::testutil::Rig;

TierConfig small_tier(u64 budget_blocks = 64) {
  TierConfig tc;
  tc.budget_bytes = budget_blocks * kBlockSize;
  tc.dirty_pct = 50;
  tc.destage_batch_blocks = 6;
  return tc;
}

sim::SimTime twrite(TierCache& t, sim::SimTime now, u64 lba, u8 comp_pct,
                    u32 n = 1, const u64* tags = nullptr) {
  cache::AppRequest r;
  r.now = now;
  r.is_write = true;
  r.lba = lba;
  r.nblocks = n;
  r.comp_pct = comp_pct;
  r.tags = tags;
  return t.submit(r);
}

sim::SimTime tread(TierCache& t, sim::SimTime now, u64 lba, u8 comp_pct,
                   u32 n = 1, u64* out = nullptr) {
  cache::AppRequest r;
  r.now = now;
  r.lba = lba;
  r.nblocks = n;
  r.comp_pct = comp_pct;
  r.tags_out = out;
  return t.submit(r);
}

TEST(TierConfig, ValidateRejectsBadKnobs) {
  auto bad = [](auto mutate) {
    TierConfig tc;
    mutate(tc);
    EXPECT_THROW(tc.validate(), std::invalid_argument);
  };
  bad([](TierConfig& tc) { tc.budget_bytes = 0; });
  bad([](TierConfig& tc) { tc.dirty_pct = 101; });
  bad([](TierConfig& tc) { tc.cpu_ns_per_byte = -1.0; });
  bad([](TierConfig& tc) { tc.destage_batch_blocks = 0; });
  bad([](TierConfig& tc) { tc.incompressible_pct = 101; });
  EXPECT_NO_THROW(TierConfig{}.validate());
}

TEST(TierCache, AbsorbsCompressibleWritesWithoutTouchingFlash) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  const u64 inner_before = rig.cache->stats().app_write_blocks;
  for (u64 i = 0; i < 16; ++i) twrite(tier, i * 100, i, /*comp_pct=*/50);
  EXPECT_EQ(tier.resident_blocks(), 16u);
  EXPECT_EQ(tier.dirty_blocks(), 16u);
  // Half-compressible: each block costs kBlockSize/2 of budget.
  EXPECT_EQ(tier.resident_compressed_bytes(), 16 * kBlockSize / 2);
  EXPECT_DOUBLE_EQ(tier.compression_ratio(), 0.5);
  // Below the dirty bound nothing reaches the flash cache.
  EXPECT_EQ(rig.cache->stats().app_write_blocks, inner_before);
  EXPECT_EQ(tier.tier_stats().destage_blocks, 0u);
  EXPECT_GT(tier.tier_stats().cpu_compress_ns, 0u);
}

TEST(TierCache, IncompressibleWritesBypassStraightDown) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  const u64 inner_before = rig.cache->stats().app_write_blocks;
  twrite(tier, 0, 0, /*comp_pct=*/100, 4);  // above incompressible_pct
  twrite(tier, 1, 10, /*comp_pct=*/0, 2);   // unstamped: treated the same
  EXPECT_EQ(tier.resident_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().bypass_blocks, 6u);
  EXPECT_EQ(rig.cache->stats().app_write_blocks, inner_before + 6);
  // No compression CPU was charged for bypassed blocks.
  EXPECT_EQ(tier.tier_stats().cpu_compress_ns, 0u);
}

TEST(TierCache, IncompressibleOverwriteEvictsTheStaleCompressedCopy) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  twrite(tier, 0, 7, /*comp_pct=*/40);
  ASSERT_EQ(tier.resident_blocks(), 1u);
  twrite(tier, 1, 7, /*comp_pct=*/100);  // content became incompressible
  EXPECT_EQ(tier.resident_blocks(), 0u);
  // A later read must come from below, not from a stale DRAM copy.
  u64 tag = 0;
  tread(tier, 2, 7, /*comp_pct=*/100, 1, &tag);
  EXPECT_EQ(tier.tier_stats().hit_blocks, 0u);
}

TEST(TierCache, ReadHitsDecompressAndReturnTheWrittenTag) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  const u64 tag = blockdev::make_tag(42, 1);
  twrite(tier, 0, 42, /*comp_pct=*/60, 1, &tag);
  u64 out = 0;
  tread(tier, 1, 42, /*comp_pct=*/60, 1, &out);
  EXPECT_EQ(out, tag);
  EXPECT_EQ(tier.tier_stats().hit_blocks, 1u);
  EXPECT_EQ(tier.tier_stats().miss_blocks, 0u);
  EXPECT_DOUBLE_EQ(tier.hit_ratio(), 1.0);
  EXPECT_GT(tier.tier_stats().cpu_decompress_ns, 0u);
}

// Regression: csize deltas are unsigned, so a shrinking overwrite must be
// applied subtract-then-add — forming `new - old` directly wraps and
// permanently inflates the resident total, evicting everything forever.
TEST(TierCache, OverwriteWithDifferentCompressibilityKeepsExactAccounting) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  twrite(tier, 0, 5, /*comp_pct=*/90);
  EXPECT_EQ(tier.resident_compressed_bytes(), kBlockSize * 90 / 100);
  twrite(tier, 1, 5, /*comp_pct=*/10);  // shrink
  EXPECT_EQ(tier.resident_compressed_bytes(), kBlockSize * 10 / 100);
  twrite(tier, 2, 5, /*comp_pct=*/80);  // grow again
  EXPECT_EQ(tier.resident_compressed_bytes(), kBlockSize * 80 / 100);
  EXPECT_EQ(tier.resident_blocks(), 1u);
  EXPECT_EQ(tier.dirty_blocks(), 1u);
}

TEST(TierCache, DirtyBoundDestagesOldestInPlace) {
  Rig rig;
  TierConfig tc = small_tier(/*budget_blocks=*/256);
  tc.dirty_pct = 25;  // 64 incompressible blocks' worth of dirty budget
  TierCache tier(tc, rig.cache.get(), rig.cache.get());
  // Enough distinct dirty blocks that the overflow destages more than one
  // inner segment's worth (provenance is attributed when a segment seals).
  for (u64 i = 0; i < 160; ++i) twrite(tier, i, i * 10, /*comp_pct=*/50);
  const TierStats& ts = tier.tier_stats();
  EXPECT_GT(ts.destage_blocks, 0u);
  // Destaged blocks stay resident (clean), they are not evicted.
  EXPECT_EQ(tier.resident_blocks(), 160u);
  EXPECT_LT(tier.dirty_blocks(), 160u);
  EXPECT_LE(tier.dirty_compressed_bytes(),
            tc.budget_bytes / 100 * tc.dirty_pct);
  // The write-back really landed below, attributed to its own cause.
  EXPECT_GT(rig.cache->provenance().cause_bytes(obs::WriteCause::kTierDestage),
            0u);
  EXPECT_NE(rig.cache->residence(0), src::SrcCache::Residence::kAbsent);
}

TEST(TierCache, BudgetEnforcementEvictsToTheCompressedBound) {
  Rig rig;
  TierConfig tc = small_tier(/*budget_blocks=*/32);
  TierCache tier(tc, rig.cache.get(), rig.cache.get());
  for (u64 i = 0; i < 256; ++i) {
    twrite(tier, i * 10, i, /*comp_pct=*/50);
    EXPECT_LE(tier.resident_compressed_bytes(), tc.budget_bytes) << i;
  }
  EXPECT_GT(tier.tier_stats().evict_blocks, 0u);
  // At 50% compressibility the budget holds ~2x its incompressible block
  // count.
  EXPECT_GT(tier.resident_blocks(), 32u);
}

TEST(TierCache, FlushDestagesEveryDirtyBlock) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  for (u64 i = 0; i < 12; ++i) twrite(tier, i * 10, i, /*comp_pct=*/50);
  ASSERT_EQ(tier.dirty_blocks(), 12u);
  tier.flush(1000);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.dirty_compressed_bytes(), 0u);
  EXPECT_EQ(tier.resident_blocks(), 12u);  // still cached, just clean
  EXPECT_EQ(tier.tier_stats().destage_blocks, 12u);
}

TEST(TierCache, PowerCutLosesDirtyBlocksAndLedgersEveryOne) {
  Rig rig;
  fault::FaultLedger ledger;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  tier.set_fault_ledger(&ledger);
  for (u64 i = 0; i < 10; ++i) twrite(tier, i * 10, i, /*comp_pct=*/50);
  tier.flush(500);                                         // all clean now
  for (u64 i = 10; i < 14; ++i) twrite(tier, i * 100, i, /*comp_pct=*/50);
  ASSERT_EQ(tier.dirty_blocks(), 4u);
  tier.on_power_cut(2000);
  // DRAM is empty; exactly the dirty blocks were lost, each one ledgered as
  // an injected fault that was immediately detected — never silent.
  EXPECT_EQ(tier.resident_blocks(), 0u);
  EXPECT_EQ(tier.resident_compressed_bytes(), 0u);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().lost_dirty_blocks, 4u);
  EXPECT_EQ(ledger.injected(), 4u);
  EXPECT_EQ(ledger.detected(), 4u);
  EXPECT_TRUE(ledger.reconciles());
}

TEST(TierCache, ReadMissFillsAreAdmittedClean) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  // LBAs never written: the inner cache fetches from primary, the tier
  // admits the fill clean.
  tread(tier, 0, 5000, /*comp_pct=*/50, 8);
  EXPECT_EQ(tier.resident_blocks(), 8u);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().miss_blocks, 8u);
  // The same read again is now all tier hits.
  tread(tier, 1, 5000, /*comp_pct=*/50, 8);
  EXPECT_EQ(tier.tier_stats().hit_blocks, 8u);
}

TEST(TierCache, IncompressibleReadsAreNeverAdmitted) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  tread(tier, 0, 5000, /*comp_pct=*/100, 4);
  EXPECT_EQ(tier.resident_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().bypass_blocks, 4u);
}

TEST(TierCache, GenericInnerCacheWorksWithoutSrcHooks) {
  // With src == nullptr destages forward as plain writes and clean
  // evictions drop — the tier must not require SrcCache.
  Rig rig;
  TierConfig tc = small_tier(/*budget_blocks=*/8);
  tc.dirty_pct = 25;
  TierCache tier(tc, rig.cache.get(), /*src=*/nullptr);
  for (u64 i = 0; i < 64; ++i) twrite(tier, i * 10, i, /*comp_pct=*/50);
  EXPECT_GT(tier.tier_stats().destage_blocks, 0u);
  EXPECT_GT(rig.cache->stats().app_write_blocks, 0u);
  EXPECT_EQ(tier.tier_stats().demote_blocks, 0u);
  EXPECT_LE(tier.resident_compressed_bytes(), tc.budget_bytes);
}

// --- differential test against the O(resident) write-back walk ------------

// Inner cache that records every block written to it, in order, and serves
// reads from what it holds (unknown blocks miss with a derived tag).
class RecordingCache final : public cache::CacheDevice {
 public:
  sim::SimTime submit(const cache::AppRequest& r) override {
    for (u32 i = 0; i < r.nblocks; ++i) {
      const u64 lba = r.lba + i;
      auto it = held_.find(lba);
      if (r.is_write) {
        writes.push_back(lba);
        if (it != held_.end()) {
          stats_.write_hit_blocks++;
        } else {
          stats_.write_new_blocks++;
        }
        held_[lba] = r.tags != nullptr ? r.tags[i] : 0;
      } else {
        const bool hit = it != held_.end();
        if (hit) {
          stats_.read_hit_blocks++;
        } else {
          stats_.read_miss_blocks++;
        }
        if (r.tags_out != nullptr) r.tags_out[i] = hit ? it->second : ~lba;
      }
    }
    return r.now + 7 * r.nblocks;
  }
  sim::SimTime flush(sim::SimTime now) override { return now + 3; }
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return held_.size(); }

  std::vector<u64> writes;

 private:
  std::unordered_map<u64, u64> held_;
  cache::CacheStats stats_;
};

// TierCache as it was before the dirty-order index, reduced to the generic
// inner-cache paths: every write-back walks the FIFO from the front. The
// differential test requires TierCache to match it exactly.
class RefTier {
 public:
  RefTier(const TierConfig& cfg, cache::CacheDevice* inner)
      : cfg_(cfg), inner_(inner) {
    eviction_ =
        policy::make_eviction(cfg_.eviction, cfg_.budget_bytes / kBlockSize);
    compress_ns_ = static_cast<sim::SimTime>(cfg_.cpu_ns_per_byte *
                                             static_cast<double>(kBlockSize));
    decompress_ns_ = compress_ns_ / 2;
  }

  sim::SimTime submit(const cache::AppRequest& r) {
    return r.is_write ? do_write(r) : do_read(r);
  }

  sim::SimTime flush(sim::SimTime now) {
    stats.app_flushes++;
    sim::SimTime done = now;
    for (u64 lba : fifo_) {
      Entry& e = map_.at(lba);
      if (e.dirty) done = std::max(done, take(now, lba, e));
    }
    done = std::max(done, drain(now));
    return std::max(done, inner_->flush(now));
  }

  void on_power_cut() {
    for (u64 lba : fifo_) {
      if (map_.at(lba).dirty) tstats.lost_dirty_blocks++;
      eviction_->on_evict(lba);
    }
    tstats.evict_blocks += map_.size();
    map_.clear();
    fifo_.clear();
    resident_ = dirty_ = dirty_blocks = 0;
  }

  TierStats tstats;
  cache::CacheStats stats;
  u64 dirty_blocks = 0;

 private:
  struct Entry {
    u64 tag = 0;
    std::list<u64>::iterator pos;
    u32 csize = 0;
    u16 tenant = 0;
    bool dirty = false;
    bool hot = false;
  };

  u32 csize_of(u8 pct) const {
    const u32 p = pct == 0 ? 100 : std::min<u32>(pct, 100);
    return std::max<u32>(1, static_cast<u32>(kBlockSize) * p / 100);
  }

  void admit(u64 lba, u64 tag, u16 tenant, u32 csize, bool dirty) {
    Entry e;
    e.tag = tag;
    e.csize = csize;
    e.tenant = tenant;
    e.dirty = dirty;
    fifo_.push_back(lba);
    e.pos = std::prev(fifo_.end());
    map_.emplace(lba, e);
    resident_ += csize;
    if (dirty) {
      dirty_ += csize;
      dirty_blocks++;
    }
    tstats.admit_blocks++;
    tstats.uncompressed_bytes += kBlockSize;
    tstats.compressed_bytes += csize;
    eviction_->on_admit(lba);
  }

  void remove(u64 lba, Entry& e) {
    resident_ -= e.csize;
    if (e.dirty) {
      dirty_ -= e.csize;
      dirty_blocks--;
    }
    fifo_.erase(e.pos);
    map_.erase(lba);
    tstats.evict_blocks++;
  }

  // Queues a dirty block for write-back and marks it clean; forwards a full
  // batch.
  sim::SimTime take(sim::SimTime now, u64 lba, Entry& e) {
    lbas_.push_back(lba);
    tags_.push_back(e.tag);
    tenants_.push_back(e.tenant);
    e.dirty = false;
    dirty_ -= e.csize;
    dirty_blocks--;
    return lbas_.size() >= cfg_.destage_batch_blocks ? drain(now) : now;
  }

  sim::SimTime drain(sim::SimTime now) {
    sim::SimTime done = now;
    for (size_t i = 0; i < lbas_.size(); ++i) {
      cache::AppRequest w;
      w.now = now;
      w.is_write = true;
      w.lba = lbas_[i];
      w.tenant = tenants_[i];
      w.tags = &tags_[i];
      done = std::max(done, inner_->submit(w));
    }
    tstats.destage_blocks += lbas_.size();
    stats.destage_blocks += lbas_.size();
    lbas_.clear();
    tags_.clear();
    tenants_.clear();
    return done;
  }

  sim::SimTime enforce_dirty_bound(sim::SimTime now) {
    const u64 limit = cfg_.budget_bytes / 100 * cfg_.dirty_pct;
    if (dirty_ <= limit) return now;
    sim::SimTime done = now;
    for (auto it = fifo_.begin(); it != fifo_.end() && dirty_ > limit; ++it) {
      Entry& e = map_.at(*it);
      if (e.dirty) done = std::max(done, take(now, *it, e));
    }
    return std::max(done, drain(now));
  }

  sim::SimTime enforce_budget(sim::SimTime now) {
    if (resident_ <= cfg_.budget_bytes) return now;
    sim::SimTime done = now;
    size_t walked = 0;
    const size_t pass = fifo_.size();
    while (resident_ > cfg_.budget_bytes && !fifo_.empty()) {
      const u64 lba = fifo_.front();
      Entry& e = map_.at(lba);
      const bool keep =
          walked < pass && eviction_->keep_on_gc(lba, e.hot, e.dirty);
      ++walked;
      if (keep) {
        e.hot = false;
        fifo_.pop_front();
        fifo_.push_back(lba);
        e.pos = std::prev(fifo_.end());
        continue;
      }
      if (walked > pass) eviction_->on_evict(lba);
      if (e.dirty) {
        lbas_.push_back(lba);
        tags_.push_back(e.tag);
        tenants_.push_back(e.tenant);
        if (lbas_.size() >= cfg_.destage_batch_blocks)
          done = std::max(done, drain(now));
      } else {
        tstats.drop_blocks++;
      }
      remove(lba, e);
    }
    return std::max(done, drain(now));
  }

  sim::SimTime do_write(const cache::AppRequest& req) {
    const sim::SimTime now = req.now;
    stats.app_write_ops++;
    stats.app_write_blocks += req.nblocks;
    const u32 csize = csize_of(req.comp_pct);
    const bool incompressible =
        req.comp_pct == 0 || req.comp_pct > cfg_.incompressible_pct;
    sim::SimTime ack = now;
    sim::SimTime cpu = 0;
    std::vector<u64> bl, bt;
    for (u32 i = 0; i < req.nblocks; ++i) {
      const u64 lba = req.lba + i;
      const u64 tag = req.tags != nullptr
                          ? req.tags[i]
                          : blockdev::make_tag(lba, ++tag_version_);
      if (incompressible) {
        if (auto it = map_.find(lba); it != map_.end()) {
          eviction_->on_evict(lba);
          tstats.drop_blocks++;
          remove(lba, it->second);
        }
        tstats.bypass_blocks++;
        bl.push_back(lba);
        bt.push_back(tag);
        continue;
      }
      cpu += compress_ns_;
      if (auto it = map_.find(lba); it != map_.end()) {
        Entry& e = it->second;
        stats.write_hit_blocks++;
        resident_ = resident_ - e.csize + csize;
        if (e.dirty) {
          dirty_ = dirty_ - e.csize + csize;
        } else {
          dirty_ += csize;
          dirty_blocks++;
          e.dirty = true;
        }
        e.csize = csize;
        e.tag = tag;
        e.tenant = static_cast<u16>(req.tenant);
        e.hot = true;
        eviction_->on_access(lba);
      } else {
        stats.write_new_blocks++;
        admit(lba, tag, static_cast<u16>(req.tenant), csize, true);
      }
    }
    const u64 hit0 = inner_->stats().write_hit_blocks;
    for (size_t i = 0; i < bl.size();) {
      size_t j = i + 1;
      while (j < bl.size() && bl[j] == bl[j - 1] + 1) ++j;
      cache::AppRequest w;
      w.now = now;
      w.is_write = true;
      w.lba = bl[i];
      w.nblocks = static_cast<u32>(j - i);
      w.tenant = req.tenant;
      w.comp_pct = req.comp_pct;
      w.tags = &bt[i];
      ack = std::max(ack, inner_->submit(w));
      i = j;
    }
    if (!bl.empty()) {
      const u64 hits = inner_->stats().write_hit_blocks - hit0;
      stats.write_hit_blocks += hits;
      stats.write_new_blocks += bl.size() - hits;
    }
    tstats.cpu_compress_ns += static_cast<u64>(cpu);
    ack = std::max(ack, enforce_dirty_bound(now));
    ack = std::max(ack, enforce_budget(now));
    return ack + cpu;
  }

  sim::SimTime do_read(const cache::AppRequest& req) {
    const sim::SimTime now = req.now;
    stats.app_read_ops++;
    stats.app_read_blocks += req.nblocks;
    const u32 csize = csize_of(req.comp_pct);
    const bool compressible =
        req.comp_pct != 0 && req.comp_pct <= cfg_.incompressible_pct;
    sim::SimTime ack = now;
    sim::SimTime cpu = 0;
    std::vector<u64> out(req.nblocks, 0);
    u32 admits = 0;
    for (u32 k = 0; k < req.nblocks;) {
      const u64 lba = req.lba + k;
      if (auto it = map_.find(lba); it != map_.end()) {
        tstats.hit_blocks++;
        stats.read_hit_blocks++;
        cpu += decompress_ns_;
        out[k] = it->second.tag;
        it->second.hot = true;
        eviction_->on_access(lba);
        ++k;
        continue;
      }
      u32 run = 1;
      while (k + run < req.nblocks && !map_.contains(req.lba + k + run)) ++run;
      const u64 miss0 = inner_->stats().read_miss_blocks;
      cache::AppRequest sub;
      sub.now = now;
      sub.lba = lba;
      sub.nblocks = run;
      sub.tenant = req.tenant;
      sub.comp_pct = req.comp_pct;
      sub.tags_out = out.data() + k;
      ack = std::max(ack, inner_->submit(sub));
      const u64 misses =
          std::min<u64>(inner_->stats().read_miss_blocks - miss0, run);
      tstats.miss_blocks += run;
      stats.read_miss_blocks += misses;
      stats.read_hit_blocks += run - misses;
      for (u32 r = 0; r < run; ++r) {
        const u64 l = lba + r;
        if (!compressible) {
          tstats.bypass_blocks++;
          continue;
        }
        if (map_.contains(l)) continue;
        stats.fetch_blocks++;
        admit(l, out[k + r], static_cast<u16>(req.tenant), csize, false);
        ++admits;
        cpu += compress_ns_;
      }
      k += run;
    }
    tstats.cpu_decompress_ns += static_cast<u64>(cpu - compress_ns_ * admits);
    tstats.cpu_compress_ns += static_cast<u64>(compress_ns_ * admits);
    ack = std::max(ack, enforce_budget(now));
    return ack + cpu;
  }

  TierConfig cfg_;
  cache::CacheDevice* inner_;
  std::unique_ptr<policy::EvictionPolicy> eviction_;
  std::unordered_map<u64, Entry> map_;
  std::list<u64> fifo_;
  std::vector<u64> lbas_, tags_;
  std::vector<u16> tenants_;
  u64 resident_ = 0, dirty_ = 0, tag_version_ = 0;
  sim::SimTime compress_ns_ = 0, decompress_ns_ = 0;
};

// One seeded stream, replayed through TierCache and RefTier over separate
// recording inner caches. Mixes new writes, overwrites of blocks already
// written back (stragglers behind the cursor), incompressible overwrites
// (tombstones), reads, flushes and power cuts; the budget forces second-
// chance requeues. Destage order, stats and completion times must match
// after every request.
void run_differential(policy::EvictionKind kind, u64 budget_blocks,
                      u64 lba_space, u32 dirty_pct, u64 seed) {
  TierConfig tc;
  tc.budget_bytes = budget_blocks * kBlockSize;
  tc.dirty_pct = dirty_pct;
  tc.destage_batch_blocks = 5;
  tc.eviction = kind;
  RecordingCache inner_new, inner_ref;
  TierCache tier(tc, &inner_new, /*src=*/nullptr);
  RefTier ref(tc, &inner_ref);
  common::Xoshiro256 rng(seed);
  u64 next_new = 0;
  std::vector<u64> tags(4);
  for (u64 op = 0; op < 20000; ++op) {
    cache::AppRequest r;
    r.now = op * 1000;
    r.nblocks = static_cast<u32>(rng.below(4)) + 1;
    r.tenant = static_cast<u32>(rng.below(3));
    r.comp_pct = static_cast<u8>(rng.range(20, 90));
    const double pick = rng.uniform();
    if (pick < 0.0005) {
      tier.on_power_cut(r.now);
      ref.on_power_cut();
      continue;
    }
    if (pick < 0.003) {
      ASSERT_EQ(tier.flush(r.now), ref.flush(r.now)) << "flush at op " << op;
      continue;
    }
    if (pick < 0.25) {
      r.lba = next_new % lba_space;  // new (or long-evicted) blocks
      next_new += r.nblocks;
      r.is_write = true;
    } else if (pick < 0.55) {
      // Overwrite something already written back: the straggler path.
      const auto& w = inner_new.writes;
      const u64 back = rng.below(std::min<u64>(w.size(), 64) + 1);
      r.lba = back == 0 || w.empty() ? rng.below(lba_space)
                                     : w[w.size() - back];
      r.is_write = true;
    } else if (pick < 0.70) {
      r.lba = rng.below(lba_space);
      r.is_write = true;
      r.comp_pct = rng.chance(0.5) ? 0 : 100;  // incompressible: tombstone
    } else if (pick < 0.80) {
      r.lba = rng.below(lba_space);
      r.is_write = true;
    } else {
      r.lba = rng.below(lba_space);
    }
    if (r.is_write && rng.chance(0.5)) {
      for (u32 i = 0; i < r.nblocks; ++i) tags[i] = rng.next();
      r.tags = tags.data();
    }
    ASSERT_EQ(tier.submit(r), ref.submit(r)) << "op " << op;
    ASSERT_EQ(inner_new.writes, inner_ref.writes) << "op " << op;
    ASSERT_EQ(tier.tier_stats(), ref.tstats) << "op " << op;
    ASSERT_EQ(tier.stats(), ref.stats) << "op " << op;
    ASSERT_EQ(tier.dirty_blocks(), ref.dirty_blocks) << "op " << op;
  }
  // The stream must really have exercised write-back and eviction.
  EXPECT_GT(tier.tier_stats().destage_blocks, 1000u);
  EXPECT_GT(tier.tier_stats().evict_blocks, 1000u);
}

TEST(TierCache, DirtyOrderIndexMatchesFullWalkUnderEveryPolicy) {
  for (const auto kind : {policy::EvictionKind::kPaper,
                          policy::EvictionKind::kS3Fifo,
                          policy::EvictionKind::kSieve}) {
    SCOPED_TRACE(static_cast<int>(kind));
    run_differential(kind, /*budget_blocks=*/48, /*lba_space=*/600,
                     /*dirty_pct=*/30, 11);
    if (HasFatalFailure()) return;
  }
}

TEST(TierCache, DirtyOrderIndexMatchesFullWalkWithTheBudgetRarelyFull) {
  // A budget larger than most of the working set: the FIFO front seldom
  // moves, so incompressible overwrites pile tombstones up in the middle
  // until the FIFO is compacted. With a loose dirty bound, stragglers
  // collect between write-backs and must survive the compaction.
  for (const u32 dirty_pct : {30u, 90u}) {
    SCOPED_TRACE(dirty_pct);
    run_differential(policy::EvictionKind::kPaper, /*budget_blocks=*/400,
                     /*lba_space=*/300, dirty_pct, 12);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace srcache::tier
