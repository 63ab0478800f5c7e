// BcacheLike: a model of Bcache at the level the paper analyses it (§3.1,
// Table 5):
//  * bucket-based log layout (2 MiB buckets): writes append sequentially
//    into the open bucket;
//  * write-back: dirty data is written to the cache, then the metadata is
//    journaled **with a flush command** — group-committed like the real
//    B+tree journal, and the dominant cost on commodity SSDs;
//  * clean-data metadata stays in memory only (clean contents are lost on
//    restart);
//  * writeback_percent: destaging starts immediately once the dirty ratio
//    exceeds the threshold;
//  * application flushes are honored (forwarded to the devices).
#pragma once

#include <deque>
#include <vector>

#include "block/block_device.hpp"
#include "cache/cache_device.hpp"
#include "common/lba_map.hpp"

namespace srcache::baselines {

using blockdev::BlockDevice;
using sim::SimTime;

struct BcacheConfig {
  u64 cache_blocks = 0;
  u32 bucket_blocks = 512;  // 2 MiB default
  double writeback_percent = 0.10;
  bool write_back = true;   // false = write-through (Table 2)
  bool flush_on_commit = true;  // issue flush with every journal commit
  u32 destage_batch = 32;
  u32 journal_blocks = 256;  // rotating journal region
};

class BcacheLike final : public cache::CacheDevice {
 public:
  BcacheLike(const BcacheConfig& cfg, BlockDevice* ssd, BlockDevice* primary);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] double dirty_ratio() const {
    return static_cast<double>(dirty_count_) /
           static_cast<double>(cfg_.cache_blocks);
  }

 private:
  struct Entry {
    u64 block = 0;  // location on the cache device
    bool dirty = false;
  };
  struct Bucket {
    u32 fill = 0;   // blocks appended so far
    u32 live = 0;
    u64 alloc_seq = 0;
    std::vector<u64> lbas;  // inserted lbas (validated against map_ on use)
  };

  // Appends `n` blocks to the log; returns the first device block and the
  // completion of the involved writes.
  u64 append(SimTime now, u64 lba0, u32 n, const u64* tags, SimTime* done);
  u64 take_bucket(SimTime now, SimTime* done);
  SimTime reclaim_bucket(SimTime now, u64 bucket);
  SimTime destage_some(SimTime now, u32 max_blocks);
  SimTime destage_lba(SimTime now, u64 lba);
  // Group-committed journal write (+flush); returns the ack time for a
  // request joining the commit at `now`.
  SimTime journal_commit(SimTime now);

  BcacheConfig cfg_;
  BlockDevice* ssd_;
  BlockDevice* primary_;
  std::vector<Bucket> buckets_;
  std::deque<u64> free_buckets_;
  u64 open_bucket_ = ~0ull;
  common::LbaMap<Entry> map_;
  std::deque<u64> dirty_fifo_;
  u64 dirty_count_ = 0;
  u64 alloc_seq_ = 0;
  u64 journal_base_;
  u32 journal_cursor_ = 0;
  SimTime commit_inflight_done_ = 0;  // commit currently on the device
  SimTime commit_pending_done_ = 0;   // group commit queued behind it
  u64 tag_seq_ = 0;
  cache::CacheStats stats_;
};

}  // namespace srcache::baselines
