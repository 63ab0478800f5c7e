#include "baselines/bcache_like.hpp"

#include <algorithm>
#include <stdexcept>

namespace srcache::baselines {

BcacheLike::BcacheLike(const BcacheConfig& cfg, BlockDevice* ssd,
                       BlockDevice* primary)
    : cfg_(cfg), ssd_(ssd), primary_(primary) {
  if (cfg_.cache_blocks == 0 || cfg_.bucket_blocks == 0)
    throw std::invalid_argument("Bcache: empty cache");
  cfg_.cache_blocks -= cfg_.cache_blocks % cfg_.bucket_blocks;
  journal_base_ = cfg_.cache_blocks;
  if (ssd_->capacity_blocks() < journal_base_ + cfg_.journal_blocks)
    throw std::invalid_argument("Bcache: device too small for journal");
  const u64 n = cfg_.cache_blocks / cfg_.bucket_blocks;
  buckets_.resize(n);
  for (u64 b = 0; b < n; ++b) free_buckets_.push_back(b);
}

u64 BcacheLike::take_bucket(SimTime now, SimTime* done) {
  if (free_buckets_.empty()) {
    // Invalidate the LRU bucket (oldest allocation), destaging its dirty
    // blocks first (§3.1).
    u64 victim = ~0ull;
    for (u64 b = 0; b < buckets_.size(); ++b) {
      if (b == open_bucket_ || buckets_[b].fill == 0) continue;
      if (victim == ~0ull || buckets_[b].alloc_seq < buckets_[victim].alloc_seq)
        victim = b;
    }
    if (victim == ~0ull)
      throw std::logic_error("Bcache: no reclaimable bucket");
    *done = std::max(*done, reclaim_bucket(now, victim));
  }
  const u64 b = free_buckets_.front();
  free_buckets_.pop_front();
  buckets_[b].fill = 0;
  buckets_[b].live = 0;
  buckets_[b].lbas.clear();
  buckets_[b].alloc_seq = ++alloc_seq_;
  return b;
}

SimTime BcacheLike::reclaim_bucket(SimTime now, u64 bucket) {
  Bucket& bk = buckets_[bucket];
  SimTime t = now;
  bool journaled = false;
  for (u64 lba : bk.lbas) {
    const Entry* e = map_.find(lba);
    if (e == nullptr) continue;
    if (e->block / cfg_.bucket_blocks != bucket) continue;  // moved since
    if (e->dirty) {
      t = std::max(t, destage_lba(now, lba));
      journaled = true;
    } else {
      stats_.dropped_clean_blocks++;
    }
    map_.erase(lba);
  }
  if (journaled) t = std::max(t, journal_commit(t));
  bk.fill = 0;
  bk.live = 0;
  bk.lbas.clear();
  free_buckets_.push_back(bucket);
  return t;
}

SimTime BcacheLike::destage_lba(SimTime now, u64 lba) {
  Entry* e = map_.find(lba);
  if (e == nullptr || !e->dirty) return now;
  u64 tag = 0;
  auto r = ssd_->read(now, e->block, 1, std::span<u64>(&tag, 1));
  SimTime t = r.ok() ? r.done : now;
  auto w = primary_->write(t, lba, 1, std::span<const u64>(&tag, 1));
  if (w.ok()) t = w.done;
  e->dirty = false;
  dirty_count_--;
  stats_.destage_blocks++;
  return t;
}

SimTime BcacheLike::destage_some(SimTime now, u32 max_blocks) {
  // Like the real writeback thread, victims are processed in disk-offset
  // order (bcache keys its writeback keybuf by backing-device offset), so
  // contiguous dirty blocks merge into single primary writes.
  std::vector<u64> batch;
  while (batch.size() < max_blocks &&
         dirty_ratio() > cfg_.writeback_percent && !dirty_fifo_.empty()) {
    const u64 lba = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    const Entry* e = map_.find(lba);
    if (e == nullptr || !e->dirty) continue;  // stale entry
    batch.push_back(lba);
  }
  if (batch.empty()) return now;
  std::sort(batch.begin(), batch.end());
  primary_->set_background(true);  // the writeback thread yields to misses
  SimTime t = now;  // SSD-side time only; background writes do not block
  size_t i = 0;
  while (i < batch.size()) {
    size_t j = i + 1;
    while (j < batch.size() && batch[j] == batch[j - 1] + 1) ++j;
    // Read the run from the cache device, write it to primary storage.
    SimTime rt = now;
    std::vector<u64> tags(j - i, 0);
    for (size_t k = i; k < j; ++k) {
      Entry& e = map_.at(batch[k]);
      auto r = ssd_->read(now, e.block, 1, std::span<u64>(&tags[k - i], 1));
      if (r.ok()) rt = std::max(rt, r.done);
      e.dirty = false;
      dirty_count_--;
      stats_.destage_blocks++;
    }
    t = std::max(t, rt);
    primary_->write(rt, batch[i], static_cast<u32>(j - i),
                    std::span<const u64>(tags.data(), tags.size()));
    i = j;
  }
  primary_->set_background(false);
  (void)t;  // writeback runs asynchronously; it never gates the app ack
  return std::max(now, journal_commit(now));
}

u64 BcacheLike::append(SimTime now, u64 lba0, u32 n, const u64* tags,
                       SimTime* done) {
  // The log may wrap buckets; for simplicity requests never straddle one:
  // if the open bucket cannot hold the run, it is closed with dead space
  // (bcache similarly allocates whole-extent).
  if (open_bucket_ == ~0ull ||
      buckets_[open_bucket_].fill + n > cfg_.bucket_blocks) {
    open_bucket_ = take_bucket(now, done);
  }
  Bucket& bk = buckets_[open_bucket_];
  const u64 block = open_bucket_ * cfg_.bucket_blocks + bk.fill;
  bk.fill += n;
  bk.live += n;
  auto w = ssd_->write(now, block, n,
                       tags != nullptr ? std::span<const u64>(tags, n)
                                       : std::span<const u64>{});
  if (w.ok()) *done = std::max(*done, w.done);
  for (u32 i = 0; i < n; ++i) bk.lbas.push_back(lba0 + i);
  return block;
}

SimTime BcacheLike::journal_commit(SimTime now) {
  // Group commit: a request arriving while a commit is on the device joins
  // the next one, which starts when the current commit completes. The
  // journal write is a single 4 KiB block followed by a flush — the cost
  // the paper identifies as Bcache's bottleneck (§3.1, Table 2).
  auto do_commit = [&](SimTime start) {
    auto w = ssd_->write(start, journal_base_ + journal_cursor_, 1, {});
    journal_cursor_ = (journal_cursor_ + 1) % cfg_.journal_blocks;
    SimTime t = w.ok() ? w.done : start;
    if (cfg_.flush_on_commit) {
      auto f = ssd_->flush(t);
      if (f.ok()) t = f.done;
    }
    return t;
  };
  if (now >= commit_pending_done_) {
    // Device idle (journal-wise): commit immediately.
    commit_inflight_done_ = do_commit(now);
    commit_pending_done_ = commit_inflight_done_;
    return commit_inflight_done_;
  }
  if (commit_pending_done_ <= commit_inflight_done_) {
    // Join a new group commit queued behind the in-flight one.
    commit_pending_done_ = do_commit(commit_inflight_done_);
  }
  return commit_pending_done_;
}

SimTime BcacheLike::submit(const cache::AppRequest& req) {
  const SimTime now = req.now;
  SimTime done = now;
  if (req.is_write) {
    stats_.app_write_ops++;
    stats_.app_write_blocks += req.nblocks;

    std::vector<u64> tags(req.nblocks);
    for (u32 i = 0; i < req.nblocks; ++i) {
      tags[i] = req.tags != nullptr
                    ? req.tags[i]
                    : blockdev::make_tag(req.lba + i, ++tag_seq_);
    }
    // Invalidate any previous versions, then append the run to the log.
    for (u32 i = 0; i < req.nblocks; ++i) {
      if (const Entry* e = map_.find(req.lba + i); e != nullptr) {
        stats_.write_hit_blocks++;
        buckets_[e->block / cfg_.bucket_blocks].live--;
        if (e->dirty) dirty_count_--;
        map_.erase(req.lba + i);
      } else {
        stats_.write_new_blocks++;
      }
    }
    const u64 block = append(now, req.lba, req.nblocks, tags.data(), &done);
    for (u32 i = 0; i < req.nblocks; ++i) {
      map_[req.lba + i] = Entry{block + i, cfg_.write_back};
      if (cfg_.write_back) {
        dirty_count_++;
        dirty_fifo_.push_back(req.lba + i);
      }
    }
    if (cfg_.write_back) {
      // Metadata is durable before the ack: journal + flush (§3.1). The
      // commit is joined at arrival time (requests in flight together share
      // a group commit, like the real journal).
      done = std::max(done, journal_commit(now));
      done = std::max(done, destage_some(now, cfg_.destage_batch));
    } else {
      // Write-through with FUA semantics: durable on the spindles.
      auto p = primary_->write(now, req.lba, req.nblocks,
                               std::span<const u64>(tags.data(), tags.size()));
      if (p.ok()) done = std::max(done, p.done);
      auto f = primary_->flush(done);
      if (f.ok()) done = std::max(done, f.done);
    }
    return done;
  }

  // Read path.
  stats_.app_read_ops++;
  stats_.app_read_blocks += req.nblocks;
  struct HitRead {
    u64 block;
    u32 idx;
  };
  std::vector<HitRead> hits;
  std::vector<std::pair<u64, u32>> miss_runs;
  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    if (const Entry* e = map_.find(lba); e != nullptr) {
      stats_.read_hit_blocks++;
      hits.push_back({e->block, i});
    } else {
      stats_.read_miss_blocks++;
      if (!miss_runs.empty() &&
          miss_runs.back().first + miss_runs.back().second == lba) {
        miss_runs.back().second++;
      } else {
        miss_runs.emplace_back(lba, 1);
      }
    }
  }
  // Cache hits: merge contiguous log locations into single reads.
  std::sort(hits.begin(), hits.end(), [](const HitRead& a, const HitRead& b) {
    return a.block < b.block;
  });
  std::vector<u64> buf;
  size_t i = 0;
  while (i < hits.size()) {
    size_t j = i + 1;
    while (j < hits.size() && hits[j].block == hits[j - 1].block + 1) ++j;
    buf.resize(j - i);
    auto r = ssd_->read(now, hits[i].block, static_cast<u32>(j - i),
                        std::span<u64>(buf.data(), buf.size()));
    if (r.ok()) {
      done = std::max(done, r.done);
      if (req.tags_out != nullptr)
        for (size_t k = i; k < j; ++k) req.tags_out[hits[k].idx] = buf[k - i];
    }
    i = j;
  }
  // Misses: fetch and insert as clean data (in-memory metadata only).
  std::vector<u64> fetched;
  for (const auto& [lba, cnt] : miss_runs) {
    fetched.assign(cnt, 0);
    auto r = primary_->read(now, lba, cnt, std::span<u64>(fetched.data(), cnt));
    if (!r.ok()) continue;
    done = std::max(done, r.done);
    stats_.fetch_blocks += cnt;
    if (req.tags_out != nullptr)
      for (u32 k = 0; k < cnt; ++k)
        req.tags_out[lba - req.lba + k] = fetched[k];
    SimTime fill_done = now;  // off the ack path
    const u64 block = append(now, lba, cnt, fetched.data(), &fill_done);
    for (u32 k = 0; k < cnt; ++k) map_[lba + k] = Entry{block + k, false};
  }
  return done;
}

SimTime BcacheLike::flush(SimTime now) {
  // Bcache honors flushes: forward to both devices.
  stats_.app_flushes++;
  SimTime t = now;
  auto f1 = ssd_->flush(now);
  if (f1.ok()) t = std::max(t, f1.done);
  auto f2 = primary_->flush(now);
  if (f2.ok()) t = std::max(t, f2.done);
  return t;
}

}  // namespace srcache::baselines
