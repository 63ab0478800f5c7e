#include "baselines/flashcache_like.hpp"

#include <algorithm>
#include <stdexcept>

namespace srcache::baselines {

FlashcacheLike::FlashcacheLike(const FlashcacheConfig& cfg, BlockDevice* ssd,
                               BlockDevice* primary)
    : cfg_(cfg), ssd_(ssd), primary_(primary) {
  if (cfg_.cache_blocks == 0 || cfg_.set_blocks == 0)
    throw std::invalid_argument("Flashcache: empty cache");
  cfg_.cache_blocks -= cfg_.cache_blocks % cfg_.set_blocks;
  md_base_ = cfg_.cache_blocks;
  const u64 md_blocks = div_ceil(cfg_.cache_blocks, cfg_.md_entries_per_block);
  if (ssd_->capacity_blocks() < md_base_ + md_blocks)
    throw std::invalid_argument("Flashcache: device too small for metadata");
  slots_.resize(cfg_.cache_blocks);
}

u64 FlashcacheLike::set_of(u64 lba) const {
  const u64 num_sets = cfg_.cache_blocks / cfg_.set_blocks;
  // dm-flashcache maps consecutive backing regions to one set
  // (dbn / associativity), preserving spatial locality within a set so
  // per-set destaging can merge neighbouring blocks.
  return (lba / cfg_.set_blocks) % num_sets;
}

SimTime FlashcacheLike::write_metadata(SimTime now, u64 slot) {
  // One 4 KiB metadata-sector write per dirty-data update (§3.1).
  const u64 md_block = md_base_ + slot / cfg_.md_entries_per_block;
  auto r = ssd_->write(now, md_block, 1, {});
  return r.ok() ? r.done : now;
}

SimTime FlashcacheLike::destage_slot(SimTime now, u64 slot) {
  Slot& s = slots_[slot];
  u64 tag = 0;
  auto r = ssd_->read(now, slot, 1, std::span<u64>(&tag, 1));
  SimTime t = r.ok() ? r.done : now;
  auto w = primary_->write(t, s.lba, 1, std::span<const u64>(&tag, 1));
  if (w.ok()) t = w.done;
  stats_.destage_blocks++;
  s.dirty = false;
  dirty_count_--;
  return std::max(t, write_metadata(t, slot));
}

SimTime FlashcacheLike::maybe_trickle_destage(SimTime now, u64 set) {
  // Flashcache cleans the accessed set toward dirty_thresh_pct (per-set
  // accounting, like flashcache_clean_set); it tolerates overshoot rather
  // than blocking the foreground write.
  const u64 base = set * cfg_.set_blocks;
  SimTime t = now;
  // Oldest dirty blocks of the set first.
  std::vector<u64> dirty;
  for (u64 i = base; i < base + cfg_.set_blocks; ++i)
    if (slots_[i].lba != kInvalid && slots_[i].dirty) dirty.push_back(i);
  if (static_cast<double>(dirty.size()) <=
      cfg_.dirty_thresh_pct * static_cast<double>(cfg_.set_blocks)) {
    return now;
  }
  std::sort(dirty.begin(), dirty.end(), [&](u64 a, u64 b) {
    return slots_[a].tick < slots_[b].tick;
  });
  dirty.resize(std::min<size_t>(dirty.size(), cfg_.destage_batch));
  primary_->set_background(true);  // kcached-style background cleaner
  // Write back in dbn order: the set holds a contiguous backing region, so
  // sorted victims merge into few primary writes.
  std::sort(dirty.begin(), dirty.end(),
            [&](u64 a, u64 b) { return slots_[a].lba < slots_[b].lba; });
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() &&
           slots_[dirty[j]].lba == slots_[dirty[j - 1]].lba + 1) {
      ++j;
    }
    std::vector<u64> tags(j - i, 0);
    SimTime rt = now;
    for (size_t k = i; k < j; ++k) {
      auto r = ssd_->read(now, dirty[k], 1, std::span<u64>(&tags[k - i], 1));
      if (r.ok()) rt = std::max(rt, r.done);
      Slot& s = slots_[dirty[k]];
      s.dirty = false;
      dirty_count_--;
      stats_.destage_blocks++;
      t = std::max(t, write_metadata(now, dirty[k]));
    }
    // Background lane: the cleaner's primary writes never gate foreground.
    primary_->write(rt, slots_[dirty[i]].lba, static_cast<u32>(j - i),
                    std::span<const u64>(tags.data(), tags.size()));
    i = j;
  }
  primary_->set_background(false);
  (void)t;  // kcached-style cleaner: asynchronous, never gates the app ack
  return now;
}

u64 FlashcacheLike::allocate_slot(SimTime now, u64 lba, SimTime* done) {
  const u64 set = set_of(lba);
  const u64 base = set * cfg_.set_blocks;
  u64 victim = kInvalid;
  // Prefer an invalid slot, then the LRU clean slot, then the LRU dirty.
  u64 best_clean = kInvalid, best_dirty = kInvalid;
  for (u64 i = base; i < base + cfg_.set_blocks; ++i) {
    Slot& s = slots_[i];
    if (s.lba == kInvalid) {
      victim = i;
      break;
    }
    if (!s.dirty) {
      if (best_clean == kInvalid || s.tick < slots_[best_clean].tick)
        best_clean = i;
    } else {
      if (best_dirty == kInvalid || s.tick < slots_[best_dirty].tick)
        best_dirty = i;
    }
  }
  if (victim == kInvalid) victim = best_clean;
  if (victim == kInvalid) {
    victim = best_dirty;
    *done = std::max(*done, destage_slot(now, victim));
  }
  Slot& s = slots_[victim];
  if (s.lba != kInvalid) {
    map_.erase(s.lba);
    if (!s.dirty) stats_.dropped_clean_blocks++;
  }
  s = Slot{};
  s.lba = lba;
  s.tick = ++tick_;
  map_[lba] = victim;
  return victim;
}

SimTime FlashcacheLike::submit(const cache::AppRequest& req) {
  const SimTime now = req.now;
  SimTime done = now;
  if (req.is_write) {
    stats_.app_write_ops++;
    stats_.app_write_blocks += req.nblocks;
  } else {
    stats_.app_read_ops++;
    stats_.app_read_blocks += req.nblocks;
  }

  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    const u64* cached = map_.find(lba);
    if (req.is_write) {
      const u64 tag = req.tags != nullptr ? req.tags[i]
                                          : blockdev::make_tag(lba, ++tick_);
      u64 slot;
      if (cached != nullptr) {
        stats_.write_hit_blocks++;
        slot = *cached;
        slots_[slot].tick = ++tick_;
      } else {
        stats_.write_new_blocks++;
        slot = allocate_slot(now, lba, &done);
      }
      Slot& s = slots_[slot];
      s.tag = tag;
      auto w = ssd_->write(now, slot, 1, std::span<const u64>(&tag, 1));
      if (w.ok()) done = std::max(done, w.done);
      if (cfg_.write_back) {
        if (!s.dirty) {
          s.dirty = true;
          dirty_count_++;
        }
        done = std::max(done, write_metadata(now, slot));
        done = std::max(done, maybe_trickle_destage(now, set_of(lba)));
      } else {
        // Write-through: the write must be durable on primary before the
        // ack (FUA semantics), so the target's volatile cache cannot
        // absorb it.
        auto p = primary_->write(now, lba, 1, std::span<const u64>(&tag, 1));
        if (p.ok()) done = std::max(done, p.done);
        auto f = primary_->flush(done);
        if (f.ok()) done = std::max(done, f.done);
      }
    } else {  // read
      if (cached != nullptr) {
        stats_.read_hit_blocks++;
        const u64 slot = *cached;
        slots_[slot].tick = ++tick_;
        u64 tag = 0;
        auto r = ssd_->read(now, slot, 1, std::span<u64>(&tag, 1));
        if (r.ok()) done = std::max(done, r.done);
        if (req.tags_out != nullptr) req.tags_out[i] = tag;
      } else {
        stats_.read_miss_blocks++;
        u64 tag = 0;
        auto r = primary_->read(now, lba, 1, std::span<u64>(&tag, 1));
        if (r.ok()) done = std::max(done, r.done);
        stats_.fetch_blocks++;
        if (req.tags_out != nullptr) req.tags_out[i] = tag;
        // Load into the cache: a clean-data write plus an in-memory
        // metadata update only (§3.1).
        const u64 slot = allocate_slot(now, lba, &done);
        slots_[slot].tag = tag;
        ssd_->write(now, slot, 1, std::span<const u64>(&tag, 1));
      }
    }
  }
  return done;
}

SimTime FlashcacheLike::flush(SimTime now) {
  // Flashcache acknowledges flushes immediately without forwarding them —
  // fast but vulnerable to file-system inconsistency (§3.1).
  stats_.app_flushes++;
  return now;
}

}  // namespace srcache::baselines
