// Free-space reclamation (§4.2): S2D destaging vs Sel-GC selective copying.
#include <algorithm>

#include "common/crc32c.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::src {

using obs::WriteCause;

u32 SrcCache::pick_victim() const {
  u32 best = kBufferSg;
  for (u32 s = 0; s < sgs_.size(); ++s) {
    if (sgs_[s].state != SgState::kSealed) continue;
    if (best == kBufferSg) {
      best = s;
      continue;
    }
    switch (cfg_.victim) {
      case VictimPolicy::kFifo:
        if (sgs_[s].seal_seq < sgs_[best].seal_seq) best = s;
        break;
      case VictimPolicy::kGreedy:  // least-utilized SG, FIFO tie-break
        // reclaimable_live prices over-quota tenants' blocks as garbage, so
        // GC gravitates to SGs rich in blocks the partitioner wants gone.
        if (reclaimable_live(sgs_[s]) < reclaimable_live(sgs_[best]) ||
            (reclaimable_live(sgs_[s]) == reclaimable_live(sgs_[best]) &&
             sgs_[s].seal_seq < sgs_[best].seal_seq)) {
          best = s;
        }
        break;
      case VictimPolicy::kCostBenefit: {
        // LFS cost-benefit: maximize age x (1 - u) / (1 + u). Older, less
        // utilized groups win; young hot groups get time to decay.
        auto score = [&](u32 g) {
          const double cap = static_cast<double>(
              cfg_.segments_per_sg() * cfg_.segment_data_slots(true));
          const double u =
              static_cast<double>(reclaimable_live(sgs_[g])) / cap;
          const double age =
              static_cast<double>(seal_seq_ - sgs_[g].seal_seq + 1);
          return age * (1.0 - u) / (1.0 + u);
        };
        if (score(s) > score(best)) best = s;
        break;
      }
    }
  }
  return best;
}

SimTime SrcCache::ensure_free_sg(SimTime now) {
  SimTime t = now;
  while (free_sgs_.size() <= cfg_.free_sg_reserve) {
    const size_t before = free_sgs_.size();
    t = std::max(t, reclaim_one(now, /*force_s2d=*/false));
    if (free_sgs_.size() == before) break;  // nothing reclaimable
  }
  return t;
}

SimTime SrcCache::reclaim_one(SimTime now, bool force_s2d) {
  const u32 v = pick_victim();
  if (v == kBufferSg) return now;

  // Sel-GC policy decision (§4.2): below UMAX keep hot data with
  // SSD-to-SSD copies; above it, destage to make real room. A nearly-full
  // victim is also destaged — copying it would reclaim no space.
  u64 victim_slots = 0;
  for (u32 g = 0; g < sgs_[v].next_seg; ++g)
    victim_slots += sgs_[v].segs[g].slot_lba.size();
  const bool victim_nearly_full =
      victim_slots > 0 &&
      static_cast<double>(sgs_[v].live) >
          0.95 * static_cast<double>(victim_slots);
  const bool use_s2d = force_s2d || cfg_.gc == GcPolicy::kS2D ||
                       utilization() > cfg_.umax || victim_nearly_full;
  extra_.sg_reclaims++;
  if (use_s2d) extra_.s2d_reclaims++; else extra_.s2s_reclaims++;

  SgInfo& sg = sgs_[v];
  sg.state = SgState::kReclaiming;  // not selectable by nested reclaims
  const bool was_in_gc = in_gc_;
  in_gc_ = true;
  SimTime t = now;
  const u32 reclaim_span = (span_ != nullptr && span_->sampling())
                               ? span_->begin_span("src.reclaim", now)
                               : obs::kNoSpan;
  if (reclaim_span != obs::kNoSpan)
    span_->event(use_s2d ? "src.reclaim_s2d" : "src.reclaim_s2s", now, v);

  struct Destage {
    u64 lba;
    u64 tag;
    u16 tenant;
    bool shed;  // destaged to squeeze an over-quota tenant, not for space
  };
  std::vector<Destage> destages;
  // Tenants of the blocks copied forward, one entry per block: their
  // occupancy stays down while the victim drains (over_quota reads it) and
  // is restored once every segment is done.
  std::vector<u16> copied;

  const u64 rows = cfg_.slots_per_chunk();
  std::vector<MapEntry> ents;
  std::vector<char> need;
  std::vector<char> keepv;
  std::vector<u64> tag;
  std::vector<u64> rbuf;
  for (u32 g = 0; g < sg.next_seg; ++g) {
    SegmentInfo& si = sg.segs[g];
    if (si.type == SegType::kNone) continue;
    const u32 nslots = static_cast<u32>(si.slot_lba.size());

    // Per-slot decision. Data is needed for destages and S2S copies; cold
    // clean blocks are simply dropped (§4.2). The keep-vs-evict verdict is
    // the eviction policy's call (paper = hot-flag second chance for clean,
    // unconditional copy for dirty; the modern policies also evict cold
    // dirty blocks, which destages them below) and is asked exactly once
    // here — keep_on_gc may transition policy state, and over_quota can
    // flip while loop 2 drains live_blocks, so re-deriving the decision
    // later is not allowed. S2D mode and quota sheds bypass the policy:
    // those are whole-victim decisions, not per-block ones.
    // The entries are copied here and used below: nothing between moves
    // them, and the drain loop then needs only one more probe per block.
    ents.resize(nslots);
    need.assign(nslots, 0);
    keepv.assign(nslots, 0);
    tag.assign(nslots, 0);
    for (u32 s = 0; s < nslots; ++s) {
      const u64 lba = si.slot_lba[s];
      if (lba == kDeadSlot) continue;
      const MapEntry& e = ents[s] = map_.at(lba);
      // Over-quota tenants' blocks are shed even when hot: the quota
      // squeeze works by attrition through GC, never by bulk eviction.
      bool keep = false;
      if (!use_s2d && !over_quota(e.tenant))
        keep = eviction_->keep_on_gc(lba, e.hot(), e.dirty());
      keepv[s] = keep ? 1 : 0;
      need[s] = (e.dirty() || keep) ? 1 : 0;
    }

    // Batched reads: column-major slots are contiguous on one device.
    u32 s = 0;
    while (s < nslots) {
      if (!need[s]) {
        ++s;
        continue;
      }
      u32 e = s + 1;
      while (e < nslots && need[e] && e / rows == s / rows) ++e;
      const SlotAddr a = addr_of(v, g, s, si);
      rbuf.assign(e - s, 0);
      bool slow = false;
      for (u32 k = s; k < e && !slow; ++k)
        slow = dev_dead(a.dev, a.block + (k - s));
      if (!slow) {
        auto r = ssds_[a.dev]->read(now, a.block, e - s,
                                    std::span<u64>(rbuf.data(), rbuf.size()));
        if (!r.ok()) {
          slow = true;
        } else {
          t = std::max(t, r.done);
          if (cfg_.verify_checksums) {
            for (u32 k = s; k < e && !slow; ++k) {
              if (si.slot_lba[k] != kDeadSlot &&
                  common::crc32c_of(rbuf[k - s]) != si.slot_crc[k])
                slow = true;
            }
          }
        }
      }
      if (!slow) {
        for (u32 k = s; k < e; ++k) tag[k] = rbuf[k - s];
      } else {
        for (u32 k = s; k < e; ++k) {
          SimTime rt = now;
          auto rec = read_slot(now, v, g, k, &rt);
          t = std::max(t, rt);
          if (rec.is_ok()) {
            tag[k] = rec.value();
          } else {
            need[k] = 2;  // unrecoverable: drop below
          }
        }
      }
      s = e;
    }

    // S2S copies re-enter the segment buffers cold (second chance), in
    // victim order. They are staged only; the seal_buffer drain loop that
    // triggered this reclaim writes them out (staging never re-enters a
    // seal).
    for (u32 k = 0; k < nslots; ++k) {
      const u64 lba = si.slot_lba[k];
      if (lba == kDeadSlot) continue;
      const MapEntry& e = ents[k];
      invalidate_slot(e);
      tenants_[e.tenant].live_blocks--;
      const bool shed = over_quota(e.tenant);
      // A squeezed tenant's dirty data is destaged rather than S2S-copied:
      // safe on primary, and its cache share shrinks. A policy-evicted
      // dirty block takes the same path — written back once instead of
      // recopied at every future reclaim.
      const bool copy = need[k] != 2 && keepv[k] &&
                        (!e.dirty() || (!use_s2d && !shed));
      if (copy) {
        stage_copy(lba, tag[k], e.tenant, e.dirty(), now);
        copied.push_back(e.tenant);
        continue;
      }
      map_.erase(lba);
      eviction_->on_evict(lba);
      if (need[k] == 2) {
        if (e.dirty()) extra_.lost_dirty_blocks++;
      } else if (e.dirty()) {
        if (!use_s2d && shed) tenants_[e.tenant].gc_shed_blocks++;
        destages.push_back({lba, tag[k], e.tenant, shed && !use_s2d});
      } else {
        if (shed && !use_s2d && e.hot()) tenants_[e.tenant].gc_shed_blocks++;
        stats_.dropped_clean_blocks++;
      }
    }
  }
  for (u16 tenant : copied) tenants_[tenant].live_blocks++;
  stats_.gc_copy_blocks += copied.size();

  // Destages: contiguous LBA runs become single primary-storage writes,
  // issued as background traffic (the real destager is a worker thread that
  // yields to foreground misses). Their completion times stay on the
  // background lane and must not feed back into SSD-side scheduling.
  std::sort(destages.begin(), destages.end(),
            [](const Destage& a, const Destage& b) { return a.lba < b.lba; });
  primary_->set_background(true);
  SimTime destaged_at = t;
  const u32 destage_span =
      (!destages.empty() && span_ != nullptr && span_->sampling())
          ? span_->begin_span("src.destage", t)
          : obs::kNoSpan;
  std::vector<u64> wtags;
  size_t i = 0;
  while (i < destages.size()) {
    size_t j = i + 1;
    while (j < destages.size() && destages[j].lba == destages[j - 1].lba + 1)
      ++j;
    wtags.clear();
    for (size_t k = i; k < j; ++k) wtags.push_back(destages[k].tag);
    auto r = primary_->write(t, destages[i].lba, static_cast<u32>(j - i),
                             std::span<const u64>(wtags.data(), wtags.size()));
    if (r.ok()) {
      destaged_at = std::max(destaged_at, r.done);
      for (size_t k = i; k < j; ++k)
        ledger_.add(obs::kPrimaryDevice, destages[k].tenant,
                    destages[k].shed ? WriteCause::kQuotaShed
                                     : WriteCause::kDestage,
                    kBlockSize);
    }
    stats_.destage_blocks += j - i;
    for (size_t k = i; k < j; ++k)
      tenants_[destages[k].tenant].destage_blocks++;
    i = j;
  }
  if (destage_span != obs::kNoSpan)
    span_->end_span(destage_span, destaged_at, destages.size());
  primary_->set_background(false);

  // The whole SG is dead: TRIM it so the SSDs reclaim the erase groups
  // without copying (the log-structured payoff, §4.1).
  for (auto* d : ssds_) {
    if (d->failed()) continue;
    auto r = d->trim(t, sg_base_block(v), cfg_.eg_blocks());
    if (r.ok()) t = std::max(t, r.done);
  }
  // The whole SG is garbage now: pending rebuild copies into it are stale.
  if (rebuild_ != nullptr)
    rebuild_->discard(sg_base_block(v), cfg_.eg_blocks());

  SgInfo fresh;
  fresh.segs.resize(cfg_.segments_per_sg());
  // The SG may be rewritten only once its dirty data is safe on primary
  // storage; until then, writes into it stall (back-pressure).
  fresh.ready_at = destaged_at;
  sgs_[v] = std::move(fresh);
  free_sgs_.push_back(v);
  in_gc_ = was_in_gc;
  if (reclaim_span != obs::kNoSpan) span_->end_span(reclaim_span, t, v);
  return t;
}

}  // namespace srcache::src
