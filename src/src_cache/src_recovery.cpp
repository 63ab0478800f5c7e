// Crash recovery, failure handling, and internal-invariant auditing (§4.1).
#include <algorithm>
#include <optional>

#include "common/crc32c.hpp"
#include "fault/fault_injector.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::src {

Status SrcCache::recover(SimTime now, SimTime* done_out) {
  SimTime t = now;

  // 1. Superblock: first valid copy wins (it is replicated on every SSD).
  std::optional<Superblock> sb;
  for (auto* d : ssds_) {
    if (d->failed()) continue;
    SimTime rt = now;
    auto p = d->read_payload(now, sg_base_block(0), &rt);
    t = std::max(t, rt);
    if (!p.is_ok()) continue;
    sb = Superblock::deserialize(p.value());
    if (sb.has_value()) break;
  }
  if (!sb.has_value())
    return Status(ErrorCode::kCorrupted, "no valid superblock");
  if (sb->num_ssds != cfg_.num_ssds ||
      sb->erase_group_bytes != cfg_.erase_group_bytes ||
      sb->chunk_bytes != cfg_.chunk_bytes ||
      sb->region_bytes_per_ssd != cfg_.region_bytes_per_ssd) {
    return Status(ErrorCode::kInvalidArgument,
                  "superblock geometry does not match configuration");
  }

  // 2. Reset volatile state. Anything that was only in the segment buffers
  // is gone — that is the bounded TWAIT loss window the paper accepts.
  map_.clear();
  free_sgs_.clear();
  dirty_buf_.clear();
  clean_buf_.clear();
  inflight_.clear();
  active_sg_ = kBufferSg;
  live_total_ = 0;
  gen_seq_ = 0;
  seal_seq_ = 0;
  for (TenantStats& ts : tenants_) ts.live_blocks = 0;
  // Policy state is volatile: start cold and re-seed from the rebuilt map
  // (step 4) so the policies know exactly the surviving residents.
  eviction_ = policy::make_eviction(cfg_.eviction, cfg_.capacity_blocks());
  admission_ = policy::make_admission(cfg_.admission, cfg_.capacity_blocks());

  // 3. Scan every segment's MS/ME pair; matching generations mean the
  // segment was written completely (§4.1 failure handling).
  const u64 rows = cfg_.slots_per_chunk();
  struct Winner {
    u64 gen;
    u32 sg, seg, slot;
  };
  common::LbaMap<Winner> best;  // lba -> newest location

  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    SgInfo fresh;
    fresh.segs.resize(cfg_.segments_per_sg());
    sgs_[s] = std::move(fresh);
    SgInfo& sg = sgs_[s];

    u32 last_valid = 0;
    bool any_valid = false;
    for (u32 g = 0; g < cfg_.segments_per_sg(); ++g) {
      const u64 base = chunk_base_block(s, g);
      std::optional<SegmentMeta> ms, me;
      for (auto* d : ssds_) {
        if (d->failed()) continue;
        SimTime rt = now;
        auto pms = d->read_payload(now, base, &rt);
        t = std::max(t, rt);
        if (pms.is_ok() && !ms.has_value())
          ms = SegmentMeta::deserialize(pms.value());
        auto pme = d->read_payload(now, base + 1 + rows, &rt);
        t = std::max(t, rt);
        if (pme.is_ok() && !me.has_value())
          me = SegmentMeta::deserialize(pme.value());
        if (ms.has_value() && me.has_value()) break;
      }
      if (!ms.has_value() || !me.has_value()) {
        // One present without the other is a torn write; neither present is
        // simply a never-written chunk.
        if (ms.has_value() != me.has_value()) extra_.torn_segments_discarded++;
        continue;
      }
      if (ms->generation != me->generation || ms->sg != s || ms->seg != g) {
        extra_.torn_segments_discarded++;
        continue;  // torn segment: discarded, space reused
      }

      SegmentInfo& si = sg.segs[g];
      si.type = ms->dirty ? SegType::kDirty : SegType::kClean;
      si.has_parity = ms->has_parity;
      si.parity_col = ms->parity_col;
      si.generation = ms->generation;
      si.slot_lba.assign(ms->entries.size(), kDeadSlot);
      si.slot_crc.assign(ms->entries.size(), 0);
      si.slot_tenant.assign(ms->entries.size(), 0);
      si.live = 0;
      for (u32 slot = 0; slot < ms->entries.size(); ++slot) {
        const auto& e = ms->entries[slot];
        si.slot_lba[slot] = e.lba;
        si.slot_crc[slot] = e.crc;
        si.slot_tenant[slot] = norm_tenant(e.tenant);
        if (e.lba == kDeadSlot) continue;
        auto [w, first] = best.try_emplace(e.lba);
        if (first || w->gen < si.generation)
          *w = Winner{si.generation, s, g, slot};
      }
      gen_seq_ = std::max(gen_seq_, si.generation);
      last_valid = g;
      any_valid = true;
    }

    if (!any_valid) {
      sg.state = SgState::kFree;
      free_sgs_.push_back(s);
    } else {
      // Partially-filled SGs are sealed conservatively; the unwritten tail
      // is reclaimed with the SG.
      sg.next_seg = last_valid + 1;
      sg.state = SgState::kSealed;
      u64 max_gen = 0;
      for (const auto& si : sg.segs) max_gen = std::max(max_gen, si.generation);
      sg.seal_seq = max_gen;
    }
  }
  sgs_[0].state = SgState::kSuper;
  seal_seq_ = gen_seq_;

  // 4. Mark losers dead and build the mapping table from the winners.
  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    SgInfo& sg = sgs_[s];
    for (u32 g = 0; g < sg.next_seg; ++g) {
      SegmentInfo& si = sg.segs[g];
      if (si.type == SegType::kNone) continue;
      for (u32 slot = 0; slot < si.slot_lba.size(); ++slot) {
        const u64 lba = si.slot_lba[slot];
        if (lba == kDeadSlot) continue;
        const auto& w = best.at(lba);
        if (w.sg != s || w.seg != g || w.slot != slot) {
          si.slot_lba[slot] = kDeadSlot;  // superseded by a newer segment
          continue;
        }
        MapEntry e;
        e.sg = s;
        e.seg = g;
        e.slot = slot;
        e.tenant = si.slot_tenant[slot];
        e.flags = si.type == SegType::kDirty ? kFlagDirty : 0;
        map_.try_emplace(lba, e);
        eviction_->on_admit(lba);
        si.live++;
        sg.live++;
        census_add(sg, e.tenant, 1);
        tenants_[e.tenant].live_blocks++;
        live_total_++;
      }
    }
  }

  if (done_out != nullptr) *done_out = t;
  return Status::ok();
}

void SrcCache::on_ssd_failure(size_t ssd, SimTime now) {
  // Fail-stop handling (§4.3): parity-protected blocks stay cached and are
  // reconstructed on access; unprotected ones are dropped — clean blocks
  // refetch on the next miss, dirty ones (RAID-0 only) are lost.
  if (span_ != nullptr) span_->event("src.ssd_failure", now, ssd);
  std::vector<u64> to_drop;
  for (const auto& [lba, e] : map_) {
    if (e.buffered()) continue;
    const SegmentInfo& si = sgs_[e.sg].segs[e.seg];
    const SlotAddr a = addr_of(e.sg, e.seg, e.slot, si);
    bool affected = a.dev == ssd;
    if (cfg_.raid == SrcRaidLevel::kRaid1) {
      affected = (a.dev == ssd || a.mirror_dev == ssd) &&
                 ssds_[a.dev]->failed() && ssds_[a.mirror_dev]->failed();
    } else if (si.has_parity) {
      affected = false;  // reconstructable via the stripe
    }
    if (affected) to_drop.push_back(lba);
  }
  for (u64 lba : to_drop) {
    const MapEntry e = map_.at(lba);
    if (e.dirty()) {
      extra_.lost_dirty_blocks++;
    } else {
      extra_.lost_clean_blocks++;
    }
    invalidate_slot(e);
    map_.erase(lba);
    tenants_[e.tenant].live_blocks--;
    eviction_->on_evict(lba);
  }
}

std::vector<raid::RebuildExtent> SrcCache::rebuild_extents(size_t dev) const {
  std::vector<raid::RebuildExtent> ext;
  const u64 rows = cfg_.slots_per_chunk();

  // Superblock replica (SG 0): rewritten from configuration — it is pure
  // metadata and every copy is identical.
  Superblock sb;
  sb.create_seq = 1;
  sb.num_ssds = cfg_.num_ssds;
  sb.erase_group_bytes = cfg_.erase_group_bytes;
  sb.chunk_bytes = cfg_.chunk_bytes;
  sb.region_bytes_per_ssd = cfg_.region_bytes_per_ssd;
  ext.push_back({sg_base_block(0), 1, raid::RebuildHow::kMetadata, SIZE_MAX,
                 sb.serialize()});

  size_t mirror_partner = SIZE_MAX;
  if (cfg_.raid == SrcRaidLevel::kRaid1) {
    const size_t half = cfg_.num_ssds / 2;
    mirror_partner = dev < half ? dev + half : dev - half;
  }

  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    const SgInfo& sg = sgs_[s];
    if (sg.state == SgState::kFree) continue;
    for (u32 g = 0; g < sg.segs.size(); ++g) {
      const SegmentInfo& si = sg.segs[g];
      if (si.type == SegType::kNone) continue;
      const u64 base = chunk_base_block(s, g);
      // MS/ME replicas are rewritten from in-RAM state (invalidated slots
      // come back as dead, which only sharpens a later recovery scan).
      SegmentMeta meta;
      meta.generation = si.generation;
      meta.sg = s;
      meta.seg = g;
      meta.dirty = si.type == SegType::kDirty;
      meta.has_parity = si.has_parity;
      meta.parity_col = si.parity_col;
      meta.entries.resize(si.slot_lba.size());
      for (u32 k = 0; k < si.slot_lba.size(); ++k) {
        meta.entries[k].lba = si.slot_lba[k];
        meta.entries[k].crc = si.slot_crc[k];
        meta.entries[k].tenant = si.slot_tenant[k];
      }
      const auto ms_payload = meta.serialize();
      ext.push_back(
          {base, 1, raid::RebuildHow::kMetadata, SIZE_MAX, ms_payload});
      // Data rows decode only where the stripe carries redundancy. NPC
      // clean rows were dropped from the map at fail time: nothing live to
      // restore, the rebuilder skips the whole run.
      if (cfg_.raid == SrcRaidLevel::kRaid1) {
        ext.push_back({base + 1, rows, raid::RebuildHow::kMirror,
                       mirror_partner, nullptr});
      } else if (si.has_parity) {
        ext.push_back(
            {base + 1, rows, raid::RebuildHow::kParityXor, SIZE_MAX, nullptr});
      }
      ext.push_back({base + 1 + rows, 1, raid::RebuildHow::kMetadata, SIZE_MAX,
                     SegmentMeta::tail_of(ms_payload)});
    }
  }
  return ext;
}

void SrcCache::on_rebuild_lost(size_t dev,
                               const std::vector<raid::RebuildExtent>& lost,
                               SimTime now) {
  const auto in_lost = [&lost](u64 b) {
    for (const raid::RebuildExtent& ex : lost)
      if (b >= ex.block && b < ex.block + ex.count) return true;
    return false;
  };
  std::vector<u64> to_drop;
  for (const auto& [lba, e] : map_) {
    if (e.buffered()) continue;
    const SegmentInfo& si = sgs_[e.sg].segs[e.seg];
    const SlotAddr a = addr_of(e.sg, e.seg, e.slot, si);
    const bool here = a.dev == dev || a.mirror_dev == dev;
    if (!here || !in_lost(a.block)) continue;
    // The copy on `dev` is gone for good; the block survives only if some
    // other replica can still serve it.
    bool survivor = false;
    if (a.dev != dev && !dev_dead(a.dev, a.block)) survivor = true;
    if (a.mirror_dev != SIZE_MAX && a.mirror_dev != dev &&
        !dev_dead(a.mirror_dev, a.block))
      survivor = true;
    if (!survivor) to_drop.push_back(lba);
  }
  for (u64 lba : to_drop) {
    const MapEntry e = map_.at(lba);
    if (e.dirty()) {
      extra_.lost_dirty_blocks++;
    } else {
      extra_.lost_clean_blocks++;
    }
    invalidate_slot(e);
    map_.erase(lba);
    tenants_[e.tenant].live_blocks--;
    eviction_->on_evict(lba);
  }
  if (span_ != nullptr) span_->event("src.rebuild_lost", now, to_drop.size());
}

void SrcCache::attach_faults(fault::FaultInjector& inj,
                             raid::RebuildManager* mgr) {
  inj.attach_ssds(ssds_);
  inj.attach_primary(primary_);
  fault_ledger_ = &inj.ledger();
  inj.set_failure_callback([this, mgr](size_t dev, SimTime t) {
    on_ssd_failure(dev, t);
    if (mgr != nullptr) mgr->on_device_failed(dev, t);
  });
  if (mgr == nullptr) return;
  mgr->set_extent_source([this](size_t dev) { return rebuild_extents(dev); });
  mgr->set_abort_callback(
      [this](size_t dev, const std::vector<raid::RebuildExtent>& lost,
             SimTime t) { on_rebuild_lost(dev, lost, t); });
  mgr->set_provenance(&ledger_);
  mgr->set_fault_ledger(&inj.ledger());
  if (span_ != nullptr) mgr->set_span(span_);
  rebuild_ = mgr;
  inj.set_replace_callback(
      [mgr](size_t dev, SimTime t) { mgr->on_device_replaced(dev, t); });
  inj.set_spare_callback([mgr](u32 n) { mgr->add_spares(n); });
}

SrcCache::ScrubReport SrcCache::scrub(SimTime now, SimTime* done) {
  ScrubReport rep;
  const auto before = extra_;
  SimTime t = now;
  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    const SgInfo& sg = sgs_[s];
    for (u32 g = 0; g < sg.next_seg; ++g) {
      const SegmentInfo& si = sg.segs[g];
      if (si.type == SegType::kNone) continue;
      for (u32 slot = 0; slot < si.slot_lba.size(); ++slot) {
        if (si.slot_lba[slot] == kDeadSlot) continue;
        ++rep.scanned;
        SimTime rt = t;
        (void)read_slot(t, s, g, slot, &rt);
        t = std::max(t, rt);
      }
    }
  }
  rep.repaired = extra_.parity_repairs - before.parity_repairs;
  rep.refetched = extra_.refetch_repairs - before.refetch_repairs;
  rep.unrecoverable = extra_.unrecoverable_blocks - before.unrecoverable_blocks;
  if (done != nullptr) *done = t;
  return rep;
}

Status SrcCache::verify_consistency() const {
  u64 live_on_ssd = 0;
  for (u32 s = 0; s < sgs_.size(); ++s) {
    const SgInfo& sg = sgs_[s];
    u64 sg_live = 0;
    for (u32 g = 0; g < sg.segs.size(); ++g) {
      const SegmentInfo& si = sg.segs[g];
      if (si.type == SegType::kNone) {
        if (si.live != 0)
          return Status(ErrorCode::kCorrupted, "empty segment with live count");
        continue;
      }
      u64 seg_live = 0;
      for (u32 slot = 0; slot < si.slot_lba.size(); ++slot) {
        const u64 lba = si.slot_lba[slot];
        if (lba == kDeadSlot) continue;
        ++seg_live;
        const MapEntry* e = map_.find(lba);
        if (e == nullptr)
          return Status(ErrorCode::kCorrupted, "live slot without map entry");
        if (e->buffered() || e->sg != s || e->seg != g || e->slot != slot)
          return Status(ErrorCode::kCorrupted, "map entry does not point back");
        if (e->dirty() != (si.type == SegType::kDirty))
          return Status(ErrorCode::kCorrupted, "dirty flag mismatch");
      }
      if (seg_live != si.live)
        return Status(ErrorCode::kCorrupted, "segment live count drift");
      sg_live += seg_live;
    }
    if (sg_live != sg.live)
      return Status(ErrorCode::kCorrupted, "SG live count drift");
    live_on_ssd += sg_live;
  }
  if (live_on_ssd != live_total_)
    return Status(ErrorCode::kCorrupted, "global live count drift");

  u64 buffered = 0;
  std::vector<u64> tenant_live(tenants_.size(), 0);
  for (const SegBuffer* buf : {&dirty_buf_, &clean_buf_}) {
    u64 live = 0;
    for (size_t i = buf->head; i < buf->lbas.size(); ++i) {
      if (buf->lbas[i] == kDeadSlot) continue;
      ++live;
      const MapEntry* e = map_.find(buf->lbas[i]);
      if (e == nullptr)
        return Status(ErrorCode::kCorrupted, "staged block without map entry");
      if (!e->buffered() || e->slot != i || e->dirty() != (buf == &dirty_buf_))
        return Status(ErrorCode::kCorrupted,
                      "buffered map entry does not point back");
      if (buf->tenants[i] >= tenant_live.size())
        return Status(ErrorCode::kCorrupted, "buffered tenant out of range");
      tenant_live[buf->tenants[i]]++;
    }
    if (live != buf->live)
      return Status(ErrorCode::kCorrupted, "buffer live count drift");
    buffered += live;
  }
  if (map_.size() != live_on_ssd + buffered)
    return Status(ErrorCode::kCorrupted, "map size != live blocks");

  // Per-tenant accounting: SG censuses and buffers must add up to each
  // tenant's occupancy.
  for (const SgInfo& sg : sgs_) {
    u64 census = 0;
    for (size_t t = 0; t < sg.live_by_tenant.size(); ++t) {
      if (t >= tenant_live.size() && sg.live_by_tenant[t] != 0)
        return Status(ErrorCode::kCorrupted, "SG census tenant out of range");
      if (t < tenant_live.size()) tenant_live[t] += sg.live_by_tenant[t];
      census += sg.live_by_tenant[t];
    }
    if (census != sg.live)
      return Status(ErrorCode::kCorrupted, "SG tenant census drift");
  }
  for (size_t t = 0; t < tenants_.size(); ++t) {
    if (tenant_live[t] != tenants_[t].live_blocks)
      return Status(ErrorCode::kCorrupted, "tenant occupancy drift");
  }
  return Status::ok();
}

}  // namespace srcache::src
