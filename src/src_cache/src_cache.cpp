#include "src_cache/src_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/crc32c.hpp"

namespace srcache::src {

namespace {
// CPU cost of staging one block into a segment buffer / serving from RAM.
constexpr SimTime kStageCost = 1 * sim::kUs;
constexpr SimTime kRamReadCost = 500 * sim::kNs;

using obs::WriteCause;

// Blocks a payload write occupies — must match the devices' rounding
// (MemDisk/SimSsd: ceil(size / block), at least 1) so the provenance ledger
// balances bit-exactly against DeviceStats::write_blocks.
u64 payload_blocks(const blockdev::Payload& p) {
  const u64 n = bytes_to_blocks(p ? p->size() : 1);
  return n == 0 ? 1 : n;
}
}  // namespace

const char* to_string(GcPolicy p) {
  return p == GcPolicy::kS2D ? "S2D" : "Sel-GC";
}
const char* to_string(VictimPolicy p) {
  switch (p) {
    case VictimPolicy::kFifo: return "FIFO";
    case VictimPolicy::kGreedy: return "Greedy";
    case VictimPolicy::kCostBenefit: return "CostBenefit";
  }
  return "?";
}
const char* to_string(SrcRaidLevel l) {
  switch (l) {
    case SrcRaidLevel::kRaid0: return "RAID-0";
    case SrcRaidLevel::kRaid1: return "RAID-1";
    case SrcRaidLevel::kRaid4: return "RAID-4";
    case SrcRaidLevel::kRaid5: return "RAID-5";
  }
  return "?";
}
const char* to_string(CleanRedundancy c) {
  return c == CleanRedundancy::kPC ? "PC" : "NPC";
}
const char* to_string(FlushControl f) {
  return f == FlushControl::kPerSegment ? "per-segment" : "per-SG";
}

std::string SrcConfig::describe() const {
  std::string s = "SRC{";
  s += std::to_string(num_ssds) + " SSDs, EG ";
  s += std::to_string(erase_group_bytes / MiB) + "MiB, ";
  s += to_string(raid);
  s += ", ";
  s += to_string(clean_redundancy);
  s += ", ";
  s += to_string(gc);
  s += "/";
  s += to_string(victim);
  s += ", umax " + std::to_string(static_cast<int>(umax * 100)) + "%, flush ";
  s += to_string(flush_control);
  s += ", ";
  s += policy::to_string(eviction);
  s += "+";
  s += policy::to_string(admission);
  s += "}";
  return s;
}

SrcCache::SrcCache(const SrcConfig& cfg, std::vector<BlockDevice*> ssds,
                   BlockDevice* primary)
    : cfg_(cfg), ssds_(std::move(ssds)), primary_(primary) {
  cfg_.validate();
  if (ssds_.size() != cfg_.num_ssds)
    throw std::invalid_argument("SRC: device count != config");
  const u64 region_blocks = cfg_.region_bytes_per_ssd / kBlockSize;
  for (auto* d : ssds_) {
    if (d->capacity_blocks() < cfg_.region_start_block + region_blocks)
      throw std::invalid_argument("SRC: SSD smaller than cache region");
  }
  sgs_.resize(cfg_.sg_count());
  for (auto& sg : sgs_) sg.segs.resize(cfg_.segments_per_sg());
  eviction_ = policy::make_eviction(cfg_.eviction, cfg_.capacity_blocks());
  admission_ = policy::make_admission(cfg_.admission, cfg_.capacity_blocks());
}

// --- geometry ---------------------------------------------------------------

u64 SrcCache::sg_base_block(u32 sg) const {
  return cfg_.region_start_block + static_cast<u64>(sg) * cfg_.eg_blocks();
}

u64 SrcCache::chunk_base_block(u32 sg, u32 seg) const {
  return sg_base_block(sg) + static_cast<u64>(seg) * cfg_.chunk_blocks();
}

u64 SrcCache::seg_data_cols(const SegmentInfo& si) const {
  if (cfg_.raid == SrcRaidLevel::kRaid1) return cfg_.num_ssds / 2;
  return si.has_parity ? cfg_.num_ssds - 1 : cfg_.num_ssds;
}

SrcCache::SlotAddr SrcCache::addr_of(u32 sg, u32 seg, u32 slot,
                                     const SegmentInfo& si) const {
  const u64 rows = cfg_.slots_per_chunk();
  const u64 col = slot / rows;  // column-major: each column is one SSD chunk
  const u64 row = slot % rows;
  size_t dev;
  size_t mirror = SIZE_MAX;
  if (cfg_.raid == SrcRaidLevel::kRaid1) {
    dev = static_cast<size_t>(col);
    mirror = dev + cfg_.num_ssds / 2;
  } else if (si.has_parity && col >= si.parity_col) {
    dev = static_cast<size_t>(col) + 1;
  } else {
    dev = static_cast<size_t>(col);
  }
  // +1 skips the MS block at the chunk head.
  return {dev, chunk_base_block(sg, seg) + 1 + row, mirror};
}

u64 SrcCache::buffer_capacity(bool dirty_type) const {
  return cfg_.segment_data_slots(dirty_type);
}

double SrcCache::utilization() const {
  const u64 cap = cfg_.capacity_blocks();
  return cap == 0 ? 0.0
                  : static_cast<double>(live_total_) / static_cast<double>(cap);
}

SrcCache::Residence SrcCache::residence(u64 lba) const {
  const MapEntry* e = map_.find(lba);
  if (e == nullptr) return Residence::kAbsent;
  if (e->buffered())
    return e->dirty() ? Residence::kDirtyBuffer : Residence::kCleanBuffer;
  return e->dirty() ? Residence::kCachedDirty : Residence::kCachedClean;
}

// --- lifecycle --------------------------------------------------------------

SimTime SrcCache::format(SimTime now) {
  Superblock sb;
  sb.create_seq = 1;
  sb.num_ssds = cfg_.num_ssds;
  sb.erase_group_bytes = cfg_.erase_group_bytes;
  sb.chunk_bytes = cfg_.chunk_bytes;
  sb.region_bytes_per_ssd = cfg_.region_bytes_per_ssd;
  const auto payload = sb.serialize();
  SimTime done = now;
  for (size_t d = 0; d < ssds_.size(); ++d) {
    auto r = ssds_[d]->write_payload(now, sg_base_block(0), payload);
    if (r.ok()) {
      done = std::max(done, r.done);
      ledger_.add(static_cast<u32>(d), obs::kSharedTenant, WriteCause::kParity,
                  payload_blocks(payload) * kBlockSize);
    }
  }
  // SG 0 holds the superblock and is never written again (§4.1).
  sgs_[0].state = SgState::kSuper;
  free_sgs_.clear();
  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    sgs_[s] = SgInfo{};
    sgs_[s].segs.resize(cfg_.segments_per_sg());
    free_sgs_.push_back(s);
  }
  done = flush_all_ssds(done);
  return done;
}

SimTime SrcCache::flush_all_ssds(SimTime now) {
  if (crashed_) return now;  // power is off: nothing reaches the devices
  const u32 flush_span = span_ != nullptr && span_->sampling()
                             ? span_->begin_span("src.flush", now)
                             : obs::kNoSpan;
  SimTime done = now;
  for (auto* d : ssds_) {
    if (d->failed()) continue;
    auto r = d->flush(now);
    if (r.ok()) done = std::max(done, r.done);
  }
  extra_.flushes_issued++;
  if (flush_span != obs::kNoSpan) span_->end_span(flush_span, done);
  return done;
}

void SrcCache::register_metrics(const obs::Scope& scope) {
  scope.counter_fn("segments_written",
                   [this] { return extra_.segments_written; });
  scope.counter_fn("partial_segments",
                   [this] { return extra_.partial_segments; });
  scope.counter_fn("clean_segments", [this] { return extra_.clean_segments; });
  scope.counter_fn("dirty_segments", [this] { return extra_.dirty_segments; });
  scope.counter_fn("sg_reclaims", [this] { return extra_.sg_reclaims; });
  scope.counter_fn("s2d_reclaims", [this] { return extra_.s2d_reclaims; });
  scope.counter_fn("s2s_reclaims", [this] { return extra_.s2s_reclaims; });
  scope.counter_fn("flushes", [this] { return extra_.flushes_issued; });
  scope.counter_fn("checksum_errors",
                   [this] { return extra_.checksum_errors; });
  scope.counter_fn("media_errors", [this] { return extra_.media_errors; });
  scope.counter_fn("parity_repairs", [this] { return extra_.parity_repairs; });
  scope.counter_fn("refetch_repairs",
                   [this] { return extra_.refetch_repairs; });
  scope.counter_fn("unrecoverable_blocks",
                   [this] { return extra_.unrecoverable_blocks; });
  scope.counter_fn("lost_clean_blocks",
                   [this] { return extra_.lost_clean_blocks; });
  scope.counter_fn("lost_dirty_blocks",
                   [this] { return extra_.lost_dirty_blocks; });
  scope.counter_fn("torn_segments_discarded",
                   [this] { return extra_.torn_segments_discarded; });
  scope.counter_fn("segment_seals", [this] { return seal_count_; });
  scope.counter_fn("fetch_blocks", [this] { return stats_.fetch_blocks; });
  scope.counter_fn("destage_blocks", [this] { return stats_.destage_blocks; });
  scope.counter_fn("gc_copy_blocks", [this] { return stats_.gc_copy_blocks; });
  scope.counter_fn("app_flushes", [this] { return stats_.app_flushes; });
  scope.gauge_fn("utilization", [this] { return utilization(); });
  scope.gauge_fn("free_sgs",
                 [this] { return static_cast<double>(free_sgs_.size()); });
  scope.gauge_fn("cached_blocks",
                 [this] { return static_cast<double>(map_.size()); });
  // Segment-buffer occupancy (staged blocks and fill fraction): sampled over
  // time this shows the stage-seal-flush rhythm behind the flush plateaus.
  scope.gauge_fn("dirty_buffer_blocks", [this] {
    return static_cast<double>(dirty_buf_.pending());
  });
  scope.gauge_fn("clean_buffer_blocks", [this] {
    return static_cast<double>(clean_buf_.pending());
  });
  scope.gauge_fn("dirty_buffer_frac", [this] {
    const u64 cap = buffer_capacity(/*dirty_type=*/true);
    return cap == 0 ? 0.0
                    : static_cast<double>(dirty_buf_.pending()) /
                          static_cast<double>(cap);
  });
  scope.gauge_fn("clean_buffer_frac", [this] {
    const u64 cap = buffer_capacity(/*dirty_type=*/false);
    return cap == 0 ? 0.0
                    : static_cast<double>(clean_buf_.pending()) /
                          static_cast<double>(cap);
  });
  // Policy tallies (src/policy). The lambdas read through the unique_ptrs
  // at snapshot time, so recover() swapping in fresh policies is safe.
  const obs::Scope ps = scope.scope("policy");
  ps.counter_fn("gc_kept", [this] { return eviction_->stats().gc_kept; });
  ps.counter_fn("gc_evicted",
                [this] { return eviction_->stats().gc_evicted; });
  ps.counter_fn("promotions",
                [this] { return eviction_->stats().promotions; });
  ps.counter_fn("ghost_hits",
                [this] { return eviction_->stats().ghost_hits; });
  ps.counter_fn("fills_admitted",
                [this] { return admission_->stats().admitted; });
  ps.counter_fn("fills_rejected",
                [this] { return admission_->stats().rejected; });
  ps.counter_fn("admit_ghost_hits",
                [this] { return admission_->stats().ghost_hits; });
  metrics_scope_ = scope;
  tenants_registered_ = 0;
  register_tenant_metrics();
}

void SrcCache::register_tenant_metrics() {
  // Per-tenant metrics appear lazily: tenants can be configured (or first
  // observed) after register_metrics ran.
  if (!metrics_scope_.has_value()) return;
  for (; tenants_registered_ < tenants_.size(); ++tenants_registered_) {
    const size_t t = tenants_registered_;
    const obs::Scope ts =
        metrics_scope_->scope("tenant." + std::to_string(t));
    ts.counter_fn("read_hit_blocks",
                  [this, t] { return tenants_[t].read_hit_blocks; });
    ts.counter_fn("read_miss_blocks",
                  [this, t] { return tenants_[t].read_miss_blocks; });
    ts.counter_fn("write_blocks",
                  [this, t] { return tenants_[t].write_blocks; });
    ts.counter_fn("fetch_bypass_blocks",
                  [this, t] { return tenants_[t].fetch_bypass_blocks; });
    ts.counter_fn("write_bypass_blocks",
                  [this, t] { return tenants_[t].write_bypass_blocks; });
    ts.counter_fn("gc_shed_blocks",
                  [this, t] { return tenants_[t].gc_shed_blocks; });
    ts.counter_fn("destage_blocks",
                  [this, t] { return tenants_[t].destage_blocks; });
    ts.gauge_fn("live_blocks", [this, t] {
      return static_cast<double>(tenants_[t].live_blocks);
    });
    ts.gauge_fn("quota_blocks", [this, t] {
      return static_cast<double>(tenants_[t].quota_blocks);
    });
  }
}

// --- tenants ----------------------------------------------------------------

u16 SrcCache::norm_tenant(u32 tenant) {
  if (tenant >= tenants_.size()) {
    if (quotas_enforced_) return static_cast<u16>(tenants_.size() - 1);
    tenants_.resize(std::min<u32>(tenant, 0xFFFF) + 1);
    register_tenant_metrics();
  }
  return static_cast<u16>(std::min<u32>(tenant, 0xFFFF));
}

bool SrcCache::over_quota(u16 tenant) const {
  if (!quotas_enforced_) return false;
  const TenantStats& t = tenants_[tenant];
  return t.live_blocks >= t.quota_blocks;
}

void SrcCache::census_add(SgInfo& sg, u16 tenant, u32 n) {
  if (tenant >= sg.live_by_tenant.size())
    sg.live_by_tenant.resize(tenant + 1, 0);
  sg.live_by_tenant[tenant] += n;
}

void SrcCache::census_sub(SgInfo& sg, u16 tenant, u32 n) {
  sg.live_by_tenant[tenant] -= n;
}

u64 SrcCache::reclaimable_live(const SgInfo& sg) const {
  u64 live = sg.live;
  if (!quotas_enforced_) return live;
  for (u16 t = 0; t < sg.live_by_tenant.size() && t < tenants_.size(); ++t) {
    if (over_quota(t)) live -= std::min<u64>(live, sg.live_by_tenant[t]);
  }
  return live;
}

void SrcCache::set_tenant_quotas(const std::vector<u64>& quotas) {
  if (quotas.empty()) throw std::invalid_argument("SRC: empty tenant quotas");
  if (quotas.size() > 0x10000)
    throw std::invalid_argument("SRC: too many tenants");
  if (quotas.size() > tenants_.size()) tenants_.resize(quotas.size());
  for (size_t t = 0; t < tenants_.size(); ++t)
    tenants_[t].quota_blocks = t < quotas.size() ? quotas[t] : 0;
  quotas_enforced_ = true;
  register_tenant_metrics();
}

// --- bookkeeping ------------------------------------------------------------

void SrcCache::invalidate_slot(const MapEntry& e) {
  if (e.buffered()) {
    SegBuffer& buf = e.dirty() ? dirty_buf_ : clean_buf_;
    buf.lbas[e.slot] = kDeadSlot;
    buf.live--;
    return;
  }
  SgInfo& sg = sgs_[e.sg];
  SegmentInfo& si = sg.segs[e.seg];
  si.slot_lba[e.slot] = kDeadSlot;
  si.live--;
  sg.live--;
  census_sub(sg, e.tenant, 1);
  live_total_--;
}

// --- app entry points -------------------------------------------------------

SimTime SrcCache::submit(const cache::AppRequest& req) {
  if (crashed_) return req.now;  // power is off
  maybe_timeout_partial(req.now);
  return req.is_write ? do_write(req) : do_read(req);
}

void SrcCache::maybe_timeout_partial(SimTime now) {
  // Partial-segment timeout (§4.1): if no write arrived for TWAIT and dirty
  // data is buffered, seal what we have to bound the loss window.
  if (dirty_buf_.pending() == 0) return;
  if (now - last_dirty_stage_ <= cfg_.twait) return;
  seal_buffer(now, /*dirty_type=*/true, /*force_partial=*/true);
}

SimTime SrcCache::flush(SimTime now) {
  stats_.app_flushes++;
  seal_buffer(now, /*dirty_type=*/true, /*force_partial=*/true);
  return flush_all_ssds(now);
}

SimTime SrcCache::throttle(SimTime now, SimTime ack) {
  while (!inflight_.empty() && inflight_.front() <= now) inflight_.pop_front();
  while (inflight_.size() >= cfg_.max_inflight_segment_writes) {
    ack = std::max(ack, inflight_.front());
    inflight_.pop_front();
  }
  return ack;
}

// --- write path -------------------------------------------------------------

void SrcCache::stage_dirty(u64 lba, u64 tag, u16 tenant, SimTime now,
                           obs::WriteCause cause) {
  auto [e, admitted] = map_.try_emplace(lba);
  if (admitted) {
    e->tenant = tenant;
    e->flags = kFlagDirty;
    tenants_[tenant].live_blocks++;
    eviction_->on_admit(lba);
  } else {
    if (e->tenant != tenant) {  // ownership follows the last writer
      tenants_[e->tenant].live_blocks--;
      tenants_[tenant].live_blocks++;
    }
    eviction_->on_access(lba);
    if (e->buffered() && e->dirty()) {
      dirty_buf_.tags[e->slot] = tag;  // overwrite in place
      dirty_buf_.tenants[e->slot] = tenant;
      dirty_buf_.causes[e->slot] = static_cast<u8>(cause);
      e->tenant = tenant;
      e->flags |= kFlagHot;
      return;
    }
    invalidate_slot(*e);
    e->tenant = tenant;
    e->flags = kFlagDirty | kFlagHot;  // a rewrite makes the block hot
  }
  e->sg = kBufferSg;
  e->seg = 0;
  e->slot = static_cast<u32>(dirty_buf_.lbas.size());
  dirty_buf_.push(lba, tag, tenant, cause);
  last_dirty_stage_ = now;
}

void SrcCache::stage_clean(u64 lba, u64 tag, u16 tenant,
                           obs::WriteCause cause) {
  auto [e, admitted] = map_.try_emplace(lba);
  // Raced with a write or a duplicate fetch; the cached copy wins.
  if (!admitted) return;
  e->sg = kBufferSg;
  e->slot = static_cast<u32>(clean_buf_.lbas.size());
  e->tenant = tenant;
  tenants_[tenant].live_blocks++;
  eviction_->on_admit(lba);
  clean_buf_.push(lba, tag, tenant, cause);
}

void SrcCache::stage_copy(u64 lba, u64 tag, u16 tenant, bool dirty,
                          SimTime now) {
  // The block never left the cache: no policy call, and the caller settles
  // the tenant's occupancy once the whole victim is drained.
  SegBuffer& buf = dirty ? dirty_buf_ : clean_buf_;
  MapEntry& e = map_.at(lba);
  e.sg = kBufferSg;
  e.seg = 0;
  e.slot = static_cast<u32>(buf.lbas.size());
  e.flags = dirty ? kFlagDirty : 0;  // second chance spent: cold
  buf.push(lba, tag, tenant, WriteCause::kGcRewrite);
  if (dirty) last_dirty_stage_ = now;
}

SimTime SrcCache::drain_buffers(SimTime now) {
  SimTime done = now;
  done = std::max(done, seal_buffer(now, /*dirty_type=*/true, false));
  done = std::max(done, seal_buffer(now, /*dirty_type=*/false, false));
  return done;
}

SimTime SrcCache::do_write(const cache::AppRequest& req) {
  const SimTime now = req.now;
  const u16 tenant = norm_tenant(req.tenant);
  stats_.app_write_ops++;
  stats_.app_write_blocks += req.nblocks;
  tenants_[tenant].write_blocks += req.nblocks;
  // Quota admission gate, write side: an over-quota tenant's NEW blocks go
  // straight to primary storage instead of staging, so its occupancy decays
  // toward the quota as GC drains what is already resident. Overwrites of
  // resident blocks still stage — bypassing those would leave stale data in
  // the cache — but they do not grow the footprint.
  std::vector<u64> bypass_lbas;
  std::vector<u64> bypass_tags;
  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    const u64 tag = req.tags != nullptr
                        ? req.tags[i]
                        : blockdev::make_tag(lba, ++tag_version_);
    if (map_.contains(lba)) {
      stats_.write_hit_blocks++;
    } else if (over_quota(tenant)) {
      // Still a new-block write — it just was not admitted. Counting it keeps
      // hit/miss classification honest: the op paid primary latency.
      stats_.write_new_blocks++;
      tenants_[tenant].write_bypass_blocks++;
      bypass_lbas.push_back(lba);
      bypass_tags.push_back(tag);
      continue;
    } else {
      stats_.write_new_blocks++;
    }
    stage_dirty(lba, tag, tenant, now, WriteCause::kUserWrite);
  }
  drain_buffers(now);
  // Writes are acknowledged once staged in the segment buffer (§4.1); the
  // in-flight throttle applies device back-pressure.
  SimTime ack = now + kStageCost * req.nblocks;
  // Bypassed blocks are acknowledged at primary speed (write-through): the
  // squeezed tenant feels HDD latency, which is exactly the cost its quota
  // says it has not earned the flash to avoid.
  size_t i = 0;
  while (i < bypass_lbas.size()) {
    size_t j = i + 1;
    while (j < bypass_lbas.size() && bypass_lbas[j] == bypass_lbas[j - 1] + 1)
      ++j;
    auto r = primary_->write(now, bypass_lbas[i], static_cast<u32>(j - i),
                             std::span<const u64>(&bypass_tags[i], j - i));
    if (r.ok()) {
      ack = std::max(ack, r.done);
      ledger_.add(obs::kPrimaryDevice, tenant, WriteCause::kQuotaShed,
                  (j - i) * kBlockSize);
    }
    i = j;
  }
  ack = throttle(now, ack);
  return ack;
}

// --- compressed DRAM tier hand-off ------------------------------------------

SimTime SrcCache::tier_destage(SimTime now, std::span<const u64> lbas,
                               std::span<const u64> tags,
                               std::span<const u16> tenants) {
  if (crashed_) return now;
  // Destages carry dirty data that only the tier holds, so they stage
  // unconditionally — the quota gate applies to admissions, not durability.
  for (size_t i = 0; i < lbas.size(); ++i) {
    stage_dirty(lbas[i], tags[i], norm_tenant(tenants[i]), now,
                WriteCause::kTierDestage);
  }
  drain_buffers(now);
  return throttle(now, now + kStageCost * static_cast<SimTime>(lbas.size()));
}

SimTime SrcCache::tier_demote(SimTime now, u64 lba, u64 tag, u16 tenant) {
  if (crashed_) return now;
  stage_clean(lba, tag, norm_tenant(tenant), WriteCause::kTierDemote);
  drain_buffers(now);
  return throttle(now, now + kStageCost);
}

bool SrcCache::hot_hint(u64 lba) const {
  const MapEntry* e = map_.find(lba);
  return e != nullptr && e->hot();
}

// --- segment sealing --------------------------------------------------------

u32 SrcCache::allocate_sg(SimTime now) {
  if (!in_gc_) ensure_free_sg(now);
  if (free_sgs_.empty()) reclaim_one(now, /*force_s2d=*/true);
  if (free_sgs_.empty())
    throw std::logic_error("SRC: no reclaimable segment group");
  const u32 sg = free_sgs_.front();
  free_sgs_.pop_front();
  sgs_[sg].state = SgState::kActive;
  sgs_[sg].next_seg = 0;
  return sg;
}

SimTime SrcCache::seal_buffer(SimTime now, bool dirty_type,
                              bool force_partial) {
  SegBuffer& buf = dirty_type ? dirty_buf_ : clean_buf_;
  const u64 cap = buffer_capacity(dirty_type);
  SimTime done = now;
  // Drain full segments; GC triggered by SG allocation below may append
  // further entries, which this loop absorbs.
  while (buf.pending() >= cap)
    done = std::max(done, write_one_segment(now, dirty_type, cap));
  if (force_partial && buf.pending() > 0)
    done = std::max(done, write_one_segment(now, dirty_type, buf.pending()));
  return done;
}

void SrcCache::trim_sealed_prefix(SegBuffer& buf) {
  if (buf.head < buf.pending()) return;
  const auto cut = [&buf](auto& v) {
    v.erase(v.begin(), v.begin() + buf.head);
  };
  cut(buf.lbas);
  cut(buf.tags);
  cut(buf.tenants);
  cut(buf.causes);
  buf.head = 0;
  for (u32 i = 0; i < buf.lbas.size(); ++i)
    if (buf.lbas[i] != kDeadSlot) map_.at(buf.lbas[i]).slot = i;
}

SimTime SrcCache::write_one_segment(SimTime now, bool dirty_type, u64 count) {
  if (crashed_) return now;  // power is off
  SegBuffer& buf = dirty_type ? dirty_buf_ : clean_buf_;
  const u64 capacity = buffer_capacity(dirty_type);
  count = std::min<u64>({count, capacity, buf.pending()});
  if (count == 0) return now;

  // Scheduled power cut (crash-consistency harness): the Nth seal tears at
  // the chosen point, and from then on nothing reaches the devices.
  CrashPoint point = crash_point_;
  if (crash_scheduled_ && seal_count_ == crash_at_seal_) {
    point = crash_at_point_;
    crashed_ = true;
  }
  seal_count_++;

  // Take the `count` entries at the head by value: GC appends during SG
  // allocation may reallocate the buffer.
  const auto take = [&buf, count](const auto& v) {
    const auto first = v.begin() + buf.head;
    return std::vector(first, first + static_cast<long>(count));
  };
  const std::vector<u64> taken_lba = take(buf.lbas);
  const std::vector<u64> taken_tag = take(buf.tags);
  const std::vector<u16> taken_tenant = take(buf.tenants);
  const std::vector<u8> taken_cause = take(buf.causes);
  u32 taken_live = 0;
  for (u64 lba : taken_lba)
    if (lba != kDeadSlot) ++taken_live;
  buf.head += static_cast<u32>(count);
  buf.live -= taken_live;
  trim_sealed_prefix(buf);

  // Allocating the SG may run GC; by now the taken entries are private and
  // GC can only touch the (re-indexed) buffer tail.
  if (active_sg_ == kBufferSg) active_sg_ = allocate_sg(now);
  SgInfo& sg = sgs_[active_sg_];
  // A freshly reclaimed SG is only writable once its destages reached
  // primary storage — destage pressure throttles foreground writes here.
  const SimTime issue = std::max(now, sg.ready_at);
  const u32 seg = sg.next_seg++;
  SegmentInfo& si = sg.segs[seg];

  si.type = dirty_type ? SegType::kDirty : SegType::kClean;
  si.has_parity = cfg_.segment_has_parity(dirty_type);
  si.generation = ++gen_seq_;
  si.parity_col = 0;
  if (si.has_parity && cfg_.raid != SrcRaidLevel::kRaid1) {
    si.parity_col = cfg_.raid == SrcRaidLevel::kRaid4
                        ? static_cast<u8>(cfg_.num_ssds - 1)
                        : static_cast<u8>(gen_seq_ % cfg_.num_ssds);
  }
  si.slot_lba = taken_lba;
  si.slot_lba.resize(capacity, kDeadSlot);
  si.slot_crc.assign(capacity, 0);
  si.slot_tenant = taken_tenant;
  si.slot_tenant.resize(capacity, 0);
  si.live = taken_live;
  sg.live += taken_live;
  for (u64 s = 0; s < taken_lba.size(); ++s)
    if (taken_lba[s] != kDeadSlot) census_add(sg, taken_tenant[s], 1);
  live_total_ += taken_live;

  // Per-device tag images (column-major slot layout; see addr_of).
  const u64 rows = cfg_.slots_per_chunk();
  const u64 ncols = seg_data_cols(si);
  std::vector<std::vector<u64>> images(cfg_.num_ssds,
                                       std::vector<u64>(rows, 0));
  SegmentMeta meta;
  meta.generation = si.generation;
  meta.sg = active_sg_;
  meta.seg = seg;
  meta.dirty = dirty_type;
  meta.has_parity = si.has_parity;
  meta.parity_col = si.parity_col;
  meta.entries.resize(capacity);

  for (u32 s = 0; s < capacity; ++s) {
    const u64 lba = si.slot_lba[s];
    const u64 tag = s < taken_tag.size() ? taken_tag[s] : 0;
    const u64 col = s / rows;
    const u64 row = s % rows;
    size_t dev;
    if (cfg_.raid == SrcRaidLevel::kRaid1) {
      dev = static_cast<size_t>(col);
    } else if (si.has_parity && col >= si.parity_col) {
      dev = static_cast<size_t>(col) + 1;
    } else {
      dev = static_cast<size_t>(col);
    }
    images[dev][row] = tag;
    if (cfg_.raid == SrcRaidLevel::kRaid1) images[dev + ncols][row] = tag;
    meta.entries[s].lba = lba;
    meta.entries[s].tenant = si.slot_tenant[s];
    if (lba != kDeadSlot) {
      const u32 crc = common::crc32c_of(tag);
      si.slot_crc[s] = crc;
      meta.entries[s].crc = crc;
      // Relocate the mapping from the buffer to the sealed slot.
      MapEntry& e = map_.at(lba);
      e.sg = active_sg_;
      e.seg = seg;
      e.slot = s;
    }
  }
  if (si.has_parity && cfg_.raid != SrcRaidLevel::kRaid1) {
    auto& parity = images[si.parity_col];
    for (size_t d = 0; d < ssds_.size(); ++d) {
      if (d == si.parity_col) continue;
      for (u64 r = 0; r < rows; ++r) parity[r] ^= images[d][r];
    }
  }

  // Issue the stripe: MS + data + ME per SSD, all in parallel (§4.1).
  const u64 base = chunk_base_block(active_sg_, seg);
  const auto ms_payload = meta.serialize();
  const auto me_payload = SegmentMeta::tail_of(ms_payload);
  SimTime done = issue;
  const u32 fill_span = span_ != nullptr && span_->sampling()
                            ? span_->begin_span("src.segment_fill", issue)
                            : obs::kNoSpan;
  // Ledger attribution of one device's data chunk: every row of a data
  // column carries its slot's staged cause/tenant (dead and padding slots
  // are layout overhead -> parity/shared); mirror and parity columns are
  // redundancy overhead wholesale. Co-located with the device writes and
  // gated on the same success/crash conditions, so per-device ledger bytes
  // stay exactly equal to DeviceStats::write_blocks.
  const auto account_data_chunk = [&](size_t d) {
    const u32 dev32 = static_cast<u32>(d);
    if (cfg_.raid == SrcRaidLevel::kRaid1 && d >= ncols) {
      ledger_.add(dev32, obs::kSharedTenant, WriteCause::kParity,
                  rows * kBlockSize);
      return;
    }
    if (si.has_parity && cfg_.raid != SrcRaidLevel::kRaid1 &&
        d == si.parity_col) {
      ledger_.add(dev32, obs::kSharedTenant, WriteCause::kParity,
                  rows * kBlockSize);
      return;
    }
    u64 col = d;
    if (si.has_parity && cfg_.raid != SrcRaidLevel::kRaid1 &&
        d > si.parity_col)
      col = d - 1;
    for (u64 r = 0; r < rows; ++r) {
      const u64 s = col * rows + r;
      if (s < taken_cause.size()) {
        ledger_.add(dev32, taken_tenant[s],
                    static_cast<WriteCause>(taken_cause[s]), kBlockSize);
      } else {
        ledger_.add(dev32, obs::kSharedTenant, WriteCause::kParity,
                    kBlockSize);
      }
    }
  };
  for (size_t d = 0; d < ssds_.size(); ++d) {
    BlockDevice* dev = ssds_[d];
    if (dev->failed()) continue;
    if (point == CrashPoint::kBeforeSeg) break;
    auto rms = dev->write_payload(issue, base, ms_payload);
    if (rms.ok()) {
      done = std::max(done, rms.done);
      ledger_.add(static_cast<u32>(d), obs::kSharedTenant, WriteCause::kParity,
                  payload_blocks(ms_payload) * kBlockSize);
    }
    if (point == CrashPoint::kAfterMs) continue;
    auto rdata = dev->write(issue, base + 1, static_cast<u32>(rows),
                            std::span<const u64>(images[d].data(), rows));
    if (rdata.ok()) {
      done = std::max(done, rdata.done);
      account_data_chunk(d);
    }
    if (point == CrashPoint::kAfterData) continue;
    auto rme = dev->write_payload(issue, base + 1 + rows, me_payload);
    if (rme.ok()) {
      done = std::max(done, rme.done);
      ledger_.add(static_cast<u32>(d), obs::kSharedTenant, WriteCause::kParity,
                  payload_blocks(me_payload) * kBlockSize);
    }
  }
  if (fill_span != obs::kNoSpan) span_->end_span(fill_span, done, count);
  // A fresh stripe just landed on every non-failed device, including a
  // rebuilding replacement: pending rebuild copies of this chunk are stale.
  if (rebuild_ != nullptr && point == CrashPoint::kNone)
    rebuild_->discard(base, cfg_.chunk_blocks());

  extra_.segments_written++;
  if (dirty_type) {
    extra_.dirty_segments++;
    if (count < capacity) extra_.partial_segments++;
  } else {
    extra_.clean_segments++;
  }

  const bool sg_full = sg.next_seg >= cfg_.segments_per_sg();
  if (cfg_.flush_control == FlushControl::kPerSegment) {
    done = flush_all_ssds(done);
  } else if (sg_full) {
    done = flush_all_ssds(done);
  }
  if (sg_full) {
    sg.state = SgState::kSealed;
    sg.seal_seq = ++seal_seq_;
    active_sg_ = kBufferSg;
  }
  inflight_.push_back(done);
  return done;
}

// --- read path --------------------------------------------------------------

SimTime SrcCache::do_read(const cache::AppRequest& req) {
  const SimTime now = req.now;
  const u16 tenant = norm_tenant(req.tenant);
  stats_.app_read_ops++;
  stats_.app_read_blocks += req.nblocks;
  SimTime done = now + kRamReadCost * req.nblocks;

  struct SsdRead {
    size_t dev;
    u64 block;
    u32 idx;  // request block index
    u32 sg, seg, slot;
  };
  std::vector<SsdRead> ssd_reads;
  std::vector<std::pair<u64, u32>> miss_runs;  // (lba, count)

  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    MapEntry* hit = map_.find(lba);
    if (hit == nullptr) {
      stats_.read_miss_blocks++;
      tenants_[tenant].read_miss_blocks++;
      if (!miss_runs.empty() &&
          miss_runs.back().first + miss_runs.back().second == lba) {
        miss_runs.back().second++;
      } else {
        miss_runs.emplace_back(lba, 1);
      }
      continue;
    }
    MapEntry& e = *hit;
    e.flags |= kFlagHot;
    eviction_->on_access(lba);
    stats_.read_hit_blocks++;
    tenants_[tenant].read_hit_blocks++;
    if (e.buffered()) {
      const SegBuffer& buf = e.dirty() ? dirty_buf_ : clean_buf_;
      if (req.tags_out != nullptr) req.tags_out[i] = buf.tags[e.slot];
      continue;
    }
    const SegmentInfo& si = sgs_[e.sg].segs[e.seg];
    SlotAddr a = addr_of(e.sg, e.seg, e.slot, si);
    if (dev_dead(a.dev, a.block) && a.mirror_dev != SIZE_MAX &&
        !dev_dead(a.mirror_dev, a.block)) {
      a.dev = a.mirror_dev;
    }
    if (dev_dead(a.dev, a.block)) {
      // Failed, or a blank replacement not yet rebuilt here — the device
      // would serve garbage, not an error. Straight to the repair path.
      SimTime t = now;
      auto rec = read_slot(now, e.sg, e.seg, e.slot, &t);
      done = std::max(done, t);
      if (rec.is_ok() && req.tags_out != nullptr)
        req.tags_out[i] = rec.value();
      continue;
    }
    ssd_reads.push_back({a.dev, a.block, i, e.sg, e.seg, e.slot});
  }

  // Batched cache-hit reads: contiguous per-device runs become one command.
  std::sort(ssd_reads.begin(), ssd_reads.end(),
            [](const SsdRead& a, const SsdRead& b) {
              return a.dev != b.dev ? a.dev < b.dev : a.block < b.block;
            });
  std::vector<u64> buf;
  size_t i = 0;
  while (i < ssd_reads.size()) {
    size_t j = i + 1;
    while (j < ssd_reads.size() && ssd_reads[j].dev == ssd_reads[i].dev &&
           ssd_reads[j].block == ssd_reads[j - 1].block + 1) {
      ++j;
    }
    const size_t cnt = j - i;
    buf.resize(cnt);
    auto r = ssds_[ssd_reads[i].dev]->read(now, ssd_reads[i].block,
                                           static_cast<u32>(cnt),
                                           std::span<u64>(buf.data(), cnt));
    bool need_slow_path = !r.ok();
    if (r.ok()) {
      done = std::max(done, r.done);
      if (cfg_.verify_checksums) {
        for (size_t k = 0; k < cnt && !need_slow_path; ++k) {
          const SsdRead& sr = ssd_reads[i + k];
          const SegmentInfo& si = sgs_[sr.sg].segs[sr.seg];
          if (common::crc32c_of(buf[k]) != si.slot_crc[sr.slot])
            need_slow_path = true;
        }
      }
    }
    if (!need_slow_path) {
      if (req.tags_out != nullptr)
        for (size_t k = 0; k < cnt; ++k)
          req.tags_out[ssd_reads[i + k].idx] = buf[k];
    } else {
      // Per-block verified read with repair (§4.1 failure handling).
      for (size_t k = 0; k < cnt; ++k) {
        const SsdRead& sr = ssd_reads[i + k];
        SimTime t = now;
        auto rec = read_slot(now, sr.sg, sr.seg, sr.slot, &t);
        done = std::max(done, t);
        if (rec.is_ok() && req.tags_out != nullptr)
          req.tags_out[sr.idx] = rec.value();
      }
    }
    i = j;
  }

  // Misses: fetch from primary storage into the staging/clean buffer (§4.1).
  std::vector<u64> fetched;
  for (const auto& [lba, cnt] : miss_runs) {
    fetched.assign(cnt, 0);
    const u32 fetch_span = span_ != nullptr && span_->sampling()
                               ? span_->begin_span("backend.fetch", now)
                               : obs::kNoSpan;
    auto r = primary_->read(now, lba, cnt, std::span<u64>(fetched.data(), cnt));
    if (fetch_span != obs::kNoSpan)
      span_->end_span(fetch_span, r.ok() ? r.done : now, cnt);
    if (!r.ok()) continue;
    done = std::max(done, r.done);
    stats_.fetch_blocks += cnt;
    if (req.tags_out != nullptr)
      for (u32 k = 0; k < cnt; ++k)
        req.tags_out[lba - req.lba + k] = fetched[k];
    // Quota admission gate: an over-quota tenant's misses are served from
    // primary but not cached, so its footprint shrinks by attrition.
    if (over_quota(tenant)) {
      tenants_[tenant].fetch_bypass_blocks += cnt;
    } else {
      // Policy admission gate, per block: a rejected fill is served through
      // without touching flash (the dominant NAND-write saving on
      // read-heavy traces). The reject itself is evidence — GhostAdmission
      // remembers the lba and admits its next miss.
      for (u32 k = 0; k < cnt; ++k) {
        if (!admission_->admit(lba + k)) continue;
        stage_clean(lba + k, fetched[k], tenant, WriteCause::kMissFill);
      }
    }
  }
  // Clean segment writes happen off the critical path; back-pressure only.
  drain_buffers(now);
  return throttle(now, done);
}

Result<u64> SrcCache::read_slot(SimTime now, u32 sg, u32 seg, u32 slot,
                                SimTime* done) {
  const SegmentInfo& si = sgs_[sg].segs[seg];
  const u64 lba = si.slot_lba[slot];
  const SlotAddr a = addr_of(sg, seg, slot, si);
  const u32 want_crc = si.slot_crc[slot];

  if (!dev_dead(a.dev, a.block)) {
    u64 tag = 0;
    auto r = ssds_[a.dev]->read(now, a.block, 1, std::span<u64>(&tag, 1));
    if (r.ok()) {
      if (done != nullptr) *done = std::max(*done, r.done);
      if (!cfg_.verify_checksums || common::crc32c_of(tag) == want_crc)
        return tag;
      extra_.checksum_errors++;
      if (fault_ledger_ != nullptr)
        fault_ledger_->record_detected(static_cast<int>(a.dev), a.block);
      if (span_ != nullptr) span_->event("src.checksum_error", now, lba);
    } else if (r.error == ErrorCode::kMediaError) {
      if (done != nullptr) *done = std::max(*done, r.done);
      extra_.media_errors++;
      if (fault_ledger_ != nullptr)
        fault_ledger_->record_detected(static_cast<int>(a.dev), a.block);
      if (span_ != nullptr) span_->event("src.media_error", now, lba);
    }
  }
  // Mirror copy (RAID-1).
  if (a.mirror_dev != SIZE_MAX && !dev_dead(a.mirror_dev, a.block)) {
    u64 tag = 0;
    auto r =
        ssds_[a.mirror_dev]->read(now, a.block, 1, std::span<u64>(&tag, 1));
    if (r.ok() &&
        (!cfg_.verify_checksums || common::crc32c_of(tag) == want_crc)) {
      if (done != nullptr) *done = std::max(*done, r.done);
      extra_.parity_repairs++;
      if (!ssds_[a.dev]->failed()) {
        // The write-back overwrites the bad copy (remap-on-write also clears
        // a latent sector error), so the fault is genuinely gone.
        auto wr =
            ssds_[a.dev]->write(now, a.block, 1, std::span<const u64>(&tag, 1));
        if (wr.ok())
          ledger_.add(static_cast<u32>(a.dev), si.slot_tenant[slot],
                      WriteCause::kRepairRemap, kBlockSize);
        if (fault_ledger_ != nullptr)
          fault_ledger_->record_repaired(static_cast<int>(a.dev), a.block);
      }
      return tag;
    }
    if (r.ok()) {
      extra_.checksum_errors++;
      if (fault_ledger_ != nullptr)
        fault_ledger_->record_detected(static_cast<int>(a.mirror_dev), a.block);
    } else if (r.error == ErrorCode::kMediaError) {
      extra_.media_errors++;
      if (fault_ledger_ != nullptr)
        fault_ledger_->record_detected(static_cast<int>(a.mirror_dev), a.block);
    }
  }
  // Parity reconstruction across the stripe row.
  if (si.has_parity && cfg_.raid != SrcRaidLevel::kRaid1) {
    SimTime t = now;
    auto rec = reconstruct_from_stripe(now, sg, seg, slot, &t);
    if (rec.is_ok()) {
      const u64 tag = rec.value();
      if (!cfg_.verify_checksums || common::crc32c_of(tag) == want_crc) {
        if (done != nullptr) *done = std::max(*done, t);
        extra_.parity_repairs++;
        if (span_ != nullptr) span_->event("src.parity_repair", now, lba);
        if (!ssds_[a.dev]->failed()) {
          auto wr = ssds_[a.dev]->write(now, a.block, 1,
                                        std::span<const u64>(&tag, 1));
          if (wr.ok())
            ledger_.add(static_cast<u32>(a.dev), si.slot_tenant[slot],
                        WriteCause::kRepairRemap, kBlockSize);
          if (fault_ledger_ != nullptr)
            fault_ledger_->record_repaired(static_cast<int>(a.dev), a.block);
        }
        return tag;
      }
    }
  }
  // Clean data can always be refetched from primary storage (§4.3).
  if (si.type == SegType::kClean && lba != kDeadSlot) {
    u64 tag = 0;
    auto r = primary_->read(now, lba, 1, std::span<u64>(&tag, 1));
    if (r.ok()) {
      if (done != nullptr) *done = std::max(*done, r.done);
      extra_.refetch_repairs++;
      if (!ssds_[a.dev]->failed()) {
        // Rewrite the slot so the repair sticks: remap-on-write clears a
        // latent sector error and the good tag replaces the corrupt one
        // (without this every later read re-pays the refetch).
        auto wr =
            ssds_[a.dev]->write(now, a.block, 1, std::span<const u64>(&tag, 1));
        if (wr.ok())
          ledger_.add(static_cast<u32>(a.dev), si.slot_tenant[slot],
                      WriteCause::kRepairRemap, kBlockSize);
        if (fault_ledger_ != nullptr)
          fault_ledger_->record_repaired(static_cast<int>(a.dev), a.block);
      }
      if (span_ != nullptr) span_->event("src.refetch_repair", now, lba);
      return tag;
    }
  }
  extra_.unrecoverable_blocks++;
  if (span_ != nullptr) span_->event("src.unrecoverable", now, lba);
  return Status(ErrorCode::kUnrecoverable, "cached block lost");
}

Result<u64> SrcCache::reconstruct_from_stripe(SimTime now, u32 sg, u32 seg,
                                              u32 slot, SimTime* done) {
  const SegmentInfo& si = sgs_[sg].segs[seg];
  const SlotAddr target = addr_of(sg, seg, slot, si);
  const u64 rows = cfg_.slots_per_chunk();
  const u64 row = slot % rows;
  const u64 block = chunk_base_block(sg, seg) + 1 + row;
  u64 acc = 0;
  SimTime t = now;
  for (size_t d = 0; d < ssds_.size(); ++d) {
    if (d == target.dev) continue;
    if (dev_dead(d, block))
      return Status(ErrorCode::kDeviceFailed, "double failure in stripe");
    u64 tag = 0;
    auto r = ssds_[d]->read(now, block, 1, std::span<u64>(&tag, 1));
    if (!r.ok()) {
      if (r.error == ErrorCode::kMediaError) {
        extra_.media_errors++;
        if (fault_ledger_ != nullptr)
          fault_ledger_->record_detected(static_cast<int>(d), block);
      }
      return Status(r.error);
    }
    acc ^= tag;
    t = std::max(t, r.done);
  }
  if (done != nullptr) *done = std::max(*done, t);
  return acc;
}

}  // namespace srcache::src
