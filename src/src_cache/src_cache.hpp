// SRC — SSD RAID as a Cache (the paper's contribution, §4).
//
// A write-back block cache over an array of commodity SSDs organised as a
// log of *segment groups* (SGs). Each SG spans all SSDs and is sized to the
// devices' erase group; segments (chunk × num_ssds) are written whole —
// data, MS/ME metadata blocks and parity in one stripe — so the SSDs see
// only large sequential writes and whole-SG TRIMs, and the RAID layer never
// needs a read-modify-write.
//
// Implemented design space (Table 7): RAID-0/1/4/5 stripe formation,
// PC/NPC clean-data redundancy, S2D vs Sel-GC reclamation with FIFO/Greedy
// victim selection and the UMAX threshold, flush per segment vs per SG,
// partial-segment timeout, checksum verification with parity / refetch
// repair, crash recovery from MS/ME generation matching, and fail-stop SSD
// handling.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "block/block_device.hpp"
#include "cache/cache_device.hpp"
#include "common/lba_map.hpp"
#include "fault/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "raid/rebuild.hpp"
#include "src_cache/segment_meta.hpp"
#include "src_cache/src_config.hpp"

namespace srcache::fault {
class FaultInjector;
}  // namespace srcache::fault

namespace srcache::src {

using blockdev::BlockDevice;
using sim::SimTime;

class SrcCache final : public cache::CacheDevice {
 public:
  // Counters beyond the generic CacheStats.
  struct ExtraStats {
    u64 segments_written = 0;
    u64 partial_segments = 0;
    u64 clean_segments = 0;
    u64 dirty_segments = 0;
    u64 sg_reclaims = 0;
    u64 s2d_reclaims = 0;
    u64 s2s_reclaims = 0;
    u64 flushes_issued = 0;      // flush commands SRC sent to the SSDs
    u64 checksum_errors = 0;
    u64 media_errors = 0;        // device-reported latent sector errors
    u64 parity_repairs = 0;
    u64 refetch_repairs = 0;
    u64 unrecoverable_blocks = 0;
    u64 lost_clean_blocks = 0;   // dropped on SSD failure (NPC mode)
    u64 lost_dirty_blocks = 0;   // data loss (RAID-0 only)
    u64 torn_segments_discarded = 0;  // MS/ME generation mismatch in recover
  };

  enum class Residence {
    kAbsent,
    kDirtyBuffer,
    kCleanBuffer,
    kCachedDirty,
    kCachedClean,
  };

  // Per-tenant accounting. Slot 0 always exists; set_tenant_quotas (or a
  // request carrying a new tenant id) grows the vector.
  struct TenantStats {
    u64 read_hit_blocks = 0;
    u64 read_miss_blocks = 0;
    u64 write_blocks = 0;
    u64 fetch_bypass_blocks = 0;  // misses served but not admitted (over quota)
    u64 write_bypass_blocks = 0;  // new writes sent to primary (over quota)
    u64 gc_shed_blocks = 0;       // blocks GC would have kept, shed over quota
    u64 destage_blocks = 0;
    u64 live_blocks = 0;   // current occupancy, buffers included
    u64 quota_blocks = 0;  // enforced share (0 while unmanaged)
  };

  // Testing hook: abort a segment write at a chosen point to model a torn
  // write / power loss (recovery must then discard the segment).
  // kBeforeSeg cuts power before anything of the segment reaches media.
  enum class CrashPoint { kNone, kAfterMs, kAfterData, kBeforeSeg };

  // `ssds` are borrowed and must each expose at least
  // region_start_block + region blocks. `primary` is the backing store.
  SrcCache(const SrcConfig& cfg, std::vector<BlockDevice*> ssds,
           BlockDevice* primary);

  // Initializes an empty cache: writes the superblock into SG 0 (§4.1).
  SimTime format(SimTime now);

  // Rebuilds the in-memory state from on-SSD metadata after a crash:
  // validates the superblock, scans every segment's MS/ME pair, keeps
  // segments whose generations match, newest generation wins per LBA.
  Status recover(SimTime now, SimTime* done = nullptr);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] const SrcConfig& config() const { return cfg_; }
  [[nodiscard]] const ExtraStats& extra() const { return extra_; }

  // Multi-tenant capacity steering. Quotas (blocks per tenant) are soft
  // targets enforced without eviction storms: an over-quota tenant's misses
  // are served but not admitted, GC victim selection favours SGs rich in its
  // blocks, and Sel-GC sheds (destages or drops) its blocks instead of
  // keeping them — the tenant drains by attrition. Typically driven by
  // adapt::AdaptiveController at epoch boundaries.
  void set_tenant_quotas(const std::vector<u64>& quotas);
  [[nodiscard]] const std::vector<TenantStats>& tenant_stats() const {
    return tenants_;
  }
  [[nodiscard]] u32 tenant_count() const {
    return static_cast<u32>(tenants_.size());
  }
  [[nodiscard]] double utilization() const;
  [[nodiscard]] u64 free_sg_count() const { return free_sgs_.size(); }
  [[nodiscard]] Residence residence(u64 lba) const;

  // Reacts to an SSD fail-stopped at `now`: drops unprotected blocks, keeps
  // parity-protected ones for on-the-fly reconstruction (§4.3).
  void on_ssd_failure(size_t ssd, SimTime now);

  // Proactive integrity scrub: reads and checksum-verifies every live
  // cached block, repairing through parity/mirror/refetch as on the read
  // path (§4.1). Returns per-outcome counts.
  struct ScrubReport {
    u64 scanned = 0;
    u64 repaired = 0;       // parity/mirror reconstructions
    u64 refetched = 0;      // clean blocks re-read from primary
    u64 unrecoverable = 0;  // lost (RAID-0 dirty only)
  };
  ScrubReport scrub(SimTime now, SimTime* done = nullptr);

  // Internal-invariant audit for tests: mapping table vs segment census vs
  // live counters. Returns the first violated invariant.
  [[nodiscard]] Status verify_consistency() const;

  void set_crash_point(CrashPoint p) { crash_point_ = p; }

  // Crash-consistency harness hooks: power-cut exactly at the `nth_seal`-th
  // segment write (0-indexed), at the chosen point within the stripe. Once
  // the cut fires, no further I/O of any kind reaches the devices; the
  // instance is then only good for inspecting what made it to media.
  void schedule_crash(u64 nth_seal, CrashPoint p) {
    crash_scheduled_ = true;
    crash_at_seal_ = nth_seal;
    crash_at_point_ = p;
  }
  [[nodiscard]] bool crashed() const { return crashed_; }
  // Segment writes issued so far; a full run's count enumerates the
  // power-cut boundaries the harness sweeps.
  [[nodiscard]] u64 seals() const { return seal_count_; }

  // --- compressed DRAM tier hand-off (src/tier) ---
  // Dirty blocks destaged by the tier enter the normal dirty staging path
  // under the kTierDestage provenance cause; clean blocks demoted on tier
  // eviction stage as clean fills under kTierDemote (a no-op when the block
  // is already resident — the cached copy wins). Both return the ack time
  // after draining full segments and applying the in-flight throttle.
  SimTime tier_destage(SimTime now, std::span<const u64> lbas,
                       std::span<const u64> tags,
                       std::span<const u16> tenants);
  SimTime tier_demote(SimTime now, u64 lba, u64 tag, u16 tenant);
  // Promotion hint for the tier: true when the block is resident here and
  // marked hot (recently re-accessed), i.e. worth holding in DRAM too.
  [[nodiscard]] bool hot_hint(u64 lba) const;

  // Wires a scripted fault plan, and optionally a rebuilder, to this cache;
  // the only code that knows how. `inj` drives the cache's SSDs and
  // primary, its ledger receives the read path's detections and repairs
  // (keyed by ssd index and device block), and a fired fail-stop runs
  // on_ssd_failure, then mgr->on_device_failed. `mgr` rebuilds SRC-aware
  // (rebuild_extents, on_rebuild_lost, spare writes ledgered as
  // rebuild_copy provenance), masks not-yet-rebuilt blocks from the read
  // path and follows the plan's replace/spare actions. The callbacks hold
  // `this`: the cache, `inj` and `mgr` must outlive every run driving them.
  void attach_faults(fault::FaultInjector& inj,
                     raid::RebuildManager* mgr = nullptr);

  // Registers pull-style observability metrics (segment/reclaim/repair
  // counters, utilization, free-SG gauge) under `scope`, e.g. "src". The
  // callbacks read this cache; it must outlive the registry's snapshots.
  void register_metrics(const obs::Scope& scope);

  // Attaches an op-span tracer (nullptr detaches): segment fills, reclaims
  // (with an S2D/S2S mode event), destages, flushes and backend fetches
  // become child spans of the sampled op; read-path errors, repairs and
  // failure handling are recorded as events.
  void set_span(obs::SpanTracer* tracer) { span_ = tracer; }

  // Cumulative write-provenance ledger: every byte this cache wrote to the
  // SSDs (obs device index = array position) or to primary storage
  // (obs::kPrimaryDevice), attributed to its cause. Always on — recording is
  // integer adds on the seal/destage paths. The balance invariant (per
  // device: ledger bytes == DeviceStats::write_blocks x kBlockSize) is
  // asserted by provenance_test.
  [[nodiscard]] const obs::ProvenanceLedger& provenance() const {
    return ledger_;
  }

 private:
  static constexpr u32 kBufferSg = ~0u;
  static constexpr u8 kFlagDirty = 1;
  static constexpr u8 kFlagHot = 2;

  struct MapEntry {
    u32 sg = 0;
    u32 seg = 0;
    u32 slot = 0;
    u16 tenant = 0;
    u8 flags = 0;
    [[nodiscard]] bool dirty() const { return (flags & kFlagDirty) != 0; }
    [[nodiscard]] bool hot() const { return (flags & kFlagHot) != 0; }
    [[nodiscard]] bool buffered() const { return sg == kBufferSg; }
  };

  enum class SegType : u8 { kNone, kClean, kDirty };

  struct SegmentInfo {
    SegType type = SegType::kNone;
    bool has_parity = false;
    u8 parity_col = 0;
    u64 generation = 0;
    u32 live = 0;
    std::vector<u64> slot_lba;
    std::vector<u32> slot_crc;
    std::vector<u16> slot_tenant;
  };

  enum class SgState : u8 { kFree, kActive, kSealed, kReclaiming, kSuper };

  struct SgInfo {
    SgState state = SgState::kFree;
    u64 seal_seq = 0;
    u32 live = 0;
    u32 next_seg = 0;
    // Earliest time the (freed) SG may be rewritten: its destages must have
    // reached primary storage first. Writes into it stall until then,
    // which is how destage pressure throttles the foreground (§4.2).
    SimTime ready_at = 0;
    std::vector<SegmentInfo> segs;
    // Live blocks per tenant in this SG (grown lazily); lets GC victim
    // selection price over-quota tenants' blocks as reclaimable.
    std::vector<u32> live_by_tenant;
  };

  // Staged blocks in arrival order. Entries [0, head) were already sealed;
  // the prefix is dropped only once it is as long as the pending tail, so
  // a seal rarely re-indexes the blocks behind it. A buffered
  // MapEntry::slot is an index into these vectors.
  struct SegBuffer {
    std::vector<u64> lbas;  // kDeadSlot marks an invalidated staged block
    std::vector<u64> tags;
    std::vector<u16> tenants;
    // Why each staged block exists (obs::WriteCause); rides along to the
    // seal so the flash bytes it turns into are attributed at stage time.
    std::vector<u8> causes;
    u32 head = 0;
    u32 live = 0;
    [[nodiscard]] u64 pending() const { return lbas.size() - head; }
    void push(u64 lba, u64 tag, u16 tenant, obs::WriteCause cause) {
      lbas.push_back(lba);
      tags.push_back(tag);
      tenants.push_back(tenant);
      causes.push_back(static_cast<u8>(cause));
      live++;
    }
    void clear() {
      lbas.clear();
      tags.clear();
      tenants.clear();
      causes.clear();
      head = 0;
      live = 0;
    }
  };

  struct SlotAddr {
    size_t dev;
    u64 block;
    size_t mirror_dev = SIZE_MAX;  // RAID-1 replica
  };

  // --- geometry ---
  [[nodiscard]] u64 sg_base_block(u32 sg) const;
  [[nodiscard]] u64 chunk_base_block(u32 sg, u32 seg) const;
  [[nodiscard]] u64 seg_data_cols(const SegmentInfo& si) const;
  [[nodiscard]] SlotAddr addr_of(u32 sg, u32 seg, u32 slot,
                                 const SegmentInfo& si) const;

  // --- tenants ---
  // Clamps an application tenant id into the stats vector, growing it when
  // quotas are not enforced (unmanaged runs still account per tenant).
  u16 norm_tenant(u32 tenant);
  [[nodiscard]] bool over_quota(u16 tenant) const;
  void census_add(SgInfo& sg, u16 tenant, u32 n);
  void census_sub(SgInfo& sg, u16 tenant, u32 n);
  // Victim live count with over-quota tenants' blocks priced as garbage.
  [[nodiscard]] u64 reclaimable_live(const SgInfo& sg) const;
  void register_tenant_metrics();

  // --- write path ---
  SimTime do_write(const cache::AppRequest& req);
  // Staging only appends to a segment buffer; sealing is driven by
  // seal_buffer so that GC-induced appends can never re-enter a seal.
  void stage_dirty(u64 lba, u64 tag, u16 tenant, SimTime now,
                   obs::WriteCause cause);
  void stage_clean(u64 lba, u64 tag, u16 tenant, obs::WriteCause cause);
  // Sel-GC copy-forward: moves the live entry of `lba` (just invalidated
  // in its victim slot) to the tail of a segment buffer, cold.
  void stage_copy(u64 lba, u64 tag, u16 tenant, bool dirty, SimTime now);
  // Drains every full segment from the buffer (and, when force_partial, a
  // trailing partial one). GC triggered by SG allocation may append more
  // entries; the drain loop absorbs them.
  SimTime seal_buffer(SimTime now, bool dirty_type, bool force_partial);
  // Writes exactly one segment from the buffer front (count entries).
  SimTime write_one_segment(SimTime now, bool dirty_type, u64 count);
  // Drops the sealed prefix of `buf` once it is at least as long as the
  // pending tail, re-indexing the tail's map entries.
  void trim_sealed_prefix(SegBuffer& buf);
  SimTime drain_buffers(SimTime now);
  u32 allocate_sg(SimTime now);
  SimTime throttle(SimTime now, SimTime ack);
  void maybe_timeout_partial(SimTime now);

  // --- read path ---
  SimTime do_read(const cache::AppRequest& req);
  // Reads one cached slot with checksum verification and repair; used by
  // both the degraded/corrupt read path and GC.
  Result<u64> read_slot(SimTime now, u32 sg, u32 seg, u32 slot, SimTime* done);
  Result<u64> reconstruct_from_stripe(SimTime now, u32 sg, u32 seg, u32 slot,
                                      SimTime* done);

  // --- reclamation ---
  SimTime ensure_free_sg(SimTime now);
  SimTime reclaim_one(SimTime now, bool force_s2d);
  [[nodiscard]] u32 pick_victim() const;

  // --- online rebuild (raid/rebuild.hpp, wired by attach_faults) ---
  // Live-segment map export: the extents a replaced SSD must be rebuilt
  // from, in device-block order. MS/ME and superblock replicas are
  // rewritten from in-RAM state; data rows decode via mirror or parity.
  // Rows without redundancy (NPC clean segments) were already dropped at
  // fail time and are skipped — the SRC-aware saving over a blind
  // full-device sweep.
  [[nodiscard]] std::vector<raid::RebuildExtent> rebuild_extents(
      size_t dev) const;
  // A second failure made `lost` ranges of `dev` unreconstructable at
  // `now`: drops the cached blocks addressed there, counted lost, dirty or
  // clean.
  void on_rebuild_lost(size_t dev,
                       const std::vector<raid::RebuildExtent>& lost,
                       SimTime now);

  // --- bookkeeping ---
  // True when the block must not be served from the device itself: the
  // device is failed, or a blank replacement has not been rebuilt here yet
  // (a masked read would return stale/blank data, not an error).
  [[nodiscard]] bool dev_dead(size_t dev, u64 block) const {
    if (ssds_[dev]->failed()) return true;
    return rebuild_ != nullptr && rebuild_->covers(dev, block);
  }
  void invalidate_slot(const MapEntry& e);
  SimTime flush_all_ssds(SimTime now);
  [[nodiscard]] u64 buffer_capacity(bool dirty_type) const;

  SrcConfig cfg_;
  std::vector<BlockDevice*> ssds_;
  BlockDevice* primary_;

  // Replacement/admission policies (src/policy), chosen by cfg_.eviction /
  // cfg_.admission. Recreated cold by recover() and re-seeded from the
  // rebuilt map, so a crash never carries policy state across the cut.
  std::unique_ptr<policy::EvictionPolicy> eviction_;
  std::unique_ptr<policy::AdmissionPolicy> admission_;

  common::LbaMap<MapEntry> map_;
  std::vector<SgInfo> sgs_;
  std::deque<u32> free_sgs_;
  u32 active_sg_ = kBufferSg;

  SegBuffer dirty_buf_;
  SegBuffer clean_buf_;

  std::deque<SimTime> inflight_;  // outstanding segment-write completions
  u64 live_total_ = 0;            // live blocks on SSDs (not buffered)
  u64 gen_seq_ = 0;
  u64 seal_seq_ = 0;
  u64 tag_version_ = 0;
  SimTime last_dirty_stage_ = 0;
  bool in_gc_ = false;
  CrashPoint crash_point_ = CrashPoint::kNone;
  bool crash_scheduled_ = false;
  u64 crash_at_seal_ = 0;
  CrashPoint crash_at_point_ = CrashPoint::kNone;
  bool crashed_ = false;
  u64 seal_count_ = 0;
  fault::FaultLedger* fault_ledger_ = nullptr;
  raid::RebuildManager* rebuild_ = nullptr;

  cache::CacheStats stats_;
  ExtraStats extra_;
  std::vector<TenantStats> tenants_{1};
  bool quotas_enforced_ = false;

  obs::SpanTracer* span_ = nullptr;
  obs::ProvenanceLedger ledger_;
  // Kept so tenants configured after register_metrics still get per-tenant
  // metrics registered (set_tenant_quotas may run later).
  std::optional<obs::Scope> metrics_scope_;
  size_t tenants_registered_ = 0;
};

}  // namespace srcache::src
