// Compressed DRAM tier in front of the SSD array (ZipCache-style
// multi-tier, see ROADMAP).
//
// A size-bounded in-memory cache of 4 KiB blocks held in compressed form,
// interposed above the flash cache (normally SrcCache) on the I/O path. The
// compressor is simulated: the workload layer stamps a deterministic
// per-block compressibility ratio (AppRequest::comp_pct, a percentage of
// kBlockSize) onto every request, and the tier charges calibrated virtual
// CPU time per byte for compression (writes, fills) and decompression
// (read hits). The byte budget applies to *compressed* size, so effective
// capacity floats with how well the data compresses.
//
// Data movement contract:
//  * Writes are absorbed write-back: compressible blocks land dirty in the
//    tier without touching flash; the dirty share of the budget is bounded
//    (dirty_pct) and overflow destages to the flash cache in segment-sized
//    batches under the tier_destage provenance cause.
//  * Read misses forward to the inner cache; blocks filled from primary are
//    admitted (read-miss fill), blocks that hit in the inner cache are
//    promoted up only when the inner cache's hot hint says they earn DRAM.
//  * Incompressible blocks (comp_pct > incompressible_pct) bypass the tier
//    entirely — holding them would spend DRAM at ~1x.
//  * Budget overflow evicts in FIFO order with a policy second chance
//    (src/policy: paper / s3fifo / sieve all work here); an evicted dirty
//    block destages down, an evicted clean block is demoted into the inner
//    cache (tier_demote) unless it is still resident there, in which case
//    it is simply dropped.
//
// Determinism: one tier per engine domain, no clocks, no RNG — every
// decision is a function of the request stream and the (deterministic)
// policy state, so merged REPRO_JSON stays bit-identical across
// REPRO_SHARDS/REPRO_THREADS.
//
// Crash model: DRAM vanishes at a power cut. Dirty blocks resident in the
// tier at the cut are *lost*, never silently corrupted: on_power_cut counts
// each one as lost-dirty and records an injected+detected data-loss pair in
// the FaultLedger, so the ledger still reconciles.
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "cache/cache_device.hpp"
#include "common/lba_map.hpp"
#include "fault/ledger.hpp"
#include "obs/metrics.hpp"
#include "policy/policy.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::tier {

using sim::SimTime;

struct TierConfig {
  u64 budget_bytes = 64 * MiB;   // bound on total *compressed* resident size
  u32 dirty_pct = 50;            // max dirty share of the budget, percent
  policy::EvictionKind eviction = policy::EvictionKind::kPaper;
  double cpu_ns_per_byte = 1.0;  // compression cost; decompression at half
  u32 destage_batch_blocks = 24; // segment-sized write-back batches
  u8 incompressible_pct = 95;    // comp_pct above this bypasses the tier

  void validate() const;
};

// Monotonic tallies; window deltas and cross-domain merges are exact
// integer arithmetic (workload::TierOutcome extends these fields).
struct TierStats {
  u64 hit_blocks = 0;           // reads served from the tier
  u64 miss_blocks = 0;          // reads forwarded to the inner cache
  u64 admit_blocks = 0;         // blocks that entered the tier
  u64 bypass_blocks = 0;        // incompressible blocks passed through
  u64 promote_blocks = 0;       // admits of inner-cache-hot blocks
  u64 destage_blocks = 0;       // dirty blocks written back down
  u64 demote_blocks = 0;        // clean evictions re-admitted below
  u64 drop_blocks = 0;          // clean evictions already resident below
  u64 evict_blocks = 0;         // blocks that left the tier
  u64 uncompressed_bytes = 0;   // cumulative admitted bytes (blocks * 4K)
  u64 compressed_bytes = 0;     // cumulative compressed size of the same
  u64 cpu_compress_ns = 0;      // virtual CPU time charged to compression
  u64 cpu_decompress_ns = 0;    // ... and decompression
  u64 lost_dirty_blocks = 0;    // dirty blocks in DRAM at a power cut

  [[nodiscard]] double hit_ratio() const {
    const u64 total = hit_blocks + miss_blocks;
    return total == 0 ? 0.0
                      : static_cast<double>(hit_blocks) /
                            static_cast<double>(total);
  }
  // Compressed / uncompressed bytes admitted (1.0 when nothing was).
  [[nodiscard]] double compression_ratio() const {
    return uncompressed_bytes == 0
               ? 1.0
               : static_cast<double>(compressed_bytes) /
                     static_cast<double>(uncompressed_bytes);
  }

  // Window deltas (after - before) and cross-domain sums.
  TierStats operator-(const TierStats& o) const {
    return TierStats{hit_blocks - o.hit_blocks,
                     miss_blocks - o.miss_blocks,
                     admit_blocks - o.admit_blocks,
                     bypass_blocks - o.bypass_blocks,
                     promote_blocks - o.promote_blocks,
                     destage_blocks - o.destage_blocks,
                     demote_blocks - o.demote_blocks,
                     drop_blocks - o.drop_blocks,
                     evict_blocks - o.evict_blocks,
                     uncompressed_bytes - o.uncompressed_bytes,
                     compressed_bytes - o.compressed_bytes,
                     cpu_compress_ns - o.cpu_compress_ns,
                     cpu_decompress_ns - o.cpu_decompress_ns,
                     lost_dirty_blocks - o.lost_dirty_blocks};
  }
  TierStats& operator+=(const TierStats& o) {
    hit_blocks += o.hit_blocks;
    miss_blocks += o.miss_blocks;
    admit_blocks += o.admit_blocks;
    bypass_blocks += o.bypass_blocks;
    promote_blocks += o.promote_blocks;
    destage_blocks += o.destage_blocks;
    demote_blocks += o.demote_blocks;
    drop_blocks += o.drop_blocks;
    evict_blocks += o.evict_blocks;
    uncompressed_bytes += o.uncompressed_bytes;
    compressed_bytes += o.compressed_bytes;
    cpu_compress_ns += o.cpu_compress_ns;
    cpu_decompress_ns += o.cpu_decompress_ns;
    lost_dirty_blocks += o.lost_dirty_blocks;
    return *this;
  }

  bool operator==(const TierStats&) const = default;
};
// The operators above list every field; a new counter must join them.
static_assert(sizeof(TierStats) == 14 * sizeof(u64));

class TierCache final : public cache::CacheDevice {
 public:
  // `inner` is the flash cache below (borrowed). When it is a SrcCache,
  // pass it as `src` too: destages/demotes then ride its provenance-
  // attributed staging paths and promotion uses its hot hint. With a
  // generic inner cache, destages forward as plain writes and clean
  // evictions drop.
  TierCache(const TierConfig& cfg, cache::CacheDevice* inner,
            src::SrcCache* src = nullptr);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] const TierConfig& config() const { return cfg_; }
  [[nodiscard]] const TierStats& tier_stats() const { return tstats_; }
  [[nodiscard]] u64 resident_blocks() const { return map_.size(); }
  [[nodiscard]] u64 resident_compressed_bytes() const {
    return resident_csize_;
  }
  [[nodiscard]] u64 dirty_blocks() const { return dirty_blocks_; }
  [[nodiscard]] u64 dirty_compressed_bytes() const { return dirty_csize_; }
  // Average compression ratio of everything admitted so far (compressed /
  // uncompressed; 1.0 when nothing was admitted).
  [[nodiscard]] double compression_ratio() const {
    return tstats_.compression_ratio();
  }
  [[nodiscard]] double hit_ratio() const { return tstats_.hit_ratio(); }

  // Power cut: DRAM is gone. Dirty residents are counted lost (TierStats::
  // lost_dirty_blocks and, when a ledger is attached, an injected+detected
  // data-loss record each) and the tier empties.
  void on_power_cut(SimTime now);
  // Ledger device id for tier data-loss records: distinct from every flash
  // index and from fault::kPrimaryDev.
  static constexpr int kLedgerDev = -2;
  void set_fault_ledger(fault::FaultLedger* ledger) { fault_ledger_ = ledger; }

  // Exports tier counters/gauges under `scope` (e.g. "tier"); the
  // timeseries sampler then captures hit ratio, compression ratio and CPU
  // cost per interval like any other registry series.
  void register_metrics(const obs::Scope& scope);

 private:
  struct Entry {
    u64 tag = 0;
    u64 seq = 0;                   // FIFO position: fifo_[seq - head_]
    u32 csize = 0;                 // compressed bytes
    u16 tenant = 0;
    bool dirty = false;
    bool hot = false;              // second-chance bit (paper policy input)
  };

  SimTime do_read(const cache::AppRequest& req);
  SimTime do_write(const cache::AppRequest& req);

  [[nodiscard]] u32 compressed_size(u8 comp_pct) const;
  // Fills `e`, the fresh map entry of `lba`, as a new resident.
  void admit(u64 lba, Entry& e, u64 tag, u16 tenant, u32 csize, bool dirty);
  void remove_entry(u64 lba, Entry& e);
  // FIFO bookkeeping: append at the back (returns the new seq), and take a
  // block's slot out (a tombstone unless it is the front).
  u64 fifo_push(u64 lba);
  void fifo_unlink(const Entry& e);
  void compact_fifo();

  // Destages dirty blocks oldest-first (FIFO order) in place — they stay
  // resident, clean — until at most `limit` dirty compressed bytes remain.
  SimTime destage_oldest(SimTime now, u64 limit);
  SimTime enforce_dirty_bound(SimTime now);
  // Evicts (policy second chance) until compressed size fits the budget.
  SimTime enforce_budget(SimTime now);
  SimTime destage_batch(SimTime now, std::vector<u64>& lbas,
                        std::vector<u64>& tags, std::vector<u16>& tenants);

  TierConfig cfg_;
  cache::CacheDevice* inner_;
  src::SrcCache* src_;

  common::LbaMap<Entry> map_;
  // FIFO of resident LBAs, front = oldest; the block with sequence number
  // `seq` sits at fifo_[seq - head_]. A block removed from the middle leaves
  // kTombstone, trimmed once it reaches the front (or compacted away when
  // tombstones outnumber live slots). The front is never a tombstone.
  static constexpr u64 kTombstone = ~u64{0};
  std::deque<u64> fifo_;
  u64 head_ = 0;        // seq of fifo_.front()
  u64 tombstones_ = 0;  // kTombstone slots inside fifo_
  // Dirty-order index: every resident block with seq < clean_upto_ is clean,
  // except the stragglers — blocks behind the cursor that a write hit made
  // dirty again. The write-back walk drains stragglers (all older than the
  // cursor) and then advances the cursor, so each clean block is passed at
  // most once instead of on every write.
  u64 clean_upto_ = 0;
  std::set<u64> stragglers_;
  std::unique_ptr<policy::EvictionPolicy> eviction_;

  u64 resident_csize_ = 0;
  u64 dirty_csize_ = 0;
  u64 dirty_blocks_ = 0;
  u64 tag_version_ = 0;
  SimTime compress_ns_ = 0;    // per-block virtual-time charges
  SimTime decompress_ns_ = 0;

  cache::CacheStats stats_;
  TierStats tstats_;
  fault::FaultLedger* fault_ledger_ = nullptr;
};

}  // namespace srcache::tier
