// The application-facing caching interface implemented by SRC and by the
// Bcache/Flashcache baselines: a block cache interposed between the host and
// primary storage, exactly where the Device Mapper target sits in the
// paper's prototype.
#pragma once

#include "block/block_device.hpp"
#include "sim/time.hpp"

namespace srcache::cache {

using sim::SimTime;

struct AppRequest {
  SimTime now = 0;
  bool is_write = false;
  u64 lba = 0;     // 4 KiB block address in primary-storage space
  u32 nblocks = 1;
  u32 tenant = 0;  // owning tenant in multi-tenant runs (0 otherwise)
  // Compressed size of each block as a percentage of kBlockSize, stamped by
  // the workload layer (deterministic per LBA). 0 means "unknown" — a
  // compressed tier treats such blocks as incompressible.
  u8 comp_pct = 0;
  // Optional content: `tags` supplies one tag per block on writes;
  // `tags_out` (capacity nblocks) receives block content on reads. Both may
  // be null for performance-only runs.
  const u64* tags = nullptr;
  u64* tags_out = nullptr;
};

// Cache-level accounting. Device-level I/O amplification is computed by the
// run harness from the SSD DeviceStats (so it includes metadata, parity and
// GC traffic regardless of which layer issued it).
struct CacheStats {
  u64 app_read_ops = 0;
  u64 app_read_blocks = 0;
  u64 app_write_ops = 0;
  u64 app_write_blocks = 0;

  u64 read_hit_blocks = 0;
  u64 read_miss_blocks = 0;
  u64 write_hit_blocks = 0;  // writes to an already-cached block
  u64 write_new_blocks = 0;

  u64 fetch_blocks = 0;      // primary -> cache fills
  u64 destage_blocks = 0;    // cache -> primary write-backs
  u64 gc_copy_blocks = 0;    // cache-internal (S2S) copies
  u64 dropped_clean_blocks = 0;
  u64 app_flushes = 0;

  // Fraction of accessed blocks already present in the cache.
  [[nodiscard]] double hit_ratio() const {
    const u64 hits = read_hit_blocks + write_hit_blocks;
    const u64 total = app_read_blocks + app_write_blocks;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  [[nodiscard]] double read_hit_ratio() const {
    return app_read_blocks == 0
               ? 0.0
               : static_cast<double>(read_hit_blocks) /
                     static_cast<double>(app_read_blocks);
  }
  [[nodiscard]] u64 app_blocks() const {
    return app_read_blocks + app_write_blocks;
  }

  // Window deltas (after - before) and cross-domain sums.
  CacheStats operator-(const CacheStats& o) const {
    return CacheStats{app_read_ops - o.app_read_ops,
                      app_read_blocks - o.app_read_blocks,
                      app_write_ops - o.app_write_ops,
                      app_write_blocks - o.app_write_blocks,
                      read_hit_blocks - o.read_hit_blocks,
                      read_miss_blocks - o.read_miss_blocks,
                      write_hit_blocks - o.write_hit_blocks,
                      write_new_blocks - o.write_new_blocks,
                      fetch_blocks - o.fetch_blocks,
                      destage_blocks - o.destage_blocks,
                      gc_copy_blocks - o.gc_copy_blocks,
                      dropped_clean_blocks - o.dropped_clean_blocks,
                      app_flushes - o.app_flushes};
  }
  CacheStats& operator+=(const CacheStats& o) {
    app_read_ops += o.app_read_ops;
    app_read_blocks += o.app_read_blocks;
    app_write_ops += o.app_write_ops;
    app_write_blocks += o.app_write_blocks;
    read_hit_blocks += o.read_hit_blocks;
    read_miss_blocks += o.read_miss_blocks;
    write_hit_blocks += o.write_hit_blocks;
    write_new_blocks += o.write_new_blocks;
    fetch_blocks += o.fetch_blocks;
    destage_blocks += o.destage_blocks;
    gc_copy_blocks += o.gc_copy_blocks;
    dropped_clean_blocks += o.dropped_clean_blocks;
    app_flushes += o.app_flushes;
    return *this;
  }

  bool operator==(const CacheStats&) const = default;
};
// The operators above list every field; a new counter must join them.
static_assert(sizeof(CacheStats) == 13 * sizeof(u64));

class CacheDevice {
 public:
  virtual ~CacheDevice() = default;

  // Serves one request; returns its completion time.
  virtual SimTime submit(const AppRequest& req) = 0;

  // Application/file-system flush (fsync). Baselines differ in whether they
  // honor it (Bcache) or ignore it (Flashcache, §3.1).
  virtual SimTime flush(SimTime now) = 0;

  [[nodiscard]] virtual const CacheStats& stats() const = 0;

  // Number of distinct blocks currently cached (for utilization checks).
  [[nodiscard]] virtual u64 cached_blocks() const = 0;
};

}  // namespace srcache::cache
