// Page-mapped Flash Translation Layer.
//
// This is the mechanism behind every observation the paper builds on: small
// random overwrites force the FTL to copy live pages during internal garbage
// collection (write amplification), while host writes recycled in units of
// the *erase group* — the set of flash blocks filled in parallel across all
// dies — invalidate whole blocks and keep amplification near 1. The erase
// group size therefore equals parallel_units × block_bytes (§2.1, §3.3,
// Fig. 2), and over-provisioning trades capacity for GC efficiency.
//
// The FTL is purely a placement/accounting engine; SimSsd converts the
// returned operation counts into NAND time.
#pragma once

#include <functional>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace srcache::flash {

struct FtlConfig {
  // Parallel NAND units (channels × dies). Host and GC write streams are
  // striped page-by-page across this many open blocks.
  int units = 32;
  u64 pages_per_block = 2048;  // 4 KiB pages -> 8 MiB flash blocks
  u64 exported_pages = 0;      // logical capacity in 4 KiB pages
  // Over-provisioned fraction of exported capacity (0.0 means "only the
  // internal minimum spare", as commodity drives always reserve a little).
  double ops_fraction = 0.07;

  [[nodiscard]] u64 erase_group_pages() const {
    return static_cast<u64>(units) * pages_per_block;
  }
};

// NAND work performed by one host operation (including any internal GC it
// triggered). SimSsd turns these into time on the NAND servers.
struct NandOps {
  u64 programs = 0;   // host + GC page programs
  u64 gc_reads = 0;   // GC copy-back page reads
  u64 erases = 0;

  NandOps& operator+=(const NandOps& o) {
    programs += o.programs;
    gc_reads += o.gc_reads;
    erases += o.erases;
    return *this;
  }
};

// Lifetime/accounting counters (cost model, Fig. 6).
struct FtlStats {
  u64 host_pages_written = 0;
  u64 total_pages_programmed = 0;
  u64 gc_pages_copied = 0;
  u64 blocks_erased = 0;

  // NAND-level write amplification.
  [[nodiscard]] double write_amplification() const {
    return host_pages_written == 0
               ? 1.0
               : static_cast<double>(total_pages_programmed) /
                     static_cast<double>(host_pages_written);
  }
};

class Ftl {
 public:
  explicit Ftl(const FtlConfig& cfg);

  // Maps and programs one logical page; runs GC if free space is low.
  NandOps write(u64 lpage);
  // True if the logical page is mapped (affects read timing: unmapped reads
  // return zeroes without touching NAND).
  [[nodiscard]] bool is_mapped(u64 lpage) const;
  // Unmaps a range (TRIM). Cheap: only map/valid-count updates.
  void trim(u64 lpage, u64 n);

  [[nodiscard]] const FtlConfig& config() const { return cfg_; }
  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] u64 free_blocks() const { return free_.size(); }
  [[nodiscard]] u64 total_blocks() const { return blocks_.size(); }
  [[nodiscard]] u64 mapped_pages() const { return mapped_pages_; }
  // Highest erase count over all blocks (wear; cost model uses the mean).
  [[nodiscard]] u32 max_erase_count() const;
  [[nodiscard]] double mean_erase_count() const;

  // Debug/verification: physical page for a logical page, or kUnmapped.
  static constexpr u32 kUnmapped = ~0u;
  [[nodiscard]] u32 l2p(u64 lpage) const { return l2p_[lpage]; }
  // Audits the mapping: l2p and p2l are inverses, every block's valid count
  // matches its mapped pages, the free list holds exactly the free blocks,
  // and the zero-valid closed-block count matches a recount.
  [[nodiscard]] Status verify_consistency() const;
  // Called with each GC victim just before it is erased (verification).
  void set_erase_observer(std::function<void(u32 block)> fn) {
    erase_observer_ = std::move(fn);
  }

 private:
  enum class BlockState : u8 { kFree, kOpen, kClosed };

  struct BlockInfo {
    u32 valid = 0;
    u32 erase_count = 0;
    BlockState state = BlockState::kFree;
  };

  u32 allocate_page(std::vector<u32>& open_blocks, u32& rr, NandOps& ops);
  u32 take_free_block(NandOps& ops);
  void invalidate(u32 ppage);
  void collect_garbage(NandOps& ops);
  u32 pick_victim() const;

  FtlConfig cfg_;
  FtlStats stats_;
  std::vector<u32> l2p_;          // logical page -> physical page
  std::vector<u32> p2l_;          // physical page -> logical page
  std::vector<BlockInfo> blocks_;
  std::vector<u32> free_;         // free block ids (LIFO)
  std::vector<u32> host_open_;    // per-unit open blocks for host writes
  std::vector<u32> gc_open_;      // per-unit open blocks for GC writes
  std::vector<u32> write_ptr_;    // next page offset per open block id
  u32 host_rr_ = 0;
  u32 gc_rr_ = 0;
  u64 mapped_pages_ = 0;
  u64 gc_low_;                    // run GC when free blocks fall below this
  // Closed blocks holding no valid page: GC erases these without copying.
  // While it is 0 and the pool is above critical, GC has nothing to do, so
  // it skips the victim scan.
  u64 zero_valid_closed_ = 0;
  std::function<void(u32)> erase_observer_;
};

}  // namespace srcache::flash
