#include "flash/ftl.hpp"

#include <algorithm>
#include <stdexcept>

namespace srcache::flash {

namespace {
constexpr u32 kNoBlock = ~0u;
}

Ftl::Ftl(const FtlConfig& cfg) : cfg_(cfg) {
  if (cfg_.units <= 0 || cfg_.pages_per_block == 0 ||
      cfg_.exported_pages == 0) {
    throw std::invalid_argument(
        "Ftl: units, pages_per_block and exported_pages must be > 0");
  }
  const u64 needed = div_ceil(cfg_.exported_pages, cfg_.pages_per_block);
  const auto provisioned = static_cast<u64>(
      static_cast<double>(cfg_.exported_pages) * (1.0 + cfg_.ops_fraction));
  u64 physical = div_ceil(provisioned, cfg_.pages_per_block);
  // Commodity drives always keep an internal minimum spare so GC can make
  // progress even at "0% OPS" (§3.3): two open-block stripes plus margin.
  const u64 min_spare = 2 * static_cast<u64>(cfg_.units) + 8;
  physical = std::max(physical, needed + min_spare);

  l2p_.assign(cfg_.exported_pages, kUnmapped);
  p2l_.assign(physical * cfg_.pages_per_block, kUnmapped);
  blocks_.assign(physical, {});
  write_ptr_.assign(physical, 0);
  free_.reserve(physical);
  // LIFO: take_free_block pops the back, so the highest-numbered block is
  // allocated first.
  for (u64 b = 0; b < physical; ++b) free_.push_back(static_cast<u32>(b));
  host_open_.assign(static_cast<size_t>(cfg_.units), kNoBlock);
  gc_open_.assign(static_cast<size_t>(cfg_.units), kNoBlock);
  gc_low_ = static_cast<u64>(cfg_.units) + 8;
}

u32 Ftl::take_free_block(NandOps& /*ops*/) {
  if (free_.empty()) {
    throw std::logic_error("Ftl: free block pool exhausted (GC margin bug)");
  }
  const u32 b = free_.back();
  free_.pop_back();
  blocks_[b].state = BlockState::kOpen;
  blocks_[b].valid = 0;
  write_ptr_[b] = 0;
  return b;
}

// Allocates the next page of the unit's open block and counts it valid (the
// caller maps it). A block closes on its last page, just counted valid, so
// it never closes empty: blocks join zero_valid_closed_ only in invalidate.
u32 Ftl::allocate_page(std::vector<u32>& open_blocks, u32& rr, NandOps& ops) {
  const u32 unit = rr++ % static_cast<u32>(cfg_.units);
  u32 blk = open_blocks[unit];
  if (blk == kNoBlock) {
    blk = take_free_block(ops);
    open_blocks[unit] = blk;
  }
  const u32 off = write_ptr_[blk]++;
  blocks_[blk].valid++;
  if (write_ptr_[blk] >= cfg_.pages_per_block) {
    blocks_[blk].state = BlockState::kClosed;
    open_blocks[unit] = kNoBlock;
  }
  return blk * static_cast<u32>(cfg_.pages_per_block) + off;
}

void Ftl::invalidate(u32 ppage) {
  const u32 blk = ppage / static_cast<u32>(cfg_.pages_per_block);
  if (--blocks_[blk].valid == 0 && blocks_[blk].state == BlockState::kClosed)
    ++zero_valid_closed_;
  p2l_[ppage] = kUnmapped;
}

NandOps Ftl::write(u64 lpage) {
  if (lpage >= cfg_.exported_pages) {
    throw std::out_of_range("Ftl::write beyond exported capacity");
  }
  NandOps ops;
  if (l2p_[lpage] != kUnmapped) {
    invalidate(l2p_[lpage]);
  } else {
    ++mapped_pages_;
  }
  const u32 ppage = allocate_page(host_open_, host_rr_, ops);
  l2p_[lpage] = ppage;
  p2l_[ppage] = static_cast<u32>(lpage);
  ops.programs++;
  stats_.host_pages_written++;
  stats_.total_pages_programmed++;

  if (free_.size() < gc_low_) collect_garbage(ops);
  return ops;
}

bool Ftl::is_mapped(u64 lpage) const {
  return lpage < cfg_.exported_pages && l2p_[lpage] != kUnmapped;
}

void Ftl::trim(u64 lpage, u64 n) {
  const u64 end = std::min(lpage + n, cfg_.exported_pages);
  for (u64 p = lpage; p < end; ++p) {
    if (l2p_[p] == kUnmapped) continue;
    invalidate(l2p_[p]);
    l2p_[p] = kUnmapped;
    --mapped_pages_;
  }
}

u32 Ftl::pick_victim() const {
  u32 best = kNoBlock;
  u32 best_valid = ~0u;
  for (u32 b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].state != BlockState::kClosed) continue;
    if (blocks_[b].valid < best_valid) {
      best = b;
      best_valid = blocks_[b].valid;
      if (best_valid == 0) break;
    }
  }
  return best;
}

void Ftl::collect_garbage(NandOps& ops) {
  // Two-phase greedy GC. Fully-invalid blocks are erased eagerly (free
  // space, no copying). Copy-back GC is deferred until the pool is
  // critically low: host streams that recycle whole erase groups then get
  // the chance to finish invalidating their blocks before any copying
  // happens — the mechanism that makes erase-group-aligned writes sustain
  // full bandwidth even at 0% OPS (Fig. 2).
  const u64 critical = static_cast<u64>(cfg_.units) + 6;
  while (free_.size() < gc_low_ + 4) {
    // Above critical only a fully-invalid block may be taken; with none
    // closed the greedy scan would come back empty-handed.
    if (free_.size() >= critical && zero_valid_closed_ == 0) return;
    const u32 victim = pick_victim();
    if (victim == kNoBlock) return;
    if (blocks_[victim].valid > 0 && free_.size() >= critical) return;
    if (blocks_[victim].valid >= cfg_.pages_per_block) return;
    if (blocks_[victim].valid == 0) --zero_valid_closed_;
    if (erase_observer_) erase_observer_(victim);

    const u64 base = static_cast<u64>(victim) * cfg_.pages_per_block;
    for (u64 off = 0; off < cfg_.pages_per_block && blocks_[victim].valid > 0;
         ++off) {
      const u32 src = static_cast<u32>(base + off);
      const u32 lpage = p2l_[src];
      if (lpage == kUnmapped) continue;
      const u32 dst = allocate_page(gc_open_, gc_rr_, ops);
      p2l_[src] = kUnmapped;
      blocks_[victim].valid--;
      l2p_[lpage] = dst;
      p2l_[dst] = lpage;
      ops.gc_reads++;
      ops.programs++;
      stats_.gc_pages_copied++;
      stats_.total_pages_programmed++;
    }
    blocks_[victim].state = BlockState::kFree;
    blocks_[victim].erase_count++;
    write_ptr_[victim] = 0;
    free_.push_back(victim);
    ops.erases++;
    stats_.blocks_erased++;
  }
}

Status Ftl::verify_consistency() const {
  const u64 ppb = cfg_.pages_per_block;
  u64 mapped = 0;
  for (u64 lp = 0; lp < l2p_.size(); ++lp) {
    const u32 pp = l2p_[lp];
    if (pp == kUnmapped) continue;
    ++mapped;
    if (pp >= p2l_.size() || p2l_[pp] != lp)
      return Status(ErrorCode::kCorrupted, "l2p entry without p2l back-link");
    if (blocks_[pp / ppb].state == BlockState::kFree)
      return Status(ErrorCode::kCorrupted, "mapped page in a free block");
  }
  if (mapped != mapped_pages_)
    return Status(ErrorCode::kCorrupted, "mapped page count drift");
  u64 zero_valid = 0;
  u64 free_count = 0;
  for (u64 b = 0; b < blocks_.size(); ++b) {
    u64 valid = 0;
    for (u64 off = 0; off < ppb; ++off) {
      const u32 lp = p2l_[b * ppb + off];
      if (lp == kUnmapped) continue;
      if (lp >= l2p_.size() || l2p_[lp] != b * ppb + off)
        return Status(ErrorCode::kCorrupted, "p2l entry without l2p back-link");
      ++valid;
    }
    if (valid != blocks_[b].valid)
      return Status(ErrorCode::kCorrupted, "block valid count drift");
    if (blocks_[b].state == BlockState::kFree) ++free_count;
    if (blocks_[b].state == BlockState::kClosed && valid == 0) ++zero_valid;
  }
  if (zero_valid != zero_valid_closed_)
    return Status(ErrorCode::kCorrupted, "zero-valid closed block count drift");
  if (free_count != free_.size())
    return Status(ErrorCode::kCorrupted, "free list size drift");
  std::vector<bool> listed(blocks_.size(), false);
  for (const u32 b : free_) {
    if (b >= blocks_.size() || listed[b] ||
        blocks_[b].state != BlockState::kFree)
      return Status(ErrorCode::kCorrupted, "free list holds a non-free block");
    listed[b] = true;
  }
  return Status::ok();
}

u32 Ftl::max_erase_count() const {
  u32 m = 0;
  for (const auto& b : blocks_) m = std::max(m, b.erase_count);
  return m;
}

double Ftl::mean_erase_count() const {
  u64 sum = 0;
  for (const auto& b : blocks_) sum += b.erase_count;
  return blocks_.empty() ? 0.0
                         : static_cast<double>(sum) /
                               static_cast<double>(blocks_.size());
}

}  // namespace srcache::flash
