// Scenario: what actually happens when things break.
//
// Demonstrates the reliability machinery of §4.1/§4.3 end to end:
//   1. crash + restart -> recovery scan restores dirty AND clean data;
//   2. silent corruption -> checksum detects it, parity repairs it;
//   3. whole-SSD failure -> parity-protected data survives, NPC clean
//      blocks degrade to misses, and the array keeps serving.
#include <cstdio>
#include <memory>

#include "block/mem_disk.hpp"
#include "src_cache/src_cache.hpp"

using namespace srcache;

namespace {

struct Stack {
  std::vector<std::unique_ptr<blockdev::MemDisk>> ssds;
  std::unique_ptr<blockdev::MemDisk> primary;
  std::unique_ptr<src::SrcCache> cache;
  src::SrcConfig cfg;

  Stack() {
    cfg.num_ssds = 4;
    cfg.chunk_bytes = 64 * KiB;
    cfg.erase_group_bytes = 1 * MiB;
    cfg.region_bytes_per_ssd = 16 * MiB;
    cfg.raid = src::SrcRaidLevel::kRaid5;
    blockdev::MemDiskConfig fast;
    fast.capacity_blocks = 20 * MiB / kBlockSize;
    for (u32 i = 0; i < 4; ++i)
      ssds.push_back(std::make_unique<blockdev::MemDisk>(fast));
    blockdev::MemDiskConfig slow;
    slow.capacity_blocks = 1 * GiB / kBlockSize;
    slow.op_latency = 5 * sim::kMs;
    primary = std::make_unique<blockdev::MemDisk>(slow);
    attach();
    cache->format(0);
  }

  void attach() {
    std::vector<blockdev::BlockDevice*> ptrs;
    for (auto& s : ssds) ptrs.push_back(s.get());
    cache = std::make_unique<src::SrcCache>(cfg, ptrs, primary.get());
  }
};

u64 read_block(src::SrcCache& c, u64 lba, sim::SimTime now) {
  u64 tag = 0;
  cache::AppRequest r;
  r.now = now;
  r.lba = lba;
  r.nblocks = 1;
  r.tags_out = &tag;
  c.submit(r);
  return tag;
}

}  // namespace

int main() {
  Stack s;
  // Write a full segment's worth of recognisable data.
  const u64 n = s.cfg.segment_data_slots(true) * 4;
  std::vector<u64> tags(n);
  sim::SimTime t = 0;
  for (u64 i = 0; i < n; ++i) {
    tags[i] = 0xFACE0000 + i;
    cache::AppRequest r;
    r.now = t;
    r.is_write = true;
    r.lba = i;
    r.nblocks = 1;
    r.tags = &tags[i];
    t = s.cache->submit(r);
  }
  t = s.cache->flush(t);
  std::printf("wrote %llu dirty blocks, sealed into segments\n",
              static_cast<unsigned long long>(n));

  // --- 1. Crash and recover -------------------------------------------------
  s.attach();  // all in-memory state gone
  sim::SimTime recovered_at = 0;
  const Status st = s.cache->recover(t, &recovered_at);
  std::printf("\n[crash] recovery: %s, %llu blocks restored in %.1f ms "
              "(virtual)\n",
              st.is_ok() ? "OK" : st.to_string().c_str(),
              static_cast<unsigned long long>(s.cache->cached_blocks()),
              sim::to_ms(recovered_at - t));
  u64 ok = 0;
  for (u64 i = 0; i < n; ++i)
    if (read_block(*s.cache, i, recovered_at) == tags[i]) ++ok;
  std::printf("[crash] verified %llu/%llu blocks intact\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(n));

  // --- 2. Silent corruption -------------------------------------------------
  const u64 sg1_base = s.cfg.erase_group_bytes / kBlockSize;
  s.ssds[0]->corrupt(sg1_base + 1);  // first data block of segment 0, SSD 0
  const auto scrub = s.cache->scrub(recovered_at + sim::kSec);
  const auto& ex = s.cache->extra();
  std::printf("\n[scrub] corrupted one on-SSD block; scrub scanned %llu, "
              "repaired %llu (checksum errors seen: %llu)\n",
              static_cast<unsigned long long>(scrub.scanned),
              static_cast<unsigned long long>(scrub.repaired),
              static_cast<unsigned long long>(ex.checksum_errors));
  ok = 0;
  for (u64 i = 0; i < n; ++i)
    if (read_block(*s.cache, i, recovered_at + sim::kSec) == tags[i]) ++ok;
  std::printf("[scrub] verified %llu/%llu after repair\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(n));

  // --- 3. Whole-SSD failure ---------------------------------------------------
  s.ssds[2]->fail();
  s.cache->on_ssd_failure(2, recovered_at + 2 * sim::kSec);
  ok = 0;
  for (u64 i = 0; i < n; ++i)
    if (read_block(*s.cache, i, recovered_at + 2 * sim::kSec) == tags[i]) ++ok;
  std::printf("\n[fail-stop] SSD 2 died; verified %llu/%llu dirty blocks via "
              "on-the-fly reconstruction (lost dirty: %llu, lost clean: %llu)\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(ex.lost_dirty_blocks),
              static_cast<unsigned long long>(ex.lost_clean_blocks));
  std::printf("\nRAID-5 SRC: zero data loss across all three incidents.\n");
  return ok == n ? 0 : 1;
}
