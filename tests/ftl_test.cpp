#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "flash/ftl.hpp"

namespace srcache::flash {
namespace {

// Reference FTL: the same placement and two-phase greedy GC as Ftl, but
// every GC call scans all blocks for its victim. Ftl skips that scan when
// it cannot find one; the victims must come out the same.
class RefFtl {
 public:
  explicit RefFtl(const FtlConfig& cfg) : cfg_(cfg) {
    const u64 needed = div_ceil(cfg.exported_pages, cfg.pages_per_block);
    const auto provisioned = static_cast<u64>(
        static_cast<double>(cfg.exported_pages) * (1.0 + cfg.ops_fraction));
    const u64 physical =
        std::max(div_ceil(provisioned, cfg.pages_per_block),
                 needed + 2 * static_cast<u64>(cfg.units) + 8);
    l2p.assign(cfg.exported_pages, kNone);
    p2l_.assign(physical * cfg.pages_per_block, kNone);
    valid_.assign(physical, 0);
    closed_.assign(physical, false);
    wp_.assign(physical, 0);
    for (u64 b = 0; b < physical; ++b) free_.push_back(static_cast<u32>(b));
    host_.assign(static_cast<size_t>(cfg.units), kNone);
    gc_.assign(static_cast<size_t>(cfg.units), kNone);
    gc_low_ = static_cast<u64>(cfg.units) + 8;
  }

  void write(u64 lp) {
    if (l2p[lp] != kNone) invalidate(l2p[lp]);
    map(lp, allocate(host_, host_rr_));
    if (free_.size() < gc_low_) collect_garbage();
  }
  void trim(u64 lp, u64 n) {
    for (u64 p = lp; p < std::min(lp + n, cfg_.exported_pages); ++p) {
      if (l2p[p] == kNone) continue;
      invalidate(l2p[p]);
      l2p[p] = kNone;
    }
  }

  static constexpr u32 kNone = ~0u;
  std::vector<u32> l2p;
  std::vector<u32> victims;

 private:
  u32 allocate(std::vector<u32>& open, u32& rr) {
    const u32 unit = rr++ % static_cast<u32>(cfg_.units);
    if (open[unit] == kNone) {
      open[unit] = free_.back();
      free_.pop_back();
      valid_[open[unit]] = 0;
      wp_[open[unit]] = 0;
    }
    const u32 blk = open[unit];
    const u32 off = wp_[blk]++;
    if (wp_[blk] >= cfg_.pages_per_block) {
      closed_[blk] = true;
      open[unit] = kNone;
    }
    return blk * static_cast<u32>(cfg_.pages_per_block) + off;
  }
  void map(u64 lp, u32 pp) {
    l2p[lp] = pp;
    p2l_[pp] = static_cast<u32>(lp);
    valid_[pp / cfg_.pages_per_block]++;
  }
  void invalidate(u32 pp) {
    valid_[pp / cfg_.pages_per_block]--;
    p2l_[pp] = kNone;
  }
  u32 pick_victim() const {
    u32 best = kNone;
    u32 best_valid = ~0u;
    for (u32 b = 0; b < valid_.size(); ++b) {
      if (closed_[b] && valid_[b] < best_valid) {
        best = b;
        best_valid = valid_[b];
        if (best_valid == 0) break;
      }
    }
    return best;
  }
  void collect_garbage() {
    const u64 critical = static_cast<u64>(cfg_.units) + 6;
    while (free_.size() < gc_low_ + 4) {
      const u32 v = pick_victim();
      if (v == kNone) return;
      if (valid_[v] > 0 && free_.size() >= critical) return;
      if (valid_[v] >= cfg_.pages_per_block) return;
      victims.push_back(v);
      const u64 base = static_cast<u64>(v) * cfg_.pages_per_block;
      for (u64 off = 0; off < cfg_.pages_per_block && valid_[v] > 0; ++off) {
        const u32 lp = p2l_[base + off];
        if (lp == kNone) continue;
        invalidate(static_cast<u32>(base + off));
        map(lp, allocate(gc_, gc_rr_));
      }
      closed_[v] = false;
      free_.push_back(v);
    }
  }

  FtlConfig cfg_;
  std::vector<u32> p2l_, valid_, wp_, free_, host_, gc_;
  std::vector<bool> closed_;
  u32 host_rr_ = 0, gc_rr_ = 0;
  u64 gc_low_ = 0;
};

FtlConfig tiny_cfg(double ops = 0.1) {
  FtlConfig cfg;
  cfg.units = 4;
  cfg.pages_per_block = 64;
  cfg.exported_pages = 16 * 1024;  // 64 MiB logical
  cfg.ops_fraction = ops;
  return cfg;
}

TEST(Ftl, RejectsBadConfig) {
  FtlConfig cfg = tiny_cfg();
  cfg.exported_pages = 0;
  EXPECT_THROW(Ftl{cfg}, std::invalid_argument);
}

TEST(Ftl, EraseGroupPages) {
  EXPECT_EQ(tiny_cfg().erase_group_pages(), 4u * 64u);
}

TEST(Ftl, MapsWrittenPages) {
  Ftl ftl(tiny_cfg());
  EXPECT_FALSE(ftl.is_mapped(5));
  ftl.write(5);
  EXPECT_TRUE(ftl.is_mapped(5));
  EXPECT_EQ(ftl.mapped_pages(), 1u);
}

TEST(Ftl, OverwriteKeepsSingleMapping) {
  Ftl ftl(tiny_cfg());
  ftl.write(5);
  const u32 p1 = ftl.l2p(5);
  ftl.write(5);
  const u32 p2 = ftl.l2p(5);
  EXPECT_NE(p1, p2);  // out-of-place update
  EXPECT_EQ(ftl.mapped_pages(), 1u);
}

TEST(Ftl, StripesAcrossUnits) {
  // Consecutive writes land in different flash blocks (one open block per
  // parallel unit) — the mechanism behind the large erase group.
  Ftl ftl(tiny_cfg());
  const u64 ppb = ftl.config().pages_per_block;
  ftl.write(0);
  ftl.write(1);
  ftl.write(2);
  ftl.write(3);
  const u32 b0 = ftl.l2p(0) / ppb;
  const u32 b1 = ftl.l2p(1) / ppb;
  const u32 b2 = ftl.l2p(2) / ppb;
  const u32 b3 = ftl.l2p(3) / ppb;
  EXPECT_NE(b0, b1);
  EXPECT_NE(b1, b2);
  EXPECT_NE(b2, b3);
  EXPECT_NE(b0, b3);
}

TEST(Ftl, SequentialFillNoGc) {
  Ftl ftl(tiny_cfg(0.1));
  for (u64 p = 0; p < ftl.config().exported_pages; ++p) ftl.write(p);
  EXPECT_DOUBLE_EQ(ftl.stats().write_amplification(), 1.0);
  EXPECT_EQ(ftl.stats().blocks_erased, 0u);
}

TEST(Ftl, SequentialOverwriteStaysNearWaOne) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  for (int pass = 0; pass < 3; ++pass)
    for (u64 p = 0; p < n; ++p) ftl.write(p);
  // Whole erase groups are invalidated together: GC finds empty victims.
  EXPECT_LT(ftl.stats().write_amplification(), 1.05);
}

TEST(Ftl, RandomOverwriteCausesGcCopies) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  for (u64 p = 0; p < n; ++p) ftl.write(p);  // fill
  common::Xoshiro256 rng(42);
  for (u64 i = 0; i < 4 * n; ++i) ftl.write(rng.below(n));
  EXPECT_GT(ftl.stats().write_amplification(), 1.5);
  EXPECT_GT(ftl.stats().blocks_erased, 0u);
}

TEST(Ftl, MoreOpsLowersWriteAmplification) {
  auto run = [](double ops) {
    Ftl ftl(tiny_cfg(ops));
    const u64 n = ftl.config().exported_pages;
    for (u64 p = 0; p < n; ++p) ftl.write(p);
    common::Xoshiro256 rng(7);
    for (u64 i = 0; i < 4 * n; ++i) ftl.write(rng.below(n));
    return ftl.stats().write_amplification();
  };
  const double wa_low_ops = run(0.05);
  const double wa_high_ops = run(0.40);
  EXPECT_LT(wa_high_ops, wa_low_ops);
}

TEST(Ftl, EraseGroupAlignedOverwritesAvoidGc) {
  // Overwriting whole erase groups (units × block pages, temporally
  // contiguous) leaves only fully-invalid victims: WA stays ~1 even at
  // low OPS. This is the Fig. 2 saturation mechanism.
  Ftl ftl(tiny_cfg(0.05));
  const u64 n = ftl.config().exported_pages;
  const u64 eg = ftl.config().erase_group_pages();
  for (u64 p = 0; p < n; ++p) ftl.write(p);
  common::Xoshiro256 rng(9);
  const u64 groups = n / eg;
  for (u64 i = 0; i < 6 * groups; ++i) {
    const u64 g = rng.below(groups);
    for (u64 p = g * eg; p < (g + 1) * eg; ++p) ftl.write(p);
  }
  EXPECT_LT(ftl.stats().write_amplification(), 1.1);
}

TEST(Ftl, SubEraseGroupOverwritesCauseGc) {
  // Same volume, but in quarter-erase-group extents: victims are ~75%
  // valid, so GC must copy.
  Ftl ftl(tiny_cfg(0.05));
  const u64 n = ftl.config().exported_pages;
  const u64 ext = ftl.config().erase_group_pages() / 4;
  for (u64 p = 0; p < n; ++p) ftl.write(p);
  common::Xoshiro256 rng(9);
  const u64 extents = n / ext;
  for (u64 i = 0; i < 6 * extents; ++i) {
    const u64 e = rng.below(extents);
    for (u64 p = e * ext; p < (e + 1) * ext; ++p) ftl.write(p);
  }
  EXPECT_GT(ftl.stats().write_amplification(), 1.3);
}

TEST(Ftl, TrimUnmapsAndFreesSpace) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  for (u64 p = 0; p < n; ++p) ftl.write(p);
  ftl.trim(0, n / 2);
  EXPECT_EQ(ftl.mapped_pages(), n / 2);
  EXPECT_FALSE(ftl.is_mapped(0));
  EXPECT_TRUE(ftl.is_mapped(n / 2));
  // Rewriting the trimmed half should find GC-free victims.
  const auto before = ftl.stats().gc_pages_copied;
  for (u64 p = 0; p < n / 2; ++p) ftl.write(p);
  EXPECT_EQ(ftl.stats().gc_pages_copied, before);
}

TEST(Ftl, TrimBeyondCapacityClamps) {
  Ftl ftl(tiny_cfg());
  ftl.write(1);
  ftl.trim(0, ~0ull);  // must not crash
  EXPECT_EQ(ftl.mapped_pages(), 0u);
}

TEST(Ftl, WriteBeyondCapacityThrows) {
  Ftl ftl(tiny_cfg());
  EXPECT_THROW(ftl.write(ftl.config().exported_pages), std::out_of_range);
}

TEST(Ftl, WearTracking) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  common::Xoshiro256 rng(3);
  for (u64 i = 0; i < 6 * n; ++i) ftl.write(rng.below(n));
  EXPECT_GT(ftl.max_erase_count(), 0u);
  EXPECT_GT(ftl.mean_erase_count(), 0.0);
  EXPECT_GE(ftl.max_erase_count(), static_cast<u32>(ftl.mean_erase_count()));
}

TEST(Ftl, ValidCountInvariant) {
  // Mapped pages must equal the sum of block valid counts at all times.
  Ftl ftl(tiny_cfg(0.08));
  const u64 n = ftl.config().exported_pages;
  common::Xoshiro256 rng(5);
  for (u64 i = 0; i < 3 * n; ++i) {
    if (rng.chance(0.05)) {
      const u64 start = rng.below(n);
      ftl.trim(start, rng.below(64) + 1);
    } else {
      ftl.write(rng.below(n));
    }
  }
  // Re-derive the census through the public mapping view.
  u64 mapped = 0;
  for (u64 p = 0; p < n; ++p) mapped += ftl.is_mapped(p) ? 1 : 0;
  EXPECT_EQ(mapped, ftl.mapped_pages());
}

TEST(Ftl, VictimsMatchTheFullGreedyScanAndAuditsHold) {
  // Random overwrites (copy-back GC below critical), erase-group-aligned
  // rewrites (blocks closing fully invalid) and trims, audited every 509
  // writes and compared erase by erase against the reference scan.
  for (const double ops : {0.0, 0.07}) {
    const FtlConfig cfg = tiny_cfg(ops);
    Ftl ftl(cfg);
    RefFtl ref(cfg);
    std::vector<u32> victims;
    ftl.set_erase_observer([&](u32 b) { victims.push_back(b); });
    const u64 n = cfg.exported_pages;
    const u64 group = cfg.erase_group_pages();
    common::Xoshiro256 rng(41);
    u64 writes = 0;
    const auto write = [&](u64 lp) {
      ftl.write(lp);
      ref.write(lp);
      if (++writes % 509 == 0) {
        const Status audit = ftl.verify_consistency();
        ASSERT_TRUE(audit.is_ok()) << audit.to_string() << " at " << writes;
        ASSERT_EQ(victims, ref.victims) << "at write " << writes;
      }
    };
    while (writes < 6 * n) {
      const double pick = rng.uniform();
      if (pick < 0.04) {
        const u64 start = rng.below(n);
        const u64 len = rng.below(256) + 1;
        ftl.trim(start, len);
        ref.trim(start, len);
      } else if (pick < 0.08) {
        const u64 base = rng.below(n / group) * group;
        for (u64 p = 0; p < group; ++p) write(base + p);
      } else {
        write(rng.below(n));
      }
      if (HasFatalFailure()) return;
    }
    const Status audit = ftl.verify_consistency();
    ASSERT_TRUE(audit.is_ok()) << audit.to_string();
    EXPECT_EQ(victims, ref.victims);
    EXPECT_EQ(victims.size(), ftl.stats().blocks_erased);
    EXPECT_GT(ftl.stats().gc_pages_copied, 0u);
    EXPECT_LT(ftl.stats().gc_pages_copied,
              ftl.stats().blocks_erased * cfg.pages_per_block);
    for (u64 p = 0; p < n; ++p) ASSERT_EQ(ftl.l2p(p), ref.l2p[p]) << p;
  }
}

TEST(Ftl, FreeBlocksStayAboveFloor) {
  Ftl ftl(tiny_cfg(0.06));
  const u64 n = ftl.config().exported_pages;
  common::Xoshiro256 rng(6);
  for (u64 i = 0; i < 5 * n; ++i) {
    ftl.write(rng.below(n));
    ASSERT_GT(ftl.free_blocks(), 0u);
  }
}

}  // namespace
}  // namespace srcache::flash
