#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/crc32c.hpp"
#include "common/histogram.hpp"
#include "common/lba_map.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace srcache {
namespace {

using common::crc32c;
using common::crc32c_of;
using common::Histogram;
using common::LbaMap;
using common::SplitMix64;
using common::Table;
using common::Xoshiro256;
using common::ZipfSampler;

// --- units ------------------------------------------------------------------

TEST(Types, UnitConstants) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
  EXPECT_EQ(kBlockSize, 4096u);
}

TEST(Types, BytesToBlocksRoundsUp) {
  EXPECT_EQ(bytes_to_blocks(0), 0u);
  EXPECT_EQ(bytes_to_blocks(1), 1u);
  EXPECT_EQ(bytes_to_blocks(4096), 1u);
  EXPECT_EQ(bytes_to_blocks(4097), 2u);
  EXPECT_EQ(blocks_to_bytes(3), 12288u);
}

TEST(Types, DivCeil) {
  EXPECT_EQ(div_ceil(0, 5), 0u);
  EXPECT_EQ(div_ceil(10, 5), 2u);
  EXPECT_EQ(div_ceil(11, 5), 3u);
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: 32 bytes of zeros -> 0x8A9136AA.
  std::vector<u8> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, KnownVectorOnes) {
  // RFC 3720: 32 bytes of 0xFF -> 0x62A8AB43.
  std::vector<u8> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, KnownVectorAscending) {
  // RFC 3720: bytes 0x00..0x1F -> 0x46DD794E.
  std::vector<u8> asc(32);
  for (size_t i = 0; i < asc.size(); ++i) asc[i] = static_cast<u8>(i);
  EXPECT_EQ(crc32c(asc), 0x46DD794Eu);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, DifferentInputsDiffer) {
  EXPECT_NE(crc32c_of<u64>(1), crc32c_of<u64>(2));
  EXPECT_NE(crc32c_of<u64>(0x1234), crc32c_of<u32>(0x1234));
}

TEST(Crc32c, SingleBitFlipDetected) {
  for (int bit = 0; bit < 64; ++bit) {
    const u64 base = 0xDEADBEEF12345678ull;
    EXPECT_NE(crc32c_of(base), crc32c_of(base ^ (1ull << bit))) << bit;
  }
}

TEST(Crc32c, DispatchedPathMatchesPortable) {
  // Whichever implementation crc32c() dispatched to (SSE4.2 or the table
  // loop) must agree with the portable one: every length across the 8-byte
  // word/tail split, a 4 KiB block at odd offsets, and chained seeds.
  Xoshiro256 rng(0xC5C32);
  std::vector<u8> buf(4096 + 8);
  for (u8& b : buf) b = static_cast<u8>(rng.next());
  for (size_t len = 0; len <= 64; ++len) {
    const std::span<const u8> s(buf.data(), len);
    EXPECT_EQ(crc32c(s), common::detail::crc32c_portable(s)) << len;
  }
  for (size_t off = 0; off < 8; ++off) {
    const std::span<const u8> s(buf.data() + off, 4096);
    EXPECT_EQ(crc32c(s), common::detail::crc32c_portable(s)) << off;
  }
  for (int i = 0; i < 64; ++i) {
    const u32 seed = static_cast<u32>(rng.next());
    const std::span<const u8> s(buf.data() + rng.below(64), rng.below(200));
    EXPECT_EQ(crc32c(s, seed), common::detail::crc32c_portable(s, seed)) << i;
  }
}

// --- Result / Status ---------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(Status, CarriesCodeAndMessage) {
  Status s(ErrorCode::kCorrupted, "bad block");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "corrupted: bad block");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r{Status(ErrorCode::kNotFound, "missing")};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_THROW(r.value(), std::logic_error);
}

TEST(Result, OkStatusRejected) {
  EXPECT_THROW(Result<int>{Status::ok()}, std::logic_error);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  Xoshiro256 r(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(5);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Xoshiro256 r(9);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, SplitMixExpandsSeeds) {
  SplitMix64 sm(0);
  const u64 a = sm.next(), b = sm.next();
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
}

TEST(Zipf, RankZeroIsHottest) {
  ZipfSampler z(1000, 0.9, 11);
  std::map<u64, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.next()]++;
  int max_count = 0;
  u64 max_rank = 0;
  for (auto [rank, c] : counts)
    if (c > max_count) {
      max_count = c;
      max_rank = rank;
    }
  EXPECT_EQ(max_rank, 0u);
}

TEST(Zipf, SkewConcentratesMass) {
  ZipfSampler z(100000, 0.99, 13);
  int in_top_1pct = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (z.next() < 1000) ++in_top_1pct;
  // Zipf(0.99): the top 1% of ranks should carry far more than 1% of mass.
  EXPECT_GT(in_top_1pct, n / 4);
}

TEST(Zipf, StaysInRange) {
  ZipfSampler z(50, 0.5, 17);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.next(), 50u);
}

// --- histogram ---------------------------------------------------------------

TEST(Histogram, CountsMinMaxMean) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, PercentileMonotonic) {
  Histogram h;
  common::Xoshiro256 r(1);
  for (int i = 0; i < 10000; ++i) h.record(r.below(100000));
  double last = 0.0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, last);
    last = v;
  }
}

TEST(Histogram, PercentileApproximatesUniform) {
  Histogram h;
  common::Xoshiro256 r(2);
  for (int i = 0; i < 100000; ++i) h.record(r.below(1u << 20));
  // Log-bucketed: expect the right order of magnitude, not exactness.
  EXPECT_GT(h.percentile(50), (1u << 18));
  EXPECT_LE(h.percentile(50), (1u << 20));
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.record(5);
  b.record(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(99), 0.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23456"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name        | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer-name | 23456 |"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.to_string().find("| 1 |"), std::string::npos);
}

// --- LbaMap -----------------------------------------------------------------

TEST(LbaMap, MatchesUnorderedMapUnderRandomOps) {
  LbaMap<u64> m;
  std::unordered_map<u64, u64> ref;
  Xoshiro256 rng(44);
  for (int i = 0; i < 200000; ++i) {
    // A small key space keeps collisions, hits and erase-reinserts common.
    const u64 key = rng.below(3000) * 7919;
    const u64 op = rng.below(4);
    if (op == 0) {
      const u64 v = rng.next();
      const auto [p, inserted] = m.try_emplace(key, v);
      const auto [it, ref_inserted] = ref.try_emplace(key, v);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*p, it->second);
    } else if (op == 1) {
      ASSERT_EQ(m.erase(key), ref.erase(key) == 1);
    } else if (op == 2) {
      const u64* p = m.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(p != nullptr, it != ref.end());
      if (p != nullptr) {
        ASSERT_EQ(*p, it->second);
      }
    } else if (ref.contains(key)) {
      m.at(key) += 1;
      ref.at(key) += 1;
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const auto& [key, value] : ref) EXPECT_EQ(m.at(key), value);
}

TEST(LbaMap, EraseShiftsBackAcrossTheWrap) {
  // Keys whose home is the last slot of the minimum table, plus one whose
  // home is slot 0: the run wraps from slot 15 into slots 0..2.
  const auto home = [](u64 k) { return (k * 0x9E3779B97F4A7C15ull) >> 60; };
  std::vector<u64> last;
  u64 first = LbaMap<u64>::kEmptyKey;
  for (u64 k = 1; last.size() < 3 || first == LbaMap<u64>::kEmptyKey; ++k) {
    if (home(k) == 15 && last.size() < 3) last.push_back(k);
    if (home(k) == 0 && first == LbaMap<u64>::kEmptyKey) first = k;
  }
  LbaMap<u64> m;
  for (u64 k : last) m.try_emplace(k, k + 1);
  m.try_emplace(first, first + 1);
  ASSERT_EQ(m.slot_count(), LbaMap<u64>::kMinSlots);
  // Slot order proves the wrap: slots 0..2 hold last[1], last[2], first.
  std::vector<u64> order;
  for (const auto& [k, v] : m) order.push_back(k);
  ASSERT_EQ(order, (std::vector<u64>{last[1], last[2], first, last[0]}));

  EXPECT_TRUE(m.erase(last[0]));  // slot 15: the whole run shifts back
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.find(last[0]), nullptr);
  for (u64 k : {last[1], last[2], first}) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k + 1);
  }
  order.clear();
  for (const auto& [k, v] : m) order.push_back(k);
  EXPECT_EQ(order, (std::vector<u64>{last[2], first, last[1]}));
  EXPECT_TRUE(m.erase(last[2]));  // slot 0: `first` moves home
  EXPECT_EQ(*m.find(first), first + 1);
  EXPECT_EQ(*m.find(last[1]), last[1] + 1);
  EXPECT_FALSE(m.erase(last[2]));
  EXPECT_EQ(m.size(), 2u);
}

TEST(LbaMap, GrowsFromTheMinimumSize) {
  LbaMap<u64> m;
  EXPECT_EQ(m.slot_count(), 0u);
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_FALSE(m.erase(5));
  // 7/8 of 16 slots: 14 entries fit, the 15th doubles the table.
  for (u64 k = 0; k < 14; ++k) m.try_emplace(k * 4096, k);
  EXPECT_EQ(m.slot_count(), LbaMap<u64>::kMinSlots);
  m.try_emplace(14 * 4096, 14);
  EXPECT_EQ(m.slot_count(), 2 * LbaMap<u64>::kMinSlots);
  for (u64 k = 0; k < 15; ++k) EXPECT_EQ(m.at(k * 4096), k);
  for (u64 k = 15; k < 5000; ++k) m[k * 4096] = k;
  EXPECT_EQ(m.size(), 5000u);
  EXPECT_LE(m.size() * 8, m.slot_count() * 7);
  for (u64 k = 0; k < 5000; ++k) EXPECT_EQ(m.at(k * 4096), k);
  // clear() keeps the slots.
  const size_t slots = m.slot_count();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(4096), nullptr);
  EXPECT_EQ(m.slot_count(), slots);
  m.try_emplace(4096, 1);
  EXPECT_EQ(m.at(4096), 1u);
}

TEST(LbaMap, IterationVisitsEachKeyOnce) {
  LbaMap<u64> m;
  std::map<u64, u64> want;
  for (u64 k = 0; k < 3000; ++k) {
    m.try_emplace(k * 13, k);
    want[k * 13] = k;
  }
  for (u64 k = 0; k < 3000; k += 3) {
    m.erase(k * 13);
    want.erase(k * 13);
  }
  std::map<u64, u64> seen;
  size_t visits = 0;
  for (const auto& [k, v] : m) {
    ++visits;
    seen[k] = v;
  }
  EXPECT_EQ(visits, want.size());
  EXPECT_EQ(seen, want);
}

TEST(LbaMap, AtOnAMissingKeyThrows) {
  LbaMap<u64> m;
  EXPECT_THROW((void)m.at(1), std::out_of_range);
  m.try_emplace(1, 10);
  EXPECT_EQ(m.at(1), 10u);
  EXPECT_THROW((void)m.at(2), std::out_of_range);
  const LbaMap<u64>& cm = m;
  EXPECT_THROW((void)cm.at(2), std::out_of_range);
}

TEST(LbaMap, RejectsTheEmptySlotKey) {
  LbaMap<u64> m;
  EXPECT_THROW(m.try_emplace(LbaMap<u64>::kEmptyKey, 1), std::invalid_argument);
  m.try_emplace(3, 1);
  EXPECT_THROW(m[LbaMap<u64>::kEmptyKey], std::invalid_argument);
  EXPECT_EQ(m.find(LbaMap<u64>::kEmptyKey), nullptr);
  EXPECT_FALSE(m.contains(LbaMap<u64>::kEmptyKey));
  EXPECT_EQ(m.size(), 1u);
}

}  // namespace
}  // namespace srcache
