#include <gtest/gtest.h>

#include <queue>

#include "common/rng.hpp"
#include "flash/sim_ssd.hpp"

namespace srcache::flash {
namespace {

using sim::SimTime;

SsdSpec test_spec() {
  // 840 Pro class, scaled to 2 GiB for test speed. Scaling shrinks the
  // block count but keeps per-op timing, so bandwidth targets still hold.
  SsdSpec s = spec_840pro_128();
  s.capacity_bytes = 2 * GiB;
  s.pages_per_block = 256;  // keep a sane block count at small capacity
  s.write_buffer_bytes = 16 * MiB;
  return s;
}

// Simple closed-loop driver: `qd` streams, each issuing its next op at its
// previous completion. Returns achieved MB/s over the bytes moved.
template <typename IssueFn>
double closed_loop_mbps(IssueFn&& issue, int qd, u64 total_ops,
                        u64 bytes_per_op) {
  using Entry = std::pair<SimTime, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < qd; ++i) heap.emplace(0, i);
  SimTime last = 0;
  for (u64 n = 0; n < total_ops; ++n) {
    auto [now, stream] = heap.top();
    heap.pop();
    const SimTime done = issue(now, n);
    last = std::max(last, done);
    heap.emplace(done, stream);
  }
  return sim::mb_per_sec(total_ops * bytes_per_op, last);
}

TEST(SimSsd, CapacityMatchesSpec) {
  SimSsd ssd(test_spec());
  EXPECT_EQ(ssd.capacity_blocks(), 2 * GiB / kBlockSize);
}

TEST(SimSsd, EraseGroupOfPrototypeIs256MiB) {
  EXPECT_EQ(spec_840pro_128().erase_group_bytes(), 256 * MiB);
}

TEST(SimSsd, SequentialWriteNearSpec) {
  // Target: ~390 MB/s sustained sequential write (Table 4, 128 GB SSD-A).
  SimSsd ssd(test_spec());
  const u32 op_blocks = 128;  // 512 KiB requests
  const u64 ops = ssd.capacity_blocks() / op_blocks;
  u64 cursor = 0;
  const double mbps = closed_loop_mbps(
      [&](SimTime now, u64) {
        const auto r = ssd.write(now, cursor, op_blocks, {});
        cursor = (cursor + op_blocks) % (ssd.capacity_blocks() - op_blocks);
        return r.done;
      },
      4, ops, blocks_to_bytes(op_blocks));
  EXPECT_GT(mbps, 330.0);
  EXPECT_LT(mbps, 470.0);
}

TEST(SimSsd, SequentialReadHitsInterfaceCap) {
  SimSsd ssd(test_spec());
  for (u64 b = 0; b < 32768; b += 128) ssd.write(0, b, 128, {});
  ssd.reset_timing();
  u64 cursor = 0;
  const double mbps = closed_loop_mbps(
      [&](SimTime now, u64) {
        const auto r = ssd.read(now, cursor, 128, {});
        cursor = (cursor + 128) % 32768;
        return r.done;
      },
      4, 2000, blocks_to_bytes(128));
  // SATA-bound: ~530-550 MB/s.
  EXPECT_GT(mbps, 450.0);
  EXPECT_LT(mbps, 560.0);
}

TEST(SimSsd, RandomReadIopsNearSpec) {
  // Target: ~97 KIOPS 4 KiB random read (Table 4).
  SimSsd ssd(test_spec());
  for (u64 b = 0; b < ssd.capacity_blocks(); b += 128) ssd.write(0, b, 128, {});
  ssd.reset_timing();
  common::Xoshiro256 rng(1);
  const u64 ops = 200000;
  const double mbps = closed_loop_mbps(
      [&](SimTime now, u64) {
        return ssd.read(now, rng.below(ssd.capacity_blocks()), 1, {}).done;
      },
      32, ops, kBlockSize);
  const double kiops = mbps * 1e6 / kBlockSize / 1e3;
  EXPECT_GT(kiops, 75.0);
  EXPECT_LT(kiops, 120.0);
}

TEST(SimSsd, BurstRandomWriteIopsNearSpec) {
  // Spec-sheet 4 KiB random-write IOPS (~90K) are *burst* numbers: fresh
  // drive, buffered writes, no internal GC yet.
  SimSsd ssd(test_spec());
  common::Xoshiro256 rng(2);
  const u64 ops = 100000;
  const double mbps = closed_loop_mbps(
      [&](SimTime now, u64) {
        return ssd.write(now, rng.below(ssd.capacity_blocks()), 1, {}).done;
      },
      32, ops, kBlockSize);
  const double kiops = mbps * 1e6 / kBlockSize / 1e3;
  EXPECT_GT(kiops, 60.0);
  EXPECT_LT(kiops, 120.0);
}

TEST(SimSsd, SteadyStateRandomWritesPayGcTax) {
  // At steady state (preconditioned, uniform random 4 KiB) internal GC
  // write amplification collapses throughput well below the burst rate —
  // the §3.3 motivation for erase-group-aligned writes.
  SimSsd ssd(test_spec());
  ssd.precondition();
  common::Xoshiro256 rng(2);
  const u64 ops = 300000;
  const double mbps = closed_loop_mbps(
      [&](SimTime now, u64) {
        return ssd.write(now, rng.below(ssd.capacity_blocks()), 1, {}).done;
      },
      32, ops, kBlockSize);
  const double kiops = mbps * 1e6 / kBlockSize / 1e3;
  EXPECT_GT(kiops, 3.0);
  EXPECT_LT(kiops, 45.0);  // far below the ~90K burst rate
  EXPECT_GT(ssd.ftl().stats().write_amplification(), 2.0);
}

TEST(SimSsd, FlushDrainsAndStalls) {
  SimSsd ssd(test_spec());
  const auto w = ssd.write(0, 0, 1024, {});
  const auto f = ssd.flush(w.done);
  // Flush completes no earlier than the NAND drain plus the barrier.
  EXPECT_GE(f.done - w.done, test_spec().flush_barrier);
  // A read issued immediately after queues behind the flush barrier.
  const auto r = ssd.read(f.done - 1 * sim::kMs, 0, 1, {});
  EXPECT_GE(r.done, f.done);
}

TEST(SimSsd, FlushPerWriteCollapsesThroughput) {
  // The Table 3 experiment in miniature: sequential 512 KiB writes with and
  // without a flush per write.
  auto run = [](bool with_flush) {
    SimSsd ssd(test_spec());
    u64 cursor = 0;
    SimTime t = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      auto w = ssd.write(t, cursor, 128, {});
      t = w.done;
      if (with_flush) t = ssd.flush(t).done;
      cursor += 128;
    }
    return sim::mb_per_sec(static_cast<u64>(n) * 128 * kBlockSize, t);
  };
  const double no_flush = run(false);
  const double flush = run(true);
  EXPECT_GT(no_flush / flush, 3.0);  // paper: 4.1x for sequential
}

TEST(SimSsd, TrimmedBlocksReadAsZero) {
  SimSsd ssd(test_spec());
  const std::vector<u64> tags = {77};
  ssd.write(0, 5, 1, tags);
  ssd.trim(0, 5, 1);
  std::vector<u64> out(1, 1);
  ssd.read(0, 5, 1, out);
  EXPECT_EQ(out[0], 0u);
  EXPECT_FALSE(ssd.ftl().is_mapped(5));
}

TEST(SimSsd, PayloadRoundTrip) {
  SimSsd ssd(test_spec());
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{9, 8, 7});
  ASSERT_TRUE(ssd.write_payload(0, 11, p).ok());
  auto r = ssd.read_payload(0, 11, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value(), (std::vector<u8>{9, 8, 7}));
}

TEST(SimSsd, FailStops) {
  SimSsd ssd(test_spec());
  ssd.fail();
  EXPECT_EQ(ssd.write(0, 0, 1, {}).error, ErrorCode::kDeviceFailed);
  EXPECT_FALSE(ssd.read_payload(0, 0, nullptr).is_ok());
}

TEST(SimSsd, PreconditionFillsFtl) {
  SimSsd ssd(test_spec());
  ssd.precondition();
  EXPECT_EQ(ssd.ftl().mapped_pages(), ssd.capacity_blocks());
  EXPECT_EQ(ssd.stats().write_blocks, 0u);  // timing/stats were reset
}

TEST(SimSsd, ContentTrackingCanBeDisabled) {
  SimSsd ssd(test_spec(), /*track_content=*/false);
  const std::vector<u64> tags = {123};
  ssd.write(0, 0, 1, tags);
  std::vector<u64> out(1, 55);
  ssd.read(0, 0, 1, out);
  EXPECT_EQ(out[0], 0u);  // content not retained
}

TEST(SsdSpecs, CatalogHasFiveEntries) {
  const auto cat = table12_catalog();
  ASSERT_EQ(cat.size(), 5u);
  EXPECT_EQ(cat[0].name, "A-MLC(SATA)");
  EXPECT_EQ(cat[4].name, "C-MLC(NVMe)");
}

TEST(SsdSpecs, TlcSlowerAndShorterLived) {
  const SsdSpec mlc = spec_a_mlc_sata();
  const SsdSpec tlc = spec_a_tlc_sata();
  EXPECT_GT(tlc.program_latency, mlc.program_latency);
  EXPECT_LT(tlc.endurance_cycles, mlc.endurance_cycles);
  EXPECT_LT(tlc.price_usd, mlc.price_usd);
}

TEST(SsdSpecs, NvmeFasterInterfaceAndNand) {
  const SsdSpec nvme = spec_c_mlc_nvme();
  const SsdSpec sata = spec_a_mlc_sata();
  EXPECT_GT(nvme.interface_mbps, 4 * sata.interface_mbps);
  EXPECT_GT(nvme.nand_write_mbps(), 2 * sata.nand_write_mbps());
}

TEST(SsdSpecs, ScaledKeepsGeometryFloor) {
  const SsdSpec s = spec_840pro_128().scaled(1.0 / 1024.0);
  EXPECT_GE(s.capacity_bytes,
            static_cast<u64>(s.units) * s.pages_per_block * kBlockSize * 4);
}

}  // namespace
}  // namespace srcache::flash
