// Table 3: impact of the flush command on a raw commodity SSD.
// Sequential: flush after every 512 KiB. Random: flush after every 32
// 4 KiB writes. Paper: 402 -> 96 MB/s (4.1x) and 249 -> 30 MB/s (8.3x).
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

struct Measure {
  double no_flush, with_flush;
};

Measure run_seq(const flash::SsdSpec& spec) {
  Measure m{};
  for (bool with_flush : {false, true}) {
    flash::SimSsd ssd(spec, false);
    ssd.precondition();
    sim::SimTime t = 0;
    u64 cursor = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
      auto w = ssd.write(t, cursor, 128, {});  // 512 KiB
      t = w.done;
      if (with_flush) t = ssd.flush(t).done;
      cursor = (cursor + 128) % (ssd.capacity_blocks() - 128);
    }
    const double mbps =
        sim::mb_per_sec(static_cast<u64>(n) * 128 * kBlockSize, t);
    (with_flush ? m.with_flush : m.no_flush) = mbps;
  }
  return m;
}

Measure run_random(const flash::SsdSpec& spec) {
  Measure m{};
  for (bool with_flush : {false, true}) {
    flash::SimSsd ssd(spec, false);
    ssd.precondition();
    common::Xoshiro256 rng(5);
    sim::SimTime t = 0;
    const int groups = 300;
    for (int g = 0; g < groups; ++g) {
      for (int i = 0; i < 32; ++i) {
        auto w = ssd.write(t, rng.below(ssd.capacity_blocks()), 1, {});
        t = w.done;
      }
      if (with_flush) t = ssd.flush(t).done;
    }
    const double mbps =
        sim::mb_per_sec(static_cast<u64>(groups) * 32 * kBlockSize, t);
    (with_flush ? m.with_flush : m.no_flush) = mbps;
  }
  return m;
}

}  // namespace

int main() {
  print_header("Table 3: impact of the flush command (raw SSD)", "Table 3");
  const flash::SsdSpec spec = sized_spec(
      flash::spec_840pro_128(), Geometry::at(scale()).ssd_capacity_bytes);

  const Measure seq = run_seq(spec);
  const Measure rnd = run_random(spec);

  common::Table t({"Pattern", "No flush (MB/s)", "flush (MB/s)",
                   "Reduction (x)", "paper no-flush", "paper flush",
                   "paper (x)"});
  t.add_row({"Sequential", common::Table::num(seq.no_flush, 0),
             common::Table::num(seq.with_flush, 0),
             common::Table::num(seq.no_flush / seq.with_flush, 1), "402", "96",
             "4.1"});
  t.add_row({"Random", common::Table::num(rnd.no_flush, 0),
             common::Table::num(rnd.with_flush, 0),
             common::Table::num(rnd.no_flush / rnd.with_flush, 1), "249", "30",
             "8.3"});
  t.print();
  return 0;
}
