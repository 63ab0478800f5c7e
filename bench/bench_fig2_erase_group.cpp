// Figure 2: sustained write bandwidth vs write-unit size on a raw SSD, for
// over-provisioning 0%..50%.
//
// Paper result: bandwidth climbs with the write unit and saturates at
// ~400 MB/s once the unit reaches the erase group size (256 MiB for the
// 840 Pro); small units at low OPS collapse due to internal GC.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

double run_point(const flash::SsdSpec& spec, u64 unit_bytes, u64 seed) {
  flash::SimSsd ssd(spec, false);
  ssd.precondition();
  const u64 unit_blocks = std::max<u64>(1, unit_bytes / kBlockSize);
  const u64 units = ssd.capacity_blocks() / unit_blocks;
  if (units == 0) return 0.0;
  common::Xoshiro256 rng(seed);
  sim::SimTime t = 0;
  // Overwrite aligned units at random until we have rewritten ~1.5x the
  // device (steady state), then measure a second sweep.
  const u64 total_units = units * 3 / 2;
  u64 bytes = 0;
  sim::SimTime t_start = 0;
  u64 measured = 0;
  for (u64 i = 0; i < total_units + units; ++i) {
    const u64 u = rng.below(units);
    // One unit is written as a burst of 512 KiB requests (the largest
    // transfer unit, as in SRC).
    for (u64 off = 0; off < unit_blocks; off += 128) {
      const u32 n = static_cast<u32>(std::min<u64>(128, unit_blocks - off));
      auto w = ssd.write(t, u * unit_blocks + off, n, {});
      t = w.done;
      if (i >= total_units) bytes += blocks_to_bytes(n);
    }
    if (i + 1 == total_units) t_start = t;
    if (i >= total_units) ++measured;
  }
  return sim::mb_per_sec(bytes, t - t_start);
}

}  // namespace

int main() {
  print_header("Figure 2: erase group size of the cache SSD", "Fig. 2");
  const double k = scale();
  // A larger device than the cache benches use: the OPS sweep needs the
  // spare pool (not the FTL's fixed open-block minimum) to dominate.
  flash::SsdSpec base = sized_spec(flash::spec_840pro_128(),
                                   32 * Geometry::at(k).erase_group_bytes, k);
  std::printf(
      "modeled erase group: %llu MiB (paper: 256 MiB at full scale)\n\n",
      static_cast<unsigned long long>(base.erase_group_bytes() / MiB));

  std::vector<u64> unit_bytes;
  for (u64 u = 2 * MiB; u <= 4 * base.erase_group_bytes(); u *= 2)
    unit_bytes.push_back(u);

  std::vector<std::string> header = {"OPS \\ unit"};
  for (u64 u : unit_bytes)
    header.push_back(std::to_string(u / MiB) + "M");
  common::Table t(header);

  for (double ops : {0.0, 0.10, 0.20, 0.30, 0.50}) {
    flash::SsdSpec spec = base;
    spec.ops_fraction = ops;
    std::vector<std::string> row = {
        std::to_string(static_cast<int>(ops * 100)) + "%"};
    for (u64 u : unit_bytes)
      row.push_back(common::Table::num(run_point(spec, u, 3), 0));
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("\n(MB/s; paper shape: all OPS curves converge to ~400 MB/s at"
              " the erase-group size)\n");
  return 0;
}
