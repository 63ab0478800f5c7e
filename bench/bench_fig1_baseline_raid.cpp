// Figure 1: Bcache and Flashcache (write-back) over RAID-0/1/4/5 of four
// SSDs, FIO 4 KiB uniform-random writes.
//
// Paper shape: RAID-0 best; RAID-1 roughly half; parity levels hurt
// Flashcache badly (read-modify-write) while Bcache's log-structured
// writes cope better but suffer from its flushes.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Figure 1: baselines over RAID levels (FIO 4K UR write)",
               "Fig. 1");
  const double k = scale();
  common::Table t(
      {"Scheme", "RAID-0", "RAID-1", "RAID-4", "RAID-5", "(MB/s)"});

  const struct {
    raid::RaidLevel level;
    const char* name;
  } levels[] = {{raid::RaidLevel::kRaid0, "RAID-0"},
                {raid::RaidLevel::kRaid1, "RAID-1"},
                {raid::RaidLevel::kRaid4, "RAID-4"},
                {raid::RaidLevel::kRaid5, "RAID-5"}};
  for (const char* scheme : {"Bcache", "Flashcache"}) {
    std::vector<std::string> row = {scheme};
    for (const auto& l : levels) {
      const std::unique_ptr<BaselineRig> rig =
          scheme[0] == 'B'
              ? make_bcache5_rig(flash::spec_840pro_128(), k, l.level)
              : make_flashcache5_rig(flash::spec_840pro_128(), k, l.level);
      workload::FioGen::Config fc;
      fc.span_blocks = 2 * baseline_cache_blocks(*rig);
      fc.req_blocks = 1;
      fc.read_pct = 0;
      fc.seed = 11;
      workload::FioGen gen(fc);
      workload::RunConfig rc;
      rc.threads_per_gen = 4;
      rc.iodepth = 32;
      rc.duration = run_duration();
      const workload::RunResult res =
          engine::run_one({rig->cache.get(), rig->ssd_ptrs(), {&gen}, rc});
      report_run("bench_fig1_baseline_raid",
                 std::string(scheme) + "/" + l.name, res);
      row.push_back(common::Table::num(res.throughput_mbps, 1));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf(
      "\npaper shape: RAID-0 ~190-230, RAID-1 ~100-120, RAID-4/5 Flashcache"
      " degraded by parity updates, Bcache less so but flush-bound.\n");
  return 0;
}
