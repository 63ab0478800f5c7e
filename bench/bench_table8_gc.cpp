// Table 8: free-space management — S2D vs Sel-GC, FIFO vs Greedy victim
// selection (UMAX = 90%).
//
// Paper result: Sel-GC considerably outperforms S2D (keeping hot data via
// S2S copies pays off) at the cost of higher I/O amplification; FIFO and
// Greedy trade places by workload (Greedy wins the Read group).
//
// Runs on the sharded engine (run_group_sharded): each of the twelve
// (group x gc x victim) cells replays the fixed kEngineDomains partition
// under REPRO_SHARDS/REPRO_THREADS, so the wall clock is a knob while the
// merged numbers stay bit-identical across execution configurations.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 8: free space management performance", "Table 8");
  const double k = scale();

  common::Table t({"Workload", "S2D/FIFO", "S2D/Greedy", "SelGC/FIFO",
                   "SelGC/Greedy", "(MB/s, amp in parens)"});
  for (auto group : {workload::TraceGroup::kWrite, workload::TraceGroup::kMixed,
                     workload::TraceGroup::kRead}) {
    std::vector<std::string> row = {workload::to_string(group)};
    for (auto gc : {src::GcPolicy::kS2D, src::GcPolicy::kSelGc}) {
      for (auto victim :
           {src::VictimPolicy::kFifo, src::VictimPolicy::kGreedy}) {
        src::SrcConfig cfg = default_src_config();
        cfg.gc = gc;
        cfg.victim = victim;
        cfg.umax = 0.90;
        const std::string name =
            std::string(workload::to_string(group)) + "/" +
            (gc == src::GcPolicy::kS2D ? "S2D" : "SelGC") + "/" +
            (victim == src::VictimPolicy::kFifo ? "FIFO" : "Greedy");
        const auto res =
            run_group_sharded(cfg, flash::spec_840pro_128(), group, k,
                              "bench_table8_gc", 42, name.c_str());
        row.push_back(common::Table::num(res.throughput_mbps, 0) + " (" +
                      common::Table::num(res.io_amplification, 2) + ")");
      }
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf(
      "\npaper: Write 301/312/522/507, Mixed 491/466/581/547, "
      "Read 480/596/619/725 MB/s;\n"
      "Sel-GC > S2D everywhere, Greedy best for Read.\n");
  return 0;
}
