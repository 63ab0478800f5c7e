// Table 2: FIO 4 KiB uniform-random write bandwidth, write-through vs
// write-back, for Bcache and Flashcache over a single SSD.
//
// Paper result: WB beats WT by 4.3x (Bcache) and 17.5x (Flashcache);
// Bcache WB (65.9 MB/s) trails Flashcache WB (100.3 MB/s) because of its
// journal flushes.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

// Runs FIO 4K uniform-random writes and reports the run as `name`.
double run_fio_write(const std::string& name, cache::CacheDevice* cache,
                     blockdev::BlockDevice* ssd, u64 span_blocks) {
  workload::FioGen::Config fc;
  fc.span_blocks = span_blocks;
  fc.req_blocks = 1;  // 4 KiB
  fc.read_pct = 0;
  fc.seed = 7;
  workload::FioGen gen(fc);
  workload::RunConfig rc;
  rc.threads_per_gen = 4;  // FIO: 4 threads x iodepth 32
  rc.iodepth = 32;
  rc.duration = run_duration();
  const workload::RunResult res = engine::run_one({cache, {ssd}, {&gen}, rc});
  report_run("bench_table2_writeback", name, res);
  return res.throughput_mbps;
}

}  // namespace

int main() {
  print_header("Table 2: write-through vs write-back (single SSD, FIO 4K UR)",
               "Table 2");
  const double k = scale();
  const Geometry geo = Geometry::at(k);
  const flash::SsdSpec spec = sized_spec(flash::spec_840pro_128(),
                                         geo.ssd_capacity_bytes);
  // FIO span: twice the cache (uniform random over a volume larger than
  // the cache, as in the paper's setup).
  const u64 cache_blocks = geo.region_bytes_per_ssd / kBlockSize;
  const u64 span = 2 * cache_blocks;

  struct Cell {
    const char* name;
    double wt = 0, wb = 0;
  } rows[2] = {{"Bcache"}, {"Flashcache"}};

  for (bool write_back : {false, true}) {
    const std::string mode = write_back ? "/WB" : "/WT";
    {
      auto ssd = std::make_unique<flash::SimSsd>(spec, false);
      ssd->precondition();
      auto primary = make_primary(k);
      baselines::BcacheConfig cfg;
      cfg.cache_blocks = cache_blocks;
      cfg.write_back = write_back;
      baselines::BcacheLike cache(cfg, ssd.get(), primary.get());
      const double mbps =
          run_fio_write(rows[0].name + mode, &cache, ssd.get(), span);
      (write_back ? rows[0].wb : rows[0].wt) = mbps;
    }
    {
      auto ssd = std::make_unique<flash::SimSsd>(spec, false);
      ssd->precondition();
      auto primary = make_primary(k);
      baselines::FlashcacheConfig cfg;
      cfg.cache_blocks = cache_blocks;
      cfg.write_back = write_back;
      baselines::FlashcacheLike cache(cfg, ssd.get(), primary.get());
      const double mbps =
          run_fio_write(rows[1].name + mode, &cache, ssd.get(), span);
      (write_back ? rows[1].wb : rows[1].wt) = mbps;
    }
  }

  common::Table t({"Type", "WT (MB/s)", "WB (MB/s)", "Improvement (x)",
                   "paper WT", "paper WB", "paper (x)"});
  t.add_row({"Bcache", common::Table::num(rows[0].wt, 1),
             common::Table::num(rows[0].wb, 1),
             common::Table::num(rows[0].wb / rows[0].wt, 1), "15.3", "65.9",
             "4.3"});
  t.add_row({"Flashcache", common::Table::num(rows[1].wt, 1),
             common::Table::num(rows[1].wb, 1),
             common::Table::num(rows[1].wb / rows[1].wt, 1), "5.7", "100.3",
             "17.5"});
  t.print();
  return 0;
}
