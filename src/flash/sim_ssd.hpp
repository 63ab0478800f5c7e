// SimSsd: a timing-accurate simulated SATA/NVMe SSD.
//
// Composition (all contention via sim timelines):
//   host command  ->  controller (per-command overhead, 1..k lanes)
//                 ->  host interface (shared bandwidth pipe)
//                 ->  DRAM write buffer (writes ack here; drains to NAND)
//                 ->  NAND (units parallel dies; FTL decides placement & GC)
//
// Reproduces the three device behaviours the paper's design leans on:
//  * flush is expensive — it drains the write buffer and stalls the
//    controller for a barrier period (Table 3);
//  * small random overwrites trigger internal GC and collapse sustained
//    bandwidth, large erase-group-aligned writes do not (Fig. 2);
//  * the host interface caps reads (SATA vs NVMe price/perf split, §3.3).
#pragma once

#include <deque>
#include <memory>

#include "block/block_device.hpp"
#include "block/content_store.hpp"
#include "block/media_errors.hpp"
#include "flash/ftl.hpp"
#include "flash/ssd_specs.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/timeline.hpp"

namespace srcache::flash {

using blockdev::BlockDevice;
using blockdev::DeviceStats;
using blockdev::IoResult;
using blockdev::Payload;
using sim::SimTime;

class SimSsd final : public BlockDevice {
 public:
  // `track_content` disables the per-block tag store for large perf-only
  // runs (reads then report tag 0).
  explicit SimSsd(const SsdSpec& spec, bool track_content = true);

  [[nodiscard]] u64 capacity_blocks() const override {
    return exported_blocks_;
  }
  [[nodiscard]] const SsdSpec& spec() const { return spec_; }
  [[nodiscard]] const Ftl& ftl() const { return ftl_; }

  IoResult read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) override;
  IoResult write(SimTime now, u64 lba, u32 n,
                 std::span<const u64> tags) override;
  IoResult write_payload(SimTime now, u64 lba, Payload payload) override;
  Result<Payload> read_payload(SimTime now, u64 lba, SimTime* done) override;
  IoResult flush(SimTime now) override;
  IoResult trim(SimTime now, u64 lba, u64 n) override;

  [[nodiscard]] const DeviceStats& stats() const override { return stats_; }

  void fail() override { failed_ = true; }
  void heal() override { failed_ = false; }
  void replace_media() override;
  [[nodiscard]] bool failed() const override { return failed_; }
  void corrupt(u64 lba) override { content_.corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) override { media_.add(lba, n); }
  void clear_media_errors() override { media_.clear(); }
  [[nodiscard]] u64 media_error_blocks() const { return media_.size(); }

  // Fills the whole exported LBA space with dummy data, then resets timing
  // and statistics — the paper's preconditioning step (§5.1) that brings the
  // FTL to steady state before measuring.
  void precondition();

  // Resets time, stats and the write buffer but keeps FTL occupancy/wear.
  void reset_timing();

  // Registers pull-style observability metrics (FTL GC/erase/WA counters,
  // device I/O counters, resource busy times) under `scope`, e.g. "ssd.0".
  // The callbacks read this device; it must outlive the registry's snapshots.
  void register_metrics(const obs::Scope& scope);

  // Attaches an op-span tracer (nullptr detaches). When the ambient op is
  // sampled, reads/writes contribute "ssd.read"/"ssd.write" spans with
  // NAND-phase and internal-GC ("ssd.gc") children, and flushes an
  // "ssd.flush" span, labelled with this device's array index.
  void set_span(obs::SpanTracer* tracer, u32 dev) {
    span_ = tracer;
    span_dev_ = dev;
  }

 private:
  IoResult check(SimTime now, u64 lba, u64 n) const;
  // Applies FTL-reported NAND work to the die servers; returns completion.
  SimTime charge_nand(SimTime start, const NandOps& ops);
  SimTime admit_to_buffer(SimTime ready, u64 bytes, SimTime nand_done);

  SsdSpec spec_;
  u64 exported_blocks_;
  Ftl ftl_;
  blockdev::ContentStore content_;
  blockdev::MediaErrorSet media_;

  sim::MultiServer controller_;
  sim::BandwidthPipe interface_;
  sim::MultiServer nand_;

  // Write-buffer occupancy: (drain completion, bytes) per admitted write.
  std::deque<std::pair<SimTime, u64>> pending_;
  u64 pending_bytes_ = 0;

  DeviceStats stats_;
  bool failed_ = false;

  obs::SpanTracer* span_ = nullptr;
  u32 span_dev_ = 0;
};

}  // namespace srcache::flash
