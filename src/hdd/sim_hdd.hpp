// SimHdd: a mechanical disk model — one arm, positioning cost for
// non-sequential access, streaming transfer rate. Eight of these in RAID-10
// behind a 1 Gbps link form the paper's primary storage (Table 1).
#pragma once

#include "block/block_device.hpp"
#include "block/content_store.hpp"
#include "block/media_errors.hpp"
#include "sim/timeline.hpp"

namespace srcache::hdd {

using blockdev::BlockDevice;
using blockdev::DeviceStats;
using blockdev::IoResult;
using blockdev::Payload;
using sim::SimTime;

struct HddConfig {
  u64 capacity_bytes = 64 * GiB;      // scaled stand-in for a 2 TB spindle
  double transfer_mbps = 150.0;       // media streaming rate
  sim::SimTime avg_seek = 8 * sim::kMs;        // 7.2K RPM class
  sim::SimTime avg_rotation = 4170 * sim::kUs; // half a revolution at 7200 rpm
  sim::SimTime command_overhead = 200 * sim::kUs;
  bool track_content = true;
};

class SimHdd final : public BlockDevice {
 public:
  explicit SimHdd(const HddConfig& cfg);

  [[nodiscard]] u64 capacity_blocks() const override { return blocks_; }

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
  [[nodiscard]] bool failed() const override { return failed_; }
  void corrupt(u64 lba) override { content_.corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) override { media_.add(lba, n); }
  void clear_media_errors() override { media_.clear(); }
  [[nodiscard]] u64 media_error_blocks() const { return media_.size(); }
  // Background ops (destage sweeps) yield to foreground ones on the arm.
  void set_background(bool background) override { background_ = background; }

  // Cumulative arm service time (seek + rotation + transfer), for per-disk
  // utilization attribution by the observability layer.
  [[nodiscard]] SimTime arm_busy_time() const { return arm_.busy_time(); }

 private:
  IoResult access(SimTime now, u64 lba, u32 n);

  HddConfig cfg_;
  u64 blocks_;
  blockdev::ContentStore content_;
  blockdev::MediaErrorSet media_;
  sim::PriorityTimeline arm_;
  u64 head_pos_ = 0;  // LBA after the last access (sequentiality detection)
  bool background_ = false;
  DeviceStats stats_;
  bool failed_ = false;
};

}  // namespace srcache::hdd
