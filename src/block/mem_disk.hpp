// MemDisk: an idealized constant-latency, bandwidth-limited block device.
// Used as a test double and as the "infinitely good" device in ablations.
#pragma once

#include "block/block_device.hpp"
#include "block/content_store.hpp"
#include "block/media_errors.hpp"
#include "sim/timeline.hpp"

namespace srcache::blockdev {

struct MemDiskConfig {
  u64 capacity_blocks = 1 * GiB / kBlockSize;
  SimTime op_latency = 10 * sim::kUs;
  double bandwidth_mbps = 1000.0;
  SimTime flush_latency = 100 * sim::kUs;
  bool track_content = true;
};

class MemDisk final : public BlockDevice {
 public:
  explicit MemDisk(const MemDiskConfig& cfg);

  [[nodiscard]] u64 capacity_blocks() const override {
    return cfg_.capacity_blocks;
  }

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
  void replace_media() override {
    failed_ = false;
    content_.clear();
    media_.clear();
  }
  [[nodiscard]] bool failed() const override { return failed_; }
  void corrupt(u64 lba) override { content_.corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) override { media_.add(lba, n); }
  void clear_media_errors() override { media_.clear(); }
  void degrade_service(double factor, SimTime until) override {
    degrade_factor_ = factor;
    degrade_until_ = until;
  }
  [[nodiscard]] u64 media_error_blocks() const { return media_.size(); }

 private:
  IoResult transfer(SimTime now, u64 lba, u32 n);
  [[nodiscard]] SimTime scaled(SimTime now, SimTime service) const;

  MemDiskConfig cfg_;
  ContentStore content_;
  MediaErrorSet media_;
  sim::ServiceTimeline line_;
  DeviceStats stats_;
  bool failed_ = false;
  double degrade_factor_ = 1.0;
  SimTime degrade_until_ = 0;
};

}  // namespace srcache::blockdev
