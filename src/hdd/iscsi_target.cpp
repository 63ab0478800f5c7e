#include "hdd/iscsi_target.hpp"

#include <algorithm>

namespace srcache::hdd {

IscsiTarget::IscsiTarget(const IscsiConfig& cfg) : cfg_(cfg) {
  for (int i = 0; i < cfg_.num_disks; ++i)
    disks_.push_back(std::make_unique<SimHdd>(cfg_.disk));
  std::vector<blockdev::BlockDevice*> members;
  members.reserve(disks_.size());
  for (auto& d : disks_) members.push_back(d.get());
  raid::RaidConfig rc{raid::RaidLevel::kRaid1, cfg_.chunk_blocks};
  volume_ = std::make_unique<raid::RaidDevice>(rc, std::move(members));
  gen_capacity_blocks_ =
      std::max<u64>(1, cfg_.server_cache_bytes / kBlockSize / 2);
}

u64 IscsiTarget::capacity_blocks() const { return volume_->capacity_blocks(); }

void IscsiTarget::register_metrics(const obs::Scope& scope) {
  scope.counter_fn("read_ops", [this] { return stats_.read_ops; });
  scope.counter_fn("read_blocks", [this] { return stats_.read_blocks; });
  scope.counter_fn("write_ops", [this] { return stats_.write_ops; });
  scope.counter_fn("write_blocks", [this] { return stats_.write_blocks; });
  scope.counter_fn("flushes", [this] { return stats_.flushes; });
  scope.counter_fn("ram_hits", [this] { return ram_hits_; });
  scope.counter_fn("ram_misses", [this] { return ram_misses_; });
  scope.counter_fn("link.busy_ns",
                   [this] { return static_cast<u64>(link_.busy_time()); });
  // Per-arm busy time: lets the time-series sampler attribute utilization to
  // individual spindles ("util.hdd.disk.N.arm") and expose destage skew.
  for (size_t i = 0; i < disks_.size(); ++i) {
    scope.counter_fn("disk." + std::to_string(i) + ".arm_busy_ns",
                     [this, i] {
                       return static_cast<u64>(disks_[i]->arm_busy_time());
                     });
  }
  scope.gauge_fn("dirty_backlog_bytes",
                 [this] { return static_cast<double>(pending_bytes_); });
}

SimTime IscsiTarget::link_transfer(SimTime now, u64 bytes) {
  SimTime service = sim::transfer_time(bytes, cfg_.link_mbps);
  if (degraded(now))
    service = static_cast<SimTime>(static_cast<double>(service) *
                                   degrade_factor_);
  return link_.submit(now, service, background_);
}

SimTime IscsiTarget::half_rtt(SimTime now) const {
  const SimTime half = cfg_.rtt / 2;
  if (!degraded(now)) return half;
  return static_cast<SimTime>(static_cast<double>(half) * degrade_factor_);
}

bool IscsiTarget::cache_lookup(u64 lba, u64* tag) const {
  if (auto it = gen_cur_.find(lba); it != gen_cur_.end()) {
    if (tag != nullptr) *tag = it->second;
    return true;
  }
  if (auto it = gen_prev_.find(lba); it != gen_prev_.end()) {
    if (tag != nullptr) *tag = it->second;
    return true;
  }
  return false;
}

void IscsiTarget::cache_insert(u64 lba, u64 tag) {
  gen_cur_[lba] = tag;
  gen_prev_.erase(lba);
  if (gen_cur_.size() >= gen_capacity_blocks_) {
    gen_prev_ = std::move(gen_cur_);
    gen_cur_.clear();
  }
}

SimTime IscsiTarget::absorb_write(SimTime now, SimTime drained_at, u64 bytes) {
  if (bytes > cfg_.dirty_limit_bytes) return drained_at;  // cannot absorb
  while (!pending_.empty() && pending_.front().first <= now) {
    pending_bytes_ -= pending_.front().second;
    pending_.pop_front();
  }
  SimTime admitted = now;
  while (pending_bytes_ + bytes > cfg_.dirty_limit_bytes && !pending_.empty()) {
    admitted = std::max(admitted, pending_.front().first);
    pending_bytes_ -= pending_.front().second;
    pending_.pop_front();
  }
  pending_.emplace_back(drained_at, bytes);
  pending_bytes_ += bytes;
  return admitted;
}

blockdev::IoResult IscsiTarget::read(SimTime now, u64 lba, u32 n,
                                     std::span<u64> tags_out) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  stats_.read_ops++;
  stats_.read_blocks += n;
  // Server page cache: if the whole range is resident, serve at link speed.
  bool all_cached = true;
  for (u32 i = 0; i < n && all_cached; ++i)
    all_cached = cache_lookup(lba + i, nullptr);
  if (all_cached) {
    ram_hits_ += n;
    for (u32 i = 0; i < n; ++i) {
      u64 tag = 0;
      (void)cache_lookup(lba + i, &tag);  // resident: checked just above
      if (!tags_out.empty()) tags_out[i] = tag;
    }
    const SimTime done =
        link_transfer(now + half_rtt(now), blocks_to_bytes(n)) + half_rtt(now);
    if (span_ != nullptr)
      span_->end_span(span_->begin_span("hdd.read_ram", now), done, n);
    return {done, ErrorCode::kOk};
  }
  ram_misses_ += n;
  blockdev::IoResult r = volume_->read(now + half_rtt(now), lba, n, tags_out);
  if (!r.ok()) return r;
  for (u32 i = 0; i < n; ++i)
    cache_insert(lba + i, tags_out.empty() ? 0 : tags_out[i]);
  const SimTime done =
      link_transfer(r.done, blocks_to_bytes(n)) + half_rtt(now);
  if (span_ != nullptr)
    span_->end_span(span_->begin_span("hdd.read_disk", now), done, n);
  return {done, ErrorCode::kOk};
}

blockdev::IoResult IscsiTarget::write(SimTime now, u64 lba, u32 n,
                                      std::span<const u64> tags) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  stats_.write_ops++;
  stats_.write_blocks += n;
  const SimTime sent = link_transfer(now, blocks_to_bytes(n)) + half_rtt(now);
  for (u32 i = 0; i < n; ++i)
    cache_insert(lba + i, tags.empty() ? 0 : tags[i]);
  // Server-side writeback: the volume write drains in the background; the
  // command completes once the data is in server RAM (admission-bounded).
  volume_->set_background(true);
  blockdev::IoResult r = volume_->write(sent, lba, n, tags);
  volume_->set_background(false);
  const SimTime drained = r.ok() ? r.done : sent;
  const SimTime admitted = absorb_write(sent, drained, blocks_to_bytes(n));
  const SimTime done = admitted + half_rtt(now);
  if (span_ != nullptr)
    span_->end_span(span_->begin_span("hdd.write", now), done, n);
  return {done, ErrorCode::kOk};
}

blockdev::IoResult IscsiTarget::write_payload(SimTime now, u64 lba,
                                              blockdev::Payload payload) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  const u64 bytes = payload ? payload->size() : 1;
  const SimTime sent = link_transfer(now, bytes) + half_rtt(now);
  for (u64 i = 0; i < bytes_to_blocks(bytes); ++i) gen_cur_.erase(lba + i);
  blockdev::IoResult r = volume_->write_payload(sent, lba, std::move(payload));
  if (!r.ok()) return r;
  stats_.write_ops++;
  stats_.write_blocks += bytes_to_blocks(bytes);
  return {r.done + half_rtt(now), ErrorCode::kOk};
}

Result<blockdev::Payload> IscsiTarget::read_payload(SimTime now, u64 lba,
                                                    SimTime* done) {
  if (failed_) return Status(ErrorCode::kDeviceFailed);
  auto r = volume_->read_payload(now + half_rtt(now), lba, done);
  if (done != nullptr) *done += half_rtt(now);
  return r;
}

blockdev::IoResult IscsiTarget::flush(SimTime now) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  // Drain the server's dirty pages, then flush the disks.
  SimTime drained = now;
  if (!pending_.empty()) drained = std::max(drained, pending_.back().first);
  pending_.clear();
  pending_bytes_ = 0;
  blockdev::IoResult r = volume_->flush(drained + half_rtt(now));
  if (!r.ok()) return r;
  stats_.flushes++;
  const SimTime done = r.done + half_rtt(now);
  if (span_ != nullptr)
    span_->end_span(span_->begin_span("hdd.flush", now), done);
  return {done, ErrorCode::kOk};
}

blockdev::IoResult IscsiTarget::trim(SimTime now, u64 lba, u64 n) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  for (u64 i = 0; i < n; ++i) {
    gen_cur_.erase(lba + i);
    gen_prev_.erase(lba + i);
  }
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return volume_->trim(now + 2 * half_rtt(now), lba, n);
}

}  // namespace srcache::hdd
