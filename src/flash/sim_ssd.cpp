#include "flash/sim_ssd.hpp"

#include <algorithm>

namespace srcache::flash {

namespace {
FtlConfig make_ftl_config(const SsdSpec& spec) {
  FtlConfig cfg;
  cfg.units = spec.units;
  cfg.pages_per_block = spec.pages_per_block;
  cfg.exported_pages = spec.capacity_bytes / kBlockSize;
  cfg.ops_fraction = spec.ops_fraction;
  return cfg;
}
}  // namespace

SimSsd::SimSsd(const SsdSpec& spec, bool track_content)
    : spec_(spec),
      exported_blocks_(spec.capacity_bytes / kBlockSize),
      ftl_(make_ftl_config(spec)),
      content_(track_content),
      controller_(spec.controller_lanes),
      interface_(spec.interface_mbps),
      nand_(spec.units) {}

IoResult SimSsd::check(SimTime now, u64 lba, u64 n) const {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  if (lba + n > exported_blocks_) return {now, ErrorCode::kInvalidArgument};
  return {now, ErrorCode::kOk};
}

SimTime SimSsd::charge_nand(SimTime start, const NandOps& ops) {
  SimTime done = start;
  if (ops.gc_reads > 0)
    done = std::max(
        done, nand_.submit_batch(start, ops.gc_reads, spec_.read_latency));
  if (ops.programs > 0)
    done = std::max(
        done, nand_.submit_batch(start, ops.programs, spec_.program_latency));
  if (ops.erases > 0)
    done = std::max(
        done, nand_.submit_batch(start, ops.erases, spec_.erase_latency));
  return done;
}

SimTime SimSsd::admit_to_buffer(SimTime ready, u64 bytes, SimTime nand_done) {
  // Reclaim space for writes whose NAND programs already finished.
  while (!pending_.empty() && pending_.front().first <= ready) {
    pending_bytes_ -= pending_.front().second;
    pending_.pop_front();
  }
  // If the buffer cannot hold this write, stall until enough drains.
  while (pending_bytes_ + bytes > spec_.write_buffer_bytes &&
         !pending_.empty()) {
    ready = std::max(ready, pending_.front().first);
    pending_bytes_ -= pending_.front().second;
    pending_.pop_front();
  }
  pending_.emplace_back(nand_done, bytes);
  pending_bytes_ += bytes;
  return ready;
}

IoResult SimSsd::read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) {
  IoResult c = check(now, lba, n);
  if (!c.ok()) return c;
  const SimTime t_ctrl = controller_.submit(now, spec_.command_overhead);
  // Count mapped pages; unmapped reads return zeroes without NAND work.
  u64 mapped = 0;
  for (u32 i = 0; i < n; ++i)
    if (ftl_.is_mapped(lba + i)) ++mapped;
  const SimTime t_nand = nand_.submit_batch(t_ctrl, mapped, spec_.read_latency);
  const SimTime done = interface_.transfer(std::max(t_ctrl, t_nand),
                                           blocks_to_bytes(n));
  stats_.read_ops++;
  stats_.read_blocks += n;
  if (span_ != nullptr && span_->sampling()) {
    const u32 s = span_->begin_span("ssd.read", now, span_dev_);
    if (s != obs::kNoSpan) {
      if (mapped > 0) {
        const u32 ns = span_->begin_span("nand.read", t_ctrl, span_dev_);
        if (ns != obs::kNoSpan) span_->end_span(ns, t_nand, mapped);
      }
      span_->end_span(s, done, n);
    }
  }
  // A latent sector error is reported only after the device has attempted
  // the read (ECC retries), so timing is charged before failing.
  if (media_.affects(lba, n)) return {done, ErrorCode::kMediaError};
  content_.read(lba, n, tags_out);
  return {done, ErrorCode::kOk};
}

IoResult SimSsd::write(SimTime now, u64 lba, u32 n, std::span<const u64> tags) {
  IoResult c = check(now, lba, n);
  if (!c.ok()) return c;
  const SimTime t_ctrl = controller_.submit(now, spec_.command_overhead);
  const SimTime t_iface = interface_.transfer(t_ctrl, blocks_to_bytes(n));

  NandOps ops;
  for (u32 i = 0; i < n; ++i) ops += ftl_.write(lba + i);
  const SimTime nand_done = charge_nand(t_iface, ops);
  const SimTime done = admit_to_buffer(t_iface, blocks_to_bytes(n), nand_done);

  if (span_ != nullptr && span_->sampling()) {
    const u32 s = span_->begin_span("ssd.write", now, span_dev_);
    if (s != obs::kNoSpan) {
      if (ops.programs > 0) {
        const u32 ns = span_->begin_span("nand.program", t_iface, span_dev_);
        if (ns != obs::kNoSpan) span_->end_span(ns, nand_done, ops.programs);
      }
      if (ops.gc_reads > 0 || ops.erases > 0)
        span_->end_span(span_->begin_span("ssd.gc", t_iface, span_dev_),
                        nand_done, ops.erases);
      span_->end_span(s, done, n);
    }
  }
  media_.on_write(lba, n);
  content_.write(lba, n, tags);
  stats_.write_ops++;
  stats_.write_blocks += n;
  return {done, ErrorCode::kOk};
}

IoResult SimSsd::write_payload(SimTime now, u64 lba, Payload payload) {
  const u32 n = std::max<u32>(
      1, static_cast<u32>(bytes_to_blocks(payload ? payload->size() : 1)));
  IoResult c = check(now, lba, n);
  if (!c.ok()) return c;
  const SimTime t_ctrl = controller_.submit(now, spec_.command_overhead);
  const SimTime t_iface = interface_.transfer(t_ctrl, blocks_to_bytes(n));
  NandOps ops;
  for (u32 i = 0; i < n; ++i) ops += ftl_.write(lba + i);
  const SimTime nand_done = charge_nand(t_iface, ops);
  const SimTime done = admit_to_buffer(t_iface, blocks_to_bytes(n), nand_done);
  media_.on_write(lba, n);
  content_.write_payload(lba, n, std::move(payload));
  stats_.write_ops++;
  stats_.write_blocks += n;
  return {done, ErrorCode::kOk};
}

Result<Payload> SimSsd::read_payload(SimTime now, u64 lba, SimTime* done) {
  if (failed_) return Status(ErrorCode::kDeviceFailed);
  if (lba >= exported_blocks_) return Status(ErrorCode::kInvalidArgument);
  u64 tag;
  IoResult r = read(now, lba, 1, std::span<u64>(&tag, 1));
  if (done != nullptr) *done = r.done;
  if (!r.ok()) return Status(r.error);
  return content_.read_payload(lba);
}

IoResult SimSsd::flush(SimTime now) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  // Drain: every buffered write must reach NAND; then a fixed barrier while
  // the controller persists its mapping state. The controller is occupied
  // for the whole period, so queued reads/writes stall behind the flush.
  SimTime drain = now;
  if (!pending_.empty()) drain = std::max(drain, pending_.back().first);
  pending_.clear();
  pending_bytes_ = 0;
  const SimTime service = (drain - now) + spec_.flush_barrier;
  SimTime done = now;
  for (int lane = 0; lane < controller_.units(); ++lane)
    done = std::max(done, controller_.submit(now, service));
  stats_.flushes++;
  if (span_ != nullptr)
    span_->end_span(span_->begin_span("ssd.flush", now, span_dev_), done);
  return {done, ErrorCode::kOk};
}

IoResult SimSsd::trim(SimTime now, u64 lba, u64 n) {
  IoResult c = check(now, lba, n);
  if (!c.ok()) return c;
  const SimTime done = controller_.submit(now, spec_.command_overhead);
  ftl_.trim(lba, n);
  media_.on_write(lba, n);
  content_.discard(lba, n);
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return {done, ErrorCode::kOk};
}

void SimSsd::register_metrics(const obs::Scope& scope) {
  scope.counter_fn("read_ops", [this] { return stats_.read_ops; });
  scope.counter_fn("read_blocks", [this] { return stats_.read_blocks; });
  scope.counter_fn("write_ops", [this] { return stats_.write_ops; });
  scope.counter_fn("write_blocks", [this] { return stats_.write_blocks; });
  scope.counter_fn("flushes", [this] { return stats_.flushes; });
  scope.counter_fn("trim_blocks", [this] { return stats_.trim_blocks; });
  scope.counter_fn("gc.pages_copied",
                   [this] { return ftl_.stats().gc_pages_copied; });
  scope.counter_fn("gc.erases", [this] { return ftl_.stats().blocks_erased; });
  scope.counter_fn("host_pages_written",
                   [this] { return ftl_.stats().host_pages_written; });
  scope.counter_fn("pages_programmed",
                   [this] { return ftl_.stats().total_pages_programmed; });
  scope.counter_fn("nand_busy_ns",
                   [this] { return static_cast<u64>(nand_.busy_time()); });
  scope.counter_fn("controller_busy_ns", [this] {
    return static_cast<u64>(controller_.busy_time());
  });
  scope.counter_fn("interface_busy_ns", [this] {
    return static_cast<u64>(interface_.busy_time());
  });
  // Unit counts let the time-series sampler normalize busy-time deltas into
  // 0..1 utilizations ("util.ssd.N.nand" etc.); per-die busy counters expose
  // placement skew that the aggregate hides.
  scope.gauge_fn("nand_units",
                 [this] { return static_cast<double>(nand_.units()); });
  scope.gauge_fn("controller_units",
                 [this] { return static_cast<double>(controller_.units()); });
  for (int die = 0; die < nand_.units(); ++die) {
    scope.counter_fn("nand.die." + std::to_string(die) + ".busy_ns",
                     [this, die] {
                       return static_cast<u64>(
                           nand_.busy_time(static_cast<size_t>(die)));
                     });
  }
  scope.gauge_fn("write_amplification",
                 [this] { return ftl_.stats().write_amplification(); });
  scope.gauge_fn("write_buffer_bytes",
                 [this] { return static_cast<double>(pending_bytes_); });
  scope.gauge_fn("media_error_blocks",
                 [this] { return static_cast<double>(media_.size()); });
}

void SimSsd::precondition() {
  for (u64 lba = 0; lba < exported_blocks_; ++lba) ftl_.write(lba);
  reset_timing();
}

void SimSsd::replace_media() {
  // A physical drive swap: the replacement arrives blank with a fresh FTL.
  // Timing pipelines and cumulative I/O stats belong to the array slot, not
  // the media, so they survive — provenance balances against cumulative
  // write_blocks across the swap.
  failed_ = false;
  content_.clear();
  media_.clear();
  ftl_ = Ftl(ftl_.config());
  pending_.clear();
  pending_bytes_ = 0;
}

void SimSsd::reset_timing() {
  controller_.reset();
  interface_.reset();
  nand_.reset();
  pending_.clear();
  pending_bytes_ = 0;
  stats_ = DeviceStats{};
}

}  // namespace srcache::flash
