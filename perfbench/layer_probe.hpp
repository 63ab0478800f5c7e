// Outside-in per-layer host timing for the simulator benchmark.
//
// Decorators wrap each layer's public interface — workload::Generator,
// cache::CacheDevice and blockdev::BlockDevice — and charge the host time of
// every call to the layer that owns the wrapped object. A layer's self time
// is its inclusive time minus the inclusive time of the timed calls nested
// inside it, computed against a stack of open timed calls. One stack per
// shard domain is a per-thread stack: the engine runs a domain on one thread
// at a time, and a call chain never leaves the thread it started on.
//
// Only the measured window is counted. The top cache decorator finds the
// warm-up/window boundary the way workload::ClosedLoop::warmup does: it adds
// up submitted bytes until they reach RunConfig::warmup_bytes, and the op
// after the one that crosses that line is the first measured op.
//
// Overhead bound: call counts are exact, but the two layers called once per
// op — the generators and the top cache — are timed only on every
// `sample_every`-th measured op of a domain (a deterministic 1-in-N choice
// made when the op's request is generated), and their times are scaled up
// by calls / timed calls. Calls below the top cache are rarer and heavier,
// so they are timed every time; within a sampled op every call is timed,
// so self time subtracts cleanly. The cost of the clock reads themselves is
// calibrated once (clock_cost_ns) and taken out of every timed interval, so
// the sampled ops do not inflate the estimates. Nothing here changes the
// simulation: every call is forwarded unchanged and its result returned as
// is.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <stdexcept>
#include <utility>

#include "block/block_device.hpp"
#include "cache/cache_device.hpp"
#include "workload/generators.hpp"

namespace srcache::perfbench {

using Clock = std::chrono::steady_clock;

enum Layer : int { kWorkload, kTier, kSrcCache, kFlash, kHdd, kNumLayers };

inline constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "workload", "tier", "src_cache", "flash", "hdd"};

struct LayerTally {
  u64 calls = 0;        // every call in the measured window
  u64 timed_calls = 0;  // calls inside sampled ops
  i64 self_ns = 0;      // over timed calls only
};

// Per-domain timing state shared by every decorator of one shard domain.
class Probe {
 public:
  // `sample_every` 0 times nothing (an untraced run). `clock_cost_ns` is
  // the duration of one Clock::now() (see clock_cost_ns()).
  Probe(u64 warmup_bytes, u32 sample_every, i64 clock_cost_ns)
      : warmup_bytes_(warmup_bytes),
        sample_every_(sample_every),
        clock_cost_ns_(clock_cost_ns),
        traced_(sample_every != 0),
        countdown_(sample_every) {}

  // The SRC cache of this domain, whose stats are snapshotted when the
  // window opens (it sits below the tier, so the loop's own window delta
  // covers only the top cache).
  void watch_src(const cache::CacheDevice* src) { src_ = src; }

  // Top-of-stack boundary tracking; see TimedCache::submit.
  [[nodiscard]] bool in_window() const { return in_window_; }
  void add_warmup_bytes(u64 bytes) {
    warmed_ += bytes;
    if (warmed_ >= warmup_bytes_) {
      in_window_ = true;
      warm_end = Clock::now();
      if (src_ != nullptr) src_at_window = src_->stats();
    }
  }
  void mark_first_measured() {
    if (!saw_first_) {
      saw_first_ = true;
      first_measured = Clock::now();
    }
  }

  // Called once per measured op, when its request is generated.
  void begin_op() {
    sampled_ = --countdown_ == 0;
    if (sampled_) countdown_ = sample_every_;
  }

  // `per_op` marks the once-per-op calls that are timed 1-in-N.
  template <typename F>
  auto timed(Layer layer, bool per_op, F&& call) -> decltype(call()) {
    if (!in_window_) return call();
    LayerTally& t = tally_[layer];
    ++t.calls;
    if (!traced_ || (per_op && !sampled_)) return call();
    if (depth_ == kMaxDepth)
      throw std::logic_error("perfbench: timed calls nested too deep");
    child_ns_[depth_++] = 0;
    const Clock::time_point t0 = Clock::now();
    auto result = call();
    // `raw` holds the call plus one clock read; a nested call also costs
    // its caller one more read outside its own interval.
    const i64 raw = (Clock::now() - t0).count();
    const i64 child = child_ns_[--depth_];
    ++t.timed_calls;
    t.self_ns += raw - clock_cost_ns_ - child;
    if (depth_ > 0) child_ns_[depth_ - 1] += raw + clock_cost_ns_;
    return result;
  }

  [[nodiscard]] const LayerTally& tally(Layer l) const { return tally_[l]; }

  Clock::time_point warm_end{};
  Clock::time_point first_measured{};
  cache::CacheStats src_at_window;

 private:
  static constexpr int kMaxDepth = 16;

  u64 warmup_bytes_;
  u32 sample_every_;
  i64 clock_cost_ns_;
  const cache::CacheDevice* src_ = nullptr;
  u64 warmed_ = 0;
  bool in_window_ = false;
  bool saw_first_ = false;

  bool traced_;
  u64 countdown_;
  bool sampled_ = false;

  std::array<LayerTally, kNumLayers> tally_{};
  std::array<i64, kMaxDepth> child_ns_{};
  int depth_ = 0;
};

// Median gap between back-to-back Clock::now() calls: the cost one clock
// read adds to a timed interval.
inline i64 clock_cost_ns() {
  constexpr int kSamples = 2001;
  std::array<i64, kSamples> gaps{};
  for (i64& g : gaps) {
    const Clock::time_point a = Clock::now();
    g = (Clock::now() - a).count();
  }
  std::nth_element(gaps.begin(), gaps.begin() + kSamples / 2, gaps.end());
  return gaps[kSamples / 2];
}

class TimedGenerator final : public workload::Generator {
 public:
  TimedGenerator(workload::Generator* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  workload::Op next() override {
    if (probe_->in_window()) probe_->begin_op();
    return probe_->timed(kWorkload, true, [&] { return inner_->next(); });
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  workload::Generator* inner_;
  Probe* probe_;
};

// `top` marks the cache the closed loop submits to: it alone tracks the
// warm-up/window boundary. Untraced runs wrap only the top cache, so the
// boundary costs them one add and compare per warm-up op.
class TimedCache final : public cache::CacheDevice {
 public:
  TimedCache(cache::CacheDevice* inner, Layer layer, Probe* probe, bool top)
      : inner_(inner), layer_(layer), probe_(probe), top_(top) {}

  sim::SimTime submit(const cache::AppRequest& req) override {
    if (top_) {
      if (!probe_->in_window()) {
        const sim::SimTime done = inner_->submit(req);
        probe_->add_warmup_bytes(blocks_to_bytes(req.nblocks));
        return done;
      }
      probe_->mark_first_measured();
    }
    return probe_->timed(layer_, top_, [&] { return inner_->submit(req); });
  }
  sim::SimTime flush(sim::SimTime now) override {
    return probe_->timed(layer_, top_, [&] { return inner_->flush(now); });
  }
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] u64 cached_blocks() const override {
    return inner_->cached_blocks();
  }

 private:
  cache::CacheDevice* inner_;
  Layer layer_;
  Probe* probe_;
  bool top_;
};

class TimedDevice final : public blockdev::BlockDevice {
 public:
  TimedDevice(blockdev::BlockDevice* inner, Layer layer, Probe* probe)
      : inner_(inner), layer_(layer), probe_(probe) {}

  [[nodiscard]] u64 capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  blockdev::IoResult read(sim::SimTime now, u64 lba, u32 n,
                          std::span<u64> tags_out) override {
    return probe_->timed(layer_, false,
                         [&] { return inner_->read(now, lba, n, tags_out); });
  }
  blockdev::IoResult write(sim::SimTime now, u64 lba, u32 n,
                           std::span<const u64> tags) override {
    return probe_->timed(layer_, false,
                         [&] { return inner_->write(now, lba, n, tags); });
  }
  blockdev::IoResult write_payload(sim::SimTime now, u64 lba,
                                   blockdev::Payload payload) override {
    return probe_->timed(layer_, false, [&] {
      return inner_->write_payload(now, lba, std::move(payload));
    });
  }
  Result<blockdev::Payload> read_payload(sim::SimTime now, u64 lba,
                                         sim::SimTime* done) override {
    return probe_->timed(layer_, false,
                         [&] { return inner_->read_payload(now, lba, done); });
  }
  blockdev::IoResult flush(sim::SimTime now) override {
    return probe_->timed(layer_, false, [&] { return inner_->flush(now); });
  }
  blockdev::IoResult trim(sim::SimTime now, u64 lba, u64 n) override {
    return probe_->timed(layer_, false,
                         [&] { return inner_->trim(now, lba, n); });
  }
  [[nodiscard]] const blockdev::DeviceStats& stats() const override {
    return inner_->stats();
  }

  void fail() override { inner_->fail(); }
  void heal() override { inner_->heal(); }
  [[nodiscard]] bool failed() const override { return inner_->failed(); }
  void replace_media() override { inner_->replace_media(); }
  void corrupt(u64 lba) override { inner_->corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) override {
    inner_->inject_media_errors(lba, n);
  }
  void clear_media_errors() override { inner_->clear_media_errors(); }
  void degrade_service(double factor, sim::SimTime until) override {
    inner_->degrade_service(factor, until);
  }
  void set_background(bool background) override {
    inner_->set_background(background);
  }

 private:
  blockdev::BlockDevice* inner_;
  Layer layer_;
  Probe* probe_;
};

}  // namespace srcache::perfbench
