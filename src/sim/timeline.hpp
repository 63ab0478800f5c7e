// Contention primitives.
//
// srcache models devices as servers with explicit availability timelines:
// a request submitted at `now` begins service at max(now, server free time)
// and occupies the server for its service time. Composing these timelines
// bottom-up (NAND die -> SSD controller -> host interface -> RAID -> cache)
// reproduces queueing delay and parallelism without a full event calendar.
#pragma once

#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace srcache::sim {

// A single serially-used resource (e.g. a SATA link, an HDD arm).
class ServiceTimeline {
 public:
  // Occupy the resource for `service` starting no earlier than `now`.
  // Returns the completion time.
  SimTime submit(SimTime now, SimTime service) {
    const SimTime start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + service;
    busy_time_ += service;
    return busy_until_;
  }

  // Earliest time a new request could start service.
  [[nodiscard]] SimTime free_at() const { return busy_until_; }
  // Total time spent serving (for utilization accounting).
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }

  // Backlog relative to `now` (how far the queue extends into the future).
  [[nodiscard]] SimTime backlog(SimTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }

  void reset() { busy_until_ = 0; busy_time_ = 0; }

 private:
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
};

// k identical parallel units fed from one queue (e.g. NAND dies across
// channels). Work is placed on the earliest-free unit: a min-heap over
// (free time, unit index) makes each placement O(log k) instead of a linear
// scan — this is the innermost loop of every simulated device, hit once per
// page op from every engine shard. Ties break toward the lowest index,
// matching the original scan's first-minimum choice exactly.
class MultiServer {
 public:
  explicit MultiServer(int units)
      : free_at_(static_cast<size_t>(units), 0),
        unit_busy_(static_cast<size_t>(units), 0) {
    rebuild_heap();
  }

  SimTime submit(SimTime now, SimTime service) {
    const size_t best = heap_[0].second;
    const SimTime start = free_at_[best] > now ? free_at_[best] : now;
    free_at_[best] = start + service;
    unit_busy_[best] += service;
    busy_time_ += service;
    sift_down(free_at_[best], best);
    return free_at_[best];
  }

  // Distributes `count` equal ops of `per_op` service across the units,
  // giving each unit a contiguous share. Equivalent to `count` single
  // submits for symmetric loads but O(units) instead of O(count · units).
  // Returns the completion time of the last op.
  SimTime submit_batch(SimTime now, u64 count, SimTime per_op) {
    if (count == 0) return now;
    const auto u = static_cast<u64>(free_at_.size());
    const u64 per_unit = count / u;
    u64 extra = count % u;
    SimTime last = now;
    for (u64 i = 0; i < u && count > 0; ++i) {
      u64 share = per_unit + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
      if (share == 0) continue;
      const SimTime done = submit(now, static_cast<SimTime>(share) * per_op);
      last = done > last ? done : last;
      count -= share;
    }
    return last;
  }

  // Time at which all units are idle (used for flush/drain semantics).
  [[nodiscard]] SimTime all_idle_at() const {
    SimTime t = 0;
    for (SimTime f : free_at_) t = f > t ? f : t;
    return t;
  }

  [[nodiscard]] SimTime earliest_free() const { return heap_[0].first; }

  [[nodiscard]] int units() const { return static_cast<int>(free_at_.size()); }
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  // Per-unit share of busy_time() — exposes placement skew (a single die
  // serving a long erase while its siblings idle) that the aggregate hides.
  [[nodiscard]] SimTime busy_time(size_t unit) const {
    return unit_busy_.at(unit);
  }

  void reset() {
    for (auto& f : free_at_) f = 0;
    for (auto& b : unit_busy_) b = 0;
    busy_time_ = 0;
    rebuild_heap();
  }

 private:
  // (free time, unit index), heap-ordered so the root is the unit the old
  // linear scan would pick: smallest free time, lowest index among ties.
  using Slot = std::pair<SimTime, size_t>;

  void rebuild_heap() {
    heap_.resize(free_at_.size());
    for (size_t i = 0; i < free_at_.size(); ++i) heap_[i] = {free_at_[i], i};
    // All-equal keys with ascending indices already satisfy the heap
    // property; after reset/construction every free time is 0.
  }

  // Re-keys the root (the unit just scheduled) and restores heap order.
  void sift_down(SimTime key, size_t unit) {
    const size_t n = heap_.size();
    size_t hole = 0;
    const Slot updated{key, unit};
    while (true) {
      const size_t left = 2 * hole + 1;
      if (left >= n) break;
      const size_t right = left + 1;
      size_t child = left;
      if (right < n && heap_[right] < heap_[left]) child = right;
      if (!(heap_[child] < updated)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = updated;
  }

  std::vector<SimTime> free_at_;
  std::vector<SimTime> unit_busy_;
  std::vector<Slot> heap_;
  SimTime busy_time_ = 0;
};

// Two-class strict-priority server: foreground ops (application reads and
// writes) preempt background ones (destaging, rebuilds). Foreground work
// sees only foreground contention; background work is pushed behind all
// committed work, conserving capacity. This models a background writeback
// thread sharing a device with the foreground path.
class PriorityTimeline {
 public:
  SimTime submit_fg(SimTime now, SimTime service) {
    const SimTime start = fg_free_ > now ? fg_free_ : now;
    fg_free_ = start + service;
    const SimTime bg_base = bg_free_ > start ? bg_free_ : start;
    bg_free_ = bg_base + service;  // fg work also delays background
    busy_time_ += service;
    return fg_free_;
  }

  SimTime submit_bg(SimTime now, SimTime service) {
    SimTime start = bg_free_ > now ? bg_free_ : now;
    if (fg_free_ > start) start = fg_free_;
    bg_free_ = start + service;
    busy_time_ += service;
    return bg_free_;
  }

  SimTime submit(SimTime now, SimTime service, bool background) {
    return background ? submit_bg(now, service) : submit_fg(now, service);
  }

  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  void reset() { fg_free_ = bg_free_ = busy_time_ = 0; }

 private:
  SimTime fg_free_ = 0;
  SimTime bg_free_ = 0;
  SimTime busy_time_ = 0;
};

// Shared bandwidth pipe (network link / host interface): a transfer of b
// bytes occupies the pipe for b / rate. Per-transfer latency is added by the
// caller, not the pipe, so pipelined transfers overlap correctly.
class BandwidthPipe {
 public:
  explicit BandwidthPipe(double mbps) : mbps_(mbps) {}

  SimTime transfer(SimTime now, u64 bytes) {
    return line_.submit(now, transfer_time(bytes, mbps_));
  }

  [[nodiscard]] double mbps() const { return mbps_; }
  [[nodiscard]] SimTime backlog(SimTime now) const {
    return line_.backlog(now);
  }
  [[nodiscard]] SimTime busy_time() const { return line_.busy_time(); }
  void reset() { line_.reset(); }

 private:
  double mbps_;
  ServiceTimeline line_;
};

}  // namespace srcache::sim
