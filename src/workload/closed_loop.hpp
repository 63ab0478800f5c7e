// Resumable closed-loop replay: the issue/measure machinery of one run in
// explicit phases (warmup -> start -> run_until... -> finish) so a caller
// can interleave other work at virtual-time boundaries.
// engine::ParallelEngine drives one loop per shard domain and pauses each at
// epoch barriers; a serial run (engine::run_one) is a one-domain engine run.
//
// Determinism contract: given identical construction inputs, the sequence of
// issued requests — and therefore every statistic finish() computes — is a
// pure function of the generators and the cache stack. Where execution is
// paused (which run_until boundaries were used) must not change the result:
// run_until(a); run_until(b) is equivalent to run_until(b) for a <= b.
#pragma once

#include <queue>
#include <vector>

#include "tier/tier_cache.hpp"
#include "workload/runner.hpp"

namespace srcache::workload {

class ClosedLoop {
 public:
  // `gens` are borrowed and must outlive the loop.
  ClosedLoop(cache::CacheDevice* cache,
             std::vector<blockdev::BlockDevice*> ssds,
             const std::vector<Generator*>& gens, const RunConfig& cfg);

  // Untimed warm-up phase (cfg.warmup_bytes of traffic, unmeasured).
  void warmup();

  // Opens the measurement window at the next pending completion: snapshots
  // device/cache/registry state and anchors the fault injector and adaptive
  // controller.
  void start();

  [[nodiscard]] sim::SimTime window_start() const { return start_; }
  [[nodiscard]] sim::SimTime window_end() const {
    return start_ + cfg_.duration;
  }

  // Issues every request whose virtual issue time is < min(until,
  // window_end), respecting cfg.max_ops. Returns false once the loop is
  // finished (window elapsed, op budget hit, or streams drained).
  bool run_until(sim::SimTime until);

  [[nodiscard]] bool finished() const { return done_; }
  [[nodiscard]] u64 ops() const { return res_.ops; }
  [[nodiscard]] u64 bytes() const { return res_.bytes; }
  // Cumulative measured-window latency so far — lets barrier hooks (e.g. the
  // epoch SLO watchdog) read per-epoch deltas from quiescent domains.
  [[nodiscard]] const obs::LatencyRecorder& latency() const {
    return res_.latency;
  }
  // Virtual time of the next pending completion (window_end when drained);
  // after run_until(t) returned true this is >= t — the barrier invariant
  // engine_test asserts.
  [[nodiscard]] sim::SimTime next_event() const;

  // Closes the sampled window and computes the final RunResult. Call once,
  // after the loop finished (or to cut a run short deliberately).
  RunResult finish();

 private:
  u64 issue(sim::SimTime now, size_t g, bool measure);

  cache::CacheDevice* cache_;
  std::vector<blockdev::BlockDevice*> ssds_;
  std::vector<Generator*> gens_;
  RunConfig cfg_;

  // Closed loop: (completion time, generator) pairs; popping the earliest
  // completion issues that stream's next request at that instant.
  using Entry = std::pair<sim::SimTime, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;

  RunResult res_;
  obs::TimeSeriesSampler sampler_;
  std::vector<u64> tagbuf_;

  bool measuring_ = false;
  bool done_ = false;
  sim::SimTime start_ = 0;

  blockdev::DeviceStats ssd_before_;
  cache::CacheStats cache_before_;
  obs::MetricsSnapshot metrics_before_;
  obs::ProvenanceLedger prov_before_;
  tier::TierStats tier_before_;
};

}  // namespace srcache::workload
