// TimeSeriesSampler: fixed-interval (simulated-time) sampling of the
// measurement window.
//
// The paper's headline results are time-varying — SRC's win over LRU/RAID
// comes from *when* FTL GC and flush stalls fire — but a RunResult only
// reports window averages, which hides the GC dips and flush plateaus behind
// Tables 6/8/11. The sampler closes that gap without an event calendar:
// workload::ClosedLoop observes virtual time only at request-completion
// boundaries, so it drives the sampler there; whenever time crosses one or
// more interval boundaries the sampler closes those intervals, snapshotting
// the MetricsRegistry and deriving per-interval series:
//
//  * throughput / IOPS / hit ratio / I/O amplification from the requests
//    the closed loop fed into the interval;
//  * GC pressure (summed "ssd.*.gc.erases" / "ssd.*.gc.pages_copied"
//    counter deltas);
//  * every registry gauge as a point-in-time series (segment-buffer
//    occupancy, utilization, dirty backlog, ...);
//  * per-resource utilization "util.<resource>" for every counter named
//    "<resource>{._}busy_ns" (ServiceTimeline / MultiServer busy_time()
//    deltas divided by the interval, normalized by a "<resource>{._}units"
//    gauge when the component registered one — NAND dies, controller lanes).
//
// Busy time is charged at submit, so an interval that *queues* work can show
// utilization > 1 while a later interval shows the matching idle gap; per-
// interval busy deltas are still monotone non-negative. Series embed in
// REPRO_JSON (schema srcache-repro-v2) and export as CSV for plotting
// paper-figure-style timelines.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace srcache::obs {

struct JsonValue;

// One closed interval of the measurement window.
struct TimeSample {
  sim::SimTime start = 0;  // absolute sim time, ns
  sim::SimTime end = 0;    // start + interval, except a shorter tail sample

  // Request-level accumulators fed by the driver (ClosedLoop).
  u64 ops = 0;
  u64 bytes = 0;
  u64 app_blocks = 0;
  u64 hits = 0;    // requests, not blocks
  u64 misses = 0;

  // Derived paper metrics for the interval.
  double throughput_mbps = 0.0;
  double hit_ratio = 0.0;        // 0 when the interval saw no requests
  double io_amplification = 0.0; // SSD blocks moved / app blocks, 0 when idle

  // Named derived series: gauges, "util.*" utilizations, GC aggregates.
  std::map<std::string, double> series;

  [[nodiscard]] sim::SimTime duration() const { return end - start; }
  // Recomputes the derived paper metrics from the accumulators and the
  // interval's SSD blocks moved (the sampler and the engine merge share it).
  void derive(double ssd_blocks);
};

// A complete sampled window, embeddable in REPRO_JSON and exportable as CSV.
struct TimeSeries {
  sim::SimTime interval = 0;      // 0 = sampling was disabled
  sim::SimTime window_start = 0;  // absolute sim time of the first interval
  bool truncated = false;         // hit the sample cap; tail not recorded
  std::vector<TimeSample> samples;

  [[nodiscard]] bool empty() const { return samples.empty(); }
  // Union of per-sample series names, sorted (CSV column order).
  [[nodiscard]] std::vector<std::string> series_names() const;

  // {"interval_ns":...,"window_start_ns":...,"truncated":...,"samples":[...]}
  [[nodiscard]] std::string to_json() const;
  // RFC-4180 CSV: fixed columns (t_ms relative to window_start, dur_ms, ops,
  // bytes, throughput_mbps, hit_ratio, io_amplification) then one column per
  // series name; fields containing comma/quote/newline are quoted.
  [[nodiscard]] std::string to_csv() const;

  // Inverse of to_json(), used by tools/repro_report to re-export CSV from a
  // parsed REPRO_JSON document.
  static Result<TimeSeries> from_json(const JsonValue& v);
};

class TimeSeriesSampler {
 public:
  // `registry` may be null: request-derived series still work, resource
  // series are skipped. `interval` <= 0 disables the sampler entirely.
  // `max_samples` bounds memory against pathological interval/duration
  // combinations; once reached, sampling stops and `truncated` is set.
  TimeSeriesSampler(const MetricsRegistry* registry, sim::SimTime interval,
                    size_t max_samples = 1 << 16);

  // Opens the measurement window at `t0` and takes the baseline snapshot.
  void start(sim::SimTime t0);

  // Feed one completed request at (monotone non-decreasing) time `now`.
  // Crossing interval boundaries closes the intervals they end.
  void record(sim::SimTime now, bool is_write, bool hit, u32 nblocks,
              u64 bytes);

  // Closes the window at `t_end`: remaining whole intervals are closed
  // (zero-request intervals included) plus a final partial one when `t_end`
  // is not boundary-aligned.
  void finish(sim::SimTime t_end);

  [[nodiscard]] bool enabled() const { return interval_ > 0; }
  [[nodiscard]] const TimeSeries& series() const { return out_; }
  [[nodiscard]] TimeSeries take() { return std::move(out_); }

 private:
  void close_interval(sim::SimTime end);

  const MetricsRegistry* registry_;
  sim::SimTime interval_;
  size_t max_samples_;

  bool started_ = false;
  sim::SimTime cur_start_ = 0;  // start of the open interval
  TimeSample acc_;              // request accumulators for the open interval
  MetricsSnapshot prev_;        // registry state when the open interval began

  TimeSeries out_;
};

}  // namespace srcache::obs
