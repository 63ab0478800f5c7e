// MetricsRegistry: named counters / gauges / histograms with hierarchical
// dotted scopes ("ssd.0.gc.erases", "src.flushes", "hdd.link_busy_ns").
//
// Design rules, driven by the bench harness's overhead budget:
//  * Pull-first. Components that already keep their own counters (DeviceStats,
//    FtlStats, SrcCache::ExtraStats) register *callbacks* that read those
//    counters at snapshot time — the hot path is untouched, registering costs
//    nothing per request, and an unregistered component pays zero.
//  * Push metrics (owned Counter / Histogram) have stable addresses for the
//    lifetime of the registry, so instrumentation sites hold a pointer and
//    never do a name lookup or allocation on the hot path.
//  * Snapshot/delta. A MetricsSnapshot captures every metric's value; the
//    delta of two snapshots gives a clean measurement window (counters and
//    histogram buckets subtract; gauges are point-in-time and keep the later
//    value). workload::ClosedLoop snapshots after warm-up so run metrics
//    exclude cache-fill traffic.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/histogram.hpp"
#include "common/types.hpp"

namespace srcache::obs {

// Owned monotonic counter (push-style, for sites without an existing stats
// struct). Single-threaded like the rest of the simulator.
class Counter {
 public:
  void inc(u64 d = 1) { v_ += d; }
  void set(u64 v) { v_ = v; }
  [[nodiscard]] u64 value() const { return v_; }

 private:
  u64 v_ = 0;
};

struct HistogramStats {
  u64 count = 0;
  u64 min = 0;
  u64 max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  static HistogramStats of(const common::Histogram& h);
};

// Point-in-time capture of a registry. Counters and histograms are cumulative
// and subtract cleanly; gauges are instantaneous.
struct MetricsSnapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, common::Histogram> histograms;

  // Metrics recorded between `earlier` and this snapshot. Metrics absent
  // from `earlier` (registered mid-run) are taken whole.
  [[nodiscard]] MetricsSnapshot delta_since(
      const MetricsSnapshot& earlier) const;

  // Folds another snapshot in: counters and gauges add, histograms merge.
  // Used by the engine to aggregate per-shard-domain registries, where the
  // domains are replicas of the same stack and name-wise sums are the fleet
  // totals (gauges included: units, occupancies, backlogs).
  void merge_add(const MetricsSnapshot& other);

  // {"counters":{name:value,...},"gauges":{...},
  //  "histograms":{name:{count,min,max,mean,p50,p95,p99,p999},...}}
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Owned metrics: returns the existing instance when the name is taken.
  Counter& counter(const std::string& name);
  common::Histogram& histogram(const std::string& name);

  // Pull metrics: the callback is evaluated at snapshot time and must stay
  // valid for the registry's lifetime (re-registering a name replaces it).
  void counter_fn(const std::string& name, std::function<u64()> fn);
  void gauge_fn(const std::string& name, std::function<double()> fn);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] size_t size() const;

 private:
  // unique_ptr for stable addresses across rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<common::Histogram>> histograms_;
  std::map<std::string, std::function<u64()>> counter_fns_;
  std::map<std::string, std::function<double()>> gauge_fns_;
};

// Name-prefixing view over a registry: Scope(reg, "ssd.0").counter("gc.erases")
// registers "ssd.0.gc.erases". Copyable, cheap, does not own the registry.
class Scope {
 public:
  Scope(MetricsRegistry& reg, std::string prefix)
      : reg_(&reg), prefix_(std::move(prefix)) {}

  [[nodiscard]] Scope scope(const std::string& sub) const {
    return Scope(*reg_, join(sub));
  }

  Counter& counter(const std::string& name) const {
    return reg_->counter(join(name));
  }
  common::Histogram& histogram(const std::string& name) const {
    return reg_->histogram(join(name));
  }
  void counter_fn(const std::string& name, std::function<u64()> fn) const {
    reg_->counter_fn(join(name), std::move(fn));
  }
  void gauge_fn(const std::string& name, std::function<double()> fn) const {
    reg_->gauge_fn(join(name), std::move(fn));
  }

  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  [[nodiscard]] MetricsRegistry& registry() const { return *reg_; }

 private:
  [[nodiscard]] std::string join(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "." + name;
  }

  MetricsRegistry* reg_;
  std::string prefix_;
};

}  // namespace srcache::obs
