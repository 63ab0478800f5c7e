// OpSpan tracing: the simulator's one event stream — per-op causal span
// trees with deterministic head-based sampling, plus point events.
//
// SpanTracer records *trees*: one root span per sampled application op
// (ingress), with nested child spans opened by every layer the op touches —
// cache submit, segment fill, reclaim, destage, flush, RAID stripe ops,
// SSD/NAND phases and internal GC, backend fetch and iSCSI commands.
// Components hold a SpanTracer* (nullptr = off) and guard instrumentation
// with sampling(), so unsampled ops cost one branch per would-be span.
// Point events (event()) mark rare occurrences — checksum/media errors,
// repairs, SSD failures, rebuild losses — whether or not an op is sampled.
//
// Determinism contract (PR 6): the sampling decision consumes exactly one
// RNG draw per *measured* op, in op issue order, from a generator seeded by
// the per-domain seed stream — so which ops are sampled, the span trees, and
// the aggregated SpanOutcome are bit-identical across REPRO_SHARDS /
// REPRO_THREADS. SpanOutcome holds only exact integers (plus the configured
// rate) and merges with integer sums in domain-index order.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace srcache::obs {

inline constexpr u32 kNoSpan = 0xFFFFFFFF;

struct SpanRecord {
  const char* name = "";   // static-lifetime string literal
  u32 trace_id = 0;        // sequential id of the sampled op (per tracer)
  u32 parent = kNoSpan;    // index of the parent record; kNoSpan for roots
  u32 depth = 0;
  u32 dev = 0;             // free slot: device index for per-device spans
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  u64 arg = 0;             // free slot: blocks, lba, ...
  bool instant = false;    // point event (start == end), see event()
};

// Exact aggregate of one tracer's sampled spans; what lands in REPRO_JSON.
struct SpanOutcome {
  bool active = false;
  double rate = 0.0;     // configured sample rate (identical across domains)
  u64 ops_seen = 0;      // measured ops offered to the sampler
  u64 ops_sampled = 0;   // ops whose head draw selected them
  u64 spans = 0;         // span and event records retained
  u64 span_dropped = 0;  // spans and events lost to the record cap
  struct NameAgg {
    u64 count = 0;
    u64 total_ns = 0;
  };
  std::map<std::string, NameAgg> by_name;

  void merge_add(const SpanOutcome& o);
};

class SpanTracer {
 public:
  // `rate` in [0, 1] is the head-sampling probability; `seed` must come from
  // the per-domain seed stream; `cap` bounds retained span records.
  SpanTracer(u64 seed, double rate, size_t cap = 1 << 16);

  // Opens the root span for one measured op. Consumes exactly one sampling
  // draw per call. Returns true when the op is sampled (spans nest until
  // end_op); callers must call end_op iff this returned true.
  bool begin_op(const char* name, sim::SimTime start);
  void end_op(sim::SimTime end, u64 arg = 0);

  // True while inside a sampled op — the instrumentation guard.
  [[nodiscard]] bool sampling() const { return !stack_.empty(); }

  // Child span under the innermost open span. No-op (returns kNoSpan)
  // outside a sampled op or past the cap; end_span(kNoSpan, ...) is a no-op.
  u32 begin_span(const char* name, sim::SimTime start, u32 dev = 0);
  void end_span(u32 id, sim::SimTime end, u64 arg = 0);

  // Point event at `ts`. Inside a sampled op it attaches to the innermost
  // open span; outside one it is recorded at the root (no parent, trace id
  // kNoSpan). Never consumes a sampling draw; counts against the cap.
  void event(const char* name, sim::SimTime ts, u64 arg = 0);

  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] SpanOutcome outcome() const;

  // Chrome trace events: nested 'X' slices (one lane group per trace id),
  // flow arrows ('s'/'f') tying each parent to its child spans, and 'i'
  // instants for events (root-level ones on a lane of their own).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  common::Xoshiro256 rng_;
  double rate_;
  size_t cap_;
  std::vector<SpanRecord> records_;
  std::vector<u32> stack_;  // open span record indices, root first
  u64 ops_seen_ = 0;
  u64 ops_sampled_ = 0;
  u64 span_dropped_ = 0;
  u32 next_trace_ = 0;
};

}  // namespace srcache::obs
