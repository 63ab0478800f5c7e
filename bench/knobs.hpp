// The REPRO_* environment knobs: one table, one parser.
//
// kKnobs is the only definition of a knob: name, kind, range or choices,
// default, the knob it needs and its doc text (EXPERIMENTS.md's knob
// reference is checked against the rows). parse_knobs() takes a lookup
// function, so all validation is testable in process; knobs() runs it over
// getenv once, on first use, and exits 2 on a refusal. Code reads a knob as
// knob("REPRO_X"); an unknown name does not compile. An empty value means
// unset, for every knob.
#pragma once

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "fault/fault_plan.hpp"
#include "obs/slo.hpp"
#include "policy/policy.hpp"
#include "sim/time.hpp"

namespace srcache::bench {

enum class KnobKind { kReal, kInt, kChoice, kPath, kPlan };
using enum KnobKind;

// Choice order is the enum order (EvictionKind, AdmissionKind).
inline constexpr std::string_view kEvictions[] = {"paper", "s3fifo", "sieve"};
inline constexpr std::string_view kAdmissions[] = {"always", "ghost"};

struct KnobRow {
  const char* name;
  KnobKind kind;
  double lo, hi;  // kReal/kInt: accepted range
  double def;     // the value when unset (below lo: off); kChoice: an index
  // A set knob is in use (a number set to a default of 0 is not: 0 means
  // off); in use, `needs` must differ from its default, or the run would
  // silently ignore the knob.
  const char* needs;
  const char* doc;  // EXPERIMENTS.md "effect" column
  std::span<const std::string_view> choices = {};

  [[nodiscard]] constexpr bool number() const {
    return kind == kReal || kind == kInt;
  }
};

inline constexpr KnobRow kKnobs[] = {
    {"REPRO_SCALE", kReal, 1e-3, 64, 0.25, nullptr,
     "geometry/footprint scale factor vs the paper's testbed"},
    {"REPRO_SECONDS", kReal, 1e-3, 86400, 10, nullptr,
     "virtual measurement-window length per run"},
    {"REPRO_JSON", kPath, 0, 0, 0, nullptr,
     "write all measured runs as one JSON document"},
    {"REPRO_TRACE", kPath, 0, 0, 0, "REPRO_SPAN_SAMPLE",
     "write domain 0's op-span trees and events of each SRC run as a "
     "Chrome trace-event timeline; needs `REPRO_SPAN_SAMPLE>0` and a path "
     "other than `REPRO_JSON`"},
    {"REPRO_TIMESERIES_MS", kReal, 0, 1e9, 0, "REPRO_JSON",
     "fixed-interval time-series sampling embedded per run (virtual ms, "
     "at most `REPRO_SECONDS`); 0 = off; needs `REPRO_JSON`"},
    {"REPRO_EPOCH_MS", kReal, 1, 1e9, 1000, nullptr,
     "adaptive-partition epoch length in virtual ms (`bench_multitenant`)"},
    {"REPRO_SHARDS_RATE", kReal, 1e-4, 1, 0.1, nullptr,
     "SHARDS spatial sampling rate of the MRC profilers"},
    {"REPRO_SHARDS", kInt, 1, 256, 1, nullptr,
     "engine execution lanes over the fixed 8-domain partition"},
    {"REPRO_THREADS", kInt, 0, 256, 0, "REPRO_SHARDS",
     "worker-pool cap, at most `REPRO_SHARDS`; 0 = min(lanes, hardware "
     "threads); needs `REPRO_SHARDS>1`"},
    {"REPRO_POLICY", kChoice, 0, 0, 0, nullptr,
     "GC replacement policy (`src/policy`) for the single-policy benches",
     kEvictions},
    {"REPRO_ADMIT", kChoice, 0, 0, 0, nullptr,
     "read-miss fill admission policy for the single-policy benches",
     kAdmissions},
    {"REPRO_SPAN_SAMPLE", kReal, 0, 1, 0, nullptr,
     "op-span head-sampling rate (`spans` block + trace lanes); 0 = off"},
    {"REPRO_SLO_MBPS", kReal, 0, 1e9, 0, nullptr,
     "SLO floor: per-epoch throughput (MB/s); 0 = off"},
    {"REPRO_SLO_READ_P99_MS", kReal, 0, 1e9, 0, nullptr,
     "SLO ceiling: per-epoch read p99 (ms); 0 = off"},
    {"REPRO_SLO_WRITE_P99_MS", kReal, 0, 1e9, 0, nullptr,
     "SLO ceiling: per-epoch write p99 (ms); 0 = off"},
    {"REPRO_SLO_MAX_DEGRADED", kInt, 0, 256, -1, nullptr,
     "tolerated degraded domains per epoch; unset = off"},
    {"REPRO_SLO_BUDGET", kReal, 0, 1, 0.1, nullptr,
     "error budget: fraction of epochs allowed to violate"},
    {"REPRO_FAULT_PLAN", kPlan, 0, 0, 0, nullptr,
     "scripted fault schedule per engine domain (syntax below)"},
    {"REPRO_REBUILD_MBPS", kReal, 1e-3, 1e6, 256, nullptr,
     "background hot-spare rebuild copy-rate limit (MB/s)"},
    {"REPRO_REBUILD_SPARES", kInt, 0, 255, 1, nullptr,
     "initial hot-spare pool per domain array"},
    {"REPRO_TIER_MB", kInt, 0, 1 << 20, 0, nullptr,
     "compressed DRAM tier budget in MiB across all domains; 0 = no tier"},
    {"REPRO_TIER_POLICY", kChoice, 0, 0, 0, "REPRO_TIER_MB",
     "tier eviction policy (second chance over FIFO); needs `REPRO_TIER_MB>0`",
     kEvictions},
    {"REPRO_TIER_DIRTY_PCT", kInt, 0, 100, 50, "REPRO_TIER_MB",
     "max dirty share (%) of the tier budget before write-back destaging; "
     "needs `REPRO_TIER_MB>0`"},
    {"REPRO_TIER_CPU_NSPB", kReal, 0, 1000, 1, "REPRO_TIER_MB",
     "simulated compression CPU cost in ns/B; decompression charges half; "
     "needs `REPRO_TIER_MB>0`"},
};
inline constexpr size_t kNumKnobs = std::size(kKnobs);

// Row index of `name`, or kNumKnobs.
constexpr size_t find_knob(std::string_view name) {
  size_t i = 0;
  while (i < kNumKnobs && name != kKnobs[i].name) ++i;
  return i;
}

// A knob named at compile time: an unknown name does not compile.
struct KnobId {
  size_t index;
  consteval KnobId(const char* name)  // NOLINT(google-explicit-constructor)
      : index(find_knob(name)) {
    if (index == kNumKnobs) throw "unknown REPRO_* knob";
  }
};

struct KnobValues {
  std::array<std::string, kNumKnobs> text;  // as given; "" = unset
  std::array<double, kNumKnobs> value{};    // parsed, else the default

  double operator[](KnobId k) const { return value[k.index]; }
  // A kPath/kPlan knob's text, or nullptr when unset.
  [[nodiscard]] const char* path(KnobId k) const {
    return text[k.index].empty() ? nullptr : text[k.index].c_str();
  }
  // Differs from its default.
  [[nodiscard]] bool on(size_t i) const {
    const KnobKind kind = kKnobs[i].kind;
    if (kind == kPath || kind == kPlan) return !text[i].empty();
    return value[i] != kKnobs[i].def;
  }
};

template <typename... A>
std::string knob_format(const char* fmt, A... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

// A number as messages and the doc rows show it: integers in full.
inline std::string knob_number(const KnobRow& k, double x) {
  return knob_format(k.kind == kInt ? "%.0f" : "%g", x);
}

// The doc's "values" column.
inline std::string knob_range_text(const KnobRow& k) {
  if (k.kind == kPath) return "path";
  if (k.kind == kPlan) return "plan string";
  if (k.number()) {
    const std::string lo = knob_number(k, k.lo);
    const std::string hi = knob_number(k, k.hi);
    return (k.kind == kReal ? "float, " : "int, ") + lo + "–" + hi;
  }
  std::string s;
  for (std::string_view c : k.choices)
    s += (s.empty() ? "`" : ", `") + std::string(c) + "`";
  return s;
}

// The doc's "default" column.
inline std::string knob_default_text(const KnobRow& k) {
  if (k.kind == kPath || k.kind == kPlan || k.def < k.lo) return "unset";
  if (k.kind != kChoice) return knob_number(k, k.def);
  return "`" + std::string(k.choices[static_cast<size_t>(k.def)]) + "`";
}

// Parses one row's non-empty value into *out. Returns the refusal message,
// or "" when the value is accepted.
inline std::string parse_knob(const KnobRow& k, const std::string& s,
                              double* out) {
  const std::string bad = std::string(k.name) + "=\"" + s + "\" is not ";
  const std::string tail = "; refusing to run with a misconfigured knob";
  if (k.kind == kPath) return "";
  if (k.kind == kPlan) {
    const auto plan = fault::FaultPlan::parse(s);
    if (plan.is_ok()) return "";
    return std::string(k.name) + ": " + plan.status().to_string() + tail;
  }
  if (k.kind == kChoice) {
    for (size_t i = 0; i < k.choices.size(); ++i) {
      if (k.choices[i] != s) continue;
      *out = static_cast<double>(i);
      return "";
    }
    return bad + "one of " + knob_range_text(k) + tail;
  }
  errno = 0;
  char* end = nullptr;
  const char* text = s.c_str();
  const double v = k.kind == kReal
                       ? std::strtod(text, &end)
                       : static_cast<double>(std::strtol(text, &end, 10));
  if (errno == 0 && end != text && *end == '\0' && std::isfinite(v) &&
      v >= k.lo && v <= k.hi) {
    *out = v;
    return "";
  }
  const std::string range =
      "[" + knob_number(k, k.lo) + ", " + knob_number(k, k.hi) + "]";
  return bad + (k.kind == kReal ? "a number" : "an integer") + " in " +
         range + tail;
}

inline sim::SimTime ms_to_time(double ms) {
  return static_cast<sim::SimTime>(ms * 1e6);
}
inline sim::SimTime s_to_time(double s) {
  return static_cast<sim::SimTime>(s * 1e9);
}

// Reads every row through `lookup` (name -> value, nullptr when absent):
// first each value on its own, then each `needs` rule, then the rules that
// compare two values. Returns the values or the first refusal.
inline Result<KnobValues> parse_knobs(
    const std::function<const char*(const char*)>& lookup) {
  const auto refuse = [](std::string msg) {
    return Status(ErrorCode::kInvalidArgument, std::move(msg));
  };
  KnobValues v;
  for (size_t i = 0; i < kNumKnobs; ++i) {
    const char* s = lookup(kKnobs[i].name);
    v.text[i] = s == nullptr ? "" : s;
    v.value[i] = kKnobs[i].def;
    if (v.text[i].empty()) continue;
    std::string err = parse_knob(kKnobs[i], v.text[i], &v.value[i]);
    if (!err.empty()) return refuse(std::move(err));
  }
  for (size_t i = 0; i < kNumKnobs; ++i) {
    const KnobRow& k = kKnobs[i];
    const bool off_at_zero = k.number() && k.def == 0 && v.value[i] == 0;
    const bool in_use = !v.text[i].empty() && !off_at_zero;
    if (k.needs == nullptr || !in_use) continue;
    const size_t n = find_knob(k.needs);
    if (v.on(n)) continue;
    const KnobRow& need = kKnobs[n];
    const bool path = need.kind == kPath;
    const std::string off = path ? "unset" : knob_default_text(need) + "/unset";
    const std::string fix =
        path ? "=<path>" : ">" + knob_number(need, need.def);
    return refuse(knob_format(
        "%s is set but %s is %s, so the run would ignore %s. Set %s%s or "
        "unset %s.",
        k.name, need.name, off.c_str(), k.name, need.name, fix.c_str(),
        k.name));
  }
  const char* json = v.path("REPRO_JSON");
  const char* trace = v.path("REPRO_TRACE");
  if (json != nullptr && trace != nullptr && std::string_view(json) == trace) {
    return refuse(knob_format(
        "REPRO_JSON and REPRO_TRACE point at the same file (%s); the two "
        "outputs would overwrite each other.",
        json));
  }
  const sim::SimTime interval = ms_to_time(v["REPRO_TIMESERIES_MS"]);
  const sim::SimTime window = s_to_time(v["REPRO_SECONDS"]);
  if (interval > window) {
    return refuse(knob_format(
        "REPRO_TIMESERIES_MS (%.0f ms) exceeds the measurement window "
        "REPRO_SECONDS (%.3g s): not a single interval would close. Lower "
        "the interval or lengthen the run.",
        static_cast<double>(interval) / 1e6, sim::to_seconds(window)));
  }
  if (v["REPRO_THREADS"] > v["REPRO_SHARDS"]) {
    return refuse(knob_format(
        "REPRO_THREADS=%.0f exceeds REPRO_SHARDS=%.0f: extra threads would "
        "sit idle. Lower REPRO_THREADS or raise REPRO_SHARDS.",
        v["REPRO_THREADS"], v["REPRO_SHARDS"]));
  }
  return v;
}

// The process's knobs: parse_knobs over getenv on first use; a refusal
// prints its message and exits 2.
inline const KnobValues& knobs() {
  static const KnobValues v = [] {
    Result<KnobValues> r =
        parse_knobs([](const char* name) { return std::getenv(name); });
    if (!r.is_ok()) {
      std::fprintf(stderr, "%s\n", r.status().message().c_str());
      std::exit(2);
    }
    return std::move(r).take();
  }();
  return v;
}

inline void validate_repro_knobs() { (void)knobs(); }

inline obs::SloPolicy slo_policy(const KnobValues& v) {
  obs::SloPolicy p;
  p.min_throughput_mbps = v["REPRO_SLO_MBPS"];
  p.max_read_p99_ms = v["REPRO_SLO_READ_P99_MS"];
  p.max_write_p99_ms = v["REPRO_SLO_WRITE_P99_MS"];
  p.max_degraded_domains = static_cast<i32>(v["REPRO_SLO_MAX_DEGRADED"]);
  p.error_budget = v["REPRO_SLO_BUDGET"];
  return p;
}

// One-line reads of the table.
inline double knob(KnobId k) { return knobs()[k]; }
inline u32 knob_u32(KnobId k) { return static_cast<u32>(knob(k)); }
inline const char* knob_path(KnobId k) { return knobs().path(k); }
inline double scale() { return knob("REPRO_SCALE"); }
inline sim::SimTime run_duration() { return s_to_time(knob("REPRO_SECONDS")); }
inline sim::SimTime repro_timeseries_interval() {
  return ms_to_time(knob("REPRO_TIMESERIES_MS"));
}
inline sim::SimTime repro_epoch() { return ms_to_time(knob("REPRO_EPOCH_MS")); }
inline double repro_shards_rate() { return knob("REPRO_SHARDS_RATE"); }
inline u32 repro_shards() { return knob_u32("REPRO_SHARDS"); }
inline u32 repro_threads() { return knob_u32("REPRO_THREADS"); }
inline u32 repro_tier_mb() { return knob_u32("REPRO_TIER_MB"); }
inline policy::EvictionKind repro_tier_policy() {
  return static_cast<policy::EvictionKind>(knob("REPRO_TIER_POLICY"));
}
inline u32 repro_tier_dirty_pct() { return knob_u32("REPRO_TIER_DIRTY_PCT"); }
inline double repro_tier_cpu_nspb() { return knob("REPRO_TIER_CPU_NSPB"); }

}  // namespace srcache::bench
