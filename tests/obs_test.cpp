// Observability subsystem: registry snapshot/delta, latency summaries,
// span/event tracer + Chrome export schema, JSON round-trips of REPRO output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "flash/sim_ssd.hpp"
#include "hdd/iscsi_target.hpp"
#include "obs/json.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "src_cache/src_cache.hpp"
#include "workload/report.hpp"

namespace srcache {
namespace {

// --- JSON ------------------------------------------------------------------

TEST(Json, WriterBasics) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("a", static_cast<u64>(1));
  w.kv("b", "x\"y\n");
  w.key("c").begin_array().value(1.5).value(true).null().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":\"x\\\"y\\n\",\"c\":[1.5,true,null]}");
}

TEST(Json, NonFiniteBecomesNull) {
  obs::JsonWriter w;
  w.begin_array().value(std::nan("")).value(1e308 * 10).end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, ParseRoundTrip) {
  const auto r = obs::parse_json(
      R"({"n": -2.5e3, "s": "aAb", "l": [1, {"k": null}], "t": true})");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const obs::JsonValue& v = r.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("n")->number, -2500.0);
  EXPECT_EQ(v.find("s")->string, "aAb");
  ASSERT_TRUE(v.find("l")->is_array());
  EXPECT_EQ(v.find("l")->array.size(), 2u);
  EXPECT_EQ(v.find("l")->array[1].find("k")->type,
            obs::JsonValue::Type::kNull);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(obs::parse_json("{\"a\":1,}").is_ok());   // trailing comma
  EXPECT_FALSE(obs::parse_json("{'a':1}").is_ok());      // single quotes
  EXPECT_FALSE(obs::parse_json("[1 2]").is_ok());        // missing comma
  EXPECT_FALSE(obs::parse_json("{\"a\":1} x").is_ok());  // trailing junk
  EXPECT_FALSE(obs::parse_json("01").is_ok());           // leading zero
  EXPECT_FALSE(obs::parse_json("").is_ok());
}

// --- Histogram extensions --------------------------------------------------

TEST(HistogramDelta, EmptyAndSingleSample) {
  common::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  const auto s0 = obs::HistogramStats::of(h);
  EXPECT_EQ(s0.count, 0u);
  EXPECT_DOUBLE_EQ(s0.p999, 0.0);

  h.record(1000);
  const auto s1 = obs::HistogramStats::of(h);
  EXPECT_EQ(s1.count, 1u);
  EXPECT_EQ(s1.min, 1000u);
  EXPECT_EQ(s1.max, 1000u);
  // A single sample puts every percentile in its (power-of-two) bucket.
  EXPECT_GE(s1.p50, 512.0);
  EXPECT_LE(s1.p50, 1024.0);
  EXPECT_GE(s1.p999, s1.p50);
}

TEST(HistogramDelta, MinusIsTheWindow) {
  common::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10);
  const common::Histogram before = h;
  for (int i = 0; i < 50; ++i) h.record(100000);
  const common::Histogram win = h.minus(before);
  EXPECT_EQ(win.count(), 50u);
  // Only the large samples are in the window, so its p50 is near them.
  EXPECT_GT(win.percentile(50), 10000.0);
  // Subtracting an identical snapshot leaves an empty histogram.
  const common::Histogram zero = h.minus(h);
  EXPECT_EQ(zero.count(), 0u);
  EXPECT_EQ(zero.min(), 0u);
}

TEST(HistogramDelta, MergeThenStats) {
  common::Histogram a, b;
  for (int i = 0; i < 95; ++i) a.record(8);
  for (int i = 0; i < 5; ++i) b.record(1 << 20);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  const auto s = obs::HistogramStats::of(a);
  EXPECT_LT(s.p50, 100.0);
  EXPECT_GT(s.p99, 1e5);
  EXPECT_EQ(s.max, 1u << 20);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, RegistrySnapshotDelta) {
  obs::MetricsRegistry reg;
  u64 pulled = 10;
  double level = 0.25;
  reg.counter_fn("ssd.0.gc.erases", [&pulled] { return pulled; });
  reg.gauge_fn("src.utilization", [&level] { return level; });
  obs::Counter& c = reg.counter("src.flushes");
  common::Histogram& h = reg.histogram("src.seal_ns");
  c.inc(3);
  h.record(100);

  const obs::MetricsSnapshot s1 = reg.snapshot();
  EXPECT_EQ(s1.counters.at("ssd.0.gc.erases"), 10u);
  EXPECT_EQ(s1.counters.at("src.flushes"), 3u);
  EXPECT_DOUBLE_EQ(s1.gauges.at("src.utilization"), 0.25);
  EXPECT_EQ(s1.histograms.at("src.seal_ns").count(), 1u);

  pulled = 25;
  level = 0.5;
  c.inc();
  h.record(200);
  const obs::MetricsSnapshot d = reg.snapshot().delta_since(s1);
  EXPECT_EQ(d.counters.at("ssd.0.gc.erases"), 15u);  // 25 - 10
  EXPECT_EQ(d.counters.at("src.flushes"), 1u);
  EXPECT_DOUBLE_EQ(d.gauges.at("src.utilization"), 0.5);  // point-in-time
  EXPECT_EQ(d.histograms.at("src.seal_ns").count(), 1u);
}

TEST(Metrics, ScopesNest) {
  obs::MetricsRegistry reg;
  obs::Scope root(reg, "ssd.2");
  root.scope("gc").counter("erases").inc(7);
  EXPECT_EQ(reg.snapshot().counters.at("ssd.2.gc.erases"), 7u);
  // Same name resolves to the same counter.
  root.scope("gc").counter("erases").inc(1);
  EXPECT_EQ(reg.snapshot().counters.at("ssd.2.gc.erases"), 8u);
}

TEST(Metrics, SnapshotJsonParses) {
  obs::MetricsRegistry reg;
  reg.counter("a.b").inc(42);
  reg.gauge_fn("g", [] { return 1.5; });
  reg.histogram("h").record(1000);
  const auto r = obs::parse_json(reg.snapshot().to_json());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const obs::JsonValue& v = r.value();
  EXPECT_DOUBLE_EQ(v.find("counters")->find("a.b")->number, 42.0);
  EXPECT_DOUBLE_EQ(v.find("gauges")->find("g")->number, 1.5);
  const obs::JsonValue* h = v.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 1.0);
  EXPECT_NE(h->find("p99"), nullptr);
}

// --- LatencyRecorder -------------------------------------------------------

TEST(Latency, ClassifyAndMerge) {
  EXPECT_EQ(obs::classify(false, true), obs::ReqClass::kReadHit);
  EXPECT_EQ(obs::classify(false, false), obs::ReqClass::kReadMiss);
  EXPECT_EQ(obs::classify(true, true), obs::ReqClass::kWriteHit);
  EXPECT_EQ(obs::classify(true, false), obs::ReqClass::kWriteMiss);

  obs::LatencyRecorder rec;
  rec.record(obs::ReqClass::kReadHit, 1000);
  rec.record(obs::ReqClass::kReadMiss, 8000000);
  rec.record(obs::ReqClass::kWriteMiss, 2000);
  EXPECT_EQ(rec.reads().count(), 2u);
  EXPECT_EQ(rec.writes().count(), 1u);
  const auto s = obs::LatencySummary::of(rec.reads());
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.max, 8000000u);
  rec.reset();
  EXPECT_EQ(rec.reads().count(), 0u);
}

TEST(Latency, NegativeLatencyClampIsCounted) {
  obs::LatencyRecorder rec;
  rec.record(obs::ReqClass::kReadHit, 500);
  EXPECT_EQ(rec.clamped(), 0u);
  rec.record(obs::ReqClass::kReadHit, -1);
  rec.record(obs::ReqClass::kWriteMiss, -123456);
  // Clamped samples still land in the histograms (as 0) but are counted.
  EXPECT_EQ(rec.clamped(), 2u);
  EXPECT_EQ(rec.reads().count(), 2u);
  EXPECT_EQ(rec.writes().count(), 1u);
  EXPECT_EQ(rec.histogram(obs::ReqClass::kWriteMiss).max(), 0u);
  rec.reset();
  EXPECT_EQ(rec.clamped(), 0u);
}

// --- Trace API: SpanTracer events, caps and Chrome export ------------------

TEST(Trace, CapacityDropsNewestAndCounts) {
  obs::SpanTracer tr(/*seed=*/1, /*rate=*/1.0, /*cap=*/4);
  for (int i = 0; i < 10; ++i) tr.event("e", i * 100, static_cast<u64>(i));
  // Drop-newest: the retained prefix is intact and the overflow is counted
  // (surfaced as spans.dropped in REPRO_JSON), never silently overwritten.
  const obs::SpanOutcome o = tr.outcome();
  EXPECT_EQ(o.spans, 4u);
  EXPECT_EQ(o.span_dropped, 6u);
  EXPECT_EQ(o.by_name.at("e").count, 4u);
  EXPECT_EQ(o.by_name.at("e").total_ns, 0u);  // instants have no duration
  ASSERT_EQ(tr.records().size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(tr.records()[i].arg, static_cast<u64>(i));
}

TEST(Trace, NegativeDurationClamped) {
  obs::SpanTracer tr(1, 1.0);
  ASSERT_TRUE(tr.begin_op("op.write", 100));
  const u32 child = tr.begin_span("x", 500);
  tr.end_span(child, 400);  // ends before it starts
  tr.end_op(600, 1);
  EXPECT_EQ(tr.records()[1].end, tr.records()[1].start);
  EXPECT_EQ(tr.outcome().by_name.at("x").total_ns, 0u);
}

TEST(Trace, ChromeJsonSchema) {
  obs::SpanTracer tr(1, 1.0);
  tr.event("src.ssd_failure", 1000, 2);  // root-level: outside any op
  ASSERT_TRUE(tr.begin_op("op.read", 3000));
  const u32 fetch = tr.begin_span("backend.fetch", 3100);
  tr.event("src.refetch_repair", 3200, 9);
  tr.end_span(fetch, 4500, 8);
  tr.end_op(5000, 8);
  const auto r = obs::parse_json(tr.to_chrome_json());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const obs::JsonValue& v = r.value();
  ASSERT_TRUE(v.is_array());
  std::map<std::string, int> phases;
  std::map<double, int> flow_ids;  // +1 per 's', -1 per 'f'
  for (const auto& e : v.array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    EXPECT_TRUE(e.find("name")->is_string());
    ASSERT_NE(e.find("ph"), nullptr);
    const std::string& ph = e.find("ph")->string;
    ++phases[ph];
    ASSERT_NE(e.find("ts"), nullptr);
    EXPECT_TRUE(e.find("ts")->is_number());
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph == "X") {
      EXPECT_NE(e.find("dur"), nullptr);
    }
    if (ph == "i") {
      EXPECT_EQ(e.find("s")->string, "t");
    }
    if (ph == "s" || ph == "f")
      flow_ids[e.find("id")->number] += ph == "s" ? 1 : -1;
  }
  EXPECT_EQ(phases["X"], 2);  // root + fetch
  EXPECT_EQ(phases["i"], 2);  // both events
  EXPECT_EQ(phases["s"], 1);  // one parent->child arrow, events get none
  EXPECT_EQ(phases["f"], 1);
  for (const auto& [id, balance] : flow_ids) EXPECT_EQ(balance, 0) << id;
  // ts is microseconds: the root-level instant at 1000 ns comes first at
  // 1 us, on its own lane, with no trace id.
  const obs::JsonValue& first = v.array[0];
  EXPECT_EQ(first.find("name")->string, "src.ssd_failure");
  EXPECT_DOUBLE_EQ(first.find("ts")->number, 1.0);
  EXPECT_EQ(first.find("args")->find("trace"), nullptr);
  EXPECT_NE(first.find("tid")->number, v.array[1].find("tid")->number);
}

// --- TimeSeriesSampler ------------------------------------------------------

TEST(TimeSeries, IntervalAlignmentAtWindowEdges) {
  // Window starts off any boundary grid; the tail interval is partial.
  obs::TimeSeriesSampler s(nullptr, 100);
  ASSERT_TRUE(s.enabled());
  s.start(50);
  s.record(60, /*is_write=*/false, /*hit=*/true, 2, 10);
  s.record(149, false, false, 2, 30);
  s.record(250, true, false, 1, 40);  // crosses the 150 and 250 boundaries
  s.finish(305);
  const obs::TimeSeries ts = s.take();
  EXPECT_EQ(ts.interval, 100);
  EXPECT_EQ(ts.window_start, 50);
  EXPECT_FALSE(ts.truncated);
  ASSERT_EQ(ts.samples.size(), 3u);
  EXPECT_EQ(ts.samples[0].start, 50);
  EXPECT_EQ(ts.samples[0].end, 150);
  EXPECT_EQ(ts.samples[0].ops, 2u);
  EXPECT_EQ(ts.samples[0].bytes, 40u);
  EXPECT_DOUBLE_EQ(ts.samples[0].hit_ratio, 0.5);
  EXPECT_EQ(ts.samples[1].ops, 0u);  // [150,250) saw no completions
  EXPECT_DOUBLE_EQ(ts.samples[1].throughput_mbps, 0.0);
  EXPECT_EQ(ts.samples[2].start, 250);
  EXPECT_EQ(ts.samples[2].end, 305);  // partial tail keeps its true length
  EXPECT_EQ(ts.samples[2].ops, 1u);
  // Rates normalize by the actual (shorter) tail duration.
  EXPECT_DOUBLE_EQ(ts.samples[2].throughput_mbps,
                   40.0 / 1e6 / sim::to_seconds(55));
}

TEST(TimeSeries, FinishOnBoundaryProducesNoEmptyTail) {
  obs::TimeSeriesSampler s(nullptr, 100);
  s.start(0);
  s.record(10, false, true, 1, 4096);
  s.finish(200);
  const obs::TimeSeries ts = s.take();
  ASSERT_EQ(ts.samples.size(), 2u);
  EXPECT_EQ(ts.samples[1].start, 100);
  EXPECT_EQ(ts.samples[1].end, 200);
}

TEST(TimeSeries, ZeroRequestIntervalsAreEmitted) {
  obs::TimeSeriesSampler s(nullptr, 100);
  s.start(0);
  s.record(10, false, true, 1, 100);
  s.record(910, false, true, 1, 100);  // long idle gap
  s.finish(1000);
  const obs::TimeSeries ts = s.take();
  ASSERT_EQ(ts.samples.size(), 10u);
  for (size_t i = 1; i <= 8; ++i) {
    EXPECT_EQ(ts.samples[i].ops, 0u) << i;
    EXPECT_EQ(ts.samples[i].bytes, 0u) << i;
    EXPECT_DOUBLE_EQ(ts.samples[i].hit_ratio, 0.0) << i;
  }
  EXPECT_EQ(ts.samples[9].ops, 1u);
}

TEST(TimeSeries, DisabledAndTruncatedSamplers) {
  obs::TimeSeriesSampler off(nullptr, 0);
  EXPECT_FALSE(off.enabled());
  off.start(0);
  off.record(10, false, true, 1, 100);
  off.finish(1000);
  EXPECT_TRUE(off.take().empty());

  obs::TimeSeriesSampler capped(nullptr, 10, /*max_samples=*/3);
  capped.start(0);
  capped.record(5, false, true, 1, 100);
  capped.finish(1000);  // would need 100 samples
  const obs::TimeSeries ts = capped.take();
  EXPECT_TRUE(ts.truncated);
  EXPECT_EQ(ts.samples.size(), 3u);
}

TEST(TimeSeries, UtilizationFromBusyDeltasIsMonotoneNonNegative) {
  obs::MetricsRegistry reg;
  u64 busy = 0;
  reg.counter_fn("ssd.0.nand_busy_ns", [&busy] { return busy; });
  reg.gauge_fn("ssd.0.nand_units", [] { return 2.0; });
  double frac = 0.25;
  reg.gauge_fn("src.dirty_buffer_frac", [&frac] { return frac; });

  obs::TimeSeriesSampler s(&reg, 100);
  s.start(0);
  busy = 100;  // 100 ns of service charged across 2 units in [0,100)
  s.record(100, false, true, 1, 4096);  // closes [0,100)
  busy = 300;  // fully busy interval
  frac = 0.75;
  s.record(250, false, true, 1, 4096);  // closes [100,200)
  busy = 250;  // counter went "backwards" (reset): delta clamps to 0
  s.finish(300);
  const obs::TimeSeries ts = s.take();
  ASSERT_EQ(ts.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.samples[0].series.at("util.ssd.0.nand"), 0.5);
  EXPECT_DOUBLE_EQ(ts.samples[1].series.at("util.ssd.0.nand"), 1.0);
  EXPECT_DOUBLE_EQ(ts.samples[2].series.at("util.ssd.0.nand"), 0.0);
  for (const auto& sample : ts.samples)
    for (const auto& [name, v] : sample.series) {
      if (name.starts_with("util.")) { EXPECT_GE(v, 0.0) << name; }
    }
  // Gauges pass through point-in-time; *_units helper gauges do not.
  EXPECT_DOUBLE_EQ(ts.samples[0].series.at("src.dirty_buffer_frac"), 0.25);
  EXPECT_DOUBLE_EQ(ts.samples[1].series.at("src.dirty_buffer_frac"), 0.75);
  EXPECT_EQ(ts.samples[0].series.count("ssd.0.nand_units"), 0u);
}

// A units gauge that reads zero (component registered before sizing itself,
// or a resource with no active lanes) must not become a divisor: the sampler
// falls back to one unit, keeping utilization finite and exact.
TEST(TimeSeries, ZeroUnitsGaugeFallsBackToOneUnit) {
  obs::MetricsRegistry reg;
  u64 busy = 0;
  reg.counter_fn("ssd.0.nand_busy_ns", [&busy] { return busy; });
  double units = 0.0;
  reg.gauge_fn("ssd.0.nand_units", [&units] { return units; });

  obs::TimeSeriesSampler s(&reg, 100);
  s.start(0);
  busy = 50;
  s.record(100, false, true, 1, 4096);  // closes [0,100) with gauge at 0
  units = 2.0;  // gauge comes alive for the next interval
  busy = 250;
  s.finish(200);
  const obs::TimeSeries ts = s.take();
  ASSERT_EQ(ts.samples.size(), 2u);
  // Zero gauge: 50 ns busy over a 100 ns interval, one implied unit.
  EXPECT_DOUBLE_EQ(ts.samples[0].series.at("util.ssd.0.nand"), 0.5);
  // Positive gauge divides as usual: 200 ns over 100 ns x 2 units.
  EXPECT_DOUBLE_EQ(ts.samples[1].series.at("util.ssd.0.nand"), 1.0);
  // The helper gauge itself still never leaks through as a series.
  for (const auto& sample : ts.samples)
    EXPECT_EQ(sample.series.count("ssd.0.nand_units"), 0u);
}

TEST(TimeSeries, CsvEscaping) {
  obs::TimeSeries ts;
  ts.interval = 100;
  ts.window_start = 0;
  obs::TimeSample a;
  a.start = 0;
  a.end = 100;
  a.ops = 1;
  a.bytes = 4096;
  a.series["plain"] = 2.0;
  a.series["we,\"ird\nname"] = 1.5;
  ts.samples.push_back(a);
  const std::string csv = ts.to_csv();
  const size_t nl = csv.find('\n');
  ASSERT_NE(nl, std::string::npos);
  // The awkward series name is quoted with its inner quote doubled; the
  // plain one is untouched.
  EXPECT_NE(csv.find("\"we,\"\"ird\nname\""), std::string::npos);
  EXPECT_EQ(
      csv.substr(0, nl),
      "t_ms,dur_ms,ops,bytes,throughput_mbps,hit_ratio,io_amplification,"
      "plain,\"we,\"\"ird");  // header row continues past the embedded \n
  EXPECT_NE(csv.find(",2,1.5\n"), std::string::npos);  // data row tail
}

TEST(TimeSeries, JsonRoundTrip) {
  obs::MetricsRegistry reg;
  u64 busy = 0;
  reg.counter_fn("ssd.0.nand_busy_ns", [&busy] { return busy; });
  obs::TimeSeriesSampler s(&reg, 100);
  s.start(40);
  busy = 70;
  s.record(60, false, true, 8, 32768);
  s.record(170, true, false, 2, 8192);
  s.finish(240);
  const obs::TimeSeries ts = s.take();

  const auto parsed = obs::parse_json(ts.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto back = obs::TimeSeries::from_json(parsed.value());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const obs::TimeSeries& rt = back.value();
  EXPECT_EQ(rt.interval, ts.interval);
  EXPECT_EQ(rt.window_start, ts.window_start);
  EXPECT_EQ(rt.truncated, ts.truncated);
  ASSERT_EQ(rt.samples.size(), ts.samples.size());
  for (size_t i = 0; i < ts.samples.size(); ++i) {
    EXPECT_EQ(rt.samples[i].start, ts.samples[i].start) << i;
    EXPECT_EQ(rt.samples[i].end, ts.samples[i].end) << i;
    EXPECT_EQ(rt.samples[i].ops, ts.samples[i].ops) << i;
    EXPECT_EQ(rt.samples[i].bytes, ts.samples[i].bytes) << i;
    EXPECT_EQ(rt.samples[i].hits, ts.samples[i].hits) << i;
    EXPECT_EQ(rt.samples[i].misses, ts.samples[i].misses) << i;
    EXPECT_DOUBLE_EQ(rt.samples[i].throughput_mbps,
                     ts.samples[i].throughput_mbps)
        << i;
    EXPECT_EQ(rt.samples[i].series, ts.samples[i].series) << i;
  }
  // And the CSV regenerated from the round-tripped series is identical.
  EXPECT_EQ(rt.to_csv(), ts.to_csv());

  EXPECT_FALSE(obs::TimeSeries::from_json(obs::JsonValue{}).is_ok());
}

// --- End-to-end: instrumented SRC stack ------------------------------------

// Small SimSsd-backed SRC rig with registry + op-span tracer wired into
// every layer, mirroring the bench harness at test scale.
struct ObsRig {
  flash::SsdSpec spec;
  src::SrcConfig cfg;
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::unique_ptr<src::SrcCache> cache;
  obs::MetricsRegistry registry;
  obs::SpanTracer spans{/*seed=*/11, /*rate=*/0.05};

  ObsRig() {
    spec.capacity_bytes = 8 * MiB;
    spec.units = 4;
    spec.pages_per_block = 64;  // erase group = 1 MiB

    cfg.num_ssds = 4;
    cfg.chunk_bytes = 32 * KiB;
    cfg.erase_group_bytes = 256 * KiB;
    cfg.region_bytes_per_ssd = 4 * MiB;
    cfg.verify_checksums = false;
    cfg.twait = 1 * sim::kSec;

    std::vector<blockdev::BlockDevice*> devs;
    for (u32 i = 0; i < cfg.num_ssds; ++i) {
      ssds.push_back(
          std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
      ssds.back()->precondition();
      ssds.back()->register_metrics(
          obs::Scope(registry, "ssd." + std::to_string(i)));
      ssds.back()->set_span(&spans, i);
      devs.push_back(ssds.back().get());
    }
    hdd::IscsiConfig pc;
    pc.disk.capacity_bytes = 1 * GiB;
    pc.server_cache_bytes = 16 * MiB;
    pc.dirty_limit_bytes = 4 * MiB;
    primary = std::make_unique<hdd::IscsiTarget>(pc);
    primary->register_metrics(obs::Scope(registry, "hdd"));
    primary->set_span(&spans);
    cache = std::make_unique<src::SrcCache>(cfg, devs, primary.get());
    cache->register_metrics(obs::Scope(registry, "src"));
    cache->set_span(&spans);
    cache->format(0);
  }

  workload::RunResult run() {
    workload::FioGen::Config fc;
    fc.span_blocks = 2 * cfg.num_ssds * cfg.region_bytes_per_ssd / kBlockSize;
    fc.req_blocks = 8;
    fc.read_pct = 50;
    fc.seed = 7;
    workload::FioGen gen(fc);
    workload::RunConfig rc;
    rc.threads_per_gen = 2;
    rc.iodepth = 2;
    rc.duration = 2 * sim::kSec;
    rc.warmup_bytes = 8 * MiB;
    rc.registry = &registry;
    rc.spans = &spans;
    rc.timeseries_interval = 100 * sim::kMs;  // 20 intervals per run
    const std::vector<blockdev::BlockDevice*> devs = {
        ssds[0].get(), ssds[1].get(), ssds[2].get(), ssds[3].get()};
    return engine::run_one({cache.get(), devs, {&gen}, rc});
  }
};

TEST(ObsEndToEnd, RunnerFillsLatencyAndMetrics) {
  ObsRig rig;
  const workload::RunResult res = rig.run();
  ASSERT_GT(res.ops, 100u);
  EXPECT_EQ(res.read_lat.count + res.write_lat.count, res.ops);
  EXPECT_GT(res.read_lat.p50, 0.0);
  EXPECT_GE(res.read_lat.p99, res.read_lat.p50);
  EXPECT_GE(res.read_lat.p999, res.read_lat.p99);
  EXPECT_GT(res.write_lat.p50, 0.0);
  // The four classes partition the merged histograms.
  u64 class_total = 0;
  for (const auto& c : res.class_lat) class_total += c.count;
  EXPECT_EQ(class_total, res.ops);

  // Registry delta covers all three layers.
  EXPECT_GT(res.metrics.counters.at("src.segments_written"), 0u);
  EXPECT_GT(res.metrics.counters.at("ssd.0.write_blocks"), 0u);
  ASSERT_TRUE(res.metrics.counters.count("ssd.3.gc.erases"));
  ASSERT_TRUE(res.metrics.counters.count("ssd.0.flushes"));
  ASSERT_TRUE(res.metrics.counters.count("ssd.0.controller_busy_ns"));
  ASSERT_TRUE(res.metrics.counters.count("ssd.0.nand.die.3.busy_ns"));
  ASSERT_TRUE(res.metrics.counters.count("hdd.read_ops"));
  ASSERT_TRUE(res.metrics.counters.count("hdd.disk.0.arm_busy_ns"));
  EXPECT_TRUE(res.metrics.gauges.count("src.utilization"));
  EXPECT_TRUE(res.metrics.gauges.count("src.dirty_buffer_frac"));
  // A clean run clamps no latencies, and says so.
  EXPECT_EQ(res.latency_clamped, 0u);
  EXPECT_EQ(res.metrics.counters.at("obs.latency.clamped"), 0u);

  // The sampled window partitions the run: per-interval ops/bytes sum back
  // to the totals, intervals tile [start, start+duration), and per-resource
  // utilization is present and non-negative throughout.
  const obs::TimeSeries& ts = res.timeseries;
  ASSERT_FALSE(ts.empty());
  EXPECT_FALSE(ts.truncated);
  EXPECT_EQ(ts.samples.size(), 20u);
  u64 ts_ops = 0, ts_bytes = 0;
  sim::SimTime expect_start = ts.window_start;
  for (const auto& sample : ts.samples) {
    EXPECT_EQ(sample.start, expect_start);
    expect_start = sample.end;
    ts_ops += sample.ops;
    ts_bytes += sample.bytes;
    ASSERT_TRUE(sample.series.count("util.ssd.0.nand"));
    ASSERT_TRUE(sample.series.count("util.ssd.0.controller"));
    ASSERT_TRUE(sample.series.count("util.hdd.link"));
    ASSERT_TRUE(sample.series.count("util.hdd.disk.0.arm"));
    ASSERT_TRUE(sample.series.count("gc.erases"));
    for (const auto& [name, v] : sample.series) {
      if (name.starts_with("util.")) { EXPECT_GE(v, 0.0) << name; }
    }
  }
  EXPECT_EQ(ts_ops, res.ops);
  EXPECT_EQ(ts_bytes, res.bytes);
  // The run pushes real traffic, so NAND utilization shows up somewhere.
  double max_nand = 0.0;
  for (const auto& sample : ts.samples)
    max_nand = std::max(max_nand, sample.series.at("util.ssd.0.nand"));
  EXPECT_GT(max_nand, 0.0);

  // The span trees saw application requests and every layer beneath.
  std::set<std::string> names;
  for (const auto& e : rig.spans.records()) names.insert(e.name);
  EXPECT_TRUE(names.count("op.read"));
  EXPECT_TRUE(names.count("op.write"));
  EXPECT_TRUE(names.count("src.segment_fill"));
  EXPECT_TRUE(names.count("ssd.write"));
  EXPECT_TRUE(names.count("hdd.read_disk") || names.count("hdd.read_ram"));
  EXPECT_EQ(res.spans.span_dropped, 0u);
}

TEST(ObsEndToEnd, ReportJsonRoundTrip) {
  ObsRig rig;
  const workload::RunResult res = rig.run();

  workload::ReproReport report(/*scale=*/0.01, /*virtual_seconds=*/2.0);
  report.add("obs_test", "fio_mixed", res);
  const auto parsed = obs::parse_json(report.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.find("schema")->string, "srcache-repro-v7");
  ASSERT_TRUE(doc.find("runs")->is_array());
  ASSERT_EQ(doc.find("runs")->array.size(), 1u);

  const obs::JsonValue& run = doc.find("runs")->array[0];
  EXPECT_EQ(run.find("bench")->string, "obs_test");
  EXPECT_EQ(run.find("name")->string, "fio_mixed");
  EXPECT_DOUBLE_EQ(run.find("throughput_mbps")->number, res.throughput_mbps);
  EXPECT_DOUBLE_EQ(run.find("io_amplification")->number,
                   res.io_amplification);
  EXPECT_DOUBLE_EQ(run.find("hit_ratio")->number, res.hit_ratio);

  const obs::JsonValue* lat = run.find("latency_ns");
  ASSERT_NE(lat, nullptr);
  for (const char* dir : {"read", "write"}) {
    const obs::JsonValue* d = lat->find(dir);
    ASSERT_NE(d, nullptr) << dir;
    for (const char* p : {"p50", "p95", "p99", "p999"}) {
      ASSERT_NE(d->find(p), nullptr) << dir << "." << p;
      EXPECT_TRUE(d->find(p)->is_number());
    }
  }
  EXPECT_DOUBLE_EQ(lat->find("read")->find("p99")->number, res.read_lat.p99);

  // v2 additions: the clamp counter sits inside latency_ns...
  const obs::JsonValue* clamped = lat->find("clamped");
  ASSERT_NE(clamped, nullptr);
  EXPECT_TRUE(clamped->is_number());
  EXPECT_DOUBLE_EQ(clamped->number, 0.0);

  // ...and the embedded timeseries object round-trips losslessly.
  const obs::JsonValue* ts = run.find("timeseries");
  ASSERT_NE(ts, nullptr);
  ASSERT_TRUE(ts->is_object());
  ASSERT_NE(ts->find("samples"), nullptr);
  EXPECT_EQ(ts->find("samples")->array.size(), res.timeseries.samples.size());
  const auto decoded = obs::TimeSeries::from_json(*ts);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().interval, res.timeseries.interval);
  EXPECT_EQ(decoded.value().window_start, res.timeseries.window_start);
  ASSERT_FALSE(decoded.value().samples.empty());
  const obs::TimeSample& got = decoded.value().samples.front();
  const obs::TimeSample& want = res.timeseries.samples.front();
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_TRUE(got.series.count("util.ssd.0.nand"));
  EXPECT_DOUBLE_EQ(got.series.at("util.ssd.0.nand"),
                   want.series.at("util.ssd.0.nand"));

  // Per-SSD GC / erase / flush counters from the registry delta.
  const obs::JsonValue* counters = run.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  for (int i = 0; i < 4; ++i) {
    const std::string pre = "ssd." + std::to_string(i) + ".";
    ASSERT_NE(counters->find(pre + "gc.erases"), nullptr);
    ASSERT_NE(counters->find(pre + "gc.pages_copied"), nullptr);
    ASSERT_NE(counters->find(pre + "flushes"), nullptr);
  }
}

TEST(ObsEndToEnd, ReportJsonTenantsBlockRoundTrips) {
  // Schema v3 is a strict superset of v2: the tenants/adapt blocks appear
  // exactly when the run was multi-tenant, and round-trip through the JSON
  // parser field for field.
  ObsRig rig;
  workload::RunResult res = rig.run();
  ASSERT_TRUE(res.tenants.empty());  // single-tenant run: no block emitted
  {
    const auto parsed = obs::parse_json(
        workload::run_json("obs_test", "single", res));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().find("tenants"), nullptr);
    EXPECT_EQ(parsed.value().find("adapt"), nullptr);
  }

  res.tenants.resize(2);
  res.tenants[0] = {/*ops=*/120, /*bytes=*/491520, /*hit_blocks=*/300,
                    /*miss_blocks=*/100, /*target_blocks=*/2052};
  res.tenants[1] = {/*ops=*/40, /*bytes=*/163840, /*hit_blocks=*/10,
                    /*miss_blocks=*/190, /*target_blocks=*/108};
  res.adapt_epochs = 9;
  res.adapt_rebalances = 2;
  const auto parsed = obs::parse_json(
      workload::run_json("obs_test", "two_tenant", res));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const obs::JsonValue& run = parsed.value();

  const obs::JsonValue* tenants = run.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_TRUE(tenants->is_array());
  ASSERT_EQ(tenants->array.size(), 2u);
  for (size_t t = 0; t < 2; ++t) {
    const obs::JsonValue& tn = tenants->array[t];
    const workload::TenantOutcome& want = res.tenants[t];
    EXPECT_DOUBLE_EQ(tn.find("tenant")->number, static_cast<double>(t));
    EXPECT_DOUBLE_EQ(tn.find("ops")->number, static_cast<double>(want.ops));
    EXPECT_DOUBLE_EQ(tn.find("bytes")->number,
                     static_cast<double>(want.bytes));
    EXPECT_DOUBLE_EQ(tn.find("hit_blocks")->number,
                     static_cast<double>(want.hit_blocks));
    EXPECT_DOUBLE_EQ(tn.find("miss_blocks")->number,
                     static_cast<double>(want.miss_blocks));
    EXPECT_DOUBLE_EQ(tn.find("hit_ratio")->number, want.hit_ratio());
    EXPECT_DOUBLE_EQ(tn.find("target_blocks")->number,
                     static_cast<double>(want.target_blocks));
  }
  const obs::JsonValue* adapt = run.find("adapt");
  ASSERT_NE(adapt, nullptr);
  EXPECT_DOUBLE_EQ(adapt->find("epochs")->number, 9.0);
  EXPECT_DOUBLE_EQ(adapt->find("rebalances")->number, 2.0);
}

// --- SpanTracer ------------------------------------------------------------

TEST(Span, TreeStructureAndAmbientStack) {
  obs::SpanTracer tr(/*seed=*/1, /*rate=*/1.0);
  ASSERT_TRUE(tr.begin_op("op.write", 100));
  ASSERT_TRUE(tr.sampling());
  const u32 fill = tr.begin_span("src.segment_fill", 110);
  ASSERT_NE(fill, obs::kNoSpan);
  const u32 ssd = tr.begin_span("ssd.write", 120, /*dev=*/2);
  ASSERT_NE(ssd, obs::kNoSpan);
  tr.end_span(ssd, 150, 8);
  tr.end_span(fill, 160, 4);
  tr.end_op(200, 16);
  EXPECT_FALSE(tr.sampling());

  const auto& recs = tr.records();
  ASSERT_EQ(recs.size(), 3u);
  // Root: no parent, depth 0, gets the op arg and the op end time.
  EXPECT_EQ(recs[0].parent, obs::kNoSpan);
  EXPECT_EQ(recs[0].depth, 0u);
  EXPECT_EQ(recs[0].end, 200);
  EXPECT_EQ(recs[0].arg, 16u);
  // Children chain under the root with the root's trace id.
  EXPECT_EQ(recs[1].parent, 0u);
  EXPECT_EQ(recs[1].depth, 1u);
  EXPECT_EQ(recs[2].parent, 1u);
  EXPECT_EQ(recs[2].depth, 2u);
  EXPECT_EQ(recs[2].dev, 2u);
  EXPECT_EQ(recs[1].trace_id, recs[0].trace_id);
  EXPECT_EQ(recs[2].trace_id, recs[0].trace_id);
}

TEST(Span, EndOpClosesForgottenChildren) {
  obs::SpanTracer tr(1, 1.0);
  ASSERT_TRUE(tr.begin_op("op.read", 0));
  const u32 child = tr.begin_span("backend.fetch", 10);
  ASSERT_NE(child, obs::kNoSpan);
  tr.end_op(500, 1);  // child never ended explicitly
  ASSERT_EQ(tr.records().size(), 2u);
  EXPECT_EQ(tr.records()[1].end, 500);  // inherits the op completion time
  EXPECT_FALSE(tr.sampling());
}

TEST(Span, UnsampledOpRecordsNothingButDraws) {
  obs::SpanTracer tr(1, 0.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(tr.begin_op("op.read", i));
    EXPECT_FALSE(tr.sampling());
    EXPECT_EQ(tr.begin_span("ssd.read", i), obs::kNoSpan);
    tr.end_op(i + 1, 1);
  }
  const obs::SpanOutcome o = tr.outcome();
  EXPECT_EQ(o.ops_seen, 10u);
  EXPECT_EQ(o.ops_sampled, 0u);
  EXPECT_EQ(o.spans, 0u);
}

TEST(Span, SamplingDrawIsDeterministicPerSeed) {
  obs::SpanTracer a(42, 0.5);
  obs::SpanTracer b(42, 0.5);
  u32 picked_a = 0, picked_b = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.begin_op("op", i)) ++picked_a;
    a.end_op(i + 1, 1);
    if (b.begin_op("op", i)) ++picked_b;
    b.end_op(i + 1, 1);
  }
  EXPECT_EQ(picked_a, picked_b);
  EXPECT_GT(picked_a, 0u);
  EXPECT_LT(picked_a, 200u);
}

TEST(Span, CapacityCapDropsAndCounts) {
  obs::SpanTracer tr(1, 1.0, /*cap=*/2);
  ASSERT_TRUE(tr.begin_op("op.write", 0));
  EXPECT_NE(tr.begin_span("a", 1), obs::kNoSpan);
  EXPECT_EQ(tr.begin_span("b", 2), obs::kNoSpan);  // over cap
  tr.end_op(10, 1);
  EXPECT_FALSE(tr.begin_op("op.write", 20));  // root itself over cap
  const obs::SpanOutcome o = tr.outcome();
  EXPECT_EQ(o.spans, 2u);
  EXPECT_EQ(o.span_dropped, 2u);
}

TEST(Span, OutcomeMergeAddIsExact) {
  obs::SpanTracer a(1, 1.0);
  ASSERT_TRUE(a.begin_op("op.read", 0));
  a.end_op(100, 1);
  obs::SpanTracer b(2, 1.0);
  ASSERT_TRUE(b.begin_op("op.read", 0));
  b.end_op(50, 1);
  ASSERT_TRUE(b.begin_op("op.write", 60));
  b.end_op(70, 1);

  obs::SpanOutcome m = a.outcome();
  m.merge_add(b.outcome());
  EXPECT_TRUE(m.active);
  EXPECT_EQ(m.ops_seen, 3u);
  EXPECT_EQ(m.ops_sampled, 3u);
  EXPECT_EQ(m.spans, 3u);
  EXPECT_EQ(m.by_name.at("op.read").count, 2u);
  EXPECT_EQ(m.by_name.at("op.read").total_ns, 150u);
  EXPECT_EQ(m.by_name.at("op.write").count, 1u);
  EXPECT_EQ(m.by_name.at("op.write").total_ns, 10u);
}

TEST(Span, EventAttachesToInnermostOpenSpan) {
  obs::SpanTracer tr(1, 1.0);
  ASSERT_TRUE(tr.begin_op("op.read", 0));
  const u32 fetch = tr.begin_span("backend.fetch", 10);
  const u32 hdd = tr.begin_span("hdd.read_disk", 20);
  tr.end_span(hdd, 40, 1);
  tr.event("src.refetch_repair", 50, 77);  // hdd closed: fetch is innermost
  tr.end_span(fetch, 60, 1);
  tr.event("src.parity_repair", 70, 78);  // only the root is open
  tr.end_op(100, 1);

  const auto& recs = tr.records();
  ASSERT_EQ(recs.size(), 5u);
  const obs::SpanRecord& refetch = recs[3];
  EXPECT_TRUE(refetch.instant);
  EXPECT_EQ(refetch.parent, fetch);
  EXPECT_EQ(refetch.depth, recs[fetch].depth + 1);
  EXPECT_EQ(refetch.trace_id, recs[0].trace_id);
  EXPECT_EQ(refetch.start, 50);
  EXPECT_EQ(refetch.end, 50);
  EXPECT_EQ(refetch.arg, 77u);
  EXPECT_EQ(recs[4].parent, 0u);
  EXPECT_EQ(recs[4].depth, 1u);
  // end_op closes spans, never events: their end stays at their timestamp.
  EXPECT_EQ(recs[4].end, 70);
  EXPECT_FALSE(tr.sampling());
}

TEST(Span, EventOutsideOpIsRecordedAtRoot) {
  obs::SpanTracer tr(1, 0.0);  // nothing is ever sampled
  tr.event("src.ssd_failure", 500, 2);
  EXPECT_FALSE(tr.begin_op("op.write", 600));
  tr.event("src.media_error", 650, 9);  // inside an unsampled op
  tr.end_op(700, 1);
  const auto& recs = tr.records();
  ASSERT_EQ(recs.size(), 2u);
  for (const obs::SpanRecord& r : recs) {
    EXPECT_TRUE(r.instant);
    EXPECT_EQ(r.parent, obs::kNoSpan);
    EXPECT_EQ(r.depth, 0u);
    EXPECT_EQ(r.trace_id, obs::kNoSpan);
  }
  const obs::SpanOutcome o = tr.outcome();
  EXPECT_EQ(o.spans, 2u);
  EXPECT_EQ(o.ops_sampled, 0u);
  EXPECT_EQ(o.by_name.at("src.ssd_failure").count, 1u);
}

TEST(Span, EventsNeverConsumeASamplingDraw) {
  // Two tracers on one seed see the same op stream; one also records an
  // event before every op. The sampled set must not move.
  obs::SpanTracer plain(42, 0.3);
  obs::SpanTracer noisy(42, 0.3);
  std::vector<int> picked_plain, picked_noisy;
  for (int i = 0; i < 300; ++i) {
    noisy.event("src.checksum_error", i * 10, static_cast<u64>(i));
    if (plain.begin_op("op.read", i * 10)) picked_plain.push_back(i);
    plain.end_op(i * 10 + 5, 1);
    if (noisy.begin_op("op.read", i * 10)) {
      picked_noisy.push_back(i);
      noisy.event("src.parity_repair", i * 10 + 1, 0);
    }
    noisy.end_op(i * 10 + 5, 1);
  }
  EXPECT_FALSE(picked_plain.empty());
  EXPECT_EQ(picked_plain, picked_noisy);
  EXPECT_EQ(plain.outcome().ops_sampled, noisy.outcome().ops_sampled);
  EXPECT_EQ(plain.outcome().ops_seen, noisy.outcome().ops_seen);
}

TEST(Span, CombinedChromeJsonParsesWithFlows) {
  // Spans and events share one tracer and one Chrome document.
  obs::SpanTracer tr(1, 1.0);
  tr.event("src.ssd_failure", 5, 1);
  ASSERT_TRUE(tr.begin_op("op.write", 0));
  const u32 child = tr.begin_span("ssd.write", 10, 1);
  tr.end_span(child, 90, 8);
  tr.end_op(100, 8);

  const auto r = obs::parse_json(tr.to_chrome_json());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const obs::JsonValue& v = r.value();
  ASSERT_TRUE(v.is_array());
  int slices = 0, flow_starts = 0, flow_ends = 0, instants = 0;
  for (const auto& e : v.array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "X") ++slices;
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_ends;
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(slices, 2);      // root + child
  EXPECT_EQ(flow_starts, 1);  // one parent->child arrow
  EXPECT_EQ(flow_ends, 1);
}

// --- SloWatchdog -----------------------------------------------------------

TEST(Slo, PolicyAnyAndThroughputBurn) {
  obs::SloPolicy off;
  EXPECT_FALSE(off.any());

  obs::SloPolicy p;
  p.min_throughput_mbps = 100.0;  // 100 MB/s floor
  p.error_budget = 0.5;
  ASSERT_TRUE(p.any());
  obs::SloWatchdog dog(p);
  common::Histogram none;
  // Epoch 0: 200 MB in 1 s = 200 MB/s -> ok. Epoch 1: +10 MB -> violation.
  dog.observe_epoch(sim::kSec, 100, 200'000'000, none, none, 0);
  dog.observe_epoch(2 * sim::kSec, 150, 210'000'000, none, none, 0);
  const obs::SloOutcome o = dog.outcome();
  EXPECT_TRUE(o.active);
  EXPECT_EQ(o.epochs, 2u);
  EXPECT_EQ(o.violations, 1u);
  ASSERT_EQ(o.verdicts.size(), 2u);
  EXPECT_TRUE(o.verdicts[0].ok);
  EXPECT_DOUBLE_EQ(o.verdicts[0].throughput_mbps, 200.0);
  EXPECT_FALSE(o.verdicts[1].ok);
  EXPECT_EQ(o.verdicts[1].violated, "throughput");
  EXPECT_EQ(o.verdicts[1].ops, 50u);  // cumulative input, delta verdict
  // burn = (1/2) / 0.5 = 1.0 -> not breached (budget exactly consumed).
  EXPECT_DOUBLE_EQ(o.burn_rate, 1.0);
  EXPECT_FALSE(o.breached);
}

TEST(Slo, LatencyP99IsWindowExact) {
  obs::SloPolicy p;
  p.max_read_p99_ms = 1.0;
  obs::SloWatchdog dog(p);
  common::Histogram reads, writes;
  // Epoch 0: all fast reads (~0.5 ms).
  for (int i = 0; i < 100; ++i) reads.record(500 * 1000);
  dog.observe_epoch(sim::kSec, 100, MiB, reads, writes, 0);
  // Epoch 1: the *new* samples are slow (~8 ms); a cumulative p99 would
  // still pass, the bucket-exact window delta must flag it.
  for (int i = 0; i < 100; ++i) reads.record(8 * 1000 * 1000);
  dog.observe_epoch(2 * sim::kSec, 200, 2 * MiB, reads, writes, 0);
  const obs::SloOutcome o = dog.outcome();
  ASSERT_EQ(o.verdicts.size(), 2u);
  EXPECT_TRUE(o.verdicts[0].ok);
  EXPECT_FALSE(o.verdicts[1].ok);
  EXPECT_EQ(o.verdicts[1].violated, "read_p99");
  EXPECT_GT(o.verdicts[1].read_p99_ms, 1.0);
}

TEST(Slo, DegradedDomainsAndBreach) {
  obs::SloPolicy p;
  p.max_degraded_domains = 0;
  p.error_budget = 0.1;
  obs::SloWatchdog dog(p);
  common::Histogram none;
  dog.observe_epoch(sim::kSec, 10, MiB, none, none, 0);
  dog.observe_epoch(2 * sim::kSec, 20, 2 * MiB, none, none, 1);
  dog.observe_epoch(3 * sim::kSec, 30, 3 * MiB, none, none, 2);
  const obs::SloOutcome o = dog.outcome();
  EXPECT_EQ(o.epochs, 3u);
  EXPECT_EQ(o.violations, 2u);
  EXPECT_EQ(o.degraded_epochs, 2u);
  EXPECT_EQ(o.verdicts[1].violated, "degraded");
  // burn = (2/3)/0.1 >> 1.
  EXPECT_TRUE(o.breached);
}

TEST(ObsEndToEnd, ChromeExportOfRealRunParses) {
  ObsRig rig;
  (void)rig.run();
  const auto& recs = rig.spans.records();
  ASSERT_GT(recs.size(), 0u);
  const auto r = obs::parse_json(rig.spans.to_chrome_json());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const obs::JsonValue& v = r.value();
  ASSERT_TRUE(v.is_array());
  // One slice or instant per record, plus one flow pair per child span.
  size_t children = 0;
  for (const obs::SpanRecord& rec : recs)
    if (rec.parent != obs::kNoSpan && !rec.instant) ++children;
  EXPECT_EQ(v.array.size(), recs.size() + 2 * children);
  size_t slices = 0;
  for (const auto& e : v.array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ts"), nullptr);
    EXPECT_GE(e.find("ts")->number, 0.0);
    const std::string& ph = e.find("ph")->string;
    if (ph == "X" || ph == "i") ++slices;
  }
  EXPECT_EQ(slices, recs.size());
}

}  // namespace
}  // namespace srcache
