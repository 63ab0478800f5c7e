#include "obs/timeseries.hpp"

#include <algorithm>
#include <set>

#include "obs/json.hpp"

namespace srcache::obs {

namespace {

constexpr std::string_view kBusySuffix = "busy_ns";

// "ssd.0.nand_busy_ns" -> "ssd.0.nand"; empty when `name` is not a busy-time
// counter.
std::string busy_resource(const std::string& name) {
  if (name.size() <= kBusySuffix.size() || !name.ends_with(kBusySuffix))
    return {};
  std::string res = name.substr(0, name.size() - kBusySuffix.size());
  if (res.back() == '.' || res.back() == '_') res.pop_back();
  return res;
}

bool is_units_gauge(const std::string& name) {
  return name.ends_with("_units") || name.ends_with(".units");
}

u64 counter_delta(const std::map<std::string, u64>& cur,
                  const std::map<std::string, u64>& prev,
                  const std::string& name) {
  const auto it = cur.find(name);
  if (it == cur.end()) return 0;
  const auto pit = prev.find(name);
  const u64 before = pit == prev.end() ? 0 : pit->second;
  return it->second >= before ? it->second - before : 0;
}

// CSV field per RFC 4180: quote when the value contains , " or a newline.
void csv_field(std::string& out, std::string_view s) {
  if (s.find_first_of(",\"\r\n") == std::string_view::npos) {
    out.append(s);
    return;
  }
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void csv_num(std::string& out, double v) {
  JsonWriter w;  // reuse the JSON double formatter (round-trip precision)
  w.value(v);
  out.append(w.str());
}

double num_field(const JsonValue& obj, std::string_view key, bool* ok) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    *ok = false;
    return 0.0;
  }
  return v->number;
}

}  // namespace

// --- TimeSeries -------------------------------------------------------------

std::vector<std::string> TimeSeries::series_names() const {
  std::set<std::string> names;
  for (const TimeSample& s : samples)
    for (const auto& [name, v] : s.series) names.insert(name);
  return {names.begin(), names.end()};
}

std::string TimeSeries::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("interval_ns", static_cast<i64>(interval));
  w.kv("window_start_ns", static_cast<i64>(window_start));
  w.kv("truncated", truncated);
  w.key("samples").begin_array();
  for (const TimeSample& s : samples) {
    w.begin_object();
    w.kv("t_ns", static_cast<i64>(s.start));
    w.kv("dur_ns", static_cast<i64>(s.duration()));
    w.kv("ops", s.ops);
    w.kv("bytes", s.bytes);
    w.kv("app_blocks", s.app_blocks);
    w.kv("hits", s.hits);
    w.kv("misses", s.misses);
    w.kv("throughput_mbps", s.throughput_mbps);
    w.kv("hit_ratio", s.hit_ratio);
    w.kv("io_amplification", s.io_amplification);
    w.key("series").begin_object();
    for (const auto& [name, v] : s.series) w.kv(name, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string TimeSeries::to_csv() const {
  const std::vector<std::string> names = series_names();
  std::string out;
  out += "t_ms,dur_ms,ops,bytes,throughput_mbps,hit_ratio,io_amplification";
  for (const std::string& n : names) {
    out.push_back(',');
    csv_field(out, n);
  }
  out.push_back('\n');
  for (const TimeSample& s : samples) {
    csv_num(out, static_cast<double>(s.start - window_start) / 1e6);
    out.push_back(',');
    csv_num(out, static_cast<double>(s.duration()) / 1e6);
    out.push_back(',');
    out += std::to_string(s.ops);
    out.push_back(',');
    out += std::to_string(s.bytes);
    out.push_back(',');
    csv_num(out, s.throughput_mbps);
    out.push_back(',');
    csv_num(out, s.hit_ratio);
    out.push_back(',');
    csv_num(out, s.io_amplification);
    for (const std::string& n : names) {
      out.push_back(',');
      const auto it = s.series.find(n);
      if (it != s.series.end()) csv_num(out, it->second);
      // absent: empty field, distinguishable from 0
    }
    out.push_back('\n');
  }
  return out;
}

Result<TimeSeries> TimeSeries::from_json(const JsonValue& v) {
  if (!v.is_object())
    return Status(ErrorCode::kInvalidArgument, "timeseries: not an object");
  TimeSeries ts;
  bool ok = true;
  ts.interval = static_cast<sim::SimTime>(num_field(v, "interval_ns", &ok));
  ts.window_start =
      static_cast<sim::SimTime>(num_field(v, "window_start_ns", &ok));
  if (const JsonValue* t = v.find("truncated");
      t != nullptr && t->type == JsonValue::Type::kBool)
    ts.truncated = t->boolean;
  const JsonValue* samples = v.find("samples");
  if (!ok || samples == nullptr || !samples->is_array())
    return Status(ErrorCode::kInvalidArgument, "timeseries: bad header");
  for (const JsonValue& sv : samples->array) {
    if (!sv.is_object())
      return Status(ErrorCode::kInvalidArgument, "timeseries: bad sample");
    TimeSample s;
    s.start = static_cast<sim::SimTime>(num_field(sv, "t_ns", &ok));
    s.end = s.start + static_cast<sim::SimTime>(num_field(sv, "dur_ns", &ok));
    s.ops = static_cast<u64>(num_field(sv, "ops", &ok));
    s.bytes = static_cast<u64>(num_field(sv, "bytes", &ok));
    s.app_blocks = static_cast<u64>(num_field(sv, "app_blocks", &ok));
    s.hits = static_cast<u64>(num_field(sv, "hits", &ok));
    s.misses = static_cast<u64>(num_field(sv, "misses", &ok));
    s.throughput_mbps = num_field(sv, "throughput_mbps", &ok);
    s.hit_ratio = num_field(sv, "hit_ratio", &ok);
    s.io_amplification = num_field(sv, "io_amplification", &ok);
    if (!ok)
      return Status(ErrorCode::kInvalidArgument, "timeseries: bad sample");
    if (const JsonValue* series = sv.find("series");
        series != nullptr && series->is_object()) {
      for (const auto& [name, val] : series->object)
        if (val.is_number()) s.series[name] = val.number;
    }
    ts.samples.push_back(std::move(s));
  }
  return ts;
}

// --- TimeSeriesSampler ------------------------------------------------------

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry* registry,
                                     sim::SimTime interval,
                                     size_t max_samples)
    : registry_(registry),
      interval_(interval > 0 ? interval : 0),
      max_samples_(max_samples) {
  out_.interval = interval_;
}

void TimeSeriesSampler::start(sim::SimTime t0) {
  if (!enabled()) return;
  started_ = true;
  cur_start_ = t0;
  out_.window_start = t0;
  acc_ = TimeSample{};
  if (registry_ != nullptr) prev_ = registry_->snapshot();
}

void TimeSeriesSampler::record(sim::SimTime now, bool is_write, bool hit,
                               u32 nblocks, u64 bytes) {
  (void)is_write;
  if (!enabled() || !started_ || out_.truncated) return;
  while (now >= cur_start_ + interval_) {
    close_interval(cur_start_ + interval_);
    if (out_.truncated) return;
  }
  acc_.ops++;
  acc_.bytes += bytes;
  acc_.app_blocks += nblocks;
  if (hit)
    acc_.hits++;
  else
    acc_.misses++;
}

void TimeSeriesSampler::finish(sim::SimTime t_end) {
  if (!enabled() || !started_) return;
  while (!out_.truncated && t_end >= cur_start_ + interval_)
    close_interval(cur_start_ + interval_);
  if (!out_.truncated && t_end > cur_start_) close_interval(t_end);
  started_ = false;
}

void TimeSample::derive(double ssd_blocks) {
  const double secs = sim::to_seconds(duration());
  throughput_mbps = secs > 0.0 ? static_cast<double>(bytes) / 1e6 / secs : 0.0;
  const u64 classified = hits + misses;
  hit_ratio = classified == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(classified);
  io_amplification = app_blocks == 0
                         ? 0.0
                         : ssd_blocks / static_cast<double>(app_blocks);
}

void TimeSeriesSampler::close_interval(sim::SimTime end) {
  if (out_.samples.size() >= max_samples_) {
    out_.truncated = true;
    return;
  }
  TimeSample s = acc_;
  s.start = cur_start_;
  s.end = end;
  u64 ssd_blocks = 0;
  if (registry_ != nullptr) {
    const MetricsSnapshot snap = registry_->snapshot();
    u64 gc_erases = 0, gc_pages = 0;
    for (const auto& [name, cur] : snap.counters) {
      const u64 d = counter_delta(snap.counters, prev_.counters, name);
      if (const std::string res = busy_resource(name); !res.empty()) {
        double units = 1.0;
        for (const std::string& g : {res + "_units", res + ".units"}) {
          if (const auto it = snap.gauges.find(g);
              it != snap.gauges.end() && it->second > 0.0) {
            units = it->second;
            break;
          }
        }
        const double denom = static_cast<double>(s.duration()) * units;
        s.series["util." + res] =
            denom > 0.0 ? static_cast<double>(d) / denom : 0.0;
      }
      if (name.starts_with("ssd.")) {
        if (name.ends_with(".read_blocks") || name.ends_with(".write_blocks"))
          ssd_blocks += d;
        else if (name.ends_with(".gc.erases"))
          gc_erases += d;
        else if (name.ends_with(".gc.pages_copied"))
          gc_pages += d;
      }
      // Per-tenant activity (hit/miss/shed counters) as per-interval deltas:
      // this is what makes partition adaptation visible over time.
      if (name.find(".tenant.") != std::string::npos)
        s.series[name] = static_cast<double>(d);
    }
    s.series["gc.erases"] = static_cast<double>(gc_erases);
    s.series["gc.pages_copied"] = static_cast<double>(gc_pages);
    for (const auto& [name, v] : snap.gauges)
      if (!is_units_gauge(name)) s.series[name] = v;
    prev_ = snap;
  }
  s.derive(static_cast<double>(ssd_blocks));

  out_.samples.push_back(std::move(s));
  acc_ = TimeSample{};
  cur_start_ = end;
}

}  // namespace srcache::obs
