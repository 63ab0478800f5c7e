// One repetition of one benchmark workload, printed as one JSON line.
//
//   simbench --workload <name> --mode <plain|traced|reference> --seed <n>
//
// plain      runs the workload through engine::ParallelEngine with this
//            file's own domain factory. The only decorator is the top
//            cache's warm-up/window boundary tracker, so the host times
//            (setup_s, window_s, wall_s, peak RSS) are the untraced ones.
// traced     runs the same simulation with every layer's public interface
//            wrapped in a timing decorator (layer_probe.hpp) and reports
//            per-layer calls and self time.
// reference  runs the same group through the paper benches' own code path
//            (bench/harness.hpp run_group_sharded, as bench_table6_traces
//            and bench_tier call it), so perfbench/run.py can check that the
//            benchmark simulates exactly what the paper benches simulate.
//
// Every mode prints `digest`, a CRC-32C of the run's REPRO_JSON record
// (ops, bytes, cache/device stats, latency histograms, registry and
// provenance deltas, tier block); equal digests mean equal simulations.
// The seed feeds the trace sets only. REPRO_* knobs are taken from the
// workload table below, never from the caller's environment.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32c.hpp"
#include "harness.hpp"
#include "layer_probe.hpp"
#include "obs/json.hpp"

extern char** environ;

namespace srcache::perfbench {
namespace {

struct Workload {
  const char* name;
  workload::TraceGroup group;
  const char* scale;    // REPRO_SCALE
  const char* seconds;  // REPRO_SECONDS (virtual)
  const char* shards;   // REPRO_SHARDS (engine lanes)
  const char* threads;  // REPRO_THREADS (worker threads; 0 with one lane)
  bool tier;            // bench_tier's default per-domain budget when set
  u32 sample_every;     // traced runs: time 1 op in N at the top layers
};

// Why each workload exists is recorded in perfbench/README.md. Cheap ops
// (read_tier) sample their top layers; a write_src op costs about 20 times
// what timing all of its calls does, so every op is timed. mixed_tier runs
// one lane per domain on 4 threads: the engine's pool hands lanes to idle
// threads, which evens out domains that make unequal tier work.
constexpr Workload kWorkloads[] = {
    {"write_src", workload::TraceGroup::kWrite, "0.25", "2", "4", "4", false,
     1},
    {"read_tier", workload::TraceGroup::kRead, "0.05", "1", "1", "0", true,
     32},
    {"mixed_tier", workload::TraceGroup::kMixed, "0.25", "1", "8", "4", true,
     4},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// Drops every REPRO_* variable the caller may have set, then sets the
// workload's own: the harness reads its knobs from the environment.
void pin_knobs(const Workload& w) {
  std::vector<std::string> stale;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.starts_with("REPRO_"))
      stale.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& k : stale) unsetenv(k.c_str());
  setenv("REPRO_SCALE", w.scale, 1);
  setenv("REPRO_SECONDS", w.seconds, 1);
  setenv("REPRO_SHARDS", w.shards, 1);
  setenv("REPRO_THREADS", w.threads, 1);
  bench::validate_repro_knobs();
}

// bench_tier's default budget: half of one SSD's cache region per domain,
// summed over the domain partition.
u64 tier_mb_total(double k) {
  return bench::Geometry::at(k / bench::kEngineDomains).region_bytes_per_ssd /
         MiB / 2 * bench::kEngineDomains;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One shard domain: the stack bench::make_src_rig builds, assembled here so
// that timing decorators can sit between SrcCache and its devices.
// Declaration order is teardown order in reverse: caches go before the
// decorators and devices they point at.
struct Domain {
  Domain(u64 warmup_bytes, u32 sample_every, i64 clock_ns)
      : probe(warmup_bytes, sample_every, clock_ns) {}

  Probe probe;
  Clock::time_point build_begin{};
  Clock::time_point build_end{};
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::vector<std::unique_ptr<TimedDevice>> timed_ssds;
  std::unique_ptr<TimedDevice> timed_primary;
  obs::MetricsRegistry registry;
  std::unique_ptr<src::SrcCache> cache;
  std::unique_ptr<TimedCache> timed_src;  // traced runs with a tier only
  std::unique_ptr<tier::TierCache> tier;
  std::unique_ptr<TimedCache> top;
  workload::TraceSet set;
  std::vector<std::unique_ptr<TimedGenerator>> gens;
};

struct RunOutput {
  workload::RunResult res;
  engine::EngineResult er;  // `merged` moved into res
  std::vector<std::shared_ptr<Domain>> domains;
  Clock::time_point t0{};
  Clock::time_point window_end{};
  Clock::time_point t_end{};
  i64 clock_ns = 0;  // calibrated Clock::now() cost (traced runs)
};

RunOutput run_engine(const Workload& w, u64 seed, bool traced,
                     u32 sample_every) {
  RunOutput out;
  out.clock_ns = traced ? clock_cost_ns() : 0;
  const i64 clock_ns = out.clock_ns;
  const double k = bench::scale();
  const double dk = k / bench::kEngineDomains;
  const u64 tier_bytes = w.tier ? tier_mb_total(k) * MiB : 0;
  const src::SrcConfig overrides = bench::default_src_config();
  const flash::SsdSpec base_spec = flash::spec_840pro_128();

  out.domains.resize(bench::kEngineDomains);
  const auto factory = [&](u32 index, u32) {
    const bench::Geometry geo = bench::Geometry::at(dk);
    auto d = std::make_shared<Domain>(2 * 3 * geo.region_bytes_per_ssd,
                                      traced ? sample_every : 0, clock_ns);
    d->build_begin = Clock::now();

    // Same steps, order and registry names as bench::make_src_rig.
    src::SrcConfig cfg = overrides;
    cfg.erase_group_bytes = geo.erase_group_bytes;
    cfg.chunk_bytes = geo.chunk_bytes;
    cfg.region_bytes_per_ssd = geo.region_bytes_per_ssd;
    cfg.verify_checksums = false;
    cfg.twait = 10 * sim::kMs;
    const flash::SsdSpec spec =
        bench::sized_spec(base_spec, geo.ssd_capacity_bytes);
    std::vector<blockdev::BlockDevice*> below;
    for (u32 i = 0; i < cfg.num_ssds; ++i) {
      d->ssds.push_back(std::make_unique<flash::SimSsd>(spec, false));
      d->ssds.back()->precondition();
      d->ssds.back()->register_metrics(
          obs::Scope(d->registry, "ssd." + std::to_string(i)));
      below.push_back(d->ssds.back().get());
    }
    d->primary = bench::make_primary(dk);
    d->primary->register_metrics(obs::Scope(d->registry, "hdd"));
    blockdev::BlockDevice* primary = d->primary.get();
    if (traced) {
      for (blockdev::BlockDevice*& dev : below) {
        d->timed_ssds.push_back(
            std::make_unique<TimedDevice>(dev, kFlash, &d->probe));
        dev = d->timed_ssds.back().get();
      }
      d->timed_primary =
          std::make_unique<TimedDevice>(primary, kHdd, &d->probe);
      primary = d->timed_primary.get();
    }
    d->cache = std::make_unique<src::SrcCache>(cfg, below, primary);
    d->cache->register_metrics(obs::Scope(d->registry, "src"));
    d->cache->format(0);
    d->probe.watch_src(d->cache.get());

    // The rest mirrors bench::run_group_sharded's factory.
    const u64 dseed = bench::domain_seed(seed, index);
    d->set = workload::make_trace_set(w.group, geo.group_footprint_bytes,
                                      dseed);
    engine::DomainSetup s;
    s.ssds = bench::borrow_ssds(d->ssds);
    s.cfg.threads_per_gen = 4;
    s.cfg.iodepth = 4;
    s.cfg.duration = bench::run_duration();
    s.cfg.warmup_bytes = 2 * 3 * geo.region_bytes_per_ssd;
    s.cfg.registry = &d->registry;
    s.cfg.timeseries_interval = bench::repro_timeseries_interval();
    s.cfg.provenance = &d->cache->provenance();
    cache::CacheDevice* top = d->cache.get();
    Layer top_layer = kSrcCache;
    if (tier_bytes > 0) {
      tier::TierConfig tc;
      tc.budget_bytes =
          std::max<u64>(kBlockSize, tier_bytes / bench::kEngineDomains);
      tc.dirty_pct = bench::repro_tier_dirty_pct();
      tc.eviction = bench::repro_tier_policy();
      tc.cpu_ns_per_byte = bench::repro_tier_cpu_nspb();
      tc.destage_batch_blocks =
          static_cast<u32>(d->cache->config().segment_data_slots(true));
      // TierCache reaches SrcCache directly (tier_destage, tier_demote,
      // residence, hot_hint) as well as through `inner`; only `inner` is
      // timed.
      cache::CacheDevice* inner = d->cache.get();
      if (traced) {
        d->timed_src = std::make_unique<TimedCache>(inner, kSrcCache,
                                                    &d->probe, false);
        inner = d->timed_src.get();
      }
      d->tier = std::make_unique<tier::TierCache>(tc, inner, d->cache.get());
      d->tier->register_metrics(obs::Scope(d->registry, "tier"));
      s.cfg.tier = d->tier.get();
      top = d->tier.get();
      top_layer = kTier;
    }
    d->top = std::make_unique<TimedCache>(top, top_layer, &d->probe, true);
    s.cache = d->top.get();
    s.gens = d->set.generators();
    if (traced) {
      for (workload::Generator*& g : s.gens) {
        d->gens.push_back(std::make_unique<TimedGenerator>(g, &d->probe));
        g = d->gens.back().get();
      }
    }
    d->build_end = Clock::now();
    out.domains[index] = d;
    s.owned = d;
    return s;
  };

  engine::EngineConfig ecfg;
  ecfg.shards = bench::repro_shards();
  ecfg.threads = bench::repro_threads();
  engine::ParallelEngine eng(ecfg);
  // Runs on the coordinator after every barrier; the last call closes the
  // measured window.
  eng.add_epoch_hook(
      [&out](const engine::EpochView&) { out.window_end = Clock::now(); });
  out.t0 = Clock::now();
  out.er = eng.run(bench::kEngineDomains, factory);
  out.t_end = Clock::now();
  out.res = std::move(out.er.merged);
  return out;
}

workload::RunResult run_reference(const Workload& w, u64 seed) {
  const double k = bench::scale();
  if (!w.tier) {
    return bench::run_group_sharded(bench::default_src_config(),
                                    flash::spec_840pro_128(), w.group, k,
                                    "bench_table6_traces", seed);
  }
  const std::string name = std::string(workload::to_string(w.group)) +
                           "/tier-on";
  return bench::run_group_sharded(
      bench::default_src_config(), flash::spec_840pro_128(), w.group, k,
      "bench_tier", seed, name.c_str(), static_cast<i64>(tier_mb_total(k)));
}

// The simulated outcome every mode reports: exact for a fixed seed.
void write_simulated(obs::JsonWriter& o, const workload::RunResult& r) {
  const std::string record = workload::run_json("perfbench", "run", r);
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x",
                common::crc32c(std::span<const u8>(
                    reinterpret_cast<const u8*>(record.data()),
                    record.size())));
  o.kv("digest", digest);
  o.kv("ops", r.ops);
  o.kv("ops_failed", r.latency_clamped);
  o.kv("provenance_balanced",
       r.provenance.flash_bytes() == r.ssd.write_blocks * kBlockSize);
  o.kv("sim_mbps", r.throughput_mbps);
  o.kv("hit_ratio", r.hit_ratio);
  o.kv("io_amplification", r.io_amplification);
  o.kv("flash_write_mib", static_cast<double>(r.ssd.write_blocks) *
                              kBlockSize / static_cast<double>(MiB));
  o.kv("read_p50_us", r.read_lat.p50 / 1e3);
  o.kv("read_p99_us", r.read_lat.p99 / 1e3);
  o.kv("read_samples", r.read_lat.count);
  o.kv("write_p50_us", r.write_lat.p50 / 1e3);
  o.kv("write_p99_us", r.write_lat.p99 / 1e3);
  o.kv("write_samples", r.write_lat.count);
}

u64 sum_counters(const obs::MetricsSnapshot& m, std::string_view prefix,
                 std::string_view suffix) {
  u64 total = 0;
  for (const auto& [name, v] : m.counters)
    if (name.starts_with(prefix) && name.ends_with(suffix)) total += v;
  return total;
}

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Host-side timing of a plain or traced run, plus the window-delta counts
// per layer (exact) that sit beside the per-layer times.
void write_host(obs::JsonWriter& h, const RunOutput& run, bool traced) {
  Clock::time_point window_begin = run.domains[0]->probe.first_measured;
  double build_s = 0.0;
  double warmup_s = 0.0;
  for (const auto& d : run.domains) {
    window_begin = std::min(window_begin, d->probe.first_measured);
    build_s += seconds_between(d->build_begin, d->build_end);
    warmup_s += seconds_between(d->build_end, d->probe.warm_end);
  }
  const double window_s = seconds_between(window_begin, run.window_end);
  const double wall_s = seconds_between(run.t0, run.t_end);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  h.kv("setup_s", seconds_between(run.t0, window_begin));
  h.kv("window_s", window_s);
  h.kv("wall_s", wall_s);
  h.kv("sim_ops_per_s", static_cast<double>(run.res.ops) / window_s);
  h.kv("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  h.kv("setup.build_s", build_s);
  h.kv("setup.warmup_s", warmup_s);

  // Engine lanes (EngineResult::per_shard): busy time spans every phase.
  const engine::EngineResult& er = run.er;
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (const engine::ShardPerf& sp : er.per_shard) {
    busy_sum += sp.wall_seconds;
    busy_max = std::max(busy_max, sp.wall_seconds);
  }
  // Threads idle at barriers: what the pool could have run minus what the
  // lanes ran. With as many threads as lanes this is lanes × wall − busy.
  const double lanes = static_cast<double>(er.shards);
  const double threads = static_cast<double>(er.threads);
  h.kv("engine.lane_busy_max_s", busy_max);
  h.kv("engine.lane_busy_mean_s", busy_sum / lanes);
  h.kv("engine.barrier_wait_s", threads * er.wall_seconds - busy_sum);
  h.kv("engine.epochs", er.epochs);

  // Registry/provenance snapshot cost: the same calls ClosedLoop::start and
  // ::finish make per domain, repeated here on the finished stacks.
  const Clock::time_point obs0 = Clock::now();
  for (const auto& d : run.domains) {
    const obs::MetricsSnapshot before = d->registry.snapshot();
    const obs::ProvenanceLedger prov = d->cache->provenance();
    (void)d->registry.snapshot().delta_since(before);
    (void)d->cache->provenance().delta_since(prov);
  }
  h.kv("obs.self_s", seconds_between(obs0, Clock::now()));

  // Exact window counts per layer.
  const workload::RunResult& r = run.res;
  const obs::MetricsSnapshot& m = r.metrics;
  cache::CacheStats src;
  for (const auto& d : run.domains) {
    const cache::CacheStats& now = d->cache->stats();
    const cache::CacheStats& was = d->probe.src_at_window;
    src.app_read_blocks += now.app_read_blocks - was.app_read_blocks;
    src.app_write_blocks += now.app_write_blocks - was.app_write_blocks;
    src.read_hit_blocks += now.read_hit_blocks - was.read_hit_blocks;
    src.write_hit_blocks += now.write_hit_blocks - was.write_hit_blocks;
    src.gc_copy_blocks += now.gc_copy_blocks - was.gc_copy_blocks;
    src.destage_blocks += now.destage_blocks - was.destage_blocks;
    src.fetch_blocks += now.fetch_blocks - was.fetch_blocks;
  }
  h.kv("tier.hit_ratio", r.tier.active ? r.tier.hit_ratio() : 0.0);
  h.kv("tier.destage_blocks", r.tier.destage_blocks);
  h.kv("tier.compression_ratio",
       r.tier.active ? r.tier.compression_ratio() : 0.0);
  h.kv("src_cache.hit_ratio", src.hit_ratio());
  h.kv("src_cache.gc_copy_blocks", src.gc_copy_blocks);
  h.kv("src_cache.destage_blocks", src.destage_blocks);
  h.kv("src_cache.fetch_blocks", src.fetch_blocks);
  h.kv("flash.read_blocks", r.ssd.read_blocks);
  h.kv("flash.write_blocks", r.ssd.write_blocks);
  h.kv("flash.flushes", sum_counters(m, "ssd.", ".flushes"));
  h.kv("flash.gc_pages_copied", sum_counters(m, "ssd.", ".gc.pages_copied"));
  h.kv("flash.nand_wa",
       ratio(sum_counters(m, "ssd.", ".pages_programmed"),
             sum_counters(m, "ssd.", ".host_pages_written")));
  h.kv("hdd.read_blocks", sum_counters(m, "hdd.read_blocks", ""));
  h.kv("hdd.write_blocks", sum_counters(m, "hdd.write_blocks", ""));

  if (!traced) return;

  // Per-layer calls and self time, sampled times scaled to the window.
  // Every timed call is a generator call, a top-cache call or nested in
  // one, so the self times sum to the inclusive time of the top cache and
  // the generators.
  std::array<double, kNumLayers> self_s{};
  std::array<u64, kNumLayers> calls{};
  double clock_reads_s = 0.0;  // what the traced run spent reading clocks
  for (const auto& d : run.domains) {
    for (int l = 0; l < kNumLayers; ++l) {
      const LayerTally& t = d->probe.tally(static_cast<Layer>(l));
      calls[l] += t.calls;
      if (t.timed_calls > 0)
        self_s[l] += static_cast<double>(t.self_ns) * 1e-9 *
                     static_cast<double>(t.calls) /
                     static_cast<double>(t.timed_calls);
      clock_reads_s += 2e-9 * static_cast<double>(t.timed_calls) *
                       static_cast<double>(run.clock_ns);
    }
  }
  double layers_s = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name = kLayerNames[l];
    h.kv(name + ".calls", calls[l]);
    h.kv(name + ".self_s", self_s[l]);
    layers_s += self_s[l];
  }
  // The closed loop's own time: what the lanes were busy with outside
  // their domains' build and warm-up, minus the time inside the top cache
  // and the generators and the clock reads. ClosedLoop::start and
  // ClosedLoop::finish of every domain land here too.
  double lane_window_s = 0.0;
  for (const engine::ShardPerf& sp : er.per_shard)
    lane_window_s += sp.wall_seconds;
  for (const auto& d : run.domains)
    lane_window_s -= seconds_between(d->build_begin, d->probe.warm_end);
  h.kv("trace.clock_ns", static_cast<double>(run.clock_ns));
  h.kv("loop.self_s", lane_window_s - layers_s - clock_reads_s);
}

int usage() {
  std::fprintf(stderr,
               "usage: simbench --workload <write_src|read_tier|"
               "mixed_tier> --mode <plain|traced|reference> "
               "--seed <n>\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  const Workload* w = nullptr;
  std::string mode;
  std::optional<u64> seed;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      w = find_workload(val);
    } else if (flag == "--mode") {
      mode = val;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(val, &end, 10);
      if (errno == 0 && end != val && *end == '\0' && *val != '-') seed = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || w == nullptr || !seed ||
      (mode != "plain" && mode != "traced" && mode != "reference"))
    return usage();
  pin_knobs(*w);

  obs::JsonWriter out;
  out.begin_object();
  out.kv("workload", w->name).kv("mode", mode).kv("seed", *seed);
  out.key("sim").begin_object();
  if (mode == "reference") {
    write_simulated(out, run_reference(*w, *seed));
    out.end_object();
  } else {
    const bool traced = mode == "traced";
    const RunOutput run = run_engine(*w, *seed, traced, w->sample_every);
    write_simulated(out, run.res);
    out.end_object();
    out.key("host").begin_object();
    write_host(out, run, traced);
    out.end_object();
  }
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace srcache::perfbench

int main(int argc, char** argv) {
  return srcache::perfbench::main_impl(argc, argv);
}
