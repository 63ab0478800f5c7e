// repro_report: the regression end of the REPRO_JSON loop.
//
// Loads one or two REPRO_JSON documents (schema srcache-repro-v1 or -v2,
// written by any bench binary with REPRO_JSON=<path>):
//
//   repro_report A.json            per-run summary of one document
//   repro_report A.json B.json     A/B comparison: A is the baseline, B the
//                                  candidate; exits 1 when B regresses any
//                                  matched run beyond the thresholds
//
// Options:
//   --thr-throughput F   max relative throughput drop        (default 0.05)
//   --thr-p99 F          max relative read/write p99 increase (default 0.25)
//   --thr-waf F          max relative I/O-amplification increase (default 0.25)
//   --csv DIR            write each run's embedded time series (v2 only) as
//                        DIR/<bench>__<name>.csv for plotting
//   --tenants            per-tenant partition view of every run that carries
//                        a v3 "tenants" block (share targets, hit ratios,
//                        adapt epochs/rebalances)
//   --assert-hit-gt C B  exit 1 unless run C's aggregate hit_ratio is
//                        strictly greater than run B's (names match the
//                        "name" field; first document only) — the CI gate
//                        for "adaptive beats the static split"
//   --assert-tier ON OFF exit 1 unless run ON (tier enabled) wrote strictly
//                        fewer flash blocks (ssd.write_blocks) than run OFF
//                        at an equal-or-better aggregate hit_ratio — the CI
//                        gate for "the compressed DRAM tier pays for itself"
//   --digest             print crc32c of each document minus its "perf"
//                        section (the only execution-dependent part, v4);
//                        with two files, exit 1 on digest mismatch — the CI
//                        gate for "sharded == serial, bit for bit"
//   --slo                per-run SLO watchdog summary of every run carrying
//                        a v5 "slo" block (policy, per-epoch verdicts, burn
//                        rate); exits 1 when any run's SLO is breached — the
//                        CI gate for "the run held its service levels"
//   --frontier           hit-ratio vs NAND-write-amplification view of every
//                        "<Trace>/<eviction>+<admission>" run (written by
//                        bench_policy_frontier). NAND WA = SSD pages
//                        programmed (host + device GC) per application
//                        block. One document: per-trace Pareto table. Two
//                        documents: the CI gate — exits 1 when a baseline
//                        frontier run is missing from the candidate, when a
//                        policy is Pareto-dominated in the candidate but was
//                        not in the baseline, or when the paper anchor
//                        (*/paper+always) regresses its WA beyond --thr-waf
//   --frontier-csv PATH  write the frontier points (of the candidate when
//                        two documents are given) as one CSV for artifacts
//
// Comparison is by field name, so a v2 baseline checks cleanly against a v3
// candidate: the added "tenants"/"adapt"/"trace" blocks are simply ignored.
// Documents carrying a v4 "perf" section additionally get a wall-clock
// summary (simulated-ops/sec, per-shard breakdown) and, in A/B mode, a
// speedup line — informational only, wall clock never gates.
//
// Exit codes: 0 = ok, 1 = regression (or baseline run missing from B, or a
// failed --assert-hit-gt, or a --digest mismatch), 2 = usage / I/O / parse
// error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <span>

#include "common/crc32c.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"

namespace {

using srcache::common::Table;
using srcache::obs::JsonValue;
using srcache::obs::TimeSeries;

struct Options {
  double thr_throughput = 0.05;
  double thr_p99 = 0.25;
  double thr_waf = 0.25;
  std::string csv_dir;
  bool tenants = false;
  bool digest = false;
  bool slo = false;
  bool frontier = false;
  std::string frontier_csv;
  std::string assert_cand;  // --assert-hit-gt: candidate run name
  std::string assert_base;  // --assert-hit-gt: baseline run name
  std::string tier_on;      // --assert-tier: tier-enabled run name
  std::string tier_off;     // --assert-tier: tier-disabled run name
  std::vector<std::string> files;
};

struct Run {
  std::string bench;
  std::string name;
  const JsonValue* json = nullptr;
};

struct Doc {
  std::string schema;
  JsonValue root;
  std::vector<Run> runs;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--thr-throughput F] [--thr-p99 F] [--thr-waf F]\n"
      "       %*s [--csv DIR] [--tenants] [--assert-hit-gt CAND BASE]\n"
      "       %*s [--assert-tier ON OFF] [--digest] [--slo] [--frontier]\n"
      "       %*s [--frontier-csv PATH]\n"
      "           baseline.json [candidate.json]\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "");
  return 2;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      *out = std::strtod(argv[++i], &end);
      return end != nullptr && *end == '\0' && *out >= 0.0;
    };
    if (a == "--thr-throughput") {
      if (!next(&opt->thr_throughput)) return false;
    } else if (a == "--thr-p99") {
      if (!next(&opt->thr_p99)) return false;
    } else if (a == "--thr-waf") {
      if (!next(&opt->thr_waf)) return false;
    } else if (a == "--csv") {
      if (i + 1 >= argc) return false;
      opt->csv_dir = argv[++i];
    } else if (a == "--tenants") {
      opt->tenants = true;
    } else if (a == "--digest") {
      opt->digest = true;
    } else if (a == "--slo") {
      opt->slo = true;
    } else if (a == "--frontier") {
      opt->frontier = true;
    } else if (a == "--frontier-csv") {
      if (i + 1 >= argc) return false;
      opt->frontier_csv = argv[++i];
    } else if (a == "--assert-hit-gt") {
      if (i + 2 >= argc) return false;
      opt->assert_cand = argv[++i];
      opt->assert_base = argv[++i];
    } else if (a == "--assert-tier") {
      if (i + 2 >= argc) return false;
      opt->tier_on = argv[++i];
      opt->tier_off = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      return false;
    } else {
      opt->files.push_back(a);
    }
  }
  return opt->files.size() == 1 || opt->files.size() == 2;
}

bool load_doc(const std::string& path, Doc* doc) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "repro_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = srcache::obs::parse_json(buf.str());
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "repro_report: %s: %s\n", path.c_str(),
                 parsed.status().to_string().c_str());
    return false;
  }
  doc->root = std::move(parsed).take();
  const JsonValue* schema = doc->root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      !schema->string.starts_with("srcache-repro-v")) {
    std::fprintf(stderr, "repro_report: %s: not a REPRO_JSON document\n",
                 path.c_str());
    return false;
  }
  doc->schema = schema->string;
  const JsonValue* runs = doc->root.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    std::fprintf(stderr, "repro_report: %s: missing \"runs\"\n", path.c_str());
    return false;
  }
  for (const JsonValue& r : runs->array) {
    const JsonValue* bench = r.find("bench");
    const JsonValue* name = r.find("name");
    if (bench == nullptr || name == nullptr) continue;
    doc->runs.push_back({bench->string, name->string, &r});
  }
  return true;
}

double metric(const JsonValue& run, std::string_view key) {
  return run.number_or(key, 0.0);
}

double p99(const JsonValue& run, const char* dir) {
  const JsonValue* lat = run.find("latency_ns");
  if (lat == nullptr) return 0.0;
  const JsonValue* d = lat->find(dir);
  return d == nullptr ? 0.0 : d->number_or("p99", 0.0);
}

size_t timeseries_samples(const JsonValue& run) {
  const JsonValue* ts = run.find("timeseries");
  if (ts == nullptr) return 0;
  const JsonValue* samples = ts->find("samples");
  return samples != nullptr && samples->is_array() ? samples->array.size() : 0;
}

std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  return out;
}

// Writes DIR/<bench>__<name>.csv for every run that embeds a time series.
bool export_csv(const Doc& doc, const std::string& dir) {
  bool all_ok = true;
  size_t written = 0;
  for (const Run& run : doc.runs) {
    const JsonValue* ts = run.json->find("timeseries");
    if (ts == nullptr) continue;
    auto parsed = TimeSeries::from_json(*ts);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "repro_report: %s/%s: %s\n", run.bench.c_str(),
                   run.name.c_str(), parsed.status().to_string().c_str());
      all_ok = false;
      continue;
    }
    const std::string path =
        dir + "/" + sanitize(run.bench) + "__" + sanitize(run.name) + ".csv";
    std::ofstream out(path, std::ios::binary);
    if (!out || !(out << parsed.value().to_csv())) {
      std::fprintf(stderr, "repro_report: cannot write %s\n", path.c_str());
      all_ok = false;
      continue;
    }
    std::printf("wrote %s (%zu samples)\n", path.c_str(),
                parsed.value().samples.size());
    ++written;
  }
  if (written == 0)
    std::printf("--csv: no runs carry a time series "
                "(run the bench with REPRO_TIMESERIES_MS set)\n");
  return all_ok;
}

// crc32c over the canonical serialization of the document minus its "perf"
// section. Everything else in a REPRO_JSON document is deterministic, so two
// runs of the same experiment — at any REPRO_SHARDS/REPRO_THREADS — must
// produce the same digest.
srcache::u32 digest_minus_perf(const Doc& doc) {
  JsonValue stripped = doc.root;
  if (stripped.is_object()) {
    std::erase_if(stripped.object,
                  [](const auto& kv) { return kv.first == "perf"; });
  }
  const std::string canon = srcache::obs::to_json(stripped);
  return srcache::common::crc32c(std::span(
      reinterpret_cast<const srcache::u8*>(canon.data()), canon.size()));
}

// Wall-clock summary of a v4 "perf" section: simulated-ops/sec per run plus
// the per-shard lane breakdown. Informational only — never gates, never
// digested.
void print_perf(const Doc& doc) {
  const JsonValue* perf = doc.root.find("perf");
  if (perf == nullptr) return;
  std::printf("perf: shards=%.0f threads=%.0f (wall-clock; outside --digest)\n",
              perf->number_or("shards", 0.0), perf->number_or("threads", 0.0));
  const JsonValue* runs = perf->find("runs");
  if (runs == nullptr || !runs->is_array()) return;
  Table t({"bench", "run", "setup s", "wall s", "sim-ops/s",
           "per-shard wall s"});
  for (const JsonValue& r : runs->array) {
    std::string lanes;
    if (const JsonValue* ps = r.find("per_shard");
        ps != nullptr && ps->is_array()) {
      for (const JsonValue& s : ps->array) {
        if (!lanes.empty()) lanes += " ";
        lanes += Table::num(s.number_or("wall_seconds", 0.0), 2);
      }
    }
    const JsonValue* bench = r.find("bench");
    const JsonValue* name = r.find("name");
    t.add_row({bench != nullptr ? bench->string : "?",
               name != nullptr ? name->string : "?",
               Table::num(r.number_or("setup_seconds", 0.0), 2),
               Table::num(r.number_or("wall_seconds", 0.0), 2),
               Table::num(r.number_or("sim_ops_per_sec", 0.0), 0), lanes});
  }
  t.print();
}

// A/B wall-clock speedup over matched perf runs (v4). Kept out of the
// regression verdict: host load and shard counts legitimately differ
// between the two documents.
void print_speedup(const Doc& base, const Doc& cand) {
  const JsonValue* pa = base.root.find("perf");
  const JsonValue* pb = cand.root.find("perf");
  if (pa == nullptr || pb == nullptr) return;
  const JsonValue* ra = pa->find("runs");
  const JsonValue* rb = pb->find("runs");
  if (ra == nullptr || !ra->is_array() || rb == nullptr || !rb->is_array())
    return;
  std::printf(
      "\nwall-clock speedup, baseline shards=%.0f vs candidate shards=%.0f "
      "(informational):\n",
      pa->number_or("shards", 0.0), pb->number_or("shards", 0.0));
  Table t({"bench", "run", "base ops/s", "cand ops/s", "speedup"});
  for (const JsonValue& a : ra->array) {
    const JsonValue* ab = a.find("bench");
    const JsonValue* an = a.find("name");
    if (ab == nullptr || an == nullptr) continue;
    for (const JsonValue& b : rb->array) {
      const JsonValue* bb = b.find("bench");
      const JsonValue* bn = b.find("name");
      if (bb == nullptr || bn == nullptr || bb->string != ab->string ||
          bn->string != an->string)
        continue;
      const double oa = a.number_or("sim_ops_per_sec", 0.0);
      const double ob = b.number_or("sim_ops_per_sec", 0.0);
      t.add_row({ab->string, an->string, Table::num(oa, 0), Table::num(ob, 0),
                 oa > 0.0 ? Table::num(ob / oa, 2) + "x" : "-"});
      break;
    }
  }
  t.print();
}

void print_summary(const std::string& path, const Doc& doc) {
  std::printf("%s  (%s, %zu runs, scale=%g, %gs virtual)\n", path.c_str(),
              doc.schema.c_str(), doc.runs.size(),
              doc.root.number_or("scale", 0.0),
              doc.root.number_or("virtual_seconds", 0.0));
  Table t({"bench", "run", "MB/s", "IOA", "hit", "r p99 us", "w p99 us",
           "clamped", "ts samples"});
  for (const Run& run : doc.runs) {
    const JsonValue* lat = run.json->find("latency_ns");
    const double clamped =
        lat == nullptr ? 0.0 : lat->number_or("clamped", 0.0);
    t.add_row({run.bench, run.name,
               Table::num(metric(*run.json, "throughput_mbps"), 1),
               Table::num(metric(*run.json, "io_amplification"), 2),
               Table::num(metric(*run.json, "hit_ratio"), 3),
               Table::num(p99(*run.json, "read") / 1e3, 1),
               Table::num(p99(*run.json, "write") / 1e3, 1),
               Table::num(clamped, 0),
               std::to_string(timeseries_samples(*run.json))});
  }
  t.print();
  print_perf(doc);
}

// Per-tenant partition view (schema v3): how each run split the cache and
// what every tenant got out of its share.
void print_tenants(const Doc& doc) {
  Table t({"bench", "run", "tenant", "ops", "hit", "target blk", "epochs",
           "rebal"});
  size_t rows = 0;
  for (const Run& run : doc.runs) {
    const JsonValue* tenants = run.json->find("tenants");
    if (tenants == nullptr || !tenants->is_array()) continue;
    const JsonValue* adapt = run.json->find("adapt");
    const double epochs =
        adapt == nullptr ? 0.0 : adapt->number_or("epochs", 0.0);
    const double rebal =
        adapt == nullptr ? 0.0 : adapt->number_or("rebalances", 0.0);
    for (const JsonValue& tn : tenants->array) {
      t.add_row({run.bench, run.name,
                 Table::num(tn.number_or("tenant", 0.0), 0),
                 Table::num(tn.number_or("ops", 0.0), 0),
                 Table::num(tn.number_or("hit_ratio", 0.0), 3),
                 Table::num(tn.number_or("target_blocks", 0.0), 0),
                 Table::num(epochs, 0), Table::num(rebal, 0)});
      ++rows;
    }
  }
  if (rows == 0) {
    std::printf("--tenants: no runs carry a tenants block "
                "(needs a multi-tenant bench and schema v3)\n");
    return;
  }
  t.print();
}

// --slo: per-run verdict table for every run carrying a v5 "slo" block.
// Returns 1 when any run's SLO counts as breached (burn rate > 1), 0
// otherwise — the CI gate for "the run held its service levels".
int print_slo(const Doc& doc) {
  Table t({"bench", "run", "epochs", "viol", "degr", "burn", "verdict"});
  size_t rows = 0;
  int breached = 0;
  for (const Run& run : doc.runs) {
    const JsonValue* slo = run.json->find("slo");
    if (slo == nullptr) continue;
    const bool bad = slo->number_or("breached", 0.0) != 0.0;
    if (bad) ++breached;
    t.add_row({run.bench, run.name,
               Table::num(slo->number_or("epochs", 0.0), 0),
               Table::num(slo->number_or("violations", 0.0), 0),
               Table::num(slo->number_or("degraded_epochs", 0.0), 0),
               Table::num(slo->number_or("burn_rate", 0.0), 2),
               bad ? "BREACHED" : "ok"});
    ++rows;
  }
  if (rows == 0) {
    std::printf("--slo: no runs carry an slo block "
                "(needs REPRO_SLO_* knobs and schema v5)\n");
    return 0;
  }
  t.print();
  // Violating epochs, spelled out so the failing window is identifiable
  // without opening the JSON.
  for (const Run& run : doc.runs) {
    const JsonValue* slo = run.json->find("slo");
    if (slo == nullptr) continue;
    const JsonValue* verdicts = slo->find("verdicts");
    if (verdicts == nullptr || !verdicts->is_array()) continue;
    for (const JsonValue& v : verdicts->array) {
      if (v.number_or("ok", 1.0) != 0.0) continue;
      const JsonValue* violated = v.find("violated");
      std::printf("  %s/%s epoch %.0f: %s (%.1f MB/s, r p99 %.2f ms, "
                  "w p99 %.2f ms, %0.f degraded)\n",
                  run.bench.c_str(), run.name.c_str(),
                  v.number_or("epoch", 0.0),
                  violated != nullptr ? violated->string.c_str() : "?",
                  v.number_or("throughput_mbps", 0.0),
                  v.number_or("read_p99_ms", 0.0),
                  v.number_or("write_p99_ms", 0.0),
                  v.number_or("degraded_domains", 0.0));
    }
  }
  if (breached > 0) {
    std::printf("%d run(s) breached their SLO\n", breached);
    return 1;
  }
  std::printf("all SLOs held\n");
  return 0;
}

// --- frontier (hit ratio vs NAND write amplification) ----------------------

// One "<Trace>/<eviction>+<admission>" run reduced to its frontier
// coordinates. NAND WA counts every page the SSD array programmed (host
// writes AND device-internal GC copies) per application block served —
// the endurance price of one unit of traffic.
struct FrontierPoint {
  std::string bench;
  std::string name;
  std::string trace;   // name before the first '/'
  std::string policy;  // name after it ("paper+always", ...)
  double hit = 0.0;
  double wa = 0.0;
  double mbps = 0.0;
  bool dominated = false;
};

std::vector<FrontierPoint> frontier_points(const Doc& doc) {
  std::vector<FrontierPoint> pts;
  for (const Run& run : doc.runs) {
    const size_t slash = run.name.find('/');
    if (slash == std::string::npos) continue;
    const std::string policy = run.name.substr(slash + 1);
    // Frontier runs are named "<Trace>/<eviction>+<admission>"; the '+'
    // distinguishes them from other multi-scheme benches ("Write/S2D/FIFO").
    if (policy.find('+') == std::string::npos) continue;
    FrontierPoint p;
    p.bench = run.bench;
    p.name = run.name;
    p.trace = run.name.substr(0, slash);
    p.policy = policy;
    p.hit = run.json->number_or("hit_ratio", 0.0);
    p.mbps = run.json->number_or("throughput_mbps", 0.0);
    double programmed = 0.0;
    if (const JsonValue* m = run.json->find("metrics")) {
      if (const JsonValue* c = m->find("counters"); c != nullptr &&
                                                    c->is_object()) {
        for (const auto& [key, value] : c->object) {
          if (key.starts_with("ssd.") && key.ends_with(".pages_programmed"))
            programmed += value.number;
        }
      }
    }
    double app = 0.0;
    if (const JsonValue* c = run.json->find("cache")) {
      app = c->number_or("app_read_blocks", 0.0) +
            c->number_or("app_write_blocks", 0.0);
    }
    p.wa = app == 0.0 ? 0.0 : programmed / app;
    pts.push_back(std::move(p));
  }
  return pts;
}

// Pareto dominance with a small material margin: ties (and sub-margin
// differences, e.g. cross-compiler double noise) never count as dominating,
// so the gate only fires on genuine frontier shifts.
constexpr double kHitEps = 1e-4;   // absolute, on hit ratio in [0, 1]
constexpr double kWaEps = 1e-3;    // relative, on NAND WA

bool dominates(const FrontierPoint& y, const FrontierPoint& x) {
  const bool no_worse =
      y.hit >= x.hit - kHitEps && y.wa <= x.wa * (1.0 + kWaEps);
  const bool strictly_better =
      y.hit > x.hit + kHitEps || y.wa < x.wa * (1.0 - kWaEps);
  return no_worse && strictly_better;
}

// Marks each point dominated/non-dominated within its trace group.
void mark_dominated(std::vector<FrontierPoint>* pts) {
  for (FrontierPoint& x : *pts) {
    x.dominated = false;
    for (const FrontierPoint& y : *pts) {
      if (&x == &y || y.trace != x.trace) continue;
      if (dominates(y, x)) {
        x.dominated = true;
        break;
      }
    }
  }
}

void print_frontier(const std::string& path,
                    const std::vector<FrontierPoint>& pts) {
  std::printf("%s  frontier (%zu points; NAND WA = SSD pages programmed per "
              "app block)\n",
              path.c_str(), pts.size());
  Table t({"trace", "policy", "hit", "NAND WA", "MB/s", "pareto"});
  for (const FrontierPoint& p : pts) {
    t.add_row({p.trace, p.policy, Table::num(p.hit, 4), Table::num(p.wa, 4),
               Table::num(p.mbps, 1), p.dominated ? "dominated" : "frontier"});
  }
  t.print();
}

bool write_frontier_csv(const std::string& path,
                        const std::vector<FrontierPoint>& pts) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "repro_report: cannot write %s\n", path.c_str());
    return false;
  }
  out << "trace,policy,hit_ratio,nand_wa,throughput_mbps,pareto\n";
  for (const FrontierPoint& p : pts) {
    out << p.trace << ',' << p.policy << ',' << p.hit << ',' << p.wa << ','
        << p.mbps << ',' << (p.dominated ? "dominated" : "frontier") << '\n';
  }
  std::printf("wrote %s (%zu points)\n", path.c_str(), pts.size());
  return true;
}

// Two-document frontier gate. The committed baseline is the statement of
// which policies are allowed to be Pareto-dominated; the candidate must not
// newly dominate away a policy, lose a run, or regress the paper anchor's
// WA beyond --thr-waf. (A policy dominated in BOTH documents is fine — the
// baseline already conceded that point.)
int gate_frontier(const Options& opt, std::vector<FrontierPoint> base,
                  std::vector<FrontierPoint> cand) {
  mark_dominated(&base);
  mark_dominated(&cand);
  int failures = 0;
  Table t({"trace", "policy", "check", "baseline", "candidate", "verdict"});
  for (const FrontierPoint& b : base) {
    const FrontierPoint* c = nullptr;
    for (const FrontierPoint& p : cand) {
      if (p.trace == b.trace && p.policy == b.policy) {
        c = &p;
        break;
      }
    }
    if (c == nullptr) {
      t.add_row({b.trace, b.policy, "present", "yes", "missing", "FAIL"});
      ++failures;
      continue;
    }
    const bool newly_dominated = c->dominated && !b.dominated;
    if (newly_dominated) ++failures;
    t.add_row({b.trace, b.policy, "pareto",
               b.dominated ? "dominated" : "frontier",
               c->dominated ? "dominated" : "frontier",
               newly_dominated ? "FAIL" : "ok"});
    if (b.policy == "paper+always") {
      const bool wa_regressed = c->wa > b.wa * (1.0 + opt.thr_waf);
      if (wa_regressed) ++failures;
      t.add_row({b.trace, b.policy, "nand_wa", Table::num(b.wa, 4),
                 Table::num(c->wa, 4), wa_regressed ? "FAIL" : "ok"});
    }
  }
  t.print();
  std::printf("\nfrontier gate: pareto margin hit±%g wa±%.1f%%, paper WA "
              "threshold +%.0f%%\n",
              kHitEps, 100.0 * kWaEps, 100.0 * opt.thr_waf);
  if (failures > 0) {
    std::printf("%d frontier failure(s)\n", failures);
    return 1;
  }
  std::printf("frontier holds\n");
  return 0;
}

// --assert-hit-gt: the CI gate. Finds each named run (first match by "name")
// and demands a strictly higher aggregate hit ratio from the candidate.
int assert_hit_gt(const Doc& doc, const std::string& cand_name,
                  const std::string& base_name) {
  const JsonValue* cand = nullptr;
  const JsonValue* base = nullptr;
  for (const Run& run : doc.runs) {
    if (cand == nullptr && run.name == cand_name) cand = run.json;
    if (base == nullptr && run.name == base_name) base = run.json;
  }
  if (cand == nullptr || base == nullptr) {
    std::fprintf(stderr, "--assert-hit-gt: run \"%s\" not found\n",
                 (cand == nullptr ? cand_name : base_name).c_str());
    return 2;
  }
  const double hc = cand->number_or("hit_ratio", 0.0);
  const double hb = base->number_or("hit_ratio", 0.0);
  const bool ok = hc > hb;
  std::printf("assert-hit-gt: %s %.4f %s %s %.4f\n", cand_name.c_str(), hc,
              ok ? ">" : "<=", base_name.c_str(), hb);
  return ok ? 0 : 1;
}

// --assert-tier: the CI gate for the compressed DRAM tier. The tier-on run
// must write strictly fewer flash blocks than the tier-off run while holding
// an equal-or-better aggregate hit ratio — i.e. the tier absorbed writes
// without costing hits. First match by "name", first document only.
int assert_tier(const Doc& doc, const std::string& on_name,
                const std::string& off_name) {
  const JsonValue* on = nullptr;
  const JsonValue* off = nullptr;
  for (const Run& run : doc.runs) {
    if (on == nullptr && run.name == on_name) on = run.json;
    if (off == nullptr && run.name == off_name) off = run.json;
  }
  if (on == nullptr || off == nullptr) {
    std::fprintf(stderr, "--assert-tier: run \"%s\" not found\n",
                 (on == nullptr ? on_name : off_name).c_str());
    return 2;
  }
  auto flash_writes = [](const JsonValue& run) {
    const JsonValue* ssd = run.find("ssd");
    return ssd == nullptr ? 0.0 : ssd->number_or("write_blocks", 0.0);
  };
  const double won = flash_writes(*on);
  const double woff = flash_writes(*off);
  const double hon = on->number_or("hit_ratio", 0.0);
  const double hoff = off->number_or("hit_ratio", 0.0);
  const bool writes_ok = won < woff;
  const bool hit_ok = hon >= hoff;
  std::printf("assert-tier: flash write_blocks %s %.0f %s %s %.0f (%s)\n",
              on_name.c_str(), won, writes_ok ? "<" : ">=", off_name.c_str(),
              woff, writes_ok ? "ok" : "FAIL");
  std::printf("assert-tier: hit_ratio %s %.4f %s %s %.4f (%s)\n",
              on_name.c_str(), hon, hit_ok ? ">=" : "<", off_name.c_str(),
              hoff, hit_ok ? "ok" : "FAIL");
  if (const JsonValue* tier = on->find("tier")) {
    std::printf("assert-tier: %s tier hit %.4f, compression %.3f, "
                "destaged %.0f blocks\n",
                on_name.c_str(), tier->number_or("hit_ratio", 0.0),
                tier->number_or("compression_ratio", 0.0),
                tier->number_or("destage_blocks", 0.0));
  }
  return writes_ok && hit_ok ? 0 : 1;
}

// Relative change of `b` vs baseline `a`; 0 when the baseline is 0.
double rel(double a, double b) { return a == 0.0 ? 0.0 : (b - a) / a; }

int compare(const Options& opt, const Doc& base, const Doc& cand) {
  std::map<std::pair<std::string, std::string>, const JsonValue*> in_cand;
  for (const Run& r : cand.runs) in_cand[{r.bench, r.name}] = r.json;

  Table t({"bench", "run", "metric", "baseline", "candidate", "delta",
           "verdict"});
  int regressions = 0;
  auto check = [&](const Run& run, const char* name, double a, double b,
                   double worse_rel, double thr, int precision) {
    const double d = rel(a, b);
    const bool bad = worse_rel > thr;
    if (bad) ++regressions;
    t.add_row({run.bench, run.name, name, Table::num(a, precision),
               Table::num(b, precision),
               Table::num(100.0 * d, 1) + "%",
               bad ? "REGRESSION" : "ok"});
  };

  for (const Run& run : base.runs) {
    const auto it = in_cand.find({run.bench, run.name});
    if (it == in_cand.end()) {
      t.add_row({run.bench, run.name, "-", "-", "missing", "-", "REGRESSION"});
      ++regressions;
      continue;
    }
    const JsonValue& a = *run.json;
    const JsonValue& b = *it->second;
    check(run, "throughput_mbps", metric(a, "throughput_mbps"),
          metric(b, "throughput_mbps"),
          -rel(metric(a, "throughput_mbps"), metric(b, "throughput_mbps")),
          opt.thr_throughput, 1);
    check(run, "read_p99_us", p99(a, "read") / 1e3, p99(b, "read") / 1e3,
          rel(p99(a, "read"), p99(b, "read")), opt.thr_p99, 1);
    check(run, "write_p99_us", p99(a, "write") / 1e3, p99(b, "write") / 1e3,
          rel(p99(a, "write"), p99(b, "write")), opt.thr_p99, 1);
    check(run, "io_amplification", metric(a, "io_amplification"),
          metric(b, "io_amplification"),
          rel(metric(a, "io_amplification"), metric(b, "io_amplification")),
          opt.thr_waf, 2);
  }
  t.print();
  std::printf("\nthresholds: throughput -%.0f%%, p99 +%.0f%%, waf +%.0f%%\n",
              100.0 * opt.thr_throughput, 100.0 * opt.thr_p99,
              100.0 * opt.thr_waf);
  if (regressions > 0) {
    std::printf("%d regression(s) detected\n", regressions);
    return 1;
  }
  std::printf("no regressions\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return usage(argv[0]);

  Doc a;
  if (!load_doc(opt.files[0], &a)) return 2;

  if (opt.digest) {
    const srcache::u32 da = digest_minus_perf(a);
    std::printf("%08x  %s\n", da, opt.files[0].c_str());
    if (opt.files.size() == 2) {
      Doc b;
      if (!load_doc(opt.files[1], &b)) return 2;
      const srcache::u32 db = digest_minus_perf(b);
      std::printf("%08x  %s\n", db, opt.files[1].c_str());
      if (da != db) {
        std::fprintf(stderr,
                     "digest mismatch: the deterministic parts of the two "
                     "documents differ\n");
        return 1;
      }
      std::printf("digests match\n");
    }
    return 0;
  }

  if (opt.frontier) {
    std::vector<FrontierPoint> pa = frontier_points(a);
    mark_dominated(&pa);
    if (pa.empty()) {
      std::fprintf(stderr,
                   "--frontier: no \"<Trace>/<eviction>+<admission>\" runs in "
                   "%s (run bench_policy_frontier with REPRO_JSON set)\n",
                   opt.files[0].c_str());
      return 2;
    }
    print_frontier(opt.files[0], pa);
    int rc = 0;
    std::vector<FrontierPoint>* csv_pts = &pa;
    std::vector<FrontierPoint> pb;
    if (opt.files.size() == 2) {
      Doc b;
      if (!load_doc(opt.files[1], &b)) return 2;
      pb = frontier_points(b);
      mark_dominated(&pb);
      std::printf("\n");
      print_frontier(opt.files[1], pb);
      std::printf("\n");
      rc = gate_frontier(opt, pa, pb);
      csv_pts = &pb;
    }
    if (!opt.frontier_csv.empty() &&
        !write_frontier_csv(opt.frontier_csv, *csv_pts))
      return 2;
    return rc;
  }

  print_summary(opt.files[0], a);

  bool csv_ok = true;
  if (!opt.csv_dir.empty()) csv_ok = export_csv(a, opt.csv_dir);
  if (opt.tenants) print_tenants(a);

  int rc = 0;
  if (opt.slo) rc = print_slo(a);
  if (!opt.assert_cand.empty()) {
    rc = assert_hit_gt(a, opt.assert_cand, opt.assert_base);
    if (rc == 2) return 2;
  }
  if (!opt.tier_on.empty()) {
    const int trc = assert_tier(a, opt.tier_on, opt.tier_off);
    if (trc == 2) return 2;
    rc = std::max(rc, trc);
  }
  if (opt.files.size() == 2) {
    Doc b;
    if (!load_doc(opt.files[1], &b)) return 2;
    std::printf("\n");
    print_summary(opt.files[1], b);
    std::printf("\n");
    rc = std::max(rc, compare(opt, a, b));
    print_speedup(a, b);
  }
  return csv_ok ? rc : 2;
}
