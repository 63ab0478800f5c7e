// The REPRO_* knob table (bench/knobs.hpp), in process: every row's range,
// choices and default, every `needs` rule, every rule that compares two
// values, the empty-means-unset rule, and EXPERIMENTS.md's knob reference
// against the table. The exit-2 path of a bench binary is covered by the
// Knobs.* ctests in bench/CMakeLists.txt.
#include "knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace srcache::bench {
namespace {

using Env = std::map<std::string, std::string>;

Result<KnobValues> parse(const Env& env) {
  return parse_knobs([&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

// The refusal message for `env`, or "" when it is accepted.
std::string refusal(const Env& env) {
  const auto r = parse(env);
  return r.is_ok() ? "" : r.status().message();
}

// Passes when `env` is refused with a message containing `msg`.
testing::AssertionResult refused_with(const Env& env, const std::string& msg) {
  const std::string got = refusal(env);
  if (!got.empty() && got.find(msg) != std::string::npos)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "refusal \"" << got << "\" does not contain \"" << msg << "\"";
}

std::string exact(double x) { return knob_format("%.17g", x); }

// A valid value of `k` that differs from its default, for the needs rules.
std::string on_value(const KnobRow& k) {
  switch (k.kind) {
    case kReal:
    case kInt:
      return exact(k.def != 1 && k.lo <= 1 && k.hi >= 1 ? 1 : k.hi);
    case kChoice: return std::string(k.choices[1]);
    case kPath: return std::string("knobs_test_") + k.name + ".out";
    case kPlan: return "at=ops:500 fail dev=ssd1";
  }
  return "";
}

// Just outside the range: one below/above for integers, a relative 1e-9
// for reals.
double step(const KnobRow& k, double x) {
  return k.kind == kInt ? 1.0 : 1e-9 * std::max(1.0, std::abs(x));
}

TEST(KnobTable, RowsAreWellFormed) {
  std::set<std::string> names;
  for (const KnobRow& k : kKnobs) {
    SCOPED_TRACE(k.name);
    EXPECT_TRUE(names.insert(k.name).second) << "duplicate row";
    EXPECT_EQ(std::string(k.name).rfind("REPRO_", 0), 0u);
    EXPECT_FALSE(std::string(k.doc).empty());
    if (k.needs != nullptr) {
      EXPECT_LT(find_knob(k.needs), kNumKnobs) << k.needs;
      EXPECT_NE(std::string(k.doc).find(std::string("needs `") + k.needs),
                std::string::npos)
          << "the doc text names the knob this one needs";
    }
    if (k.number()) {
      EXPECT_LE(k.lo, k.hi);
      EXPECT_LE(k.def, k.hi);
    }
    EXPECT_EQ(k.kind == kChoice, !k.choices.empty());
    if (k.kind == kChoice) {
      EXPECT_LT(k.def, k.choices.size());
    }
  }
}

TEST(KnobTable, AbsentOrEmptyGivesTheDefault) {
  Env empty;
  for (const KnobRow& k : kKnobs) empty[k.name] = "";
  for (const Env& env : {Env{}, empty}) {
    const auto r = parse(env);
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    for (size_t i = 0; i < kNumKnobs; ++i) {
      SCOPED_TRACE(kKnobs[i].name);
      EXPECT_EQ(r.value().value[i], kKnobs[i].def);
      EXPECT_TRUE(r.value().text[i].empty());
      EXPECT_FALSE(r.value().on(i));
    }
  }
}

TEST(KnobTable, EveryRowRefusesMalformedAndOutOfRangeValues) {
  for (const KnobRow& k : kKnobs) {
    SCOPED_TRACE(k.name);
    std::vector<std::string> bad;
    switch (k.kind) {
      case kReal:
        bad = {"banana", "0,5", "1x", "nan", "inf"};
        break;
      case kInt:
        bad = {"banana", "1.5", "1e3", "7x"};
        break;
      case kChoice:
        bad = {"bogus", "lru", "PAPER", std::string(k.choices[0]) + " "};
        break;
      case kPlan:
        bad = {"at=banana fail dev=ssd1", "at=ops:5 explode dev=ssd1"};
        break;
      case kPath:
        continue;  // any non-empty path is accepted
    }
    if (k.number()) {
      bad.push_back(exact(k.lo - step(k, k.lo)));
      bad.push_back(exact(k.hi + step(k, k.hi)));
    }
    for (const std::string& s : bad) {
      double out = -12345;
      const std::string err = parse_knob(k, s, &out);
      EXPECT_NE(err.find(k.name), std::string::npos) << s << ": " << err;
      EXPECT_EQ(out, -12345) << s;
    }
  }
}

TEST(KnobTable, EveryRowAcceptsItsBoundsAndChoices) {
  for (const KnobRow& k : kKnobs) {
    SCOPED_TRACE(k.name);
    std::vector<std::pair<std::string, double>> good;
    if (k.number()) {
      good = {{exact(k.lo), k.lo}, {exact(k.hi), k.hi}};
    } else if (k.kind == kChoice) {
      for (size_t i = 0; i < k.choices.size(); ++i)
        good.emplace_back(std::string(k.choices[i]), static_cast<double>(i));
    } else {
      good = {{on_value(k), 0.0}};
    }
    for (const auto& [s, want] : good) {
      double out = 0;
      EXPECT_EQ(parse_knob(k, s, &out), "") << s;
      EXPECT_EQ(out, want) << s;
    }
  }
}

// The accessors cast a choice index to the policy enum: the table's choice
// order must be the enum order.
TEST(KnobTable, ChoiceIndexIsThePolicyEnum) {
  for (size_t i = 0; i < std::size(kEvictions); ++i) {
    const auto kind = static_cast<policy::EvictionKind>(i);
    EXPECT_EQ(kEvictions[i], policy::to_string(kind));
    EXPECT_TRUE(policy::parse_eviction(std::string(kEvictions[i])) ==
                kind);
  }
  for (size_t i = 0; i < std::size(kAdmissions); ++i) {
    const auto kind = static_cast<policy::AdmissionKind>(i);
    EXPECT_EQ(kAdmissions[i], policy::to_string(kind));
    EXPECT_TRUE(policy::parse_admission(std::string(kAdmissions[i])) ==
                kind);
  }
}

TEST(KnobTable, EveryNeedsRuleRefusesAndIsSatisfiedByItsKnob) {
  int rules = 0;
  for (const KnobRow& k : kKnobs) {
    if (k.needs == nullptr) continue;
    ++rules;
    SCOPED_TRACE(k.name);
    const KnobRow& need = kKnobs[find_knob(k.needs)];
    const std::string want =
        std::string(k.name) + " is set but " + need.name + " is ";
    EXPECT_TRUE(refused_with({{k.name, on_value(k)}}, want));
    EXPECT_EQ(refusal({{k.name, on_value(k)}, {need.name, on_value(need)}}),
              "");
    // Setting the needed knob to its default does not satisfy the rule.
    if (need.number()) {
      EXPECT_TRUE(refused_with(
          {{k.name, on_value(k)}, {need.name, exact(need.def)}}, want));
    }
    // Empty is unset, so it needs nothing.
    EXPECT_EQ(refusal({{k.name, ""}}), "");
  }
  EXPECT_EQ(rules, 6);
}

// A number set to a default of 0 is off, so it needs nothing; any other
// set value is in use, the default included.
TEST(KnobTable, ZeroDefaultNumbersAtZeroNeedNothing) {
  EXPECT_EQ(refusal({{"REPRO_THREADS", "0"}}), "");
  EXPECT_EQ(refusal({{"REPRO_TIMESERIES_MS", "0"}}), "");
  const std::pair<const char*, const char*> in_use[] = {
      {"REPRO_TIER_DIRTY_PCT", "0"},
      {"REPRO_TIER_DIRTY_PCT", "50"},
      {"REPRO_TIER_CPU_NSPB", "0"},
      {"REPRO_TIER_POLICY", "paper"}};
  for (const auto& [name, value] : in_use) {
    EXPECT_TRUE(refused_with(
        {{name, value}},
        std::string(name) + " is set but REPRO_TIER_MB is 0/unset"));
  }
}

TEST(KnobTable, TimeseriesWithoutJsonIsRefused) {
  EXPECT_TRUE(refused_with({{"REPRO_TIMESERIES_MS", "100"}},
                           "REPRO_TIMESERIES_MS is set but REPRO_JSON"));
}

TEST(KnobTable, ThreadsWithOneShardIsRefused) {
  EXPECT_TRUE(refused_with({{"REPRO_THREADS", "2"}, {"REPRO_SHARDS", "1"}},
                           "REPRO_THREADS is set but REPRO_SHARDS is 1/unset"));
  // perfbench's one-lane workload pins exactly this.
  EXPECT_EQ(refusal({{"REPRO_THREADS", "0"}, {"REPRO_SHARDS", "1"}}), "");
}

TEST(KnobTable, ThreadsAboveShardsIsRefused) {
  EXPECT_TRUE(refused_with({{"REPRO_THREADS", "4"}, {"REPRO_SHARDS", "2"}},
                           "REPRO_THREADS=4 exceeds REPRO_SHARDS=2"));
  EXPECT_EQ(refusal({{"REPRO_THREADS", "2"}, {"REPRO_SHARDS", "2"}}), "");
}

TEST(KnobTable, TimeseriesLongerThanTheWindowIsRefused) {
  const Env ok = {{"REPRO_JSON", "out.json"},
                  {"REPRO_SECONDS", "2"},
                  {"REPRO_TIMESERIES_MS", "2000"}};
  EXPECT_EQ(refusal(ok), "");
  Env over = ok;
  over["REPRO_TIMESERIES_MS"] = "2001";
  EXPECT_TRUE(refused_with(over,
                           "REPRO_TIMESERIES_MS (2001 ms) exceeds the "
                           "measurement window REPRO_SECONDS (2 s)"));
}

TEST(KnobTable, TraceAndJsonOnTheSameFileIsRefused) {
  const Env same = {{"REPRO_JSON", "run.json"},
                    {"REPRO_TRACE", "run.json"},
                    {"REPRO_SPAN_SAMPLE", "0.05"}};
  EXPECT_TRUE(refused_with(same, "point at the same file (run.json)"));
  Env apart = same;
  apart["REPRO_TRACE"] = "run.trace.json";
  EXPECT_EQ(refusal(apart), "");
}

TEST(KnobTable, MalformedFaultPlanIsRefused) {
  EXPECT_TRUE(refused_with({{"REPRO_FAULT_PLAN", "at=banana fail dev=ssd1"}},
                           "REPRO_FAULT_PLAN: "));
  const auto r = parse({{"REPRO_FAULT_PLAN", "at=ops:500 fail dev=ssd1"}});
  ASSERT_TRUE(r.is_ok());
  EXPECT_STREQ(r.value().path("REPRO_FAULT_PLAN"), "at=ops:500 fail dev=ssd1");
}

// An empty REPRO_SLO_MAX_DEGRADED used to arm the watchdog with 0 tolerated
// degraded domains; empty is unset, and unset is off.
TEST(KnobTable, EmptySloMaxDegradedArmsNoWatchdog) {
  const auto empty = parse({{"REPRO_SLO_MAX_DEGRADED", ""}});
  ASSERT_TRUE(empty.is_ok());
  EXPECT_FALSE(slo_policy(empty.value()).any());
  EXPECT_EQ(slo_policy(empty.value()).max_degraded_domains, -1);
  const auto zero = parse({{"REPRO_SLO_MAX_DEGRADED", "0"}});
  ASSERT_TRUE(zero.is_ok());
  EXPECT_TRUE(slo_policy(zero.value()).any());
  EXPECT_EQ(slo_policy(zero.value()).max_degraded_domains, 0);
}

TEST(KnobTable, EmptyTierPolicyWithoutTierIsAccepted) {
  const auto r = parse({{"REPRO_TIER_POLICY", ""}});
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  EXPECT_EQ(r.value()["REPRO_TIER_POLICY"], 0);
}

TEST(KnobTable, EmptyTraceIsUnset) {
  const auto r = parse({{"REPRO_TRACE", ""}});
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  EXPECT_EQ(r.value().path("REPRO_TRACE"), nullptr);
}

// An empty REPRO_JSON used to run the bench and fail to write "" after
// every run; it is unset, so nothing is written and nothing needs it.
TEST(KnobTable, EmptyJsonIsUnset) {
  const auto r = parse({{"REPRO_JSON", ""}});
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  EXPECT_EQ(r.value().path("REPRO_JSON"), nullptr);
  EXPECT_TRUE(refused_with({{"REPRO_JSON", ""}, {"REPRO_TIMESERIES_MS", "100"}},
                           "REPRO_JSON is unset"));
}

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  std::getline(ss, cell, '|');  // before the leading '|'
  while (std::getline(ss, cell, '|')) {
    const size_t a = cell.find_first_not_of(' ');
    const size_t b = cell.find_last_not_of(' ');
    cells.push_back(a == std::string::npos ? "" : cell.substr(a, b - a + 1));
  }
  return cells;
}

// EXPERIMENTS.md's "REPRO_* knob reference" names exactly the table's knobs,
// and its values/default/effect cells are the table's rendering of each row
// (the schema column is the doc's own).
TEST(KnobTable, ExperimentsDocMatchesTheTable) {
  std::ifstream in(std::string(SRCACHE_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_TRUE(in) << "cannot open EXPERIMENTS.md";
  std::string line;
  while (std::getline(in, line) && line != "## REPRO_* knob reference") {
  }
  ASSERT_FALSE(in.eof()) << "no knob reference section";
  std::map<std::string, std::vector<std::string>> doc;
  while (std::getline(in, line) && line.rfind("## ", 0) != 0) {
    if (line.rfind("| `REPRO_", 0) != 0) continue;
    std::vector<std::string> cells = split_cells(line);
    ASSERT_EQ(cells.size(), 5u) << line;
    const std::string name = cells[0].substr(1, cells[0].size() - 2);
    EXPECT_TRUE(doc.emplace(name, cells).second) << "duplicate doc row";
  }
  for (const KnobRow& k : kKnobs) {
    SCOPED_TRACE(k.name);
    const auto it = doc.find(k.name);
    if (it == doc.end()) {
      ADD_FAILURE() << "knob has no EXPERIMENTS.md row";
      continue;
    }
    EXPECT_EQ(it->second[1], knob_range_text(k));
    EXPECT_EQ(it->second[2], knob_default_text(k));
    EXPECT_EQ(it->second[4], k.doc);
  }
  for (const auto& [name, cells] : doc)
    EXPECT_LT(find_knob(name), kNumKnobs) << name << ": doc row, no knob";
}

}  // namespace
}  // namespace srcache::bench
