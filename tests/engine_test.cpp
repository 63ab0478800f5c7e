// engine::ParallelEngine: the determinism contract (bit-identical results
// for every REPRO_SHARDS/REPRO_THREADS combination), the epoch-barrier
// quiescence invariant, deterministic delivery of fault and adapt events at
// barriers, and the exactness of the per-domain merge.
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "block/block_device.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "fault/fault_injector.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "src_test_util.hpp"
#include "tier/tier_cache.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

namespace srcache {
namespace {

using engine::DomainSetup;
using engine::EngineConfig;
using engine::EngineResult;
using engine::EpochView;
using engine::ParallelEngine;

constexpr sim::SimTime kDuration = 200 * sim::kMs;

// One engine domain over the small SRC test rig: the rig, its generators,
// and (optionally) the per-domain fault injector, owned together so they
// outlive the engine run.
struct TestDomain {
  src::testutil::Rig rig;
  std::vector<std::unique_ptr<workload::Generator>> gens;
  std::vector<workload::Generator*> gen_ptrs;
  // Observability sidecar (make_obs_domain only): per-domain op-span
  // tracer, owned here so hooks and post-run assertions can reach it.
  std::unique_ptr<obs::SpanTracer> spans;
  // Compressed DRAM tier (make_tier_domain only), interposed above the rig.
  std::unique_ptr<tier::TierCache> tier;
  // Scripted fault injector (make_full_domain only).
  std::unique_ptr<fault::FaultInjector> fault;

  TestDomain() = default;
  explicit TestDomain(const src::SrcConfig& c) : rig(c) {}
};

// Builds domain `index`: a fresh small rig plus two FIO streams whose seeds
// derive from the domain index, mirroring how the bench harness partitions
// a trace group. `cfg` overrides the rig's SRC configuration (policy
// identity tests select eviction/admission through it).
DomainSetup make_test_domain(u32 index, u32 num_tenants = 0,
                             const src::SrcConfig& cfg =
                                 src::testutil::small_config()) {
  auto holder = std::make_shared<TestDomain>(cfg);
  const u64 span =
      holder->rig.cfg.region_bytes_per_ssd / kBlockSize;  // 1k blocks
  workload::FioGen::Config w;
  w.span_blocks = span * 2;  // 2x cache region: forces misses and GC
  w.req_blocks = 8;
  w.read_pct = 0;
  w.seed = 1000 + index;
  workload::FioGen::Config r = w;
  r.read_pct = 70;
  r.seed = 2000 + index;
  r.tenant = num_tenants > 1 ? 1 : 0;
  holder->gens.push_back(std::make_unique<workload::FioGen>(w));
  holder->gens.push_back(std::make_unique<workload::FioGen>(r));
  for (auto& g : holder->gens) holder->gen_ptrs.push_back(g.get());

  DomainSetup s;
  s.cache = holder->rig.cache.get();
  for (auto& d : holder->rig.ssds) s.ssds.push_back(d.get());
  s.gens = holder->gen_ptrs;
  s.cfg.threads_per_gen = 2;
  s.cfg.iodepth = 2;
  s.cfg.duration = kDuration;
  s.cfg.warmup_bytes = 256 * KiB;
  s.cfg.num_tenants = num_tenants;
  s.owned = holder;
  return s;
}

// Like make_test_domain but with the full observability stack wired in:
// op-span tracer (deterministic per-domain seed off the same derivation the
// bench harness uses; SRC child spans and events) and the cache's write-
// provenance ledger. The default record cap holds every span and event of
// these runs — asserted by the test.
DomainSetup make_obs_domain(u32 index) {
  DomainSetup s = make_test_domain(index);
  auto* holder = static_cast<TestDomain*>(s.owned.get());
  holder->spans = std::make_unique<obs::SpanTracer>(
      common::SplitMix64(9000 + index).next(), /*rate=*/0.25);
  holder->rig.cache->set_span(holder->spans.get());
  s.cfg.spans = holder->spans.get();
  s.cfg.provenance = &holder->rig.cache->provenance();
  return s;
}

// Like make_test_domain but with a compressed DRAM tier interposed above
// the rig's cache, exactly as the bench harness wires it: the engine drives
// the tier, the tier drives the SrcCache, and RunConfig::tier makes the
// closed loop report the TierOutcome block.
DomainSetup make_tier_domain(u32 index, policy::EvictionKind ev,
                             u32 num_tenants = 0) {
  DomainSetup s = make_test_domain(index, num_tenants);
  auto* holder = static_cast<TestDomain*>(s.owned.get());
  tier::TierConfig tc;
  tc.budget_bytes = 96 * kBlockSize;  // small: forces destaging + eviction
  tc.dirty_pct = 50;
  tc.eviction = ev;
  tc.destage_batch_blocks =
      static_cast<u32>(holder->rig.cfg.segment_data_slots(true));
  holder->tier = std::make_unique<tier::TierCache>(
      tc, holder->rig.cache.get(), holder->rig.cache.get());
  s.cache = holder->tier.get();
  s.cfg.tier = holder->tier.get();
  return s;
}

// Most RunResult parts at once: the (RAID-5) rig behind the tier, two
// tenants, and a fault plan that fails an SSD inside the window.
DomainSetup make_full_domain(u32 index) {
  DomainSetup s = make_tier_domain(index, policy::EvictionKind::kPaper,
                                   /*num_tenants=*/2);
  auto* holder = static_cast<TestDomain*>(s.owned.get());
  holder->fault = std::make_unique<fault::FaultInjector>(
      fault::FaultPlan::parse_or_die("at=ops:100 fail dev=ssd1"));
  holder->rig.cache->attach_faults(*holder->fault);
  s.cfg.fault = holder->fault.get();
  return s;
}

EngineResult run_engine(u32 domains, u32 shards, u32 threads,
                        ParallelEngine* prebuilt = nullptr) {
  EngineConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  ParallelEngine local(cfg);
  ParallelEngine& eng = prebuilt != nullptr ? *prebuilt : local;
  return eng.run(domains,
                 [](u32 index, u32) { return make_test_domain(index); });
}

// The serialized run is the equality witness: every field that lands in
// REPRO_JSON — stats, latency histograms, metrics, merged time series —
// must match byte for byte.
std::string fingerprint(const EngineResult& r) {
  return workload::run_json("engine_test", "run", r.merged);
}

TEST(ParallelEngine, BitIdenticalAcrossShardCounts) {
  const EngineResult serial = run_engine(8, 1, 0);
  ASSERT_GT(serial.merged.ops, 0u);
  const std::string want = fingerprint(serial);
  for (u32 shards : {2u, 3u, 8u}) {
    const EngineResult sharded = run_engine(8, shards, 0);
    EXPECT_EQ(want, fingerprint(sharded)) << shards << " shards";
    EXPECT_EQ(sharded.shards, shards);
  }
}

TEST(ParallelEngine, BitIdenticalAcrossThreadCounts) {
  const std::string one = fingerprint(run_engine(8, 4, 1));
  const std::string four = fingerprint(run_engine(8, 4, 4));
  EXPECT_EQ(one, four);
}

// The REPRO_POLICY/REPRO_ADMIT selections must not weaken the determinism
// contract: for every (eviction, admission) combination, serial, sharded
// and multi-threaded execution produce byte-identical merged results. Each
// domain owns its policy instances, so policy state never crosses shards.
TEST(ParallelEngine, BitIdenticalForEveryPolicyCombination) {
  std::vector<std::string> prints;
  for (auto ev : {policy::EvictionKind::kPaper, policy::EvictionKind::kS3Fifo,
                  policy::EvictionKind::kSieve}) {
    for (auto ad :
         {policy::AdmissionKind::kAlways, policy::AdmissionKind::kGhost}) {
      src::SrcConfig cfg = src::testutil::small_config();
      cfg.eviction = ev;
      cfg.admission = ad;
      const auto make = [&cfg](u32 index, u32) {
        return make_test_domain(index, 0, cfg);
      };
      auto run = [&make](u32 shards, u32 threads) {
        EngineConfig ec;
        ec.shards = shards;
        ec.threads = threads;
        return fingerprint(ParallelEngine(ec).run(4, make));
      };
      const std::string label = std::string(policy::to_string(ev)) + "+" +
                                policy::to_string(ad);
      const std::string serial = run(1, 0);
      EXPECT_EQ(serial, run(4, 1)) << label << " serial vs 4 shards";
      EXPECT_EQ(serial, run(4, 4)) << label << " serial vs 4x4 threads";
      prints.push_back(serial);
    }
  }
  // Sanity: a non-default policy actually changes behaviour (otherwise the
  // identity above would be vacuous). paper+always vs s3fifo+ghost.
  EXPECT_NE(prints[0], prints[3]);
}

// The compressed DRAM tier must not weaken the determinism contract: with a
// tier above every domain (for each eviction policy the REPRO_TIER_POLICY
// knob can select), serial, sharded and multi-threaded execution produce
// byte-identical merged results — including the merged TierOutcome block,
// which run_json serializes into the fingerprint.
TEST(ParallelEngine, TierIsBitIdenticalAcrossShardsAndThreads) {
  const std::string bare = fingerprint(run_engine(4, 1, 0));
  for (auto ev : {policy::EvictionKind::kPaper, policy::EvictionKind::kS3Fifo,
                  policy::EvictionKind::kSieve}) {
    const auto make = [ev](u32 index, u32) {
      return make_tier_domain(index, ev);
    };
    auto run = [&make](u32 shards, u32 threads) {
      EngineConfig ec;
      ec.shards = shards;
      ec.threads = threads;
      return ParallelEngine(ec).run(4, make);
    };
    const EngineResult serial = run(1, 0);
    const std::string label = policy::to_string(ev);
    // The tier really participated: absorbed hits, destaged write-back,
    // and its block is active in the merged result.
    EXPECT_TRUE(serial.merged.tier.active) << label;
    EXPECT_GT(serial.merged.tier.hit_blocks, 0u) << label;
    EXPECT_GT(serial.merged.tier.destage_blocks, 0u) << label;
    EXPECT_GT(serial.merged.tier.compressed_bytes, 0u) << label;
    EXPECT_LT(serial.merged.tier.compressed_bytes,
              serial.merged.tier.uncompressed_bytes)
        << label;
    const std::string want = fingerprint(serial);
    EXPECT_EQ(want, fingerprint(run(4, 1))) << label << " serial vs 4 shards";
    EXPECT_EQ(want, fingerprint(run(4, 4))) << label << " serial vs 4x4";
    // And the tier is not a no-op: the merged outcome differs from the
    // bare-cache run (otherwise the identity above proves nothing).
    EXPECT_NE(want, bare) << label;
  }
}

TEST(ParallelEngine, ShardsBeyondDomainsClampToDomains) {
  const EngineResult r = run_engine(3, 8, 0);
  EXPECT_EQ(r.shards, 3u);
  EXPECT_EQ(fingerprint(r), fingerprint(run_engine(3, 1, 0)));
}

TEST(ParallelEngine, EngineInfoAndPerfShape) {
  const EngineResult r = run_engine(4, 2, 2);
  EXPECT_TRUE(r.merged.engine.active);
  EXPECT_EQ(r.merged.engine.domains, 4u);
  EXPECT_EQ(r.merged.engine.epochs, r.epochs);
  ASSERT_EQ(r.merged.engine.per_domain.size(), 4u);
  ASSERT_EQ(r.per_domain.size(), 4u);
  u64 ops = 0, bytes = 0;
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(r.merged.engine.per_domain[d].ops, r.per_domain[d].ops);
    ops += r.per_domain[d].ops;
    bytes += r.per_domain[d].bytes;
  }
  EXPECT_EQ(r.merged.ops, ops);
  EXPECT_EQ(r.merged.bytes, bytes);
  // Per-shard perf covers every domain exactly once (lane d runs domains
  // d, d+shards, ...).
  ASSERT_EQ(r.per_shard.size(), 2u);
  EXPECT_EQ(r.per_shard[0].domains + r.per_shard[1].domains, 4u);
  EXPECT_EQ(r.per_shard[0].ops + r.per_shard[1].ops, ops);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(ParallelEngine, MergeRecomputesDerivedMetrics) {
  const EngineResult r = run_engine(4, 2, 0);
  const workload::RunResult again = engine::merge_results(r.per_domain);
  // The merged run serializes with its engine block.
  EXPECT_NE(workload::run_json("t", "r", r.merged).find("\"engine\""),
            std::string::npos);
  // merge_results itself is deterministic and pure.
  EXPECT_EQ(again.ops, r.merged.ops);
  EXPECT_DOUBLE_EQ(again.throughput_mbps, r.merged.throughput_mbps);
  EXPECT_DOUBLE_EQ(again.hit_ratio, r.merged.hit_ratio);
  EXPECT_DOUBLE_EQ(again.io_amplification, r.merged.io_amplification);
  // Derived doubles come from the exact integer aggregates.
  EXPECT_DOUBLE_EQ(
      again.throughput_mbps,
      static_cast<double>(again.bytes) / 1e6 / again.seconds);
}

// --- one derivation ---------------------------------------------------------

// ClosedLoop::finish and merge_results derive every metric through the same
// RunResult::derive(), so merging one domain's result reproduces it byte for
// byte: tier, tenants and the fault healthy/degraded split included.
TEST(MergeResults, OneDomainMergeSerializesLikeItsPart) {
  const workload::RunResult r = engine::run_one(make_full_domain(0));
  ASSERT_GT(r.fault.events_fired, 0u);
  ASSERT_GE(r.fault.first_fault_s, 0.0);
  ASSERT_GT(r.fault.degraded_bytes, 0u);
  ASSERT_GT(r.tier.hit_blocks, 0u);
  ASSERT_EQ(r.tenants.size(), 2u);
  ASSERT_GT(r.tenants[1].ops, 0u);
  EXPECT_EQ(workload::run_json("t", "r", engine::merge_results({r})),
            workload::run_json("t", "r", r));
}

// One domain under the engine (epoch barriers and all) serializes exactly
// like a ClosedLoop driven straight through on an identical rig, once the
// engine's own partition block is removed; engine::run_one, which returns
// the domain's own result, needs no removal. The reference side is an
// independent serial drive.
TEST(ParallelEngine, OneDomainReproducesTheSerialRunner) {
  const DomainSetup s = make_full_domain(0);
  workload::ClosedLoop loop(s.cache, s.ssds, s.gens, s.cfg);
  loop.warmup();
  loop.start();
  EXPECT_FALSE(loop.run_until(loop.window_end() + 1));
  const workload::RunResult serial = loop.finish();
  ASSERT_GT(serial.fault.events_fired, 0u);
  EngineResult e = ParallelEngine(EngineConfig{}).run(
      1, [](u32 index, u32) { return make_full_domain(index); });
  EXPECT_GT(e.epochs, 1u);
  e.merged.engine = {};
  const std::string want = workload::run_json("t", "r", serial);
  EXPECT_EQ(workload::run_json("t", "r", e.merged), want);
  EXPECT_EQ(workload::run_json("t", "r", engine::run_one(make_full_domain(0))),
            want);
}

// Fills every field of a stats struct (all u64 words, as the structs'
// static_asserts pin) with seeded values.
template <typename Stats>
Stats seeded_stats(common::SplitMix64& rng) {
  std::array<u64, sizeof(Stats) / sizeof(u64)> words{};
  for (u64& w : words) w = rng.next();
  Stats out;
  std::memcpy(&out, words.data(), sizeof(Stats));
  return out;
}

// (a += b) - b == a: a field missing from either operator breaks it.
template <typename Stats>
void expect_add_then_sub_is_identity(u64 seed) {
  common::SplitMix64 rng(seed);
  for (int i = 0; i < 64; ++i) {
    const Stats a = seeded_stats<Stats>(rng);
    const Stats b = seeded_stats<Stats>(rng);
    Stats sum = a;
    sum += b;
    EXPECT_EQ(sum - b, a) << "draw " << i;
  }
}

TEST(StatsAlgebra, AddThenSubtractIsIdentity) {
  expect_add_then_sub_is_identity<blockdev::DeviceStats>(11);
  expect_add_then_sub_is_identity<cache::CacheStats>(12);
  expect_add_then_sub_is_identity<tier::TierStats>(13);
}

TEST(ParallelEngine, RejectsMisconfiguration) {
  EngineConfig cfg;
  ParallelEngine eng(cfg);
  EXPECT_THROW(eng.run(0, [](u32, u32) { return make_test_domain(0); }),
               std::invalid_argument);
  EXPECT_THROW(eng.run(1, engine::DomainFactory{}), std::invalid_argument);
  // Domains disagreeing on duration break the shared barrier schedule.
  EXPECT_THROW(eng.run(2,
                       [](u32 index, u32) {
                         DomainSetup s = make_test_domain(index);
                         if (index == 1) s.cfg.duration = kDuration / 2;
                         return s;
                       }),
               std::invalid_argument);
  EXPECT_THROW(eng.run(1,
                       [](u32, u32) {
                         DomainSetup s;  // no cache
                         return s;
                       }),
               std::invalid_argument);
}

// --- epoch barriers --------------------------------------------------------

// At every barrier: hooks run on the coordinator against quiescent domains
// (no pending completion before the barrier time), in registration order,
// observing an identical deterministic sequence regardless of shard count.
TEST(ParallelEngine, EpochBarrierQuiescenceAndOrdering) {
  auto run_with_probe = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.epoch = kDuration / 4;
    ParallelEngine eng(cfg);
    std::vector<std::string> seq;
    eng.add_epoch_hook([&seq](const EpochView& v) {
      std::string line = "epoch " + std::to_string(v.epoch) + " @" +
                         std::to_string(v.rel_end) + ":";
      for (const auto& dom : *v.domains) {
        // Quiescence: nothing pending strictly before the barrier.
        EXPECT_GE(dom->rel_next_event(), v.rel_end)
            << "domain " << dom->index() << " epoch " << v.epoch;
        line += " " + std::to_string(dom->ops());
      }
      seq.push_back(line);
    });
    eng.add_epoch_hook([&seq](const EpochView& v) {
      seq.push_back("second hook " + std::to_string(v.epoch));
    });
    const EngineResult r =
        eng.run(4, [](u32 index, u32) { return make_test_domain(index); });
    EXPECT_EQ(r.epochs, 4u);
    // Hooks ran in registration order at every barrier.
    EXPECT_EQ(seq.size(), 2u * r.epochs);
    for (u32 e = 0; e < r.epochs; ++e) {
      EXPECT_EQ(seq[2 * e].rfind("epoch " + std::to_string(e), 0), 0u);
      EXPECT_EQ(seq[2 * e + 1], "second hook " + std::to_string(e));
    }
    return seq;
  };
  const std::vector<std::string> serial = run_with_probe(1);
  const std::vector<std::string> sharded = run_with_probe(4);
  EXPECT_EQ(serial, sharded);
}

// A fault-plan event delivered at a barrier (fail SSD 0 of every domain at
// epoch 1) must change the outcome — the delivery really happened — and the
// changed outcome must still be bit-identical across shard counts.
TEST(ParallelEngine, FaultDeliveryAtBarrierIsDeterministic) {
  auto run_with_fault = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.epoch = kDuration / 4;
    ParallelEngine eng(cfg);
    eng.add_epoch_hook([](const EpochView& v) {
      if (v.epoch != 1) return;
      for (const auto& dom : *v.domains) dom->ssds()[0]->fail();
    });
    return fingerprint(
        eng.run(4, [](u32 index, u32) { return make_test_domain(index); }));
  };
  const std::string baseline = fingerprint(run_engine(4, 1, 0, nullptr));
  const std::string faulted1 = run_with_fault(1);
  const std::string faulted4 = run_with_fault(4);
  EXPECT_EQ(faulted1, faulted4);
  EXPECT_NE(faulted1, baseline);
}

// Adapt-style quota decisions delivered at a barrier (shrink tenant 0's
// share on every domain's cache at epoch 2): same contract as faults.
TEST(ParallelEngine, AdaptQuotaDeliveryAtBarrierIsDeterministic) {
  auto run_with_quotas = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.epoch = kDuration / 4;
    ParallelEngine eng(cfg);
    // The factory records each domain's concrete SrcCache so the hook can
    // reach set_tenant_quotas (ShardDomain exposes the CacheDevice base).
    auto caches = std::make_shared<std::vector<src::SrcCache*>>(4, nullptr);
    eng.add_epoch_hook([caches](const EpochView& v) {
      if (v.epoch != 2) return;
      for (const auto& dom : *v.domains) {
        src::SrcCache* c = (*caches)[dom->index()];
        ASSERT_NE(c, nullptr);
        c->set_tenant_quotas({256, 128});
      }
    });
    const EngineResult r = eng.run(4, [caches](u32 index, u32) {
      DomainSetup s = make_test_domain(index, /*num_tenants=*/2);
      auto* holder = static_cast<TestDomain*>(s.owned.get());
      (*caches)[index] = holder->rig.cache.get();
      return s;
    });
    EXPECT_FALSE(r.merged.tenants.empty());
    return fingerprint(r);
  };
  EXPECT_EQ(run_with_quotas(1), run_with_quotas(4));
}

// --- observability under the engine ----------------------------------------

// Span tracing and the provenance ledger must not perturb the simulation:
// with both enabled in every domain, the fingerprint (which now serializes
// the spans and provenance blocks too) stays bit-identical across shard and
// thread counts. The per-domain tracers must also retain every span and
// event — a drop would mean the record cap silently truncated the timeline
// the identity claim is made over.
TEST(ParallelEngine, SpansAndLedgerPreserveIdentityWithZeroTraceDrops) {
  auto run_obs = [](u32 shards, u32 threads) {
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    ParallelEngine eng(cfg);
    // Keep the domain holders alive past run() so the tracers can be
    // inspected after the engine tears the rigs down.
    auto holders =
        std::make_shared<std::vector<std::shared_ptr<TestDomain>>>(4);
    const EngineResult r = eng.run(4, [holders](u32 index, u32) {
      DomainSetup s = make_obs_domain(index);
      (*holders)[index] = std::static_pointer_cast<TestDomain>(s.owned);
      return s;
    });
    for (const auto& d : *holders) {
      EXPECT_NE(d, nullptr);
      if (d == nullptr) continue;
      const obs::SpanOutcome o = d->spans->outcome();
      EXPECT_EQ(o.span_dropped, 0u) << "span records truncated";
      EXPECT_GT(d->spans->records().size(), 0u);
      EXPECT_EQ(o.spans, d->spans->records().size());
    }
    // Both observability channels actually fired.
    EXPECT_FALSE(r.merged.provenance.empty());
    EXPECT_TRUE(r.merged.spans.active);
    EXPECT_GT(r.merged.spans.ops_sampled, 0u);
    EXPECT_GT(r.merged.spans.spans, r.merged.spans.ops_sampled);
    return fingerprint(r);
  };
  const std::string serial = run_obs(1, 0);
  EXPECT_EQ(serial, run_obs(4, 0));
  EXPECT_EQ(serial, run_obs(4, 4));
}

// An SLO watchdog fed cumulative merged state at every barrier (the same
// hook shape the bench harness installs) produces a verdict stream that is
// part of the fingerprint and bit-identical across shard counts.
TEST(ParallelEngine, SloWatchdogAtBarriersIsDeterministic) {
  auto run_slo = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.epoch = kDuration / 4;
    ParallelEngine eng(cfg);
    obs::SloPolicy policy;
    policy.min_throughput_mbps = 1e9;  // unreachable: every epoch violates
    policy.max_degraded_domains = 0;   // no device ever fails here
    auto watchdog = std::make_shared<obs::SloWatchdog>(policy);
    eng.add_epoch_hook([watchdog](const EpochView& v) {
      u64 ops = 0;
      u64 bytes = 0;
      common::Histogram reads;
      common::Histogram writes;
      u32 degraded = 0;
      for (const auto& dom : *v.domains) {
        ops += dom->ops();
        bytes += dom->bytes();
        reads.merge(dom->latency().reads());
        writes.merge(dom->latency().writes());
        bool any_failed = false;
        for (const blockdev::BlockDevice* d : dom->ssds())
          any_failed = any_failed || d->failed();
        if (any_failed) ++degraded;
      }
      watchdog->observe_epoch(v.rel_end, ops, bytes, reads, writes, degraded);
    });
    EngineResult r =
        eng.run(4, [](u32 index, u32) { return make_test_domain(index); });
    r.merged.slo = watchdog->outcome();
    EXPECT_TRUE(r.merged.slo.active);
    EXPECT_EQ(r.merged.slo.epochs, r.epochs);
    EXPECT_EQ(r.merged.slo.violations, r.epochs);  // throughput never met
    EXPECT_EQ(r.merged.slo.degraded_epochs, 0u);
    EXPECT_TRUE(r.merged.slo.breached);
    return fingerprint(r);
  };
  EXPECT_EQ(run_slo(1), run_slo(4));
}

// --- time-series merge edge cases ------------------------------------------

// Domains may close different sample counts (a domain that finished its last
// request just before a boundary closes one fewer interval). The merge
// matches samples by index up to the *maximum* count: indices past a
// domain's end simply get no contribution from it, and "util.*" series
// average over the domains actually reporting at that index — never over
// the full domain count.
TEST(MergeResults, TimeseriesMergesUnequalSampleCountsByIndex) {
  const sim::SimTime iv = 100 * sim::kMs;
  workload::RunResult a;
  a.seconds = 0.2;
  a.timeseries.interval = iv;
  a.timeseries.window_start = 10 * iv;  // anchors differ between domains
  obs::TimeSample a0;
  a0.start = 10 * iv;
  a0.end = 11 * iv;
  a0.ops = 10;
  a0.bytes = 1000000;
  a0.app_blocks = 10;
  a0.hits = 6;
  a0.misses = 4;
  a0.io_amplification = 2.0;
  a0.series["gc.erases"] = 3.0;
  a0.series["util.ssd.0.nand"] = 0.5;
  obs::TimeSample a1 = a0;
  a1.start = 11 * iv;
  a1.end = 12 * iv;
  a1.ops = 20;
  a1.bytes = 2000000;
  a1.app_blocks = 20;
  a1.hits = 20;
  a1.misses = 0;
  a1.io_amplification = 1.5;
  a1.series.clear();
  a1.series["util.ssd.0.nand"] = 1.0;
  a.timeseries.samples = {a0, a1};

  workload::RunResult b;
  b.seconds = 0.2;
  b.timeseries.interval = iv;
  b.timeseries.window_start = 50 * iv;
  obs::TimeSample b0;
  b0.start = 50 * iv;
  b0.end = 51 * iv;
  b0.ops = 30;
  b0.bytes = 3000000;
  b0.app_blocks = 30;
  b0.hits = 0;
  b0.misses = 30;
  b0.io_amplification = 4.0;
  b0.series["gc.erases"] = 1.0;
  b0.series["util.ssd.0.nand"] = 0.7;
  b0.series["util.hdd.link"] = 0.4;  // only domain b has a primary here
  b.timeseries.samples = {b0};

  const workload::RunResult m = engine::merge_results({a, b});
  const obs::TimeSeries& ts = m.timeseries;
  EXPECT_EQ(ts.interval, iv);
  EXPECT_EQ(ts.window_start, 0);
  ASSERT_EQ(ts.samples.size(), 2u);  // max over domains, not min

  // Sample 0: both domains contribute; re-anchored at 0.
  const obs::TimeSample& s0 = ts.samples[0];
  EXPECT_EQ(s0.start, 0);
  EXPECT_EQ(s0.end, iv);
  EXPECT_EQ(s0.ops, 40u);
  EXPECT_EQ(s0.bytes, 4000000u);
  EXPECT_EQ(s0.hits, 6u);
  EXPECT_EQ(s0.misses, 34u);
  EXPECT_DOUBLE_EQ(s0.hit_ratio, 6.0 / 40.0);
  EXPECT_DOUBLE_EQ(s0.throughput_mbps, 4.0 / 0.1);  // 4 MB over 100 ms
  // SSD-blocks numerator reconstructed per domain: 2*10 + 4*30 over 40.
  EXPECT_DOUBLE_EQ(s0.io_amplification, 140.0 / 40.0);
  // Extensive series sum; util averages over the two reporters.
  EXPECT_DOUBLE_EQ(s0.series.at("gc.erases"), 4.0);
  EXPECT_DOUBLE_EQ(s0.series.at("util.ssd.0.nand"), 0.6);
  // A util series only one domain reports is NOT divided by the domain
  // count — the other domain has no such resource, not an idle one.
  EXPECT_DOUBLE_EQ(s0.series.at("util.hdd.link"), 0.4);

  // Sample 1: only domain a reaches index 1; its values pass through
  // unscaled and the util series is untouched (single reporter).
  const obs::TimeSample& s1 = ts.samples[1];
  EXPECT_EQ(s1.start, iv);
  EXPECT_EQ(s1.end, 2 * iv);
  EXPECT_EQ(s1.ops, 20u);
  EXPECT_EQ(s1.bytes, 2000000u);
  EXPECT_DOUBLE_EQ(s1.hit_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s1.io_amplification, 1.5);
  EXPECT_DOUBLE_EQ(s1.series.at("util.ssd.0.nand"), 1.0);
  EXPECT_EQ(s1.series.count("gc.erases"), 0u);
  EXPECT_EQ(s1.series.count("util.hdd.link"), 0u);
}

// A domain whose run produced no samples at all (sampler disabled or the
// window closed before the first boundary) must not shrink or poison the
// merged series.
TEST(MergeResults, TimeseriesIgnoresDomainsWithoutSamples) {
  const sim::SimTime iv = 100 * sim::kMs;
  workload::RunResult empty;
  empty.seconds = 0.1;
  empty.timeseries.interval = iv;  // enabled, but closed zero intervals
  workload::RunResult full = empty;
  obs::TimeSample s;
  s.start = 7 * iv;
  s.end = 8 * iv;
  s.ops = 5;
  s.bytes = 500000;
  s.app_blocks = 5;
  s.hits = 5;
  s.io_amplification = 3.0;
  s.series["util.ssd.0.nand"] = 0.25;
  full.timeseries.window_start = 7 * iv;
  full.timeseries.samples = {s};

  const workload::RunResult m = engine::merge_results({empty, full});
  ASSERT_EQ(m.timeseries.samples.size(), 1u);
  const obs::TimeSample& s0 = m.timeseries.samples[0];
  EXPECT_EQ(s0.start, 0);  // anchored by the only contributor
  EXPECT_EQ(s0.end, iv);
  EXPECT_EQ(s0.ops, 5u);
  EXPECT_DOUBLE_EQ(s0.io_amplification, 3.0);
  EXPECT_DOUBLE_EQ(s0.series.at("util.ssd.0.nand"), 0.25);
}

}  // namespace
}  // namespace srcache
