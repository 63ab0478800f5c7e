#!/usr/bin/env python3
"""Simulator benchmark: builds simbench from source, runs one workload
repeatedly for a fixed host time, checks the simulated output, and prints
every metric by name and unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

--seed picks TRACE_SETS trace sets; the repetitions take them in turn.
--trace 0 reports the end-to-end metrics, measured untraced. --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics. perfbench/README.md defines every metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "simbench")
# Sources the benchmark compiles besides its own directory.
REQUIRED = ("CMakeLists.txt", "src/CMakeLists.txt", "bench/harness.hpp")

WORKLOADS = ("write_src", "read_tier", "mixed_tier")
# Trace sets per run. Host cost per op differs from one trace set to the
# next (see README.md), so a run averages over several.
TRACE_SETS = 4
MIN_REPS = 2 * TRACE_SETS  # untraced repetitions per --trace 0 run
MIN_PAIRS = TRACE_SETS     # untraced + traced pairs per --trace 1 run
MAX_REPS = 60
REP_TIMEOUT_S = 150

# (name, unit, source). Every metric is a mean over the run's trace sets
# of a per-set value: "median" is the set's median untraced repetition,
# and "sim" its exact simulated value, identical in every repetition of
# the set. A run holds some 30 repetitions of each gated workload (7 or 8
# per trace set), so the medians are steady against the short slow-downs a
# shared host brings (see README.md).
END_TO_END = [
    ("sim_ops_per_s", "ops/s", "median"),
    ("setup_s", "s", "median"),
    ("wall_s", "s", "median"),
    ("peak_rss_mb", "MiB", "median"),
    ("sim_mbps", "MB/s", "sim"),
    ("hit_ratio", "ratio", "sim"),
    ("io_amplification", "ratio", "sim"),
    ("flash_write_mib", "MiB", "sim"),
    ("read_p50_us", "us", "sim"),
    ("read_p99_us", "us", "sim"),
    ("write_p50_us", "us", "sim"),
    ("write_p99_us", "us", "sim"),
]
SAMPLE_COUNTS = {"read_p50_us": "read_samples", "read_p99_us": "read_samples",
                 "write_p50_us": "write_samples",
                 "write_p99_us": "write_samples"}

# (name, unit, source), each a mean over the run's trace sets: "traced"
# values are medians over a set's traced repetitions, "plain" medians over
# its untraced ones, "count" exact window counts, "overhead" the
# traced/untraced ratio of the window times minus 1.
PER_LAYER = [
    ("workload.calls", "count", "count"),
    ("workload.self_s", "s", "traced"),
    ("loop.self_s", "s", "traced"),
    ("obs.self_s", "s", "plain"),
    ("tier.calls", "count", "count"),
    ("tier.self_s", "s", "traced"),
    ("tier.hit_ratio", "ratio", "count"),
    ("tier.destage_blocks", "blocks", "count"),
    ("tier.compression_ratio", "ratio", "count"),
    ("src_cache.calls", "count", "count"),
    ("src_cache.self_s", "s", "traced"),
    ("src_cache.hit_ratio", "ratio", "count"),
    ("src_cache.gc_copy_blocks", "blocks", "count"),
    ("src_cache.destage_blocks", "blocks", "count"),
    ("src_cache.fetch_blocks", "blocks", "count"),
    ("flash.calls", "count", "count"),
    ("flash.self_s", "s", "traced"),
    ("flash.read_blocks", "blocks", "count"),
    ("flash.write_blocks", "blocks", "count"),
    ("flash.flushes", "count", "count"),
    ("flash.gc_pages_copied", "pages", "count"),
    ("flash.nand_wa", "ratio", "count"),
    ("hdd.calls", "count", "count"),
    ("hdd.self_s", "s", "traced"),
    ("hdd.read_blocks", "blocks", "count"),
    ("hdd.write_blocks", "blocks", "count"),
    ("engine.lane_busy_max_s", "s", "plain"),
    ("engine.lane_busy_mean_s", "s", "plain"),
    ("engine.barrier_wait_s", "s", "plain"),
    ("engine.epochs", "count", "count"),
    ("setup.build_s", "s", "plain"),
    ("setup.warmup_s", "s", "plain"),
    ("trace.overhead", "ratio", "overhead"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_declared():
    """The metric tables above must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = [(m["name"], m["unit"]) for m in declared[key]]
        if names != [(name, unit) for name, unit, _ in table]:
            fail(f"BENCHMARK.json {key} does not match perfbench/run.py")


def build():
    for rel in REQUIRED:
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"missing {rel}: run from a full source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", SOURCE, "-B", BUILD]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "simbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_rep(workload, mode, seed):
    cmd = [BINARY, "--workload", workload, "--mode", mode, "--seed",
           str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}/{mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def trace_seeds(seed):
    """The run's trace-set seeds: distinct for distinct --seed values."""
    return [seed * TRACE_SETS + i for i in range(TRACE_SETS)]


def set_mean(reps, value):
    """Mean over trace sets of the median of value(rep) within each set."""
    sets = {}
    for r in reps:
        sets.setdefault(r["seed"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in sets.values())


def median(reps, key):
    return set_mean(reps, lambda r: r["host"][key])


def check(plain, traced, references):
    """Returns a list of failed correctness checks."""
    problems = []
    for rep in plain + traced:
        sim = rep["sim"]
        digest = references[rep["seed"]]["sim"]["digest"]
        tag = f"{rep['mode']} run of trace set {rep['seed']}"
        if sim["digest"] != digest:
            problems.append(
                f"{tag} simulated {sim['digest']}, the paper bench's code "
                f"path simulated {digest}")
        if sim["ops_failed"] > 0:
            problems.append(f"{tag}: {sim['ops_failed']} ops failed")
        if not sim["provenance_balanced"]:
            problems.append(f"{tag}: write provenance does not balance "
                            "against cache-SSD write blocks")
    return problems


def measure(workload, seed, seconds, trace):
    """Runs one workload; returns (correct, attempted, failed, metrics,
    report lines)."""
    seeds = trace_seeds(seed)
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    # Whole rounds only, so every trace set has as many repetitions.
    while len(plain) < MAX_REPS:
        enough = len(traced) >= MIN_PAIRS if trace else len(plain) >= MIN_REPS
        if enough and time.monotonic() >= deadline:
            break
        for s in seeds:
            plain.append(run_rep(workload, "plain", s))
            if trace:
                traced.append(run_rep(workload, "traced", s))
    references = {s: run_rep(workload, "reference", s) for s in seeds}
    problems = check(plain, traced, references)

    digests = " ".join(references[s]["sim"]["digest"] for s in seeds)
    lines = [f"{workload} seed={seed} trace={trace}: {len(plain)} untraced, "
             f"{len(traced)} traced repetitions over trace sets "
             f"{seeds[0]}-{seeds[-1]}, digests {digests}"]
    metrics = {}
    if not trace:
        for name, unit, source in END_TO_END:
            if source == "median":
                value = median(plain, name)
            else:
                value = set_mean(plain, lambda r: r["sim"][name])
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if name in SAMPLE_COUNTS:
                counts = "/".join(str(references[s]["sim"][
                    SAMPLE_COUNTS[name]]) for s in seeds)
                note = f"  (n={counts} per trace set)"
            lines.append(f"  {name:<18} {value:>16.6g} {unit}{note}")
    else:
        for name, unit, source in PER_LAYER:
            if source == "overhead":
                value = (median(traced, "window_s") /
                         median(plain, "window_s") - 1.0)
            elif source == "plain":
                value = median(plain, name)
            else:
                value = median(traced, name)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<26} {value:>16.6g} {unit}")
    for p in problems:
        lines.append(f"  CHECK FAILED: {p}")
    attempted = sum(r["sim"]["ops"] for r in plain + traced)
    failed = sum(r["sim"]["ops_failed"] for r in plain + traced)
    return not problems, attempted, failed, metrics, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    check_declared()
    build()
    if args.workload != "all":
        correct, attempted, failed, metrics, lines = measure(
            args.workload, args.seed, args.seconds, args.trace)
    else:
        # Every workload, untraced then traced; metric names gain the
        # workload as a prefix.
        correct, attempted, failed, metrics, lines = True, 0, 0, {}, []
        for workload in WORKLOADS:
            for trace in (0, 1):
                ok, att, fl, met, lns = measure(workload, args.seed,
                                                args.seconds, trace)
                correct = correct and ok
                attempted += att
                failed += fl
                metrics.update({f"{workload}.{k}": v for k, v in met.items()})
                lines.extend(lns)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
