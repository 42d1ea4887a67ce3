#!/usr/bin/env python3
"""The stpq benchmark: builds the harness from source and runs workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --seed N             # every workload in turn
  python3 perfbench/run.py --self-test          # checker self-test
  python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json
  python3 perfbench/run.py --spread N [--workload NAME] [--seconds S]
      # run N seeds per workload and record each end-to-end metric's
      # run-to-run spread in perfbench/spread.json

The harness (perfbench/harness, built with perfbench/CMakeLists.txt into
.bench_build/perfbench) generates the dataset and queries from the seed,
sets the engine up, runs the untimed warm-up and the timed closed loop,
checks the answers and prints every metric with its unit.  End-to-end times
are reported at a nominal host speed: the harness runs a fixed reference
unit after each query and around each set-up and scales by its time
(harness/common.h, harness/workload.h); the times as measured are printed
as info lines.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The exit code is
non-zero when a check fails or the run cannot be carried out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "stpq_perfbench")
SPREAD_FILE = os.path.join(HERE, "spread.json")

# Each workload's reason for existing; BENCHMARK.json carries the same
# lines.  The shapes are defined in harness/workload.cc.
WORKLOADS = [
    ("range_mem",
     "50K objects, 2x50K features, SRT, STPS range, cold isolated sessions, "
     "1 client: the pure algorithm and index path; component_score is most "
     "of its CPU"),
    ("file_shared_pool",
     "real-like scale 1.0, IR2, both index writers, page-cache drop, "
     "Engine::Open, one warm LRU pool of a quarter of the pages, 2 clients: "
     "write path, fetch, eviction, pool contention"),
    ("nn_voronoi",
     "10K objects, 2x10K features, SRT, STPS nearest-neighbour variant, "
     "1 client: Voronoi cell construction and hit-heavy pool access"),
]

# (name, unit, better, bound).  Bounds are shares of the parent's median;
# perfbench/spread.json records the run-to-run spread behind each.
END_TO_END = [
    ("qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("page_reads_per_query", "count", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("index_bytes_per_record", "bytes", "lower", 0.05),
]

# (name, unit, better).  Metrics a workload does not exercise read 0.
PER_LAYER = [
    ("core.component_score_ms_per_query", "ms", "lower"),
    ("core.combination_ms_per_query", "ms", "lower"),
    ("core.object_retrieval_ms_per_query", "ms", "lower"),
    ("core.voronoi_ms_per_query", "ms", "lower"),
    ("core.untraced_ms_per_query", "ms", "lower"),
    ("core.engine_overhead_ms_per_query", "ms", "lower"),
    ("core.build_ms", "ms", "lower"),
    ("core.features_retrieved_per_query", "count", "lower"),
    ("core.combinations_emitted_per_query", "count", "lower"),
    ("core.objects_scored_per_query", "count", "lower"),
    ("core.heap_pushes_per_query", "count", "lower"),
    ("core.voronoi_cells_per_query", "count", "lower"),
    ("core.voronoi_clip_features_per_query", "count", "lower"),
    ("index.feature_nodes_visited_per_query", "count", "lower"),
    ("index.feature_pruned_per_visit", "count", "lower"),
    ("index.feature_useful_ratio", "ratio", "higher"),
    ("index.object_nodes_visited_per_query", "count", "lower"),
    ("index.object_useful_ratio", "ratio", "higher"),
    ("storage.object_reads_per_query", "count", "lower"),
    ("storage.feature_reads_per_query", "count", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.store_fetches_per_query", "count", "lower"),
    ("storage.store_bytes_per_query", "bytes", "lower"),
    ("storage.shared_pool_scaling", "ratio", "higher"),
    ("storage.store_io_errors", "count", "lower"),
    ("io.dataset_write_ms", "ms", "lower"),
    ("io.save_ms", "ms", "lower"),
    ("io.external_build_ms", "ms", "lower"),
    ("io.external_runs_written", "count", "lower"),
    ("io.external_merge_passes", "count", "lower"),
    ("io.external_spilled_bytes", "bytes", "lower"),
    ("io.open_ms", "ms", "lower"),
    ("io.first_pass_ms", "ms", "lower"),
    ("io.steady_pass_ms", "ms", "lower"),
    ("io.resident_after_drop_ratio", "ratio", "lower"),
    ("obs.tracing_overhead_ratio", "ratio", "higher"),
    ("obs.reconcile_residual_ratio", "ratio", "lower"),
    ("obs.trace_phase_coverage_ratio", "ratio", "higher"),
    ("obs.trace_events_per_query", "count", "lower"),
]

RUN_SECONDS = 20
# A run must end within 180 s; the harness is stopped well before that.
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def build():
    """Configures (once) and builds the harness; build output goes to
    stderr so the result stays the last line of stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the stpq sources (src/) are not next to perfbench/; run from "
             "the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s: %s" % (" ".join(step), e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def check_result(line, trace):
    """Checks the harness's last line against the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON: " + line[:200]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, "unexpected keys " + ", ".join(sorted(result))
    want = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return None, ("metrics differ from the manifest: missing %s, "
                      "extra %s, wrong unit %s" % (missing, extra, units))
    if result["attempted"] < 1:
        return None, "no query attempted"
    return result, None


def run_once(workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, stdout lines)."""
    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return 2, ["error: harness did not finish within %d s"
                   % HARNESS_TIMEOUT_S]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def run(args):
    """Runs the named workload, or every workload in turn; exits 1 when a
    check failed in any of them."""
    build()
    names = [args.workload] if args.workload else [n for n, _ in WORKLOADS]
    worst = 0
    for name in names:
        code, lines = run_once(name, args.seed, args.seconds, args.trace == 1)
        if code not in (0, 1) or not lines:
            print("\n".join(lines))
            fail("harness exited with code %d" % code)
        _, error = check_result(lines[-1], args.trace == 1)
        print("\n".join(lines[:-1]))
        if error:
            fail(error)
        print(lines[-1])
        sys.stdout.flush()
        worst = max(worst, code)
    sys.exit(worst)


def spread(args):
    """Runs `args.spread` seeds per workload and records, per end-to-end
    metric, the median and the interquartile range as a share of it."""
    build()
    names = [args.workload] if args.workload else [n for n, _ in WORKLOADS]
    record = {}
    if os.path.isfile(SPREAD_FILE):
        with open(SPREAD_FILE) as f:
            record = json.load(f)
    for name in names:
        values = {}
        incorrect = []
        for seed in range(1, args.spread + 1):
            code, lines = run_once(name, seed, args.seconds, False)
            result, error = check_result(lines[-1] if lines else "", False)
            if error:
                print("\n".join(lines))
                fail("%s seed %d: %s" % (name, seed, error))
            if code != 0 or not result["correct"]:
                # The metrics were measured all the same; the failed
                # checks are printed and the seed is recorded.
                print("\n".join(l for l in lines if l.startswith("FAILED")))
                incorrect.append(seed)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[metric] = {"median": median,
                            "iqr_share": (q3 - q1) / median if median else 0.0,
                            "values": vals}
            print("%-18s %-24s median %14.4f  iqr/median %.4f"
                  % (name, metric, median, rows[metric]["iqr_share"]))
        record[name] = {"seconds": args.seconds, "seeds": args.spread,
                        "incorrect_seeds": incorrect, "metrics": rows}
        with open(SPREAD_FILE, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return
    if args.self_test:
        build()
        sys.exit(subprocess.run([HARNESS, "--self-test"], check=False)
                 .returncode)
    if args.spread:
        spread(args)
        return
    if args.seed is None:
        parser.error("--seed is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run(args)


if __name__ == "__main__":
    main()
