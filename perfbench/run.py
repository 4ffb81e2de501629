#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's input
from the seed into a temporary directory under `.perfbench_tmp`, then runs
repetitions, each in a fresh process, until `--seconds` have passed. Every
answer is checked against the exact rank of the input.

With `--trace 0` it reports the end-to-end metrics: medians over the
repetitions, with run_s and the latency percentiles taken over the runs and
calls of all repetitions together. Setup and run times leave out the time
the hypervisor held the CPUs back (steal), and all times are scaled to a
reference host speed by a probe timed around every span (see
`src/speed.rs`); the wall times are printed on a `#` line beside them.
With `--trace 1` it alternates plain and traced repetitions, reports the
per-layer metrics of the traced ones and the tracing overhead, and fails if
a traced repetition's layer self times do not add up to its run_s.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": answers, "failed": answers, "metrics": {...}}.
The exit code is non-zero if any answer missed its rank bound, a repetition
failed, or the layer-sum check failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# No repetition starts this long after the build, and any still running
# this long after it is killed and counts as failed, so a run ends within
# 180 s.
LAST_START_S = 140
DEADLINE_S = 170
# Fewest repetitions of each kind (plain, and traced with --trace 1).
MIN_REPS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")
    return target.resolve() / "release" / "perfbench"


def run_json(cmd, timeout):
    """Run `cmd`; return the JSON object on its last stdout line, or None."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    if p.returncode != 0:
        log(f"exit {p.returncode}: {' '.join(cmd)}\n{p.stderr.strip()}")
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"no JSON from: {' '.join(cmd)}")
        return None


def environment(workload, seed):
    """What every result is recorded with."""
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    # A checkout without git history is identified by its sources instead.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "crates").rglob("*")):
        if path.is_file() and "target" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "rustc": rustc,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        **workload,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(max(math.ceil(p * len(ordered)), 1), len(ordered)) - 1]


def end_to_end(reps):
    """One value per end-to-end metric. Each repetition pays one cold setup,
    then times several runs and thousands of calls: setup and memory are
    medians over repetitions, run_s and the latency percentiles are taken
    over the pooled samples of all of them."""
    def pooled(key):
        return [v for r in reps for v in r[key]]
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "run_s": median(pooled("run_samples")),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "sketch_mem_elems": median([r["sketch_mem_elems"] for r in reps]),
        "insert_p99_us": percentile(pooled("insert_us"), 0.99),
        "query_p50_us": percentile(pooled("query_us"), 0.50),
        "query_p95_us": percentile(pooled("query_us"), 0.95),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    binary = build()
    started = time.monotonic()
    workload = run_json([str(binary), "describe", "--workload", args.workload], 60)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    print("# env " + json.dumps(environment(workload, args.seed)), flush=True)

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        rep_cmd = [str(binary), "rep", "--workload", args.workload, "--seed", str(args.seed)]
        if workload["needs_input"]:
            input_path = tmp / "input.txt"
            gen = [str(binary), "gen", "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(input_path)]
            if run_json(gen, DEADLINE_S) is None:
                raise SystemExit("perfbench: input generation failed")
            rep_cmd += ["--input", str(input_path)]

        plain, traced = [], []
        attempted = failed = 0
        layer_sums_ok = True
        rep_walls = []
        measure_start = time.monotonic()
        while True:
            elapsed = time.monotonic() - measure_start
            reps = len(plain) + len(traced)
            if time.monotonic() - started > LAST_START_S:
                break
            # Stop when the next repetition would end past --seconds.
            typical = median(rep_walls) if rep_walls else 0.0
            enough = len(plain) >= MIN_REPS and (args.trace == 0 or len(traced) >= MIN_REPS)
            if enough and elapsed + typical > args.seconds:
                break
            rep_start = time.monotonic()
            # Traced mode alternates plain and traced repetitions, so the
            # tracing overhead compares neighbours in time.
            is_traced = args.trace == 1 and reps % 2 == 1
            timeout = DEADLINE_S - (time.monotonic() - started)
            rep = run_json(rep_cmd + (["--traced"] if is_traced else []), timeout)
            rep_walls.append(time.monotonic() - rep_start)
            if rep is None:
                attempted += workload["answers_per_rep"]
                failed += workload["answers_per_rep"]
                continue
            attempted += rep["answers"]
            failed += len(rep["failed"])
            for miss in rep["failed"]:
                log(f"answer missed its rank bound: {json.dumps(miss)}")
            if is_traced:
                if not rep["layer_sum_ok"]:
                    layer_sums_ok = False
                    log(f"layer self times {rep['self_times']} miss run_s "
                        f"{rep['run_wall_samples'][0]} by more than "
                        f"{workload['layer_sum_tolerance']} of it")
                traced.append(rep)
            else:
                plain.append(rep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if not plain or (args.trace == 1 and not traced):
        raise SystemExit("perfbench: no repetition succeeded")
    if args.trace == 0:
        metrics = end_to_end(plain)
        count = len(plain)
    else:
        metrics = {}
        for n in names:
            if n == "obs.trace_overhead_frac":
                # A traced repetition times one run, so it is compared with
                # the first run of each plain repetition.
                run_plain = median([r["run_samples"][0] for r in plain])
                run_traced = median([r["run_samples"][0] for r in traced])
                metrics[n] = run_traced / run_plain - 1
            else:
                metrics[n] = median([r["layers"][n] for r in traced])
        count = len(traced)
    for n in names:
        print(f"# {n} {metrics[n]} {units[n]} (median of {count} repetitions)")
    reps = plain + traced
    walls = [v for r in reps for v in r["run_wall_samples"]]
    probes = [v for r in reps for v in r["probe_s"]]
    stolen = [v for r in reps for v in r["run_stolen_s"]]
    print(f"# wall setup_s {median([r['setup_wall_s'] for r in reps])} s, "
          f"wall run_s {median(walls)} s (median of {len(walls)} runs), "
          f"steal per run {median(stolen)} s (max {max(stolen)}), "
          f"probe {median(probes)} s (median of {len(probes)})")
    print(f"# fail_frac {failed / max(attempted, 1)} ({failed} of {attempted} answers)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 and layer_sums_ok else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through `finally`: subprocess.run kills and reaps
    # the running repetition, and the temporary input is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
