#!/usr/bin/env python3
"""Build and run the subvt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. The last stdout line is the result JSON;
        the line before it is the full report (stamp, sample counts,
        which statistic each metric is).

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
        Every workload once, then a table of every metric with its unit,
        sample count and statistic.

    python3 perfbench/run.py --steady
        Steadiness check: two sets of RUNS runs of the same build on
        every workload, each run with its own seed. Per (end-to-end
        metric, workload) the sets agree when the shift of the second
        median from the first, either way, is within the metric's bound
        in BENCHMARK.json, and so is the spread of each set
        (interquartile range over median), except for setup_s.

The benchmark is built from source on every invocation (a no-op when
up to date) into $CARGO_TARGET_DIR, default .bench_build at the root of
the tree.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tcad-extract", "spice-circuits", "serve-hot", "serve-oneshot"]
# A run must finish within 180 s; the benchmark stops itself before that.
RUN_TIMEOUT_S = 175
# Runs per set in the steadiness check.
RUNS = 10


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark and the daemon it drives; returns the binary."""
    tdir = target_dir()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "subvt-serve", "--bins",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=tdir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(tdir, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # Its own process group, so a timeout also stops the daemons and
    # set-up processes the benchmark started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, stop_group)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def report_of(lines):
    """The full report line of a run (the line before the result)."""
    for line in reversed(lines):
        if line.startswith('{"perfbench":'):
            return json.loads(line)["perfbench"]
    raise ValueError("no report line")


def spread(values):
    """Interquartile range over median, quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(metric, set_a, set_b):
    """Agreement of one (metric, workload) between two sets of runs:
    the shift of the medians, in either direction, and both spreads
    within the metric's bound. setup_s is exempt from the spread test:
    a set-up of a few milliseconds carries the host's speed at one
    moment, which drifts by more than the bound from run to run, while
    its median over ten runs holds."""
    med_a = statistics.median(set_a)
    med_b = statistics.median(set_b)
    spreads = [spread(set_a), spread(set_b)]
    worse = worse_by(med_a, med_b, metric["better"])
    bound = metric["bound"]
    return {
        "median_a": med_a,
        "median_b": med_b,
        "spread_a": spreads[0],
        "spread_b": spreads[1],
        "worse": worse,
        "bound": bound,
        "agree": abs(worse) <= bound
        and (metric["name"] == "setup_s" or max(spreads) <= bound),
    }


def table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def main_all(args):
    binary = build()
    rows = [("workload", "metric", "value", "unit", "samples", "statistic")]
    failed = False
    for w in WORKLOADS:
        code, lines = run_once(binary, w, args.seed, args.seconds, args.trace, echo=False)
        if code != 0:
            print(f"{w}: exit {code}", file=sys.stderr)
            failed = True
            continue
        rep = report_of(lines)
        rows.append((w, "failed_frac", rep["failed_frac"], "ratio", rep["attempted"], "failed/attempted"))
        for m in rep["metrics"]:
            value = m["value"] if m["value"] is None else f"{m['value']:.6g}"
            rows.append((w, m["name"], value, m["unit"], m["samples"], m["stat"]))
    table(rows)
    return 1 if failed else 0


def main_steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    rows = [("workload", "metric", "median A", "median B", "spread A", "spread B",
             "worse", "bound", "agree")]
    all_agree = True
    for w in [w["name"] for w in spec["workloads"]]:
        sets = []
        for base in (1, 1001):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(base, base + RUNS):
                code, lines = run_once(binary, w, seed, seconds, 0, echo=False)
                result = json.loads(lines[-1]) if code == 0 and lines else None
                if result is None or not result["correct"]:
                    print(f"{w} seed {seed}: run failed (exit {code})", file=sys.stderr)
                    return 1
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{k}={v[-1]:.6g}" for k, v in values.items()), file=sys.stderr)
            sets.append(values)
        for metric in spec["end_to_end"]:
            v = verdict(metric, sets[0][metric["name"]], sets[1][metric["name"]])
            all_agree &= v["agree"]
            rows.append((w, metric["name"], f"{v['median_a']:.6g}", f"{v['median_b']:.6g}",
                         f"{v['spread_a']:.3f}", f"{v['spread_b']:.3f}", f"{v['worse']:+.3f}",
                         v["bound"], "yes" if v["agree"] else "NO"))
    table(rows)
    return 0 if all_agree else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.steady:
        return main_steady(args)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.workload is None:
        return main_all(args)
    binary = build()
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
