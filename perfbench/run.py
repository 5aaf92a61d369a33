"""iseasim benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

usage (from the repository root):
    python3 perfbench/run.py --workload fdm-sweep [--seed 0] [--seconds 55] [--trace 0]

Every repetition of the workload runs in a fresh process, one at a time,
with workers=1, ISEASIM_WORKERS removed, a fixed PYTHONHASHSEED and the
BLAS/OpenMP thread pools capped at nproc.  Before the repetitions, a
warm-up and SETUP_PROBES more processes only set up, so `setup_s` has
several samples.  Repetitions
repeat until the next one would end after --seconds (at least
MIN_REPETITIONS, or one untraced/traced pair with --trace 1).  Each
repetition's outputs are checked (checks.py), and all repetitions of a
run must produce the same bytes.

Prints every metric with its unit and sample count, the machine and
version info and each CSV's sha256, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A repetition is one
attempted operation; it fails on a failed check, a NonConvergenceError
or any other exception.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
MIN_REPETITIONS = 2
TIME_LIMIT_S = 170.0        # the whole run, child processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "instances_per_s": "instances/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {**{name: spec[0] for name, spec in tracing.LAYER_METRICS.items()},
             "trace.overhead_s": "s", "excluded_frac": "ratio", "checks_failed": "count"}


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "ISEASIM_WORKERS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"   # the same dict and set layouts in every process
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def machine_info(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "commit": git_commit(root)}


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Starts the workload processes of one benchmark run, one at a time."""

    def __init__(self, root, workload, config_path, out_dir, deadline):
        self.cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, config_path]
        self.env = child_env(root)
        self.root = root
        self.out_dir = out_dir
        self.deadline = deadline
        self.count = 0

    def __call__(self, mode):
        self.count += 1
        out_csv = os.path.join(self.out_dir, f"rep{self.count}.csv")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"mode": mode, "error": "benchmark time limit reached"}
        try:
            proc = subprocess.run(self.cmd + [out_csv, mode], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"killed after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"mode": mode, "error": f"exit code {proc.returncode}: {tail[0]}"}
        return json.loads(lines[-1])


def check(workload, seed, reference, config, rep):
    """Problems with one repetition; also records its CSV hashes."""
    if rep.get("error"):
        return [rep["error"]]
    out = rep["output"]
    if workload == workloads.ORACLE:
        return checks.check_oracle(out)
    points = workloads.reference_points(workload, seed, reference)
    try:
        out["sha256"] = {"csv": checks.sha256_file(out["csv"]),
                         "confusion_csv": checks.sha256_file(out["confusion_csv"])}
        return checks.check_sweep(points, config["trials"], out)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed CSV
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _median(values):
    return statistics.median(values) if values else None


def summarize(workload, config, reps, probes, trace):
    """(metrics {name: (value, unit, samples)}, data for the report)."""
    units = workloads.units_of_work(workload, config)
    ok = [r for r in reps if not r["problems"]]
    plain = [r for r in ok if r["mode"] == "run"]
    traced = [r for r in ok if r["mode"] == "trace"]
    wall = [r["wall_s"] for r in plain]
    metrics = {}
    if not trace:
        setup = [p["setup_s"] for p in probes if "setup_s" in p] + [r["setup_s"] for r in ok]
        rate = [units / w for w in wall]
        for name, samples in (("setup_s", setup), ("wall_s", wall),
                              ("trials_per_s", rate), ("instances_per_s", rate),
                              ("cpu_s", [r["cpu_s"] for r in plain]),
                              ("peak_rss_mib", [r["peak_rss_mib"] for r in plain])):
            metrics[name] = (_median(samples), END_TO_END[name], len(samples))
    else:
        for name in tracing.LAYER_METRICS:
            samples = [r["layers"][name] for r in traced]
            value = None if None in samples else _median(samples)
            metrics[name] = (value, PER_LAYER[name], len(samples))
        t_wall = [r["wall_s"] for r in traced]
        overhead = (_median(t_wall) - _median(wall)) if wall and t_wall else None
        metrics["trace.overhead_s"] = (overhead, "s", min(len(wall), len(t_wall)))

    excluded = attempted = failed_checks = 0
    for r in ok:
        for rec in r["output"].get("records", []):
            excluded += rec["n_excluded"]
            attempted += rec["n_trials"] + rec["n_excluded"]
        failed_checks = max(failed_checks,
                            sum(1 for _, passed, _ in r["output"].get("checks", []) if not passed))
    if trace:
        metrics["excluded_frac"] = (excluded / attempted if attempted else 0.0, "ratio", len(ok))
        metrics["checks_failed"] = (failed_checks, "count", len(ok))
    data = {"excluded_trials": excluded, "attempted_trials": attempted,
            "checks_failed": failed_checks}
    return metrics, data


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the reference seed")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "iseasim", "__init__.py")):
        print("perfbench: src/iseasim not found; run from the root of an iseasim checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    reference = workloads.load_reference()
    config = workloads.job_config(args.workload, args.seed, reference)
    out_dir = os.path.join(HERE, "_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    run = Runner(root, args.workload, config_path, out_dir, start + TIME_LIMIT_S)

    run("setup")  # warm-up: file cache and bytecode
    probes = [run("setup") for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if args.trace else ("run",)
    min_cycles = 1 if args.trace else MIN_REPETITIONS
    reps = []
    t0 = time.monotonic()
    while True:
        for mode in modes:
            rep = run(mode)
            rep["problems"] = check(args.workload, args.seed, reference, config, rep)
            reps.append(rep)
        cycles = len(reps) // len(modes)
        elapsed = time.monotonic() - t0
        per_cycle = elapsed / cycles
        if cycles >= min_cycles and elapsed + per_cycle > args.seconds:
            break
        if time.monotonic() - start + per_cycle > TIME_LIMIT_S:
            break

    failed = sum(1 for r in reps if r["problems"])
    outputs = {json.dumps(r["output"].get("sha256", r["output"].get("checks")), sort_keys=True)
               for r in reps if not r["problems"]}
    deterministic = len(outputs) <= 1
    metrics, data = summarize(args.workload, config, reps, probes, args.trace)

    info = machine_info(root)
    versions = next((r["versions"] for r in reps + probes if "versions" in r), {})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetitions, {failed} failed, {len(probes)} set-up probes")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in {**versions, **info}.items()))
    for name, (value, unit, n) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {unit:12s} n={n}")
    print(f"excluded_frac {data['excluded_trials']}/{data['attempted_trials']} trials, "
          f"checks_failed {data['checks_failed']}")
    for r in reps:
        if "sha256" in r.get("output", {}):
            print(f"sha256: {json.dumps(r['output']['sha256'], sort_keys=True)}")
            break
    missing = sorted({h for r in reps for h in r.get("missing_hooks", [])})
    if missing:
        print("missing hooks: " + ", ".join(missing))
    for i, r in enumerate(reps, 1):
        for problem in r["problems"]:
            print(f"repetition {i} ({r['mode']}) FAILED: {problem}")
    if not deterministic:
        print("repetitions disagree: outputs differ between repetitions of one seed")

    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
