#!/usr/bin/env python3
"""Build the updec library and the benchmark, then run one workload.

    python3 perfbench/run.py --workload pinn|solver|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which builds ../src) into $CARGO_TARGET_DIR, or .bench_build/
when that is unset; later calls rebuild incrementally. Every UPDEC_*
variable is removed from the environment of the run, and OpenMP is pinned to
one thread per busy thread (see perfbench/README.md, "Thread budget"). The
last line of standard output is the JSON result; lines before it starting
with '#' are the run stamp and notes. Exits non-zero, printing no result,
when the build or the run fails, or when the result does not hold exactly
the metrics BENCHMARK.json lists for the run (end_to_end untraced,
per_layer traced). --selftest also checks that the binary's metric list
matches BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pinn", "solver", "serve")
RUN_TIMEOUT_S = 175
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(out_dir):
    """Configure (first time) and build; returns False on failure."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        with open(log_path, "w") as build_log:
            for cmd in steps:
                rc = subprocess.call(cmd, stdout=build_log,
                                     stderr=subprocess.STDOUT, cwd=ROOT)
                if rc != 0:
                    with open(log_path) as f:
                        tail = f.read()[-4000:]
                    log(f"build failed ({' '.join(cmd[:2])}); tail of "
                        f"{log_path}:\n{tail}")
                    return False
    return True


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def manifest_metrics():
    """{"end_to_end": [(name, unit), ...], "per_layer": [...]} from
    BENCHMARK.json."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    return {kind: [(m["name"], m["unit"]) for m in manifest[kind]]
            for kind in ("end_to_end", "per_layer")}


def result_error(line, expected):
    """Why `line` is not a result holding exactly the metrics `expected`
    ([(name, unit), ...]); None when it is."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"the result's keys are not {sorted(RESULT_KEYS)}"
    metrics = result["metrics"]
    got = sorted((name, m.get("unit")) for name, m in metrics.items())
    if got != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"unexpected {extra}"
    if any(not isinstance(m.get("value"), (int, float))
           for m in metrics.values()):
        return "a metric value is not a number"
    return None


def selftest(out_dir, env):
    rc = subprocess.call([os.path.join(out_dir, "perfbench_selftest")],
                         env=env, cwd=ROOT)
    listed = json.loads(subprocess.run(
        [os.path.join(out_dir, "updec_perfbench"), "--list-metrics"],
        env=env, cwd=ROOT, capture_output=True, text=True,
        check=True).stdout)
    for kind, specs in manifest_metrics().items():
        binary = [(m["name"], m["unit"]) for m in listed[kind]]
        if binary != specs:
            print(f"FAIL: {kind} metrics of updec_perfbench --list-metrics "
                  f"differ from BENCHMARK.json:\n  binary   {binary}\n"
                  f"  manifest {specs}")
            rc = rc or 1
    if rc == 0:
        print("metric lists match BENCHMARK.json")
    return rc


def run_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("UPDEC_")}
    env["OMP_NUM_THREADS"] = "1"
    env["OMP_DYNAMIC"] = "false"
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    env = run_env()
    if args.selftest:
        return selftest(out_dir, env)

    cmd = [os.path.join(out_dir, "updec_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-{args.seed}.json")]
    cleared = sorted(k for k in os.environ if k.startswith("UPDEC_"))
    if cleared:
        cmd += ["--cleared-env", ",".join(cleared)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} run failed with exit code {proc.returncode}")
        return 1
    lines = proc.stdout.splitlines()
    kind = "per_layer" if args.trace else "end_to_end"
    why = result_error(lines[-1] if lines else "", manifest_metrics()[kind])
    if why:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} run printed no valid result: {why}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
