#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the runner (the `perfbench` package
next to this file) and the `scap-cluster-worker` binary in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload in a
fresh process with SCAP_THREADS=1, and then:

* adds `peak_rss_mb`, the peak resident set of the workload's process
  tree (the runner and any worker it started and reaped), to the
  end-to-end metrics of a `--trace 0` run;
* checks that no `scap-cluster-worker` the run started is still alive,
  counting a leftover as a failed operation (and killing it);
* picks the metrics `BENCHMARK.json` lists, `end_to_end` for `--trace 0`
  and `per_layer` for `--trace 1`, with their units (a layer metric the
  workload does not exercise reads 0 with 0 samples);
* prints every metric with its unit and sample count, then, as the last
  stdout line, the result object
  `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

The workloads are those of `BENCHMARK.json` (see perfbench/METRICS.md).
Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = [
        "cargo", "build", "--offline", "--release",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "scap-perfbench", "-p", "scap-cluster", "--bins",
    ]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed (exit {result.returncode})")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_workload(argv, env):
    """Runs the runner in its own process group; returns its exit code,
    stdout, the peak RSS (MiB) of it and its reaped descendants, and the
    process group id."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
        start_new_session=True,
    )
    timer = threading.Timer(RUN_TIMEOUT_S, kill_group, args=(proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0, proc.pid


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")


def main():
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["SCAP_THREADS"] = "1"
    build(env)
    release = os.path.join(ROOT, target, "release")
    argv = [
        os.path.join(release, "perfbench"), args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--worker", os.path.join(release, "scap-cluster-worker"),
        "--out", os.path.join(ROOT, "perfbench", "out"),
    ]
    code, out, peak_rss_mb, pgid = run_workload(argv, env)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if code == 0 else None
    except json.JSONDecodeError:
        result = None
    if result is not None:
        attempted, failed = result["attempted"], result["failed"]
        pids = result["worker_pids"]
        if pids:
            leftovers = [pid for pid in pids if alive(pid)]
            attempted += 1
            failed += 1 if leftovers else 0
            verdict = "FAIL" if leftovers else "ok  "
            print(f"check {verdict}: no scap-cluster-worker left after the drain "
                  f"({len(leftovers)} of {len(pids)} still alive)")
    # Whatever the runner left in its process group goes now.
    kill_group(pgid)
    if result is None:
        fail(f"{args.workload} runner exited with {code} and no result line")

    measured = dict(result["metrics"])
    if args.trace == "0":
        measured["peak_rss_mb"] = {"value": peak_rss_mb, "samples": 1}
    catalogue = benchmark["end_to_end" if args.trace == "0" else "per_layer"]
    metrics = {}
    for entry in catalogue:
        name = entry["name"]
        m = measured.get(name)
        if m is None and args.trace == "0":
            fail(f"{args.workload} runner did not report {name}")
        metrics[name] = {
            "value": m["value"] if m else 0.0,
            "unit": entry["unit"],
            "samples": m["samples"] if m else 0,
        }
    print(f"{args.workload} seed {args.seed}: {attempted - failed}/{attempted} checks passed, "
          f"output fingerprint {result['fingerprint']}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6f} {m['unit']:<8} samples {m['samples']}")
    final = {
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    print(json.dumps(final, separators=(",", ":")))


if __name__ == "__main__":
    main()
