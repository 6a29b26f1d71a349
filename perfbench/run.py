#!/usr/bin/env python3
"""Build and run the PCNNA host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
repository root), runs the statistics self-test, then runs the workload.
Everything the benchmark prints passes through; the last line is the JSON
result. With --trace 1 the host spans are written as Chrome-trace JSON under
the build directory, and the run counts as correct only if that file parses
and holds a host track per module. Exits non-zero without a result when the
build, the self-test, or the benchmark itself fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = {"runtime", "core", "photonics", "common", "nn"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(proc.returncode or 1)


def build(out):
    run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    run_quiet(["cmake", "--build", out, "-j", jobs,
               "--target", "perfbench", "perfbench_selftest"])
    run_quiet([os.path.join(out, "perfbench_selftest")])


def trace_problem(path):
    """Why the Chrome trace at `path` is unusable, or None if it is fine."""
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        return "trace does not parse: %s" % e
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return "trace has no traceEvents list"
    tracks = {e["args"]["name"] for e in events
              if e.get("ph") == "M" and e.get("name") == "thread_name"}
    if tracks != MODULES:
        return "trace tracks %s are not one per module" % sorted(tracks)
    if not any(e.get("ph") == "X" for e in events):
        return "trace holds no spans"
    return None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this run, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    build(out)

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    problems = []
    if trace_path:
        problem = trace_problem(trace_path)
        if problem:
            problems.append(problem)
        else:
            print("chrome trace: " + os.path.relpath(trace_path, ROOT))
    declared = declared_metrics(args.trace)
    if declared is not None and declared != list(result["metrics"]):
        problems.append("reported metrics differ from BENCHMARK.json")
    for problem in problems:
        print("FAIL: " + problem)
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
