#!/usr/bin/env python3
"""Print the machine-readable bench results (BENCH_*.json) as a table.

Each BENCH_<name>.json file is a flat JSON array of rows:

    {"bench": ..., "config": ..., "metric": ..., "value": ..., "unit": ...}

emitted by the bench binaries (see docs/benchmarks.md for the schema and
the comparison methodology). Usage:

    python3 scripts/bench_summary.py [files-or-dirs ...]

With no arguments, globs BENCH_*.json in the current directory. Passing two
run directories side by side is the intended way to eyeball a perf
trajectory across PRs:

    python3 scripts/bench_summary.py old_run/ new_run/

With --baseline, each current row is also diffed against the committed
reference results (bench/baselines/ holds the seed run):

    python3 scripts/bench_summary.py build/ --baseline bench/baselines

The diff is warn-only by default: rows drifting more than WARN_FRACTION
from the baseline, and rows missing on either side, are reported on stderr
but do not affect the exit code (benches gate their own regressions via
self-checks; machine speed makes absolute timing diffs advisory).

With --fail-on-regression PCT the diff becomes a gate: rows drifting more
than PCT percent from the baseline in either direction, and baseline rows
missing from the current run, fail the process with exit code 1. PCT 0
gates exact equality: any change in any row fails, even one inside the
warning band. New rows with no baseline stay informational (they appear
whenever a PR adds a sweep). CI release builds use this to hold the
committed reference run of the virtual-time rows at zero drift:

    python3 scripts/bench_summary.py build/BENCH_open_loop.json \\
        --baseline bench/baselines/BENCH_open_loop.json \\
        --fail-on-regression 0

Stdlib only; exits non-zero on malformed files or missing inputs.
"""

import glob
import json
import os
import sys

# Relative drift that earns a stderr warning in --baseline mode.
WARN_FRACTION = 0.10


def collect(paths):
    """Expand args into BENCH_*.json file paths."""
    if not paths:
        paths = ["."]
    files = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(os.path.join(p, "BENCH_*.json"))))
        else:
            files.append(p)
    return files


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of rows")
    for row in rows:
        for key in ("bench", "config", "metric", "value", "unit"):
            if key not in row:
                raise ValueError(f"{path}: row missing key '{key}': {row}")
    return rows


def fmt_value(value, unit):
    if unit == "s":
        for scale, suffix in ((1.0, "s"), (1e-3, "ms"), (1e-6, "us"),
                              (1e-9, "ns")):
            if abs(value) >= scale:
                return f"{value / scale:.3g} {suffix}"
        return f"{value:.3g} s"
    return f"{value:.4g} {unit}"


def print_table(source, rows):
    header = ("config", "metric", "value")
    table = [(r["config"], r["metric"], fmt_value(r["value"], r["unit"]))
             for r in rows]
    widths = [max(len(h), *(len(t[i]) for t in table)) if table else len(h)
              for i, h in enumerate(header)]
    bench = rows[0]["bench"] if rows else "?"
    print(f"== {bench} ({source}) ==")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for t in table:
        print("  ".join(c.ljust(w) for c, w in zip(t, widths)))
    print()


def index_rows(rows):
    """Key rows by (bench, config, metric) for baseline lookup."""
    return {(r["bench"], r["config"], r["metric"]): r for r in rows}


def diff_against_baseline(current, baseline, fail_fraction=None):
    """Compare two row indexes against the warn (and optional fail)
    thresholds.

    Returns (warnings, failures): drift beyond WARN_FRACTION always lands
    in warnings; when fail_fraction is set, drift beyond it and baseline
    rows missing from the current run land in failures instead. A
    fail_fraction of 0 fails every changed row, however small the change.
    New rows are never failures — they appear whenever a PR adds a sweep.
    """
    warnings, failures = [], []
    exact = fail_fraction == 0

    def drift(message, rel):
        # Only changed rows get here, so an exact gate fails all of them.
        if fail_fraction is not None and (exact or abs(rel) > fail_fraction):
            failures.append(message)
        else:
            warnings.append(message)

    for key, row in sorted(current.items()):
        base = baseline.get(key)
        if base is None:
            warnings.append("new row (no baseline): "
                            f"{key[0]}/{key[1]}/{key[2]}")
            continue
        base_value = base["value"]
        if base_value == 0:
            if row["value"] != 0:
                drift(f"drift {key[0]}/{key[1]}/{key[2]}: baseline 0 -> "
                      f"{fmt_value(row['value'], row['unit'])}",
                      rel=float("inf"))
            continue
        rel = (row["value"] - base_value) / abs(base_value)
        if abs(rel) > WARN_FRACTION or (exact and row["value"] != base_value):
            drift(f"drift {key[0]}/{key[1]}/{key[2]}: "
                  f"{fmt_value(base_value, base['unit'])} -> "
                  f"{fmt_value(row['value'], row['unit'])} ({rel:+.1%})",
                  rel=rel)
    for key in sorted(baseline.keys() - current.keys()):
        message = ("baseline row missing from this run: "
                   f"{key[0]}/{key[1]}/{key[2]}")
        if fail_fraction is not None:
            failures.append(message)
        else:
            warnings.append(message)
    return warnings, failures


def parse_percent(text):
    try:
        pct = float(text)
    except ValueError:
        raise ValueError(f"--fail-on-regression needs a number, got '{text}'")
    if not pct >= 0:
        raise ValueError(f"--fail-on-regression must be positive (or 0 for "
                         f"exact equality), got {pct}")
    return pct / 100.0


def parse_args(argv):
    """Split argv into (paths, baseline_path, fail_fraction); -h -> exit."""
    paths, baseline, fail_fraction = [], None, None
    args = list(argv[1:])
    while args:
        arg = args.pop(0)
        if arg in ("-h", "--help"):
            print(__doc__)
            raise SystemExit(0)
        if arg == "--baseline":
            if not args:
                raise ValueError("--baseline requires a path")
            baseline = args.pop(0)
        elif arg.startswith("--baseline="):
            baseline = arg.split("=", 1)[1]
        elif arg == "--fail-on-regression":
            if not args:
                raise ValueError("--fail-on-regression requires a percentage")
            fail_fraction = parse_percent(args.pop(0))
        elif arg.startswith("--fail-on-regression="):
            fail_fraction = parse_percent(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if fail_fraction is not None and baseline is None:
        raise ValueError("--fail-on-regression requires --baseline")
    return paths, baseline, fail_fraction


def main(argv):
    try:
        paths, baseline_path, fail_fraction = parse_args(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    files = collect(paths)
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1

    baseline = {}
    if baseline_path is not None:
        # A missing baseline location is a warning, not an error: fresh
        # checkouts may predate the committed reference run.
        baseline_files = (collect([baseline_path])
                          if os.path.exists(baseline_path) else [])
        if not baseline_files:
            print(f"warning: no BENCH_*.json baselines under "
                  f"{baseline_path}", file=sys.stderr)
        for path in baseline_files:
            try:
                baseline.update(index_rows(load_rows(path)))
            except (OSError, ValueError, json.JSONDecodeError) as err:
                print(f"error: {err}", file=sys.stderr)
                return 1

    status = 0
    current = {}
    for path in files:
        try:
            rows = load_rows(path)
            print_table(path, rows)
            current.update(index_rows(rows))
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            status = 1

    if baseline_path is not None and baseline:
        warnings, failures = diff_against_baseline(current, baseline,
                                                   fail_fraction)
        if warnings:
            print(f"baseline diff ({len(warnings)} warning(s), informational "
                  "only):", file=sys.stderr)
            for m in warnings:
                print(f"  warning: {m}", file=sys.stderr)
        if failures:
            print(f"baseline regression gate ({len(failures)} failure(s), "
                  f"threshold {fail_fraction:.0%}):", file=sys.stderr)
            for m in failures:
                print(f"  FAIL: {m}", file=sys.stderr)
            status = 1
        if not warnings and not failures:
            print("baseline diff: all rows within "
                  f"{WARN_FRACTION:.0%} of baseline", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
