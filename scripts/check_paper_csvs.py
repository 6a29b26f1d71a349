#!/usr/bin/env python3
"""Gate the paper-reproduction CSVs at zero drift.

The analytical benches (Fig. 5, Fig. 6, Table I, the chip budget, the
ablations and the noise-fidelity sweep) write pcnna_*.csv files whose every
number comes from the deterministic hardware model, so a refactor that
claims to keep every bit must reproduce them byte for byte. Usage:

    python3 scripts/check_paper_csvs.py BASELINE_DIR RUN_DIR

Every pcnna_*.csv in BASELINE_DIR (bench/baselines/ holds the committed
run) must exist in RUN_DIR with identical bytes, and RUN_DIR may hold no
pcnna_*.csv the baseline lacks. The one exception is a wall-clock column
(WALL_CLOCK_COLUMNS, e.g. Fig. 6's measured CPU time): its cells are
dropped from both sides before the rows are compared.

Stdlib only; exits 1 listing every mismatch, 0 when all files match.
"""

import csv
import glob
import os
import sys

# Columns measured on the host, not simulated: they vary run to run.
WALL_CLOCK_COLUMNS = {"CPU (measured)"}


def read_rows(path):
    """The CSV's rows with every wall-clock column removed, and whether the
    file had one."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0] if rows else []
    keep = [i for i, name in enumerate(header) if name not in WALL_CLOCK_COLUMNS]
    stripped = [[row[i] for i in keep if i < len(row)] for row in rows]
    return stripped, len(keep) < len(header)


def mismatch(baseline, current):
    """Why `current` differs from `baseline`, or None when they match."""
    with open(baseline, "rb") as f, open(current, "rb") as g:
        if f.read() == g.read():
            return None
    want, wall_clock = read_rows(baseline)
    got, _ = read_rows(current)
    if wall_clock and want == got:
        return None
    for line, (w, g) in enumerate(zip(want, got), start=1):
        if w != g:
            return "row %d is %s, the baseline has %s" % (line, g, w)
    if len(want) != len(got):
        return "%d rows, the baseline has %d" % (len(got), len(want))
    return "bytes differ (line endings or quoting)"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_paper_csvs.py BASELINE_DIR RUN_DIR", file=sys.stderr)
        return 2
    base_dir, run_dir = argv[1], argv[2]
    baselines = sorted(glob.glob(os.path.join(base_dir, "pcnna_*.csv")))
    if not baselines:
        print("no pcnna_*.csv in %s" % base_dir, file=sys.stderr)
        return 2
    names = {os.path.basename(p) for p in baselines}
    problems = []
    for path in baselines:
        name = os.path.basename(path)
        current = os.path.join(run_dir, name)
        if not os.path.exists(current):
            problems.append("%s: missing from %s" % (name, run_dir))
            continue
        why = mismatch(path, current)
        if why:
            problems.append("%s: %s" % (name, why))
    for path in sorted(glob.glob(os.path.join(run_dir, "pcnna_*.csv"))):
        if os.path.basename(path) not in names:
            problems.append("%s: no baseline in %s" % (os.path.basename(path), base_dir))
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("%d paper CSVs checked, %d problems" % (len(baselines), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
