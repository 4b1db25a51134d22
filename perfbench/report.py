"""Run every workload once, untraced, and print its end-to-end numbers.

    python3 perfbench/report.py [--seed N]

Each run lasts BENCHMARK.json's ``run_seconds``.  Prints wall_s,
setup_s, peak_rss_mb, error_rate and audit_cells_failed with their units
for each workload, plus any failed operations.  Every
operation is checked against ``reference.json`` as in run.py.  Exit
status 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import sys

import run

COLUMNS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "1"),
    ("audit_cells_failed", "count"),
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    seconds = run.spec()["run_seconds"]
    print(f"{'workload':<20}" + "".join(f"{f'{n} ({u})':>28}" for n, u in COLUMNS))
    any_failed = False
    for name in run.workloads.NAMES:
        result = run.run_workload(name, args.seed, seconds, trace=False)
        row = {n: m["value"] for n, m in run.metrics_of(result, trace=False).items()}
        row["error_rate"] = result["failed"] / result["attempted"]
        row["audit_cells_failed"] = result["audit_cells_failed"]
        print(f"{name:<20}" + "".join(f"{row[n]:>28.6g}" for n, _ in COLUMNS), flush=True)
        for failure in result["failures"]:
            print(f"  failed operation: {failure}")
        any_failed |= result["failed"] > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
