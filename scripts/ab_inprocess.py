#!/usr/bin/env python3
"""Paired timing of two source trees on one benchmark workload, in one
process.

    python scripts/ab_inprocess.py OLD_TREE NEW_TREE --workload ar1-bound [--ops 200] [--seed 0]

Each tree's ``src/dynamech`` is imported as a package of its own
(``dynamech_old``, ``dynamech_new``), which works because the package
imports itself only relatively (a tier-1 test checks that).  Then
``--ops`` pairs run: pair j takes the input at pool position
``(seed + j) % 16`` of the workload (``perfbench/reference.json``) and
runs it once on each tree, in an order drawn at random per pair, through
``perfbench/workloads.execute`` on the workload's config
(``perfbench/workloads.CONFIGS``), so each tree is timed on exactly what
the benchmark times.  ``dynamech`` is pointed at the running tree's
package for each operation.  One untimed operation per tree comes first.

Separate processes of one tree can differ by 10-20% on a loaded host;
alternating operations within one process cancels that.  Printed per
tree: the median and quartiles of the operation times; then the median
over pairs of new / old, in how many pairs the new tree was faster, how
many operations failed ``workloads.check``, and whether every pair gave
the same outputs: exit status, artifact bytes and the numbers the check
reads (as JSON, so -0.0 and 0.0 differ).  The last line is the same as
one JSON object.  The exit status is 0 when every output matched and
every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LABELS = ("old", "new")


def _load(label: str, tree: Path) -> dict:
    """``<tree>/src/dynamech`` and its submodules as ``dynamech_<label>``:
    {submodule suffix ("" for the package): module}."""
    name = f"dynamech_{label}"
    pkg = tree / "src" / "dynamech"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for path in sorted(pkg.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return {key[len(name) :]: mod for key, mod in sys.modules.items() if key == name or key.startswith(name + ".")}


def _point_dynamech_at(modules: dict) -> None:
    for key in [k for k in sys.modules if k == "dynamech" or k.startswith("dynamech.")]:
        del sys.modules[key]
    for suffix, mod in modules.items():
        sys.modules["dynamech" + suffix] = mod


def _quartiles(times: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(times, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--ops", type=int, default=200, help="pairs of operations (default 200)")
    p.add_argument("--seed", type=int, default=0, help="first pool position and the order's random seed")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in workloads.NAMES:
        p.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")
    pool = json.loads((ROOT / "perfbench" / "reference.json").read_text())[args.workload]
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    packages = {label: _load(label, tree) for label, tree in trees.items()}
    order = random.Random(args.seed)
    scratch = Path(tempfile.mkdtemp(prefix="ab_inprocess_"))
    times: dict[str, list[float]] = {label: [] for label in LABELS}
    failed = {label: 0 for label in LABELS}
    identical = True
    try:
        cfg_path = workloads.write_config(args.workload, scratch)

        def run(label: str, variant: dict, record: bool):
            took = []

            @contextlib.contextmanager
            def timed():
                start = time.perf_counter()
                try:
                    yield
                finally:
                    took.append(time.perf_counter() - start)

            _point_dynamech_at(packages[label])
            outcome = workloads.execute(args.workload, cfg_path, variant["inputs"], scratch / label, timed)
            if record:
                times[label].append(took[0])
                failed[label] += bool(workloads.check(args.workload, outcome.numbers, variant))
            return outcome.status, outcome.artifacts, json.dumps(outcome.numbers, sort_keys=True)

        for label in LABELS:
            run(label, pool[args.seed % len(pool)], False)
        for j in range(args.ops):
            variant = pool[(args.seed + j) % len(pool)]
            labels = list(LABELS)
            order.shuffle(labels)
            outputs = {label: run(label, variant, True) for label in labels}
            identical = identical and outputs["old"] == outputs["new"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ratios = [n / o for o, n in zip(times["old"], times["new"])]
    result = {"workload": args.workload, "ops": args.ops, "seed": args.seed}
    for label in LABELS:
        q1, q3 = _quartiles(times[label])
        result[label] = {"median_ms": 1e3 * statistics.median(times[label]), "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3}
        print(
            f"{label}: median {result[label]['median_ms']:.3f} ms, "
            f"quartiles {result[label]['q1_ms']:.3f}-{result[label]['q3_ms']:.3f} ms  ({trees[label]})"
        )
    result.update(
        {
            "median_ratio_new_over_old": statistics.median(ratios),
            "new_faster": sum(r < 1.0 for r in ratios),
            "failed_checks": failed,
            "identical_outputs": identical,
        }
    )
    print(
        f"new / old: median pairwise ratio {result['median_ratio_new_over_old']:.4f}, "
        f"new faster in {result['new_faster']}/{args.ops} pairs; failed checks {failed}; "
        f"outputs {'identical' if identical else 'DIFFER'}"
    )
    print(json.dumps(result))
    return 0 if identical and not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
