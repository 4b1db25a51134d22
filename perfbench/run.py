"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It needs no build: the worker processes
import dynamech from ``src/``.  Set-up time is the median over
``PROBES`` fresh probe processes and the worker's own set-up.  The worker
then runs the workload's operations for ``--seconds`` (see worker.py) and
checks every output against ``reference.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics
with ``--trace 1``.  The lines before it give the same numbers for
reading, plus ``error_rate`` and ``audit_cells_failed``; a traced run
adds whether every count repeated exactly across its operations and
which hook points the library no longer has.  Spans and the
full result stay in ``perfbench/out/<workload>/seed-<n>/``.

Exit status 0 with a result; 2 when the checkout has no dynamech sources
or a worker fails, without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 4
# time allowed past --seconds: the probes, the worker's set-up, and the
# one pair that may start just before --seconds is up
MARGIN_S = 90.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DYNAMECH_THREADS", None)  # serial
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _call(args: list[str], deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Probe set-up, run the worker, and return its result with
    ``setup_samples_s`` added."""
    if not (ROOT / "src" / "dynamech" / "__init__.py").is_file():
        raise BenchError(f"no dynamech sources under {ROOT / 'src'}")
    if name not in workloads.NAMES:
        raise BenchError(f"unknown workload {name!r} (expected one of {workloads.NAMES})")
    deadline = time.monotonic() + seconds + MARGIN_S
    out = HERE / "out" / name / f"seed-{seed}"
    cfg_path = workloads.write_config(name, out)
    samples = []
    for _ in range(PROBES):
        line = _call(["--probe", "--config", str(cfg_path)], deadline).strip().splitlines()[-1]
        samples.append(json.loads(line)["setup_s"])
    _call(
        [
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(out),
        ],
        deadline,
    )
    result = json.loads((out / "result.json").read_text())
    result["setup_samples_s"] = samples + [result["setup_s"]]
    return result


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        layers = result["layers"]
        return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec()["per_layer"]}
    measured = {
        "wall_s": statistics.median(result["op_s"]),
        "setup_s": statistics.median(result["setup_samples_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec()["end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = metrics_of(result, bool(args.trace))
    except (BenchError, KeyError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for failure in result["failures"][:5]:
        print(f"failed operation: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {result['failed'] / result['attempted']:.6g} 1")
    print(f"{args.workload} audit_cells_failed {result['audit_cells_failed']} count")
    if args.trace:
        print(f"{args.workload} counts_repeat_exactly {result['layers_repeat_exactly']}")
        print(f"{args.workload} missing_hooks {' '.join(result['missing_hooks']) or 'none'}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
