"""One benchmark process: set up dynamech, then run a workload's
operations in a closed loop with one client until the time is up.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --root CHECKOUT --out DIR
    python3 perfbench/worker.py --probe --config CFG --root CHECKOUT

Operations come in pairs on the same input: the second is the immediate
repeat whose artifacts must be byte-identical to the first.  In a traced
run the first of each pair is untraced and the second traced, so the
pair also checks that tracing leaves the artifacts unchanged, and the
ratio of their times is the tracing overhead.  The result goes to
``DIR/result.json``; the spans of a traced run to ``DIR/spans.json.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _setup(cfg_path: Path, root: Path) -> float:
    """Seconds to import dynamech, parse and build the config's
    environment, and construct the runtime."""
    start = time.perf_counter()
    import dynamech
    from dynamech.config import build_environment, parse_config
    from dynamech.mechanism import MechanismRuntime

    MechanismRuntime(build_environment(parse_config(cfg_path)))
    took = time.perf_counter() - start
    src = (root / "src").resolve()
    if src not in Path(dynamech.__file__).resolve().parents:
        raise SystemExit(f"dynamech imported from {dynamech.__file__}, not from {src}")
    return took


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _probe(args) -> int:
    print(json.dumps({"setup_s": _setup(Path(args.config), Path(args.root))}))
    return 0


def _run(args) -> int:
    import tracing
    import workloads

    root = Path(args.root)
    out = Path(args.out)
    cfg_path = workloads.write_config(args.workload, out)
    setup_s = _setup(cfg_path, root)
    pool = json.loads(Path(__file__).with_name("reference.json").read_text())[args.workload]
    traced = bool(args.trace)
    tracer = tracing.Tracer() if traced else None

    result: dict = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if traced:
        from dynamech import config

        tracer.install()
        config.build_environment(config.parse_config(cfg_path))
        tracer.uninstall()
        setup_layers = tracing.layer_busy(tracer, ("config.parse_config", "config.build_environment"))
        tracer.reset()

    times = {False: [], True: []}  # traced? -> operation seconds
    layers: list[dict] = []
    w_minus_ms: list[float] = []
    snapshots: list[dict] = []
    failures: list[str] = []
    attempted = 0
    cells_failed = None

    def timed_factory(trace_this: bool):
        @contextlib.contextmanager
        def timed():
            if trace_this:
                tracer.reset()
                tracer.install()
            start = time.perf_counter()
            try:
                yield
            finally:
                times[trace_this].append(time.perf_counter() - start)
                if trace_this:
                    tracer.uninstall()

        return timed

    def one(variant: dict, trace_this: bool, tag: str):
        nonlocal attempted
        attempted += 1
        try:
            outcome = workloads.execute(
                args.workload, cfg_path, variant["inputs"], out / tag, timed_factory(trace_this)
            )
        except Exception:
            failures.append(traceback.format_exc(limit=4))
            return None
        if outcome.status not in (0, 1):
            failures.append(f"exit status {outcome.status}")
            return None
        errors = workloads.check(args.workload, outcome.numbers, variant)
        if errors:
            failures.append("; ".join(errors[:5]))
            return None
        return outcome

    loop_start = pair_start = time.perf_counter()
    for position in workloads.pool_positions(args.seed, repeat=traced):
        now = time.perf_counter()
        # start another pair only if one as long as the last still fits
        if attempted and (now - loop_start) + (now - pair_start) > args.seconds:
            break
        pair_start = now
        variant = pool[position]
        first = one(variant, False, "a")
        second = one(variant, traced, "b")
        if first is not None and second is not None and first.artifacts != second.artifacts:
            failures.append(f"pool entry {position}: repeat artifacts differ")
        if cells_failed is None and first is not None and "cells" in first.numbers:
            cells_failed = sum(1 for c in first.numbers["cells"] if not c["passed"])
        if traced:
            layers.append(tracing.layer_metrics(tracer))
            w_minus_ms.extend(tracing.w_minus_durations_ms(tracer))
            snapshots.append(tracer.snapshot())

    result.update(
        {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "op_s": times[False],
            "traced_op_s": times[True],
            "audit_cells_failed": cells_failed or 0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": _machine(),
        }
    )
    if traced:
        per_op = {
            key: (statistics.median_low if tracing.is_count(key) else statistics.median)(m[key] for m in layers)
            for key in layers[0]
        }
        per_op.update(tracing.w_minus_percentiles(w_minus_ms))
        per_op.update(setup_layers)
        per_op["trace.overhead_ratio"] = statistics.median(times[True]) / statistics.median(times[False])
        per_op["audit_cells_failed"] = cells_failed or 0
        result["layers"] = per_op
        result["layers_repeat_exactly"] = all(
            m[k] == layers[0][k] for m in layers for k in layers[0] if tracing.is_count(k)
        )
        result["missing_hooks"] = tracer.missing
        tracing.write_spans(out / "spans.json.gz", snapshots)
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--config")
    p.add_argument("--root", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    return _probe(args) if args.probe else _run(args)


if __name__ == "__main__":
    sys.exit(main())
