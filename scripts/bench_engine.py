#!/usr/bin/env python3
"""Layer timings of the episode engine and the fee walk, for one or more
source trees measured back to back on the same machine.

    python scripts/bench_engine.py --tree parent=/path/to/old/checkout --tree change=. \
        --out BENCH_engine.json

Each repetition measures each tree in a fresh subprocess that imports
dynamech from ``<tree>/src`` with one BLAS thread, alternating which
tree goes first.  Recorded per tree:

- ``fee_ms_per_path``: ``fee_quadrature`` on sponsored search (k=2,
  cap 5, delta 0.8) at reports (0.9, 0.7) for agent 0, per path, on
  stream addresses no earlier call used (the index tables are built
  beforehand);
- ``episode_ms``: one priced 51-round ``run_episode`` without fees on
  the same environment at types (0.9, 0.8), mean over 200 seeds;
- ``posted_audit_ic_s``: ``audit_ic`` on the posted-price arm with 64
  paths and 32 fee paths (criterion 6's first half);
- ``additive_fee_ms_per_path``: ``fee_quadrature`` on the additive
  AR(1) environment of the ``ar1-bound`` benchmark (k=2, 35-state arms)
  at reports (0.8, 0.7) for agent 0, per path, over 16 paths (the index
  tables at the reports are built beforehand; the walk's tables at
  other z are not);
- ``draw_pair_calls``: ``ExperienceStreams.draw_pair`` calls made by
  one operation of each kind above;
- ``additive_table_builds_per_path``: ``MechanismRuntime.build_table``
  calls of the additive fee call, per path.

Times are medians over ``--repeats`` repetitions (each repetition's
value is kept under ``runs``).  Every repetition runs the same
operations on the same streams in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FEE_PATHS = 16
EPISODES = 200
WARM_UP = 10**6  # stream seed of the untimed calls
TIMES = ("fee_ms_per_path", "episode_ms", "posted_audit_ic_s", "additive_fee_ms_per_path")
COUNTS = ("draw_pair_calls", "additive_table_builds_per_path")  # identical in every repetition
AR1_PARAMS = {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1, "alloc_cap": 6}


def _measure() -> dict:
    """One repetition: times and draw counts of the three operations."""
    import numpy as np

    from dynamech import environments as envs
    from dynamech import verification as ver
    from dynamech.config import build_environment, parse_config_text
    from dynamech.mechanism import MechanismRuntime, Truthful, fee_quadrature, run_episode
    from dynamech.rng import ExperienceStreams

    calls = [0]
    draw_pair = ExperienceStreams.draw_pair

    def counted(self, agent_id):
        calls[0] += 1
        return draw_pair(self, agent_id)

    ExperienceStreams.draw_pair = counted

    def timed(fn):
        calls[0] = 0
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start, calls[0]

    env = envs.sponsored_search(k=2, cap=5, delta=0.8)
    rt = MechanismRuntime(env)
    truthful = [Truthful()] * 2
    fee_quadrature(env, [0.9, 0.7], 0, paths=1, seed=WARM_UP, runtime=rt)  # builds the tables
    run_episode(env, truthful, WARM_UP, 51, theta=[0.9, 0.8], runtime=rt, fee_mode="skip")
    fee_s, fee_draws = timed(
        lambda: fee_quadrature(env, [0.9, 0.7], 0, paths=FEE_PATHS, seed=1, runtime=rt)
    )
    seeds = range(1, EPISODES + 1)
    episode_s, episode_draws = timed(
        lambda: [
            run_episode(env, truthful, s, 51, theta=[0.9, 0.8], runtime=rt, fee_mode="skip")
            for s in seeds
        ]
    )
    posted = envs.finite_chain(
        0.5,
        g=[[1.0]],
        h=[[1.0]],
        value=envs.MultiplicativeValue(
            a=lambda t: t, da=lambda t: 1.0, b=np.ones((1, 1)), c=np.zeros(1)
        ),
    )
    audit_s, audit_draws = timed(
        lambda: ver.audit_ic(posted, seeds=(31,), paths=64, fee_paths=32, runtime=MechanismRuntime(posted))
    )
    ar1 = build_environment(
        parse_config_text(json.dumps({"environment": {"name": "ar1", "params": AR1_PARAMS}, "delta": 0.8}))
    )
    ar1_rt = MechanismRuntime(ar1)
    fee_quadrature(ar1, [0.8, 0.7], 0, paths=1, seed=WARM_UP, runtime=ar1_rt)
    builds = [0]
    build_table = MechanismRuntime.build_table

    def counted_build(self, *args):
        builds[0] += 1
        return build_table(self, *args)

    MechanismRuntime.build_table = counted_build
    additive_s, _ = timed(
        lambda: fee_quadrature(ar1, [0.8, 0.7], 0, paths=FEE_PATHS, seed=1, runtime=ar1_rt)
    )
    return {
        "fee_ms_per_path": 1e3 * fee_s / FEE_PATHS,
        "episode_ms": 1e3 * episode_s / EPISODES,
        "posted_audit_ic_s": audit_s,
        "additive_fee_ms_per_path": 1e3 * additive_s / FEE_PATHS,
        "draw_pair_calls": {
            f"fee_quadrature ({FEE_PATHS} paths)": fee_draws,
            "run_episode (51 rounds)": episode_draws / EPISODES,
            "audit_ic (posted price)": audit_draws,
        },
        "additive_table_builds_per_path": builds[0] / FEE_PATHS,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _run_tree(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env,
        cwd=tree,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    out = {key: statistics.median(r[key] for r in runs) for key in TIMES}
    out.update({key: runs[0][key] for key in COUNTS})
    out["runs"] = {key: [r[key] for r in runs] for key in TIMES}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_engine.json")
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(_measure()))
        return 0
    import numpy
    import scipy

    trees = {label: Path(path).resolve() for label, path in (t.split("=", 1) for t in args.tree)}
    trees = trees or {"change": ROOT}
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for r in range(args.repeats):
        # alternate which tree goes first, so drift in machine speed hits both
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[label].append(_run_tree(trees[label]))
    result = {
        "machine": {
            "nproc": os.cpu_count(),
            "processor": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas_threads": 1,
        "repeats": args.repeats,
        "trees": {label: _summary(runs[label]) for label in trees},
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
