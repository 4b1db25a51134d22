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
- ``strategic_run_us``: one ``_Deviator.run`` of agent 0 on the same
  sponsored-search environment at types (0.9, 0.7), mean over every
  strategy of ``default_deviations`` and 64 paths whose trajectories and
  levels an untimed pass has already drawn (the IC audit's horizon);
- ``additive_fee_ms_per_path``: ``fee_quadrature`` on the additive
  AR(1) environment of the ``ar1-bound`` benchmark (k=2, 35-state arms)
  at reports (0.8, 0.7) for agent 0, per path, over 16 paths (the index
  tables at the reports are built beforehand; the walk's tables at
  other z are not);
- ``draw_pair_calls``: ``ExperienceStreams.draw_pair`` calls made by
  one operation of each kind above;
- ``additive_table_builds_per_path``: index tables the additive fee
  call builds at points of its walk (``gittins.index_of_states`` calls,
  wherever the tree calls it from), per path;
- ``sweep_ms``: best of ``SWEEP_CALLS`` index sweeps of the
  experience-reward arms of sponsored search at caps 2-5 and 7 and of
  the AR(1) environment above: index-only over every state
  (``gittins._sweep_indices``), again with the hit columns one
  ``simulate`` reads (``gittins.hit_discounts``, then ``column`` at each
  of those states; a tree whose ``hit_discounts`` builds the whole hit
  table is timed on that call alone), and, in a tree that has it, over
  the states reachable from state 0 alone (``gittins.start_indices``,
  the arm's closure already built; ``START_ARMS``' arms only), labelled
  with the closure's size;
- ``simulate_columns``: those states per arm, counted: the distinct
  opponent states whose lone-arm price one ``run_episode`` with fees
  reads on the arm's k=2 environment (delta 0.8) at types (0.9, 0.8),
  seed ``SIMULATE_SEED`` and ``SIMULATE_FEE_ROLLOUTS`` fee paths, the
  other settings at their defaults, as the CLI's ``simulate`` runs it;
- ``index_build_us``: one index build as a price or a fee walk asks
  for it, ``compile_reward_arm`` then ``_sweep_indices`` (the sweep and
  its clip to the reachable reward range), in microseconds, median of
  ``INDEX_BUILDS`` builds in the process: on the AR(1) agent's 35-state
  arm at the rewards of agent 0's virtual values for reports and types
  on a grid over [0.5, 1] (the additive builds of ``ar1-bound``), and on
  the 441-state sponsored-search arm (cap 5) at its experience rewards;
  each on one agent model that earlier builds have used ("warm"), and
  as the first build on a new agent model ("first");
- ``stream_us``: the cost of a stream address, in microseconds: one
  ``ExperienceStreams.draw_pair``, the first on a fresh address (mean
  over ``STREAM_ADDRESSES`` addresses of one seed and purpose, as the
  audits' episodes use them), and one type draw of the revenue audit
  on the posted-price arm, amortised over a batch of
  ``STREAM_EPISODES`` episodes as ``audit_revenue_bound`` draws them
  (keys in one pass and a re-keyed generator where the tree has
  ``rng.stream_keys``, else one ``substream`` per draw);
- ``posted_audit_suite_ms``: each suite of ``audit --suite all`` on the
  ``posted-audit`` benchmark's config (``perfbench/workloads.py``), as
  the CLI runs them, one runtime per operation, and their total, in
  milliseconds, median over the ``AUDIT_OPS`` first inputs of the
  workload's pool (``perfbench/reference.json``).

Times are medians over ``--repeats`` repetitions (each repetition's
value is kept under ``runs``).  Every repetition runs the same
operations on the same streams in a fresh process.  Processes of one
tree read up to ~30% apart, so with two or more trees each repetition
also gives every later tree's time over the first tree's
(``ratios``), measured in processes that ran back to back, with their
median and the count of repetitions in which the ratio is below 1
(``faster``).

The host can run a whole process in a fast or a slow mode (about 1.5x
apart), which separate processes cannot tell from a change.  With two
or more trees, ``--repeats`` more processes therefore each load every
tree under a package name of its own (``dynamech_<label>``) and
alternate their operations: per workload of the benchmark
(``INTERLEAVED``: its three CLI workloads and ``sponsored4-price``'s
library call), ``INTERLEAVED_PAIRS`` pairs on the pool's inputs in
order, each pair one operation of every tree on the same input, the
first tree first in even pairs.  Recorded under ``interleaved``: per
workload and process, each tree's median milliseconds, each later
tree's ratio of medians over the first tree, in how many pairs it was
faster, and whether every operation's artifacts were byte-identical
across the trees (for ``sponsored4-price``, whether the transcripts'
revenue, utilities and rounds compare equal, so -0.0 equals 0.0).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FEE_PATHS = 16
EPISODES = 200
WARM_UP = 10**6  # stream seed of the untimed calls
STRATEGIC_PATHS = 64
SWEEP_CALLS = 5
SWEEP_CAPS = (2, 3, 4, 5, 7)
START_ARMS = ("sponsored cap 2", "sponsored cap 5", "ar1")  # the arms whose start-closure sweep is timed
SIMULATE_SEED, SIMULATE_FEE_ROLLOUTS = 11, 16  # as the sponsored-simulate benchmark's config
TIMES = (
    "fee_ms_per_path", "episode_ms", "posted_audit_ic_s", "additive_fee_ms_per_path", "strategic_run_us",
)
COUNTS = ("draw_pair_calls", "additive_table_builds_per_path", "simulate_columns")  # identical in every repetition
TABLES = ("sweep_ms", "index_build_us", "stream_us", "posted_audit_suite_ms")  # {label: time}, a median per label
AUDIT_OPS = 8
STREAM_ADDRESSES, STREAM_EPISODES = 500, 200
INTERLEAVED_PAIRS = 30
INTERLEAVED = {  # workloads of the benchmark and their CLI commands, as perfbench/workloads.py runs them
    "posted-audit": ["audit", "--suite", "all"],
    "sponsored-simulate": ["--format", "json", "simulate"],
    "sponsored4-price": None,  # a library call: ``_price_op``
    "ar1-bound": ["bound"],
}
INDEX_BUILDS = 50
AR1_PARAMS = {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1, "alloc_cap": 6}


def _measure() -> dict:
    """One repetition: times and draw counts of the three operations."""
    import numpy as np

    from dynamech import environments as envs
    from dynamech import gittins
    from dynamech import mechanism as mech
    from dynamech import verification as ver
    from dynamech.config import build_environment, parse_config_text
    from dynamech.gittins import tail_horizon
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
    theta = [0.9, 0.7]
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-6)
    deviators = []
    for _, strategy in ver.default_deviations(env, 0):
        theta_hat0 = [strategy.schedule(theta[0], env.agents[0].distribution.theta_bar).theta_hat0, theta[1]]
        transforms = mech._active_transforms(env, rt, theta_hat0)
        deviators.append(mech._Deviator(env, rt, transforms, theta, 0, strategy, horizon))
    strategic_streams = [ExperienceStreams(1, j, "strategic") for j in range(STRATEGIC_PATHS)]

    def strategic_runs():
        for deviator in deviators:
            for streams in strategic_streams:
                deviator.run(streams)

    strategic_runs()  # draws the trajectories and the others' levels
    strategic_s, _ = timed(strategic_runs)
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
    index_of_states = gittins.index_of_states

    def counted_build(*args):
        builds[0] += 1
        return index_of_states(*args)

    callers = [m for m in (mech, gittins) if getattr(m, "index_of_states", None) is index_of_states]
    for module in callers:
        module.index_of_states = counted_build
    additive_s, _ = timed(
        lambda: fee_quadrature(ar1, [0.8, 0.7], 0, paths=FEE_PATHS, seed=1, runtime=ar1_rt)
    )
    for module in callers:
        module.index_of_states = index_of_states
    ExperienceStreams.draw_pair = draw_pair
    sweep_ms, simulate_columns = _sweep_ms()
    index_build_us = _index_build_us()
    stream_us = _stream_us(posted)
    posted_audit_suite_ms = _posted_audit_suite_ms()
    return {
        "fee_ms_per_path": 1e3 * fee_s / FEE_PATHS,
        "episode_ms": 1e3 * episode_s / EPISODES,
        "posted_audit_ic_s": audit_s,
        "additive_fee_ms_per_path": 1e3 * additive_s / FEE_PATHS,
        "strategic_run_us": 1e6 * strategic_s / (len(deviators) * STRATEGIC_PATHS),
        "draw_pair_calls": {
            f"fee_quadrature ({FEE_PATHS} paths)": fee_draws,
            "run_episode (51 rounds)": episode_draws / EPISODES,
            "audit_ic (posted price)": audit_draws,
        },
        "additive_table_builds_per_path": builds[0] / FEE_PATHS,
        "sweep_ms": sweep_ms,
        "index_build_us": index_build_us,
        "simulate_columns": simulate_columns,
        "stream_us": stream_us,
        "posted_audit_suite_ms": posted_audit_suite_ms,
    }


def _stream_us(env) -> dict:
    """Microseconds of a first ``draw_pair`` on a fresh address and of
    one revenue-audit type draw on ``env`` in a ``STREAM_EPISODES`` batch."""
    from dynamech import rng

    seed = 7
    rows = [(s, i) for s in range(STREAM_EPISODES) for i in range(env.k)]
    if hasattr(rng, "stream_keys"):

        def type_draws(seed):
            keys = rng.stream_keys(seed, "rev-types", rows)
            return [env.agents[i].distribution.sample(rng.keyed(key)) for (_, i), key in zip(rows, keys)]

    else:

        def type_draws(seed):
            return [env.agents[i].distribution.sample(rng.substream(seed, "rev-types", s, i)) for s, i in rows]

    rng.ExperienceStreams(seed, -1, "revenue").draw_pair(0)  # untimed: the seed and purpose seen once
    type_draws(seed + 1)
    fresh = [rng.ExperienceStreams(seed, path, "revenue") for path in range(STREAM_ADDRESSES)]
    start = time.perf_counter()
    for streams in fresh:
        streams.draw_pair(0)
    first_s = time.perf_counter() - start
    start = time.perf_counter()
    type_draws(seed)
    types_s = time.perf_counter() - start
    return {
        "first draw_pair on a fresh address": 1e6 * first_s / STREAM_ADDRESSES,
        f"revenue-audit type draw ({STREAM_EPISODES}-episode batch)": 1e6 * types_s / len(rows),
    }


def _benchmark_workloads():
    """``perfbench/workloads.py`` (its configs) and the input pools of
    ``perfbench/reference.json``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    pools = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    return workloads, {name: [entry["inputs"] for entry in pools[name]] for name in INTERLEAVED}


def _posted_audit_suite_ms() -> dict:
    """Median milliseconds of each suite of ``audit --suite all`` on the
    posted-audit config, and of the whole audit, over ``AUDIT_OPS``
    operations of one runtime each."""
    from dynamech import cli
    from dynamech.config import build_environment, parse_config_text
    from dynamech.mechanism import MechanismRuntime

    workloads, pools = _benchmark_workloads()
    cfg = parse_config_text(json.dumps(workloads.CONFIGS["posted-audit"]))
    times: dict[str, list[float]] = {suite: [] for suite in cli._SUITES + ("all",)}
    for inputs in pools["posted-audit"][:AUDIT_OPS]:
        env = build_environment(cfg)
        runtime = MechanismRuntime(env)
        total = 0.0
        for suite in cli._SUITES:
            start = time.perf_counter()
            cli._run_suite(suite, cfg, env, runtime, inputs["seed"])
            took = time.perf_counter() - start
            times[suite].append(took)
            total += took
        times["all"].append(total)
    return {suite: 1e3 * statistics.median(t) for suite, t in times.items()}


def _load_tree(label: str, tree: Path):
    """``<tree>/src/dynamech`` imported as the package ``dynamech_<label>``;
    returns its ``cli`` module."""
    name = "dynamech_" + re.sub(r"\W", "_", label)
    pkg = tree / "src" / "dynamech"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _price_op(cli, cfg_path: Path, inputs: dict) -> tuple[float, dict]:
    """One ``sponsored4-price`` operation with the package of ``cli``, as
    ``perfbench/workloads.py`` times it: the environment is built
    untimed, the runtime and the fee-less ``run_episode`` are timed.
    Returns the seconds and the transcript's numbers."""
    config = importlib.import_module(f"{cli.__package__}.config")
    mech = importlib.import_module(f"{cli.__package__}.mechanism")
    cfg = config.parse_config(cfg_path)
    env = config.build_environment(cfg)
    theta = [float(t) for t in inputs["theta"]]
    start = time.perf_counter()
    runtime = mech.MechanismRuntime(env)
    tr = mech.run_episode(
        env, [mech.Truthful()] * env.k, int(inputs["seed"]), cfg.horizon, theta=theta, runtime=runtime,
        fee_mode="skip",
    )
    took = time.perf_counter() - start
    rounds = [tuple(vars(r).values()) for r in tr.rounds]  # each tree has its own RoundRecord class
    return took, {"revenue": tr.revenue, "utilities": tr.utilities, "rounds": rounds}


def _interleaved(trees: dict[str, Path]) -> dict:
    """One process: every tree's operations alternated pair by pair on
    each interleaved workload (see the module docstring)."""
    workloads, pools = _benchmark_workloads()
    clis = {label: _load_tree(label, tree) for label, tree in trees.items()}
    labels = list(trees)
    scratch = Path(tempfile.mkdtemp(prefix="bench_engine_"))
    out = {}
    try:
        for name, command in INTERLEAVED.items():
            cfg_path = workloads.write_config(name, scratch)
            times: dict[str, list[float]] = {label: [] for label in labels}
            identical = True
            for j in range(INTERLEAVED_PAIRS):
                inputs = pools[name][j % len(pools[name])]
                seed = inputs["seed"]
                artifacts = {}
                for label in labels[:: 1 if j % 2 == 0 else -1]:
                    if command is None:
                        took, artifacts[label] = _price_op(clis[label], cfg_path, inputs)
                        times[label].append(took)
                        continue
                    out_dir = scratch / label
                    shutil.rmtree(out_dir, ignore_errors=True)
                    argv = ["--config", str(cfg_path), "--seed", str(seed), "--out", str(out_dir), *command]
                    with contextlib.redirect_stdout(io.StringIO()):
                        start = time.perf_counter()
                        clis[label].main(argv)
                        times[label].append(time.perf_counter() - start)
                    artifacts[label] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                identical = identical and all(a == artifacts[labels[0]] for a in artifacts.values())
            base = times[labels[0]]
            out[name] = {
                "median_ms": {label: 1e3 * statistics.median(t) for label, t in times.items()},
                "identical_artifacts": identical,
            }
            for label in labels[1:]:
                out[name][f"{label} / {labels[0]}"] = {
                    "ratio_of_medians": statistics.median(times[label]) / statistics.median(base),
                    "faster": f"{sum(t < b for t, b in zip(times[label], base))}/{INTERLEAVED_PAIRS}",
                }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def _simulate_states(env) -> list[int]:
    """The distinct opponent states that one ``simulate`` on ``env``
    prices a lone arm at (``MechanismRuntime.w_minus`` with one arm)."""
    from dynamech.mechanism import MechanismRuntime, Truthful, run_episode

    states = set()
    w_minus = MechanismRuntime.w_minus

    def recorded(self, others, at):
        if len(others) == 1:
            states.add(at[0])
        return w_minus(self, others, at)

    MechanismRuntime.w_minus = recorded
    try:
        run_episode(
            env, [Truthful()] * env.k, SIMULATE_SEED, theta=[0.9, 0.8], runtime=MechanismRuntime(env),
            fee_rollouts=SIMULATE_FEE_ROLLOUTS,
        )
    finally:
        MechanismRuntime.w_minus = w_minus
    return sorted(states)


def _sweep_ms() -> tuple[dict, dict]:
    """Best-of-``SWEEP_CALLS`` milliseconds of one index sweep per arm
    and mode, and the number of hit columns the second mode replays."""
    import numpy as np

    from dynamech import environments as envs
    from dynamech import gittins

    arms = {}
    for cap in SWEEP_CAPS:
        env = envs.sponsored_search(k=2, cap=cap, delta=0.8)
        agent = env.agents[0]
        arms[f"sponsored cap {cap}"] = (env, gittins.compile_reward_arm(agent, agent.value.b, env.delta))
    params = dict(AR1_PARAMS, shock=np.array(AR1_PARAMS["shock"]))
    env = envs.ar1(delta=0.8, **params)
    agent = env.agents[0]
    arms["ar1"] = (env, gittins.compile_reward_arm(agent, agent.value.b, env.delta))

    def columns(arm, states):
        hits = gittins.hit_discounts(arm)[2]
        for x in states if hasattr(hits, "column") else ():
            hits.column(x)

    out, counts = {}, {}
    for name, (env, arm) in arms.items():
        states = _simulate_states(env)
        label = f"{name} ({arm.n} states)"
        counts[label] = len(states)
        modes = {"index": lambda: gittins._sweep_indices(arm), "simulate columns": lambda: columns(arm, states)}
        if name in START_ARMS and hasattr(gittins, "start_indices"):
            modes[f"start closure ({len(arm.graph.start(arm.delta)[0])} states)"] = lambda: gittins.start_indices(arm)
        for mode, sweep in modes.items():
            best = math.inf
            for _ in range(SWEEP_CALLS):
                start = time.perf_counter()
                sweep()
                best = min(best, time.perf_counter() - start)
            out[f"{label}, {mode}"] = 1e3 * best
    return out, counts


def _index_build_us() -> dict:
    """Median microseconds of one ``compile_reward_arm`` plus
    ``_sweep_indices`` per arm, warm and first on a new agent model."""
    import numpy as np

    from dynamech import environments as envs
    from dynamech import gittins
    from dynamech.virtual import transform_or_dormant, xi_table

    params = dict(AR1_PARAMS, shock=np.array(AR1_PARAMS["shock"]))
    grid = np.linspace(0.5, 1.0, INDEX_BUILDS)

    def ar1_model():
        env = envs.ar1(delta=0.8, **params)
        tables = [xi_table(transform_or_dormant(env, 0, z), env, 0, z) for z in grid]
        return env.agents[0], tables

    def sponsored_model():
        agent = envs.sponsored_search(k=2, cap=5, delta=0.8).agents[0]
        return agent, [agent.value.b] * INDEX_BUILDS

    def build(agent, rewards) -> float:
        start = time.perf_counter()
        gittins._sweep_indices(gittins.compile_reward_arm(agent, rewards, 0.8))
        return time.perf_counter() - start

    out = {}
    for label, model in (("ar1 (35 states)", ar1_model), ("sponsored cap 5 (441 states)", sponsored_model)):
        agent, tables = model()
        build(agent, tables[0])  # untimed: the model's first build
        out[f"{label}, warm"] = 1e6 * statistics.median(build(agent, x) for x in tables)
        firsts = []
        for _ in range(INDEX_BUILDS // 5):
            agent, tables = model()
            firsts.append(build(agent, tables[0]))
        out[f"{label}, first"] = 1e6 * statistics.median(firsts)
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _child(args: list[str], tree: Path, pythonpath: str) -> dict:
    env = dict(os.environ, PYTHONPATH=pythonpath)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, *args],
        env=env,
        cwd=tree,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_tree(tree: Path) -> dict:
    return _child(["--measure"], tree, str(tree / "src"))


def _run_interleaved(trees: dict[str, Path]) -> dict:
    tree_args = [f"--tree={label}={path}" for label, path in trees.items()]
    return _child(["--measure-interleaved", *tree_args], ROOT, "")


def _summary(runs: list[dict]) -> dict:
    out = {key: statistics.median(r[key] for r in runs) for key in TIMES}
    out.update({key: runs[0][key] for key in COUNTS})
    for key in TABLES:
        out[key] = {label: statistics.median(r[key][label] for r in runs) for label in runs[0][key]}
    out["runs"] = {key: [r[key] for r in runs] for key in TIMES + TABLES}
    return out


def _flat(run: dict) -> dict:
    """A repetition's times, one per name (a table's as "key: label")."""
    out = {key: run[key] for key in TIMES}
    for key in TABLES:
        out.update({f"{key}: {label}": t for label, t in run[key].items()})
    return out


def _ratios(base: list[dict], other: list[dict]) -> dict:
    """Per time, each repetition's ``other / base``, their median, and
    in how many repetitions ``other`` was faster."""
    base, other = [_flat(r) for r in base], [_flat(r) for r in other]
    out = {}
    for name in base[0]:
        ratios = [o[name] / b[name] for b, o in zip(base, other)]
        out[name] = {
            "median": statistics.median(ratios),
            "faster": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
            "ratios": ratios,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_engine.json")
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--measure-interleaved", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    trees = {label: Path(path).resolve() for label, path in (t.split("=", 1) for t in args.tree)}
    if args.measure:
        print(json.dumps(_measure()))
        return 0
    if args.measure_interleaved:
        print(json.dumps(_interleaved(trees)))
        return 0
    import numpy
    import scipy

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
    labels = list(trees)
    if len(labels) > 1:
        result["ratios"] = {
            f"{label} / {labels[0]}": _ratios(runs[labels[0]], runs[label]) for label in labels[1:]
        }
        processes = [_run_interleaved(trees) for _ in range(args.repeats)]
        result["interleaved"] = {
            "pairs": INTERLEAVED_PAIRS,
            "workloads": {name: [p[name] for p in processes] for name in INTERLEAVED},
        }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
