"""The benchmark's four workloads: generated inputs, the timed operation,
and the correctness check against the reference recorded in
``reference.json``.

Each workload has a fixed generated config and a pool of input variants
(CLI seeds, or type profiles for the library workload) stored with their
reference numbers.  A run's ``--seed`` picks where in the pool it starts.
Workloads set only environment params, ``k``, ``cap``, ``delta``,
``horizon``, seeds, ``fee_rollouts``, ``audit_paths``,
``audit_fee_paths``, ``audit_episodes`` and ``coupling_seeds``: the
accuracy knobs are left at their defaults so that configs stay valid when
exact methods replace the approximations behind them.

This module imports dynamech only inside the functions that run it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

POOL = 16  # input variants per workload

# Index tables are resolved to the library's default index_tol (1e-9);
# an exact index may differ from the bisection midpoint by up to that.
INDEX_ATOL = 5e-9
# Prices priced by exact DP (dp_tol 1e-10) on lone arms.
PRICE_ATOL = 1e-6
# Monte-Carlo outputs may move by this many standard errors.
SE_MULT = 4.0
# Quadrature outputs may move by this multiple of the reported
# node-doubling error (the error of an m-node rule on a step integrand is
# about twice the m-vs-2m difference).
QUAD_MULT = 3.0

CONFIGS = {
    # configs/posted_price.cfg with the audit sizes cut to a quarter
    "posted-audit": {
        "environment": {
            "name": "finite_chain",
            "params": {
                "k": 1,
                "g": [[1.0]],
                "h": [[1.0]],
                "value": {"variant": "multiplicative", "a": {"form": "linear"}, "b": [[1.0]], "c": [0.0]},
                "distribution": {"name": "uniform"},
            },
        },
        "delta": 0.5,
        "audit_paths": 16,
        "audit_fee_paths": 8,
        "audit_episodes": 200,
        "coupling_seeds": 50,
        "master_seed": 7,
    },
    # configs/sponsored_search_2.cfg with fee_rollouts lowered
    "sponsored-simulate": {
        "environment": {
            "name": "sponsored_search",
            "params": {"k": 2, "theta_bar": 1.0, "click_prior": [1, 1], "purchase_prior": [1, 1], "cap": 5},
        },
        "delta": 0.8,
        "fee_rollouts": 16,
        "master_seed": 11,
    },
    # four agents: the price needs W over three 36-state arms (36^3 joint
    # states, above the exact-DP cap)
    "sponsored4-price": {
        "environment": {
            "name": "sponsored_search",
            "params": {"k": 4, "theta_bar": 1.0, "click_prior": [1, 1], "purchase_prior": [1, 1], "cap": 2},
        },
        "delta": 0.8,
        "horizon": 1,
        "master_seed": 13,
    },
    # additive values (no multiplicative shortcut): every quadrature node
    # compiles and indexes a fresh 35-state arm
    "ar1-bound": {
        "environment": {
            "name": "ar1",
            "params": {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1, "alloc_cap": 6},
        },
        "delta": 0.8,
        "audit_episodes": 2,
        "master_seed": 17,
    },
}

NAMES = tuple(CONFIGS)


def write_config(name: str, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.cfg"
    path.write_text(json.dumps(CONFIGS[name], indent=2, sort_keys=True) + "\n")
    return path


def pool_positions(seed: int, repeat: bool):
    """Pool positions of a run's operations: consecutive from the seed's
    position, or the seed's position every time (traced runs, so that
    per-operation counts repeat exactly)."""
    start = seed % POOL
    for j in itertools.count():
        yield start if repeat else (start + j) % POOL


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one execution produced: artifact bytes, the exit status of a
    CLI call, and the numbers the correctness check reads."""

    artifacts: dict[str, bytes]
    status: int
    numbers: dict


def _read_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _cli(args: list[str], timed) -> int:
    from dynamech import cli

    with contextlib.redirect_stdout(io.StringIO()), timed():
        return cli.main(args)


def execute(name: str, cfg_path: Path, inputs: dict, out_dir: Path, timed) -> Outcome:
    """Run one operation; only the work inside ``timed()`` is measured."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    if name == "sponsored4-price":
        return _price_episode(cfg_path, inputs, timed)
    base = ["--config", str(cfg_path), "--seed", str(inputs["seed"]), "--out", str(out_dir)]
    if name == "posted-audit":
        status = _cli(base + ["audit", "--suite", "all"], timed)
        artifacts = _read_tree(out_dir)
        numbers = _audit_numbers(artifacts["audit.json"])
    elif name == "ar1-bound":
        status = _cli(base + ["bound"], timed)
        artifacts = _read_tree(out_dir)
        numbers = _audit_numbers(artifacts["bound.json"])
        numbers.update(_bound_companions(cfg_path, inputs))
    elif name == "sponsored-simulate":
        status = _cli(base + ["--format", "json", "simulate"], timed)
        artifacts = _read_tree(out_dir)
        numbers = _simulate_numbers(artifacts["summary.json"], artifacts["transcript.json"])
    else:
        raise KeyError(name)
    return Outcome(artifacts, status, numbers)


def _audit_numbers(raw: bytes) -> dict:
    payload = json.loads(raw)
    return {
        "cells": [
            {
                "name": r["name"],
                "observed": r["observed"],
                "threshold": r["threshold"],
                "std_error": r["std_error"],
                "passed": r["passed"],
            }
            for r in payload["results"]
        ]
    }


def _bound_companions(cfg_path: Path, inputs: dict) -> dict:
    """Untimed numbers for the bound audit's episode types: every agent's
    index table and one ``run_episode(fee_mode="skip")``
    per episode, in a fresh runtime.  ``bound.json`` holds one cell, which
    measures revenue minus virtual surplus under the run's own allocation,
    so the index layer and the prices are checked by these."""
    from dynamech.config import build_environment, parse_config
    from dynamech.mechanism import MechanismRuntime, Truthful, run_episode

    cfg = parse_config(cfg_path)
    env = build_environment(cfg)
    runtime = MechanismRuntime(env)
    tables, episodes = [], []
    for theta in inputs["episode_types"]:
        for i in range(env.k):
            transform = runtime.transform(i, theta[i])
            tables.append([float(x) for x in runtime.index_flat(i, transform, theta[i])])
        tr = run_episode(
            env, [Truthful()] * env.k, int(inputs["seed"]), cfg.horizon,
            theta=theta, runtime=runtime, fee_mode="skip",
        )
        episodes.append(
            {
                "revenue": float(tr.revenue),
                "utilities": [float(u) for u in tr.utilities],
                "winners": [r.winner for r in tr.rounds],
                "payments": [float(r.payment) for r in tr.rounds],
            }
        )
    return {"index_tables": tables, "episodes": episodes}


def _simulate_numbers(summary_raw: bytes, transcript_raw: bytes) -> dict:
    summary = json.loads(summary_raw)
    rows = json.loads(transcript_raw)["rows"]
    return {
        "theta": summary["theta"],
        "dormant": summary["dormant"],
        "revenue": summary["revenue"],
        "utilities": summary["utilities"],
        "entry_fees": summary["entry_fees"],
        "entry_fee_se": summary["entry_fee_se"],
        "winners": [r["winner"] for r in rows],
        "payments": [r["payment"] for r in rows],
    }


def _price_episode(cfg_path: Path, inputs: dict, timed) -> Outcome:
    """``run_episode(fee_mode="skip")`` on given types, then the index
    tables the episode used (read after the timed call, from its cache)."""
    from dynamech.config import build_environment, parse_config
    from dynamech.mechanism import MechanismRuntime, Truthful, run_episode

    cfg = parse_config(cfg_path)
    env = build_environment(cfg)
    theta = [float(t) for t in inputs["theta"]]
    with timed():
        runtime = MechanismRuntime(env)
        tr = run_episode(
            env,
            [Truthful()] * env.k,
            int(inputs["seed"]),
            cfg.horizon,
            theta=theta,
            runtime=runtime,
            fee_mode="skip",
        )
    tables = []
    for i in range(env.k):
        transform = runtime.transform(i, theta[i])
        tables.append([float(x) for x in runtime.index_flat(i, transform, theta[i])])
    numbers = {
        "theta": list(tr.theta),
        "w_mode": tr.w_mode,
        "revenue": float(tr.revenue),
        "utilities": [float(u) for u in tr.utilities],
        "winners": [r.winner for r in tr.rounds],
        "payments": [float(r.payment) for r in tr.rounds],
        "e_hat": [list(r.e_hat) for r in tr.rounds],
        "rho": [list(r.rho) for r in tr.rounds],
        "index_tables": tables,
    }
    raw = json.dumps(numbers, sort_keys=True).encode("utf-8")
    return Outcome({"episode.json": raw}, 0, numbers)


# ---------------------------------------------------------------------------
# Correctness check
# ---------------------------------------------------------------------------


def check(name: str, got: dict, ref: dict) -> list[str]:
    """Ways in which an operation's numbers leave the reference's
    tolerance (empty when they are correct).  ``ref`` is one pool entry:
    its ``numbers`` plus the error terms recorded beside them."""
    if name == "posted-audit":
        return _check_cells(got, ref["numbers"])
    if name == "ar1-bound":
        want = ref["numbers"]
        errors = _check_cells(got, want)
        _check_tables(got["index_tables"], want["index_tables"], errors)
        for s, (ep, want_ep) in enumerate(zip(got["episodes"], want["episodes"])):
            no_fees = [0.0] * len(want_ep["utilities"])
            _check_lone_arm_episode(f"episode {s} ", ep, want_ep, ref["delta"], no_fees, errors)
        return errors
    if name == "sponsored-simulate":
        return _check_simulate(got, ref)
    return _check_prices(got, ref)


def _close(label: str, x: float, want: float, tol: float, errors: list[str]) -> None:
    if not (math.isfinite(x) and abs(x - want) <= tol):
        errors.append(f"{label}: {x!r} vs reference {want!r} (tolerance {tol:.3g})")


def _check_tables(got: list, want: list, errors: list[str]) -> None:
    """Index tables within INDEX_ATOL of the reference, state by state."""
    if len(got) != len(want):
        errors.append(f"{len(got)} index tables vs reference {len(want)}")
        return
    for i, (table, want_table) in enumerate(zip(got, want)):
        if len(table) != len(want_table):
            errors.append(f"index table {i}: {len(table)} states vs reference {len(want_table)}")
            continue
        worst = max(abs(a - b) for a, b in zip(table, want_table))
        if not worst <= INDEX_ATOL:
            errors.append(f"index table {i}: off by {worst:.3g} (tolerance {INDEX_ATOL:.3g})")


def _check_cells(got: dict, want: dict) -> list[str]:
    """Each audit cell's observed value within the reference cell's own
    error budget (its threshold: 3 se plus quadrature, tail and atol)."""
    names = [c["name"] for c in got["cells"]]
    want_names = [c["name"] for c in want["cells"]]
    if names != want_names:
        return [f"audit cells {names} vs reference {want_names}"]
    errors: list[str] = []
    for c, w in zip(got["cells"], want["cells"]):
        _close(c["name"], c["observed"], w["observed"], w["threshold"] + 1e-9, errors)
    return errors


def _check_simulate(got: dict, ref: dict) -> list[str]:
    want = ref["numbers"]
    errors: list[str] = []
    if got["theta"] != want["theta"] or got["dormant"] != want["dormant"]:
        return [f"types {got['theta']} vs reference {want['theta']}"]
    fee_tol = [
        SE_MULT * math.hypot(se, want_se) + QUAD_MULT * q + 1e-9
        for se, want_se, q in zip(got["entry_fee_se"], want["entry_fee_se"], ref["fee_quad_error"])
    ]
    for i, (fee, want_fee) in enumerate(zip(got["entry_fees"], want["entry_fees"])):
        _close(f"entry_fee[{i}]", fee, want_fee, fee_tol[i], errors)
    _check_lone_arm_episode("", got, want, ref["delta"], fee_tol, errors)
    return errors


def _check_lone_arm_episode(
    label: str, got: dict, want: dict, delta: float, fee_tol: list[float], errors: list[str]
) -> None:
    """Winners exactly; prices priced by exact DP within PRICE_ATOL
    (relative); revenue and utilities within the tolerances that enter
    them (``fee_tol``: per-agent entry-fee tolerance, 0 when fees are
    skipped)."""
    if got["winners"] != want["winners"]:
        errors.append(f"{label}winner sequence differs from the reference")
        return
    disc, pay_tol = 1.0, 0.0
    for t, (p, want_p) in enumerate(zip(got["payments"], want["payments"]), start=1):
        tol = PRICE_ATOL * max(1.0, abs(want_p))
        _close(f"{label}payment[t={t}]", p, want_p, tol, errors)
        pay_tol += disc * tol
        disc *= delta
    _close(f"{label}revenue", got["revenue"], want["revenue"], sum(fee_tol) + pay_tol, errors)
    for i, (u, want_u) in enumerate(zip(got["utilities"], want["utilities"])):
        _close(f"{label}utility[{i}]", u, want_u, fee_tol[i] + pay_tol, errors)


def _check_prices(got: dict, ref: dict) -> list[str]:
    """Prices within SE_MULT standard errors of the W_{-i} rollout
    (recorded as ``price_se``, since the rollout reports none)."""
    want = ref["numbers"]
    errors: list[str] = []
    if got["theta"] != want["theta"]:
        return [f"types {got['theta']} vs reference {want['theta']}"]
    if got["winners"] != want["winners"] or got["e_hat"] != want["e_hat"] or got["rho"] != want["rho"]:
        return ["allocation sequence differs from the reference"]
    delta = ref["delta"]
    disc, rev_tol = 1.0, 0.0
    agent_tol = [0.0] * len(got["theta"])
    for t, (w, p, want_p, se) in enumerate(
        zip(got["winners"], got["payments"], want["payments"], ref["price_se"]), start=1
    ):
        tol = SE_MULT * se + PRICE_ATOL
        _close(f"payment[t={t}]", p, want_p, tol, errors)
        rev_tol += disc * tol
        if w > 0:
            agent_tol[w - 1] += disc * tol
        disc *= delta
    _close("revenue", got["revenue"], want["revenue"], rev_tol + 1e-12, errors)
    for i, (u, want_u) in enumerate(zip(got["utilities"], want["utilities"])):
        _close(f"utility[{i}]", u, want_u, agent_tol[i] + 1e-12, errors)
    _check_tables(got["index_tables"], want["index_tables"], errors)
    return errors
