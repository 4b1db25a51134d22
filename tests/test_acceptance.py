"""Acceptance suite: one test per criterion, one printed line per result.

Statistical criteria run at 3 standard errors from paired estimators
plus the reported truncation/quadrature errors; deterministic criteria
use absolute tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dynamech import cli
from dynamech import environments as envs
from dynamech import gittins
from dynamech import mechanism as mech
from dynamech import verification as ver
from dynamech.config import build_environment, parse_config
from dynamech.environments import ArmState
from dynamech.gittins import tail_horizon
from dynamech.mechanism import ExperienceStreams, Truthful, _active_transforms, _run_rounds
from dynamech.rng import substream
from dynamech.virtual import VirtualTransform, affine_coefficients

from conftest import constant_arm_env, index_at, posted_price_env, two_state_env
from oracles import (
    alloc_times,
    brute_force_index,
    entry_price_P,
    exact_dp_policy_value,
    marginal_contribution,
)

REPO = Path(__file__).resolve().parents[1]


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}", flush=True)
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_constant_arm_fixed_point():
    start = time.time()
    env = constant_arm_env(0.5)
    gen = substream(2024, "acceptance-1")
    worst = 0.0
    for _ in range(20):
        xi = float(gen.uniform(-1.0, 1.0))
        tr = VirtualTransform(alpha=1.0, beta=np.array([xi]), pegged_report=1.0)
        got = index_at(env, 0, tr, 0.0, 0, 0)
        worst = max(worst, abs(got - xi))
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"constant-arm index == xi (worst gap {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_02_two_state_arm_oracle():
    env = two_state_env(0.5)
    tr = affine_coefficients(env, 0, 1.0)
    idx = index_at(env, 0, tr, 0.5, 0, 0)
    bf = brute_force_index(env, 0, tr, ArmState(0.5, 0, 0), horizon=30)
    ok = abs(idx - 0.5) <= 1e-8 and abs(bf.value - 0.5) <= 1e-8
    ok = ok and abs(idx - bf.value) <= 1e-9 + bf.tail_bound
    _report(2, ok, f"two-state index {idx:.10f} vs oracle {bf.value:.10f}")


def test_criterion_03_index_policy_optimality():
    start = time.time()
    worst = 0.0
    for seed in range(25):
        gen = substream(seed, "acceptance-3")
        delta = 0.5 + 0.4 * float(gen.random())
        agents = []
        for _ in range(2):
            n = int(gen.integers(2, 5))
            rewards = -0.3 + 1.3 * gen.random(n)
            p = gen.random((n, n)) + 0.05
            p /= p.sum(axis=1, keepdims=True)
            val = envs.AdditiveValue(
                a=lambda t, r: 0.0, da=lambda t, r: 0.0, b=rewards.reshape(n, 1)
            )
            agents.append(
                envs.AgentModel(
                    envs.uniform_type(1.0),
                    envs.PublicKernel(matrix=np.eye(1), labels=("p0",)),
                    envs.PrivateKernel(
                        matrix=p.reshape(1, n, n), labels=tuple(f"e{i}" for i in range(n))
                    ),
                    val,
                )
            )
        env = envs.make_environment(agents, delta)
        policy = exact_dp_policy_value(env, [1.0, 1.0], [0.5, 0.5], [0, 0], [0, 0], "index")
        arms = [
            gittins.compile_reward_arm(env.agents[i], env.agents[i].value.b, delta)
            for i in range(2)
        ]
        opt = float(gittins.joint_optimal_value(arms, delta, tol=1e-12)[0])
        worst = max(worst, abs(policy.policy_value - opt))
    elapsed = time.time() - start
    _report(
        3,
        worst <= 1e-8 and elapsed < 30.0,
        f"index policy == exact optimum on 25 instances (worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_04_posted_price_closed_forms(posted_price, posted_price_runtime):
    start = time.time()
    env, rt = posted_price, posted_price_runtime
    horizon = tail_horizon(0.5, 1, 1.0, 1e-8)

    est = entry_price_P(env, [0.8], 0, rollouts=2000, seed=3, horizon=horizon, runtime=rt)
    tail = 0.5**horizon * 1.0 / 0.5
    ok_p = est.std_error <= 0.01 and abs(est.mean - 1.0) <= 3 * est.std_error + est.quad_error + 3 * tail + 1e-9

    # expected revenue over 1e4 type draws: per draw the target payment,
    # offset term cancelled by the realized payments (coupled streams)
    n_draws = 10_000
    revs = np.zeros(n_draws)
    for s in range(n_draws):
        theta = [env.agents[0].distribution.sample(substream(9, "rev4", s, 0))]
        data = mech.fee_quadrature(
            env, theta, 0, paths=1, seed=9, horizon=horizon, runtime=rt,
            stream_purpose="rev4", path_offset=s,
        )
        revs[s] = data.price_paths()[0]
    rev_mean = float(np.mean(revs))
    rev_se = float(np.std(revs, ddof=1) / np.sqrt(n_draws))
    ok_rev = abs(rev_mean - 0.5) <= 3 * rev_se

    data = mech.fee_quadrature(env, [0.8], 0, 400, 3, horizon, rt, stream_purpose="envelope")
    rhs = float(np.mean(data.integral))
    fee = mech.entry_fee_p0(env, [0.8], 0, 16, 400, 3, horizon, rt)
    lhs = float(np.mean(data.values - data.payments)) - fee.mean
    env_audit = ver.audit_envelope(env, [0.8], 0, paths=400, fee_paths=400, runtime=rt)
    tol_env = 3 * (fee.std_error + 1e-12) + data.quad_error() + 3 * tail + 1e-6
    ok_env = abs(lhs - 0.6) <= tol_env and abs(rhs - 0.6) <= tol_env and env_audit.passed

    elapsed = time.time() - start
    _report(
        4,
        ok_p and ok_rev and ok_env and elapsed < 120.0,
        f"P(0.8)={est.mean:.6f}+-{est.std_error:.4f}, revenue={rev_mean:.4f}+-{rev_se:.4f}, "
        f"envelope LHS={lhs:.6f} RHS={rhs:.6f} ({elapsed:.0f}s)",
    )


def test_criterion_05_revenue_equals_virtual_surplus(posted_price, posted_price_runtime, sponsored2, sponsored2_runtime):
    start = time.time()
    a = ver.audit_revenue_bound(
        posted_price, episodes=5000, seeds=(21,), runtime=posted_price_runtime, tail_eps=1e-6
    )
    b = ver.audit_revenue_bound(
        sponsored2, episodes=5000, seeds=(22,), runtime=sponsored2_runtime, tail_eps=1e-4
    )
    elapsed = time.time() - start
    _report(
        5,
        a.passed and b.passed and elapsed < 300.0,
        f"posted-price diff {a.observed:+.4f} (3se {3 * a.std_error:.4f}); "
        f"sponsored diff {b.observed:+.4f} (3se {3 * b.std_error:.4f}) ({elapsed:.0f}s)",
    )


def test_criterion_06_incentive_compatibility(posted_price, posted_price_runtime, sponsored2, sponsored2_runtime):
    start = time.time()
    a = ver.audit_ic(
        posted_price, seeds=(31,), paths=64, fee_paths=32, runtime=posted_price_runtime
    )
    b = ver.audit_ic(
        sponsored2, seeds=(32,), paths=160, fee_paths=96, tail_eps=1e-5,
        runtime=sponsored2_runtime,
    )
    n_cells = len(a.cells) + len(b.cells)
    elapsed = time.time() - start
    _report(
        6,
        a.passed and b.passed and elapsed < 600.0,
        f"{n_cells} cells; worst diffs {a.observed:+.4f} / {b.observed:+.4f} ({elapsed:.0f}s)",
    )


def test_criterion_07_individual_rationality(posted_price, posted_price_runtime, sponsored2, sponsored2_runtime):
    a = ver.audit_ir(
        posted_price, seeds=(41,), paths=64, fee_paths=32, runtime=posted_price_runtime
    )
    b = ver.audit_ir(
        sponsored2, seeds=(42,), paths=160, fee_paths=96, tail_eps=1e-5,
        runtime=sponsored2_runtime,
    )
    zero_cells = [c for c in a.cells + b.cells if c["theta"] == 0.0]
    ok = a.passed and b.passed and all(c["passed"] for c in zero_cells)
    _report(
        7,
        ok,
        f"worst utilities {a.observed:+.4f} / {b.observed:+.4f}; "
        f"U(0) cells all within 3se",
    )


def test_criterion_08_monotone_allocation(posted_price, sponsored2, sponsored2_runtime):
    a = ver.audit_monotone_allocation(posted_price)
    b = ver.audit_monotone_allocation(sponsored2, runtime=sponsored2_runtime)
    control = envs.finite_chain(
        0.5,
        g=[[1.0]],
        h=[[1.0]],
        value=envs.MultiplicativeValue(
            a=lambda t: t, da=lambda t: 1.0, b=np.ones((1, 1)), c=np.zeros(1)
        ),
        dist=envs.capped_exponential_type(rate=1.0, theta_bar=1.0),
    )
    rejected = not envs.validate_assumptions(control).passed
    _report(
        8,
        a.passed and b.passed and rejected,
        f"index-table monotonicity holds (worst gaps {a.observed:.2e}, {b.observed:.2e}); "
        "capped-exponential control rejected",
    )


def test_criterion_09_allocation_time_coupling(sponsored2, sponsored2_runtime):
    r = ver.audit_allocation_time_coupling(
        sponsored2, [0.9, 0.65], [0.7, 0.65], 0,
        seeds=tuple(range(200)), runtime=sponsored2_runtime, tail_eps=1e-4,
    )
    # truthful-vs-truthful: identical streams and reports => identical play
    transforms = _active_transforms(sponsored2, sponsored2_runtime, [0.9, 0.65])
    res_a = _run_rounds(
        sponsored2, sponsored2_runtime, transforms, [0.9, 0.65], [Truthful()] * 2,
        ExperienceStreams(17, 0, "coupling"), 52,
    )
    res_b = _run_rounds(
        sponsored2, sponsored2_runtime, transforms, [0.9, 0.65], [Truthful()] * 2,
        ExperienceStreams(17, 0, "coupling"), 52,
    )
    paired_zero = (
        res_a.winners == res_b.winners
        and alloc_times(res_a, 0) == alloc_times(res_b, 0)
        and (res_a.values[0] - res_a.prices[0]) - (res_b.values[0] - res_b.prices[0]) == 0.0
    )
    _report(
        9,
        r.passed and paired_zero,
        f"tau ordering held on {len(r.seeds)}/200 paired seeds; truthful pairing exactly 0",
    )


def test_criterion_10_vcg_identity(sponsored_small, sponsored_small_runtime):
    worst = 0.0
    checked = 0
    # constant-arm instance with hand-computable values
    env_c = constant_arm_env(0.5, k=2)
    rt_c = mech.MechanismRuntime(env_c)
    tr_c = mech.run_episode(
        env_c, [Truthful()] * 2, seed=1, horizon=8, theta=[0.8, 0.6],
        runtime=rt_c, fee_mode="skip",
    )
    episodes = [(env_c, rt_c, tr_c, range(1, 9))]
    # stochastic sponsored-search instance sized for exact DP
    tr_s = mech.run_episode(
        sponsored_small, [Truthful()] * 2, seed=2, horizon=6, theta=[0.9, 0.7],
        runtime=sponsored_small_runtime, fee_mode="skip",
    )
    episodes.append((sponsored_small, sponsored_small_runtime, tr_s, range(1, 7)))
    for env, rt, transcript, rounds in episodes:
        for t in rounds:
            rec = transcript.rounds[t - 1]
            for i in range(env.k):
                m = marginal_contribution(env, transcript, t, i, runtime=rt)
                if rec.winner == i + 1:
                    tr_i = rt.transform(i, transcript.theta_hat0[i])
                    v = envs.value(env, i, ArmState(rec.theta_hat[i], rec.e_hat[i], rec.rho[i]))
                    target = tr_i.alpha * (v - rec.payment)
                else:
                    target = 0.0
                worst = max(worst, abs(m - target))
                checked += 1
    _report(10, worst <= 1e-8, f"{checked} round-agent cells, worst gap {worst:.2e}")


def test_criterion_11_complete_monitoring_equivalence(sponsored2, sponsored2_runtime):
    kwargs = dict(
        seed=13, horizon=40, theta=[0.85, 0.55], runtime=sponsored2_runtime, fee_mode="skip"
    )
    plain = mech.run_episode(sponsored2, [Truthful()] * 2, **kwargs)
    watched = mech.run_episode(sponsored2, [Truthful()] * 2, monitored=True, **kwargs)
    # agent 1 misreports its experience at round 1: monitoring restores the
    # truthful outcome, and without it the lie moves the outcome (the e_hat
    # column records the report either way, so whole transcripts differ)
    liar = [Truthful(), mech.MisreportExperience(1, 2)]
    liar_watched = mech.run_episode(sponsored2, liar, monitored=True, **kwargs)
    liar_plain = mech.run_episode(sponsored2, liar, **kwargs)

    def outcome(tr):
        return [r.winner for r in tr.rounds], [r.payment for r in tr.rounds], tr.revenue, tr.utilities

    ok = plain == watched and outcome(liar_watched) == outcome(plain) and outcome(liar_plain) != outcome(plain)
    _report(
        11, ok, "reported vs monitored transcripts bit-identical; monitoring undoes an experience misreport"
    )


def test_criterion_12_reused_runtime_determinism(tmp_path, monkeypatch):
    # seed 5 from a fresh process, then in this one through one
    # environment and runtime that serve other seeds before and between
    cfg_path = REPO / "configs" / "posted_price.cfg"

    def argv(seed: str, out: str) -> list[str]:
        return ["--config", str(cfg_path), "--seed", seed, "--out", str(tmp_path / out), "simulate"]

    proc = subprocess.run(
        [sys.executable, "-m", "dynamech.cli", *argv("5", "fresh")],
        env=dict(os.environ), cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    env = build_environment(parse_config(cfg_path))
    runtime = mech.MechanismRuntime(env)
    monkeypatch.setattr(cli, "build_environment", lambda _cfg: env)
    monkeypatch.setattr(cli, "MechanismRuntime", lambda _env: runtime)
    with contextlib.redirect_stdout(io.StringIO()):
        for seed, out in (("3", "warm"), ("5", "reused"), ("4", "warm"), ("5", "again")):
            assert cli.main(argv(seed, out)) == 0
    read = {
        out: ((tmp_path / out / "transcript.csv").read_bytes(), (tmp_path / out / "summary.json").read_bytes())
        for out in ("fresh", "reused", "again")
    }
    _report(
        12,
        read["fresh"] == read["reused"] == read["again"],
        "simulate byte-identical from a fresh process and through a runtime reused across seeds",
    )
