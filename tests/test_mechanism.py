import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import environments as envs
from dynamech import gittins
from dynamech import mechanism as mech
from dynamech.environments import DomainError
from dynamech.gittins import compile_reward_arm, joint_optimal_value, retirement_surplus, tail_horizon
from dynamech.virtual import affine_coefficients, dormancy_threshold, xi_table

import engine_reference as ref
from conftest import constant_arm_env, posted_price_env
from oracles import entry_price_P, marginal_contribution


def _transforms(env, runtime, reports):
    return {i: runtime.transform(i, float(reports[i])) for i in range(env.k)}


def test_per_round_price_constant_opponent():
    # opponent holds a constant transformed reward of 0.6: the winner pays
    # (1 - delta) * 0.6 / (1 - delta) = 0.6 under a unit transform
    env = constant_arm_env(0.5, k=2)
    rt = mech.MechanismRuntime(env)
    transforms = _transforms(env, rt, [1.0, 1.0])
    p = mech.per_round_price(env, transforms, [0.9, 0.6], [0, 0], [0, 0], winner=0, runtime=rt)
    assert p == pytest.approx(0.6, abs=1e-9)


def test_per_round_price_single_agent_no_externality():
    env = constant_arm_env(0.5, k=1)
    rt = mech.MechanismRuntime(env)
    transforms = _transforms(env, rt, [1.0])
    p = mech.per_round_price(env, transforms, [0.9], [0], [0], winner=0, runtime=rt)
    assert p == 0.0


def test_per_round_price_divides_by_alpha():
    # multiplicative winner with alpha = 2/3 against a constant externality
    # of (1-delta) * W = 0.1: price 0.15
    mult = envs.MultiplicativeValue(
        a=lambda t: t, da=lambda t: 1.0, b=np.ones((1, 1)), c=np.zeros(1)
    )
    add = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 1)))
    kernel = envs.PublicKernel(matrix=np.eye(1), labels=("p0",))
    private = envs.PrivateKernel(matrix=np.eye(1).reshape(1, 1, 1), labels=("e0",))
    agents = [
        envs.AgentModel(envs.uniform_type(1.0), kernel, private, mult),
        envs.AgentModel(envs.uniform_type(1.0), kernel, private, add),
    ]
    env = envs.make_environment(agents, 0.5)
    rt = mech.MechanismRuntime(env)
    transforms = _transforms(env, rt, [0.75, 1.0])
    assert transforms[0].alpha == pytest.approx(2.0 / 3.0)
    p = mech.per_round_price(env, transforms, [0.75, 0.1], [0, 0], [0, 0], winner=0, runtime=rt)
    assert p == pytest.approx(0.1 / (2.0 / 3.0), abs=1e-9)


def test_entry_price_posted_price_closed_forms(posted_price, posted_price_runtime):
    horizon = tail_horizon(0.5, 1, 1.0, 1e-10)
    est = entry_price_P(
        posted_price, [0.8], 0, rollouts=64, seed=3,
        horizon=horizon, runtime=posted_price_runtime,
    )
    assert est.std_error == 0.0  # deterministic environment
    assert est.mean == pytest.approx(1.0, abs=1e-8)
    assert est.quad_error <= 1e-10
    low = entry_price_P(
        posted_price, [0.4], 0, rollouts=16, runtime=posted_price_runtime
    )
    assert low.mean == 0.0
    zero = entry_price_P(
        posted_price, [0.0], 0, rollouts=16, runtime=posted_price_runtime
    )
    assert zero.mean == 0.0


def test_entry_fee_equals_price_when_rounds_are_free(posted_price, posted_price_runtime):
    horizon = tail_horizon(0.5, 1, 1.0, 1e-10)
    p = entry_price_P(
        posted_price, [0.8], 0, rollouts=32, horizon=horizon, runtime=posted_price_runtime
    )
    p0 = mech.entry_fee_p0(
        posted_price, [0.8], 0, rollouts=32, horizon=horizon, runtime=posted_price_runtime
    )
    assert p0.mean == pytest.approx(p.mean, abs=1e-12)
    assert p0.mean == pytest.approx(1.0, abs=1e-8)


def test_entry_fee_offsets_future_payments_two_agents():
    # reports (1.0, 0.8): the top-type peg zeroes beta, leaving constant
    # rewards (1.0, 0.6); the winner pays 0.6 forever, so the offset
    # term is 0.6 / (1 - 0.5) = 1.2
    env = constant_arm_env(0.5, k=2)
    rt = mech.MechanismRuntime(env)
    horizon = tail_horizon(0.5, 2, 1.0, 1e-10)
    pp = entry_price_P(env, [1.0, 0.8], 0, rollouts=32, horizon=horizon, runtime=rt)
    fee = mech.entry_fee_p0(env, [1.0, 0.8], 0, rollouts=32, horizon=horizon, runtime=rt)
    assert fee.mean == pytest.approx(pp.mean - 1.2, abs=1e-8)
    # by hand: V = 2.0, integral of 2 * 1{z > 0.8} over [0, 1] = 0.4; the
    # additive arms are not scale-homogeneous, so the walk brackets the
    # step at z = 0.8 by bisection and reports the bracket's error
    assert pp.quad_error <= 1e-8
    assert pp.mean == pytest.approx(1.6, abs=pp.quad_error + 1e-9)


def test_fee_walk_matches_dense_midpoint_sum(sponsored_small, sponsored_small_runtime):
    # the exact rent integral against a 400-cell midpoint sum of the
    # allocated derivative on the same streams; on a step integrand
    # (A linear) the midpoint sum is off by at most cell width times the
    # integrand's total variation
    env, rt = sponsored_small, sponsored_small_runtime
    theta, i, seed = [0.9, 0.6], 0, 5
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-5)
    data = mech.fee_quadrature(env, theta, i, paths=2, seed=seed, horizon=horizon, runtime=rt)
    assert data.quad_error() <= 1e-9
    lo = dormancy_threshold(env, i)
    width = (theta[i] - lo) / 400
    n_rho = env.agents[i].public.n
    for j in range(2):
        derivs = []
        for z in lo + width * (np.arange(400) + 0.5):
            th = list(theta)
            th[i] = float(z)
            res = mech._run_rounds(
                env, rt, mech._active_transforms(env, rt, th), th, [mech.Truthful()] * 2,
                mech.ExperienceStreams(seed, j, "fee"), horizon, track_prices=False,
                record_rounds=True,
            )
            deriv = env.agents[i].value.slope(th[i]).reshape(-1)
            derivs.append(
                sum(
                    env.delta ** (r.t - 1) * deriv[r.true_e[i] * n_rho + r.rho[i]]
                    for r in res.rounds
                    if r.winner == i + 1
                )
            )
        derivs = np.array(derivs)
        bound = width * float(np.sum(np.abs(np.diff(derivs))))
        assert 0.0 < bound < 0.01
        assert abs(width * derivs.sum() - data.integral[j]) <= bound


def test_fee_walk_costs_one_replay_per_piece(sponsored2, sponsored2_runtime, monkeypatch):
    # scale-homogeneous arms: one value run (a truthful deviator merge)
    # per path and one merge per piece, no replays, breakpoints exact to
    # float precision, and no probe tables cached
    env, rt = sponsored2, sponsored2_runtime
    rt.index_flat(0, rt.transform(0, 0.9), 0.9)
    rt.index_flat(1, rt.transform(1, 0.7), 0.7)
    tables = dict(rt._records)
    calls, value_runs = [], []
    run_rounds, run = mech._run_rounds, mech._Deviator.run
    monkeypatch.setattr(mech, "_run_rounds", lambda *a, **kw: calls.append(1) or run_rounds(*a, **kw))
    monkeypatch.setattr(mech._Deviator, "run", lambda *a: value_runs.append(1) or run(*a))
    data = mech.fee_quadrature(env, [0.9, 0.7], 0, paths=6, seed=1, runtime=rt)
    assert len(value_runs) == 6 and not calls
    assert data.pieces.max() > 2  # the path crosses breakpoints
    assert data.quad_error() <= 1e-9
    assert rt._records.keys() == tables.keys()
    posted = posted_price_env()
    one = mech.fee_quadrature(posted, [0.8], 0, paths=4, runtime=mech.MechanismRuntime(posted))
    assert list(one.pieces) == [1, 1, 1, 1] and one.quad_error() == 0.0


def test_engines_read_the_runtime_records_rows(sponsored2):
    # priced engines read the runtime's records' rows, listed once per key
    # rather than once per engine: the opponents' tables, a deviator's
    # change tables and a scale walk's base; a reader that prices nothing
    # reads a key's record's rows where it has one and else its start
    # table, the indices of the states reachable from state 0 alone
    env, theta = sponsored2, [0.9, 0.7]
    rt = mech.MechanismRuntime(env)
    transforms = mech._active_transforms(env, rt, theta)
    opponents = mech._opponents(rt, transforms, theta, 0)
    assert opponents.tables[0] is rt.index(1, transforms[1], 0.7).rows
    assert opponents.tables[0] == rt.index(1, transforms[1], 0.7).table.tolist()
    strategy = mech.CorrectingDeviation(-0.2, correct_round=3)
    deviator = mech._Deviator(env, rt, transforms, theta, 0, strategy, 10)
    schedule = mech._schedule(strategy, env, 0, 0.9)
    assert [t for t, _, _ in deviator.changes] == [1, 3]
    for t, rows, _ in deviator.changes:
        record = rt.index(0, transforms[0], schedule.theta_hat(t))
        assert rows is record.rows and rows == record.table.tolist()
    walk = mech._RentWalk(env, rt, transforms, theta, 0, rt.threshold(0), 10)
    assert walk.base is rt._base(0).rows and walk.base == rt._base(0).table.tolist()
    env = _ar1_env(2)  # additive: the walk starts from the table at the report
    rt = mech.MechanismRuntime(env)
    transforms = mech._active_transforms(env, rt, theta)
    walk = mech._RentWalk(env, rt, transforms, theta, 1, rt.threshold(1), 10)
    unpriced = mech._Deviator(env, rt, transforms, theta, 1, mech.Truthful(), 10, track_prices=False)
    start = walk.tables[0.7]
    assert not rt._records and start is rt._starts[(1, 0.7, 0.7)] and unpriced.changes[0][1] is start
    assert walk.opponents.tables[0] is rt._starts[(0, 0.9, 0.9)] is unpriced.opponents.tables[0]
    states = env.agents[1].graph.start(env.delta)[0]
    record = rt.index(1, transforms[1], 0.7)
    assert len(states) == 7 and [start[s] for s in states] == [record.rows[s] for s in states]
    assert [s for s, x in enumerate(start) if x is None] == sorted(set(range(35)) - set(states))
    walk = mech._RentWalk(env, rt, transforms, theta, 1, rt.threshold(1), 10)
    priced = mech._Deviator(env, rt, transforms, theta, 0, mech.Truthful(), 10)
    assert walk.tables[0.7] is record.rows and priced.opponents.tables[0] is record.rows


def test_table_walk_builds_few_tables_per_breakpoint(monkeypatch):
    # the bound audit on additive AR(1) values at the 16 stream seeds
    # 400..415 (the config of the ar1-bound benchmark): each breakpoint
    # is bracketed by Brent's steps on the won rounds' margins, one index
    # table per step, instead of 40 halvings with a table each
    from dynamech import verification as ver
    from dynamech.config import build_environment, parse_config_text

    params = {"k": 2, "coeff": 0.5, "shock": [[0.2]], "grid_step": 0.1, "alloc_cap": 6}
    env = build_environment(
        parse_config_text(json.dumps({"environment": {"name": "ar1", "params": params}, "delta": 0.8}))
    )
    builds, per_breakpoint = [0], []
    build, steps = mech.start_indices, mech._brent_steps

    def counted_build(*a):
        builds[0] += 1
        return build(*a)

    def counted_steps(*a):
        before = builds[0]
        out = steps(*a)
        per_breakpoint.append(builds[0] - before)
        return out

    # the start tables call it: the walk's at z, and each agent's at its type
    monkeypatch.setattr(mech, "start_indices", counted_build)
    monkeypatch.setattr(mech, "_brent_steps", counted_steps)
    for seed in range(400, 416):
        ver.audit_revenue_bound(env, episodes=2, seeds=(seed,))
    assert len(per_breakpoint) >= 32
    assert builds[0] / len(per_breakpoint) <= 10.0  # the threshold tables included
    assert max(per_breakpoint) <= mech._ROOT_MAXITER  # the documented worst case


def test_threshold_is_cached_per_agent_and_bit_exact(monkeypatch):
    from dynamech import verification as ver

    env = envs.sponsored_search(k=2, cap=2, delta=0.8)
    posted = posted_price_env()
    for e in (env, posted):
        rt = mech.MechanismRuntime(e)
        for i in range(e.k):
            assert rt.threshold(i).hex() == dormancy_threshold(e, i).hex()
    rt = mech.MechanismRuntime(env)
    calls = []
    threshold = mech.dormancy_threshold
    monkeypatch.setattr(mech, "dormancy_threshold", lambda *a: calls.append(a[1]) or threshold(*a))
    for i in range(env.k):
        mech.fee_quadrature(env, [0.9, 0.7], i, paths=2, horizon=10, runtime=rt)
        mech.fee_quadrature(env, [0.8, 0.8], i, paths=2, horizon=10, runtime=rt)
    ver.audit_monotone_allocation(env, r_points=3, theta_points=2, runtime=rt)
    assert sorted(calls) == [0, 1]  # once per agent for this runtime


def test_fee_walk_fails_loudly_past_its_piece_bound(sponsored_small, sponsored_small_runtime):
    env, rt = sponsored_small, sponsored_small_runtime
    theta = [0.9, 0.6]
    walk = mech._RentWalk(
        env, rt, mech._active_transforms(env, rt, theta), theta, 0, dormancy_threshold(env, 0), 40
    )
    assert walk.max_pieces == 40 * 41 // 2 + 1
    walk.max_pieces = 1
    with pytest.raises(RuntimeError, match="passed 1 pieces"):
        walk.integrate(mech.ExperienceStreams(5, 0, "fee"))


# ---------------------------------------------------------------------------
# W_{-i} by Whittle's retirement formula
# ---------------------------------------------------------------------------


def _ar1_env(k: int) -> envs.Environment:
    return envs.ar1(k=k, coeff=0.5, shock=np.array([[0.2]]), delta=0.8, grid_step=0.1, alloc_cap=6)


@pytest.mark.parametrize("which", ["sponsored", "ar1"])
def test_one_arm_whittle_formula_equals_stop_value(which, sponsored_small):
    # the lone-arm price is the one-arm case of the formula that prices
    # two or more arms; value iteration is the independent reference
    env = sponsored_small if which == "sponsored" else _ar1_env(1)
    rt = mech.MechanismRuntime(env)
    tr, theta = rt.transform(0, 0.9), 0.75
    arm = compile_reward_arm(env.agents[0], xi_table(tr, env, 0, theta), env.delta)
    stop = gittins.optimal_stop_value(arm, tol=1e-12)
    assert stop.max() > 0.1
    got = np.array([rt.w_minus([(0, tr, theta)], [s]) for s in range(arm.n)])
    assert np.max(np.abs(got - stop)) <= 1e-9


@pytest.mark.parametrize("which", ["sponsored", "ar1"])
def test_lone_arm_vector_equals_per_state_whittle_sum(which, sponsored_small):
    env = sponsored_small if which == "sponsored" else _ar1_env(1)
    rt = mech.MechanismRuntime(env)
    tr, theta = rt.transform(0, 0.9), 0.75
    arm = rt.index(0, tr, theta)
    assert len(arm.levels) > 0
    states = range(env.agents[0].private.n * env.agents[0].public.n)
    lone = np.array([arm.lone(s) for s in states])
    whittle = [retirement_surplus([(arm.levels, arm.hits(s))]) / (1.0 - env.delta) for s in states]
    assert np.max(np.abs(np.array(whittle) - lone)) <= 1e-14
    assert all(arm.lone(s) is arm.lone(s) for s in states)  # memoized per state


def test_index_table_and_prices_share_one_sweep(monkeypatch):
    env = envs.sponsored_search(k=3, cap=2, delta=0.8)
    rt = mech.MechanismRuntime(env)
    calls = []
    sweep = gittins._sweep_indices
    monkeypatch.setattr(gittins, "_sweep_indices", lambda *a, **kw: calls.append(1) or sweep(*a, **kw))
    tr = rt.transform(0, 0.9)
    assert rt.index_flat(0, tr, 0.8).max() > 0.0
    assert rt.w_minus([(0, tr, 0.8)], [0]) > 0.0
    others = [(1, rt.transform(1, 0.9), 0.9), (2, rt.transform(2, 0.7), 0.7)]
    assert rt.w_minus(others, [0, 0]) > 0.0  # replicated agent models: the same base arm
    assert len(calls) == 1


def _record_sweeps(monkeypatch) -> tuple[list, list]:
    """Patch the index sweep and the hit-column replay to log the arm
    size of each sweep and the state of each replayed column."""
    sweeps, replays = [], []
    sweep, replay = gittins._sweep_indices, gittins.HitColumns._replay
    monkeypatch.setattr(gittins, "_sweep_indices", lambda arm: sweeps.append(arm.n) or sweep(arm))
    monkeypatch.setattr(gittins.HitColumns, "_replay", lambda self, x: replays.append(x) or replay(self, x))
    return sweeps, replays


def test_index_tables_replay_no_hit_column(monkeypatch):
    # the sponsored-search base arm's sweep serves its index table; hit
    # columns are replayed only when a price reads them, once per state
    sweeps, replays = _record_sweeps(monkeypatch)
    env = envs.sponsored_search(k=2, cap=2, delta=0.8)
    rt = mech.MechanismRuntime(env)
    tr = rt.transform(0, 0.9)
    assert rt.index_flat(0, tr, 0.8).max() > 0.0
    assert rt.index_flat(0, rt.transform(0, 0.7), 0.6).max() > 0.0
    assert rt.index_flat(1, rt.transform(1, 0.9), 0.9).max() > 0.0
    assert sweeps == [36] and replays == []
    assert rt.w_minus([(0, tr, 0.8)], [3]) > 0.0
    assert rt.w_minus([(0, rt.transform(0, 0.7), 0.6)], [3]) > 0.0
    assert rt.w_minus([(1, rt.transform(1, 0.9), 0.9)], [3]) > 0.0  # the same agent model
    assert sweeps == [36] and replays == [3]


def test_additive_key_is_swept_once_for_index_and_prices(monkeypatch):
    # an additive agent's index table and hit discounts come from one
    # sweep per (report, theta); a fee-walk probe table sweeps the 7
    # states reachable from state 0 alone and replays no column
    env = _ar1_env(2)
    rt = mech.MechanismRuntime(env)
    sweeps, replays = _record_sweeps(monkeypatch)
    tr = mech.run_episode(env, [mech.Truthful()] * 2, seed=3, theta=[0.9, 0.8], runtime=rt, fee_mode="skip")
    assert {r.winner for r in tr.rounds} >= {1, 2}  # both agents win, so each prices the other
    assert sweeps == [35, 35] and replays
    del replays[:]
    theta = [0.9, 0.8]
    walk = mech._RentWalk(env, rt, mech._active_transforms(env, rt, theta), theta, 0, rt.threshold(0), 10)
    walk._table(0.85)
    assert sweeps == [35, 35, 7] and replays == []


@pytest.mark.parametrize("which", ["sponsored", "ar1"])
def test_w_minus_matches_joint_dp_over_two_arms(which):
    # scale-homogeneous arms share one base arm's hit columns; additive
    # arms get their own per (report, theta)
    env = envs.sponsored_search(k=3, cap=2, delta=0.8) if which == "sponsored" else _ar1_env(3)
    rt = mech.MechanismRuntime(env)
    others = [(1, rt.transform(1, 0.95), 0.8), (2, rt.transform(2, 0.85), 0.9)]
    arms = [
        compile_reward_arm(env.agents[a], xi_table(tr, env, a, th), env.delta) for a, tr, th in others
    ]
    opt = joint_optimal_value(arms, env.delta, tol=1e-12).reshape(arms[0].n, arms[1].n)
    assert opt.max() > 0.1
    got = np.array([[rt.w_minus(others, [s0, s1]) for s1 in range(arms[1].n)] for s0 in range(arms[0].n)])
    assert np.max(np.abs(got - opt)) <= 1e-9


def test_w_minus_agrees_with_rollout_over_three_arms():
    env = envs.sponsored_search(k=4, cap=2, delta=0.8)
    rt = mech.MechanismRuntime(env)
    others = [(j, rt.transform(j, th), th) for j, th in ((1, 0.9), (2, 0.8), (3, 0.7))]
    states = [7, 0, 14]
    exact = rt.w_minus(others, states)
    horizon = tail_horizon(env.delta, 3, env.v_max, 1e-6)
    mean, se = rt._w_minus_rollout(others, states, paths=1000, seed=5, horizon=horizon)
    assert 0.0 < se < 0.05
    assert abs(exact - mean) <= 4.0 * se + 1e-6


def test_multi_arm_price_refuses_arm_above_sweep_cutoff(monkeypatch):
    env = envs.sponsored_search(k=3, cap=2, delta=0.8)
    rt = mech.MechanismRuntime(env)
    others = [(1, rt.transform(1, 0.9), 0.9), (2, rt.transform(2, 0.8), 0.8)]
    monkeypatch.setattr(gittins, "DENSE_SWEEP_MAX_STATES", 35)
    with pytest.raises(DomainError, match="DENSE_SWEEP_MAX_STATES = 35"):
        rt.w_minus(others, [0, 0])
    with pytest.raises(DomainError, match="DENSE_SWEEP_MAX_STATES = 35"):
        rt.w_minus(others[:1], [0])  # a lone arm refuses as well


def test_run_episode_posted_price_truthful(posted_price, posted_price_runtime):
    tr = mech.run_episode(
        posted_price,
        [mech.Truthful()],
        seed=11,
        horizon=30,
        theta=[0.8],
        runtime=posted_price_runtime,
        fee_rollouts=32,
    )
    assert all(r.winner == 1 for r in tr.rounds)
    assert all(r.payment == 0.0 for r in tr.rounds)
    assert tr.entry_fees[0] == pytest.approx(1.0, abs=1e-6)
    assert tr.values[0] == pytest.approx(1.6, abs=1e-6)
    assert tr.utilities[0] == pytest.approx(0.6, abs=1e-6)
    assert tr.revenue == pytest.approx(1.0, abs=1e-6)


def test_run_episode_below_threshold_never_allocates(posted_price, posted_price_runtime):
    tr = mech.run_episode(
        posted_price,
        [mech.Truthful()],
        seed=11,
        horizon=30,
        theta=[0.3],
        runtime=posted_price_runtime,
        fee_rollouts=16,
    )
    assert all(r.winner == 0 for r in tr.rounds)
    assert tr.revenue == 0.0
    assert tr.utilities[0] == 0.0


@pytest.mark.parametrize("fee_mode", ["skipp", "estimated", "", None])
def test_run_episode_refuses_an_unknown_fee_mode(posted_price, posted_price_runtime, monkeypatch, fee_mode):
    # any value but "skip" used to run the fee machinery as "full"
    calls = []
    monkeypatch.setattr(mech, "entry_fee_p0", lambda *a, **kw: calls.append(a))
    with pytest.raises(DomainError, match="unknown fee_mode .*'full' or 'skip'"):
        mech.run_episode(
            posted_price, [mech.Truthful()], seed=11, horizon=5, theta=[0.8],
            runtime=posted_price_runtime, fee_mode=fee_mode,
        )
    assert calls == []


def test_run_episode_tie_goes_to_lowest_id():
    env = constant_arm_env(0.5, k=2)
    rt = mech.MechanismRuntime(env)
    tr = mech.run_episode(
        env,
        [mech.Truthful()] * 2,
        seed=0,
        horizon=20,
        theta=[0.7, 0.7],
        runtime=rt,
        fee_mode="skip",
    )
    assert all(r.winner == 1 for r in tr.rounds)
    # constant opponent reward is 2*0.7 - 1 = 0.4; with beta = -0.3 the
    # price is 0.4 + 0.3 = 0.7 every round
    assert all(r.payment == pytest.approx(0.7, abs=1e-9) for r in tr.rounds)


def test_marginal_contribution_identity_constant_arms():
    env = constant_arm_env(0.5, k=2)
    rt = mech.MechanismRuntime(env)
    tr = mech.run_episode(
        env, [mech.Truthful()] * 2, seed=1, horizon=10, theta=[0.8, 0.6],
        runtime=rt, fee_mode="skip",
    )
    assert all(r.winner == 1 for r in tr.rounds)
    for t in (1, 3, 10):
        m0 = marginal_contribution(env, tr, t, 0, runtime=rt)
        assert m0 == pytest.approx(0.4, abs=1e-9)
        rec = tr.rounds[t - 1]
        v = envs.value(env, 0, envs.ArmState(0.8, rec.true_e[0], rec.rho[0]))
        assert m0 == pytest.approx(1.0 * (v - rec.payment), abs=1e-9)
        assert marginal_contribution(env, tr, t, 1, runtime=rt) == pytest.approx(
            0.0, abs=1e-9
        )


def test_marginal_contribution_vcg_identity_over_four_arms():
    # 36^4 joint states: too many for any joint-state-space method
    env = envs.sponsored_search(k=4, cap=2, delta=0.8)
    rt = mech.MechanismRuntime(env)
    theta = [0.9, 0.85, 0.8, 0.75]
    tr = mech.run_episode(
        env, [mech.Truthful()] * 4, seed=1, horizon=12, theta=theta, runtime=rt, fee_mode="skip"
    )
    assert {r.winner for r in tr.rounds} == {1, 2, 3, 4}
    worst = 0.0
    for t, rec in enumerate(tr.rounds, 1):
        for i in range(4):
            m = marginal_contribution(env, tr, t, i, runtime=rt)
            target = 0.0
            if rec.winner == i + 1:
                v = envs.value(env, i, envs.ArmState(theta[i], rec.true_e[i], rec.rho[i]))
                target = rt.transform(i, theta[i]).alpha * (v - rec.payment)
            worst = max(worst, abs(m - target))
    assert worst <= 1e-8


def test_marginal_contribution_single_agent_is_xi():
    env = constant_arm_env(0.5, k=1)
    rt = mech.MechanismRuntime(env)
    tr = mech.run_episode(
        env, [mech.Truthful()], seed=1, horizon=5, theta=[0.8], runtime=rt, fee_mode="skip"
    )
    m = marginal_contribution(env, tr, 1, 0, runtime=rt)
    assert m == pytest.approx(0.6, abs=1e-9)  # xi = 2 * 0.8 - 1
    rec = tr.rounds[0]
    assert m == pytest.approx(0.8 - rec.payment, abs=1e-9)


def test_complete_monitoring_equivalence(sponsored_small, sponsored_small_runtime):
    kwargs = dict(
        seed=9,
        horizon=25,
        theta=[0.9, 0.7],
        runtime=sponsored_small_runtime,
        fee_mode="skip",
    )
    plain = mech.run_episode(sponsored_small, [mech.Truthful()] * 2, **kwargs)
    watched = mech.run_episode(
        sponsored_small, [mech.Truthful()] * 2, monitored=True, **kwargs
    )
    assert plain == watched
    # agent 1 misreports its experience at round 1: monitoring restores
    # the truthful outcome, and without it the lie moves the outcome
    liar = [mech.Truthful(), mech.MisreportExperience(1, 2)]
    liar_watched = mech.run_episode(sponsored_small, liar, monitored=True, **kwargs)
    liar_plain = mech.run_episode(sponsored_small, liar, **kwargs)

    def outcome(tr):
        return [r.winner for r in tr.rounds], [r.payment for r in tr.rounds], tr.revenue, tr.utilities

    assert outcome(liar_watched) == outcome(plain)
    assert outcome(liar_plain) != outcome(plain)


def test_transcript_accounting_recomputable(sponsored_small, sponsored_small_runtime):
    tr = mech.run_episode(
        sponsored_small,
        [mech.Truthful()] * 2,
        seed=4,
        theta=[0.9, 0.7],
        runtime=sponsored_small_runtime,
        fee_mode="skip",
    )
    assert tr.revenue == tr.recompute_revenue()
    assert tr.utilities == tr.recompute_utilities(sponsored_small)
    for rec in tr.rounds:
        assert rec.winner in (0, 1, 2)
        if rec.winner == 0:
            assert rec.payment == 0.0


def test_frozen_states_between_allocations(sponsored_small, sponsored_small_runtime):
    tr = mech.run_episode(
        sponsored_small,
        [mech.Truthful()] * 2,
        seed=4,
        theta=[0.9, 0.7],
        runtime=sponsored_small_runtime,
        fee_mode="skip",
    )
    for i in range(2):
        for prev, cur in zip(tr.rounds, tr.rounds[1:]):
            assert cur.e_hat[i] == cur.true_e[i]  # truthful re-reports
            if prev.winner != i + 1:
                assert cur.true_e[i] == prev.true_e[i]
                assert cur.rho[i] == prev.rho[i]


def test_dormant_agent_never_wins_never_pays(posted_price, posted_price_runtime):
    tr = mech.run_episode(
        posted_price,
        [mech.Truthful()],
        seed=2,
        horizon=10,
        theta=[0.2],
        runtime=posted_price_runtime,
        fee_mode="skip",
    )
    assert tr.dormant == (True,)
    assert all(r.winner == 0 for r in tr.rounds)


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.0, 1.0),
    offset=st.floats(-2.0, 2.0),
    t=st.integers(0, 5),
)
def test_strategies_clamp_reports_to_support(theta, offset, t):
    for strat in (
        mech.MisreportTheta0(offset),
        mech.MisreportThetaAlways(offset),
        mech.CorrectingDeviation(offset),
    ):
        rep = ref.schedule_report(strat, t, theta, 0, 1.0)
        assert 0.0 <= rep.theta_hat <= 1.0
        if t == 0:
            assert rep.e_hat is None


_FAMILIES = (
    mech.Truthful,
    mech.MisreportTheta0,
    mech.MisreportThetaAlways,
    mech.MisreportExperience,
    mech.CorrectingDeviation,
)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    t=st.integers(0, 8),
    theta_bar=st.sampled_from([1.0, 2.5]),
    q=st.floats(0.0, 1.0),
    e=st.integers(0, 5),
    # offsets past either end clamp at 0 or at theta_bar
    offset=st.one_of(st.floats(-0.3, 0.3), st.sampled_from([-3.0, 3.0, 0.0])),
    round_t=st.integers(-1, 6),
    fake_e=st.integers(0, 5),
)
def test_schedule_reports_equal_the_per_round_reports(family, t, theta_bar, q, e, offset, round_t, fake_e):
    theta = q * theta_bar
    args = {
        mech.Truthful: (),
        mech.MisreportTheta0: (offset,),
        mech.MisreportThetaAlways: (offset,),
        mech.MisreportExperience: (round_t, fake_e),
        mech.CorrectingDeviation: (offset, round_t),
    }[family]
    got = ref.schedule_report(family(*args), t, theta, e, theta_bar)
    want = ref.REFERENCE_STRATEGIES[family](*args).report(t, theta, e, theta_bar)
    assert got == want


def test_misreport_experience_swaps_one_round():
    strat = mech.MisreportExperience(2, fake_e=5)
    assert [ref.schedule_report(strat, t, 0.5, 3, 1.0).e_hat for t in (1, 2, 3)] == [3, 5, 3]


def test_sampled_types_when_theta_omitted(posted_price, posted_price_runtime):
    a = mech.run_episode(
        posted_price, [mech.Truthful()], seed=5, horizon=10,
        runtime=posted_price_runtime, fee_mode="skip",
    )
    b = mech.run_episode(
        posted_price, [mech.Truthful()], seed=5, horizon=10,
        runtime=posted_price_runtime, fee_mode="skip",
    )
    assert a.theta == b.theta
    assert a == b
    c = mech.run_episode(
        posted_price, [mech.Truthful()], seed=6, horizon=10,
        runtime=posted_price_runtime, fee_mode="skip",
    )
    assert c.theta != a.theta


# ---------------------------------------------------------------------------
# The in-tree Brent root finder against scipy's
# ---------------------------------------------------------------------------


def test_scale_at_equals_the_transforms_alpha_times_a():
    # the fee walk's root function reads alpha without building a
    # transform; it must give the transform's bits, 0 where dormant
    from dynamech.virtual import transform_or_dormant

    for env in (envs.sponsored_search(k=2, cap=2, delta=0.8), posted_price_env()):
        rt = mech.MechanismRuntime(env)
        theta_bar = env.agents[0].distribution.theta_bar
        lo = dormancy_threshold(env, 0)
        grid = np.concatenate([np.linspace(0.0, theta_bar, 401), [5e-324, lo, math.nextafter(lo, 0.0)]])
        for z in grid.tolist():
            tr = transform_or_dormant(env, 0, z)
            want = 0.0 if tr is None else tr.alpha * env.agents[0].value.a(z)
            assert rt.scale(0, z, z).hex() == want.hex()
            if tr is not None:  # the report pegs alpha, theta moves A
                want = tr.alpha * env.agents[0].value.a(0.5 * z)
                assert rt.scale(0, z, 0.5 * z).hex() == want.hex()


def test_scale_reads_alpha_from_the_transform_cache_and_walks_share_their_frame(monkeypatch):
    # a cached report's alpha is the transform's (a cached None: dormant);
    # the scale walk's points z compute theirs and cache no transform;
    # every walk of one agent at one threshold and horizon reads one frame
    env = envs.sponsored_search(k=2, cap=2, delta=0.8)
    rt = mech.MechanismRuntime(env)
    want = [rt.scale(0, 0.9, 0.7), rt.scale(0, 0.05, 0.7)]
    tr, alpha, calls = rt.transform(0, 0.9), mech.multiplicative_alpha, []
    monkeypatch.setattr(mech, "multiplicative_alpha", lambda *a: calls.append(a[1]) or alpha(*a))
    assert rt.transform(0, 0.05) is None and want[1] == 0.0
    assert [rt.scale(0, 0.9, 0.7).hex(), rt.scale(0, 0.05, 0.7)] == [want[0].hex(), 0.0] and calls == []
    assert want[0] == tr.alpha * env.agents[0].value.a(0.7)
    before = set(rt._transforms)
    walks = []
    init = mech._RentWalk.__init__
    monkeypatch.setattr(mech._RentWalk, "__init__", lambda self, *a: walks.append(self) or init(self, *a))
    for reports in ([0.9, 0.7], [0.8, 0.7]):
        data = mech.fee_quadrature(env, reports, 0, paths=4, seed=3, horizon=20, runtime=rt)
        assert data.pieces.max() > 1  # the walks crossed breakpoints, at z found by alpha
    assert calls and set(rt._transforms) == before | {(0, 0.8), (1, 0.7)}
    assert len(walks) == 2 and len(rt._frames) == 1
    assert walks[0].discs is walks[1].discs and walks[0].base is walks[1].base is rt._base(0).rows
    assert walks[0].scale_lo == walks[1].scale_lo == rt.scale(0, walks[0].lo, walks[0].lo)


def test_brent_port_equals_scipy_on_fee_walk_calls(tmp_path, monkeypatch):
    from scipy.optimize import brentq

    from dynamech.cli import main

    calls = []
    port = mech._brentq

    def recording(f, xa, xb, **tols):
        z = port(f, xa, xb, **tols)
        calls.append((f, xa, xb, tols, z))
        return z

    monkeypatch.setattr(mech, "_brentq", recording)
    config = Path(__file__).resolve().parents[1] / "configs" / "sponsored_search_2.cfg"
    # seed 203 draws both agents above the dormancy threshold, so both pay fees
    assert main(["--config", str(config), "--out", str(tmp_path), "--seed", "203", "simulate"]) == 0
    assert len(calls) > 100
    for f, xa, xb, tols, z in calls:
        assert brentq(f, xa, xb, **tols) == z  # bit for bit


def _bracketed(gen):
    """A random function with one sign change at r, a bracket around r
    and root-finding tolerances."""
    r = float(gen.uniform(-2.0, 2.0))
    c, p = float(gen.uniform(0.1, 10.0)), float(gen.uniform(0.2, 4.0))
    family = int(gen.integers(0, 5))
    if family == 0:
        f = lambda x: c * (x - r) + (x - r) ** 3
    elif family == 1:
        f = lambda x: math.exp(c * x) - math.exp(c * r)
    elif family == 2:
        f = lambda x: math.copysign(abs(x - r) ** p, x - r)
    elif family == 3:
        f = lambda x: math.tanh(c * (x - r)) + 0.3 * math.sin(5.0 * (x - r)) / c
    else:
        f = lambda x: 1.0 if x >= r else -c  # a jump: bisection steps only
    xa, xb = r - float(gen.exponential(1.0)), r + float(gen.exponential(1.0))
    if gen.random() < 0.5:
        xa, xb = xb, xa
    xtol = float(10.0 ** gen.uniform(-15.0, -4.0))
    rtol = mech._ROOT_RTOL * float(10.0 ** gen.uniform(0.0, 6.0))
    return f, xa, xb, xtol, rtol


def _outcome(solver, f, xa, xb, xtol, rtol):
    """The root, or the type of the error raised."""
    try:
        return solver(f, xa, xb, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def test_brent_port_equals_scipy_on_random_brackets():
    from scipy.optimize import brentq

    gen = np.random.default_rng(20260)
    outcomes = []
    for _ in range(3000):
        case = _bracketed(gen)
        outcomes.append(_outcome(mech._brentq, *case))
        assert outcomes[-1] == _outcome(brentq, *case)  # bit for bit, or both fail
    assert sum(isinstance(z, float) for z in outcomes) > 2800


def test_brent_port_raises_like_scipy():
    from scipy.optimize import brentq

    nan_inside = lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan
    step = lambda x: 1.0 if x >= 0.0 else -1.0  # ~1,000 halvings from 1e300 to xtol
    cases = [
        (lambda x: x * x + 1.0, -1.0, 1.0, ValueError, "different signs"),
        (nan_inside, 0.0, 1.0, ValueError, "NaN"),
        (lambda x: math.nan, 0.0, 1.0, ValueError, "NaN"),
        (step, -1e300, 1e300, RuntimeError, "did not converge"),
    ]
    for f, xa, xb, error, message in cases:
        with pytest.raises(error, match=message):
            mech._brentq(f, xa, xb, xtol=1e-15, rtol=mech._ROOT_RTOL)
        with pytest.raises(error):
            brentq(f, xa, xb, xtol=1e-15, rtol=mech._ROOT_RTOL)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(-12.0, 12.0),
    shift=st.floats(-1e3, 1e3),
    repeats=st.booleans(),
)
def test_mean_se_equals_numpy_mean_and_std_bit_for_bit(n, seed, scale, shift, repeats):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0**scale + shift
    if repeats:  # few distinct values, as on paths that share their outcome
        x = rng.choice(x[:3], n) if n else x
    mean, se = mech._mean_se(x)
    if n >= 2:
        assert (mean, se) == (float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n)))
    else:
        assert (mean, se) == ((float(x[0]) if n else 0.0), 0.0)
