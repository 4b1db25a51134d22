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

from conftest import constant_arm_env, posted_price_env


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
    est = mech.entry_price_P(
        posted_price, [0.8], 0, nodes=16, rollouts=64, seed=3,
        horizon=horizon, runtime=posted_price_runtime,
    )
    assert est.std_error == 0.0  # deterministic environment
    assert est.mean == pytest.approx(1.0, abs=1e-8)
    assert est.quad_error <= 1e-10
    low = mech.entry_price_P(
        posted_price, [0.4], 0, nodes=16, rollouts=16, runtime=posted_price_runtime
    )
    assert low.mean == 0.0
    zero = mech.entry_price_P(
        posted_price, [0.0], 0, nodes=16, rollouts=16, runtime=posted_price_runtime
    )
    assert zero.mean == 0.0


def test_entry_fee_equals_price_when_rounds_are_free(posted_price, posted_price_runtime):
    horizon = tail_horizon(0.5, 1, 1.0, 1e-10)
    p = mech.entry_price_P(
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
    pp = mech.entry_price_P(env, [1.0, 0.8], 0, rollouts=32, horizon=horizon, runtime=rt)
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
            deriv = mech._deriv_flat(env, i, th[i])
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
    tables = dict(rt._tables)
    calls, value_runs = [], []
    run_rounds, run = mech._run_rounds, mech._Deviator.run
    monkeypatch.setattr(mech, "_run_rounds", lambda *a, **kw: calls.append(1) or run_rounds(*a, **kw))
    monkeypatch.setattr(mech._Deviator, "run", lambda *a: value_runs.append(1) or run(*a))
    data = mech.fee_quadrature(env, [0.9, 0.7], 0, paths=6, seed=1, runtime=rt)
    assert len(value_runs) == 6 and not calls
    assert data.pieces.max() > 2  # the path crosses breakpoints
    assert data.quad_error() <= 1e-9
    assert rt._tables.keys() == tables.keys()
    posted = posted_price_env()
    one = mech.fee_quadrature(posted, [0.8], 0, paths=4, runtime=mech.MechanismRuntime(posted))
    assert list(one.pieces) == [1, 1, 1, 1] and one.quad_error() == 0.0


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
    build, steps = mech.MechanismRuntime.build_table, mech._brent_steps

    def counted_build(*a):
        builds[0] += 1
        return build(*a)

    def counted_steps(*a):
        before = builds[0]
        out = steps(*a)
        per_breakpoint.append(builds[0] - before)
        return out

    monkeypatch.setattr(mech.MechanismRuntime, "build_table", counted_build)
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
    levels, hits, lone = rt.hits_flat(0, tr, theta)
    assert len(levels) > 0
    whittle = [retirement_surplus([(levels, hits[:, s])]) / (1.0 - env.delta) for s in range(len(lone))]
    assert np.max(np.abs(np.array(whittle) - lone)) <= 1e-14


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


def test_additive_key_is_swept_once_for_index_and_prices(monkeypatch):
    # an additive agent's index table and hit discounts come from one
    # sweep per (report, theta); fee-walk probe tables record no hits
    env = _ar1_env(2)
    rt = mech.MechanismRuntime(env)
    calls = []
    sweep = gittins._sweep_indices
    monkeypatch.setattr(
        gittins, "_sweep_indices", lambda arm, record_hits=False: calls.append(record_hits) or sweep(arm, record_hits)
    )
    tr = mech.run_episode(env, [mech.Truthful()] * 2, seed=3, theta=[0.9, 0.8], runtime=rt, fee_mode="skip")
    assert {r.winner for r in tr.rounds} >= {1, 2}  # both agents win, so each prices the other
    assert calls == [True, True]
    rt.build_table(0, rt.transform(0, 0.9), 0.85)
    assert calls == [True, True, False]


@pytest.mark.parametrize("which", ["sponsored", "ar1"])
def test_w_minus_matches_joint_dp_over_two_arms(which):
    # scale-homogeneous arms share one base hit table; additive arms get
    # their own per (report, theta)
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
        m0 = mech.marginal_contribution(env, tr, t, 0, runtime=rt)
        assert m0 == pytest.approx(0.4, abs=1e-9)
        rec = tr.rounds[t - 1]
        v = envs.value(env, 0, envs.ArmState(0.8, rec.true_e[0], rec.rho[0]))
        assert m0 == pytest.approx(1.0 * (v - rec.payment), abs=1e-9)
        assert mech.marginal_contribution(env, tr, t, 1, runtime=rt) == pytest.approx(
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
            m = mech.marginal_contribution(env, tr, t, i, runtime=rt)
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
    m = mech.marginal_contribution(env, tr, 1, 0, runtime=rt)
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
        rep = strat.report(t, theta, 0, 1.0)
        assert 0.0 <= rep.theta_hat <= 1.0
        if t == 0:
            assert rep.e_hat is None


def test_misreport_experience_swaps_one_round():
    strat = mech.MisreportExperience(2, fake_e=5)
    assert strat.report(1, 0.5, 3, 1.0).e_hat == 3
    assert strat.report(2, 0.5, 3, 1.0).e_hat == 5
    assert strat.report(3, 0.5, 3, 1.0).e_hat == 3


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
