import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import environments as envs
from dynamech import gittins
from dynamech.config import build_environment, parse_config
from dynamech.environments import ArmState, DomainError
from dynamech.rng import substream
from dynamech.virtual import VirtualTransform, affine_coefficients, transform_or_dormant

from conftest import constant_arm_env, index_at, two_state_env
from oracles import (
    bisect_indices,
    brute_force_index,
    exact_dp_policy_value,
    index_policy_winners,
    loop_transition,
    read_csr,
    reward_range_relaxation,
    vwb_indices,
)


def _identity_transform(n_rho: int = 1) -> VirtualTransform:
    return VirtualTransform(alpha=1.0, beta=np.zeros(n_rho), pegged_report=1.0)


# ---------------------------------------------------------------------------
# Oracles first: exhaustive stopping-time ratios for the two-state arm
# ---------------------------------------------------------------------------


def stopping_ratio_two_state(n: int, delta: float) -> float:
    """Ratio when committing to exactly n plays of the pay-0-then-1 arm:
    rewards arrive from the second play on."""
    num = sum(delta ** (t - 1) for t in range(2, n + 1))
    den = sum(delta ** (t - 1) for t in range(1, n + 1))
    return num / den


def test_two_state_oracle_supremum_is_half():
    # the ratio increases in n toward delta/(1-delta+delta) = 1/2 at delta=1/2
    ratios = [stopping_ratio_two_state(n, 0.5) for n in range(1, 60)]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(0.5, abs=1e-12)


def test_two_state_index_matches_oracles():
    env = two_state_env(0.5)
    tr = affine_coefficients(env, 0, 1.0)
    idx = index_at(env, 0, tr, 0.5, 0, 0)
    assert idx == pytest.approx(0.5, abs=1e-8)
    bf = brute_force_index(env, 0, tr, ArmState(0.5, 0, 0), horizon=30)
    assert bf.tail_bound < 2e-9
    assert bf.value == pytest.approx(0.5, abs=1e-8)
    assert abs(idx - bf.value) <= 1e-9 + bf.tail_bound + 1e-12
    # the state already paying 1 forever is a constant arm
    assert index_at(env, 0, tr, 0.5, 1, 0) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(xi=st.floats(-0.9, 0.9), theta_scale=st.floats(0.1, 1.0))
def test_constant_arm_index_is_exact(xi, theta_scale):
    env = constant_arm_env(0.5)
    tr = VirtualTransform(alpha=1.0, beta=np.array([xi]), pegged_report=1.0)
    got = index_at(env, 0, tr, 0.0, 0, 0)
    assert got == xi  # constant reachable reward: bit-exact


def test_three_state_cycle_cross_oracle():
    # rewards (0.2, 0.9, 0.1) on a fixed cyclic private chain
    val = envs.AdditiveValue(
        a=lambda t, r: 0.0, da=lambda t, r: 0.0, b=np.array([[0.2], [0.9], [0.1]])
    )
    h = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    env = envs.finite_chain(0.6, g=[[1.0]], h=h, value=val)
    tr = affine_coefficients(env, 0, 1.0)
    for start in range(3):
        idx = index_at(env, 0, tr, 0.5, start, 0)
        bf = brute_force_index(env, 0, tr, ArmState(0.5, start, 0), horizon=60)
        assert abs(idx - bf.value) <= 1e-9 + bf.tail_bound


def test_brute_force_guard_refuses_large_instances():
    env = envs.sponsored_search(k=1, cap=5, delta=0.8)
    tr = affine_coefficients(env, 0, 1.0)
    with pytest.raises(DomainError):
        brute_force_index(env, 0, tr, ArmState(0.9, 0, 0), horizon=100)


def _click_chain_env(cap: int, delta: float) -> envs.Environment:
    """Arm whose reward is the click-belief posterior mean itself."""
    labels, means, succ = envs.beta_posterior_states((1.0, 1.0), cap)
    n = len(labels)
    g = np.zeros((n, n))
    for i, (up, down) in enumerate(succ):
        if up == i and down == i:
            g[i, i] = 1.0
        else:
            g[i, up] += means[i]
            g[i, down] += 1.0 - means[i]
    val = envs.MultiplicativeValue(
        a=lambda t: t, da=lambda t: 1.0, b=means.reshape(1, n), c=np.zeros(n)
    )
    return envs.finite_chain(delta, g=g, h=[[1.0]], value=val, rho_labels=labels)


def test_beta_bernoulli_click_arm_exploration_bonus():
    env = _click_chain_env(cap=20, delta=0.9)
    tr = affine_coefficients(env, 0, 1.0)  # top report: identity transform
    idx = index_at(env, 0, tr, 1.0, 0, 0)
    # exploration makes the index exceed the myopic mean 1/2, but it stays
    # below the best reachable posterior mean
    assert 0.5 < idx < 21.0 / 22.0


def test_beta_bernoulli_small_cap_matches_brute_force():
    env = _click_chain_env(cap=3, delta=0.9)
    tr = affine_coefficients(env, 0, 1.0)
    idx = index_at(env, 0, tr, 1.0, 0, 0)
    bf = brute_force_index(env, 0, tr, ArmState(1.0, 0, 0), horizon=180, cap=2000)
    assert abs(idx - bf.value) <= 1e-6 + bf.tail_bound


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bisection_agrees_with_exact_largest_index_method(seed):
    gen = substream(seed, "vwb")
    n = int(gen.integers(2, 6))
    rewards = gen.random(n)
    p = gen.random((n, n))
    p /= p.sum(axis=1, keepdims=True)
    delta = 0.7
    exact = vwb_indices(rewards, p, delta)
    val = envs.AdditiveValue(
        a=lambda t, r: 0.0, da=lambda t, r: 0.0, b=rewards.reshape(n, 1)
    )
    env = envs.finite_chain(delta, g=[[1.0]], h=p, value=val)
    tr = affine_coefficients(env, 0, 1.0)
    arm = gittins.compile_arm(env, 0, tr, 0.5)
    for s in range(n):  # the sweep, then the bisection oracle
        assert index_at(env, 0, tr, 0.5, s, 0) == pytest.approx(exact[s], abs=2e-9)
        assert bisect_indices(arm, [s], 1e-9)[0] == pytest.approx(exact[s], abs=2e-9)


def _chain_arm(rewards: np.ndarray, p: np.ndarray, delta: float) -> gittins.CompiledArm:
    """Arm of a chain given as a dense transition matrix: one public
    state, G = [[1]] and H = P[None]."""
    return gittins.CompiledArm(
        rewards=rewards,
        delta=delta,
        n_e=len(rewards),
        n_rho=1,
        graph=envs.SweepGraph(np.ones((1, 1)), p[None]),
    )


def _random_arm(seed: int, max_states: int = 40) -> gittins.CompiledArm:
    """Random chain with sparse rows, a few self-loops and a delta in
    [0.5, 0.98)."""
    gen = substream(seed, "sweep")
    n = int(gen.integers(1, max_states + 1))
    p = gen.random((n, n)) * (gen.random((n, n)) < 0.3)
    p[np.arange(n), gen.integers(0, n, n)] += 0.1
    p /= p.sum(axis=1, keepdims=True)
    rewards = gen.random(n) - 0.3
    delta = 0.5 + 0.48 * float(gen.random())
    return _chain_arm(rewards, p, delta)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_sweep_agrees_with_largest_index_recursion(seed):
    arm = _random_arm(seed)
    got = gittins.index_of_states(arm, np.arange(arm.n))
    want = vwb_indices(arm.rewards, arm.transition.toarray(), arm.delta)
    assert np.max(np.abs(got - want)) <= 1e-12
    again = gittins.index_of_states(arm, np.arange(arm.n))
    assert np.array_equal(got, again)  # rebuilding gives identical bits


def test_sweep_agrees_with_bisection_on_sponsored_arm(sponsored2):
    agent = sponsored2.agents[0]
    arm = gittins.compile_reward_arm(agent, agent.value.b, sponsored2.delta)
    assert arm.n == 441
    states = np.arange(arm.n)
    swept = gittins.index_of_states(arm, states)
    bisected = bisect_indices(arm, states, 1e-12)
    assert np.max(np.abs(swept - bisected)) <= 2e-12


@pytest.mark.parametrize("reward", [0.0, 0.1, 1.0 / 3.0, -0.7])
def test_sweep_constant_reachable_rewards_are_bit_exact(reward):
    # states 0-2 cycle among themselves at one reward; states 3-4 lead
    # into the cycle from other rewards
    p = np.array(
        [
            [0.2, 0.5, 0.3, 0.0, 0.0],
            [0.3, 0.1, 0.6, 0.0, 0.0],
            [0.7, 0.2, 0.1, 0.0, 0.0],
            [0.2, 0.0, 0.3, 0.4, 0.1],
            [0.0, 0.5, 0.0, 0.2, 0.3],
        ]
    )
    rewards = np.array([reward, reward, reward, reward + 0.9, reward - 0.4])
    arm = _chain_arm(rewards, p, 0.93)
    got = gittins.index_of_states(arm, np.arange(5))
    assert np.all(got[:3] == reward)
    want = vwb_indices(rewards, p, 0.93)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_index_refused_above_arm_size_cutoff(monkeypatch):
    env = two_state_env(0.5)
    tr = affine_coefficients(env, 0, 1.0)
    arm = gittins.compile_arm(env, 0, tr, 0.5)
    swept = gittins.index_of_states(arm, np.arange(arm.n))
    bisected = bisect_indices(arm, np.arange(arm.n), 1e-10)
    assert np.max(np.abs(bisected - swept)) <= 1e-10
    assert bisected[1] == 1.0  # constant reachable reward: bracket collapse

    def no_sweep(arm):
        raise AssertionError("an arm above the cutoff must be refused before any sweep")

    monkeypatch.setattr(gittins, "DENSE_SWEEP_MAX_STATES", 1)
    monkeypatch.setattr(gittins, "_eliminate", no_sweep)
    # no transition: the refusal must not read it
    bare = dataclasses.replace(arm, graph=None)
    for call in (lambda: gittins.index_of_states(bare, np.arange(bare.n)), lambda: gittins.hit_discounts(bare)):
        with pytest.raises(DomainError, match="2 states exceeds DENSE_SWEEP_MAX_STATES = 1"):
            call()


def test_bisection_raises_when_value_iteration_does_not_converge(monkeypatch):
    env = two_state_env(0.5)
    arm = gittins.compile_arm(env, 0, affine_coefficients(env, 0, 1.0), 0.5)
    monkeypatch.setattr(gittins, "VI_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        gittins.optimal_stop_value(arm)


def test_vwb_indices_sorted_and_top_state():
    rewards = np.array([0.3, 0.8, 0.1])
    p = np.full((3, 3), 1.0 / 3.0)
    out = vwb_indices(rewards, p, 0.5)
    assert out[1] == pytest.approx(0.8)
    assert out[1] >= out[0] >= out[2]


def test_index_table_single_state_and_determinism():
    env = constant_arm_env(0.5)
    tr = VirtualTransform(alpha=1.0, beta=np.array([0.25]), pegged_report=1.0)
    arm = gittins.compile_arm(env, 0, tr, 0.0)
    t1 = gittins.index_of_states(arm, np.arange(arm.n))
    assert t1.shape == (1,)
    assert t1[0] == 0.25
    arm = gittins.compile_arm(env, 0, tr, 0.0)
    t2 = gittins.index_of_states(arm, np.arange(arm.n))
    assert np.array_equal(t1, t2)


def test_index_table_beta_bernoulli_full_and_finite(sponsored_small):
    tr = affine_coefficients(sponsored_small, 0, 1.0)
    arm = gittins.compile_arm(sponsored_small, 0, tr, 1.0)
    table = gittins.index_of_states(arm, np.arange(arm.n))
    assert table.shape == (36,)
    assert np.all(np.isfinite(table))
    arm = gittins.compile_arm(sponsored_small, 0, tr, 1.0)
    again = gittins.index_of_states(arm, np.arange(arm.n))
    assert np.array_equal(table, again)


def test_allocate_rules():
    assert gittins.allocate([0.4, 0.9]) == 2
    assert gittins.allocate([-0.2, -0.5]) == 0
    assert gittins.allocate([0.7, 0.7]) == 1
    assert gittins.allocate([0.0]) == 0  # tie with the zero arm goes to it
    assert gittins.allocate([]) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=6))
def test_allocate_is_argmax_with_lowest_id_ties(vals):
    w = gittins.allocate(vals)
    if w == 0:
        assert max(vals) <= 0.0
    else:
        assert vals[w - 1] == max(vals)
        assert all(v < vals[w - 1] for v in vals[: w - 1])
        assert vals[w - 1] > 0.0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_index_policy_winners_match_allocate(data):
    # every entry comes from one small pool of levels (zeros of both
    # signs included), so exact ties within an arm, across arms and with
    # the zero arm are common
    pool = data.draw(
        st.lists(
            st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.7]) | st.floats(-1, 1, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    k = data.draw(st.integers(1, 3))
    tables = [
        np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
        for _ in range(k)
    ]
    winners = index_policy_winners(tables)
    states = list(np.ndindex(*[len(t) for t in tables]))
    assert winners.shape == (len(states),)
    for flat, comp in enumerate(states):
        assert winners[flat] == gittins.allocate([t[s] for t, s in zip(tables, comp)])


def test_weighted_welfare_constant_arms():
    env = constant_arm_env(0.5, k=2)
    reports = [1.0, 1.0]
    theta = [0.6, 0.2]
    w = exact_dp_policy_value(env, reports, theta, [0, 0], [0, 0], "index")
    assert w.policy_value == pytest.approx(1.2, abs=1e-9)
    w1 = exact_dp_policy_value(env, reports, theta, [0, 0], [0, 0], "index", exclude=0)
    assert w1.policy_value == pytest.approx(0.4, abs=1e-9)
    w2 = exact_dp_policy_value(env, reports, [-0.0, 0.0], [0, 0], [0, 0], "index")
    assert w2.policy_value == 0.0  # all indices at zero: the zero arm absorbs


def test_weighted_welfare_negative_rewards_zero_arm():
    env = constant_arm_env(0.5, k=2)
    # theta values below the transform peg make xi negative: never allocate
    val = exact_dp_policy_value(env, [1.0, 1.0], [-0.3, -0.1], [0, 0], [0, 0], "index")
    assert val.policy_value == 0.0


def test_weighted_welfare_rollout_agrees_with_exact(sponsored_small, sponsored_small_runtime):
    env = sponsored_small
    reports = [0.9, 0.7]
    theta = [0.9, 0.7]
    exact = exact_dp_policy_value(
        env, reports, theta, [0, 0], [0, 0], "index", runtime=sponsored_small_runtime
    )
    roll = gittins.weighted_welfare(env, reports, theta, [0, 0], [0, 0], n_paths=3000, seed=5)
    assert abs(roll.mean - exact.policy_value) <= 3.5 * roll.std_error
    with pytest.raises(DomainError, match="unknown welfare mode 'exact_dp': the one accepted mode is 'rollout'"):
        gittins.weighted_welfare(env, reports, theta, [0, 0], [0, 0], mode="exact_dp")


def _random_small_instance(seed: int):
    gen = substream(seed, "optimality")
    arms = []
    delta = 0.5 + 0.4 * float(gen.random())
    for _ in range(2):
        n = int(gen.integers(2, 5))
        rewards = -0.3 + 1.3 * gen.random(n)
        p = gen.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        arms.append((rewards, p))
    return delta, arms


def _instance_env(delta, arms):
    agents = []
    for rewards, p in arms:
        n = len(rewards)
        val = envs.AdditiveValue(
            a=lambda t, r: 0.0, da=lambda t, r: 0.0, b=np.asarray(rewards).reshape(n, 1)
        )
        agents.append(
            envs.AgentModel(
                distribution=envs.uniform_type(1.0),
                public=envs.PublicKernel(matrix=np.eye(1), labels=("p0",)),
                private=envs.PrivateKernel(
                    matrix=np.asarray(p).reshape(1, n, n), labels=tuple(f"e{i}" for i in range(n))
                ),
                value=val,
            )
        )
    return envs.make_environment(agents, delta)


@pytest.mark.parametrize("seed", range(5))
def test_index_policy_achieves_joint_optimum(seed):
    delta, arms = _random_small_instance(seed)
    env = _instance_env(delta, arms)
    policy_val = exact_dp_policy_value(env, [1.0, 1.0], [0.5, 0.5], [0, 0], [0, 0], "index")
    opt_arms = [
        gittins.compile_reward_arm(env.agents[i], env.agents[i].value.b, delta)
        for i in range(2)
    ]
    opt = gittins.joint_optimal_value(opt_arms, delta, tol=1e-12)
    assert policy_val.policy_value == pytest.approx(float(opt[0]), abs=1e-8)


def test_index_monotone_in_report(sponsored_small):
    env = sponsored_small
    rs = np.linspace(0.55, 1.0, 6)
    prev = None
    for r in rs:
        arm = gittins.compile_arm(env, 0, affine_coefficients(env, 0, float(r)), 0.8)
        table = gittins.index_of_states(arm, np.arange(arm.n))
        if prev is not None:
            assert np.all(table - prev >= -1e-9)
        prev = table


def test_tail_horizon_formula():
    assert gittins.tail_horizon(0.5, 1, 1.0, 1e-4) == 15
    # delta^T * k * vmax / (1 - delta) < eps at the returned T, not before
    t = gittins.tail_horizon(0.8, 2, 1.0, 1e-4)
    assert 0.8**t * 2 / 0.2 < 1e-4 <= 0.8 ** (t - 1) * 2 / 0.2


# ---------------------------------------------------------------------------
# Hit discounts and Whittle's retirement formula
# ---------------------------------------------------------------------------


def _hit_table(hits: gittins.HitColumns, n: int) -> np.ndarray:
    """Every state's replayed hit column, one column per state."""
    columns = [hits.column(x) for x in range(n)]
    assert all(c.shape == (n,) for c in columns)
    return np.stack(columns, axis=1)


def _hits_gap_to_per_level_solves(arm: gittins.CompiledArm) -> float:
    """Worst gap between the sweep's hit discounts and one linear solve
    per level.  Each level's continuation set is read off the columns
    (the states whose entry is below 1) and must grow by one state of
    highest remaining index per level."""
    indices, levels, hits = gittins.hit_discounts(arm)
    idx = gittins.index_of_states(arm, np.arange(arm.n))
    assert np.array_equal(indices, idx)  # the index table comes from the same sweep
    p, delta = arm.transition.toarray(), arm.delta
    table = _hit_table(hits, arm.n)
    assert np.all(np.diff(levels) <= 0.0)
    worst = 0.0
    prev = np.zeros(arm.n, dtype=bool)
    for k in range(arm.n):
        cont = table[k] < 1.0
        new = np.nonzero(cont & ~prev)[0]
        assert cont.sum() == k + 1 and np.all(cont[prev]) and len(new) == 1
        assert abs(levels[k] - idx[new[0]]) <= 1e-12
        assert idx[new[0]] >= np.max(idx[~cont], initial=-np.inf) - 1e-12
        c, out = np.nonzero(cont)[0], np.nonzero(~cont)[0]
        want = np.ones(arm.n)
        want[c] = np.linalg.solve(
            np.eye(len(c)) - delta * p[np.ix_(c, c)], delta * p[np.ix_(c, out)].sum(axis=1)
        )
        worst = max(worst, float(np.max(np.abs(table[k] - want))))
        prev = cont
    return worst


def test_hit_discounts_match_per_level_solves_on_sponsored_arm(sponsored_small):
    agent = sponsored_small.agents[0]
    arm = gittins.compile_reward_arm(agent, agent.value.b, sponsored_small.delta)
    assert arm.n == 36
    assert _hits_gap_to_per_level_solves(arm) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_hit_discounts_match_per_level_solves_on_random_chains(seed):
    assert _hits_gap_to_per_level_solves(_random_arm(seed, max_states=20)) <= 1e-12


def _whittle_w(hits: list[tuple[np.ndarray, gittins.HitColumns]], states, delta: float) -> float:
    factors = []
    for (levels, columns), s in zip(hits, states):
        positive = int(np.count_nonzero(levels > 0.0))
        factors.append((levels[:positive], columns.column(s)[:positive]))
    return gittins.retirement_surplus(factors) / (1.0 - delta)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    k=st.sampled_from([2, 3]),
    tie_within=st.booleans(),
    tie_across=st.booleans(),
)
def test_whittle_value_matches_joint_optimum(seed, k, tie_within, tie_across):
    gen = substream(seed, "whittle")
    delta = 0.5 + 0.45 * float(gen.random())
    arms = []
    for j in range(k):
        if tie_across and j == k - 1:
            arms.append(arms[0])  # every level of the first arm, twice
            continue
        n = int(gen.integers(1, 9))
        p = gen.random((n, n)) * (gen.random((n, n)) < 0.5)
        p[np.arange(n), gen.integers(0, n, n)] += 0.1
        p /= p.sum(axis=1, keepdims=True)
        rewards = gen.uniform(-1.0, 1.0, n)
        if tie_within and n >= 2:
            p[1], rewards[1] = p[0], rewards[0]  # states 0 and 1 share one index
        arms.append(_chain_arm(rewards, p, delta))
    opt = gittins.joint_optimal_value(arms, delta, tol=1e-12).reshape([a.n for a in arms])
    hits = [gittins.hit_discounts(a)[1:] for a in arms]
    worst = max(abs(_whittle_w(hits, s, delta) - opt[s]) for s in np.ndindex(opt.shape))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# The live-row sweep and replayed hit columns against the full update
# ---------------------------------------------------------------------------


def _full_update_sweep(arm: gittins.CompiledArm):
    """``_sweep_indices`` with every hit column at once, folding each
    retired state into the whole work matrix (retired rows included)
    instead of the live rows that step to it.  The hit table is in
    ``hit_discounts``' form: column x is ``HitColumns.column(x)``."""
    n = arm.n
    w = np.zeros((n, n + 2))
    w[:, :n] = arm.transition.toarray() * arm.delta
    w[:, n] = arm.rewards
    w[:, n + 1] = 1.0
    out, order, hits = np.empty(n), np.empty(n, dtype=int), np.empty((n, n))
    retired = np.zeros(n, dtype=bool)
    for k in range(n):
        ratio = w[:, n] / w[:, n + 1]
        ratio[retired] = -np.inf
        a = int(np.argmax(ratio))
        out[a], retired[a], order[k] = ratio[a], True, a
        w += np.outer(w[:, a], (1.0 / (1.0 - w[a, a])) * w[a])
        w[:, a] = 0.0
        hits[k] = w[:, n + 1]
    hits *= 1.0 - arm.delta
    np.subtract(1.0, hits, out=hits)
    for k, x in enumerate(order):
        hits[:k, x] = 1.0  # rows before x retires: the arm stops at once there
    lo, hi = gittins._reward_range(arm)
    return np.clip(out, lo, hi), order, hits


def _bits(result) -> list:
    return [(x.dtype, x.shape, x.tobytes()) for x in result]


def _assert_sweep_equals_full_update(arm: gittins.CompiledArm, full: bool = True) -> None:
    """The sweep's indices, order and every replayed hit column give the
    same bits as the full update (``full``; else only the kernel's own
    checks run): the order and columns as they are, the indices after
    ``_sweep_indices``' clip.  ``tobytes`` tells -0.0 from 0.0.  The
    columns replay to the same bits in any order, and a second time."""
    out, order, hits = gittins._eliminate(arm)
    assert sorted(order.tolist()) == list(range(arm.n))
    table = _hit_table(hits, arm.n)
    backwards = gittins._eliminate(arm)[2]
    again = np.stack([backwards.column(x) for x in range(arm.n - 1, -1, -1)], axis=1)[:, ::-1]
    assert _bits([again]) == _bits([table])
    assert all(hits.column(x) is hits.column(x) for x in range(arm.n))  # memoized
    if full:
        lo, hi = gittins._reward_range(arm)
        assert _bits([np.clip(out, lo, hi), order, table]) == _bits(_full_update_sweep(arm))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_sweep_kernels_equal_full_update_on_random_chains(seed):
    _assert_sweep_equals_full_update(_random_arm(seed))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    ties=st.integers(0, 3),
    zeros=st.sampled_from(["none", "+0", "-0", "both"]),
    tiny=st.booleans(),
)
def test_sweep_kernels_agree_on_tied_rows_zero_rewards_and_underflow(seed, ties, zeros, tiny):
    # copied rows tie the ratio argmax; zero rewards leave the r column
    # out of the fold; entries near 1e-170 make products that underflow
    gen = substream(seed, "sweep-ties")
    n = int(gen.integers(2, 30))
    p = gen.random((n, n)) * (gen.random((n, n)) < 0.3)
    p[np.arange(n), gen.integers(0, n, n)] += 0.1
    if tiny:
        p[gen.random((n, n)) < 0.2] = 1e-170
    p /= p.sum(axis=1, keepdims=True)
    rewards = gen.random(n) - 0.3
    for t in range(min(ties, n - 1)):
        p[t + 1], rewards[t + 1] = p[0], rewards[0]
    if zeros != "none":
        signs = {"+0": [1.0], "-0": [-1.0], "both": [1.0, -1.0]}[zeros]
        at = gen.random(n) < 0.4
        rewards[at] = np.copysign(0.0, gen.choice(signs, int(at.sum())))
    arm = _chain_arm(rewards, p, 0.5 + 0.48 * float(gen.random()))
    # the full update adds +0.0 to rows that do not step to the retired
    # state, which turns a -0.0 reward into 0.0; the sweep touches only
    # entries that change, so it is compared with the full update only
    # where no reward is -0.0
    _assert_sweep_equals_full_update(arm, full=zeros in ("none", "+0"))


def test_sweep_kernels_leave_r_alone_when_the_retired_reward_is_zero():
    # state 0 (reward 0.0) retires first on the tie; folding the r column
    # anyway would turn state 1's -0.0 into 0.0 + 0.0 = 0.0
    arm = _chain_arm(np.array([0.0, -0.0]), np.array([[1.0, 0.0], [1.0, 0.0]]), 0.9)
    out, order, _ = gittins._eliminate(arm)
    assert order.tolist() == [0, 1]
    assert str(out[1]) == "-0.0"


def _shipped_sweep_arm(name: str) -> gittins.CompiledArm:
    if name.startswith("sponsored cap "):
        agent = envs.sponsored_search(k=1, cap=int(name[-1]), delta=0.8).agents[0]
    else:  # _shipped_agents yields sponsored search, ar1, posted_price, exponential_control
        names = ("ar1", "posted_price", "exponential_control")
        agent = list(_shipped_agents())[1 + names.index(name)]
    return gittins.compile_reward_arm(agent, agent.value.b, 0.8)


@pytest.mark.parametrize(
    "name", [f"sponsored cap {cap}" for cap in (2, 3, 4, 5)] + ["ar1", "posted_price", "exponential_control"]
)
def test_sweep_kernels_equal_full_update_on_shipped_arms(name):
    _assert_sweep_equals_full_update(_shipped_sweep_arm(name))


def _shipped_agents():
    configs = Path(__file__).resolve().parents[1] / "configs"
    yield envs.sponsored_search(k=1, cap=5, delta=0.8).agents[0]
    yield envs.ar1(k=1, coeff=0.5, shock=np.array([[0.2]]), delta=0.8, grid_step=0.1, alloc_cap=6).agents[0]
    for name in ("posted_price", "exponential_control"):
        yield build_environment(parse_config(configs / f"{name}.cfg")).agents[0]


def test_transition_arrays_equal_the_per_entry_build():
    for agent in _shipped_agents():
        _assert_transition_equals_the_per_entry_build(agent)


def _assert_transition_equals_the_per_entry_build(agent: envs.AgentModel) -> None:
    """An arm's scipy transition, built from the agent model's kernels,
    has the per-entry build's arrays bit for bit, stored zeros included,
    and every compile shares the model's graph."""
    arm = gittins.compile_reward_arm(agent, agent.value.b, 0.8)
    assert arm.graph is agent.graph
    want, got = loop_transition(agent), arm.transition
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert _bits([got.data]) == _bits([want.data])


# ---------------------------------------------------------------------------
# What an agent model compiles once: the sweep's rows and its reachability
# ---------------------------------------------------------------------------


def _random_chain(gen, n: int) -> np.ndarray:
    """A random transition matrix on n states: 1 to 3 successors a
    state, each at a positive probability, so cycles and self-loops
    mix."""
    p = np.zeros((n, n))
    for s in range(n):
        k = int(gen.integers(1, min(n, 3) + 1))
        p[s, gen.choice(n, k, replace=False)] = 1.0 - gen.random(k)  # in (0, 1]
    return p / p.sum(axis=1, keepdims=True)


def _csr_chain(gen, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of a random graph on n states: up to 3 successors a
    state, some of them stored with probability 0, and now and then a
    state with no entry at all, so cycles, self-loops and sinks mix."""
    indptr, indices, probs = [0], [], []
    for _ in range(n):
        k = 0 if gen.random() < 0.05 else int(gen.integers(1, min(n, 3) + 1))
        cols = np.sort(gen.choice(n, k, replace=False))
        w = gen.random(k)
        w[gen.random(k) < 0.3] = 0.0
        indices.extend(cols.tolist())
        probs.extend((w / w.sum() if w.sum() > 0.0 else w).tolist())
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.int32), np.array(probs)


def _succs(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), zeros=st.sampled_from(["none", "+0", "-0", "both"]))
def test_reward_range_equals_fixed_point_relaxation(seed, zeros):
    gen = substream(seed, "reward-range")
    n = int(gen.integers(1, 40))
    p = _random_chain(gen, n)
    rewards = gen.choice([-0.5, 0.25, 0.0, 1.0], n)  # ties at every extreme
    if zeros != "none":
        signs = {"+0": [1.0], "-0": [-1.0], "both": [1.0, -1.0]}[zeros]
        at = rewards == 0.0
        rewards[at] = np.copysign(0.0, gen.choice(signs, int(at.sum())))
    arm = _chain_arm(rewards, p, 0.8)
    got, want = gittins._reward_range(arm), reward_range_relaxation(arm)
    if zeros == "both":
        # where a reachable set's extreme is 0.0 and it holds both signs,
        # the relaxation's sign depends on how many rounds it ran
        # (np.minimum returns its second operand on a tie): values only
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    else:
        assert _bits(got) == _bits(want)


def test_reach_closes_sccs_in_reverse_topological_order():
    gen = substream(3, "reach")
    for _ in range(50):
        n = int(gen.integers(1, 30))
        indptr, indices, _ = _csr_chain(gen, n)
        reach = envs._reach(_succs(indptr, indices))
        closure = np.eye(n, dtype=bool)
        closure[np.repeat(np.arange(n), np.diff(indptr)), indices] = True
        for _ in range(n):
            closure = closure | ((closure.astype(int) @ closure.astype(int)) > 0)
        same = closure & closure.T
        assert np.array_equal(same, reach.comp[:, None] == reach.comp[None, :])
        for c, (first, rest, succ) in enumerate(reach.sccs):
            assert sorted([first, *rest]) == np.nonzero(reach.comp == c)[0].tolist()
            assert all(d < c for d in succ)  # each successor closed first


def test_reach_of_a_long_path_needs_no_recursion():
    n = 20_000  # deeper than the interpreter's recursion limit
    indptr = np.arange(n + 1)
    indices = np.minimum(np.arange(1, n + 1), n - 1)
    reach = envs._reach(_succs(indptr, indices))
    assert reach.comp.tolist() == list(range(n - 1, -1, -1))


def _ar1_agent() -> envs.AgentModel:
    return envs.ar1(k=1, coeff=0.5, shock=np.array([[0.2]]), delta=0.8, grid_step=0.1, alloc_cap=6).agents[0]


def _sweep_bits(agent: envs.AgentModel, rewards: np.ndarray, delta: float) -> list:
    indices, levels, hits = gittins.hit_discounts(gittins.compile_reward_arm(agent, rewards, delta))
    return _bits([indices, levels, *(hits.column(x) for x in range(len(indices)))])


def test_interleaved_sweeps_on_one_agent_model_equal_fresh_models():
    # the shared rows are folded in copies only: sweeps of two reward
    # vectors (and a second delta) taking turns on one agent model give
    # the bits of each sweep on a model of its own
    shared = _ar1_agent()
    gen = substream(11, "interleave")
    rewards = [gen.uniform(-1.0, 1.0, (shared.private.n, shared.public.n)) for _ in range(2)]
    for step, (x, delta) in enumerate([(0, 0.8), (1, 0.8), (0, 0.9), (1, 0.8), (0, 0.8), (1, 0.9)]):
        assert _sweep_bits(shared, rewards[x], delta) == _sweep_bits(_ar1_agent(), rewards[x], delta), step
    assert shared.graph.sweep_rows(0.8) == _ar1_agent().graph.sweep_rows(0.8)
    arm = gittins.compile_reward_arm(shared, rewards[0], 0.8)
    assert arm.graph is shared.graph  # every compile shares the model's graph


def _kernel_agent(g: np.ndarray, h: np.ndarray) -> envs.AgentModel:
    n_rho, n_e = g.shape[0], h.shape[1]
    return envs.AgentModel(
        distribution=envs.uniform_type(1.0),
        public=envs.PublicKernel(matrix=g, labels=tuple(f"p{r}" for r in range(n_rho))),
        private=envs.PrivateKernel(matrix=h, labels=tuple(f"e{e}" for e in range(n_e))),
        value=envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((n_e, n_rho))),
    )


def _assert_kernel_read_equals_csr_built(agent: envs.AgentModel, rewards: list[np.ndarray]) -> None:
    """The graph an agent model reads from G and H in one pass has the
    rows that the reference CSR reader (``oracles.read_csr``) reads from
    the per-entry transition (``oracles.loop_transition``): columns in
    the same order, values to the bit, the same predecessor sets,
    successor lists and ``forward``.  Its reward ranges have the bits of
    Tarjan's components on the CSR successors, and ``_reach`` runs only
    on a graph with a backward edge.  An arm's scipy transition equals
    the per-entry one bit for bit."""
    kernel = envs.SweepGraph(agent.public.matrix, agent.private.matrix)
    csr = loop_transition(agent)
    n_e, n_rho = agent.private.n, agent.public.n
    reached = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(envs, "_reach", lambda succs, reach=envs._reach: reached.append(1) or reach(succs))
        for delta in (0.8, 0.95):
            got = kernel.sweep_rows(delta)
            want, succ, forward = read_csr(csr.indptr, csr.indices, csr.data, delta)
            assert [list(row) for row in got[0]] == [list(row) for row in want[0]]
            assert _bits([np.array(list(row.values())) for row in got[0]]) == _bits(
                [np.array(list(row.values())) for row in want[0]]
            )
            assert got[1] == want[1]
        assert kernel.succ == succ
        assert kernel.forward == forward
        got = [gittins._reward_range(gittins.CompiledArm(r, 0.8, n_e, n_rho, kernel)) for r in rewards]
        assert len(reached) == (not kernel.forward)  # Tarjan once, and only on a backward edge
    tarjan = SimpleNamespace(forward=False, succ=succ, reach=envs._reach(succ))
    want = [gittins._reward_range(gittins.CompiledArm(r, 0.8, n_e, n_rho, tarjan)) for r in rewards]
    for a, b in zip(got, want):
        assert _bits(a) == _bits(b)
    _assert_transition_equals_the_per_entry_build(agent)


def _signed_rewards(gen, n: int) -> np.ndarray:
    """Rewards tied at every extreme, with +0.0 and -0.0 among them."""
    return gen.choice([-0.5, 0.0, -0.0, 0.25, 1.0], n)


@pytest.mark.parametrize(
    "name", [f"sponsored cap {cap}" for cap in range(1, 6)] + ["ar1", "posted_price", "exponential_control"]
)
def test_kernel_read_graph_equals_the_csr_built_one_on_shipped_arms(name):
    if name.startswith("sponsored cap "):
        agent = envs.sponsored_search(k=1, cap=int(name[-1]), delta=0.8).agents[0]
    else:
        agent = list(_shipped_agents())[1 + ("ar1", "posted_price", "exponential_control").index(name)]
    gen = substream(5, "kernel-read", name)
    n = agent.n_states
    _assert_kernel_read_equals_csr_built(agent, [agent.value.b.reshape(-1), _signed_rewards(gen, n)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), forward=st.booleans(), tiny=st.booleans())
def test_kernel_read_graph_equals_the_csr_built_one_on_random_kernels(seed, forward, tiny):
    # zero factors are no edge; factors near 1e-170 multiply to 0, an
    # edge with no row entry; ``forward`` keeps every move to an equal
    # or higher state, else a backward edge is likely
    gen = substream(seed, "kernel-read")
    n_rho, n_e = int(gen.integers(1, 5)), int(gen.integers(1, 5))

    def rows(shape):
        x = gen.random(shape) * (gen.random(shape) < 0.5)
        if tiny:
            x[gen.random(shape) < 0.2] = 1e-170
        if forward:
            x = np.triu(x)
        x[..., -1] += x.sum(axis=-1) == 0.0  # the last state is reachable from every row
        return x / x.sum(axis=-1, keepdims=True)

    agent = _kernel_agent(rows((n_rho, n_rho)), rows((n_rho, n_e, n_e)))
    n = agent.n_states
    _assert_kernel_read_equals_csr_built(agent, [_signed_rewards(gen, n) for _ in range(3)])


def test_a_chain_with_a_backward_edge_goes_through_tarjan():
    # state 1 steps back to state 0: one SCC {0, 1}, then the sink 2
    g = np.array([[0.5, 0.5, 0.0], [0.6, 0.0, 0.4], [0.0, 0.0, 1.0]])
    agent = _kernel_agent(g, np.ones((3, 1, 1)))
    assert not agent.graph.forward
    reached = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(envs, "_reach", lambda succs, reach=envs._reach: reached.append(succs) or reach(succs))
        arm = gittins.CompiledArm(np.array([1.0, -1.0, 0.5]), 0.8, 1, 3, agent.graph)
        lo, hi = gittins._reward_range(arm)
    assert reached == [[[0, 1], [0, 2], [2]]]
    assert lo.tolist() == [-1.0, -1.0, 0.5] and hi.tolist() == [1.0, 1.0, 0.5]


def test_v_max_is_the_same_for_replicated_and_distinct_agent_models(monkeypatch):
    calls = []
    bound = envs._value_bound
    monkeypatch.setattr(envs, "_value_bound", lambda agent: calls.append(agent) or bound(agent))
    for make in (_ar1_agent, lambda: envs.sponsored_search(k=1, cap=2, delta=0.8).agents[0]):
        agent, models = make(), [make() for _ in range(3)]  # each builder call bounds its model once
        calls.clear()
        replicated = envs.make_environment([agent] * 3, 0.8)
        assert len(calls) == 1 and calls[0] is agent  # one bound per distinct model
        distinct = envs.make_environment(models, 0.8)
        assert len(calls) == 4
        assert replicated.v_max == distinct.v_max == bound(agent)


# ---------------------------------------------------------------------------
# The start closure: a sweep of the states reachable from state 0 alone
# ---------------------------------------------------------------------------


def _assert_start_sweep_equals_full_sweep(arm: gittins.CompiledArm) -> int:
    """``start_indices`` gives every state reachable from state 0 the
    full sweep's index bit for bit (``tobytes`` tells -0.0 from 0.0) and
    None elsewhere; returns the closure's size."""
    states, _ = arm.graph.start(arm.delta)
    succ = arm.graph.succ
    assert states[0] == 0 and states == sorted(set(states))
    assert all(set(succ[s]) <= set(states) for s in states)  # successor-closed
    got = gittins.start_indices(arm)
    assert [x is None for x in got] == [s not in states for s in range(arm.n)]
    full = gittins.index_of_states(arm, np.arange(arm.n))
    assert _bits([np.array([got[s] for s in states])]) == _bits([full[states]])
    return len(states)


def _closure_of(p: np.ndarray) -> set[int]:
    seen, todo = {0}, [0]
    while todo:
        for j in np.nonzero(p[todo.pop()])[0].tolist():
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    backward=st.booleans(),
    tiny=st.sampled_from(["none", "fold underflow", "zero product"]),
    ties=st.integers(0, 3),
)
def test_start_sweep_equals_full_sweep_on_random_chains(seed, backward, tiny, ties):
    # 1-3 successors a state, only to equal or higher states unless
    # ``backward`` (then Tarjan orders the components); rewards from a
    # few values of both signs, +0.0 and -0.0 among them, so ratios tie
    # exactly; a state off the closure copies the row and reward of a
    # higher one on it (any one if ``backward``) and ties it at every
    # step, winning each tie in the full sweep; entries near 1e-170 make fold products
    # that underflow, and an entry of 5e-324 at a delta below 1/2 is an
    # edge whose product rounds to 0
    gen = substream(seed, "start-closure")
    n = int(gen.integers(2, 25))
    p = np.zeros((n, n))
    for s in range(n):
        first = 0 if backward else s
        k = int(gen.integers(1, min(n - first, 3) + 1))
        p[s, first + gen.choice(n - first, k, replace=False)] = 1.0 - gen.random(k)
    if tiny == "fold underflow":
        p[(gen.random((n, n)) < 0.15) & (p > 0.0)] = 1e-170
    p /= p.sum(axis=1, keepdims=True)
    delta = 0.5 + 0.48 * float(gen.random())
    if tiny == "zero product":
        s = int(gen.integers(0, n))
        j = int(gen.integers(0 if backward else s, n))
        if p[s, j] == 0.0:
            p[s, j] = 5e-324
        delta = 0.3 + 0.19 * float(gen.random())
    rewards = gen.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5], n)
    inside = sorted(_closure_of(p))
    outside = sorted(set(range(n)) - set(inside))
    pairs = [(u, t) for u in inside for t in outside if backward or t < u]
    for k in gen.choice(len(pairs), min(ties, len(pairs)), replace=False).tolist() if pairs else ():
        u, t = pairs[k]
        p[t], rewards[t] = p[u], rewards[u]
    arm = _chain_arm(rewards, p, delta)
    assert arm.graph.forward or backward
    assert _assert_start_sweep_equals_full_sweep(arm) == len(inside)


def _config_agents():
    """Agent 0 of each shipped config, with its environment."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(configs.glob("*.cfg")):
        yield path.stem, build_environment(parse_config(path))


@pytest.mark.parametrize("name", [name for name, _ in _config_agents()])
def test_start_sweep_equals_full_sweep_on_shipped_agents(name):
    # at the experience rewards and at virtual values of a grid of
    # reports and types; the closures are 7 of 35 states on the AR(1)
    # arm, 25 of 36 and 266 of 441 at sponsored caps 2 and 5, and the
    # one state of the one-state arms
    env = dict(_config_agents())[name]
    agent = env.agents[0]
    arms = [gittins.compile_reward_arm(agent, agent.value.b, env.delta)]
    theta_bar = agent.distribution.theta_bar
    for report in (0.5 * theta_bar, 0.8 * theta_bar, theta_bar):
        tr = transform_or_dormant(env, 0, report)
        if tr is not None:
            arms += [gittins.compile_arm(env, 0, tr, theta) for theta in (0.3 * theta_bar, report)]
    sizes = {(arm.n, _assert_start_sweep_equals_full_sweep(arm)) for arm in arms}
    assert len(arms) > 2 and arms[0].graph is agent.graph
    want = {"ar1_additive": (35, 7), "sponsored_search_2": (441, 266), "sponsored_search_4": (36, 25)}
    assert sizes == {want.get(name, (1, 1))}
