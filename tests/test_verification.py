import json

import numpy as np
import pytest

from dynamech import environments as envs
from dynamech import mechanism as mech
from dynamech import verification as ver
from dynamech.environments import DomainError
from dynamech.rng import substream

from conftest import constant_arm_env
from oracles import alloc_times, exact_dp_policy_value


@pytest.fixture(scope="module")
def convex_a_env():
    """Assumption-violating control: agent 0 has convex additive
    A(theta) = theta^2, making beta decreasing on low reports; agent 1
    is a small well-behaved linear opponent whose pinned index sits
    between agent 0's truthful and down-shaded indices."""
    kernel = envs.PublicKernel(matrix=np.eye(1), labels=("p0",))
    private = envs.PrivateKernel(matrix=np.eye(1).reshape(1, 1, 1), labels=("e0",))
    convex = envs.AdditiveValue(a=lambda t, r: t**2, da=lambda t, r: 2 * t, b=np.zeros((1, 1)))
    linear = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 1)))
    agents = [
        envs.AgentModel(envs.uniform_type(1.0), kernel, private, convex),
        envs.AgentModel(envs.uniform_type(1.0 / 6.0), kernel, private, linear),
    ]
    return envs.make_environment(agents, 0.5)


@pytest.fixture(scope="module")
def decreasing_a_env():
    """Assumption-violating control: value decreasing in theta."""
    val = envs.MultiplicativeValue(
        a=lambda t: 1.5 - t, da=lambda t: -1.0, b=np.ones((1, 1)), c=np.zeros(1)
    )
    return envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


def test_envelope_posted_price_closed_form(posted_price, posted_price_runtime):
    r = ver.audit_envelope(
        posted_price, [0.8], 0, paths=32, fee_paths=32, runtime=posted_price_runtime
    )
    assert r.passed
    assert abs(r.observed) <= 1e-7
    # both sides individually equal 0.6
    data = mech.fee_quadrature(
        posted_price, [0.8], 0, 16, 0, 40, posted_price_runtime
    )
    assert float(np.mean(data.integral)) == pytest.approx(0.6, abs=1e-8)


def test_envelope_zero_and_subthreshold_types(posted_price, posted_price_runtime):
    for theta in (0.0, 0.3):
        r = ver.audit_envelope(
            posted_price, [theta], 0, paths=8, fee_paths=8, runtime=posted_price_runtime
        )
        assert r.passed
        assert r.observed == pytest.approx(0.0, abs=1e-9)


def test_envelope_detects_inconsistent_fee_machinery(monkeypatch):
    # step integrand (constant opponent); a fee machinery biased by 0.01
    # per unit of report disagrees with the exact right side by
    # 0.01 * (0.9 - 0) and must fail (an offset that does not depend on
    # the report cancels between U(theta) and U(0))
    env = constant_arm_env(0.5, k=2)
    rt = mech.MechanismRuntime(env)
    honest = ver.audit_envelope(env, [0.9, 0.8], 0, paths=8, fee_paths=8, runtime=rt)
    assert honest.passed
    fee_paths = ver._FeeCache.fee_paths
    monkeypatch.setattr(
        ver._FeeCache,
        "fee_paths",
        lambda self, i, theta_hat0: fee_paths(self, i, theta_hat0) + 0.01 * theta_hat0[i],
    )
    r = ver.audit_envelope(env, [0.9, 0.8], 0, paths=8, fee_paths=8, runtime=rt)
    assert not r.passed
    assert r.observed == pytest.approx(honest.observed - 0.009, abs=1e-9)


# ---------------------------------------------------------------------------
# Revenue = virtual surplus
# ---------------------------------------------------------------------------


def test_revenue_equals_virtual_surplus_posted_price(posted_price, posted_price_runtime):
    r = ver.audit_revenue_bound(posted_price, episodes=600, runtime=posted_price_runtime)
    assert r.passed
    assert r.std_error > 0.0


def test_revenue_audit_reads_each_value_once(monkeypatch):
    # each agent's value comes from the episode's own round loop and its
    # rent from the walk alone: no one-deviator value run and no price
    # of any win, and the same bits as one-path fee_quadrature calls
    env = envs.sponsored_search(k=2, cap=3, delta=0.8)
    rt = mech.MechanismRuntime(env)
    calls = []
    run, w_minus = mech._Deviator.run, mech.MechanismRuntime.w_minus
    monkeypatch.setattr(mech._Deviator, "run", lambda *a: calls.append("run") or run(*a))
    monkeypatch.setattr(
        mech.MechanismRuntime, "w_minus", lambda *a: calls.append("w_minus") or w_minus(*a)
    )
    episodes, seed = 40, 5
    r = ver.audit_revenue_bound(env, episodes=episodes, seeds=(seed,), runtime=rt)
    assert calls == []
    horizon = mech.tail_horizon(env.delta, env.k, env.v_max, 1e-6)
    diffs, errors = np.zeros(episodes), np.zeros(episodes)
    for s in range(episodes):
        theta = [
            env.agents[i].distribution.sample(substream(seed, "rev-types", s, i))
            for i in range(env.k)
        ]
        transforms = mech._active_transforms(env, rt, theta)
        main = mech._run_rounds(
            env, rt, transforms, theta, [mech.Truthful()] * env.k,
            mech.ExperienceStreams(seed, s, "revenue"), horizon,
            track_prices=False, track_virtual=True,
        )
        rev = 0.0
        for i in transforms:
            data = mech.fee_quadrature(
                env, theta, i, paths=1, seed=seed, horizon=horizon, runtime=rt,
                stream_purpose="revenue", path_offset=s,
            )
            rev += float(data.price_paths()[0])
            errors[s] += float(data.error[0])
        diffs[s] = rev - main.virtual
    assert "run" in calls  # the one-path fee passes do make value runs
    assert (r.observed, r.std_error) == mech._mean_se(diffs)
    assert f"quad_error={float(np.mean(errors)):.3g}" in r.detail


def test_revenue_degenerate_all_virtual_values_nonpositive():
    # the per-display cost exceeds the best virtual value, so the zero
    # arm always wins: no allocations, both sides exactly zero
    val = envs.MultiplicativeValue(
        a=lambda t: t, da=lambda t: 1.0, b=np.full((1, 1), 0.4), c=np.array([0.5])
    )
    env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    r = ver.audit_revenue_bound(env, episodes=50)
    assert r.passed
    assert r.observed == 0.0 and r.std_error == 0.0


# ---------------------------------------------------------------------------
# Incentive compatibility
# ---------------------------------------------------------------------------


def test_ic_posted_price_grid(posted_price, posted_price_runtime):
    r = ver.audit_ic(
        posted_price,
        grid=(0.0, 0.4, 0.55, 0.8, 1.0),
        paths=8,
        fee_paths=8,
        runtime=posted_price_runtime,
    )
    assert r.passed, r.detail
    # over-reporting from below the posted price strictly hurts: the spec's
    # hand check at theta=0.4 with +0.25 shading (pays 1, values 0.8)
    cells = {
        (c["theta"], c["deviation"]): c["diff"] for c in r.cells if c["agent"] == 0
    }
    assert cells[(0.4, "theta_always+0.25")] == pytest.approx(0.2, abs=1e-6)
    assert cells[(0.4, "theta0+0.25")] == pytest.approx(0.2, abs=1e-6)
    # truthful-vs-truthful pairing is exactly zero
    for (theta, name), diff in cells.items():
        if name == "truthful_control":
            assert diff == 0.0


def test_ic_shading_down_above_threshold_is_weakly_worse(posted_price, posted_price_runtime):
    r = ver.audit_ic(
        posted_price, grid=(0.8,), paths=8, fee_paths=8, runtime=posted_price_runtime
    )
    cells = {c["deviation"]: c["diff"] for c in r.cells}
    # report 0.6 still clears the posted threshold: same fee, same rounds
    assert cells["theta0-0.1"] == pytest.approx(0.0, abs=1e-9)
    assert r.passed


def test_ic_detects_profitable_shading_on_convex_control(convex_a_env):
    report = envs.validate_assumptions(convex_a_env)
    assert not report.passed  # the control violates the concavity assumption
    r = ver.audit_ic(
        convex_a_env,
        deviations=[("shade_to_active", mech.MisreportTheta0(-0.4))],
        grid=(0.45,),
        agents=(0,),
        paths=8,
        fee_paths=8,
    )
    assert not r.passed
    assert r.observed < -0.1


# ---------------------------------------------------------------------------
# Individual rationality
# ---------------------------------------------------------------------------


def test_ic_audit_keeps_at_most_the_table_cap_and_the_same_bits(monkeypatch):
    # additive AR(1) arms: every (agent, report, type) key sweeps its own
    # index table and hit columns; an evicted key is rebuilt to the same
    # bits
    env = envs.ar1(2, 0.5, [[0.2]], 0.8, grid_step=0.1, alloc_cap=6)

    def audit(cap):
        monkeypatch.setattr(mech, "_TABLE_KEYS", cap)
        rt = mech.MechanismRuntime(env)
        result = ver.audit_ic(env, grid=[0.55, 0.8], paths=4, fee_paths=2, runtime=rt)
        return json.dumps(result.to_dict()), rt

    uncapped, full = audit(10**9)
    capped, rt = audit(8)
    assert len(full._records) > 8  # the cap evicts
    assert len(rt._records) <= 8
    assert capped == uncapped


def test_ic_audit_refuses_a_strategy_without_a_schedule(posted_price, posted_price_runtime):
    class ReportOnly:
        def report(self, t, theta, e, theta_bar):
            return theta if t == 0 else (theta, e)

    with pytest.raises(TypeError, match="ReportOnly has no report schedule"):
        ver.audit_ic(
            posted_price, deviations=[("report_only", ReportOnly())], grid=[0.8], paths=4,
            fee_paths=2, runtime=posted_price_runtime,
        )


def test_ir_posted_price(posted_price, posted_price_runtime):
    r = ver.audit_ir(
        posted_price,
        grid=(0.0, 0.3, 0.5, 0.8, 1.0),
        paths=8,
        fee_paths=8,
        runtime=posted_price_runtime,
    )
    assert r.passed
    by_theta = {c["theta"]: c["utility"] for c in r.cells}
    assert by_theta[0.0] == 0.0
    assert by_theta[0.8] == pytest.approx(0.6, abs=1e-6)
    assert by_theta[0.5] == pytest.approx(0.0, abs=1e-6)


def test_ir_fails_on_decreasing_value_control(decreasing_a_env):
    report = envs.validate_assumptions(decreasing_a_env)
    assert not report.passed
    r = ver.audit_ir(decreasing_a_env, grid=(0.5, 1.0), paths=8, fee_paths=8)
    assert not r.passed
    assert r.observed < -0.5  # U(theta) = -2 theta here


# ---------------------------------------------------------------------------
# Monotone allocation
# ---------------------------------------------------------------------------


def test_monotone_allocation_passes_builtins(posted_price, sponsored_small, sponsored_small_runtime):
    assert ver.audit_monotone_allocation(posted_price).passed
    assert ver.audit_monotone_allocation(
        sponsored_small, runtime=sponsored_small_runtime
    ).passed


def test_monotone_allocation_fails_on_convex_control(convex_a_env):
    r = ver.audit_monotone_allocation(convex_a_env)
    assert not r.passed
    assert r.observed > 1e-3


# ---------------------------------------------------------------------------
# Allocation-time coupling
# ---------------------------------------------------------------------------


def test_coupling_holds_sponsored_search(sponsored_small, sponsored_small_runtime):
    r = ver.audit_allocation_time_coupling(
        sponsored_small,
        [0.9, 0.65],
        [0.7, 0.65],
        0,
        seeds=tuple(range(40)),
        runtime=sponsored_small_runtime,
    )
    assert r.passed
    assert r.observed == 0.0


def test_coupling_equal_reports_identical_times(sponsored_small, sponsored_small_runtime):
    env = sponsored_small
    rt = sponsored_small_runtime
    from dynamech.mechanism import Truthful, _active_transforms, _run_rounds
    from dynamech.rng import ExperienceStreams

    transforms = _active_transforms(env, rt, [0.9, 0.65])
    a = _run_rounds(
        env, rt, transforms, [0.9, 0.65], [Truthful()] * 2,
        ExperienceStreams(3, 0, "coupling"), 30, track_prices=False,
    )
    b = _run_rounds(
        env, rt, transforms, [0.9, 0.65], [Truthful()] * 2,
        ExperienceStreams(3, 0, "coupling"), 30, track_prices=False,
    )
    assert alloc_times(a, 0) == alloc_times(b, 0)
    assert a.winners == b.winners


def test_coupling_posted_price_threshold(posted_price):
    r = ver.audit_allocation_time_coupling(posted_price, [0.8], [0.3], 0, seeds=(0, 1, 2))
    assert r.passed  # above threshold allocates at t=1, below never


def test_coupling_fails_on_convex_control(convex_a_env):
    # shading the period-0 report down RAISES agent 0's index here
    # (decreasing beta), so its allocations arrive strictly earlier
    r = ver.audit_allocation_time_coupling(
        convex_a_env, [0.45, 0.108], [0.05, 0.108], 0, seeds=tuple(range(5))
    )
    assert not r.passed


def test_coupling_rejects_mismatched_vectors(sponsored_small):
    with pytest.raises(DomainError):
        ver.audit_allocation_time_coupling(sponsored_small, [0.9, 0.6], [0.8, 0.5], 0)


# ---------------------------------------------------------------------------
# Exact DP oracle
# ---------------------------------------------------------------------------


def test_exact_dp_zero_policy():
    env = constant_arm_env(0.5, k=2)
    pv = exact_dp_policy_value(env, [1.0, 1.0], [0.6, 0.2], [0, 0], [0, 0], "zero")
    assert pv.policy_value == 0.0
    assert pv.optimal_value == pytest.approx(1.2, abs=1e-9)


def test_exact_dp_constant_arms_best_policy():
    env = constant_arm_env(0.5, k=2)

    def always_best(comp):
        return 1  # agent 0 holds the higher constant reward

    pv = exact_dp_policy_value(env, [1.0, 1.0], [0.6, 0.2], [0, 0], [0, 0], always_best)
    assert pv.policy_value == pytest.approx(1.2, abs=1e-9)


def test_exact_dp_index_policy_matches_optimum(sponsored_small, sponsored_small_runtime):
    pv = exact_dp_policy_value(
        sponsored_small,
        [0.9, 0.7],
        [0.9, 0.7],
        [0, 0],
        [0, 0],
        "index",
        runtime=sponsored_small_runtime,
    )
    assert pv.policy_value == pytest.approx(pv.optimal_value, abs=1e-8)


def test_exact_dp_refuses_oversized(sponsored2, sponsored2_runtime):
    with pytest.raises(DomainError):
        exact_dp_policy_value(
            sponsored2, [0.9, 0.7], [0.9, 0.7], [0, 0], [0, 0], "zero",
            state_cap=100, runtime=sponsored2_runtime,
        )


def test_theta_grid_contains_endpoints_and_threshold(posted_price):
    grid = ver.theta_grid(posted_price, 0)
    assert len(grid) == 9
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert any(abs(g - 0.5) < 0.06 for g in grid)
