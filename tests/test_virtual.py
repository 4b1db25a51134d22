import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import environments as envs
from dynamech import virtual
from dynamech.environments import ArmState, DomainError

from oracles import virtual_value, xi


def _mult_env(dist=None, b=None, c=None, a=None, da=None, delta=0.5, k=1):
    b = np.ones((1, 1)) if b is None else np.asarray(b, dtype=float)
    c = np.zeros(b.shape[1]) if c is None else np.asarray(c, dtype=float)
    val = envs.MultiplicativeValue(a=a or (lambda t: t), da=da or (lambda t: 1.0), b=b, c=c)
    g = np.eye(b.shape[1])
    h = np.eye(b.shape[0])
    return envs.finite_chain(delta, k=k, g=g, h=h, value=val, dist=dist)


def test_inverse_hazard_uniform():
    d = envs.uniform_type(1.0)
    assert virtual.inverse_hazard(d, 0.25) == pytest.approx(0.75)
    assert virtual.inverse_hazard(d, 1.0) == 0.0


def test_inverse_hazard_triangular():
    # F = theta^2, f = 2 theta on [0, 1]; at 0.5: (1 - 0.25) / 1.0
    d = envs.power_type(1.0, p=2.0)
    assert virtual.inverse_hazard(d, 0.5) == pytest.approx(0.75)


def test_inverse_hazard_vanishing_interior_density_rejected():
    d = envs.TypeDistribution(
        cdf=lambda t: min(t, 1.0),
        pdf=lambda t: 0.0 if 0.4 < t < 0.6 else 1.0,
        theta_bar=1.0,
        sample=lambda rng: float(rng.random()),
    )
    with pytest.raises(DomainError):
        virtual.inverse_hazard(d, 0.5)


def test_virtual_value_uniform_is_myerson_transform():
    env = _mult_env()
    assert virtual_value(env, 0, ArmState(0.75, 0, 0)) == pytest.approx(0.5)


def test_virtual_value_additive_shifts_by_b():
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.array([[0.3]]))
    env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    assert virtual_value(env, 0, ArmState(0.6, 0, 0)) == pytest.approx(0.2 + 0.3)


def test_virtual_value_triangular():
    env = _mult_env(dist=envs.power_type(1.0, p=2.0))
    assert virtual_value(env, 0, ArmState(0.5, 0, 0)) == pytest.approx(-0.25)


def test_affine_multiplicative_uniform():
    # alpha = 1 - [(1-F)/f] * A'/A = 1 - 0.25 * (1/0.75) = 2/3, which is
    # the unique slope consistent with psi(0.75) = 2*0.75 - 1 = 0.5
    env = _mult_env()
    tr = virtual.affine_coefficients(env, 0, 0.75)
    assert tr.alpha == pytest.approx(2.0 / 3.0)
    assert np.allclose(tr.beta, 0.0)
    s = ArmState(0.75, 0, 0)
    assert xi(tr, env, 0, s) == pytest.approx(virtual_value(env, 0, s), abs=1e-12)


def test_affine_additive_is_unit_slope():
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 1)))
    env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    tr = virtual.affine_coefficients(env, 0, 0.4)
    assert tr.alpha == 1.0
    assert tr.beta[0] == pytest.approx(-0.6)


def test_affine_multiplicative_with_cost_table():
    env = _mult_env(c=[0.3])
    tr = virtual.affine_coefficients(env, 0, 0.5)
    assert tr.alpha == pytest.approx(0.0, abs=1e-15)
    assert tr.beta[0] == pytest.approx(-0.3)
    # alpha <= 0 means dormant
    assert virtual.transform_or_dormant(env, 0, 0.5) is None
    assert virtual.transform_or_dormant(env, 0, 0.8) is not None


def test_affine_rejects_zero_a():
    env = _mult_env()
    with pytest.raises(DomainError):
        virtual.affine_coefficients(env, 0, 0.0)


def test_xi_identity_and_degenerate():
    env = _mult_env()
    ident = virtual.VirtualTransform(alpha=1.0, beta=np.zeros(1), pegged_report=1.0)
    s = ArmState(0.6, 0, 0)
    assert xi(ident, env, 0, s) == envs.value(env, 0, s)
    scaled = virtual.VirtualTransform(alpha=2.0 / 3.0, beta=np.zeros(1), pegged_report=0.75)
    assert xi(scaled, env, 0, ArmState(0.75, 0, 0)) == pytest.approx(0.5)
    degenerate = virtual.VirtualTransform(alpha=0.0, beta=np.array([-0.3]), pegged_report=0.5)
    assert xi(degenerate, env, 0, s) == pytest.approx(-0.3)


def _consistency_max_gap(env, agent_id, grid=64):
    agent = env.agents[agent_id]
    tb = agent.distribution.theta_bar
    worst = 0.0
    for theta in np.linspace(tb / grid, tb, grid):
        tr = virtual.affine_coefficients(env, agent_id, float(theta))
        for e in range(agent.private.n):
            for rho in range(agent.public.n):
                s = ArmState(float(theta), e, rho)
                got = xi(tr, env, agent_id, s)
                want = virtual_value(env, agent_id, s)
                worst = max(worst, abs(got - want))
    return worst


def test_affine_consistency_sponsored_search():
    env = envs.sponsored_search(k=1, cap=2, delta=0.8)
    assert _consistency_max_gap(env, 0) <= 1e-10


def test_affine_consistency_additive_with_experience_table():
    val = envs.AdditiveValue(
        a=lambda t, r: 0.5 * t + 0.1 * r,
        da=lambda t, r: 0.5,
        b=np.array([[0.1, 0.3], [0.2, 0.6]]),
    )
    g = np.array([[0.7, 0.3], [0.4, 0.6]])
    h = np.array([[0.5, 0.5], [0.2, 0.8]])
    env = envs.finite_chain(0.5, g=g, h=h, value=val)
    assert _consistency_max_gap(env, 0) <= 1e-10


def test_affine_consistency_ar1():
    env = envs.ar1(k=1, coeff=0.5, shock=[[0.2]], delta=0.9, alloc_cap=4, grid_step=0.05)
    assert _consistency_max_gap(env, 0, grid=16) <= 1e-10


def _coefficient_tables(env, agent_id, grid=64):
    tb = env.agents[agent_id].distribution.theta_bar
    alphas, betas = [], []
    for r in np.linspace(tb / grid, tb, grid):
        tr = virtual.affine_coefficients(env, agent_id, float(r))
        alphas.append(tr.alpha)
        betas.append(tr.beta.copy())
    return np.array(alphas), np.array(betas)


def test_monotone_coefficients_sponsored_search():
    env = envs.sponsored_search(k=1, cap=2, delta=0.8)
    alphas, betas = _coefficient_tables(env, 0)
    assert np.all(np.diff(alphas) >= -1e-9)
    assert np.all(np.diff(betas, axis=0) >= -1e-9)


def test_monotone_coefficients_triangular_power_value():
    env = _mult_env(dist=envs.power_type(1.0, 2.0), a=lambda t: t**2, da=lambda t: 2 * t, c=[0.2])
    alphas, betas = _coefficient_tables(env, 0)
    assert np.all(np.diff(alphas) >= -1e-9)
    assert np.all(np.diff(betas, axis=0) >= -1e-9)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.01, 1.0))
def test_additive_alpha_always_exactly_one(r):
    val = envs.AdditiveValue(a=lambda t, rho: t**0.5, da=lambda t, rho: 0.5 * t**-0.5, b=np.zeros((1, 1)))
    env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    assert virtual.affine_coefficients(env, 0, r).alpha == 1.0


def test_dormancy_threshold_uniform_linear():
    env = _mult_env()
    assert virtual.dormancy_threshold(env, 0) == pytest.approx(0.5, abs=1e-9)
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 1)))
    add_env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    assert virtual.dormancy_threshold(add_env, 0) == 0.0


def test_subnormal_report_is_dormant_without_a_warning():
    # A'/A overflows at a subnormal report: alpha = -inf, and beta =
    # (alpha - 1) * C would be nan
    env = envs.sponsored_search(k=2, cap=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert virtual.transform_or_dormant(env, 0, 5e-324) is None
    with pytest.raises(DomainError, match="alpha not finite"):
        virtual.affine_coefficients(env, 0, 5e-324)
