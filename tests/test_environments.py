import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import environments as envs
from dynamech.environments import ArmState, DomainError
from dynamech.rng import substream

from oracles import check_derivative, step_experience, value_theta_derivative


def test_value_multiplicative_direct_product():
    val = envs.MultiplicativeValue(
        a=lambda t: t, da=lambda t: 1.0, b=np.array([[0.4]]), c=np.zeros(1)
    )
    env = envs.finite_chain(0.9, g=[[1.0]], h=[[1.0]], value=val)
    assert envs.value(env, 0, ArmState(0.5, 0, 0)) == pytest.approx(0.2, abs=1e-15)
    assert value_theta_derivative(env, 0, ArmState(0.7, 0, 0)) == pytest.approx(0.4)


def test_value_additive_identity():
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 1)))
    env = envs.finite_chain(0.9, g=[[1.0]], h=[[1.0]], value=val)
    assert envs.value(env, 0, ArmState(0.3, 0, 0)) == pytest.approx(0.3)
    assert value_theta_derivative(env, 0, ArmState(0.3, 0, 0)) == 1.0


def test_sponsored_search_value_is_product_of_posterior_means():
    # theta=2, purchase belief at mean 1/4 (two misses from a flat prior),
    # click belief at the flat prior mean 1/2
    env = envs.sponsored_search(k=1, theta_bar=2.0, cap=4, delta=0.8)
    agent = env.agents[0]
    e_idx = agent.private.labels.index("b1.3")
    rho_idx = agent.public.labels.index("b1.1")
    got = envs.value(env, 0, ArmState(2.0, e_idx, rho_idx))
    assert got == pytest.approx(0.25, abs=1e-12)
    # Monte Carlo: revenue per display = theta * click * purchase frequencies
    gen = substream(0, "mc-check")
    n = 200_000
    clicks = gen.random(n) < 0.5
    buys = gen.random(n) < 0.25
    mc = float(np.mean(2.0 * clicks * (clicks & buys)))
    assert got == pytest.approx(mc, abs=4 * 2.0 * 0.5 / np.sqrt(n) + 0.01)


def test_derivative_matches_central_difference_sqrt():
    val = envs.MultiplicativeValue(
        a=lambda t: t**0.5,
        da=lambda t: 0.5 * t**-0.5,
        b=np.ones((1, 1)),
        c=np.zeros(1),
    )
    env = envs.finite_chain(0.9, g=[[1.0]], h=[[1.0]], value=val)
    state = ArmState(0.25, 0, 0)
    h = 1e-6
    fd = (
        envs.value(env, 0, ArmState(0.25 + h, 0, 0))
        - envs.value(env, 0, ArmState(0.25 - h, 0, 0))
    ) / (2 * h)
    analytic = value_theta_derivative(env, 0, state)
    assert analytic == pytest.approx(1.0, abs=1e-9)
    assert abs(fd - analytic) < 1e-6
    assert check_derivative(env, 0, [state]) < 1e-6


def test_unknown_state_rejected():
    env = envs.sponsored_search(k=1, cap=2, delta=0.8)
    with pytest.raises(DomainError):
        envs.value(env, 0, ArmState(0.5, 99, 0))
    with pytest.raises(DomainError):
        envs.value(env, 0, ArmState(0.5, 0, -1))


def test_step_experience_deterministic_and_identity_kernels():
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((2, 2)))
    g = np.array([[0.0, 1.0], [0.0, 1.0]])  # always move to state 1
    h = np.array([[0.0, 1.0], [0.0, 1.0]])
    env = envs.finite_chain(0.9, g=g, h=h, value=val)
    out = step_experience(env, 0, ArmState(0.5, 0, 0), substream(0, "step"))
    assert (out.e, out.rho) == (1, 1)
    env_id = envs.finite_chain(0.9, g=np.eye(2), h=np.eye(2), value=val)
    out = step_experience(env_id, 0, ArmState(0.5, 1, 0), substream(0, "step"))
    assert (out.e, out.rho, out.theta) == (1, 0, 0.5)


class _StubDraws:
    def __init__(self, u_pub, u_priv):
        self.pair = (u_pub, u_priv)

    def draw_pair(self, agent_id):
        return self.pair


def test_draw_past_a_rows_rounded_total_lands_on_a_state_with_mass():
    # this private row's cumulative sum ends an ulp short of 1, at
    # 1 - 2**-53, and its last entry is 0; the largest uniform a
    # generator returns is exactly that total
    from dynamech import mechanism

    env = envs.sponsored_search(k=1, cap=5, delta=0.8)
    agent = env.agents[0]
    row = agent.private.matrix[17, 3]
    assert np.cumsum(row)[-1] == 1.0 - 2.0**-53 and row[-1] == 0.0
    u_priv = 1.0 - 2.0**-53
    stepped = step_experience(env, 0, ArmState(0.5, 3, 17), _StubDraws(0.5, u_priv))
    assert 0 <= stepped.rho < agent.public.n and agent.public.matrix[17, stepped.rho] > 0.0
    assert 0 <= stepped.e < agent.private.n and row[stepped.e] > 0.0
    step_experience(env, 0, stepped, _StubDraws(0.5, 0.5))  # the state is usable
    # the episode engine moves agents through the same sampler
    assert mechanism.sample_transition is envs.sample_transition
    assert envs.sample_transition(agent, 3, 17, 0.5, u_priv) == (stepped.e, stepped.rho)


def test_beta_bernoulli_click_update_frequency():
    # from a flat click prior, one display updates the click belief to
    # b2.1 (click) or b1.2 (miss), each with probability 1/2
    env = envs.sponsored_search(k=1, cap=3, delta=0.8)
    agent = env.agents[0]
    start = ArmState(1.0, 0, 0)
    gen = substream(42, "conjugate")
    n = 100_000
    ups = 0
    for _ in range(n):
        nxt = step_experience(env, 0, start, gen)
        ups += agent.public.labels[nxt.rho] == "b2.1"
    freq = ups / n
    assert freq == pytest.approx(0.5, abs=4 * 0.5 / np.sqrt(n))


def test_kernel_rows_must_be_stochastic():
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 2)))
    with pytest.raises(DomainError):
        envs.finite_chain(0.9, g=[[0.5, 0.4], [0.0, 1.0]], h=[[1.0]], value=val)


@settings(max_examples=25, deadline=None)
@given(theta_a=st.floats(0.05, 0.95), theta_b=st.floats(0.05, 0.95), seed=st.integers(0, 500))
def test_separability_kernel_samples_ignore_theta(theta_a, theta_b, seed):
    env = envs.sponsored_search(k=2, cap=3, delta=0.8)
    start = [ArmState(theta_a, 0, 0), ArmState(theta_b, 0, 0)]
    swapped = [ArmState(theta_b, 0, 0), ArmState(theta_a, 0, 0)]
    for i in range(2):
        a = step_experience(env, i, start[i], substream(seed, "sep", i))
        b = step_experience(env, i, swapped[i], substream(seed, "sep", i))
        assert (a.e, a.rho) == (b.e, b.rho)


def test_validate_uniform_passes_and_capped_exponential_fails():
    env = envs.sponsored_search(k=1, cap=2, delta=0.8)
    report = envs.validate_assumptions(env)
    assert report.passed, report.failures()

    bad = envs.finite_chain(
        0.5,
        g=[[1.0]],
        h=[[1.0]],
        value=envs.MultiplicativeValue(
            a=lambda t: t, da=lambda t: 1.0, b=np.ones((1, 1)), c=np.zeros(1)
        ),
        dist=envs.capped_exponential_type(rate=1.0, theta_bar=1.0),
    )
    report = envs.validate_assumptions(bad)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert "agent0.monotone_hazard" in names


def test_validate_log_concavity_of_power_value():
    # A = theta^2: log A = 2 log theta has negative second derivative
    val = envs.MultiplicativeValue(
        a=lambda t: t**2, da=lambda t: 2 * t, b=np.ones((1, 1)), c=np.zeros(1)
    )
    env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    report = envs.validate_assumptions(env)
    assert report.passed, report.failures()


def test_validate_rejects_convex_additive_a():
    val = envs.AdditiveValue(a=lambda t, r: t**2, da=lambda t, r: 2 * t, b=np.zeros((1, 1)))
    env = envs.finite_chain(0.5, g=[[1.0]], h=[[1.0]], value=val)
    report = envs.validate_assumptions(env)
    assert not report.passed
    assert any("value_shape" in c.name for c in report.failures())


def test_sponsored_search_state_count():
    env = envs.sponsored_search(k=1, cap=5, delta=0.8)
    assert env.agents[0].private.n == 21
    assert env.agents[0].public.n == 21
    # best reachable belief product: both posteriors at (1+5)/(2+5)
    assert env.v_max == pytest.approx((6 / 7) ** 2)


def test_ar1_deterministic_shock_recursion():
    # single base state, shock c: after n allocations the value is
    # a^n * theta + c * (1 - a^n) / (1 - a)
    a, c = 0.5, 0.2
    env = envs.ar1(k=1, coeff=a, shock=[[c]], delta=0.9, grid_step=0.0125, alloc_cap=10)
    state = ArmState(0.8, 0, 0)
    gen = substream(0, "ar1")
    for n in range(5):
        expect = a**n * 0.8 + c * (1 - a**n) / (1 - a)
        assert envs.value(env, 0, state) == pytest.approx(expect, abs=1e-9)
        assert value_theta_derivative(env, 0, state) == pytest.approx(a**n)
        state = step_experience(env, 0, state, gen)


def test_ar1_frozen_when_idle():
    env = envs.ar1(k=1, coeff=0.5, shock=[[0.2]], delta=0.9)
    s = ArmState(0.6, 0, 0)
    # no allocation -> no state change by construction; the value depends
    # only on the stored state
    assert envs.value(env, 0, s) == envs.value(env, 0, ArmState(0.6, s.e, s.rho))


@pytest.mark.parametrize(
    "dist",
    [
        envs.uniform_type(),
        envs.uniform_type(2.5),
        envs.power_type(),
        envs.power_type(2.0, 3.0),
        envs.capped_exponential_type(),
        envs.capped_exponential_type(3.0, 2.0),
    ],
    ids=lambda d: d.name,
)
@pytest.mark.parametrize("grid", [16, 64])
def test_density_mass_simpson_matches_scipy(dist, grid):
    from scipy.integrate import simpson

    # the samples _check_distribution integrates
    fine = np.linspace(0.0, dist.theta_bar, 8 * grid + 1)
    dens = np.array([dist.pdf(float(t)) for t in fine])
    assert abs(envs._simpson(dens, fine) - float(simpson(dens, x=fine))) <= 1e-14


def _brute_force_absorbing(agent: envs.AgentModel) -> list[bool]:
    """Per flat state, whether every draw maps it back to itself: the
    draws are 0, 0.5, the largest float below 1 and every breakpoint of
    the state's two sampling rows in [0, 1), so that each constant piece
    of the inverse CDF on [0, 1) is tried."""
    n_rho = agent.public.n
    out = []
    for s in range(agent.n_states):
        e, rho = divmod(s, n_rho)

        def draws(row):
            return {0.0, 0.5, float(np.nextafter(1.0, 0.0))} | {float(c) for c in row if 0.0 <= c < 1.0}

        out.append(all(
            envs.sample_transition(agent, e, rho, u, v) == (e, rho)
            for u in draws(agent.public.cumulative[rho])
            for v in draws(agent.private.cumulative[rho, e])
        ))
    return out


def _one_agent(g, h) -> envs.AgentModel:
    n_rho, n_e = len(g), np.shape(h)[-1]
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((n_e, n_rho)))
    return envs.finite_chain(0.9, g=g, h=h, value=val).agents[0]


@pytest.mark.parametrize("cap,count", [(1, 4), (2, 9), (5, 36)])
def test_absorbing_states_of_sponsored_search_equal_brute_force(cap, count):
    agent = envs.sponsored_search(k=1, cap=cap, delta=0.8).agents[0]
    assert agent.absorbing == _brute_force_absorbing(agent)
    assert sum(agent.absorbing) == count  # both beliefs frozen at the cap


def test_absorbing_reads_the_sampling_rows_not_the_diagonal():
    tiny = 1e-300
    # public row 1 keeps 1e-300 on state 0, which a draw of 0 reaches, so
    # it moves although its diagonal entry reads 1.0; public row 0 puts its
    # 1e-300 after the diagonal, past every draw below 1, so it stays
    agent = _one_agent([[1.0, tiny], [tiny, 1.0]], [[1.0]])
    assert agent.public.matrix[1, 1] == 1.0
    assert agent.absorbing == _brute_force_absorbing(agent) == [True, False]
    # a row whose diagonal mass stops one ulp short of 1 moves at the
    # largest draw; a zero-mass tail after the diagonal does not matter
    agent = _one_agent([[1.0]], [[1.0 - 2.0**-53, 2.0**-53, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
    assert agent.absorbing == _brute_force_absorbing(agent) == [False, True, False]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_absorbing_states_of_random_chains_equal_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_rho, n_e = int(rng.integers(1, 4)), int(rng.integers(1, 4))

    def rows(shape):
        x = rng.random(shape) * (rng.random(shape) > 0.4)
        x[..., 0] += x.sum(axis=-1) == 0.0
        x /= x.sum(axis=-1, keepdims=True)
        for idx in np.ndindex(shape[:-1]):  # some rows stay put
            if rng.random() < 0.5:
                x[idx] = np.eye(shape[-1])[idx[-1]]
        return x

    agent = _one_agent(rows((n_rho, n_rho)), rows((n_rho, n_e, n_e)))
    assert agent.absorbing == _brute_force_absorbing(agent)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
def test_sample_transition_equals_searchsorted_on_the_sampling_rows(seed, extra):
    # zero-mass tails make +inf tails; every row entry in [0, 1) is drawn
    # exactly, with its two float neighbours, so each tie is tried
    rng = np.random.default_rng(seed)
    n_rho, n_e = int(rng.integers(1, 5)), int(rng.integers(1, 5))

    def rows(shape):
        x = rng.random(shape) * (rng.random(shape) > 0.4)
        x[..., 0] += x.sum(axis=-1) == 0.0
        return x / x.sum(axis=-1, keepdims=True)

    agent = _one_agent(rows((n_rho, n_rho)), rows((n_rho, n_e, n_e)))

    def draws(row):
        out = {0.0, float(np.nextafter(1.0, 0.0)), *extra}
        for c in row[np.isfinite(row)].tolist():
            out |= {c, float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))}
        return sorted(u for u in out if 0.0 <= u < 1.0)

    for e in range(n_e):
        for rho in range(n_rho):
            pub, priv = agent.public.cumulative[rho], agent.private.cumulative[rho, e]
            for u in draws(pub):
                for v in draws(priv):
                    want = (int(np.searchsorted(priv, v, side="right")), int(np.searchsorted(pub, u, side="right")))
                    assert envs.sample_transition(agent, e, rho, u, v) == want
