"""The trajectory-merge episode engine, the one-deviator merge and the
fee walk against plain per-round references (``engine_reference``), and
the runtime's bounded trajectory cache with the levels it carries."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import environments as envs
from dynamech import mechanism as mech
from dynamech.gittins import tail_horizon
from dynamech.rng import ExperienceStreams

import engine_reference as ref


def _random_chain(seed: int, k: int, additive: bool) -> envs.Environment:
    """k copies of a random arm of at most 3 x 3 states, rows with zeros."""
    rng = np.random.default_rng(seed)
    n_rho, n_e = int(rng.integers(1, 4)), int(rng.integers(1, 4))

    def rows(shape):
        x = rng.random(shape) * (rng.random(shape) > 0.3)
        x[..., 0] += x.sum(axis=-1) == 0.0
        return x / x.sum(axis=-1, keepdims=True)

    g, h = rows((n_rho, n_rho)), rows((n_rho, n_e, n_e))
    b = rng.random((n_e, n_rho))
    if additive:
        val = envs.AdditiveValue(a=lambda t, r: t * (1.0 + r), da=lambda t, r: 1.0 + r, b=0.5 * b)
    else:
        c = np.zeros(n_rho) if rng.random() < 0.5 else 0.2 * rng.random(n_rho)
        val = envs.MultiplicativeValue(a=lambda t: t, da=lambda t: 1.0, b=b, c=c)
    return envs.finite_chain(0.8, k=k, g=g, h=h, value=val)


def _strategy(kind: int, offset: float, round_t: int, n_e: int):
    return (
        mech.Truthful(),
        mech.MisreportThetaAlways(offset),
        mech.CorrectingDeviation(offset, round_t),
        mech.MisreportExperience(round_t, (round_t * 7) % n_e),
        mech.MisreportTheta0(offset),
    )[kind]


def _both_engines(env, runtime, theta, strategies, streams, horizon, monitored):
    theta_hat0 = [
        s.report(0, theta[i], 0, env.agents[i].distribution.theta_bar).theta_hat
        for i, s in enumerate(strategies)
    ]
    transforms = mech._active_transforms(env, runtime, theta_hat0)
    kw = dict(monitored=monitored, record_rounds=True, track_virtual=True)
    got = mech._run_rounds(env, runtime, transforms, theta, strategies, streams, horizon, **kw)
    want = ref.reference_run_rounds(
        env, runtime, transforms, theta, strategies, streams.replay(), horizon, **kw
    )
    return got, want


def _assert_same(got, want):
    assert got.winners == want.winners
    assert got.values == want.values
    assert got.prices == want.prices
    assert got.virtual == want.virtual
    assert got.rounds == want.rounds


@settings(max_examples=60, deadline=None)
@given(
    world=st.sampled_from(["sponsored", "multiplicative", "additive"]),
    chain_seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    kinds=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    offset=st.sampled_from([-0.25, -0.05, 0.1]),
    round_t=st.integers(1, 4),
    thetas=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    monitored=st.booleans(),
    path=st.integers(0, 3),
)
def test_merge_engine_matches_per_round_reference(
    sponsored_small, sponsored_small_runtime, world, chain_seed, k, kinds, offset, round_t,
    thetas, monitored, path,
):
    if world == "sponsored":
        env, rt, k = sponsored_small, sponsored_small_runtime, 2
    else:
        env = _random_chain(chain_seed, k, world == "additive")
        rt = mech.MechanismRuntime(env)
    n_e = env.agents[0].private.n
    theta = [float(x) for x in thetas[:k]]
    horizon = 30
    truthful = [mech.Truthful()] * k
    streams = ExperienceStreams(chain_seed, path, "engine-ref")
    # the truthful run first, then a deviation on the same (now cached) trajectories
    for strategies in (truthful, [_strategy(kind, offset, round_t, n_e) for kind in kinds[:k]]):
        got, want = _both_engines(env, rt, theta, strategies, streams, horizon, monitored)
        _assert_same(got, want)


class _ScriptedStreams:
    """Fixed draw pairs per agent, at a stream address of their own."""

    def __init__(self, draws, path_id=0):
        self.draws = draws
        self.master_seed, self.path_id, self.purpose = 0, path_id, "scripted"
        self._used = {}

    def replay(self):
        return _ScriptedStreams(self.draws, self.path_id)

    def draw_pair(self, agent_id):
        n = self._used.get(agent_id, 0)
        self._used[agent_id] = n + 1
        return self.draws[agent_id][n]


def _draws_to(agent, target):
    """Draw pairs that walk the agent from (e, rho) = (0, 0) to ``target``
    by moves of positive probability (breadth first)."""

    def mid(row, j):
        cum = np.cumsum(row)
        return 0.5 * ((cum[j - 1] if j else 0.0) + cum[j])

    g, h = agent.public.matrix, agent.private.matrix
    back = {(0, 0): None}
    queue = deque([(0, 0)])
    while queue:
        e, rho = queue.popleft()
        for rho2 in np.flatnonzero(g[rho]):
            for e2 in np.flatnonzero(h[rho, e]):
                nxt = (int(e2), int(rho2))
                if nxt not in back:
                    back[nxt] = ((e, rho), (mid(g[rho], rho2), mid(h[rho, e], e2)))
                    queue.append(nxt)
    draws, node = [], target
    while back[node] is not None:
        node, pair = back[node]
        draws.append(pair)
    return draws[::-1]


@pytest.mark.parametrize("kind", range(4))
@pytest.mark.parametrize("monitored", [False, True])
def test_merge_engine_matches_reference_past_a_rows_rounded_total(kind, monitored):
    # private row (rho, e) = (17, 3) of the cap-5 arm sums to 1 - 2**-53
    # and ends in a 0 entry; the scripted path reaches it and then draws
    # exactly that total
    env = envs.sponsored_search(k=1, cap=5, delta=0.8)
    agent = env.agents[0]
    assert np.cumsum(agent.private.matrix[17, 3])[-1] == 1.0 - 2.0**-53
    path = _draws_to(agent, (3, 17))
    draws = path + [(0.5, 1.0 - 2.0**-53)] + [(0.5, 0.5)] * 4
    rt = mech.MechanismRuntime(env)
    streams = _ScriptedStreams({0: draws})
    strategies = [_strategy(kind, -0.05, 2, agent.private.n)]
    got, want = _both_engines(env, rt, [0.9], strategies, streams, len(draws), monitored)
    _assert_same(got, want)
    assert got.winners == [1] * len(draws)
    n_rho = agent.public.n
    crossed = rt.trajectories(streams).states[0][len(path) + 1]
    assert agent.private.matrix[17, 3, crossed // n_rho] > 0.0


@pytest.mark.parametrize("theta", [[0.9, 0.7], [0.75, 0.95]])
def test_scale_walk_matches_replay_oracle(sponsored2, sponsored2_runtime, theta):
    env, rt = sponsored2, sponsored2_runtime
    horizon = tail_horizon(env.delta, env.k, env.v_max)
    for i in range(env.k):
        data = mech.fee_quadrature(env, theta, i, paths=8, seed=4, horizon=horizon, runtime=rt)
        oracle = ref.replay_fee_walk(env, theta, i, 8, 4, horizon, rt)
        got = list(zip(data.integral.tolist(), data.error.tolist(), data.pieces.tolist()))
        assert got == oracle
    assert max(p for _, _, p in oracle) > 2


@pytest.mark.parametrize("theta", [[0.85, 0.7], [0.7, 0.7]])  # equal reports tie at z = report
def test_bisect_walk_matches_replay_oracle(theta):
    env = _random_chain(11, 2, additive=True)
    rt = mech.MechanismRuntime(env)
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-3)
    pieces = []
    for i in range(env.k):
        data = mech.fee_quadrature(env, theta, i, paths=4, seed=2, horizon=horizon, runtime=rt)
        assert rt._homogeneous_scale(i, rt.transform(i, theta[i]), theta[i]) is None
        oracle = ref.replay_fee_walk(env, theta, i, 4, 2, horizon, rt)
        got = list(zip(data.integral.tolist(), data.error.tolist(), data.pieces.tolist()))
        assert got == oracle
        pieces += data.pieces.tolist()
    if theta[0] != theta[1]:
        assert max(pieces) > 2  # the walk found a breakpoint


@settings(max_examples=40, deadline=None)
@given(
    chain_seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    thetas=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    path=st.integers(0, 3),
)
def test_table_walk_agrees_with_bisection_oracle(chain_seed, k, thetas, path):
    # breakpoints by Brent's steps on the margins against 40 halvings
    # with a merge each: the integrals differ by at most the sum of the
    # two walks' reported errors
    env = _random_chain(chain_seed, k, additive=True)
    rt = mech.MechanismRuntime(env)
    theta = [float(x) for x in thetas[:k]]
    transforms = mech._active_transforms(env, rt, theta)
    streams = ExperienceStreams(chain_seed, path, "bisect-ref")
    for i in transforms:
        args = (env, rt, transforms, theta, i, rt.threshold(i), 30)
        got, err, _ = mech._RentWalk(*args).integrate(streams)
        want, want_err, _ = ref.BisectRentWalk(*args).integrate(streams)
        assert abs(got - want) <= err + want_err


@pytest.mark.parametrize("raised", ["every state", "states it never wins at"])
def test_table_walk_fails_loudly_on_a_table_that_rises_as_z_falls(monkeypatch, raised):
    # below the report the table gains 10 on the raised states, so lower
    # z win rounds lost at the report.  Raised everywhere, the margin
    # stays positive down to the threshold, whose check merge gains
    # rounds; raised only where agent 0 never wins, the margin is the
    # true one and the check merge at the bracket's top gains rounds
    env = _random_chain(27, 2, additive=True)
    rt = mech.MechanismRuntime(env)
    theta = [0.7, 0.8]
    args = (env, rt, mech._active_transforms(env, rt, theta), theta, 0, rt.threshold(0), 30)
    probe = mech._RentWalk(*args)
    streams = ExperienceStreams(2, 1, "fee")
    paths = rt.trajectories(streams)
    top = probe._at(probe.hi, paths, paths.levels(probe.opponents))
    assert top.times and probe._margin(top, probe.lo) < 0.0  # a breakpoint lies below the report
    mask = np.ones(env.agents[0].n_states)
    if raised != "every state":
        mask[top.states] = 0.0
    build = mech.MechanismRuntime.build_table
    monkeypatch.setattr(
        mech.MechanismRuntime, "build_table",
        lambda self, j, tr, z: build(self, j, tr, z) + 10.0 * (z < probe.hi) * mask,
    )
    walk = mech._RentWalk(*args)  # no tables cached before the patch
    check = "the threshold" if raised == "every state" else "the bracket's top"
    with pytest.raises(RuntimeError, match="does not reproduce") as failure:
        walk.integrate(streams)
    z = float(str(failure.value).split("z=")[1].split(" ")[0])
    assert (z == walk.lo) == (check == "the threshold"), check


def test_trajectory_cache_stays_within_its_cap(sponsored_small):
    env = sponsored_small
    cap = mech._TRAJECTORY_PATHS
    theta = [0.9, 0.7]
    horizon = 20
    truthful = [mech.Truthful()] * 2

    def run(rt, j):
        transforms = mech._active_transforms(env, rt, theta)
        res = mech._run_rounds(
            env, rt, transforms, theta, truthful, ExperienceStreams(7, j, "bounded"), horizon
        )
        return res.winners, res.values, res.prices

    rt = mech.MechanismRuntime(env)
    filled = {}
    for j in range(cap + 40):
        filled[j] = run(rt, j)
        assert len(rt._paths) <= cap
    assert len(rt._paths) == cap
    assert (7, "bounded", 0) not in rt._paths  # the least recently used went first
    fresh = mech.MechanismRuntime(env)
    for j in (0, 1, cap // 2, cap + 39):
        assert run(fresh, j) == filled[j] == run(rt, j)


# ---------------------------------------------------------------------------
# One deviator against truthful others
# ---------------------------------------------------------------------------


def _transforms(env, runtime, theta, i, strategy):
    theta_hat0 = list(theta)
    theta_hat0[i] = strategy.report(0, theta[i], 0, env.agents[i].distribution.theta_bar).theta_hat
    return mech._active_transforms(env, runtime, theta_hat0)


def _deviator_and_reference(env, runtime, theta, i, strategy, streams, horizon):
    """Agent i's (value, price, win times) from the deviator merge and from
    the per-round reference with every other agent truthful."""
    transforms = _transforms(env, runtime, theta, i, strategy)
    got = mech._Deviator(env, runtime, transforms, theta, i, strategy, horizon).run(streams)
    strategies = [mech.Truthful()] * env.k
    strategies[i] = strategy
    want = ref.reference_run_rounds(
        env, runtime, transforms, theta, strategies, streams.replay(), horizon
    )
    times = [t for t, w in enumerate(want.winners, 1) if w == i + 1]
    return got, (want.values[i], want.prices[i], times), want.winners


def _assert_run(got, want):
    assert got.value == want[0]
    assert got.price == want[1]
    assert got.times == want[2]


@settings(max_examples=80, deadline=None)
@given(
    world=st.sampled_from(["sponsored", "multiplicative", "additive"]),
    chain_seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    agent=st.integers(0, 2),
    kind=st.integers(0, 4),
    offset=st.sampled_from([-0.25, -0.05, 0.1]),
    round_t=st.integers(1, 4),
    thetas=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    tie=st.booleans(),
    path=st.integers(0, 3),
)
def test_deviator_matches_per_round_reference(
    sponsored_small, sponsored_small_runtime, world, chain_seed, k, agent, kind, offset, round_t,
    thetas, tie, path,
):
    if world == "sponsored":
        env, rt, k = sponsored_small, sponsored_small_runtime, 2
    else:
        env = _random_chain(chain_seed, k, world == "additive")
        rt = mech.MechanismRuntime(env)
    i = agent % k
    # identical arms at equal types tie at equal states, against lower and higher ids
    theta = [float(thetas[0])] * k if tie else [float(x) for x in thetas[:k]]
    streams = ExperienceStreams(chain_seed, path, "deviator-ref")
    horizon = 30
    # truthful first, then the deviation on the same (now cached) levels
    for strategy in (mech.Truthful(), _strategy(kind, offset, round_t, env.agents[i].private.n)):
        got, want, _ = _deviator_and_reference(env, rt, theta, i, strategy, streams, horizon)
        _assert_run(got, want)


def _posted_copies(k: int, c: float = 0.0) -> envs.Environment:
    val = envs.MultiplicativeValue(a=lambda t: t, da=lambda t: 1.0, b=np.ones((1, 1)), c=np.array([c]))
    return envs.finite_chain(0.5, k=k, g=[[1.0]], h=[[1.0]], value=val)


@pytest.mark.parametrize("i", range(3))
def test_deviator_ties_go_to_the_lower_id(i):
    # three identical one-state arms at one type tie in every round, and
    # allocate gives each round to agent 0
    env = _posted_copies(3)
    rt = mech.MechanismRuntime(env)
    for strategy in (mech.Truthful(), mech.MisreportThetaAlways(0.0)):
        got, want, winners = _deviator_and_reference(
            env, rt, [0.8] * 3, i, strategy, ExperienceStreams(1, 0, "ties"), 12
        )
        assert winners == [1] * 12
        _assert_run(got, want)
        assert got.times == (list(range(1, 13)) if i == 0 else [])


def test_deviator_plays_on_after_a_zero_arm_round_while_strategic():
    # shaded to 0.6 the index alpha(0.6) * 0.6 - c is negative, so the zero
    # arm takes rounds 1 and 2; corrected to 0.95 it is positive
    for k in (1, 2):
        env = _posted_copies(k, c=0.3)
        rt = mech.MechanismRuntime(env)
        theta = [0.95] + [0.1] * (k - 1)  # a second agent is a dormant opponent
        got, want, winners = _deviator_and_reference(
            env, rt, theta, 0, mech.CorrectingDeviation(-0.35, 3), ExperienceStreams(2, 0, "zero"), 8
        )
        assert winners == [0, 0] + [1] * 6
        _assert_run(got, want)


@pytest.mark.parametrize("world", ["sponsored5", "additive"])
def test_fee_value_runs_match_per_round_reference(sponsored2, sponsored2_runtime, world):
    if world == "sponsored5":
        env, rt, theta = sponsored2, sponsored2_runtime, [0.9, 0.7]
    else:
        env = _random_chain(11, 2, additive=True)
        rt = mech.MechanismRuntime(env)
        theta = [0.85, 0.7]
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-3)
    transforms = mech._active_transforms(env, rt, theta)
    for i in range(env.k):
        data = mech.fee_quadrature(env, theta, i, paths=6, seed=3, horizon=horizon, runtime=rt)
        for j in range(6):
            want = ref.reference_run_rounds(
                env, rt, transforms, theta, [mech.Truthful()] * env.k,
                ExperienceStreams(3, j, "fee"), horizon,
            )
            assert data.values[j] == want.values[i]
            assert data.payments[j] == want.prices[i]


def test_levels_leave_the_runtime_with_their_address(sponsored_small):
    env = sponsored_small
    cap = mech._TRAJECTORY_PATHS
    theta = [0.9, 0.7]
    horizon = 20
    deviation = mech.MisreportThetaAlways(-0.05)

    def run(rt, j):
        streams = ExperienceStreams(7, j, "bounded")
        return [
            mech._Deviator(
                env, rt, _transforms(env, rt, theta, i, deviation), theta, i, deviation, horizon
            ).run(streams)
            for i in range(2)
        ]

    rt = mech.MechanismRuntime(env)
    filled = {j: run(rt, j) for j in range(cap + 40)}
    assert len(rt._paths) == cap
    # one opponent profile per deviating agent on every kept address
    assert all(len(paths._levels) == 2 for paths in rt._paths.values())
    assert (7, "bounded", 0) not in rt._paths  # the least recently used went, levels and all
    assert not rt.trajectories(ExperienceStreams(7, 0, "bounded"))._levels
    fresh = mech.MechanismRuntime(env)
    for j in (0, 1, cap // 2, cap + 39):
        assert run(fresh, j) == filled[j] == run(rt, j)
