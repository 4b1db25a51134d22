"""The trajectory-merge episode engine, the one-deviator merge and the
fee walk against plain per-round references (``engine_reference``), and
the runtime's bounded trajectory cache with the levels it carries."""

from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamech import environments as envs
from dynamech import mechanism as mech
from dynamech import verification as ver
from dynamech.config import build_environment, parse_config
from dynamech.gittins import tail_horizon
from dynamech.rng import ExperienceStreams
from dynamech.verification import default_deviations

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
        ref.period0_report(s, theta[i], env.agents[i].distribution.theta_bar)
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
        assert rt.scale(i, theta[i], theta[i]) is None
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
    table = mech._RentWalk._table
    monkeypatch.setattr(
        mech._RentWalk, "_table",
        lambda self, z: (np.array(table(self, z)) + 10.0 * (z < probe.hi) * mask).tolist(),
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
    theta_hat0[i] = ref.period0_report(strategy, theta[i], env.agents[i].distribution.theta_bar)
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


# ---------------------------------------------------------------------------
# Report schedules
# ---------------------------------------------------------------------------


def _families(n_e: int):
    """Each built-in family, with offsets that clamp at 0 and at theta_bar
    and experience overrides at rounds 1 to 3."""
    return [
        (mech.Truthful, ()),
        (mech.MisreportTheta0, (-0.1,)),
        (mech.MisreportTheta0, (0.25,)),
        (mech.MisreportThetaAlways, (-0.05,)),
        (mech.MisreportThetaAlways, (0.25,)),
        (mech.MisreportThetaAlways, (-2.0,)),
        (mech.CorrectingDeviation, (-0.1,)),
        (mech.CorrectingDeviation, (0.3, 5)),
        (mech.MisreportExperience, (1, 1)),
        (mech.MisreportExperience, (3, n_e - 1)),
        (mech.MisreportExperience, (2, 0)),
    ]


@pytest.mark.parametrize("world", ["cap2", "cap5"])
def test_deviator_plays_every_schedule_like_the_per_round_oracle(
    sponsored_small, sponsored_small_runtime, sponsored2, sponsored2_runtime, world
):
    # the oracle is the per-round engine playing the per-round copies of
    # the strategies
    env, rt = (sponsored_small, sponsored_small_runtime) if world == "cap2" else (sponsored2, sponsored2_runtime)
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-3)
    for theta in ([0.9, 0.7], [0.62, 0.95]):
        for i in range(env.k):
            for cls, args in _families(env.agents[i].private.n):
                oracle = ref.REFERENCE_STRATEGIES[cls](*args)
                transforms = _transforms(env, rt, theta, i, oracle)
                strategies = [ref.Truthful()] * env.k
                strategies[i] = oracle
                run = mech._Deviator(env, rt, transforms, theta, i, cls(*args), horizon)
                for path in range(4):
                    streams = ExperienceStreams(5, path, "schedule-ref")
                    got = run.run(streams)
                    want = ref.reference_run_rounds(
                        env, rt, transforms, theta, strategies, streams.replay(), horizon
                    )
                    times = [t for t, w in enumerate(want.winners, 1) if w == i + 1]
                    _assert_run(got, (want.values[i], want.prices[i], times))


class _ReportOnly:
    """A strategy with per-round reports and no schedule."""

    def report(self, t, theta, e, theta_bar):
        return ref.Report(theta_hat=theta, e_hat=None if t == 0 else e)


def test_deviator_refuses_a_strategy_without_a_schedule(sponsored_small, sponsored_small_runtime):
    env, rt, theta = sponsored_small, sponsored_small_runtime, [0.9, 0.7]
    transforms = mech._active_transforms(env, rt, theta)
    with pytest.raises(TypeError, match="_ReportOnly has no report schedule"):
        mech._Deviator(env, rt, transforms, theta, 0, _ReportOnly(), 20)
    # the episode engine refuses it too: both engines play schedules alone
    with pytest.raises(TypeError, match="_ReportOnly has no report schedule"):
        mech.run_episode(env, [_ReportOnly(), mech.Truthful()], 3, 20, theta=theta, runtime=rt, fee_mode="skip")


# the past-horizon override is refused although no round plays it
@pytest.mark.parametrize("round_t, fake_e", [(1, -1), (1, 99), (50, 99)], ids=["-1", "99", "past-horizon"])
def test_experience_reports_outside_the_private_states_are_refused(
    sponsored_small, sponsored_small_runtime, round_t, fake_e, monkeypatch
):
    env, rt, theta = sponsored_small, sponsored_small_runtime, [0.9, 0.7]
    assert env.agents[0].private.n == 6
    strategy = mech.MisreportExperience(round_t, fake_e)
    transforms = mech._active_transforms(env, rt, theta)
    refused = f"reports experience {fake_e} at round {round_t}"
    with pytest.raises(envs.DomainError, match=refused):
        mech._Deviator(env, rt, transforms, theta, 0, strategy, 20)
    with pytest.raises(envs.DomainError, match=refused):
        mech.run_episode(env, [strategy, mech.Truthful()], 3, 20, theta=theta, runtime=rt, fee_mode="skip")
    # with fees on, the refusal comes before any fee is computed
    fees = []
    monkeypatch.setattr(mech, "fee_quadrature", lambda *a, **kw: fees.append(a))
    with pytest.raises(envs.DomainError, match=refused):
        mech.run_episode(env, [strategy, mech.Truthful()], 3, 20, theta=theta, runtime=rt, fee_rollouts=4)
    assert fees == []
    # the edge states themselves are fine in both engines
    for e_hat in (0, 5):
        got, want, _ = _deviator_and_reference(
            env, rt, theta, 0, mech.MisreportExperience(1, e_hat), ExperienceStreams(4, 0, "edge"), 20
        )
        _assert_run(got, want)


# ---------------------------------------------------------------------------
# Absorbed tails
# ---------------------------------------------------------------------------


def _absorbing_chain(seed: int, k: int, additive: bool) -> envs.Environment:
    """``_random_chain`` with about half of its public and private rows
    replaced by rows that stay put, so that paths end at absorbing states."""
    rng = np.random.default_rng(seed)
    env = _random_chain(seed, k, additive)
    agent = env.agents[0]
    g, h = agent.public.matrix.copy(), agent.private.matrix.copy()
    for m in (g, h):
        for idx in np.ndindex(m.shape[:-1]):
            if rng.random() < 0.5:
                m[idx] = np.eye(m.shape[-1])[idx[-1]]
    return envs.finite_chain(env.delta, k=k, g=g, h=h, value=agent.value)


def _two_state_copies(k: int) -> envs.Environment:
    """k copies of an arm that moves from state 0 to the absorbing state 1
    with probability 1/2 per allocation; equal types tie at equal states."""
    val = envs.MultiplicativeValue(
        a=lambda t: t, da=lambda t: 1.0, b=np.array([[0.3], [1.0]]), c=np.zeros(1)
    )
    return envs.finite_chain(0.8, k=k, g=[[1.0]], h=[[0.5, 0.5], [0.0, 1.0]], value=val)


def _tail_families(env, i: int):
    """Every ``default_deviations`` strategy, plus corrections that come
    after most paths have absorbed."""
    late = [mech.CorrectingDeviation(o, c) for o in (-0.25, 0.1) for c in (6, 11)]
    return [s for _, s in default_deviations(env, i)] + late


def _check_paths(env, rt, theta, families, streams_of, horizon, paths=range(4)):
    """Every engine on each path, bit-equal to its per-round oracle: the
    truthful episode, each one-deviator run, and each agent's fee."""
    truthful = [mech.Truthful()] * env.k
    for j in paths:
        got, want = _both_engines(env, rt, theta, truthful, streams_of(j), horizon, False)
        _assert_same(got, want)
    transforms = mech._active_transforms(env, rt, theta)
    for i in range(env.k):
        for strategy in families(i):
            for j in paths:
                got, want, _ = _deviator_and_reference(env, rt, theta, i, strategy, streams_of(j), horizon)
                _assert_run(got, want)
        if i not in transforms:
            continue
        stream = streams_of(0)
        seed, purpose = stream.master_seed, stream.purpose
        n = len(paths)
        data = mech.fee_quadrature(
            env, theta, i, paths=n, seed=seed, horizon=horizon, runtime=rt, stream_purpose=purpose
        )
        oracle = ref.replay_fee_walk(env, theta, i, n, seed, horizon, rt, purpose)
        assert list(zip(data.integral.tolist(), data.error.tolist(), data.pieces.tolist())) == oracle
        for j in range(n):
            want = ref.reference_run_rounds(
                env, rt, transforms, theta, truthful, ExperienceStreams(seed, j, purpose), horizon
            )
            assert data.values[j] == want.values[i]
            assert data.payments[j] == want.prices[i]


def _absorbed_runs(rt, env, theta, i, strategy, streams, horizon):
    """(run, agent i's trajectory length) of a deviator run on a fresh
    address: a run that drew a move per win has one more state than wins."""
    transforms = _transforms(env, rt, theta, i, strategy)
    run = mech._Deviator(env, rt, transforms, theta, i, strategy, horizon).run(streams)
    return run, len(rt.trajectories(streams).states[i])


@pytest.mark.parametrize("world", ["posted", "cap1", "cap2", "cap5"])
def test_absorbed_tails_match_the_per_round_oracles(world, sponsored_small, sponsored2):
    if world == "posted":
        env = _posted_copies(1)
    else:
        env = {"cap1": envs.sponsored_search(k=2, cap=1, delta=0.8), "cap2": sponsored_small,
               "cap5": sponsored2}[world]
    rt = mech.MechanismRuntime(env)  # fresh: no trajectory drawn before
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-3)
    theta = [0.9, 0.7][: env.k]
    purpose = f"tails-{world}"
    # first, on fresh addresses: a win at an absorbing state ends the run
    # without drawing the moves of the rounds it goes on winning
    absorbed = 0
    for j in range(16):
        streams = ExperienceStreams(9, j, purpose)
        run, drawn = _absorbed_runs(rt, env, theta, 0, mech.Truthful(), streams, horizon)
        absorbed += drawn <= len(run.times)
    assert absorbed > 0
    if world == "posted":
        assert absorbed == 16  # the one state is absorbing from round 1
        # the fee's value runs and rent walks draw nothing, and an episode
        # draws its first move only
        fresh = mech.MechanismRuntime(env)
        mech.fee_quadrature(
            env, theta, 0, paths=4, seed=9, horizon=horizon, runtime=fresh, stream_purpose="fee-draws"
        )
        drawn = [len(fresh.trajectories(ExperienceStreams(9, j, "fee-draws")).states[0]) for j in range(4)]
        assert drawn == [1] * 4
        streams = ExperienceStreams(9, 0, "episode-draws")
        res = mech._run_rounds(
            env, fresh, mech._active_transforms(env, fresh, theta), theta, [mech.Truthful()], streams, horizon
        )
        assert res.winners == [1] * horizon and len(fresh.trajectories(streams).states[0]) == 2
    _check_paths(
        env, rt, theta, lambda i: _tail_families(env, i),
        lambda j: ExperienceStreams(9, j, purpose), horizon, paths=range(16 if world == "cap1" else 6),
    )


@pytest.mark.parametrize("k", [2, 3])
def test_absorbed_tails_with_ties_at_a_stuck_level(k):
    env = _two_state_copies(k)
    rt = mech.MechanismRuntime(env)
    horizon = 24
    theta = [0.8] * k

    def families(i):
        return [
            mech.Truthful(), mech.MisreportExperience(2, 0), mech.MisreportExperience(5, 1),
            mech.CorrectingDeviation(-0.3, 4), mech.CorrectingDeviation(0.1, 7),
        ]

    def streams_of(j):
        return ExperienceStreams(3, j, "stuck-ties")

    _check_paths(env, rt, theta, families, streams_of, horizon, range(12))
    # some path has an opponent holding a stuck level from the absorbing
    # state, and agent i presents the same index there: a tie at a stuck level
    transforms = mech._active_transforms(env, rt, theta)
    ties = 0
    for i in range(k):
        opponents = mech._opponents(rt, transforms, theta, i)
        at_one = rt.index_flat(i, transforms[i], theta[i])[1]
        for j in range(12):
            paths = rt.trajectories(streams_of(j))
            levels = paths.levels(opponents)
            m = levels.stuck
            ties += m >= 0 and levels.holders[m] >= 0 and levels.values[m] == at_one and 1 in paths.states[i]
    assert ties > 0


@settings(max_examples=40, deadline=None)
@given(
    chain_seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    additive=st.booleans(),
    kind=st.integers(0, 4),
    offset=st.sampled_from([-0.25, -0.05, 0.1]),
    round_t=st.integers(1, 9),
    thetas=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_absorbed_tails_on_random_chains_match_the_per_round_oracles(
    chain_seed, k, additive, kind, offset, round_t, thetas
):
    env = _absorbing_chain(chain_seed, k, additive)
    rt = mech.MechanismRuntime(env)
    theta = [float(x) for x in thetas[:k]]
    n_e = env.agents[0].private.n

    def families(i):
        return [mech.Truthful(), _strategy(kind, offset, round_t, n_e)]

    def streams_of(j):
        return ExperienceStreams(chain_seed, j, "tails-random")

    _check_paths(env, rt, theta, families, streams_of, 30, range(3))


# ---------------------------------------------------------------------------
# Draw-free runs
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _draw_free_world(world: str) -> envs.Environment:
    if world == "sponsored cap 1":
        return envs.sponsored_search(k=2, cap=1, delta=0.8)
    return build_environment(parse_config(CONFIGS / f"{world}.cfg"))


def _fresh_fee_paths(env, theta, i, paths, seed, horizon):
    """``fee_quadrature``'s per-path numbers from a fresh value run and a
    fresh rent walk on every path, in a runtime of their own."""
    rt = mech.MechanismRuntime(env)
    transforms = mech._active_transforms(env, rt, theta)
    out = []
    for j in range(paths):
        streams = ExperienceStreams(seed, j, "fee")
        run = mech._Deviator(env, rt, transforms, theta, i, mech.Truthful(), horizon).run(streams)
        walk = mech._RentWalk(env, rt, transforms, theta, i, rt.threshold(i), horizon)
        out.append((run.value, run.price, *walk.integrate(streams)))
    return out


@pytest.mark.parametrize("world", ["posted_price", "exponential_control", "sponsored cap 1"])
def test_kept_runs_equal_a_fresh_run_per_path(world):
    env = _draw_free_world(world)
    rt = mech.MechanismRuntime(env)
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-6)
    fresh_rt = mech.MechanismRuntime(env)
    for theta in ([0.9, 0.7], [0.3, 0.95], [0.62, 0.4]):
        theta = theta[: env.k]
        for i in range(env.k):
            for _, strategy in default_deviations(env, i):
                got = ver._utility_paths(env, rt, theta, strategy, i, 5, "kept", 12, horizon)
                transforms = _transforms(env, fresh_rt, theta, i, strategy)
                want = []
                for j in range(12):
                    res = mech._Deviator(env, fresh_rt, transforms, theta, i, strategy, horizon).run(
                        ExperienceStreams(5, j, "kept")
                    )
                    want.append(res.value - res.price)
                assert got.tolist() == want
            if i not in mech._active_transforms(env, rt, theta):
                continue
            data = mech.fee_quadrature(env, theta, i, paths=12, seed=5, horizon=horizon, runtime=rt)
            got = list(
                zip(data.values.tolist(), data.payments.tolist(), data.integral.tolist(),
                    data.error.tolist(), data.pieces.tolist())
            )
            assert got == _fresh_fee_paths(env, theta, i, 12, 5, horizon)


def test_horizon_one_losing_runs_are_kept():
    # at horizon 1 a run that loses round 1 reads level 0 alone, and so
    # does a rent walk whose last merge loses: agent 1's truthful run (it
    # loses to agent 0) and both agents' walks are kept after one path,
    # and every path gives the bits of a fresh runtime on that path
    env = envs.sponsored_search(k=2, cap=2, delta=0.8)
    theta = [0.9, 0.7]

    def run_and_walk(rt, i):
        transforms = mech._active_transforms(env, rt, theta)
        run = mech._Deviator(env, rt, transforms, theta, i, mech.Truthful(), 1)
        return run, mech._RentWalk(env, rt, transforms, theta, i, rt.threshold(i), 1)

    rt = mech.MechanismRuntime(env)
    for i in range(2):
        run, walk = run_and_walk(rt, i)
        for j in range(4):
            streams = ExperienceStreams(5, j, "kept")
            got = (run.run(streams), walk.integrate(streams))
            assert run.fixed is not None and walk.fixed is not None
            fresh_run, fresh_walk = run_and_walk(mech.MechanismRuntime(env), i)
            assert repr(got) == repr((fresh_run.run(streams), fresh_walk.integrate(streams)))
        assert (run.fixed.times == []) == (i == 1)


def test_posted_arm_merges_once_per_deviator(monkeypatch):
    env = _draw_free_world("posted_price")
    merged = []  # the deviators that merged, kept alive so that their ids stay distinct
    walks, lookups, fees = [0], [0], [0]
    run, integrate = mech._Deviator.run, mech._RentWalk.integrate
    trajectories, fee_quadrature = mech.MechanismRuntime.trajectories, ver.fee_quadrature

    def counted_run(self, streams):
        if self.fixed is None:
            merged.append(self)
        return run(self, streams)

    def counted_walk(self, streams):
        walks[0] += self.fixed is None
        return integrate(self, streams)

    def counted_lookup(self, streams):
        lookups[0] += 1
        return trajectories(self, streams)

    def counted_fee(*args, **kwargs):
        fees[0] += 1
        return fee_quadrature(*args, **kwargs)

    monkeypatch.setattr(mech._Deviator, "run", counted_run)
    monkeypatch.setattr(mech._RentWalk, "integrate", counted_walk)
    monkeypatch.setattr(mech.MechanismRuntime, "trajectories", counted_lookup)
    monkeypatch.setattr(ver, "fee_quadrature", counted_fee)
    rt = mech.MechanismRuntime(env)
    ver.audit_ic(env, seeds=(3,), paths=16, fee_paths=8, runtime=rt)
    ver.audit_ir(env, seeds=(3,), paths=16, fee_paths=8, runtime=rt)
    ver.audit_allocation_time_coupling(env, [0.9], [0.7], 0, seeds=tuple(range(20)), runtime=rt)
    assert merged and len({id(d) for d in merged}) == len(merged)
    # an active agent's fee walks its first path alone, and only a merge
    # or a walk looks its path up
    assert 0 < walks[0] <= fees[0]
    assert lookups[0] == len(merged) + walks[0]


def test_runs_that_read_a_draw_are_not_kept():
    env = _draw_free_world("sponsored cap 1")
    rt = mech.MechanismRuntime(env)
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-6)
    theta = [0.9, 0.7]
    transforms = mech._active_transforms(env, rt, theta)
    run = mech._Deviator(env, rt, transforms, theta, 0, mech.Truthful(), horizon)
    values = {run.run(ExperienceStreams(2, j, "drawn")).value for j in range(16)}
    assert run.fixed is None and len(values) > 1
    data = mech.fee_quadrature(env, theta, 0, paths=16, seed=2, horizon=horizon, runtime=rt)
    assert len(set(data.values.tolist())) > 1 and len(set(data.integral.tolist())) > 1


@pytest.mark.parametrize("offset, correct_round", [(-0.25, 3), (0.1, 3), (-0.05, 1), (0.25, 7)])
def test_a_correcting_deviation_on_the_posted_arm_draws_nothing(offset, correct_round):
    env = _draw_free_world("posted_price")
    horizon = tail_horizon(env.delta, env.k, env.v_max, 1e-6)
    strategy = mech.CorrectingDeviation(offset, correct_round)
    won = 0
    for theta in (0.95, 0.8, 0.6, 0.52):
        rt = mech.MechanismRuntime(env)  # fresh: no trajectory drawn before
        streams = ExperienceStreams(4, 0, "correcting")
        got, want, _ = _deviator_and_reference(env, rt, [theta], 0, strategy, streams, horizon)
        _assert_run(got, want)
        won += bool(got.times)
        assert rt.trajectories(streams).states[0] == [0]  # every win stayed at the one state
    assert won > 0


def test_a_last_round_win_draws_no_move(monkeypatch, builds):
    # one priced round on four active sponsored-search agents: nothing
    # reads the winner's move after it, so nothing is drawn, and the
    # prices build no CSR and run no Tarjan pass
    env = envs.sponsored_search(k=4, cap=2, delta=0.8)
    truthful = [mech.Truthful()] * 4
    built, reached = builds
    draws = []
    draw_pair = ExperienceStreams.draw_pair
    monkeypatch.setattr(ExperienceStreams, "draw_pair", lambda self, i: draws.append(i) or draw_pair(self, i))
    profiles = ([0.9, 0.8, 0.7, 0.6], [0.6, 0.95, 0.7, 0.8], [0.55, 0.6, 0.65, 0.99])
    for seed, theta in enumerate(profiles):
        rt = mech.MechanismRuntime(env)
        tr = mech.run_episode(env, truthful, seed, 1, theta=theta, runtime=rt, fee_mode="skip")
        assert draws == [] and built == [] and reached == []
        assert tr.rounds[0].winner > 0 and tr.rounds[0].payment > 0.0
        transforms = mech._active_transforms(env, rt, theta)
        streams = ExperienceStreams(seed, 0, "episode")
        want = ref.reference_run_rounds(env, rt, transforms, theta, truthful, streams, 1, record_rounds=True)
        assert tr.rounds == want.rounds and list(tr.values) == want.values
        # a longer run on the same address draws the skipped move when it needs it, as the same pair
        longer = mech.run_episode(env, truthful, seed, 3, theta=theta, runtime=rt, fee_mode="skip")
        fresh = mech.run_episode(
            env, truthful, seed, 3, theta=theta, runtime=mech.MechanismRuntime(env), fee_mode="skip"
        )
        assert longer.rounds == fresh.rounds
        # nor do the winner's one-deviator run and rent walk at horizon 1: on a
        # new runtime they draw nothing and the run is kept, and both give the
        # bits they give on the runtime whose trajectories the longer run drew
        draws.clear()
        i = tr.rounds[0].winner - 1
        results = []
        for runtime in (mech.MechanismRuntime(env), rt):
            streams = ExperienceStreams(seed, 0, "episode")
            transforms = mech._active_transforms(env, runtime, theta)
            run = mech._Deviator(env, runtime, transforms, theta, i, mech.Truthful(), 1)
            walk = mech._RentWalk(env, runtime, transforms, theta, i, runtime.threshold(i), 1)
            results.append((run.run(streams), walk.integrate(streams)))
            assert draws == [] and run.fixed is not None
        assert results[0] == results[1] and results[0][0].times == [1]
