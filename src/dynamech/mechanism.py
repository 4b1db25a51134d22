"""The dynamic auction itself: period-0 reports and entry fees, per-round
index allocation, externality pricing, and pluggable reporting strategies.

Round structure: at the fictitious period 0 each agent reports a type;
that report pegs the agent's affine transform (and its entry fee, which
is charged at t=1 with discount weight 1).  At every round t >= 1 agents
re-report (theta, e); allocation uses the *current* reports inside the
index but the period-0 report inside (alpha, beta), so agents keep the
freedom to correct earlier misreports.  Only the winner pays, an affine
transformation of the externality it imposes on the other agents.

Agents whose pegged transform has alpha <= 0 (multiplicative variant)
are dormant: never allocated, never charged, so the price's division by
alpha is always safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .environments import (
    ArmState,
    DomainError,
    Environment,
    MultiplicativeValue,
    sample_transition,
    value,
)
from . import gittins
from .gittins import (
    CompiledArm,
    allocate,
    compile_arm,
    compile_reward_arm,
    hit_discounts,
    index_of_states,
    index_policy_rollout,
    retirement_surplus,
    tail_horizon,
)
from .rng import ExperienceStreams, substream
from .virtual import (
    VirtualTransform,
    dormancy_threshold,
    inverse_hazard,
    transform_or_dormant,
    xi_table,
)

__all__ = [
    "Report",
    "Truthful",
    "MisreportTheta0",
    "MisreportThetaAlways",
    "MisreportExperience",
    "CorrectingDeviation",
    "Estimate",
    "MechanismRuntime",
    "per_round_price",
    "entry_price_P",
    "entry_fee_p0",
    "fee_quadrature",
    "run_episode",
    "marginal_contribution",
    "RoundRecord",
    "Transcript",
]


# ---------------------------------------------------------------------------
# Reports and strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One agent's report: theta_hat always, e_hat from t >= 1 on."""

    theta_hat: float
    e_hat: int | None = None


def _clamp(x: float, theta_bar: float) -> float:
    return min(max(x, 0.0), theta_bar)


class Truthful:
    """Report the true type and the true private experience every round."""

    def report(self, t: int, theta: float, e: int, theta_bar: float) -> Report:
        return Report(theta_hat=theta, e_hat=None if t == 0 else e)


class MisreportTheta0:
    """Shade the period-0 type report only; truthful from t = 1 on."""

    def __init__(self, offset: float):
        self.offset = offset

    def report(self, t: int, theta: float, e: int, theta_bar: float) -> Report:
        th = _clamp(theta + self.offset, theta_bar) if t == 0 else theta
        return Report(theta_hat=th, e_hat=None if t == 0 else e)


class MisreportThetaAlways:
    """Shade the type report in every round, period 0 included."""

    def __init__(self, offset: float):
        self.offset = offset

    def report(self, t: int, theta: float, e: int, theta_bar: float) -> Report:
        th = _clamp(theta + self.offset, theta_bar)
        return Report(theta_hat=th, e_hat=None if t == 0 else e)


class MisreportExperience:
    """Truthful except the private-experience report at one round."""

    def __init__(self, round_t: int, fake_e: int):
        self.round_t = round_t
        self.fake_e = fake_e

    def report(self, t: int, theta: float, e: int, theta_bar: float) -> Report:
        e_hat = self.fake_e if t == self.round_t else e
        return Report(theta_hat=theta, e_hat=None if t == 0 else e_hat)


class CorrectingDeviation:
    """Shade the type for rounds t < correct_round, then report truth."""

    def __init__(self, offset: float, correct_round: int = 3):
        self.offset = offset
        self.correct_round = correct_round

    def report(self, t: int, theta: float, e: int, theta_bar: float) -> Report:
        th = _clamp(theta + self.offset, theta_bar) if t < self.correct_round else theta
        return Report(theta_hat=th, e_hat=None if t == 0 else e)


# ---------------------------------------------------------------------------
# Runtime caches
# ---------------------------------------------------------------------------


_TRAJECTORY_PATHS = 1024  # stream addresses whose trajectories a runtime keeps


class _Trajectories:
    """Every agent's experience trajectory on one stream address.

    ``states[i][n]`` is agent i's flat state (e * n_rho + rho) after its
    n-th allocation, from ``states[i][0] = 0``.  By the coupling rule the
    j-th allocation to agent i uses the j-th draw pair of its stream in
    every run on the address, so reports, types and the fee walk's z
    change only when an agent is allocated, never where its experience
    goes.  A list grows by one move (``extend``) the first time a run
    allocates past its end, through ``ExperienceStreams.draw_pair`` and
    ``sample_transition``; an agent that is never allocated draws
    nothing.

    The truthful others' levels against one agent (``_Levels``) live here
    too, one sequence per opponent key (``_Opponents.key``), so they
    leave the runtime with the address.
    """

    __slots__ = ("_agents", "_streams", "states", "_levels")

    def __init__(self, env: Environment, streams: ExperienceStreams):
        self._agents = env.agents
        self._streams = streams.replay()
        self.states: list[list[int]] = [[0] for _ in env.agents]
        self._levels: dict[tuple, _Levels] = {}

    def levels(self, opponents: _Opponents) -> _Levels:
        """The levels ``opponents`` present on this path, from their start."""
        out = self._levels.get(opponents.key)
        if out is None:
            out = self._levels[opponents.key] = _Levels(opponents)
        return out

    def extend(self, i: int) -> None:
        """Draw agent i's next move."""
        traj = self.states[i]
        agent = self._agents[i]
        n_rho = agent.public.n
        e, rho = sample_transition(
            agent, traj[-1] // n_rho, traj[-1] % n_rho, *self._streams.draw_pair(i)
        )
        traj.append(e * n_rho + rho)


class MechanismRuntime:
    """Compiled, cached machinery shared across episodes of one environment.

    Index tables and hit discounts (with the lone-arm values they give)
    are cached per (agent, pegged report, current theta).  Multiplicative
    values with C = 0 use the positive-homogeneity of the index in the
    rewards: one sweep of the experience process's base arm gives the
    base index table and hit discounts, and these serve every
    (report, theta) pair through the scale alpha(report) * A(theta), a
    positive scale leaving every stopping set, hence the hit discounts,
    unchanged.

    Experience trajectories are cached per stream address
    ``(master_seed, purpose, path_id)``, the ``_TRAJECTORY_PATHS`` most
    recently used ones, so every run on an address (the audits' cells,
    the fee walk's pieces, the fees of different reports) samples each
    move once; the truthful others' levels on an address are cached with
    its trajectories.  Dormancy thresholds are cached per agent
    (``threshold``).
    """

    def __init__(self, env: Environment, *, index_tol: float = 1e-9):
        self.env = env
        self.index_tol = index_tol
        self._transforms: dict[tuple[int, float], VirtualTransform | None] = {}
        self._tables: dict[tuple[int, float, float], np.ndarray] = {}
        self._hits: dict[tuple[int, float, float], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._bases: dict[int, tuple[np.ndarray, np.ndarray | None, np.ndarray | None]] = {}
        self._paths: dict[tuple[int, str, int], _Trajectories] = {}
        self._thresholds: dict[int, float] = {}
        self._n_rho = [agent.public.n for agent in env.agents]
        self._scale_bound = []
        for agent in env.agents:
            if isinstance(agent.value, MultiplicativeValue):
                ts = np.linspace(0.0, agent.distribution.theta_bar, 65)
                self._scale_bound.append(max(1.0, max(abs(agent.value.a(float(t))) for t in ts)))
            else:
                self._scale_bound.append(1.0)

    # -- transforms ---------------------------------------------------------

    def transform(self, agent_id: int, report: float) -> VirtualTransform | None:
        key = (agent_id, report)
        if key not in self._transforms:
            self._transforms[key] = transform_or_dormant(self.env, agent_id, report)
        return self._transforms[key]

    def threshold(self, agent_id: int) -> float:
        """``virtual.dormancy_threshold`` of the agent, computed once."""
        out = self._thresholds.get(agent_id)
        if out is None:
            out = self._thresholds[agent_id] = dormancy_threshold(self.env, agent_id)
        return out

    def trajectories(self, streams: ExperienceStreams) -> _Trajectories:
        """The trajectories at ``streams``' address, from their start."""
        key = (streams.master_seed, streams.purpose, streams.path_id)
        paths = self._paths.pop(key, None)
        if paths is None:
            paths = _Trajectories(self.env, streams)
            if len(self._paths) >= _TRAJECTORY_PATHS:
                del self._paths[next(iter(self._paths))]  # least recently used
        self._paths[key] = paths
        return paths

    # -- per-agent tables -------------------------------------------------

    def _homogeneous_scale(self, agent_id: int, transform: VirtualTransform, theta: float):
        """scale s.t. xi = scale * B, or None when the shortcut is invalid."""
        val = self.env.agents[agent_id].value
        if not isinstance(val, MultiplicativeValue) or np.any(val.c != 0.0):
            return None
        scale = transform.alpha * val.a(theta)
        return scale if scale >= 0.0 else None

    def _base_arm(self, agent_id: int) -> CompiledArm:
        agent = self.env.agents[agent_id]
        return compile_reward_arm(agent, agent.value.b, self.env.delta)

    def _base(self, agent_id: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(index table, levels, hit table) of the experience rewards B
        alone, from one ``gittins.hit_discounts`` sweep; an arm above the
        sweep's cutoff bisects its indices and has no hit discounts.  A
        scale-homogeneous agent's index table and levels at any (report,
        theta) are its scale times these."""
        # identical agent models (replicated built-ins) share one build
        base_key = id(self.env.agents[agent_id])
        base = self._bases.get(base_key)
        if base is None:
            arm = self._base_arm(agent_id)
            if arm.n <= gittins.DENSE_SWEEP_MAX_STATES:
                base = hit_discounts(arm)
            else:
                tol = self.index_tol / self._scale_bound[agent_id]
                base = (index_of_states(arm, np.arange(arm.n), tol), None, None)
            self._bases[base_key] = base
        return base

    def build_table(self, agent_id: int, transform: VirtualTransform, theta: float) -> np.ndarray:
        """Index table at (pegged report, theta), not cached."""
        scale = self._homogeneous_scale(agent_id, transform, theta)
        if scale is not None:
            return scale * self._base(agent_id)[0]
        arm = compile_arm(self.env, agent_id, transform, theta)
        return index_of_states(arm, np.arange(arm.n), self.index_tol)

    def index_flat(self, agent_id: int, transform: VirtualTransform, theta: float) -> np.ndarray:
        """Index table at (pegged report, theta), cached.  A key that is
        not scale-homogeneous takes one ``hit_discounts`` sweep for both
        its index table and its hit discounts (``hits_flat``)."""
        key = (agent_id, transform.pegged_report, theta)
        out = self._tables.get(key)
        if out is None:
            if (
                self._homogeneous_scale(agent_id, transform, theta) is None
                and self.env.agents[agent_id].n_states <= gittins.DENSE_SWEEP_MAX_STATES
            ):
                self._sweep_key(key, transform)
            else:
                self._tables[key] = self.build_table(agent_id, transform, theta)
            out = self._tables[key]
        return out

    def _sweep_key(self, key: tuple[int, float, float], transform: VirtualTransform) -> None:
        """Index table and hit discounts of a key that is not
        scale-homogeneous, from one ``hit_discounts`` sweep."""
        agent_id, _, theta = key
        indices, levels, table = hit_discounts(compile_arm(self.env, agent_id, transform, theta))
        self._tables[key] = indices
        self._hits[key] = self._whittle(levels, table)

    def hits_flat(
        self, agent_id: int, transform: VirtualTransform, theta: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This agent's positive index levels, the matching rows of its
        hit-discount table (``gittins.hit_discounts``, which refuses arms
        above the sweep's cutoff), and W of its arm alone against the zero
        arm at each of its states: Whittle's formula with one factor,
        sum_k (levels[k] - levels[k+1]) (1 - hits[k]) / (1 - delta) with
        levels[K] = 0, summed as levels[0] - gaps @ hits."""
        key = (agent_id, transform.pegged_report, theta)
        out = self._hits.get(key)
        if out is not None:
            return out
        scale = self._homogeneous_scale(agent_id, transform, theta)
        if scale is None:
            self._sweep_key(key, transform)
            return self._hits[key]
        _, levels, table = self._base(agent_id)
        if table is None:  # the base arm bisected: the sweep refuses it
            hit_discounts(self._base_arm(agent_id))
        out = self._hits[key] = self._whittle(scale * levels, table)
        return out

    def _whittle(self, levels: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``hits_flat``'s triple from a sweep's levels and hit table."""
        positive = int(np.count_nonzero(levels > 0.0))  # a prefix: levels never rise
        levels, table = levels[:positive], table[:positive]
        top = levels[0] if positive else 0.0  # no levels: the arm never plays
        gaps = levels - np.append(levels[1:], 0.0)
        return levels, table, (top - gaps @ table) / (1.0 - self.env.delta)

    # -- externality values ------------------------------------------------

    def w_minus(self, others: list[tuple[int, VirtualTransform, float]], states: list[int]) -> float:
        """Optimal transformed surplus of the given arms from their flat
        states, with the zero arm available, by Whittle's retirement
        formula over the arms' hit discounts at every arity: one arm
        reads its cached per-state vector (``hits_flat``), more sum
        ``gittins.retirement_surplus``, exact and O(sum of the arms'
        sizes) per call.  Every arm must be within the exact sweep's
        cutoff (``gittins.DENSE_SWEEP_MAX_STATES``); a larger one raises
        DomainError."""
        if not others:
            return 0.0
        if len(others) == 1:
            agent_id, tr, theta = others[0]
            return float(self.hits_flat(agent_id, tr, theta)[2][states[0]])
        factors = []
        for (agent_id, tr, theta), s in zip(others, states):
            levels, hits, _ = self.hits_flat(agent_id, tr, theta)
            factors.append((levels, hits[:, s]))
        return retirement_surplus(factors) / (1.0 - self.env.delta)

    def _w_minus_rollout(
        self, others, states, paths: int = 2000, seed: int = 0, horizon: int | None = None
    ) -> tuple[float, float]:
        """Monte Carlo cross-check of ``w_minus``: the mean and standard
        error of the index policy's discounted transformed reward over
        ``paths`` runs on ``substream(seed, "wminus", path)``, truncated
        at ``horizon``.  Pricing never calls it."""
        env = self.env
        if horizon is None:
            horizon = tail_horizon(env.delta, len(others), env.v_max)
        totals = index_policy_rollout(
            [env.agents[a] for a, _, _ in others],
            [self.index_flat(a, tr, th) for a, tr, th in others],
            [xi_table(tr, env, a, th).reshape(-1) for a, tr, th in others],
            states,
            env.delta,
            horizon,
            paths,
            seed,
            "wminus",
        )
        return _mean_se(totals)


# ---------------------------------------------------------------------------
# Payments
# ---------------------------------------------------------------------------


def per_round_price(
    env: Environment,
    transforms: dict[int, VirtualTransform],
    theta_hats,
    e_hats,
    rhos,
    winner: int,
    runtime: MechanismRuntime | None = None,
) -> float:
    """Price the winner pays this round:
    [(1 - delta) * W_without_winner(reported joint state) - beta] / alpha.
    """
    runtime = runtime or MechanismRuntime(env)
    tr = transforms.get(winner)
    if tr is None or tr.alpha <= 0.0:
        raise RuntimeError("internal invariant violated: dormant agent won a round")
    others = [(j, transforms[j], float(theta_hats[j])) for j in sorted(transforms) if j != winner]
    states = [int(e_hats[j]) * env.agents[j].public.n + int(rhos[j]) for j, _, _ in others]
    w = runtime.w_minus(others, states)
    beta = float(tr.beta[int(rhos[winner])])
    return ((1.0 - env.delta) * w - beta) / tr.alpha


# ---------------------------------------------------------------------------
# Episode engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    t: int
    theta_hat: tuple[float, ...]
    e_hat: tuple[int, ...]
    true_e: tuple[int, ...]
    rho: tuple[int, ...]
    winner: int  # 0 = no allocation, i in 1..k = agent i-1
    payment: float  # winner's payment (others pay 0 at t >= 1)


@dataclass
class Transcript:
    """Full record of one episode; revenue and utilities are recomputable
    from the rows alone."""

    seed: int
    delta: float
    horizon: int
    theta: tuple[float, ...]
    theta_hat0: tuple[float, ...]
    dormant: tuple[bool, ...]
    entry_fees: tuple[float, ...]
    entry_fee_se: tuple[float, ...]
    fee_mode: str
    w_mode: str  # always "exact_dp": every W_{-i} is exact; kept for the artifact format
    tail_bound: float
    rounds: list[RoundRecord] = field(default_factory=list)
    revenue: float = 0.0
    utilities: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def recompute_revenue(self) -> float:
        total = sum(self.entry_fees)
        for r in self.rounds:
            if r.winner > 0:
                total += self.delta ** (r.t - 1) * r.payment
        return total

    def recompute_utilities(self, env: Environment) -> tuple[float, ...]:
        out = []
        for i in range(len(self.theta)):
            u = -self.entry_fees[i]
            for r in self.rounds:
                if r.winner == i + 1:
                    v = value(env, i, ArmState(self.theta[i], r.true_e[i], r.rho[i]))
                    u += self.delta ** (r.t - 1) * (v - r.payment)
            out.append(u)
        return tuple(out)


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    quad_error: float = 0.0


class _EpisodeResult:
    __slots__ = ("values", "prices", "winners", "rounds", "virtual")

    def __init__(self, k: int):
        self.values = [0.0] * k
        self.prices = [0.0] * k
        self.winners: list[int] = []
        self.rounds: list[RoundRecord] = []
        self.virtual = 0.0


def _active_transforms(env, runtime, theta_hat0):
    transforms: dict[int, VirtualTransform] = {}
    for i in range(env.k):
        t = runtime.transform(i, float(theta_hat0[i]))
        if t is not None:
            transforms[i] = t
    return transforms


def _run_rounds(
    env: Environment,
    runtime: MechanismRuntime,
    transforms: dict[int, VirtualTransform],
    theta: list[float],
    strategies,
    streams: ExperienceStreams,
    horizon: int,
    *,
    monitored: bool = False,
    track_prices: bool = True,
    record_rounds: bool = False,
    track_virtual: bool = False,
) -> _EpisodeResult:
    """Core t >= 1 loop.  Returns per-agent discounted values/prices and
    whichever extras were requested.

    The rounds are a merge over the experience trajectories at
    ``streams``' address (``runtime.trajectories``), played from their
    start.  Each agent has a position on its trajectory, and only the
    winner's advances.  A truthful agent presents its table at its
    state; a strategic agent's index goes through its report of the
    round, on the same trajectory.  Prices are memoized within the path
    by the winner, its public state and the others' reports.  With every
    agent truthful, a round the zero arm wins changes nothing, so every
    later round repeats it.
    """
    k = env.k
    res = _EpisodeResult(k)
    paths = runtime.trajectories(streams)
    traj = paths.states
    n_rho = runtime._n_rho
    active = sorted(transforms)
    slot = {i: p for p, i in enumerate(active)}
    # truthful reports are the hot path: skip Report construction for them
    truthful = [isinstance(strategies[i], Truthful) for i in range(k)]
    strategic = [i for i in range(k) if not truthful[i]]
    theta_bars = [env.agents[i].distribution.theta_bar for i in range(k)]
    state = [0] * k  # true flat states, e * n_rho + rho
    pos = [0] * k  # allocations so far: state[i] == traj[i][pos[i]]
    # reported flat states: a strategic agent's e_hat with its true rho
    reported = state if monitored or not strategic else list(state)
    theta_hats = list(theta)
    e_hats = [0] * k
    cur_theta_hat: list[float | None] = [None] * k
    tables: list[np.ndarray | None] = [None] * k
    vals = [0.0] * len(active)
    for p, i in enumerate(active):
        if truthful[i]:
            tables[i] = runtime.index_flat(i, transforms[i], theta[i])
            vals[p] = tables[i][0]
    strategic_slots = [(i, slot.get(i)) for i in strategic]
    value_cache: list[np.ndarray | None] = [None] * k
    virtual_cache: list[np.ndarray | None] = [None] * k
    prices: dict[tuple, float] = {}
    disc = 1.0
    for t in range(1, horizon + 1):
        for i, p in strategic_slots:
            n = n_rho[i]
            rep = strategies[i].report(t, theta[i], state[i] // n, theta_bars[i])
            th = theta_hats[i] = rep.theta_hat
            e_hats[i] = int(rep.e_hat)
            if reported is not state:
                reported[i] = e_hats[i] * n + state[i] % n
            if p is not None:
                if th != cur_theta_hat[i]:
                    cur_theta_hat[i] = th
                    tables[i] = runtime.index_flat(i, transforms[i], th)
                vals[p] = tables[i][reported[i]]
        w_local = allocate(vals)
        winner = active[w_local - 1] + 1 if w_local > 0 else 0
        payment = 0.0
        if winner > 0:
            wi = winner - 1
            s = state[wi]
            if track_prices:
                key = (wi, s % n_rho[wi], *[(theta_hats[j], reported[j]) for j in active if j != wi])
                payment = prices.get(key)
                if payment is None:
                    payment = prices[key] = per_round_price(
                        env,
                        transforms,
                        theta_hats,
                        [x // n for x, n in zip(reported, n_rho)],
                        [x % n for x, n in zip(state, n_rho)],
                        wi,
                        runtime,
                    )
                res.prices[wi] += disc * payment
            if value_cache[wi] is None:
                value_cache[wi] = _value_flat(env, wi, theta[wi])
            res.values[wi] += disc * value_cache[wi][s]
            if track_virtual:
                if virtual_cache[wi] is None:
                    ih = inverse_hazard(env.agents[wi].distribution, theta[wi])
                    virtual_cache[wi] = _value_flat(env, wi, theta[wi]) - ih * _deriv_flat(
                        env, wi, theta[wi]
                    )
                res.virtual += disc * virtual_cache[wi][s]
        if record_rounds:
            true_e = tuple([x // n for x, n in zip(state, n_rho)])
            if strategic:
                e_hat = tuple([e if truthful[i] else e_hats[i] for i, e in enumerate(true_e)])
            res.rounds.append(
                RoundRecord(
                    t=t,
                    theta_hat=tuple(theta_hats),
                    e_hat=e_hat if strategic else true_e,
                    true_e=true_e,
                    rho=tuple([x % n for x, n in zip(state, n_rho)]),
                    winner=winner,
                    payment=payment,
                )
            )
        res.winners.append(winner)
        if winner > 0:
            p = pos[wi] = pos[wi] + 1
            if p == len(traj[wi]):
                paths.extend(wi)
            s = state[wi] = traj[wi][p]
            if truthful[wi]:
                reported[wi] = s
                vals[slot[wi]] = tables[wi][s]
        elif not strategic:
            res.winners.extend([0] * (horizon - t))
            if record_rounds:
                res.rounds.extend(replace(res.rounds[-1], t=u) for u in range(t + 1, horizon + 1))
            break
        disc *= env.delta
    return res


def _value_flat(env: Environment, agent_id: int, theta: float) -> np.ndarray:
    agent = env.agents[agent_id]
    val = agent.value
    if isinstance(val, MultiplicativeValue):
        return (val.a(theta) * val.b - val.c[None, :]).reshape(-1)
    a_row = np.array([val.a(theta, r) for r in range(agent.public.n)])
    return (a_row[None, :] + val.b).reshape(-1)


def _deriv_flat(env: Environment, agent_id: int, theta: float) -> np.ndarray:
    agent = env.agents[agent_id]
    val = agent.value
    if isinstance(val, MultiplicativeValue):
        return (val.da(theta) * val.b).reshape(-1)
    da_row = np.array([val.da(theta, r) for r in range(agent.public.n)])
    return np.broadcast_to(da_row[None, :], val.b.shape).reshape(-1).copy()


@functools.lru_cache(maxsize=64)
def _discounts(delta: float, horizon: int) -> tuple[float, ...]:
    """delta^(t-1) for t = 1..horizon, by the engine's running product."""
    out = []
    disc = 1.0
    for _ in range(horizon):
        out.append(disc)
        disc *= delta
    return tuple(out)


class _Opponents(NamedTuple):
    """Agent i's active opponents, truthful at their types, as every
    one-deviator run and fee walk of agent i sees them."""

    key: tuple  # ((j, pegged report, theta_j), ...): their levels' cache key on a path
    agents: list[int]
    arms: list[tuple[int, VirtualTransform, float]]  # ``w_minus``'s arms
    tables: list[list[float]]  # index tables at their types


def _opponents(runtime: MechanismRuntime, transforms, theta, i: int) -> _Opponents:
    arms = [(j, transforms[j], float(theta[j])) for j in sorted(transforms) if j != i]
    return _Opponents(
        tuple((j, tr.pegged_report, th) for j, tr, th in arms),
        [j for j, _, _ in arms],
        arms,
        [runtime.index_flat(j, tr, th).tolist() for j, tr, th in arms],
    )


class _Levels:
    """The truthful others' side of one path, by how many rounds they
    have won among them.  After m such rounds ``values[m]`` is the best
    index they present (0.0 once the zero arm beats them all, the last
    entry then), ``holders[m]`` the id of the agent presenting it (the
    lowest id among equals; -1 for the zero arm) and ``states[m]`` their
    flat states.  The others are truthful, so the sequence is the same
    whatever agent i does: it is cached on the path's ``_Trajectories``
    under the others' key and read by every strategy of i, every report
    of its fee, every point of its rent walk and every audit grid point
    at the same opponent profile.  It grows as merges read past its end
    (``grow``).  ``w_memo[m]`` holds the others' W at ``states[m]``
    once a merge has priced a win at level m.
    """

    __slots__ = ("_opponents", "_pos", "_last", "values", "holders", "states", "w_memo")

    def __init__(self, opponents: _Opponents):
        self._opponents = opponents
        self._pos = [0] * len(opponents.agents)
        self._last = -1  # slot that won at the last level
        self.values: list[float] = []
        self.holders: list[int] = []
        self.states: list[list[int]] = []
        self.w_memo: dict[int, float] = {}

    def grow(self, paths: _Trajectories) -> float:
        """The next level: the last level's winner moves on, then the
        others are allocated among themselves once more."""
        traj = paths.states
        agents = self._opponents.agents
        last = self._last
        if last >= 0:
            agent = agents[last]
            n = self._pos[last] = self._pos[last] + 1
            if n == len(traj[agent]):
                paths.extend(agent)
        states = [traj[a][n] for a, n in zip(agents, self._pos)]
        vals = [tab[s] for tab, s in zip(self._opponents.tables, states)]
        w = allocate(vals)
        self._last = w - 1
        level = vals[w - 1] if w > 0 else 0.0
        self.values.append(level)
        self.holders.append(agents[w - 1] if w > 0 else -1)
        self.states.append(states)
        return level


class _Run(NamedTuple):
    """Agent i's side of one path."""

    value: float  # discounted value of the rounds it wins
    price: float  # discounted per-round payments (0 without track_prices)
    times: list[int]  # the rounds it wins


class _Deviator:
    """Agent i playing ``strategy`` against truthful others, one coupled
    path at a time: the episode engine's rounds, seen from agent i.

    The others' levels on the path (``_Levels``) do not depend on what i
    does, so a run is one merge of i's trajectory against them.  At each
    round i presents its index: its table at its state when truthful,
    else through its report of the round (the table at the reported
    type, at the reported experience and true public state).  Agent i
    wins iff that index b is positive and either b > level or b == level
    with i below the level's holder, which is ``allocate``'s rule; on a
    win i moves on, on a loss to a positive level the others' winner
    does (the next level), and a zero-arm round moves nothing.  A
    truthful i then repeats that round forever, so the merge stops; a
    strategic one may report differently later and plays on.

    A win at level m is priced ((1 - delta) W(others at states[m]) -
    beta[rho_i]) / alpha, ``per_round_price``'s formula, with W memoized
    per (path, m) on the levels.  Values and prices are summed in round
    order with the engine's running discount, so a run gives agent i's
    ``_run_rounds`` value, payments and win times bit for bit.
    """

    def __init__(
        self, env, runtime, transforms, theta, i: int, strategy, horizon: int, *,
        track_prices: bool = True,
    ):
        self.runtime = runtime
        self.i = i
        self.theta = float(theta[i])
        self.theta_bar = env.agents[i].distribution.theta_bar
        self.strategy = strategy
        self.truthful = isinstance(strategy, Truthful)
        self.track_prices = track_prices
        self.transform = transforms.get(i)
        self.opponents = _opponents(runtime, transforms, theta, i)
        self.discs = _discounts(env.delta, horizon)
        self.n_rho = runtime._n_rho[i]
        self.w_weight = 1.0 - env.delta
        self.tables: dict[float, list[float]] = {}
        if self.transform is not None:
            self.values = _value_flat(env, i, self.theta).tolist()
            self.beta = self.transform.beta.tolist()

    def _table(self, theta_hat: float) -> list[float]:
        table = self.tables.get(theta_hat)
        if table is None:
            table = self.runtime.index_flat(self.i, self.transform, theta_hat).tolist()
            self.tables[theta_hat] = table
        return table

    def run(self, streams: ExperienceStreams) -> _Run:
        """Agent i's value, payments and win times on ``streams``' address."""
        times: list[int] = []
        if self.transform is None:  # dormant at its period-0 report: never allocated
            return _Run(0.0, 0.0, times)
        i, n_rho, runtime, values = self.i, self.n_rho, self.runtime, self.values
        paths = runtime.trajectories(streams)
        levels = paths.levels(self.opponents)
        seen, holders, w_memo = levels.values, levels.holders, levels.w_memo
        arms = self.opponents.arms
        traj = paths.states[i]
        truthful, report, theta, theta_bar = (
            self.truthful, self.strategy.report, self.theta, self.theta_bar
        )
        alpha, beta, weight, tables = self.transform.alpha, self.beta, self.w_weight, self.tables
        track_prices = self.track_prices
        value = price = 0.0
        n = m = 0
        s = traj[0]
        if truthful:
            table = self._table(theta)
            b = table[s]
        for t, disc in enumerate(self.discs, 1):
            if not truthful:
                rep = report(t, theta, s // n_rho, theta_bar)
                table = tables.get(rep.theta_hat)
                if table is None:
                    table = self._table(rep.theta_hat)
                b = table[rep.e_hat * n_rho + s % n_rho]
            level = seen[m] if m < len(seen) else levels.grow(paths)
            if b > 0.0 and (b > level or (b == level and i < holders[m])):
                value += disc * values[s]
                if track_prices:
                    w = w_memo.get(m)
                    if w is None:
                        w = w_memo[m] = runtime.w_minus(arms, levels.states[m])
                    price += disc * ((weight * w - beta[s % n_rho]) / alpha)
                times.append(t)
                n += 1
                if n == len(traj):
                    paths.extend(i)
                s = traj[n]
                if truthful:
                    b = table[s]
            elif level > 0.0:
                m += 1
            elif truthful:
                break  # the zero arm takes this round and, with nothing moving, every later one
        return _Run(value, price, times)


# ---------------------------------------------------------------------------
# Entry fees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeeQuadData:
    """Per-path pass shared by the fee and envelope machinery.

    values[j] / payments[j]: agent i's discounted value and payments on
    coupled path j under truthful play at the given reports.
    integral[j]: the information rent on path j, the integral over z in
    [lower, report] of agent i's discounted allocated theta-sensitivity
    with its pegged report and type both set to z; identical experience
    trajectories at every z and in the value run (the j-th allocation
    consumes the j-th draw everywhere).  Computed by ``_RentWalk``.
    error[j]: bound on integral[j]'s error from locating breakpoints.
    pieces[j]: the walk's merges on path j, each O(horizon) over the
    path's trajectories, plus its root-finder's margin evaluations (an
    index table at z and a lookup per won round each): one merge per
    constant piece of the integrand on scale-homogeneous arms; on other
    arms, per breakpoint, the evaluations and two merges (see
    ``_RentWalk``).  The path's one value run (a truthful ``_Deviator``
    merge) comes on top.
    """

    lower: float
    values: np.ndarray
    payments: np.ndarray
    integral: np.ndarray
    error: np.ndarray
    pieces: np.ndarray

    def price_paths(self) -> np.ndarray:
        return self.values - self.integral

    def integral_paths(self) -> np.ndarray:
        return self.integral

    def quad_error(self) -> float:
        """Bound on the error of the mean integral."""
        return float(np.mean(self.error)) if len(self.error) else 0.0


_BRACKET_LEVELS = 40  # breakpoints of non-homogeneous arms are bracketed to (report - lower) * 2**-40
_PROBE_TABLES = 4096  # index tables a walk keeps for margin evaluations
_ROOT_XTOL = 1e-15
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)  # the smallest rtol _brentq accepts
_ROOT_MAXITER = 100
_TIE = math.ulp(0.0)  # a zero margin, moved to the losing side


def _brentq(f, xa: float, xb: float, *, xtol: float, rtol: float) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent 1973), step for
    step as ``scipy.optimize.brentq`` takes it, so it returns the same
    bits: inverse quadratic or secant steps while they shrink fast
    enough, bisection otherwise, until the bracket is within
    xtol + rtol * |x|.  Raises ValueError on a bracket whose ends have
    the same sign or on a NaN value, and RuntimeError when it has not
    converged after ``_ROOT_MAXITER`` iterations."""
    if xtol <= 0 or rtol < _ROOT_RTOL:
        raise ValueError(f"tolerances too small: xtol {xtol!r}, rtol {rtol!r}")

    def at(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = at(xpre), at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    return _brent_steps(at, xpre, fpre, xcur, fcur, xtol, rtol)[0]


def _brent_steps(
    at, xpre: float, fpre: float, xcur: float, fcur: float, xtol: float, rtol: float
) -> tuple[float, float, float, float]:
    """``_brentq``'s iterations from the bracket [xpre, xcur], whose
    values ``fpre``, ``fcur`` are nonzero and of opposite signs.  Returns
    (x, f(x), y, f(y)): x is the best point, and on a stop by width f(y)
    has the other sign and |y - x| < xtol + rtol * |x| (f(x) == 0 stops
    at once).  rtol may be 0 here; then xtol must be at least twice the
    spacing of floats in the bracket, so that every step moves."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < tol:
            return xcur, fcur, xblk, fblk
        step = None
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - tol):
                step = stry
        if step is None:  # bisect
            spre = scur = sbis
        else:
            spre, scur = scur, step
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0 else -tol)
        fcur = at(xcur)
    raise RuntimeError(f"Brent's method did not converge in {_ROOT_MAXITER} iterations; last x {xcur!r}")


def _scale_at(z: float, env: Environment, i: int) -> float:
    """alpha(z) * A(z): a scale-homogeneous agent's index scale with its
    report and type both at z (0 when dormant)."""
    tr = transform_or_dormant(env, i, z)
    return 0.0 if tr is None else tr.alpha * env.agents[i].value.a(z)


class _Piece(NamedTuple):
    """Agent i's side of a path at one point of the walk."""

    sums: list[float]  # discounted rent weight per public state over its rounds
    times: list[int]  # the rounds it wins
    crit: float  # largest critical scale among them (scale walk)
    states: list[int]  # i's flat state at each of them (table walk)
    beaten: list[float]  # the level i beat at each of them (table walk)


class _RentWalk:
    """Exact information-rent integral of agent i, one coupled path at a time.

    On a path, agent i's allocated theta-sensitivity is a step function
    of z times A'(z).  Lowering z only lowers i's index, so the rounds
    it wins are unchanged until one is lost; the rounds i wins, and
    hence its states at them (the j-th allocation uses the j-th draw),
    are then constant on each piece.  The walk goes from the report down
    to the dormancy threshold one piece at a time and integrates each
    piece in closed form as sums . (A(z_hi) - A(z_lo)), with A and the
    sums per public state (sums weighted by B for multiplicative
    values).  Precondition: allocation is monotone in the report, which
    ``validate_assumptions`` checks the assumptions for and
    ``audit_monotone_allocation`` audits.

    Nothing is replayed.  The others are truthful, so the levels they
    present form one sequence per path (``_Levels``) whatever i does; it
    is the cached sequence the path's value run and every audit run of
    agent i against the same opponents read.  Agent i takes a round iff
    its index beats the current level; ties go against it, whatever the
    holder's id (they happen at isolated z, and losing them makes each
    merge the path of the open piece just below its z; the value run,
    at the report itself, keeps ``allocate``'s tie rule).  One
    O(horizon) merge of i's trajectory against the levels (``_merge``)
    gives a piece's win times, rent sums and critical scale; the path
    costs one value run plus one merge per piece.

    Scale-homogeneous arms (multiplicative, C = 0) have index table
    scale(z) * base, and i takes a round iff level / b < scale on the
    base table: that quotient is also the round's critical scale, so
    wins and breakpoints come from one comparison and cannot disagree by
    an ulp.  The next breakpoint is the largest critical scale of the
    rounds i won, mapped back to z by a root of scale(z); the next merge
    runs at that scale.  No index table is built.  The error bound is
    the root's bracket times the jump.

    Other arms merge on the index table at z (``_table_walk``).  A
    piece's merge records, per round i won, its state s and the level it
    beat; the margin F(z) = min over them of table_z[s] - level is
    continuous and nondecreasing in z under the precondition, and the
    piece ends where F reaches 0 (F <= 0 loses: ties go against i).
    Brent's steps (``_brent_steps``) on F, one index table and a few
    lookups each, bracket that point to [a, b] with F(a) <= 0 < F(b)
    and b - a below (report - threshold) * 2**-``_BRACKET_LEVELS``; the
    width times the jump bounds the error.  The merge at a gives the
    next piece.  The merge at b, and at the threshold when F stays
    positive there, must reproduce the piece's win times, else
    RuntimeError: a broken monotonicity fails loudly.  A breakpoint
    takes about 6 tables on the ``ar1-bound`` benchmark's AR(1) arms,
    and at most ``_ROOT_MAXITER`` (Brent's rule bisects when
    interpolation stalls; past that it raises RuntimeError).

    Each step lowers the walk's variable (the scale, or z) strictly, and
    a chain of win-time vectors that only move later has at most
    horizon * (horizon + 1) / 2 + 1 members, so more pieces than that
    raise RuntimeError.
    """

    def __init__(self, env, runtime, transforms, theta_hat, i: int, lo: float, horizon: int):
        self.env = env
        self.runtime = runtime
        self.i = i
        self.horizon = horizon
        self.theta = list(theta_hat)
        self.hi = self.theta[i]
        self.lo = min(lo, self.hi)
        self.opponents = _opponents(runtime, transforms, self.theta, i)
        self.discs = _discounts(env.delta, horizon)
        agent = env.agents[i]
        self.n_rho = agent.public.n
        self.value = agent.value
        if isinstance(self.value, MultiplicativeValue):
            self.weights = self.value.b.reshape(-1).tolist()
        else:
            self.weights = [1.0] * agent.n_states
        self.max_pieces = horizon * (horizon + 1) // 2 + 1
        self.scale_hi = runtime._homogeneous_scale(i, transforms[i], self.hi)
        if self.scale_hi is not None:
            self.base = runtime._base(i)[0].tolist()
            self.scale_lo = self._scale(self.lo)
        else:
            self.tol = (self.hi - self.lo) * 2.0**-_BRACKET_LEVELS
            # Brent's smallest step is xtol / 2, which must move z
            self.xtol = max(self.tol, 2.0 * math.ulp(self.hi))
            self.tables = {self.hi: runtime.index_flat(i, transforms[i], self.hi).tolist()}

    def _a(self, z: float) -> np.ndarray:
        if isinstance(self.value, MultiplicativeValue):
            return np.full(self.n_rho, self.value.a(z))
        return np.array([self.value.a(z, r) for r in range(self.n_rho)])

    def _da(self, z: float) -> np.ndarray:
        if isinstance(self.value, MultiplicativeValue):
            return np.full(self.n_rho, self.value.da(z))
        return np.array([self.value.da(z, r) for r in range(self.n_rho)])

    def _scale(self, z: float) -> float:
        return _scale_at(z, self.env, self.i)

    def _merge(self, paths: _Trajectories, levels: _Levels, table: list, scale: float | None) -> _Piece:
        """Agent i's rounds on the path against the others' levels, with
        the base table and ``scale``, or (``scale`` None) the table at z."""
        i, n_rho, weights = self.i, self.n_rho, self.weights
        traj = paths.states[i]
        seen = levels.values
        sums = [0.0] * n_rho
        times: list[int] = []
        beaten: list[float] = []
        crit = -math.inf
        n = m = 0
        s = traj[0]
        b = table[s]
        for t, disc in enumerate(self.discs, 1):
            level = seen[m] if m < len(seen) else levels.grow(paths)
            if scale is None:
                win = b > level
                if win:
                    beaten.append(level)
            else:
                c = level / b if b > 0.0 else math.inf
                win = c < scale
                if win and c > crit:
                    crit = c
            if win:
                sums[s % n_rho] += disc * weights[s]
                times.append(t)
                n += 1
                if n == len(traj):
                    paths.extend(i)
                s = traj[n]
                b = table[s]
            elif level > 0.0:
                m += 1
            else:
                break  # the zero arm takes this round and, with nothing moving, every later one
        # the j-th win is at the j-th state of the trajectory
        return _Piece(sums, times, crit, traj[: len(beaten)], beaten)

    def integrate(self, streams: ExperienceStreams) -> tuple[float, float, int]:
        """(integral, error bound, pieces) on the path at ``streams``' address."""
        paths = self.runtime.trajectories(streams)
        levels = paths.levels(self.opponents)
        if self.scale_hi is not None:
            return self._scale_walk(paths, levels)
        return self._table_walk(paths, levels)

    def _too_many_pieces(self):
        return RuntimeError(
            f"fee walk for agent {self.i} passed {self.max_pieces} pieces "
            f"(horizon {self.horizon}); allocation is not monotone in the report"
        )

    def _z_at_scale(self, crit: float, z_top: float) -> tuple[float, float]:
        """Highest z in [lo, z_top] with scale(z) <= crit, and the width
        of the bracket that holds it."""
        if crit <= self.scale_lo:
            return self.lo, 0.0
        if self._scale(z_top) <= crit:  # within rounding of the piece top
            return z_top, 0.0
        z = _brentq(lambda z: self._scale(z) - crit, self.lo, z_top, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL)
        return z, 2.0 * (_ROOT_XTOL + _ROOT_RTOL * abs(z))

    def _scale_walk(self, paths: _Trajectories, levels: _Levels) -> tuple[float, float, int]:
        total = err = 0.0
        z_top, scale = self.hi, self.scale_hi
        above = None  # (sums, z, bracket width) at the last breakpoint
        for pieces in range(1, self.max_pieces + 1):
            piece = self._merge(paths, levels, self.base, scale)
            sums = np.array(piece.sums)
            if above is not None:
                err += above[2] * abs(float((above[0] - sums) @ self._da(above[1])))
            if not piece.times:
                return total, err, pieces
            crit = piece.crit
            z_bot, width = self._z_at_scale(crit, z_top)
            if not (crit < scale and z_bot <= z_top):
                raise RuntimeError(
                    f"fee walk for agent {self.i} did not descend: scale {scale!r} -> "
                    f"{crit!r}, z {z_top!r} -> {z_bot!r}"
                )
            total += float(sums @ (self._a(z_top) - self._a(z_bot)))
            if z_bot <= self.lo:
                return total, err, pieces
            above = (sums, z_bot, width)
            z_top, scale = z_bot, crit
        raise self._too_many_pieces()

    def _table(self, z: float) -> list:
        table = self.tables.get(z)
        if table is None:
            tr = transform_or_dormant(self.env, self.i, z)
            table = self.runtime.build_table(self.i, tr, z).tolist()
            if len(self.tables) < _PROBE_TABLES:
                self.tables[z] = table
        return table

    def _at(self, z: float, paths: _Trajectories, levels: _Levels) -> _Piece:
        return self._merge(paths, levels, self._table(z), None)

    def _margin(self, piece: _Piece, z: float) -> float:
        """The piece's margin F(z), with F = 0 moved just below 0 (a tie
        loses), so that Brent's steps see a strict sign change."""
        table = self._table(z)
        f = min([table[s] - level for s, level in zip(piece.states, piece.beaten)])
        return f if f != 0.0 else -_TIE

    def _reproduces(self, piece: _Piece, z: float, paths: _Trajectories, levels: _Levels) -> None:
        if self._at(z, paths, levels).times != piece.times:
            raise RuntimeError(
                f"fee walk for agent {self.i}: the merge at z={z!r} does not reproduce its "
                f"piece's win times although their margin is positive; allocation is not "
                f"monotone in the report"
            )

    def _table_walk(self, paths: _Trajectories, levels: _Levels) -> tuple[float, float, int]:
        total = err = 0.0
        top = self._at(self.hi, paths, levels)
        z_top = c_top = self.hi  # merge point and integration bound of the piece
        pieces = 1  # merges and margin evaluations
        for _ in range(self.max_pieces):
            if not top.times:
                return total, err, pieces
            sums = np.array(top.sums)
            f_lo = self._margin(top, self.lo)
            pieces += 1
            if f_lo > 0.0:  # the piece reaches the threshold
                self._reproduces(top, self.lo, paths, levels)
                total += float(sums @ (self._a(c_top) - self._a(self.lo)))
                return total, err, pieces + 1
            evals = [0]

            def margin(z: float) -> float:
                evals[0] += 1
                return self._margin(top, z)

            x, fx, y, _ = _brent_steps(
                margin, self.lo, f_lo, z_top, margin(z_top), self.xtol, 0.0
            )
            a, b = (x, y) if fx < 0.0 else (y, x)
            below = self._at(a, paths, levels)
            self._reproduces(top, b, paths, levels)
            pieces += evals[0] + 2
            c = 0.5 * (a + b)
            total += float(sums @ (self._a(c_top) - self._a(c)))
            err += abs(float((sums - np.array(below.sums)) @ (self._a(b) - self._a(a))))
            top, z_top, c_top = below, a, c
        raise self._too_many_pieces()


def fee_quadrature(
    env: Environment,
    theta_hat,
    i: int,
    nodes: int = 16,
    paths: int = 2000,
    seed: int = 0,
    horizon: int | None = None,
    runtime: MechanismRuntime | None = None,
    stream_purpose: str = "fee",
    path_offset: int = 0,
) -> FeeQuadData:
    """One coupled Monte Carlo pass behind the period-0 charge.

    Per path: one truthful ``_Deviator`` merge at the reports for agent
    i's value and payments, then ``_RentWalk``'s exact information-rent
    integral over [dormancy threshold, report]; below the threshold the
    integrand is zero (a dormant agent is never allocated).  The walk
    merges agent i's trajectory against the others' levels once per
    constant piece of the integrand and needs allocation to be monotone
    in the report.
    ``nodes`` is accepted for call compatibility and unused: no
    quadrature rule is involved.
    """
    runtime = runtime or MechanismRuntime(env)
    if horizon is None:
        horizon = tail_horizon(env.delta, env.k, env.v_max)
    theta_hat = [float(x) for x in theta_hat]
    lo = runtime.threshold(i)
    values, payments, integral, error = (np.zeros(paths) for _ in range(4))
    pieces = np.zeros(paths, dtype=int)
    transforms = _active_transforms(env, runtime, theta_hat)
    if i in transforms:
        walk = _RentWalk(env, runtime, transforms, theta_hat, i, lo, horizon)
        truthful = _Deviator(env, runtime, transforms, theta_hat, i, Truthful(), horizon)
        for j in range(paths):
            streams = ExperienceStreams(seed, path_offset + j, stream_purpose)
            values[j], payments[j], _ = truthful.run(streams)
            integral[j], error[j], pieces[j] = walk.integrate(streams)
    return FeeQuadData(
        lower=lo,
        values=values,
        payments=payments,
        integral=integral,
        error=error,
        pieces=pieces,
    )


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    if len(x) <= 1:
        return (float(x[0]) if len(x) else 0.0), 0.0
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))


def entry_price_P(
    env: Environment,
    theta_hat,
    i: int,
    nodes: int = 16,
    rollouts: int = 2000,
    seed: int = 0,
    horizon: int | None = None,
    runtime: MechanismRuntime | None = None,
) -> Estimate:
    """Target payment of agent i given the period-0 reports: value minus
    the information rent integral, over coupled rollouts with the rent
    integrated exactly on each (``fee_quadrature``; ``nodes`` is unused)."""
    data = fee_quadrature(env, theta_hat, i, nodes, rollouts, seed, horizon, runtime)
    mean, se = _mean_se(data.price_paths())
    return Estimate(mean=mean, std_error=se, quad_error=data.quad_error())


def entry_fee_p0(
    env: Environment,
    theta_hat,
    i: int,
    nodes: int = 16,
    rollouts: int = 2000,
    seed: int = 0,
    horizon: int | None = None,
    runtime: MechanismRuntime | None = None,
) -> Estimate:
    """Period-0 charge: the target payment minus the expected discounted
    future per-round payments under truthful continuation, estimated on
    the same coupled streams (``nodes`` is unused)."""
    data = fee_quadrature(env, theta_hat, i, nodes, rollouts, seed, horizon, runtime)
    mean, se = _mean_se(data.price_paths() - data.payments)
    return Estimate(mean=mean, std_error=se, quad_error=data.quad_error())


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


def run_episode(
    env: Environment,
    strategies,
    seed: int,
    horizon: int | None = None,
    *,
    theta=None,
    runtime: MechanismRuntime | None = None,
    fee_mode: str = "full",
    entry_fees=None,
    fee_rollouts: int = 2000,
    monitored: bool = False,
    tail_eps: float = 1e-4,
) -> Transcript:
    """Execute one full episode of the mechanism.

    fee_mode: "full" estimates period-0 charges with the fee machinery,
    "skip" records zero fees (for audits that difference them out);
    explicit ``entry_fees`` override both.  ``monitored`` replaces the
    reported private experience with the true one inside allocation and
    pricing (the complete-monitoring counterfactual).
    """
    runtime = runtime or MechanismRuntime(env)
    if horizon is None:
        horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    if theta is None:
        theta = [
            env.agents[i].distribution.sample(substream(seed, "types", i))
            for i in range(env.k)
        ]
    theta = [float(t) for t in theta]
    theta_hat0 = [
        strategies[i].report(0, theta[i], 0, env.agents[i].distribution.theta_bar).theta_hat
        for i in range(env.k)
    ]
    transforms = _active_transforms(env, runtime, theta_hat0)
    dormant = tuple(i not in transforms for i in range(env.k))
    if entry_fees is not None:
        fees = tuple(float(f) for f in entry_fees)
        fee_se = tuple(0.0 for _ in fees)
        fee_tag = "provided"
    elif fee_mode == "skip":
        fees = tuple(0.0 for _ in range(env.k))
        fee_se = fees
        fee_tag = "skipped"
    else:
        ests = [
            entry_fee_p0(
                env, theta_hat0, i, rollouts=fee_rollouts, seed=seed, horizon=horizon, runtime=runtime
            )
            if not dormant[i]
            else Estimate(0.0, 0.0)
            for i in range(env.k)
        ]
        fees = tuple(e.mean for e in ests)
        fee_se = tuple(e.std_error for e in ests)
        fee_tag = "estimated"
    streams = ExperienceStreams(seed, 0, "episode")
    res = _run_rounds(
        env,
        runtime,
        transforms,
        theta,
        strategies,
        streams,
        horizon,
        monitored=monitored,
        record_rounds=True,
    )
    transcript = Transcript(
        seed=seed,
        delta=env.delta,
        horizon=horizon,
        theta=tuple(theta),
        theta_hat0=tuple(theta_hat0),
        dormant=dormant,
        entry_fees=fees,
        entry_fee_se=fee_se,
        fee_mode=fee_tag,
        w_mode="exact_dp",
        tail_bound=env.delta**horizon * env.k * env.v_max / (1.0 - env.delta),
        rounds=res.rounds,
    )
    transcript.revenue = transcript.recompute_revenue()
    transcript.utilities = transcript.recompute_utilities(env)
    transcript.values = tuple(res.values)
    return transcript


# ---------------------------------------------------------------------------
# Marginal contribution diagnostic
# ---------------------------------------------------------------------------


def marginal_contribution(
    env: Environment,
    transcript: Transcript,
    t: int,
    i: int,
    runtime: MechanismRuntime | None = None,
) -> float:
    """Round-t marginal contribution of agent i to the optimal
    transformed surplus: [W - W_without_i](state_t) minus the discounted
    expectation of the same gap after the winner's transition, each W
    by ``MechanismRuntime.w_minus`` over the active arms with and
    without agent i (no joint state space, so no size cap).

    Equals alpha_i * (v_i - price) on rounds agent i wins and 0
    otherwise.
    """
    runtime = runtime or MechanismRuntime(env)
    if not 1 <= t <= len(transcript.rounds):
        raise DomainError(f"round {t} outside transcript")
    round_rec = transcript.rounds[t - 1]
    transforms = _active_transforms(env, runtime, transcript.theta_hat0)
    if i not in transforms:
        return 0.0
    active = sorted(transforms)
    arms = [(j, transforms[j], float(round_rec.theta_hat[j])) for j in active]
    pos_i = active.index(i)
    arms_minus = arms[:pos_i] + arms[pos_i + 1 :]
    comp = [int(round_rec.e_hat[j]) * runtime._n_rho[j] + int(round_rec.rho[j]) for j in active]

    def gap(c: list[int]) -> float:
        return runtime.w_minus(arms, c) - runtime.w_minus(arms_minus, c[:pos_i] + c[pos_i + 1 :])

    here = gap(comp)
    winner = round_rec.winner
    if winner == 0:
        expected = here
    else:
        wi = winner - 1
        if wi not in active:
            raise DomainError("transcript winner not in active set")
        pos_w = active.index(wi)
        agent = env.agents[wi]
        e, rho = divmod(comp[pos_w], runtime._n_rho[wi])
        # next flat state e2 * n_rho + rho2 with probability h[rho, e][e2] * g[rho][rho2]
        probs = np.outer(agent.private.matrix[rho, e], agent.public.matrix[rho]).reshape(-1)
        expected = 0.0
        for s2 in np.nonzero(probs)[0]:
            nxt = list(comp)
            nxt[pos_w] = int(s2)
            expected += float(probs[s2]) * gap(nxt)
    return here - env.delta * expected
