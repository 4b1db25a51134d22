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

from .environments import DomainError, Environment, MultiplicativeValue, sample_transition
from .gittins import (
    HitColumns,
    allocate,
    compile_arm,
    compile_reward_arm,
    hit_discounts,
    index_policy_rollout,
    retirement_surplus,
    start_indices,
    tail_horizon,
)
from .rng import ExperienceStreams, substream
from .virtual import (
    VirtualTransform,
    dormancy_threshold,
    inverse_hazard,
    multiplicative_alpha,
    transform_or_dormant,
    xi_table,
)

__all__ = [
    "ReportSchedule",
    "Strategy",
    "Truthful",
    "MisreportTheta0",
    "MisreportThetaAlways",
    "MisreportExperience",
    "CorrectingDeviation",
    "Estimate",
    "MechanismRuntime",
    "per_round_price",
    "entry_fee_p0",
    "fee_quadrature",
    "run_episode",
    "RoundRecord",
    "Transcript",
]


# ---------------------------------------------------------------------------
# Reports and strategies
# ---------------------------------------------------------------------------


class ReportSchedule(NamedTuple):
    """A strategy's reports for one true type, as a function of the round.

    ``theta_hat0`` is the period-0 type report.  ``segments`` lists
    ``(from_round, theta_hat)`` in ascending rounds, the first from
    round 1: the type reported from that round on until the next
    segment starts.  ``overrides`` maps a round t >= 1 to the experience
    index reported there in place of the true one; every other round
    reports the true experience."""

    theta_hat0: float
    segments: tuple[tuple[int, float], ...]
    overrides: dict[int, int]

    def theta_hat(self, t: int) -> float:
        """The type reported at round t >= 1."""
        return next(theta_hat for start, theta_hat in reversed(self.segments) if start <= t)


def _clamp(x: float, theta_bar: float) -> float:
    return min(max(x, 0.0), theta_bar)


class Strategy:
    """A reporting strategy: its report schedule for a true type,
    ``schedule(theta, theta_bar)``.  Every engine plays the schedule, read
    through ``_schedule``."""

    def schedule(self, theta: float, theta_bar: float) -> ReportSchedule:
        raise NotImplementedError


def _schedule(strategy, env: Environment, i: int, theta: float) -> ReportSchedule:
    """Agent i's report schedule under ``strategy`` at true type ``theta``,
    with ``int`` experience overrides.  An object without a ``schedule``
    raises TypeError, and an override outside the agent's private states
    DomainError, at any round, before any round is played."""
    build = getattr(strategy, "schedule", None)
    if build is None:
        raise TypeError(
            f"{type(strategy).__name__} has no report schedule: a strategy needs "
            f"a schedule(theta, theta_bar) method returning a ReportSchedule"
        )
    schedule = build(theta, env.agents[i].distribution.theta_bar)
    if not schedule.overrides:
        return schedule
    n_e = env.agents[i].private.n
    overrides = {t: int(e_hat) for t, e_hat in schedule.overrides.items()}
    for t, e_hat in overrides.items():
        if not 0 <= e_hat < n_e:
            raise DomainError(
                f"agent {i} reports experience {e_hat} at round {t}; its private states are 0..{n_e - 1}"
            )
    return schedule._replace(overrides=overrides)


class Truthful(Strategy):
    """Report the true type and the true private experience every round."""

    def schedule(self, theta: float, theta_bar: float) -> ReportSchedule:
        return ReportSchedule(theta, ((1, theta),), {})


class MisreportTheta0(Strategy):
    """Shade the period-0 type report only; truthful from t = 1 on."""

    def __init__(self, offset: float):
        self.offset = offset

    def schedule(self, theta: float, theta_bar: float) -> ReportSchedule:
        return ReportSchedule(_clamp(theta + self.offset, theta_bar), ((1, theta),), {})


class MisreportThetaAlways(Strategy):
    """Shade the type report in every round, period 0 included."""

    def __init__(self, offset: float):
        self.offset = offset

    def schedule(self, theta: float, theta_bar: float) -> ReportSchedule:
        th = _clamp(theta + self.offset, theta_bar)
        return ReportSchedule(th, ((1, th),), {})


class MisreportExperience(Strategy):
    """Truthful except the private-experience report at one round."""

    def __init__(self, round_t: int, fake_e: int):
        self.round_t = round_t
        self.fake_e = fake_e

    def schedule(self, theta: float, theta_bar: float) -> ReportSchedule:
        overrides = {self.round_t: self.fake_e} if self.round_t >= 1 else {}
        return ReportSchedule(theta, ((1, theta),), overrides)


class CorrectingDeviation(Strategy):
    """Shade the type for rounds t < correct_round, then report truth."""

    def __init__(self, offset: float, correct_round: int = 3):
        self.offset = offset
        self.correct_round = correct_round

    def schedule(self, theta: float, theta_bar: float) -> ReportSchedule:
        c = self.correct_round
        th = _clamp(theta + self.offset, theta_bar)
        segments = ((1, th), (c, theta)) if c > 1 else ((1, theta),)
        return ReportSchedule(th if c > 0 else theta, segments, {})


# ---------------------------------------------------------------------------
# Runtime caches
# ---------------------------------------------------------------------------


_TRAJECTORY_PATHS = 1024  # stream addresses whose trajectories a runtime keeps
_TABLE_KEYS = 64  # (agent, report, theta) keys whose index records (``_Index``) a runtime keeps, and as many start tables


class _Index:
    """One (agent, pegged report, theta) key's index ``table`` per flat
    state, or an agent model's base arm's, and what is read of it, each
    built on first read and kept: ``rows`` (the table as a list), the
    positive ``levels``, the hit column at a state (``hits``, from
    ``gittins.HitColumns``) and W of the arm alone against the zero arm
    (``lone``), Whittle's formula with one factor: sum_k (levels[k] -
    levels[k+1]) (1 - hits[k]) / (1 - delta) with levels[K] = 0, summed
    as levels[0] - gaps @ hits.  A scale-homogeneous key (``scaled``)
    has the base record's table and levels times its scale and the base
    arm's hit columns: a positive scale leaves every stopping set as it is.
    """

    def __init__(self, table: np.ndarray, levels: np.ndarray, columns: HitColumns, delta: float, scale=None):
        self.table = table
        self._levels = levels  # every level of the arm, non-increasing, before ``scale``
        self._scale = scale
        self._columns = columns
        self._delta = delta
        self._lone: dict[int, float] = {}

    def scaled(self, scale: float) -> _Index:
        """The record of a key whose index table is ``scale`` times this one's."""
        return _Index(scale * self.table, self._levels, self._columns, self._delta, scale)

    @functools.cached_property
    def rows(self) -> list[float]:
        return self.table.tolist()

    @functools.cached_property
    def levels(self) -> np.ndarray:
        levels = self._levels if self._scale is None else self._scale * self._levels
        return levels[: int(np.count_nonzero(levels > 0.0))]  # a prefix: levels never rise

    @functools.cached_property
    def _gaps(self) -> np.ndarray:
        return self.levels - np.append(self.levels[1:], 0.0)

    def hits(self, state: int) -> np.ndarray:
        """The hit column at ``state``, one entry per positive level."""
        return self._columns.column(state)[: len(self.levels)]

    def lone(self, state: int) -> float:
        """W of this arm alone against the zero arm from ``state``."""
        out = self._lone.get(state)
        if out is None:
            top = self.levels[0] if len(self.levels) else 0.0  # no levels: the arm never plays
            out = self._lone[state] = float((top - self._gaps @ self.hits(state)) / (1.0 - self._delta))
        return out


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
    nothing, nor does a merge for a win at an absorbing state
    (``AgentModel.absorbing``) or the rounds it adds after one, so a list
    may end short of a run's wins.

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

    Index data is kept in one record per (agent, pegged report, current
    theta) key (``_Index``: the table, its rows, levels, hit columns and
    lone-arm values), for the ``_TABLE_KEYS`` most recently used keys
    (``index``); an evicted key comes back rebuilt to the same bits.
    Multiplicative values with C = 0 use the positive-homogeneity of the
    index in the rewards: one sweep of the experience process's base arm
    gives the base record, kept per agent model, and it serves every
    (report, theta) pair through the scale alpha(report) * A(theta)
    (``scale``), a positive scale leaving every stopping set, hence the
    hit discounts, unchanged.

    A reader that no price follows reads a table only along trajectories
    from flat state 0 (``start_rows``): it takes the key's record's rows
    when the key has one, else the indices of the states reachable from
    state 0 alone (``gittins.start_indices``), kept for the
    ``_TABLE_KEYS`` most recently used keys.  Records stay whole: W_{-i}
    sums over every retirement level of an arm.

    Experience trajectories are cached per stream address
    ``(master_seed, purpose, path_id)``, the ``_TRAJECTORY_PATHS`` most
    recently used ones, so every run on an address (the audits' cells,
    the fee walk's pieces, the fees of different reports) samples each
    move once; the truthful others' levels on an address are cached with
    its trajectories.  Dormancy thresholds are cached per agent
    (``threshold``).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._transforms: dict[tuple[int, float], VirtualTransform | None] = {}
        self._records: dict[tuple[int, float, float], _Index] = {}  # least recently used first
        self._bases: dict[int, _Index] = {}
        self._paths: dict[tuple[int, str, int], _Trajectories] = {}
        self._thresholds: dict[int, float] = {}
        self._n_rho = [agent.public.n for agent in env.agents]
        # multiplicative with C = 0: xi is a scale times B (``scale``)
        self._homogeneous = [
            isinstance(agent.value, MultiplicativeValue) and not np.any(agent.value.c != 0.0)
            for agent in env.agents
        ]

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

    def scale(self, agent_id: int, report: float, theta: float) -> float | None:
        """alpha(report) * A(theta), which takes a scale-homogeneous
        agent's base arm to its index at (report, theta): 0.0 where the
        agent is dormant at the report, None for an agent that is not
        scale-homogeneous or a negative scale.  alpha is the cached
        transform's where the report has one, else the transform's own
        scalar (``virtual.multiplicative_alpha``); no transform is built
        or cached."""
        if not self._homogeneous[agent_id]:
            return None
        agent = self.env.agents[agent_id]
        key = (agent_id, report)
        if key in self._transforms:
            tr = self._transforms[key]
            alpha = None if tr is None else tr.alpha
        else:
            alpha = multiplicative_alpha(agent, report)
        if alpha is None or alpha <= 0.0:
            return 0.0
        scale = alpha * agent.value.a(theta)
        return scale if scale >= 0.0 else None

    def _base(self, agent_id: int) -> _Index:
        """The record of the experience rewards B alone, from one
        ``gittins.hit_discounts`` sweep, which refuses arms above the
        sweep's cutoff."""
        # identical agent models (replicated built-ins) share one build
        agent = self.env.agents[agent_id]
        base = self._bases.get(id(agent))
        if base is None:
            arm = compile_reward_arm(agent, agent.value.b, self.env.delta)
            base = self._bases[id(agent)] = _Index(*hit_discounts(arm), self.env.delta)
        return base

    def index(self, agent_id: int, transform: VirtualTransform, theta: float) -> _Index:
        """The record at (pegged report, theta), cached: the base record
        scaled (``scale``), or one ``hit_discounts`` sweep of the key's
        own arm for its table, levels and hit columns together."""
        key = (agent_id, transform.pegged_report, theta)
        out = self._records.pop(key, None)
        if out is None:
            scale = self.scale(agent_id, transform.pegged_report, theta)
            if scale is None:
                arm = compile_arm(self.env, agent_id, transform, theta)
                out = _Index(*hit_discounts(arm), self.env.delta)
            else:
                out = self._base(agent_id).scaled(scale)
            if len(self._records) >= _TABLE_KEYS:
                del self._records[next(iter(self._records))]  # least recently used
        self._records[key] = out
        return out

    def index_flat(self, agent_id: int, transform: VirtualTransform, theta: float) -> np.ndarray:
        """Index table at (pegged report, theta): ``index(...).table``."""
        return self.index(agent_id, transform, theta).table

    @functools.cached_property
    def _starts(self) -> dict[tuple[int, float, float], list]:
        return {}  # start tables, least recently used first

    def start_rows(self, agent_id: int, transform: VirtualTransform, theta: float) -> list:
        """The index rows at (pegged report, theta) for a reader that
        reads them only at states reachable from flat state 0 and prices
        nothing: the record's rows where the key has a record (always, on
        a scale-homogeneous agent), else its start table (None off the
        start closure, ``gittins.start_indices``), cached."""
        key = (agent_id, transform.pegged_report, theta)
        if self._homogeneous[agent_id] or key in self._records:
            return self.index(agent_id, transform, theta).rows
        starts = self._starts
        out = starts.pop(key, None)
        if out is None:
            out = start_indices(compile_arm(self.env, agent_id, transform, theta))
            if len(starts) >= _TABLE_KEYS:
                del starts[next(iter(starts))]  # least recently used
        starts[key] = out
        return out

    @functools.cached_property
    def _frames(self) -> dict[tuple[int, float, int], tuple]:
        return {}

    def _frame(self, agent_id: int, lo: float, horizon: int) -> tuple:
        """What every rent walk of the agent at threshold ``lo`` and
        ``horizon`` reads, kept across episodes: the discounts, its
        public states, ``AgentModel.absorbing``, its value, its rent
        weights per flat state, the piece bound, and on a
        scale-homogeneous agent its base record's rows and the scale at
        ``lo`` (else None, None)."""
        key = (agent_id, lo, horizon)
        out = self._frames.get(key)
        if out is None:
            agent = self.env.agents[agent_id]
            homogeneous = self._homogeneous[agent_id]
            out = self._frames[key] = (
                _discounts(self.env.delta, horizon),
                agent.public.n,
                agent.absorbing,
                agent.value,
                agent.value.weights.reshape(-1).tolist(),
                horizon * (horizon + 1) // 2 + 1,
                self._base(agent_id).rows if homogeneous else None,
                self.scale(agent_id, lo, lo) if homogeneous else None,
            )
        return out

    # -- externality values ------------------------------------------------

    def w_minus(self, others: list[tuple[int, VirtualTransform, float]], states: list[int]) -> float:
        """Optimal transformed surplus of the given arms from their flat
        states, with the zero arm available, by Whittle's retirement
        formula over the arms' hit discounts at every arity: one arm
        reads its memoized lone-arm W (``_Index.lone``), more pass each
        arm's levels and hit column at its state to
        ``gittins.retirement_surplus``, exact and O(sum of the arms'
        levels) per call once the columns are replayed.  An arm above
        the sweep's cutoff (``gittins.DENSE_SWEEP_MAX_STATES``) raises
        DomainError, as it does in every index build."""
        if not others:
            return 0.0
        if len(others) == 1:
            agent_id, tr, theta = others[0]
            return self.index(agent_id, tr, theta).lone(states[0])
        factors = []
        for (agent_id, tr, theta), s in zip(others, states):
            arm = self.index(agent_id, tr, theta)
            factors.append((arm.levels, arm.hits(s)))
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
            u = 0.0 - self.entry_fees[i]  # a zero fee gives 0.0, not -0.0
            won = [r for r in self.rounds if r.winner == i + 1]
            if won:
                values = env.agents[i].value.table(self.theta[i]).tolist()
            for r in won:
                u += self.delta ** (r.t - 1) * (values[r.true_e[i]][r.rho[i]] - r.payment)
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
    state; a strategic agent's index goes through its report schedule
    (``_schedule``, read once before round 1), on the same trajectory.
    Without ``track_prices`` a truthful agent's table is its start table
    (``MechanismRuntime.start_rows``).
    Prices are memoized within the path
    by the winner, its public state and the others' reports.  With every
    agent truthful, a round the zero arm wins, or one won at an absorbing
    state (``AgentModel.absorbing``), repeats until the horizon, so the
    later rounds are added without being played.  The winner of the
    last round does not move: nothing reads that move, so it is not
    drawn (a later run on the address draws it when it needs it, as the
    same pair).
    """
    k = env.k
    res = _EpisodeResult(k)
    paths = runtime.trajectories(streams)
    traj = paths.states
    n_rho = runtime._n_rho
    active = sorted(transforms)
    slot = {i: p for p, i in enumerate(active)}
    # truthful reports are the hot path: no schedule is read for them
    truthful = [isinstance(strategies[i], Truthful) for i in range(k)]
    strategic = [i for i in range(k) if not truthful[i]]
    schedules = {i: _schedule(strategies[i], env, i, theta[i]) for i in strategic}
    state = [0] * k  # true flat states, e * n_rho + rho
    pos = [0] * k  # allocations so far: state[i] == traj[i][pos[i]]
    # reported flat states: a strategic agent's e_hat with its true rho
    reported = state if monitored or not strategic else list(state)
    theta_hats = list(theta)
    e_hats = [0] * k
    cur_theta_hat: list[float | None] = [None] * k
    tables: list = [None] * k
    vals = [0.0] * len(active)
    read = runtime.index_flat if track_prices else runtime.start_rows
    for p, i in enumerate(active):
        if truthful[i]:
            tables[i] = read(i, transforms[i], theta[i])
            vals[p] = tables[i][0]
    strategic_slots = [(i, slot.get(i), schedules[i]) for i in strategic]
    value_cache: list[np.ndarray | None] = [None] * k
    virtual_cache: list[np.ndarray | None] = [None] * k
    prices: dict[tuple, float] = {}
    delta = env.delta
    disc = 1.0
    for t in range(1, horizon + 1):
        for i, p, schedule in strategic_slots:
            n = n_rho[i]
            th = theta_hats[i] = schedule.theta_hat(t)
            e_hats[i] = schedule.overrides.get(t, state[i] // n)
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
                value_cache[wi] = env.agents[wi].value.table(theta[wi]).reshape(-1)
            x = value_cache[wi][s]
            res.values[wi] += disc * x
            if track_virtual:
                if virtual_cache[wi] is None:
                    ih = inverse_hazard(env.agents[wi].distribution, theta[wi])
                    virtual_cache[wi] = value_cache[wi] - ih * env.agents[wi].value.slope(theta[wi]).reshape(-1)
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
        if winner > 0 and t < horizon:  # after the last round nothing reads the move
            p = pos[wi] = pos[wi] + 1
            if p == len(traj[wi]):
                paths.extend(wi)
            state[wi] = traj[wi][p]
            if truthful[wi]:
                reported[wi] = state[wi]
                vals[slot[wi]] = tables[wi][state[wi]]
        if not strategic and t < horizon and (winner == 0 or env.agents[wi].absorbing[s]):
            if winner > 0:  # payment and v are 0.0 where not tracked
                v = virtual_cache[wi][s] if track_virtual else 0.0
                for _ in range(horizon - t):
                    disc *= delta
                    res.prices[wi] += disc * payment
                    res.values[wi] += disc * x
                    res.virtual += disc * v
            res.winners.extend([winner] * (horizon - t))
            if record_rounds:
                res.rounds.extend(replace(res.rounds[-1], t=u) for u in range(t + 1, horizon + 1))
            break
        disc *= delta
    return res


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
    tables: list[list[float]]  # index rows at their types, read along their trajectories
    absorbing: list[list[bool]]  # their ``AgentModel.absorbing``


def _opponents(runtime: MechanismRuntime, transforms, theta, i: int, priced: bool = True) -> _Opponents:
    """The opponents, with their records' rows where W_{-i} of them is
    ``priced`` (it reads those records) and their start tables
    (``MechanismRuntime.start_rows``) elsewhere."""
    arms = [(j, transforms[j], float(theta[j])) for j in sorted(transforms) if j != i]
    return _Opponents(
        tuple((j, tr.pegged_report, th) for j, tr, th in arms),
        [j for j, _, _ in arms],
        arms,
        [runtime.index(*arm).rows if priced else runtime.start_rows(*arm) for arm in arms],
        [runtime.env.agents[j].absorbing for j, _, _ in arms],
    )


class _Levels:
    """The truthful others' side of one path, by how many rounds they
    have won among them.  After m such rounds ``values[m]`` is the best
    index they present (0.0 once the zero arm beats them all), ``holders[m]``
    the id of the agent presenting it (the lowest id among equals; -1 for
    the zero arm) and ``states[m]`` their flat states.  The others are
    truthful, so the sequence is the same whatever agent i does: it is
    cached on the path's ``_Trajectories`` under the others' key and read
    by every strategy of i, every report of its fee, every point of its
    rent walk and every audit grid point at the same opponent profile.
    It grows as merges read past its end (``grow``).  ``w_memo[m]`` holds
    the others' W at ``states[m]`` once a merge has priced a win at level
    m.  Level ``stuck`` (-1 until there is one) is the zero arm or a
    holder at an absorbing state (``AgentModel.absorbing``): every later
    level would be its exact copy, so a merge that loses to it keeps m.
    """

    __slots__ = ("_opponents", "_pos", "_last", "values", "holders", "states", "w_memo", "stuck")

    def __init__(self, opponents: _Opponents):
        self._opponents = opponents
        self._pos = [0] * len(opponents.agents)
        self._last = -1  # slot that won at the last level
        self.values: list[float] = []
        self.holders: list[int] = []
        self.states: list[list[int]] = []
        self.w_memo: dict[int, float] = {}
        self.stuck = -1

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
        if w == 0 or self._opponents.absorbing[w - 1][states[w - 1]]:
            self.stuck = len(self.values)
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
    does, so a run is one merge of i's trajectory against them.  Agent i
    plays its strategy's report schedule (``_schedule``), built
    once here for its type and resolved into the rounds where what i
    presents changes (``changes``): each segment's start, with the index
    rows at its reported type (``_Index.rows``, or the start table of a
    run that prices nothing and overrides no experience), and each
    experience override's round and the round after it.  Between them i
    presents that table at its state (the override's experience and its true
    public state at an override round), re-read only when i moves.

    Agent i wins iff its index b is positive and either b > level or
    b == level with i below the level's holder, which is ``allocate``'s
    rule; on a win i moves on (unless at an absorbing state, which every
    draw maps back to, or in the last round), and on a loss to a level
    that is not stuck (``_Levels``) the others' winner does (again not in
    the last round).  Once no change is ahead (the last segment, no
    override to come), a loss to a stuck level or a win at an absorbing
    state repeats until the horizon, so the merge adds the later rounds
    and stops.  A run that moved neither side read only
    the start states, which every path shares: it is kept (``fixed``, as
    is a dormant agent's) and returned for every later path.

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
        schedule = _schedule(strategy, env, i, self.theta)
        self.track_prices = track_prices
        self.transform = transforms.get(i)
        self.opponents = _opponents(runtime, transforms, theta, i, track_prices)
        self.discs = _discounts(env.delta, horizon)
        self.n_rho = runtime._n_rho[i]
        self.absorbing = env.agents[i].absorbing
        self.w_weight = 1.0 - env.delta
        self.fixed: _Run | None = None  # the run of every path, once one read no draw
        if self.transform is None:  # dormant at its period-0 report: never allocated
            self.fixed = _Run(0.0, 0.0, [])
        else:
            self.values = env.agents[i].value.table(self.theta).reshape(-1).tolist()
            self.beta = self.transform.beta.tolist()
            self.changes = self._changes(schedule, horizon)

    def _changes(self, schedule: ReportSchedule, horizon: int) -> list[tuple[int, list[float], int | None]]:
        """(round, table, experience override or None) at round 1 and at
        every later round up to ``horizon`` where what i presents changes."""
        rounds = {1} | {start for start, _ in schedule.segments}
        for t in schedule.overrides:
            rounds.update((t, t + 1))
        runtime, i, transform = self.runtime, self.i, self.transform

        def rows(theta_hat: float) -> list:
            if self.track_prices or schedule.overrides:  # an override can name a state off the start closure
                return runtime.index(i, transform, theta_hat).rows
            return runtime.start_rows(i, transform, theta_hat)

        return [
            (t, rows(schedule.theta_hat(t)), schedule.overrides.get(t))
            for t in sorted(rounds)
            if 1 <= t <= horizon
        ]

    def run(self, streams: ExperienceStreams) -> _Run:
        """Agent i's value, payments and win times on ``streams``' address."""
        if self.fixed is not None:
            return self.fixed
        times: list[int] = []
        i, n_rho, runtime, values = self.i, self.n_rho, self.runtime, self.values
        paths = runtime.trajectories(streams)
        levels = paths.levels(self.opponents)
        seen, holders, w_memo = levels.values, levels.holders, levels.w_memo
        arms = self.opponents.arms
        traj = paths.states[i]
        alpha, beta, weight = self.transform.alpha, self.beta, self.w_weight
        track_prices = self.track_prices
        changes = self.changes
        value = price = 0.0
        absorbing, discs = self.absorbing, self.discs
        n = m = 0
        s = traj[0]
        c, ahead = 0, 1  # changes applied, and the round of the next one (0: none left)
        for t, disc in enumerate(discs, 1):
            if t == ahead:
                _, table, e_hat = changes[c]
                c += 1
                ahead = changes[c][0] if c < len(changes) else 0
                b = table[s if e_hat is None else e_hat * n_rho + s % n_rho]
            level = seen[m] if m < len(seen) else levels.grow(paths)
            if b > 0.0 and (b > level or (b == level and i < holders[m])):
                x, pay = values[s], 0.0
                value += disc * x
                if track_prices:
                    w = w_memo.get(m)
                    if w is None:
                        w = w_memo[m] = runtime.w_minus(arms, levels.states[m])
                    pay = (weight * w - beta[s % n_rho]) / alpha
                    price += disc * pay
                times.append(t)
                if not ahead and absorbing[s]:  # won again in every later round
                    for disc in discs[t:]:
                        value += disc * x
                        price += disc * pay
                    times.extend(range(t + 1, len(discs) + 1))
                    break
                # an absorbing state's move is s again, whatever the draw, and
                # after the last round nothing reads the move
                if not absorbing[s] and t < len(discs):
                    n += 1
                    if n == len(traj):
                        paths.extend(i)
                    s = traj[n]
                b = table[s]  # an override round is followed by a change
            elif m != levels.stuck and t < len(discs):  # after the last round nothing reads level m + 1
                m += 1
            elif not ahead:
                break  # level m takes this round and, with nothing moving, every later one
        out = _Run(value, price, times)
        if n == 0 and m == 0:  # read traj[0] and level 0 alone, fixed by the start states
            self.fixed = out
        return out


# ---------------------------------------------------------------------------
# Entry fees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeeQuadData:
    """Per-path pass shared by the fee and envelope machinery.

    values[j] / payments[j]: agent i's discounted value and payments on
    coupled path j under truthful play at the given reports.
    integral[j]: the information rent on path j, the integral over z in
    [dormancy threshold, report] of agent i's discounted allocated theta-sensitivity
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

    values: np.ndarray
    payments: np.ndarray
    integral: np.ndarray
    error: np.ndarray
    pieces: np.ndarray

    def price_paths(self) -> np.ndarray:
        return self.values - self.integral

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
    costs one value run plus one merge per piece.  Like ``_Deviator``'s,
    a merge stops at a loss to a stuck level or a win at an absorbing
    state; a walk whose merges all moved neither side is kept (``fixed``).

    Scale-homogeneous arms (multiplicative, C = 0) have index table
    scale(z) * base, and i takes a round iff level / b < scale on the
    base table: that quotient is also the round's critical scale, so
    wins and breakpoints come from one comparison and cannot disagree by
    an ulp.  The next breakpoint is the largest critical scale of the
    rounds i won, mapped back to z by a root of scale(z); the next merge
    runs at that scale.  No index table is built.  The error bound is
    the root's bracket times the jump.

    Other arms merge on the index table at z (``_table_walk``), read
    along trajectories alone (``MechanismRuntime.start_rows``).  A
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
        self.opponents = _opponents(runtime, transforms, self.theta, i, False)
        (
            self.discs, self.n_rho, self.absorbing, self.value, self.weights, self.max_pieces, self.base,
            self.scale_lo,
        ) = runtime._frame(i, self.lo, horizon)
        self.fixed: tuple[float, float, int] | None = None  # every path's result, once one read no draw
        self._draw_free = True  # no merge of the current walk has moved either side
        self._known: tuple = (None, None)  # (z, scale(z)) at the last breakpoint (scale walk)
        self.scale_hi = runtime.scale(i, transforms[i].pegged_report, self.hi)
        if self.scale_hi is None:
            self.tol = (self.hi - self.lo) * 2.0**-_BRACKET_LEVELS
            # Brent's smallest step is xtol / 2, which must move z
            self.xtol = max(self.tol, 2.0 * math.ulp(self.hi))
            self.tables = {self.hi: runtime.start_rows(i, transforms[i], self.hi)}

    def _scale(self, z: float) -> float:
        return self.runtime.scale(self.i, z, z)

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
        absorbing, discs = self.absorbing, self.discs
        n = m = 0
        s = traj[0]
        b = table[s]
        for t, disc in enumerate(discs, 1):
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
                r, x = s % n_rho, weights[s]
                sums[r] += disc * x
                times.append(t)
                if absorbing[s]:  # won again in every later round
                    for disc in discs[t:]:
                        sums[r] += disc * x
                    times.extend(range(t + 1, len(discs) + 1))
                    break
                if t < len(discs):  # after the last round nothing reads the move
                    n += 1
                    if n == len(traj):
                        paths.extend(i)
                    s = traj[n]
                    b = table[s]
            elif m != levels.stuck and t < len(discs):  # after the last round nothing reads level m + 1
                m += 1
            else:
                break  # level m takes this round and, with nothing moving, every later one
        self._draw_free = self._draw_free and n == 0 and m == 0
        # the j-th win is at the j-th state of the trajectory (an absorbed
        # tail repeats the last pair, so it is left out)
        return _Piece(sums, times, crit, traj[: len(beaten)], beaten)

    def integrate(self, streams: ExperienceStreams) -> tuple[float, float, int]:
        """(integral, error bound, pieces) on the path at ``streams``' address."""
        if self.fixed is not None:
            return self.fixed
        paths = self.runtime.trajectories(streams)
        levels = paths.levels(self.opponents)
        self._draw_free = True
        walk = self._scale_walk if self.scale_hi is not None else self._table_walk
        out = walk(paths, levels)
        if self._draw_free:
            self.fixed = out
        return out

    def _too_many_pieces(self):
        return RuntimeError(
            f"fee walk for agent {self.i} passed {self.max_pieces} pieces "
            f"(horizon {self.horizon}); allocation is not monotone in the report"
        )

    def _z_at_scale(self, crit: float, z_top: float) -> tuple[float, float]:
        """Highest z in [lo, z_top] with scale(z) <= crit, and the width
        of the bracket that holds it.  The scale at that z is kept
        (``_known``): the next piece's top is there, and Brent's steps
        have just evaluated it."""
        if crit <= self.scale_lo:
            return self.lo, 0.0
        z_known, s_known = self._known
        s_top = s_known if z_known == z_top else self._scale(z_top)
        if s_top - crit <= 0.0:  # within rounding of the piece top
            self._known = (z_top, s_top)
            return z_top, 0.0
        # _brentq evaluates the bracket's ends first: answer with the values at hand
        scales = {self.lo: self.scale_lo, z_top: s_top}

        def f(z: float) -> float:
            s = scales.get(z)
            if s is None:
                s = scales[z] = self._scale(z)
            return s - crit

        z = _brentq(f, self.lo, z_top, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL)
        self._known = (z, scales[z])
        return z, 2.0 * (_ROOT_XTOL + _ROOT_RTOL * abs(z))

    def _scale_walk(self, paths: _Trajectories, levels: _Levels) -> tuple[float, float, int]:
        total = err = 0.0
        z_top, scale = self.hi, self.scale_hi
        above = None  # (sums, z, bracket width) at the last breakpoint
        for pieces in range(1, self.max_pieces + 1):
            piece = self._merge(paths, levels, self.base, scale)
            sums = np.array(piece.sums)
            if above is not None:
                err += above[2] * abs(float((above[0] - sums) @ self.value.da_row(above[1])))
            if not piece.times:
                return total, err, pieces
            crit = piece.crit
            z_bot, width = self._z_at_scale(crit, z_top)
            if not (crit < scale and z_bot <= z_top):
                raise RuntimeError(
                    f"fee walk for agent {self.i} did not descend: scale {scale!r} -> "
                    f"{crit!r}, z {z_top!r} -> {z_bot!r}"
                )
            total += float(sums @ (self.value.a_row(z_top) - self.value.a_row(z_bot)))
            if z_bot <= self.lo:
                return total, err, pieces
            above = (sums, z_bot, width)
            z_top, scale = z_bot, crit
        raise self._too_many_pieces()

    def _table(self, z: float) -> list:
        table = self.tables.get(z)
        if table is None:
            table = self.runtime.start_rows(self.i, transform_or_dormant(self.env, self.i, z), z)
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
                total += float(sums @ (self.value.a_row(c_top) - self.value.a_row(self.lo)))
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
            total += float(sums @ (self.value.a_row(c_top) - self.value.a_row(c)))
            err += abs(float((sums - np.array(below.sums)) @ (self.value.a_row(b) - self.value.a_row(a))))
            top, z_top, c_top = below, a, c
        raise self._too_many_pieces()


def fee_quadrature(
    env: Environment,
    theta_hat,
    i: int,
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
    in the report.  Once both are kept (``fixed``), later paths copy it.
    The value run is built first: its prices build the records of the
    keys it reads, and the walk then reads those records' rows instead
    of sweeping the same keys' start tables.
    """
    runtime = runtime or MechanismRuntime(env)
    if horizon is None:
        horizon = tail_horizon(env.delta, env.k, env.v_max)
    theta_hat = [float(x) for x in theta_hat]
    values, payments, integral, error = (np.zeros(paths) for _ in range(4))
    pieces = np.zeros(paths, dtype=int)
    transforms = _active_transforms(env, runtime, theta_hat)
    if i in transforms:
        truthful = _Deviator(env, runtime, transforms, theta_hat, i, Truthful(), horizon)
        walk = _RentWalk(env, runtime, transforms, theta_hat, i, runtime.threshold(i), horizon)
        for j in range(paths):
            streams = ExperienceStreams(seed, path_offset + j, stream_purpose)
            values[j], payments[j], _ = truthful.run(streams)
            integral[j], error[j], pieces[j] = walk.integrate(streams)
            if truthful.fixed is not None and walk.fixed is not None:  # so is every later path
                for x in (values, payments, integral, error, pieces):
                    x[j + 1 :] = x[j]
                break
    return FeeQuadData(
        values=values,
        payments=payments,
        integral=integral,
        error=error,
        pieces=pieces,
    )


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """``np.mean(x)`` and ``np.std(x, ddof=1) / sqrt(n)`` bit for bit, by
    their ufuncs in their order, without their dispatch."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n <= 1:
        return (float(x[0]) if n else 0.0), 0.0
    mean = np.add.reduce(x) / n
    d = np.subtract(x, mean)
    var = np.add.reduce(np.multiply(d, d, out=d)) / (n - 1)
    return float(mean), math.sqrt(var) / math.sqrt(n)


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
    """Period-0 charge: the target payment (value minus the information
    rent integral, ``FeeQuadData.price_paths``) minus the expected
    discounted future per-round payments under truthful continuation,
    both on the same coupled streams.  ``nodes`` is unused; the
    benchmark's ``record_reference.py`` passes it by position."""
    data = fee_quadrature(env, theta_hat, i, paths=rollouts, seed=seed, horizon=horizon, runtime=runtime)
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
    fee_rollouts: int = 2000,
    monitored: bool = False,
    tail_eps: float = 1e-4,
) -> Transcript:
    """Execute one full episode of the mechanism.

    fee_mode: "full" estimates period-0 charges with the fee machinery,
    "skip" records zero fees (for audits that difference them out); any
    other value raises DomainError.
    ``monitored`` replaces the reported private experience with the true
    one inside allocation and pricing (the complete-monitoring
    counterfactual).
    """
    if fee_mode not in ("full", "skip"):
        raise DomainError(f"unknown fee_mode {fee_mode!r}: use 'full' or 'skip'")
    runtime = runtime or MechanismRuntime(env)
    if horizon is None:
        horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    if theta is None:
        theta = [
            env.agents[i].distribution.sample(substream(seed, "types", i))
            for i in range(env.k)
        ]
    theta = [float(t) for t in theta]
    theta_hat0 = [_schedule(strategies[i], env, i, theta[i]).theta_hat0 for i in range(env.k)]
    transforms = _active_transforms(env, runtime, theta_hat0)
    dormant = tuple(i not in transforms for i in range(env.k))
    if fee_mode == "skip":
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
