"""Gittins indices of transformed arms, the index allocation rule, and
weighted social welfare.

The index of a state is the supremum over stopping times of expected
discounted reward per expected discounted unit of time.  Every index is
exact, from one largest-remaining-index pass by state elimination
(Sonin 2008): retire the live state with the largest reward-per-time
ratio, then fold it into the others so that the chain passes through
it.  One kernel does that pass at every arm size, on dict rows with a
heap of live ratios, folding live rows only.  Arms above
``DENSE_SWEEP_MAX_STATES`` states are refused (DomainError) before
anything is allocated.  The independent cross-checks (an exhaustive
stopping-set oracle, the O(n^4) largest-remaining-index recursion and
the exact value of the index policy over the joint state space) live
with the tests, in ``tests/oracles.py``.

What the sweep reads from the transition alone an agent model compiles
once (``AgentModel.graph``, an ``environments.SweepGraph`` read from
its kernels in one pass) and every arm compiled from it shares: the
starting dict rows and predecessor sets per discount factor, each
state's successors, and, on a chain with an edge to a lower state, the
strongly connected components in reverse topological order.  An index
build then supplies only the rewards: it folds a copy of the rows, and
clips each index to its reachable reward range in one reverse pass over
the states (or the components).

The sweep also keeps each row as it was at retirement and each step's
fold, so ``HitColumns`` can replay, one state at a time, that state's
discounted time to leave the states retired so far; from those
``retirement_surplus`` evaluates Whittle's retirement formula for the
optimal value of one or more arms against the zero arm, with no product
state space.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .environments import AgentModel, DomainError, Environment, SweepGraph, sample_transition
from .rng import substream
from .virtual import VirtualTransform, transform_or_dormant, xi_table

__all__ = [
    "CompiledArm",
    "compile_arm",
    "compile_reward_arm",
    "index_of_states",
    "start_indices",
    "hit_discounts",
    "HitColumns",
    "retirement_surplus",
    "allocate",
    "index_policy_rollout",
    "WelfareEstimate",
    "weighted_welfare",
    "optimal_stop_value",
    "tail_horizon",
]


def tail_horizon(delta: float, k: int, v_max: float, eps: float = 1e-4) -> int:
    """Smallest T with delta^T * k * v_max / (1 - delta) < eps."""
    scale = max(k, 1) * max(v_max, 1e-300) / (1.0 - delta)
    if scale <= eps:
        return 1
    return max(1, int(math.ceil(math.log(eps / scale) / math.log(delta))))


# ---------------------------------------------------------------------------
# Single-arm compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledArm:
    """One agent's arm for a fixed theta: flat rewards and ``graph``,
    the transition as the index sweep reads it
    (``environments.SweepGraph``, built from the kernels G and H),
    shared with the agent model when compiled from one.

    States are flattened as s = e * n_rho + rho.
    """

    rewards: np.ndarray  # (n,)
    delta: float
    n_e: int
    n_rho: int
    graph: SweepGraph = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.rewards.shape[0]

    def state_index(self, e: int, rho: int) -> int:
        return e * self.n_rho + rho

    @cached_property
    def transition(self):
        """The transition as a ``scipy.sparse.csr_matrix``, P[(e, rho),
        (e2, r2)] = H[rho, e, e2] * G[rho, r2] over the nonzero factors,
        columns ascending in each row, for the value iterations and the
        product-space oracles.  Built from the graph's kernels on first
        use, one Kronecker block H[rho] x G[rho] per public state with
        its rows moved to e * n_rho + rho; imports scipy then."""
        import scipy.sparse as sp

        g, h = self.graph.kernels
        blocks = sp.vstack([sp.kron(h[rho], g[rho : rho + 1], format="csr") for rho in range(self.n_rho)], format="csr")
        p = blocks[np.arange(self.n).reshape(self.n_rho, self.n_e).T.reshape(-1)]  # row rho * n_e + e moves to s
        p.sort_indices()
        return p


def compile_reward_arm(agent: AgentModel, rewards: np.ndarray, delta: float) -> CompiledArm:
    """Arm with an explicit per-(e, rho) reward table."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (agent.private.n, agent.public.n):
        raise DomainError("reward table shape does not match state spaces")
    if not np.all(np.isfinite(rewards)):
        raise DomainError("non-finite reward on some state")
    return CompiledArm(
        rewards=rewards.reshape(-1).copy(),
        delta=delta,
        n_e=agent.private.n,
        n_rho=agent.public.n,
        graph=agent.graph,
    )


def compile_arm(
    env: Environment, agent_id: int, transform: VirtualTransform, theta: float
) -> CompiledArm:
    rewards = xi_table(transform, env, agent_id, theta)
    return compile_reward_arm(env.agents[agent_id], rewards, env.delta)


# Arms up to this many states take the exact sweep; larger ones are
# refused before anything is allocated.  The sweep keeps each row as it
# was at retirement and each step's fold, with no n x n array: on the
# 3,025-state sponsored search arm (cap 9) they peak at about 16 MiB.
# Sponsored search has 4,356 states at cap 10 (53k at the default cap 20).
DENSE_SWEEP_MAX_STATES = 4096
# Value-iteration sweeps before a solve gives up and raises.
VI_MAX_SWEEPS = 200_000


def _reward_range(arm: CompiledArm) -> tuple[np.ndarray, np.ndarray]:
    """Min and max reward over each state's reachable set (itself
    included), in one pass that finishes each state after every state it
    reaches: each takes its own reward, then the extremes of what its
    edges enter, in the graph's order.  On a graph whose every edge goes
    to an equal or higher state (``SweepGraph.forward``: sponsored search
    and the shipped AR(1) chains) that is a reverse pass over the flat
    states, each its own component, with no Tarjan pass; a self-loop
    reads the state's own reward, which moves nothing.  Otherwise it is a
    pass over the strongly connected components in reverse topological
    order (``SweepGraph.reach``), each taking its own rewards first.
    Both compare in the same order, so a forward graph's bounds have the
    bits its components would give, ties of +0 and -0 included."""
    graph = arm.graph
    r = arm.rewards.tolist()
    if graph.forward:
        succ = graph.succ
        lo, hi = r[:], r[:]
        for s in range(len(r) - 1, -1, -1):
            a = b = r[s]
            for c in succ[s]:
                x = lo[c]
                if x < a:
                    a = x
                x = hi[c]
                if x > b:
                    b = x
            lo[s], hi[s] = a, b
        return np.array(lo), np.array(hi)
    reach = graph.reach
    lo, hi = [], []
    for first, rest, succ in reach.sccs:
        a = b = r[first]
        for s in rest:
            x = r[s]
            if x < a:
                a = x
            elif x > b:
                b = x
        for c in succ:
            x = lo[c]
            if x < a:
                a = x
            x = hi[c]
            if x > b:
                b = x
        lo.append(a)
        hi.append(b)
    return np.array(lo)[reach.comp], np.array(hi)[reach.comp]


def _sweep_indices(arm: CompiledArm) -> tuple[np.ndarray, np.ndarray, HitColumns]:
    """Exact index of every state by state elimination (``_eliminate``),
    the order in which the states were retired, and the sweep's record,
    from which ``HitColumns`` replays hit discounts.  Each index is
    clipped to its reachable reward range, so a state whose reachable
    rewards are constant keeps its reward bit-exactly.  Arms above
    ``DENSE_SWEEP_MAX_STATES`` states raise DomainError before anything
    is allocated."""
    _refuse_above_cutoff(arm.n)
    out, order, hits = _eliminate(arm)
    lo, hi = _reward_range(arm)
    return np.clip(out, lo, hi), order, hits


def _refuse_above_cutoff(n: int) -> None:
    if n > DENSE_SWEEP_MAX_STATES:
        raise DomainError(
            f"index sweep refused: {n} states exceeds DENSE_SWEEP_MAX_STATES = {DENSE_SWEEP_MAX_STATES}"
        )


def _eliminate(arm: CompiledArm) -> tuple[np.ndarray, np.ndarray, HitColumns]:
    """``_sweep_indices`` before the clip.

    Q (discounted transitions among live states) is one ``{column:
    value}`` dict per live row, with the set of live rows that step to
    each column, both from the arm's graph (``SweepGraph.sweep_rows``);
    r (discounted reward) and d (discounted time) accrued from each
    state until the chain first returns to a live state are lists, and
    a max-heap holds the live states' r/d (stale entries are skipped).
    Retiring the live state a with the largest r/d records
    that ratio as its index; folding it in updates every live row p that
    can step to a: with q = Q[p, a] popped and inv = 1 / (1 - Q[a, a]),
    each entry j != a of row a gives Q[p, j] + q * (inv * Q[a, j]), and r
    and d likewise, row a's values read before the fold.  Only entries
    with q != 0 and Q[a, j] != 0 change: a product that underflows to 0
    adds no entry, and r is left alone when r[a] == 0.  Q's rows sum to
    at most delta, so the pivot is at least 1 - delta.  Ties go to the
    lowest state.  Retired rows never fold: each stays as it was at
    retirement, and each step keeps its fold and inv * d[a].
    """
    n = arm.n
    rows, preds = arm.graph.sweep_rows(arm.delta)
    r = arm.rewards.tolist()
    d = [1.0] * n
    key = [-x for x in r]  # -(r / d) with d = 1
    heap = list(zip(key, range(n)))
    heapq.heapify(heap)
    live = [True] * n
    out = [0.0] * n
    order = [0] * n
    folds: list[list[tuple[int, float]]] = []  # step k's (j, inv * Q[a, j])
    sds: list[float] = []  # step k's inv * d[a]
    for k in range(n):
        neg, a = heapq.heappop(heap)
        while not live[a] or neg != key[a]:
            neg, a = heapq.heappop(heap)
        out[a] = r[a] / d[a]
        order[k] = a
        live[a] = False
        row_a = rows[a]
        inv = 1.0 / (1.0 - row_a.get(a, 0.0))
        fold = [(j, inv * v) for j, v in row_a.items() if j != a]
        ra = r[a]
        sr, sd = inv * ra, inv * d[a]
        folds.append(fold)
        sds.append(sd)
        targets = preds[a]
        targets.discard(a)
        for j, _ in fold:
            preds[j].discard(a)
        for p in targets:
            row = rows[p]
            q = row.pop(a)
            for j, s in fold:
                v = row.get(j)
                if v is None:
                    v = q * s
                    if v:  # an underflowed product is no entry
                        row[j] = v
                        preds[j].add(p)
                else:
                    row[j] = v + q * s
            d[p] = d[p] + q * sd
            if ra != 0.0:
                r[p] = r[p] + q * sr
            key[p] = neg = -(r[p] / d[p])
            heapq.heappush(heap, (neg, p))
    return np.array(out), np.array(order), HitColumns(arm.delta, order, rows, folds, sds, d)


class HitColumns:
    """An arm's hit discounts, one state's column at a time, replayed
    from an index sweep's record.

    ``column(x)[k]`` is E_x[delta^tau], tau being the time the chain
    leaves the first k+1 retired states (so 1 while x is not among
    them): 1 - (1 - delta) d from x's discounted time d after k+1 steps
    of a sweep that kept folding x's row once x retired.  The sweep
    (``_eliminate``) stops folding it there; ``column`` folds a copy
    of the row into every later retired state it reaches, in retirement
    order and starting with x's own self-loop, with the sweep's
    expressions (the step's kept fold and inv * d[a]) on the same
    entries, so it gives the same bits as that sweep.  Live rows never
    read retired ones, so they fold alike either way.  Each column is
    computed once.
    """

    __slots__ = ("_delta", "_order", "_pos", "_rows", "_folds", "_sds", "_d", "_memo")

    def __init__(self, delta: float, order: list[int], rows, folds, sds, d):
        self._delta, self._order = delta, order
        self._pos = [0] * len(order)
        for k, a in enumerate(order):
            self._pos[a] = k
        self._rows, self._folds, self._sds, self._d = rows, folds, sds, d
        self._memo: dict[int, np.ndarray] = {}

    def column(self, x: int) -> np.ndarray:
        """State x's hit discounts, one per step (read-only, shared)."""
        col = self._memo.get(x)
        if col is None:
            col = self._memo[x] = self._replay(x)
            col.flags.writeable = False
        return col

    def _replay(self, x: int) -> np.ndarray:
        order, pos, folds, sds = self._order, self._pos, self._folds, self._sds
        col = np.ones(len(order))
        scale = 1.0 - self._delta
        row = dict(self._rows[x])
        done, d = pos[x], self._d[x]  # col is final before step done; x's d from there on
        ahead = [pos[j] for j in row]  # every entry retires at or after x
        heapq.heapify(ahead)
        while ahead:
            k = heapq.heappop(ahead)
            if k != done:
                col[done:k] = 1.0 - d * scale
                done = k
            q = row.pop(order[k])
            for j, s in folds[k]:
                v = row.get(j)
                if v is None:
                    v = q * s
                    if v:  # an underflowed product is no entry
                        row[j] = v
                        heapq.heappush(ahead, pos[j])
                else:
                    row[j] = v + q * s
            d = d + q * sds[k]
        col[done:] = 1.0 - d * scale
        return col


def hit_discounts(arm: CompiledArm) -> tuple[np.ndarray, np.ndarray, HitColumns]:
    """(indices, levels, hits) from one index sweep.  ``indices`` is
    every state's index, as ``index_of_states`` gives it.  ``levels[k]``
    is the index of the (k+1)-th retired state, non-increasing;
    ``hits.column(x)[k]`` is E_x[delta^tau], tau being the time the
    chain leaves the first k+1 retired states (``HitColumns``).
    Against a retirement level in [levels[k+1], levels[k]) the arm plays
    exactly on those states, so entry k is there the derivative of its
    retirement value in a lump-sum retirement reward.  Refuses
    (DomainError) arms above ``DENSE_SWEEP_MAX_STATES``, as
    ``_sweep_indices`` does."""
    indices, order, hits = _sweep_indices(arm)
    # clipping moves indices by rounding only; keep the levels monotone
    return indices, np.minimum.accumulate(indices[order]), hits


def retirement_surplus(factors: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """(1 - delta) * W for W the optimal discounted reward of some arms
    played against the zero arm, by Whittle's retirement formula
    (Whittle 1980): with lam = (1 - delta) * (lump-sum retirement
    reward), (1 - delta) W = integral over lam > 0 of
    1 - prod_j E[delta^tau_j(lam)], tau_j(lam) being arm j's stopping
    time when played alone against lam.  Each factor is constant between
    the arm's index levels, so the integral is a finite sum.  One
    ``(levels, hits)`` per arm: its positive levels from
    ``hit_discounts`` and the matching entries of its hit column at its
    current state (``HitColumns.column``).
    """
    cuts = np.unique(np.concatenate([np.zeros(1), *(lv for lv, _ in factors)]))
    prod = np.ones(len(cuts) - 1)
    for levels, hits in factors:
        if not len(levels):
            continue  # the arm never plays: factor 1
        # levels >= the top of each interval: the arm's continuation set there
        count = len(levels) - np.searchsorted(levels[::-1], cuts[1:], side="left")
        prod *= np.where(count > 0, hits[np.maximum(count - 1, 0)], 1.0)
    return float(np.sum((1.0 - prod) * np.diff(cuts)))


def index_of_states(arm: CompiledArm, states: np.ndarray) -> np.ndarray:
    """Exact Gittins indices of the given flat states, from one
    ``_sweep_indices`` pass; refuses (DomainError) arms above
    ``DENSE_SWEEP_MAX_STATES``.  A state whose reachable rewards are
    constant gets its reward bit-exactly, and identical inputs give
    identical bits."""
    return _sweep_indices(arm)[0][states]


def start_indices(arm: CompiledArm) -> list[float | None]:
    """The index of every state reachable from flat state 0, where every
    engine starts an agent, and None at every other state, so that a
    stray read fails loudly: one ``index_of_states`` pass over the
    graph's start closure alone (``SweepGraph.start``).  No edge leaves
    the closure, so its rows, reward ranges and retirement order among
    its states are the full sweep's, and each index has the full sweep's
    bits.  Refuses (DomainError) by the full arm's size, as
    ``index_of_states`` does."""
    _refuse_above_cutoff(arm.n)
    states, graph = arm.graph.start(arm.delta)
    closure = CompiledArm(arm.rewards[states], arm.delta, len(states), 1, graph)
    out: list[float | None] = [None] * arm.n
    for s, x in zip(states, index_of_states(closure, np.arange(len(states))).tolist()):
        out[s] = x
    return out


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


def allocate(index_values, zero_arm_index: float = 0.0) -> int:
    """Winner under the index rule: 0 means the zero arm (no
    allocation), i in 1..k means agent i.

    The zero arm wins ties at exactly its own index; ties among agents
    go to the lowest agent id.
    """
    best, best_i = -np.inf, -1
    for i, g in enumerate(index_values):
        if g > best:
            best, best_i = g, i
    if best_i < 0 or best <= zero_arm_index:
        return 0
    return best_i + 1


# ---------------------------------------------------------------------------
# Weighted social welfare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WelfareEstimate:
    mean: float
    std_error: float


# No index or price calls it; perfbench/tracing.HOOKS names it, and test_trace_shims checks every hook.
def optimal_stop_value(
    arm: CompiledArm,
    tol: float = 1e-10,
    retire: float = 0.0,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """V(s) = max(retire, xi(s) + delta E[V(s')]): play-or-retire value
    of a lone arm against a lump-sum retirement reward (0 is the zero
    arm), by value iteration from ``start`` (default: ``retire``
    everywhere).  Exact to ``tol`` in sup norm; raises RuntimeError
    after ``VI_MAX_SWEEPS`` sweeps."""
    v = np.full(arm.n, retire) if start is None else start
    stop = tol * (1.0 - arm.delta) / max(arm.delta, 1e-12)
    for _ in range(VI_MAX_SWEEPS):
        w = arm.rewards + arm.delta * (arm.transition @ v)
        np.maximum(w, retire, out=w)
        resid = float(np.max(np.abs(w - v)))
        v = w
        if resid <= stop:
            return v
    raise RuntimeError(
        f"value iteration at retirement value {retire!r} did not converge in {VI_MAX_SWEEPS} sweeps"
    )


def index_policy_rollout(
    agents: list[AgentModel],
    tables: list[np.ndarray],
    rewards: list[np.ndarray],
    start: list[int],
    delta: float,
    horizon: int,
    paths: int,
    seed: int,
    purpose: str,
) -> np.ndarray:
    """Discounted reward of the index policy over some arms and the zero
    arm, truncated at ``horizon``, on each of ``paths`` runs from the
    flat states ``start``.  Arm j moves as ``agents[j]``'s experience
    process, with flat index table ``tables[j]`` and flat rewards
    ``rewards[j]``.  Run p draws from ``substream(seed, purpose, p)``,
    two uniforms per allocation for ``sample_transition``."""
    n_rho = [agent.public.n for agent in agents]
    totals = np.zeros(paths)
    for path in range(paths):
        gen = substream(seed, purpose, path)
        states = list(start)
        disc = 1.0
        for _ in range(horizon):
            w = allocate([table[s] for table, s in zip(tables, states)])
            if w > 0:
                j = w - 1
                totals[path] += disc * rewards[j][states[j]]
                e, rho = divmod(states[j], n_rho[j])
                e, rho = sample_transition(
                    agents[j], e, rho, float(gen.random()), float(gen.random())
                )
                states[j] = e * n_rho[j] + rho
            disc *= delta
    return totals


# No price calls it; perfbench/tracing.HOOKS names it, and test_trace_shims checks every hook.
def joint_optimal_value(arms: list[CompiledArm], delta: float, tol: float = 1e-10) -> np.ndarray:
    """Unconstrained optimum of the joint allocation MDP by value
    iteration (actions: each included arm or the zero arm)."""
    sizes = [a.n for a in arms]
    shape = tuple(sizes) if sizes else (1,)
    v = np.zeros(shape)
    stop = tol * (1.0 - delta) / max(delta, 1e-12)
    for _ in range(VI_MAX_SWEEPS):
        best = delta * v  # zero arm: nothing moves, no reward
        for j, arm in enumerate(arms):
            moved = np.moveaxis(v, j, 0)
            rest = moved.shape[1:]
            cont = (arm.transition @ moved.reshape(arm.n, -1)).reshape((arm.n,) + rest)
            q = arm.rewards.reshape((arm.n,) + (1,) * len(rest)) + delta * cont
            best = np.maximum(best, np.moveaxis(q, 0, j))
        resid = float(np.max(np.abs(best - v)))
        v = best
        if resid <= stop:
            return v.reshape(-1)
    raise RuntimeError("value iteration did not converge")


# Pricing never calls it; perfbench/record_reference.py checks recorded prices against its rollout.
def weighted_welfare(
    env: Environment,
    reports,
    theta,
    e,
    rho,
    exclude: int | None = None,
    mode: str = "rollout",
    *,
    n_paths: int = 2000,
    horizon: int | None = None,
    seed: int = 0,
    tail_eps: float = 1e-4,
) -> WelfareEstimate:
    """Expected discounted transformed reward of the index policy over
    the included arms plus the zero arm, started from the given joint
    state, as the mean of ``n_paths`` runs of ``index_policy_rollout``
    on ``"welfare"`` streams; ``std_error`` adds the truncation tail.
    ``mode`` must be ``"rollout"``.

    Dormant agents are excluded from the arm set (their rewards are
    non-positive pointwise, so this leaves the optimum unchanged while
    matching the mechanism's hard exclusion).
    """
    if mode != "rollout":
        raise DomainError(f"unknown welfare mode {mode!r}: the one accepted mode is 'rollout'")
    included: list[int] = []
    transforms: dict[int, VirtualTransform] = {}
    for i in range(env.k):
        if i == exclude:
            continue
        t = transform_or_dormant(env, i, float(reports[i]))
        if t is not None:
            included.append(i)
            transforms[i] = t
    if not included:
        return WelfareEstimate(mean=0.0, std_error=0.0)
    arms = [compile_arm(env, i, transforms[i], float(theta[i])) for i in included]
    if horizon is None:
        horizon = tail_horizon(env.delta, len(arms), env.v_max, tail_eps)
    totals = index_policy_rollout(
        [env.agents[i] for i in included],
        [index_of_states(a, np.arange(a.n)) for a in arms],
        [a.rewards for a in arms],
        [arms[j].state_index(int(e[i]), int(rho[i])) for j, i in enumerate(included)],
        env.delta,
        horizon,
        n_paths,
        seed,
        "welfare",
    )
    tail = env.delta**horizon * len(arms) * env.v_max / (1.0 - env.delta)
    se = float(np.std(totals, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return WelfareEstimate(mean=float(np.mean(totals)), std_error=se + tail)
