"""Agent environments: type distributions, experience kernels, separable values.

An agent's state is (theta, e, rho): a persistent real type theta drawn
once from its distribution, a private experience state e, and a public
experience state rho.  Experience evolves only on allocation (a bandit
process: idle arms are frozen).  The private kernel is structurally
unable to read theta, and values decompose additively or
multiplicatively across (theta, experience) -- the two properties the
mechanism's optimality rests on.

State spaces are finite and index-based internally; kernels carry label
tuples for I/O.  Built-ins discretize continuous beliefs (Beta
posteriors capped at a total observation count, AR(1) running values
quantized to a grid).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "TypeDistribution",
    "uniform_type",
    "power_type",
    "capped_exponential_type",
    "PublicKernel",
    "PrivateKernel",
    "AdditiveValue",
    "MultiplicativeValue",
    "ArmState",
    "AgentModel",
    "SweepGraph",
    "Environment",
    "make_environment",
    "value",
    "sample_transition",
    "AssumptionCheck",
    "ValidityReport",
    "validate_assumptions",
    "beta_posterior_states",
    "sponsored_search",
    "finite_chain",
    "ar1",
]

_ROW_SUM_TOL = 1e-12


class DomainError(ValueError):
    """State or parameter outside an agent's declared spaces."""


# ---------------------------------------------------------------------------
# Type distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeDistribution:
    """Distribution of the persistent type theta on [0, theta_bar].

    cdf and pdf are callables on the support; sample draws one theta
    from a caller-owned generator.
    """

    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    theta_bar: float
    sample: Callable[[np.random.Generator], float]
    name: str = ""


def uniform_type(theta_bar: float = 1.0) -> TypeDistribution:
    return TypeDistribution(
        cdf=lambda t: min(max(t / theta_bar, 0.0), 1.0),
        pdf=lambda t: 1.0 / theta_bar,
        theta_bar=theta_bar,
        sample=lambda rng: theta_bar * float(rng.random()),
        name=f"uniform[0,{theta_bar:g}]",
    )


def power_type(theta_bar: float = 1.0, p: float = 2.0) -> TypeDistribution:
    """F(t) = (t/theta_bar)^p.  p=2 is the triangular density 2t on [0,1]."""
    if p <= 0:
        raise DomainError("power_type exponent must be positive")
    return TypeDistribution(
        cdf=lambda t: min(max((t / theta_bar) ** p, 0.0), 1.0),
        pdf=lambda t: p * max(t, 0.0) ** (p - 1.0) / theta_bar**p,
        theta_bar=theta_bar,
        sample=lambda rng: theta_bar * float(rng.random()) ** (1.0 / p),
        name=f"power[p={p:g}]",
    )


def capped_exponential_type(rate: float = 1.0, theta_bar: float = 1.0) -> TypeDistribution:
    """Exponential(rate) capped at theta_bar: theta = min(X, theta_bar).

    Deliberately irregular negative control: the inverse hazard rate is
    constant 1/rate on the interior (memoryless), so the monotone-hazard
    check fails; the cap also puts an atom at theta_bar, so the density
    does not integrate to one.
    """

    def cdf(t: float) -> float:
        if t >= theta_bar:
            return 1.0
        return 1.0 - float(np.exp(-rate * max(t, 0.0)))

    def sample(rng: np.random.Generator) -> float:
        return min(float(rng.exponential(1.0 / rate)), theta_bar)

    return TypeDistribution(
        cdf=cdf,
        pdf=lambda t: rate * float(np.exp(-rate * max(t, 0.0))),
        theta_bar=theta_bar,
        sample=sample,
        name=f"capped_exponential[rate={rate:g}]",
    )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _check_rows(matrix: np.ndarray, what: str) -> None:
    sums = matrix.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
        bad = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
        raise DomainError(f"{what} row {bad} sums to {sums[bad]!r}, expected 1")
    if np.any(matrix < -_ROW_SUM_TOL):
        raise DomainError(f"{what} has negative entries")


def _sampling_rows(matrix: np.ndarray) -> np.ndarray:
    """Cumulative rows for inverse-CDF sampling, set to +inf from each
    row's last state with positive mass on.  A row's rounded total can
    fall an ulp short of 1 (sponsored search at cap 5 has such rows), so
    a draw at or past it lands on that last state instead of on a
    zero-mass state or past the end."""
    cum = np.cumsum(matrix, axis=-1)
    n = matrix.shape[-1]
    last = n - 1 - np.argmax(matrix[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(n) >= last[..., None]] = np.inf
    return cum


class _Sampled:
    """A kernel's sampling rows, for ``sample_transition``."""

    @cached_property
    def cumulative(self) -> np.ndarray:
        """``_sampling_rows`` of the kernel's matrix, built on first use."""
        return _sampling_rows(self.matrix)

    def sampling_row(self, *at: int) -> list[float]:
        """Row ``at`` of ``cumulative`` as a Python list, which
        ``sample_transition`` bisects; each built on first use."""
        row = self._lists.get(at)
        if row is None:
            row = self._lists[at] = self.cumulative[at].tolist()
        return row

    @cached_property
    def _lists(self) -> dict[tuple[int, ...], list[float]]:
        return {}


@dataclass(frozen=True)
class PublicKernel(_Sampled):
    """Transition G(rho' | rho) over a finite public-state set."""

    matrix: np.ndarray  # (n_rho, n_rho)
    labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("public kernel must be square")
        if len(self.labels) != m.shape[0]:
            raise DomainError("public kernel labels do not match matrix")
        _check_rows(m, "public kernel")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PrivateKernel(_Sampled):
    """Transition H(e' | e, rho) over a finite private-state set.

    Indexed [rho, e, e']: the private move may condition on the public
    state but never on theta (the kernel has no theta argument at all).
    """

    matrix: np.ndarray  # (n_rho, n_e, n_e)
    labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DomainError("private kernel must be (n_rho, n_e, n_e)")
        if len(self.labels) != m.shape[1]:
            raise DomainError("private kernel labels do not match matrix")
        _check_rows(m, "private kernel")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


# ---------------------------------------------------------------------------
# Separable value functions
# ---------------------------------------------------------------------------


class _Separable:
    """Both forms as v(theta, e, rho) = A(theta, rho) * W[e, rho] +
    K[e, rho]: ``a_row`` and ``da_row`` give A and dA/dtheta per public
    state, ``weights`` is W, and ``table`` and ``slope`` give v and
    dv/dtheta over all (e, rho) cells at theta, shape (n_e, n_rho).
    Every reader of v or dv/dtheta goes through these; only the code
    whose mathematics differs by form (the checks, the value bound and
    the transform) looks at the form."""

    def slope(self, theta: float) -> np.ndarray:
        return self.da_row(theta) * self.weights


@dataclass(frozen=True)
class AdditiveValue(_Separable):
    """v(theta, e, rho) = a(theta, rho) + b[e, rho]: W = 1, K = b."""

    a: Callable[[float, int], float]
    da: Callable[[float, int], float]
    b: np.ndarray  # (n_e, n_rho)

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "weights", np.ones_like(self.b))

    def a_row(self, theta: float) -> np.ndarray:
        return np.array([self.a(theta, rho) for rho in range(self.b.shape[1])], dtype=float)

    def da_row(self, theta: float) -> np.ndarray:
        return np.array([self.da(theta, rho) for rho in range(self.b.shape[1])], dtype=float)

    def table(self, theta: float) -> np.ndarray:
        return self.a_row(theta) + self.b


@dataclass(frozen=True)
class MultiplicativeValue(_Separable):
    """v(theta, e, rho) = a(theta) * b[e, rho] - c[rho]: A = a, W = b,
    K = -c."""

    a: Callable[[float], float]
    da: Callable[[float], float]
    b: np.ndarray  # (n_e, n_rho)
    c: np.ndarray  # (n_rho,)

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "weights", self.b)

    def a_row(self, theta: float) -> np.ndarray:
        return np.full(self.b.shape[1], self.a(theta), dtype=float)

    def da_row(self, theta: float) -> np.ndarray:
        return np.full(self.b.shape[1], self.da(theta), dtype=float)

    def table(self, theta: float) -> np.ndarray:
        return self.a(theta) * self.b - self.c


SeparableValue = AdditiveValue | MultiplicativeValue


@dataclass(frozen=True)
class ArmState:
    """One agent's full state: persistent theta plus (e, rho) indices.

    e and rho change only when this agent is allocated; theta never
    changes.
    """

    theta: float
    e: int
    rho: int


class Reach(NamedTuple):
    """A transition graph's strongly connected components (SCCs) in
    reverse topological order: every SCC comes after each SCC its edges
    enter.  Every state of an SCC reaches the same states."""

    comp: np.ndarray  # (n,) each state's SCC
    sccs: list  # per SCC: (a state, its other states, the SCCs its edges enter, maybe repeated)


def _reach(succs: list[list[int]]) -> Reach:
    """``Reach`` of a graph given as each state's successors (every
    listed successor is an edge, a zero probability included), by
    Tarjan's algorithm (Tarjan 1972) without recursion, O(n + edges): it
    closes each SCC after every SCC it reaches, so the SCCs come out in
    reverse topological order."""
    n = len(succs)
    order = [0] * n  # visit number from 1; 0 while unvisited
    low = [0] * n
    comp = [-1] * n  # each state's SCC, numbered as they close
    sccs = []
    stack: list[int] = []
    visits = 0
    for root in range(n):
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        stack.append(root)
        path = [(root, iter(succs[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:  # resumes after the last edge taken
                if not order[w]:  # descend into w
                    visits += 1
                    order[w] = low[w] = visits
                    stack.append(w)
                    path.append((w, iter(succs[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is on the stack
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:  # v roots an SCC: close it
                    c = len(sccs)
                    rest = []
                    w = stack.pop()
                    while w != v:
                        comp[w] = c
                        rest.append(w)
                        w = stack.pop()
                    comp[v] = c
                    succ = [d for s in (v, *rest) for w in succs[s] if (d := comp[w]) != c]
                    sccs.append((v, tuple(rest), tuple(succ)))  # the collector stops tracking int tuples
    return Reach(np.array(comp, dtype=np.intp), sccs)


Rows = tuple[list[dict[int, float]], list[set[int]]]


def _read_kernels(g: np.ndarray, h: np.ndarray, delta: float) -> tuple[Rows, list[list[int]], bool]:
    """``SweepGraph._read`` of P[(e, rho), (e2, r2)] = H[rho, e, e2] *
    G[rho, r2] over flat states e * n_rho + rho, straight from the
    kernels: per state, its nonzero H factors (e2 ascending) times its
    nonzero G factors (r2 ascending), so columns ascend in each row.
    Every row of a kernel has a nonzero entry, so every state has a
    successor, the lowest first."""
    n_rho = g.shape[0]
    n = h.shape[1] * n_rho
    g_rows = [[] for _ in range(n_rho)]  # per rho: (r2, G[rho, r2]) with G != 0
    rho, r2 = np.nonzero(g)
    for a, b, y in zip(rho.tolist(), r2.tolist(), g[rho, r2].tolist()):
        g_rows[a].append((b, y))
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    preds: list[set[int]] = [set() for _ in range(n)]
    succ: list[list[int]] = [[] for _ in range(n)]
    e, rho, e2 = np.nonzero(h.transpose(1, 0, 2))  # (e, rho, e2) in flat-state order
    flat, bases = (e * n_rho + rho).tolist(), (e2 * n_rho).tolist()
    for s, base, x, gs in zip(flat, bases, h[rho, e, e2].tolist(), [g_rows[a] for a in rho.tolist()]):
        row, out = rows[s], succ[s]
        for b, y in gs:
            j = base + b
            out.append(j)
            v = x * y * delta
            if v:
                row[j] = v
                preds[j].add(s)
    return (rows, preds), succ, all(out[0] >= s for s, out in enumerate(succ))


class SweepGraph:
    """A transition as the index sweep (``gittins._sweep_indices``)
    reads it, derived once and shared: the sweep's starting rows per
    discount factor (``sweep_rows``), each state's successors
    (``succ``), whether every edge goes to an equal or higher state
    (``forward``), and, where one does not, the strongly connected
    components (``reach``), and the states reachable from flat state 0
    as a graph of their own (``start``).  All depend on the transition
    alone, so one agent model's graph (``AgentModel.graph``) serves the
    index build at every type and report.

    The transition is given by its kernels G (n_rho, n_rho) and H
    (n_rho, n_e, n_e), read in one pass at the first ``sweep_rows``; a
    chain given as one matrix P is the one-public-state case G = [[1]],
    H = P[None].  A graph refers to no agent model, so a model and its
    graph are freed together, by reference counting (a graph with a
    start closure by the cycle collector: the two refer to each other)."""

    __slots__ = ("kernels", "_rows", "_succ", "_forward", "_reach", "_start")

    def __init__(self, g: np.ndarray, h: np.ndarray):
        self.kernels = (g, h)
        self._rows: dict[float, Rows | None] = {}
        self._succ: list[list[int]] | None = None
        self._forward = False
        self._reach: Reach | None = None
        self._start: tuple[list[int], SweepGraph] | None = None

    def _read(self, delta: float) -> Rows:
        """One pass over the kernels (``_read_kernels``): Q = delta * P as
        one ``{column: value}`` dict per row, in ascending column order
        and without the products that are 0, and per column the set of
        rows that step to it.  The first pass also keeps ``succ`` and
        ``forward``."""
        rows, succ, forward = _read_kernels(*self.kernels, delta)
        if self._succ is None:
            self._succ, self._forward = succ, forward
        return rows

    def sweep_rows(self, delta: float) -> Rows:
        """The sweep's starting rows (``_read``) for one sweep to fold.
        The first sweep at a delta gets them read from the kernels; the
        graph keeps a pristine read from the second on and hands out
        copies, so an arm swept once keeps nothing."""
        if delta not in self._rows:
            self._rows[delta] = None
            return self._read(delta)
        rows, preds = self._kept(delta)
        return list(map(dict.copy, rows)), list(map(set.copy, preds))

    def _kept(self, delta: float) -> Rows:
        """The pristine read at delta, kept from now on (read-only)."""
        kept = self._rows.get(delta)
        if kept is None:
            kept = self._rows[delta] = self._read(delta)
        return kept

    @property
    def succ(self) -> list[list[int]]:
        """Each state's successors in ascending order, one per pair of
        nonzero factors, so a product that rounds to 0 counts as an
        edge."""
        if self._succ is None:
            self._read(1.0)  # for the structure alone: the rows are dropped
        return self._succ

    @property
    def forward(self) -> bool:
        """Whether every edge goes to an equal or higher state, so that
        each state is its own SCC and the state order is topological:
        sponsored search at every cap, the shipped AR(1) chains (one
        shock value, so the running level only rises) and every
        one-state arm."""
        self.succ
        return self._forward

    @property
    def reach(self) -> Reach:
        """The strongly connected components in reverse topological
        order (``Reach``, by ``_reach``: Tarjan's algorithm), built on
        first use.  A ``forward`` graph needs none: its states, last to
        first, are already in that order."""
        if self._reach is None:
            self._reach = _reach(self.succ)
        return self._reach

    def start(self, delta: float) -> tuple[list[int], SweepGraph]:
        """The start closure, built on first use: the flat states
        reachable from state 0 along ``succ`` (zero products included),
        ascending, and those states as a graph of their own
        (``_Closure``).  Every engine starts an agent at state 0, so a
        table read only along its trajectories needs these states alone.
        No edge leaves them and a sweep folds a state only into the
        states that step to it, so their sweep gives each of them the
        full sweep's index bit for bit (``gittins.start_indices``).  The
        read kept at ``delta``, which the closure's rows restrict, also
        gives ``succ``, so the kernels are not read for it alone."""
        if self._start is None:
            self._kept(delta)
            succ = self.succ
            seen, todo = {0}, [0]
            while todo:
                for j in succ[todo.pop()]:
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            states = sorted(seen)
            self._start = states, _Closure(self, states)
        return self._start


class _Closure(SweepGraph):
    """A successor-closed set of a graph's states (``SweepGraph.start``)
    as a graph of its own, its k-th lowest state numbered k, with no
    kernels.  Its rows and predecessor sets at a delta are the parent's
    kept read restricted and renumbered, and its successors the parent's
    renumbered, so an edge whose product is 0 stays an edge.  Ascending
    numbers keep every comparison's order: a tie in the sweep still goes
    to the lowest original state, and a ``forward`` parent has a forward
    closure, which runs no Tarjan pass."""

    __slots__ = ("_parent", "_states", "_new")

    def __init__(self, parent: SweepGraph, states: list[int]):
        self.kernels = None
        self._rows = {}
        self._reach = self._start = None
        self._parent, self._states = parent, states
        new = self._new = {s: k for k, s in enumerate(states)}
        self._succ = [[new[j] for j in parent.succ[s]] for s in states]
        self._forward = all(out[0] >= k for k, out in enumerate(self._succ))

    def _read(self, delta: float) -> Rows:
        rows, preds = self._parent._kept(delta)
        new = self._new
        return (
            [{new[j]: v for j, v in rows[s].items()} for s in self._states],
            [{new[p] for p in preds[s] if p in new} for s in self._states],
        )


@dataclass(frozen=True)
class AgentModel:
    distribution: TypeDistribution
    public: PublicKernel
    private: PrivateKernel
    value: SeparableValue

    def __post_init__(self):
        b = self.value.b
        if b.shape != (self.private.n, self.public.n):
            raise DomainError(
                f"value b table shape {b.shape} does not match state spaces "
                f"({self.private.n}, {self.public.n})"
            )
        if isinstance(self.value, MultiplicativeValue) and self.value.c.shape != (self.public.n,):
            raise DomainError("value c table does not match public states")

    @property
    def n_states(self) -> int:
        return self.private.n * self.public.n

    @cached_property
    def graph(self) -> SweepGraph:
        """The transition as the index sweep reads it (``SweepGraph``),
        read from G and H in one pass at the first sweep and shared by
        every arm compiled from this agent.  It does not depend on theta,
        and it is the one form of the transition the library keeps."""
        return SweepGraph(self.public.matrix, self.private.matrix)

    @cached_property
    def absorbing(self) -> list[bool]:
        """Per flat state s = e * n_rho + rho, whether ``sample_transition``
        maps every draw in [0, 1) back to s: in the sampling rows of G at
        rho and of H at (rho, e), the cumulative mass is <= 0 just before
        the state's own column and >= 1 at it.  An arm at such a state
        keeps its index, value and price forever.  Rows with a negative
        entry count as moving.  Built on first use."""

        def stays(matrix: np.ndarray, cum: np.ndarray) -> np.ndarray:
            """Per row j of the last two axes: cum[j, j-1] <= 0 (or j = 0)
            and cum[j, j] >= 1, with no negative entry in the row."""
            at = np.diagonal(cum, axis1=-2, axis2=-1)
            before = np.diagonal(cum, offset=-1, axis1=-2, axis2=-1)
            before = np.concatenate([np.zeros(before.shape[:-1] + (1,)), before], axis=-1)
            return (at >= 1.0) & (before <= 0.0) & np.all(matrix >= 0.0, axis=-1)

        pub = stays(self.public.matrix, self.public.cumulative)  # (n_rho,)
        priv = stays(self.private.matrix, self.private.cumulative)  # (n_rho, n_e)
        return (priv.T & pub[None, :]).reshape(-1).tolist()


@dataclass(frozen=True)
class Environment:
    """Immutable k-agent environment with a common discount factor."""

    agents: tuple[AgentModel, ...]
    delta: float
    v_max: float

    @property
    def k(self) -> int:
        return len(self.agents)


def _value_bound(agent: AgentModel, grid: int = 129) -> float:
    thetas = np.linspace(0.0, agent.distribution.theta_bar, grid).tolist()
    val = agent.value
    worst = 0.0
    if isinstance(val, MultiplicativeValue):
        a_max = max(abs(val.a(t)) for t in thetas)
        worst = a_max * float(np.max(np.abs(val.b))) + float(np.max(np.abs(val.c)))
    else:
        for rho in range(agent.public.n):
            a_max = max(abs(val.a(t, rho)) for t in thetas)
            worst = max(worst, a_max + float(np.max(np.abs(val.b[:, rho]))))
    return worst


def make_environment(agents: Sequence[AgentModel], delta: float) -> Environment:
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    if not agents:
        raise DomainError("environment needs at least one agent")
    distinct = {id(a): a for a in agents}.values()  # builders replicate one model per slot
    v_max = max(_value_bound(a) for a in distinct)
    if not np.isfinite(v_max):
        raise DomainError("value bound is not finite")
    return Environment(agents=tuple(agents), delta=delta, v_max=v_max)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def _check_state(agent: AgentModel, state: ArmState) -> None:
    if not 0 <= state.e < agent.private.n:
        raise DomainError(f"unknown private state index {state.e}")
    if not 0 <= state.rho < agent.public.n:
        raise DomainError(f"unknown public state index {state.rho}")
    if not 0.0 <= state.theta <= agent.distribution.theta_bar:
        raise DomainError(f"theta {state.theta} outside [0, theta_bar]")


def value(env: Environment, agent_id: int, state: ArmState) -> float:
    agent = env.agents[agent_id]
    _check_state(agent, state)
    return float(agent.value.table(state.theta)[state.e, state.rho])


def sample_transition(
    agent: AgentModel, e: int, rho: int, u_pub: float, u_priv: float
) -> tuple[int, int]:
    """(e', rho') after one allocation at (e, rho), by inverse CDF: the
    public state moves on ``u_pub``, then the private state on
    ``u_priv``, conditioned on the pre-transition public state.  Every
    simulated allocation moves through here, so that the j-th
    allocation's draws mean the same move in every run that shares
    them."""
    rho_next = bisect_right(agent.public.sampling_row(rho), u_pub)
    e_next = bisect_right(agent.private.sampling_row(rho, e), u_priv)
    return e_next, rho_next


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule over an odd number of samples at
    possibly unequal spacing, as ``scipy.integrate.simpson`` computes
    it: each pair of intervals (h0, h1) weighs its three samples by
    (h0 + h1) / 6 * (2 - h1 / h0, (h0 + h1)^2 / (h0 h1), 2 - h0 / h1)."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    terms = hsum / 6.0 * (
        y[0:-2:2] * (2.0 - 1.0 / ratio) + y[1::2] * (hsum * (hsum / (h0 * h1))) + y[2::2] * (2.0 - ratio)
    )
    return float(np.sum(terms))


def _check_distribution(agent_id: int, dist: TypeDistribution, grid: int) -> list[AssumptionCheck]:
    checks = []
    tb = dist.theta_bar
    ts = np.linspace(0.0, tb, grid)
    f0, f1 = dist.cdf(0.0), dist.cdf(tb)
    cdf_vals = np.array([dist.cdf(float(t)) for t in ts])
    monotone = np.all(np.diff(cdf_vals) >= -1e-12)
    ok = abs(f0) <= 1e-9 and abs(f1 - 1.0) <= 1e-9 and bool(monotone)
    checks.append(
        AssumptionCheck(
            f"agent{agent_id}.cdf_bounds",
            ok,
            "" if ok else f"F(0)={f0!r}, F(theta_bar)={f1!r}, monotone={monotone}",
        )
    )
    fine = np.linspace(0.0, tb, 8 * grid + 1)
    dens = np.array([dist.pdf(float(t)) for t in fine])
    mass = _simpson(dens, fine)
    ok = abs(mass - 1.0) <= 1e-6
    checks.append(
        AssumptionCheck(
            f"agent{agent_id}.density_mass",
            ok,
            "" if ok else f"density integrates to {mass:.8f}",
        )
    )
    interior = ts[1:-1]
    pdf_vals = np.array([dist.pdf(float(t)) for t in interior])
    bad = np.where(pdf_vals <= 0.0)[0]
    checks.append(
        AssumptionCheck(
            f"agent{agent_id}.density_positive",
            bad.size == 0,
            "" if bad.size == 0 else f"f({interior[bad[0]]:.6g}) <= 0",
        )
    )
    return checks


def _check_mhr(agent_id: int, dist: TypeDistribution, grid: int) -> AssumptionCheck:
    # Strictly decreasing inverse hazard on the interior grid; a flat
    # stretch (memoryless exponential) is a failure.
    tb = dist.theta_bar
    ts = np.linspace(0.0, tb, grid)[:-1]
    ih = []
    for t in ts:
        f = dist.pdf(float(t))
        if f <= 0.0:
            return AssumptionCheck(
                f"agent{agent_id}.monotone_hazard", False, f"f({t:.6g}) <= 0"
            )
        ih.append((1.0 - dist.cdf(float(t))) / f)
    diffs = np.diff(ih)
    bad = np.where(diffs >= -1e-12)[0]
    if bad.size:
        j = int(bad[0])
        return AssumptionCheck(
            f"agent{agent_id}.monotone_hazard",
            False,
            f"inverse hazard not decreasing at theta={ts[j + 1]:.6g} "
            f"({ih[j]:.6g} -> {ih[j + 1]:.6g})",
        )
    return AssumptionCheck(f"agent{agent_id}.monotone_hazard", True)


def _check_values(agent_id: int, agent: AgentModel, grid: int) -> list[AssumptionCheck]:
    checks = []
    tb = agent.distribution.theta_bar
    ts = np.linspace(tb / grid, tb, grid)
    val = agent.value
    if isinstance(val, MultiplicativeValue):
        a_vals = np.array([val.a(float(t)) for t in ts])
        if np.any(a_vals <= 0.0):
            j = int(np.argmax(a_vals <= 0.0))
            checks.append(
                AssumptionCheck(
                    f"agent{agent_id}.value_shape", False, f"A({ts[j]:.6g}) <= 0"
                )
            )
        elif np.any(np.diff(a_vals) < -1e-9):
            j = int(np.argmax(np.diff(a_vals) < -1e-9))
            checks.append(
                AssumptionCheck(
                    f"agent{agent_id}.value_shape",
                    False,
                    f"A decreasing at theta={ts[j + 1]:.6g}",
                )
            )
        else:
            log_a = np.log(a_vals)
            second = np.diff(log_a, 2)
            bad = np.where(second > 1e-9)[0]
            if bad.size:
                j = int(bad[0])
                checks.append(
                    AssumptionCheck(
                        f"agent{agent_id}.value_shape",
                        False,
                        f"log A not concave near theta={ts[j + 1]:.6g}",
                    )
                )
            else:
                checks.append(AssumptionCheck(f"agent{agent_id}.value_shape", True))
        nonneg = bool(np.all(val.b >= 0.0) and np.all(val.c >= 0.0))
        checks.append(
            AssumptionCheck(
                f"agent{agent_id}.experience_weights",
                nonneg and np.all(np.isfinite(val.b)) and np.all(np.isfinite(val.c)),
                "" if nonneg else "B or C has negative entries",
            )
        )
    else:
        worst: AssumptionCheck | None = None
        for rho in range(agent.public.n):
            a_vals = np.array([val.a(float(t), rho) for t in ts])
            if np.any(np.diff(a_vals) < -1e-9):
                j = int(np.argmax(np.diff(a_vals) < -1e-9))
                worst = AssumptionCheck(
                    f"agent{agent_id}.value_shape",
                    False,
                    f"A decreasing at theta={ts[j + 1]:.6g}, rho={rho}",
                )
                break
            second = np.diff(a_vals, 2)
            bad = np.where(second > 1e-9)[0]
            if bad.size:
                j = int(bad[0])
                worst = AssumptionCheck(
                    f"agent{agent_id}.value_shape",
                    False,
                    f"A not concave near theta={ts[j + 1]:.6g}, rho={rho}",
                )
                break
        checks.append(worst or AssumptionCheck(f"agent{agent_id}.value_shape", True))
        nonneg = bool(np.all(val.b >= 0.0))
        checks.append(
            AssumptionCheck(
                f"agent{agent_id}.experience_weights",
                nonneg and np.all(np.isfinite(val.b)),
                "" if nonneg else "B has negative entries",
            )
        )
    return checks


def validate_assumptions(env: Environment, grid: int = 64) -> ValidityReport:
    """Grid-based checks of the separable-environment requirements.

    Failures are report entries, never exceptions; each failing entry
    names the offending grid point.
    """
    checks: list[AssumptionCheck] = []
    for i, agent in enumerate(env.agents):
        g_ok = np.allclose(agent.public.matrix.sum(axis=1), 1.0, atol=_ROW_SUM_TOL)
        h_ok = np.allclose(agent.private.matrix.sum(axis=2), 1.0, atol=_ROW_SUM_TOL)
        checks.append(
            AssumptionCheck(
                f"agent{i}.separable_process",
                bool(g_ok and h_ok),
                "private kernel is theta-free by construction"
                if (g_ok and h_ok)
                else "kernel rows do not sum to one",
            )
        )
        checks.extend(_check_distribution(i, agent.distribution, grid))
        checks.extend(_check_values(i, agent, grid))
        checks.append(_check_mhr(i, agent.distribution, grid))
    return ValidityReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# Built-in environment families
# ---------------------------------------------------------------------------


def beta_posterior_states(prior: tuple[float, float], cap: int):
    """Enumerate Beta(prior) posterior states with at most ``cap`` total
    observations.

    Returns (labels, means, successor map) where successors[i] =
    (index after a success, index after a failure); a capped state maps
    to itself.
    """
    a0, b0 = float(prior[0]), float(prior[1])
    states = [(s, f) for n in range(cap + 1) for s in range(n + 1) for f in [n - s]]
    index = {sf: i for i, sf in enumerate(states)}
    labels = tuple(f"b{a0 + s:g}.{b0 + f:g}" for s, f in states)
    means = np.array([(a0 + s) / (a0 + b0 + s + f) for s, f in states])
    successors = []
    for s, f in states:
        if s + f >= cap:
            i = index[(s, f)]
            successors.append((i, i))
        else:
            successors.append((index[(s + 1, f)], index[(s, f + 1)]))
    return labels, means, successors


def _beta_click_kernel(labels, means, successors) -> PublicKernel:
    n = len(labels)
    g = np.zeros((n, n))
    for i in range(n):
        up, down = successors[i]
        if up == i and down == i:
            g[i, i] = 1.0
        else:
            g[i, up] += means[i]
            g[i, down] += 1.0 - means[i]
    return PublicKernel(matrix=g, labels=labels)


def sponsored_search(
    k: int,
    theta_bar: float = 1.0,
    click_prior: tuple[float, float] = (1.0, 1.0),
    purchase_prior: tuple[float, float] = (1.0, 1.0),
    cap: int = 20,
    delta: float = 0.8,
    dist: TypeDistribution | None = None,
) -> Environment:
    """Repeated ad auction: v = theta * Pr[purchase | e] * Pr[click | rho].

    rho is the click-belief Beta posterior, e the purchase-belief Beta
    posterior, each capped at ``cap`` total observations (frozen at the
    cap).  An allocation shows the ad: the click belief always updates;
    the purchase belief updates only when a click lands, which is why
    the private kernel conditions on the pre-transition rho.
    """
    rho_labels, rho_means, rho_succ = beta_posterior_states(click_prior, cap)
    e_labels, e_means, e_succ = beta_posterior_states(purchase_prior, cap)
    public = _beta_click_kernel(rho_labels, rho_means, rho_succ)
    n_rho, n_e = len(rho_labels), len(e_labels)
    h = np.zeros((n_rho, n_e, n_e))
    for r in range(n_rho):
        p_click = rho_means[r]
        for e in range(n_e):
            up, down = e_succ[e]
            if up == e and down == e:
                h[r, e, e] = 1.0
            else:
                h[r, e, up] += p_click * e_means[e]
                h[r, e, down] += p_click * (1.0 - e_means[e])
                h[r, e, e] += 1.0 - p_click
    private = PrivateKernel(matrix=h, labels=e_labels)
    val = MultiplicativeValue(
        a=lambda t: t,
        da=lambda t: 1.0,
        b=np.outer(e_means, rho_means),
        c=np.zeros(n_rho),
    )
    agent = AgentModel(
        distribution=dist or uniform_type(theta_bar),
        public=public,
        private=private,
        value=val,
    )
    return make_environment([agent] * k, delta)


def finite_chain(
    delta: float,
    agents: Sequence[AgentModel] | None = None,
    *,
    k: int = 1,
    g: np.ndarray | None = None,
    h: np.ndarray | None = None,
    value: SeparableValue | None = None,
    dist: TypeDistribution | None = None,
    e_labels: Sequence[str] | None = None,
    rho_labels: Sequence[str] | None = None,
) -> Environment:
    """Environment from explicit kernel and value tables.

    Either pass fully-built ``agents`` or a single (g, h, value, dist)
    spec replicated ``k`` times.  ``h`` may be given as (n_e, n_e) when
    the private move ignores rho.
    """
    if agents is not None:
        return make_environment(list(agents), delta)
    if g is None or h is None or value is None:
        raise DomainError("finite_chain needs agents or explicit g/h/value tables")
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.ndim == 2:
        h = np.broadcast_to(h, (g.shape[0],) + h.shape).copy()
    rho_lab = tuple(rho_labels) if rho_labels else tuple(f"p{i}" for i in range(g.shape[0]))
    e_lab = tuple(e_labels) if e_labels else tuple(f"e{i}" for i in range(h.shape[1]))
    agent = AgentModel(
        distribution=dist or uniform_type(1.0),
        public=PublicKernel(matrix=g, labels=rho_lab),
        private=PrivateKernel(matrix=h, labels=e_lab),
        value=value,
    )
    return make_environment([agent] * k, delta)


def ar1(
    k: int,
    coeff: float,
    shock: np.ndarray,
    delta: float,
    *,
    dist: TypeDistribution | None = None,
    base_g: np.ndarray | None = None,
    base_h: np.ndarray | None = None,
    grid_step: float = 0.05,
    alloc_cap: int = 25,
) -> Environment:
    """Auto-regressive values: after the n-th allocation the value is
    coeff^n * theta + w, with w evolving as w' = coeff*w + shock[e, rho].

    Encoded additively: the public state carries (base rho, allocation
    count capped at alloc_cap), the private state carries (base e,
    running shock accumulation quantized to multiples of grid_step).
    Quantization and the allocation-count cap are documented
    approximations; shrink grid_step / raise alloc_cap to tighten them.
    """
    if not 0.0 <= coeff < 1.0:
        raise DomainError("ar1 coefficient must lie in [0, 1)")
    shock = np.atleast_2d(np.asarray(shock, dtype=float))
    if np.any(shock < 0.0):
        raise DomainError("ar1 shocks must be non-negative")
    n_eb, n_rb = shock.shape
    if base_g is None:
        base_g = np.eye(n_rb)
    if base_h is None:
        base_h = np.broadcast_to(np.eye(n_eb), (n_rb, n_eb, n_eb)).copy()
    base_g = np.asarray(base_g, dtype=float)
    base_h = np.asarray(base_h, dtype=float)
    if base_h.ndim == 2:
        base_h = np.broadcast_to(base_h, (n_rb,) + base_h.shape).copy()

    w_max = float(np.max(shock)) / (1.0 - coeff) if np.max(shock) > 0 else 0.0
    n_w = int(np.floor(w_max / grid_step + 1e-9)) + 1 if w_max > 0 else 1
    n_n = alloc_cap + 1
    n_rho = n_rb * n_n
    n_e = n_eb * n_w

    rho_labels = tuple(f"p{r}.n{n}" for r in range(n_rb) for n in range(n_n))
    e_labels = tuple(f"e{e}.w{iw}" for e in range(n_eb) for iw in range(n_w))

    g = np.zeros((n_rho, n_rho))
    for r in range(n_rb):
        for n in range(n_n):
            n_next = min(n + 1, alloc_cap)
            for r2 in range(n_rb):
                g[r * n_n + n, r2 * n_n + n_next] += base_g[r, r2]

    h = np.zeros((n_rho, n_e, n_e))
    for r in range(n_rb):
        for n in range(n_n):
            rho_idx = r * n_n + n
            for e in range(n_eb):
                for iw in range(n_w):
                    w_next = coeff * iw * grid_step + shock[e, r]
                    iw_next = min(max(int(round(w_next / grid_step)), 0), n_w - 1)
                    for e2 in range(n_eb):
                        h[rho_idx, e * n_w + iw, e2 * n_w + iw_next] += base_h[r, e, e2]

    alloc_counts = np.array([n for _ in range(n_rb) for n in range(n_n)])
    w_levels = np.array([iw * grid_step for _ in range(n_eb) for iw in range(n_w)])
    powers = (coeff ** alloc_counts.astype(float)).tolist()
    val = AdditiveValue(
        a=lambda t, rho: powers[rho] * t,
        da=lambda t, rho: powers[rho],
        b=np.tile(w_levels[:, None], (1, n_rho)),
    )
    agent = AgentModel(
        distribution=dist or uniform_type(1.0),
        public=PublicKernel(matrix=g, labels=rho_labels),
        private=PrivateKernel(matrix=h, labels=e_labels),
        value=val,
    )
    return make_environment([agent] * k, delta)
