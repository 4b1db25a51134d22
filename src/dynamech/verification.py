"""Executable audits of the mechanism's promised properties: the utility
envelope identity, revenue-equals-virtual-surplus, incentive
compatibility, individual rationality, allocation monotonicity in the
period-0 report, and the allocation-time coupling.

All comparative audits are paired: the compared runs consume identical
experience streams (the j-th allocation to an agent uses the j-th draw
in every run), so a truthful-vs-truthful comparison is exactly zero and
differences isolate the deviation.  Statistical acceptance is at three
standard errors computed from per-path differences.  Every audit is a
deterministic function of (environment, seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environments import DomainError, Environment
from .gittins import tail_horizon
from .mechanism import (
    CorrectingDeviation,
    FeeQuadData,
    MechanismRuntime,
    MisreportExperience,
    MisreportTheta0,
    MisreportThetaAlways,
    Truthful,
    _active_transforms,
    _Deviator,
    _mean_se,
    _RentWalk,
    _run_rounds,
    fee_quadrature,
)
from .rng import ExperienceStreams, substream
from .virtual import dormancy_threshold, transform_or_dormant

__all__ = [
    "AuditResult",
    "theta_grid",
    "default_deviations",
    "audit_envelope",
    "audit_revenue_bound",
    "audit_ic",
    "audit_ir",
    "audit_monotone_allocation",
    "audit_allocation_time_coupling",
]


@dataclass(frozen=True)
class AuditResult:
    name: str
    passed: bool
    observed: float
    threshold: float
    std_error: float
    seeds: tuple[int, ...]
    detail: str = ""
    cells: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "observed": self.observed,
            "threshold": self.threshold,
            "std_error": self.std_error,
            "seeds": list(self.seeds),
            "detail": self.detail,
            "cells": list(self.cells),
        }


def _atol(env: Environment) -> float:
    return 1e-9 * max(1.0, env.v_max / (1.0 - env.delta))


def _quantile(dist, q: float) -> float:
    lo, hi = 0.0, dist.theta_bar
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dist.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theta_grid(env: Environment, agent_id: int, n: int = 9) -> tuple[float, ...]:
    """Default audit grid: endpoints, evenly spaced interior points, and
    values straddling the dormancy threshold."""
    tb = env.agents[agent_id].distribution.theta_bar
    z = dormancy_threshold(env, agent_id)
    pts = {0.0, tb}
    if 0.0 < z < tb:
        pts.update(
            min(max(x, 0.0), tb) for x in (z - 0.05 * tb, z + 0.05 * tb, z + 0.2 * tb)
        )
    for x in np.linspace(0.0, tb, n - 2):
        if len(pts) >= n:
            break
        pts.add(float(x))
    extra = 1
    while len(pts) < n:
        pts.add(float(tb * extra / (n + 1)))
        extra += 1
    return tuple(sorted(pts)[:n])


def _pinned_types(env: Environment, agent_id: int, theta_i: float, q: float = 0.65):
    """Full type vector with opponents pinned at a fixed quantile.

    Periodic ex-post properties hold conditional on any opponent state,
    so auditing at a fixed profile is sound and keeps the entry fee a
    cacheable constant per cell.
    """
    out = []
    for j in range(env.k):
        if j == agent_id:
            out.append(float(theta_i))
        else:
            out.append(_quantile(env.agents[j].distribution, q))
    return out


def default_deviations(env: Environment, agent_id: int):
    """The fixed audit deviation set: type shading at period 0 only,
    every period, shading then correcting, and experience misreports."""
    offsets = (-0.25, -0.1, -0.05, 0.05, 0.1, 0.25)
    cells = []
    for o in offsets:
        cells.append((f"theta0{o:+g}", MisreportTheta0(o)))
        cells.append((f"theta_always{o:+g}", MisreportThetaAlways(o)))
        cells.append((f"correcting{o:+g}", CorrectingDeviation(o)))
    n_e = env.agents[agent_id].private.n
    if n_e > 1:
        cells.append(("experience_r1", MisreportExperience(1, 1)))
        cells.append(("experience_r3", MisreportExperience(3, min(2, n_e - 1))))
    cells.append(("truthful_control", Truthful()))
    return cells


# ---------------------------------------------------------------------------
# Utility estimation helpers
# ---------------------------------------------------------------------------


def _utility_paths(
    env: Environment,
    runtime: MechanismRuntime,
    theta,
    strategy,
    agent_id: int,
    seed: int,
    purpose: str,
    n_paths: int,
    horizon: int,
) -> np.ndarray:
    """Per-path discounted (value - per-round payments) of one agent
    playing ``strategy`` while every other agent is truthful: one
    ``mechanism._Deviator`` merge per path against the others' levels,
    which the runtime caches per path and opponent profile, so every
    strategy and grid point of the agent reads the same sequence."""
    theta = [float(t) for t in theta]
    theta_hat0 = list(theta)
    theta_hat0[agent_id] = strategy.report(
        0, theta[agent_id], 0, env.agents[agent_id].distribution.theta_bar
    ).theta_hat
    transforms = _active_transforms(env, runtime, theta_hat0)
    run = _Deviator(env, runtime, transforms, theta, agent_id, strategy, horizon)
    out = np.zeros(n_paths)
    for j in range(n_paths):
        res = run.run(ExperienceStreams(seed, j, purpose))
        out[j] = res.value - res.price
    return out


class _FeeCache:
    """Per-path fee estimates keyed by the full period-0 report vector.

    Fees for different report vectors share stream addresses, so fee
    differences are themselves paired estimators.
    """

    def __init__(self, env, runtime, paths, seed, horizon):
        self.env = env
        self.runtime = runtime
        self.paths = paths
        self.seed = seed
        self.horizon = horizon
        self._data: dict[tuple, FeeQuadData] = {}

    def fee_paths(self, agent_id: int, theta_hat0) -> np.ndarray:
        key = (agent_id, tuple(float(x) for x in theta_hat0))
        data = self._data.get(key)
        if data is None:
            data = self._data[key] = fee_quadrature(
                self.env,
                theta_hat0,
                agent_id,
                paths=self.paths,
                seed=self.seed,
                horizon=self.horizon,
                runtime=self.runtime,
            )
        return data.price_paths() - data.payments


# ---------------------------------------------------------------------------
# Envelope identity
# ---------------------------------------------------------------------------


def audit_envelope(
    env: Environment,
    theta,
    agent_id: int,
    seeds: tuple[int, ...] = (0,),
    *,
    paths: int = 400,
    fee_paths: int = 400,
    tail_eps: float = 1e-8,
    runtime: MechanismRuntime | None = None,
) -> AuditResult:
    """U_i(theta) - U_i(0, theta_-i) against the allocated-derivative
    integral, with common streams between the two sides.

    The right side is ``fee_quadrature``'s rent integral on the audit's
    own streams, exact piece by piece when allocation is monotone in the
    report; the left side charges the fee the mechanism
    actually computes (``_FeeCache``, on the fee streams).  A fee
    machinery that disagrees with the right side beyond three standard
    errors plus the reported breakpoint error fails the audit.
    """
    runtime = runtime or MechanismRuntime(env)
    seed = seeds[0]
    horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    theta = [float(t) for t in theta]

    data = fee_quadrature(
        env, theta, agent_id, paths=paths, seed=seed, horizon=horizon, runtime=runtime,
        stream_purpose="envelope",
    )
    rhs_paths = data.integral_paths()
    lhs_core = data.values - data.payments  # same streams as rhs_paths
    fee = _FeeCache(env, runtime, fee_paths, seed, horizon)
    p0_paths = fee.fee_paths(agent_id, theta)
    p0, p0_se = _mean_se(p0_paths)

    theta0 = list(theta)
    theta0[agent_id] = 0.0
    if transform_or_dormant(env, agent_id, 0.0) is None:
        u_zero, u_zero_se = 0.0, 0.0
    else:
        zero_core = _utility_paths(
            env, runtime, theta0, Truthful(), agent_id, seed, "envelope0", paths, horizon
        )
        p0z_paths = fee.fee_paths(agent_id, theta0)
        p0z, p0z_se = _mean_se(p0z_paths)
        m, s = _mean_se(zero_core)
        u_zero, u_zero_se = m - p0z, math.hypot(s, p0z_se)

    diff_paths = lhs_core - rhs_paths
    diff_mean, diff_se = _mean_se(diff_paths)
    observed = diff_mean - p0 - u_zero
    se = math.sqrt(diff_se**2 + p0_se**2 + u_zero_se**2)
    tail = env.delta**horizon * env.k * env.v_max / (1.0 - env.delta)
    threshold = 3.0 * se + data.quad_error() + 3.0 * tail + _atol(env)
    return AuditResult(
        name=f"envelope[agent{agent_id}]",
        passed=abs(observed) <= threshold,
        observed=observed,
        threshold=threshold,
        std_error=se,
        seeds=tuple(seeds),
        detail=f"theta={theta}, quad_error={data.quad_error():.3g}",
    )


# ---------------------------------------------------------------------------
# Revenue = virtual surplus
# ---------------------------------------------------------------------------


def audit_revenue_bound(
    env: Environment,
    episodes: int = 2000,
    seeds: tuple[int, ...] = (0,),
    *,
    tail_eps: float = 1e-6,
    runtime: MechanismRuntime | None = None,
) -> AuditResult:
    """Paired comparison of mechanism revenue against realized virtual
    surplus under the index policy, with types drawn fresh per episode
    and every estimator sharing the episode's experience streams.

    Revenue per episode is the sum of target payments, each agent's
    value on the episode less its information rent, integrated by
    ``_RentWalk`` on the episode's own streams (``fee_quadrature`` on
    one path, without its value run: the episode already has the value):
    the period-0 charge's offset term is estimated by the episode's
    realized payments, which cancels them exactly.  The threshold
    charges the rent walks' mean breakpoint error.
    """
    runtime = runtime or MechanismRuntime(env)
    seed = seeds[0]
    horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    truthful = [Truthful()] * env.k
    diffs = np.zeros(episodes)
    errors = np.zeros(episodes)
    purpose = "revenue"
    for s in range(episodes):
        theta = [
            env.agents[i].distribution.sample(substream(seed, "rev-types", s, i))
            for i in range(env.k)
        ]
        transforms = _active_transforms(env, runtime, theta)
        streams = ExperienceStreams(seed, s, purpose)
        main = _run_rounds(
            env,
            runtime,
            transforms,
            theta,
            truthful,
            streams,
            horizon,
            track_prices=False,
            track_virtual=True,
        )
        rev = 0.0
        for i in transforms:
            walk = _RentWalk(env, runtime, transforms, theta, i, runtime.threshold(i), horizon)
            integral, error, _ = walk.integrate(streams)
            rev += main.values[i] - integral
            errors[s] += error
        diffs[s] = rev - main.virtual
    mean, se = _mean_se(diffs)
    quad_error = float(np.mean(errors)) if episodes else 0.0
    threshold = 3.0 * se + quad_error + _atol(env)
    return AuditResult(
        name="revenue_equals_virtual_surplus",
        passed=abs(mean) <= threshold,
        observed=mean,
        threshold=threshold,
        std_error=se,
        seeds=tuple(seeds),
        detail=f"{episodes} paired episodes, quad_error={quad_error:.3g}",
    )


# ---------------------------------------------------------------------------
# Incentive compatibility / individual rationality
# ---------------------------------------------------------------------------


def audit_ic(
    env: Environment,
    deviations=None,
    grid=None,
    seeds: tuple[int, ...] = (0,),
    *,
    agents=None,
    paths: int = 200,
    fee_paths: int = 128,
    tail_eps: float = 1e-6,
    runtime: MechanismRuntime | None = None,
) -> AuditResult:
    """Truthful-minus-deviation utility must be >= -3 SE in every
    (theta grid point, deviation) cell, opponents truthful at a pinned
    profile, all comparisons on common streams."""
    runtime = runtime or MechanismRuntime(env)
    seed = seeds[0]
    horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    fee = _FeeCache(env, runtime, fee_paths, seed, horizon)
    agents = list(range(env.k)) if agents is None else list(agents)
    cells_out = []
    worst = math.inf
    worst_cell = ""
    passed = True
    control_ok = True
    for i in agents:
        pts = grid if grid is not None else theta_grid(env, i)
        devs = deviations if deviations is not None else default_deviations(env, i)
        for theta_i in pts:
            theta = _pinned_types(env, i, theta_i)
            u_truth = _utility_paths(env, runtime, theta, Truthful(), i, seed, "ic", paths, horizon)
            fee_truth = fee.fee_paths(i, theta)
            for name, dev in devs:
                theta_hat0 = list(theta)
                theta_hat0[i] = dev.report(
                    0, theta[i], 0, env.agents[i].distribution.theta_bar
                ).theta_hat
                u_dev = _utility_paths(env, runtime, theta, dev, i, seed, "ic", paths, horizon)
                core = u_truth - u_dev
                if tuple(theta_hat0) == tuple(theta):
                    fee_part = np.zeros_like(fee_truth)
                else:
                    fee_part = fee.fee_paths(i, theta_hat0) - fee_truth
                core_mean, core_se = _mean_se(core)
                fee_mean, fee_se = _mean_se(fee_part)
                diff = core_mean + fee_mean
                se = math.hypot(core_se, fee_se)
                cell_pass = diff >= -(3.0 * se + _atol(env))
                if name == "truthful_control":
                    control_ok = control_ok and diff == 0.0 and se == 0.0
                    cell_pass = diff == 0.0
                cells_out.append(
                    {
                        "agent": i,
                        "theta": float(theta_i),
                        "deviation": name,
                        "diff": diff,
                        "std_error": se,
                        "passed": cell_pass,
                    }
                )
                if not cell_pass:
                    passed = False
                if diff < worst:
                    worst, worst_cell = diff, f"agent{i} theta={theta_i:g} {name}"
    detail = f"worst cell: {worst_cell}" + ("" if control_ok else "; coupling control broken")
    return AuditResult(
        name="incentive_compatibility",
        passed=passed and control_ok,
        observed=worst,
        threshold=0.0,
        std_error=0.0,
        seeds=tuple(seeds),
        detail=detail,
        cells=tuple(cells_out),
    )


def audit_ir(
    env: Environment,
    grid=None,
    seeds: tuple[int, ...] = (0,),
    *,
    agents=None,
    paths: int = 200,
    fee_paths: int = 128,
    tail_eps: float = 1e-6,
    runtime: MechanismRuntime | None = None,
) -> AuditResult:
    """Truthful utility >= -3 SE at every grid type; zero type yields
    zero utility within 3 SE."""
    runtime = runtime or MechanismRuntime(env)
    seed = seeds[0]
    horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    fee = _FeeCache(env, runtime, fee_paths, seed, horizon)
    agents = list(range(env.k)) if agents is None else list(agents)
    cells_out = []
    worst = math.inf
    worst_cell = ""
    passed = True
    for i in agents:
        pts = grid if grid is not None else theta_grid(env, i)
        for theta_i in pts:
            theta = _pinned_types(env, i, theta_i)
            core = _utility_paths(env, runtime, theta, Truthful(), i, seed, "ir", paths, horizon)
            fee_p = fee.fee_paths(i, theta)
            core_mean, core_se = _mean_se(core)
            fee_mean, fee_se = _mean_se(fee_p)
            u = core_mean - fee_mean
            se = math.hypot(core_se, fee_se)
            bound = 3.0 * se + 3.0 * env.delta**horizon * env.k * env.v_max / (
                1.0 - env.delta
            ) + _atol(env)
            if theta_i == 0.0:
                cell_pass = abs(u) <= bound
            else:
                cell_pass = u >= -bound
            cells_out.append(
                {
                    "agent": i,
                    "theta": float(theta_i),
                    "utility": u,
                    "std_error": se,
                    "passed": cell_pass,
                }
            )
            if not cell_pass:
                passed = False
            if u < worst:
                worst, worst_cell = u, f"agent{i} theta={theta_i:g}"
    return AuditResult(
        name="individual_rationality",
        passed=passed,
        observed=worst,
        threshold=0.0,
        std_error=0.0,
        seeds=tuple(seeds),
        detail=f"worst cell: {worst_cell}",
        cells=tuple(cells_out),
    )


# ---------------------------------------------------------------------------
# Monotone allocation
# ---------------------------------------------------------------------------


def audit_monotone_allocation(
    env: Environment,
    r_points: int = 9,
    theta_points: int = 5,
    tol: float = 1e-9,
    *,
    opponent_states: int = 5,
    runtime: MechanismRuntime | None = None,
) -> AuditResult:
    """Deterministic check that raising one agent's period-0 report can
    only raise its index pointwise, and hence can only gain it the
    allocation at any joint state (argmax invariance under the fixed tie
    rule)."""
    runtime = runtime or MechanismRuntime(env)
    worst = 0.0
    worst_cell = ""
    passed = True
    for i in range(env.k):
        tb = env.agents[i].distribution.theta_bar
        z = runtime.threshold(i)
        lo = min(z + 1e-6 * tb, tb)
        rs = sorted(set(np.linspace(lo, tb, r_points)) | ({z / 2} if z > 0 else set()))
        thetas = np.linspace(tb / theta_points, tb, theta_points)
        prev_tables: dict[float, np.ndarray | None] = {}
        last_r = None
        for r in rs:
            tr = runtime.transform(i, float(r))
            tables = {
                float(th): (None if tr is None else runtime.index_flat(i, tr, float(th)))
                for th in thetas
            }
            if last_r is not None:
                for th, cur in tables.items():
                    prev = prev_tables[th]
                    if prev is None:
                        continue  # dormant at the lower report: trivially monotone
                    if cur is None:
                        passed = False
                        worst_cell = f"agent{i} r={last_r:g}->{r:g} active->dormant"
                        continue
                    gap = float(np.max(prev - cur))
                    if gap > worst:
                        worst, worst_cell = gap, f"agent{i} r={last_r:g}->{r:g} theta={th:g}"
                    if gap > tol:
                        passed = False
            prev_tables, last_r = tables, r
        # argmax invariance on sampled joint states: if i wins strictly at
        # the lower report, the same state must still win at the higher one
        opp_levels = [-math.inf]
        for j in range(env.k):
            if j == i:
                continue
            q = _quantile(env.agents[j].distribution, 0.65)
            tr_j = runtime.transform(j, q)
            if tr_j is None:
                continue
            tab = runtime.index_flat(j, tr_j, q)
            picks = np.linspace(0, len(tab) - 1, min(opponent_states, len(tab))).astype(int)
            opp_levels.extend(float(tab[p]) for p in picks)
        r_lo, r_hi = rs[0], rs[-1]
        tr_lo, tr_hi = runtime.transform(i, float(r_lo)), runtime.transform(i, float(r_hi))
        if tr_lo is not None and tr_hi is not None:
            for th in thetas:
                t_lo = runtime.index_flat(i, tr_lo, float(th))
                t_hi = runtime.index_flat(i, tr_hi, float(th))
                for s in range(len(t_lo)):
                    for ov in opp_levels:
                        if t_lo[s] > max(ov, 0.0) and not t_hi[s] > max(ov, 0.0):
                            passed = False
                            worst_cell = f"agent{i} argmax flipped at state {s}"
    return AuditResult(
        name="monotone_allocation",
        passed=passed,
        observed=worst,
        threshold=tol,
        std_error=0.0,
        seeds=(),
        detail=worst_cell or "index tables monotone in the period-0 report",
    )


# ---------------------------------------------------------------------------
# Allocation-time coupling
# ---------------------------------------------------------------------------


def audit_allocation_time_coupling(
    env: Environment,
    theta,
    theta_prime,
    agent_id: int,
    seeds: tuple[int, ...] = tuple(range(200)),
    *,
    horizon: int | None = None,
    tail_eps: float = 1e-4,
    runtime: MechanismRuntime | None = None,
) -> AuditResult:
    """Under common experience streams, a higher period-0 report of one
    agent makes each of its allocation times weakly earlier.  Both runs
    are ``mechanism._Deviator`` merges against the same cached levels of
    the truthful others."""
    runtime = runtime or MechanismRuntime(env)
    theta = [float(t) for t in theta]
    theta_prime = [float(t) for t in theta_prime]
    for j in range(env.k):
        if j != agent_id and theta[j] != theta_prime[j]:
            raise DomainError("type vectors must differ only in the audited coordinate")
    if theta_prime[agent_id] > theta[agent_id]:
        theta, theta_prime = theta_prime, theta
    if horizon is None:
        horizon = tail_horizon(env.delta, env.k, env.v_max, tail_eps)
    offset = theta_prime[agent_id] - theta[agent_id]
    th0_lo = list(theta)
    th0_lo[agent_id] = theta_prime[agent_id]
    runs = [
        _Deviator(
            env, runtime, _active_transforms(env, runtime, th0), theta, agent_id, strategy, horizon,
            track_prices=False,
        )
        for th0, strategy in ((theta, Truthful()), (th0_lo, MisreportTheta0(offset)))
    ]
    violations = 0
    checked = 0
    detail = ""
    for s in seeds:
        hi_times, lo_times = (run.run(ExperienceStreams(s, 0, "coupling")).times for run in runs)
        checked += 1
        ok = len(hi_times) >= len(lo_times) and all(
            hi_times[k] <= lo_times[k] for k in range(len(lo_times))
        )
        if not ok:
            violations += 1
            if not detail:
                detail = f"seed {s}: tau(high)={hi_times[:5]} tau(low)={lo_times[:5]}"
    return AuditResult(
        name=f"allocation_time_coupling[agent{agent_id}]",
        passed=violations == 0,
        observed=float(violations),
        threshold=0.0,
        std_error=0.0,
        seeds=tuple(seeds),
        detail=detail or f"{checked} paired seeds, every realized allocation weakly earlier",
    )
