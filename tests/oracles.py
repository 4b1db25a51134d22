"""Oracles kept for tests: the exact value of an allocation policy over
the product of the active arms' state spaces, next to the joint
value-iteration optimum (the library prices by Whittle's retirement
formula and never builds the joint space), the per-entry loop that
built an agent's flat transition matrix before ``AgentModel.transition``
built it vectorised, an agent's allocation times read off a
``_run_rounds`` result's winners, Gittins indices by bisection over
the retirement value with value iteration inside, the exact index
sweep's independent reference, and the reachable reward range by
relaxation to a fixed point, which ``gittins._reward_range`` replaced
with one pass over the transition's strongly connected components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from dynamech import gittins
from dynamech.environments import AgentModel, Environment
from dynamech.gittins import (
    CompiledArm,
    compile_reward_arm,
    index_policy_winners,
    joint_optimal_value,
    joint_policy_value,
    joint_state_count,
)
from dynamech.mechanism import MechanismRuntime, _active_transforms
from dynamech.virtual import xi_table


@dataclass(frozen=True)
class PolicyValue:
    policy_value: float
    optimal_value: float


def exact_dp_policy_value(
    env: Environment,
    reports,
    theta,
    e,
    rho,
    policy,
    *,
    state_cap: int = 10_000,
    dp_tol: float = 1e-10,
    runtime: MechanismRuntime | None = None,
) -> PolicyValue:
    """Exact discounted transformed value of ``policy`` on the joint
    allocation MDP, next to the unconstrained value-iteration optimum.

    ``policy`` is "index", "zero", or a callable mapping the tuple of
    active agents' flat states to 0 (no allocation) or a 1-based
    position within the active list.
    """
    runtime = runtime or MechanismRuntime(env)
    transforms = _active_transforms(env, runtime, [float(r) for r in reports])
    active = sorted(transforms)
    arms = [
        compile_reward_arm(
            env.agents[i], xi_table(transforms[i], env, i, float(theta[i])), env.delta
        )
        for i in active
    ]
    sizes = [a.n for a in arms]
    total = joint_state_count(sizes, state_cap)
    if not arms:
        return PolicyValue(policy_value=0.0, optimal_value=0.0)
    if policy == "index":
        winners = index_policy_winners(
            [runtime.index_flat(i, transforms[i], float(theta[i])) for i in active]
        )
    elif policy == "zero":
        winners = np.zeros(total, dtype=int)
    else:
        winners = np.array([policy(comp) for comp in np.ndindex(*sizes)], dtype=int)
    opt = joint_optimal_value(arms, env.delta, tol=dp_tol)
    val = joint_policy_value(arms, winners, env.delta)
    start = np.ravel_multi_index(
        [int(e[i]) * env.agents[i].public.n + int(rho[i]) for i in active], sizes
    )
    return PolicyValue(policy_value=float(val[start]), optimal_value=float(opt[start]))


def loop_transition(agent: AgentModel) -> sp.csr_matrix:
    """The agent's flat transition P[(e, rho), (e2, r2)] = H[rho, e, e2] *
    G[rho, r2], one entry at a time over the nonzero factors."""
    n_e, n_rho = agent.private.n, agent.public.n
    g, h = agent.public.matrix, agent.private.matrix
    rows, cols, vals = [], [], []
    for e in range(n_e):
        for rho in range(n_rho):
            s = e * n_rho + rho
            h_row = h[rho, e]
            g_row = g[rho]
            for e2 in np.nonzero(h_row)[0]:
                pe = h_row[e2]
                for r2 in np.nonzero(g_row)[0]:
                    rows.append(s)
                    cols.append(int(e2) * n_rho + int(r2))
                    vals.append(pe * g_row[r2])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_e * n_rho, n_e * n_rho))


def alloc_times(res, agent_id: int) -> list[int]:
    """Rounds (from 1) at which ``agent_id`` won in a ``_run_rounds`` result."""
    return [t for t, w in enumerate(res.winners, 1) if w == agent_id + 1]


def bisect_indices(arm: CompiledArm, states: np.ndarray, tol: float) -> np.ndarray:
    """Gittins indices of the given flat states, each within ``tol``, by
    the retirement characterization: the index lambda* is the unique
    lambda at which the option value of continuing,
    V_lambda(s) = max{lambda/(1-delta), xi(s) + delta E[V_lambda(s')]},
    equals the retirement value lambda/(1-delta).  Each state bisects
    over lambda from the reward range of its reachable set, so a state
    whose reachable rewards are constant resolves exactly.  States at
    the same lambda share one ``gittins.optimal_stop_value`` solve; the
    solves are memoized and warm-started from the nearest cached lambda.
    """
    states = np.asarray(states, dtype=int)
    lo_all, hi_all = gittins._reward_range(arm)
    lo, hi = lo_all[states], hi_all[states]
    accuracy = tol / 10.0
    margin = 2.0 * accuracy
    solves: dict[float, np.ndarray] = {}

    def value(lam: float) -> np.ndarray:
        v = solves.get(lam)
        if v is None:
            start = solves[min(solves, key=lambda x: abs(x - lam))] if solves else None
            v = gittins.optimal_stop_value(arm, accuracy, lam / (1.0 - arm.delta), start)
            if len(solves) > 512:
                solves.clear()
            solves[lam] = v
        return v

    active = (hi - lo) > tol
    while np.any(active):
        mids = 0.5 * (lo + hi)
        groups: dict[float, list[int]] = {}
        for j in np.nonzero(active)[0]:
            groups.setdefault(float(mids[j]), []).append(int(j))
        for lam, members in groups.items():
            v = value(lam)
            retire = lam / (1.0 - arm.delta)
            for j in members:
                if v[states[j]] > retire + margin:
                    lo[j] = lam
                else:
                    hi[j] = lam
        active = (hi - lo) > tol
    out = 0.5 * (lo + hi)
    exact = hi == lo
    out[exact] = lo[exact]
    return out


def reward_range_relaxation(arm: CompiledArm) -> tuple[np.ndarray, np.ndarray]:
    """Min and max reward over each state's reachable set (itself
    included), by relaxing along every stored transition entry to a
    fixed point, a zero probability included."""
    rows = np.nonzero(np.diff(arm.indptr))[0]  # reduceat needs nonempty segments
    starts = arm.indptr[rows]
    lo, hi = arm.rewards.copy(), arm.rewards.copy()
    while len(rows):
        new_lo, new_hi = lo.copy(), hi.copy()
        new_lo[rows] = np.minimum(lo[rows], np.minimum.reduceat(lo[arm.indices], starts))
        new_hi[rows] = np.maximum(hi[rows], np.maximum.reduceat(hi[arm.indices], starts))
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi
