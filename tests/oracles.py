"""Oracles kept for tests, beside the library rather than in it: no CLI
command and no benchmark workload calls any of them.

- Index oracles: the truncated-horizon index by enumerating every
  stopping set, the O(n^4) largest-remaining-index recursion, Gittins
  indices by bisection over the retirement value with value iteration
  inside, and the reachable reward range by relaxation to a fixed
  point, which ``gittins._reward_range`` replaced with one pass.
- Joint-space oracles: the index policy's winner at every joint state,
  and the exact value of an allocation policy over the product of the
  active arms' state spaces, next to the joint value-iteration optimum
  (the library prices by Whittle's retirement formula and never builds
  the joint space).
- Payment diagnostics: the target payment P, and the round-t marginal
  contribution behind the VCG identity.
- Environment helpers: one allocation step of an arm state, a central
  finite-difference check of a value's theta-derivative, the per-entry
  loop that builds an agent's flat transition matrix, against which
  ``CompiledArm.transition`` (one scipy Kronecker block per public
  state) is checked, and ``read_csr``, the sweep's starting rows read
  from a matrix's CSR arrays, against which the library's one-pass
  kernel read (``environments._read_kernels``) is checked.
- Per-state values: dv/dtheta, the virtual value v - [(1-F)/f] dv/dtheta
  and the transformed reward alpha * v + beta[rho] of one arm state,
  each spelled out per value form; the library reads whole tables
  (``AdditiveValue.table``/``slope``, ``MultiplicativeValue``'s, and
  ``virtual.xi_table``).
- ``alloc_times``: an agent's allocation times read off a
  ``_run_rounds`` result's winners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dynamech import environments as envs
from dynamech import gittins
from dynamech.environments import AgentModel, ArmState, DomainError, Environment, MultiplicativeValue
from dynamech.gittins import CompiledArm, compile_arm, compile_reward_arm, joint_optimal_value
from dynamech.mechanism import (
    Estimate,
    MechanismRuntime,
    Transcript,
    _active_transforms,
    _mean_se,
    fee_quadrature,
)
from dynamech.virtual import VirtualTransform, inverse_hazard, xi_table

# ---------------------------------------------------------------------------
# Index oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceIndex:
    value: float
    tail_bound: float


def _reachable(arm: CompiledArm, start: int) -> np.ndarray:
    indptr, indices = arm.transition.indptr, arm.transition.indices
    seen = np.zeros(arm.n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        s = stack.pop()
        for s2 in indices[indptr[s] : indptr[s + 1]]:
            if not seen[s2]:
                seen[s2] = True
                stack.append(int(s2))
    return np.nonzero(seen)[0]


def brute_force_index(
    env: Environment,
    agent_id: int,
    transform: VirtualTransform,
    state: ArmState,
    horizon: int,
    cap: int = 1024,
) -> BruteForceIndex:
    """Truncated-horizon index by enumerating every stationary stopping
    set over the reachable states (the optimal stopping region for the
    ratio problem is stationary, so this is exhaustive for the truncated
    problem up to the reported geometric tail).

    Refuses when |reachable states| * horizon exceeds ``cap`` or the
    subset enumeration would explode.
    """
    arm = compile_arm(env, agent_id, transform, state.theta)
    s0 = arm.state_index(state.e, state.rho)
    reach = _reachable(arm, s0)
    n_r = len(reach)
    if n_r * horizon > cap:
        raise DomainError(f"brute force refused: {n_r} states * {horizon} steps > cap {cap}")
    if n_r > 16:
        raise DomainError(f"brute force refused: {n_r} states exceeds subset limit 16")
    pos = {int(s): j for j, s in enumerate(reach)}
    p = arm.transition[reach][:, reach].toarray()
    xi = arm.rewards[reach]
    delta = arm.delta
    j0 = pos[s0]

    n_sub = 1 << n_r
    masks = ((np.arange(n_sub)[:, None] >> np.arange(n_r)[None, :]) & 1).astype(float)
    cont_n = np.zeros((n_sub, n_r))
    cont_d = np.zeros((n_sub, n_r))
    for _ in range(horizon - 1):
        cont_n = masks * (xi[None, :] + delta * (cont_n @ p.T))
        cont_d = masks * (1.0 + delta * (cont_d @ p.T))
    num = xi[j0] + delta * (cont_n @ p[j0])
    den = 1.0 + delta * (cont_d @ p[j0])
    best = float(np.max(num / den))
    tail = delta**horizon * float(np.max(np.abs(xi))) / (1.0 - delta)
    return BruteForceIndex(value=best, tail_bound=tail)


def vwb_indices(rewards: np.ndarray, transition: np.ndarray, delta: float) -> np.ndarray:
    """Exact Gittins indices of every state of a finite chain via the
    largest-remaining-index recursion (continuation set grown from the
    top).  Intended for chains of at most ~64 states.
    """
    xi = np.asarray(rewards, dtype=float)
    p = np.asarray(transition, dtype=float)
    n = xi.shape[0]
    if n > 64:
        raise DomainError("largest-index method limited to 64 states")
    indices = np.full(n, np.nan)
    ranked: list[int] = []
    remaining = set(range(n))
    top = int(np.argmax(xi))
    indices[top] = xi[top]
    ranked.append(top)
    remaining.discard(top)
    while remaining:
        s_list = sorted(remaining)
        k = len(ranked)
        p_ss = p[np.ix_(ranked, ranked)]
        w = np.linalg.inv(np.eye(k) - delta * p_ss)
        w_xi = w @ xi[ranked]
        w_one = w @ np.ones(k)
        w_p = w @ p[np.ix_(ranked, s_list)]  # (k, m) columns per candidate
        best_ratio, best_s = -np.inf, s_list[0]
        for col, s in enumerate(s_list):
            p_s_ranked = p[s, ranked]
            denom = 1.0 - delta * p[s, s] - delta**2 * float(p_s_ranked @ w_p[:, col])
            num = (xi[s] + delta * float(p_s_ranked @ w_xi)) / denom
            dur = (1.0 + delta * float(p_s_ranked @ w_one)) / denom
            ratio = num / dur
            if ratio > best_ratio:
                best_ratio, best_s = ratio, s
        indices[best_s] = best_ratio
        ranked.append(best_s)
        remaining.discard(best_s)
    return indices


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
    indptr, indices = arm.transition.indptr, arm.transition.indices
    rows = np.nonzero(np.diff(indptr))[0]  # reduceat needs nonempty segments
    starts = indptr[rows]
    lo, hi = arm.rewards.copy(), arm.rewards.copy()
    while len(rows):
        new_lo, new_hi = lo.copy(), hi.copy()
        new_lo[rows] = np.minimum(lo[rows], np.minimum.reduceat(lo[indices], starts))
        new_hi[rows] = np.maximum(hi[rows], np.maximum.reduceat(hi[indices], starts))
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


# ---------------------------------------------------------------------------
# Joint-space oracles
# ---------------------------------------------------------------------------


def index_policy_winners(tables: list[np.ndarray]) -> np.ndarray:
    """``gittins.allocate`` at every joint state of the arms with these
    flat index tables: 0 for the zero arm, j for arm j-1.  Joint states
    are flattened in C order (``np.ravel_multi_index`` over the arms'
    sizes)."""
    grid = np.stack(np.meshgrid(*tables, indexing="ij")).reshape(len(tables), -1)
    winners = np.argmax(grid, axis=0) + 1  # the first maximum: ties to the lowest arm
    winners[grid.max(axis=0) <= 0.0] = 0  # the zero arm wins ties at its index 0
    return winners


def joint_policy_value(arms: list[CompiledArm], winners: np.ndarray, delta: float) -> np.ndarray:
    """Exact discounted value of a fixed joint policy, by one sparse
    solve over the joint states.  ``winners[flat]`` is 0 for the zero
    arm or j for arm j-1, over the joint states in C order."""
    sizes = [a.n for a in arms]
    strides = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    total = math.prod(sizes)
    rows, cols, vals = [], [], []
    rewards = np.zeros(total)
    for flat, comp in enumerate(np.ndindex(*sizes)):
        w = int(winners[flat])
        if w == 0:
            rows.append(flat)
            cols.append(flat)
            vals.append(1.0)
            continue
        j = w - 1
        arm, s = arms[j], comp[j]
        rewards[flat] = arm.rewards[s]
        t = arm.transition
        lo, hi = t.indptr[s], t.indptr[s + 1]
        for s2, pr in zip(t.indices[lo:hi], t.data[lo:hi]):
            rows.append(flat)
            cols.append(flat + (int(s2) - s) * strides[j])
            vals.append(float(pr))
    t = sp.csr_matrix((vals, (rows, cols)), shape=(total, total))
    system = sp.identity(total, format="csr") - delta * t
    return spla.spsolve(system.tocsc(), rewards)


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
    exclude: int | None = None,
    state_cap: int = 10_000,
    dp_tol: float = 1e-10,
    runtime: MechanismRuntime | None = None,
) -> PolicyValue:
    """Exact discounted transformed value of ``policy`` on the joint
    allocation MDP of the active agents other than ``exclude``, next to
    the unconstrained value-iteration optimum; more than ``state_cap``
    joint states raise DomainError.  With ``policy`` "index" this is
    the weighted welfare of the index policy, the quantity
    ``gittins.weighted_welfare`` estimates by rollout.

    ``policy`` is "index", "zero", or a callable mapping the tuple of
    active agents' flat states to 0 (no allocation) or a 1-based
    position within the active list.
    """
    runtime = runtime or MechanismRuntime(env)
    transforms = _active_transforms(env, runtime, [float(r) for r in reports])
    active = sorted(i for i in transforms if i != exclude)
    arms = [
        compile_reward_arm(
            env.agents[i], xi_table(transforms[i], env, i, float(theta[i])), env.delta
        )
        for i in active
    ]
    sizes = [a.n for a in arms]
    total = math.prod(sizes)
    if total > state_cap:
        raise DomainError(f"exact DP refused: {total} joint states > cap {state_cap}")
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


# ---------------------------------------------------------------------------
# Payment diagnostics
# ---------------------------------------------------------------------------


def entry_price_P(
    env: Environment,
    theta_hat,
    i: int,
    rollouts: int = 2000,
    seed: int = 0,
    horizon: int | None = None,
    runtime: MechanismRuntime | None = None,
) -> Estimate:
    """Target payment of agent i given the period-0 reports: value minus
    the information rent integral, over coupled rollouts with the rent
    integrated exactly on each (``fee_quadrature``)."""
    data = fee_quadrature(env, theta_hat, i, paths=rollouts, seed=seed, horizon=horizon, runtime=runtime)
    mean, se = _mean_se(data.price_paths())
    return Estimate(mean=mean, std_error=se, quad_error=data.quad_error())


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


# ---------------------------------------------------------------------------
# Environment helpers
# ---------------------------------------------------------------------------


def step_experience(env: Environment, agent_id: int, state: ArmState, rng) -> ArmState:
    """One allocation step (``sample_transition``); theta is unchanged.
    ``rng`` is either a numpy Generator or an ExperienceStreams handle.
    """
    agent = env.agents[agent_id]
    envs._check_state(agent, state)
    if hasattr(rng, "draw_pair"):
        u_pub, u_priv = rng.draw_pair(agent_id)
    else:
        u = rng.random(2)
        u_pub, u_priv = float(u[0]), float(u[1])
    e_next, rho_next = envs.sample_transition(agent, state.e, state.rho, u_pub, u_priv)
    return ArmState(theta=state.theta, e=e_next, rho=rho_next)


def check_derivative(
    env: Environment,
    agent_id: int,
    states: Sequence[ArmState],
    h: float = 1e-6,
) -> float:
    """Max gap between the declared theta-derivative and a central
    finite difference over the given states."""
    worst = 0.0
    theta_bar = env.agents[agent_id].distribution.theta_bar
    for s in states:
        lo = max(s.theta - h, 0.0)
        hi = min(s.theta + h, theta_bar)
        fd = (
            envs.value(env, agent_id, ArmState(hi, s.e, s.rho))
            - envs.value(env, agent_id, ArmState(lo, s.e, s.rho))
        ) / (hi - lo)
        worst = max(worst, abs(fd - value_theta_derivative(env, agent_id, s)))
    return worst


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


def read_csr(
    indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray, delta: float
) -> tuple[tuple[list[dict[int, float]], list[set[int]]], list[list[int]], bool]:
    """``(rows, preds), succ, forward`` as ``SweepGraph`` reads them, from
    a transition's CSR arrays: Q = delta * P as one ``{column: value}``
    dict per row without the products that are 0, per column the rows
    that step to it, each row's stored columns (a zero included) and
    whether every stored column is at least its row."""
    n = len(indptr) - 1
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    preds: list[set[int]] = [set() for _ in range(n)]
    ptr, nbr = indptr.tolist(), indices.tolist()
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    for p, j, v in zip(row_of.tolist(), nbr, (probs * delta).tolist()):
        if v:
            rows[p][j] = v
            preds[j].add(p)
    return (rows, preds), [nbr[a:b] for a, b in zip(ptr, ptr[1:])], bool(np.all(indices >= row_of))


def alloc_times(res, agent_id: int) -> list[int]:
    """Rounds (from 1) at which ``agent_id`` won in a ``_run_rounds`` result."""
    return [t for t, w in enumerate(res.winners, 1) if w == agent_id + 1]


# ---------------------------------------------------------------------------
# Per-state values
# ---------------------------------------------------------------------------


def value_theta_derivative(env: Environment, agent_id: int, state: ArmState) -> float:
    """dv/dtheta at one arm state: A'(theta) B[e, rho] for a
    multiplicative value, A'(theta, rho) for an additive one."""
    agent = env.agents[agent_id]
    envs._check_state(agent, state)
    val = agent.value
    if isinstance(val, MultiplicativeValue):
        return val.da(state.theta) * float(val.b[state.e, state.rho])
    return val.da(state.theta, state.rho)


def virtual_value(env: Environment, agent_id: int, state: ArmState) -> float:
    """v - [(1-F)/f] * dv/dtheta at one arm state."""
    ih = inverse_hazard(env.agents[agent_id].distribution, state.theta)
    return envs.value(env, agent_id, state) - ih * value_theta_derivative(env, agent_id, state)


def xi(transform: VirtualTransform, env: Environment, agent_id: int, state: ArmState) -> float:
    """Transformed per-step reward alpha * v(state) + beta[rho]."""
    return transform.alpha * envs.value(env, agent_id, state) + float(transform.beta[state.rho])
