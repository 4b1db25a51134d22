"""Joint-state-space oracles kept for tests: the exact value of an
allocation policy over the product of the active arms' state spaces,
next to the joint value-iteration optimum.  The library prices by
Whittle's retirement formula and never builds the joint space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dynamech.environments import Environment
from dynamech.gittins import (
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
