"""Virtual values and their affine decomposition.

The virtual value of a state is v - [(1-F)/f] * dv/dtheta, the
revenue-relevant surrogate for value.  For separable value functions it
is affine in v once theta is fixed: psi = alpha(theta) * v +
beta(theta, rho).  The mechanism pegs (alpha, beta) to each agent's
period-0 report and never recomputes them, so the transform here is a
plain value object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environments import DomainError, Environment, MultiplicativeValue, TypeDistribution

__all__ = [
    "VirtualTransform",
    "inverse_hazard",
    "affine_coefficients",
    "multiplicative_alpha",
    "transform_or_dormant",
    "dormancy_threshold",
    "xi_table",
]


@dataclass(frozen=True)
class VirtualTransform:
    """Affine map xi = alpha * v + beta[rho], pegged to one report."""

    alpha: float
    beta: np.ndarray  # (n_rho,)
    pegged_report: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))


def inverse_hazard(dist: TypeDistribution, theta: float) -> float:
    """(1 - F(theta)) / f(theta), with the top-type convention that the
    ratio is 0 wherever F has already reached 1 (so psi = v at the top).
    """
    if theta < 0.0 or theta > dist.theta_bar:
        raise DomainError(f"theta {theta} outside [0, theta_bar]")
    survival = 1.0 - dist.cdf(theta)
    if survival <= 0.0:
        return 0.0
    density = dist.pdf(theta)
    if density <= 0.0:
        raise DomainError(f"density vanishes at interior theta={theta}")
    return survival / density


def affine_coefficients(env: Environment, agent_id: int, report: float) -> VirtualTransform:
    """(alpha, beta) evaluated at the pegged report.

    Additive values always have alpha = 1 and beta(rho) =
    -[(1-F)/f] * dA/dtheta; multiplicative values have
    alpha = 1 - [(1-F)/f] * A'/A and beta = (alpha - 1) * C, and
    require A(report) > 0 and a finite alpha.
    """
    t = _affine(env.agents[agent_id], report)
    if t is None:
        raise DomainError(f"transform undefined at report {report!r}: A <= 0 or alpha not finite")
    return t


def _affine(agent, report: float) -> VirtualTransform | None:
    """``affine_coefficients``, or None for a multiplicative value with
    A(report) <= 0 or a non-finite alpha."""
    val = agent.value
    if isinstance(val, MultiplicativeValue):
        alpha = multiplicative_alpha(agent, report)
        if alpha is None:
            return None
        return VirtualTransform(alpha=alpha, beta=(alpha - 1.0) * val.c, pegged_report=report)
    beta = -inverse_hazard(agent.distribution, report) * val.da_row(report)
    return VirtualTransform(alpha=1.0, beta=beta, pegged_report=report)


def multiplicative_alpha(agent, report: float) -> float | None:
    """alpha = 1 - [(1-F)/f] * A'/A of a multiplicative value at the
    report, or None when A(report) <= 0 or alpha is not finite.  The one
    scalar behind ``affine_coefficients`` for multiplicative values, for
    callers that need alpha alone."""
    val = agent.value
    a_r = val.a(report)
    if a_r <= 0.0:
        return None
    alpha = 1.0 - inverse_hazard(agent.distribution, report) * val.da(report) / a_r
    if not math.isfinite(alpha):  # A'/A overflows at subnormal reports; beta would be nan
        return None
    return alpha


def transform_or_dormant(
    env: Environment, agent_id: int, report: float
) -> VirtualTransform | None:
    """Transform at the report, or None when the agent is dormant.

    A multiplicative agent whose transform has alpha <= 0 (including the
    degenerate A(report) <= 0 case) has xi = alpha*A*B - C <= 0
    pointwise, so the zero arm weakly dominates it; the mechanism
    hard-excludes such agents and never divides by alpha <= 0.  A
    non-finite alpha (A'/A overflowing at a subnormal report) counts as
    dormant too.  Additive agents (alpha = 1) are never dormant.
    """
    t = _affine(env.agents[agent_id], report)
    return t if t is not None and t.alpha > 0.0 else None


def dormancy_threshold(env: Environment, agent_id: int, tol: float = 1e-12) -> float:
    """Smallest report at which the agent is active (0 if always active,
    theta_bar if dormant everywhere).

    Relies on alpha being nondecreasing in the report, which holds under
    the monotone-hazard and log-concavity assumptions.
    """
    theta_bar = env.agents[agent_id].distribution.theta_bar

    def active(r: float) -> bool:
        try:
            return transform_or_dormant(env, agent_id, r) is not None
        except DomainError:
            return False

    if active(0.0):
        return 0.0
    if not active(theta_bar):
        return theta_bar
    lo, hi = 0.0, theta_bar
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if active(mid):
            hi = mid
        else:
            lo = mid
    return hi


def xi_table(transform: VirtualTransform, env: Environment, agent_id: int, theta: float) -> np.ndarray:
    """xi over all (e, rho) cells for a fixed theta, shape (n_e, n_rho)."""
    return transform.alpha * env.agents[agent_id].value.table(theta) + transform.beta
