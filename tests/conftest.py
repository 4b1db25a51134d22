from functools import cached_property

import numpy as np
import pytest

from dynamech import environments as envs
from dynamech import gittins
from dynamech.mechanism import MechanismRuntime


def constant_arm_env(delta: float, k: int = 1) -> envs.Environment:
    """Arms whose transformed reward equals theta exactly when pegged at
    the top report (inverse hazard vanishes there, so beta = 0)."""
    val = envs.AdditiveValue(a=lambda t, r: t, da=lambda t, r: 1.0, b=np.zeros((1, 1)))
    return envs.finite_chain(delta, k=k, g=[[1.0]], h=[[1.0]], value=val)


def index_at(env: envs.Environment, agent_id: int, transform, theta: float, e: int, rho: int) -> float:
    """Exact index of one arm state under the pegged transform."""
    arm = gittins.compile_arm(env, agent_id, transform, theta)
    return float(gittins.index_of_states(arm, np.array([arm.state_index(e, rho)]))[0])


def two_state_env(delta: float = 0.5) -> envs.Environment:
    """Single arm paying 0 once, then 1 forever (theta plays no role)."""
    val = envs.AdditiveValue(
        a=lambda t, r: 0.0, da=lambda t, r: 0.0, b=np.array([[0.0], [1.0]])
    )
    h = np.array([[0.0, 1.0], [0.0, 1.0]])
    return envs.finite_chain(delta, g=[[1.0]], h=h, value=val)


def posted_price_env() -> envs.Environment:
    """Single agent, multiplicative value theta * 1, uniform types on
    [0, 1], delta = 1/2: the mechanism reduces to a posted price at the
    median and every closed form is hand-computable."""
    val = envs.MultiplicativeValue(
        a=lambda t: t, da=lambda t: 1.0, b=np.ones((1, 1)), c=np.zeros(1)
    )
    return envs.finite_chain(0.5, k=1, g=[[1.0]], h=[[1.0]], value=val)


@pytest.fixture(scope="session")
def posted_price():
    return posted_price_env()


@pytest.fixture(scope="session")
def posted_price_runtime(posted_price):
    return MechanismRuntime(posted_price)


@pytest.fixture(scope="session")
def sponsored2():
    return envs.sponsored_search(k=2, cap=5, delta=0.8)


@pytest.fixture(scope="session")
def sponsored2_runtime(sponsored2):
    return MechanismRuntime(sponsored2)


@pytest.fixture(scope="session")
def sponsored_small():
    return envs.sponsored_search(k=2, cap=2, delta=0.8)


@pytest.fixture(scope="session")
def sponsored_small_runtime(sponsored_small):
    return MechanismRuntime(sponsored_small)


@pytest.fixture
def builds(monkeypatch):
    """``(built, reached)``: lists that record each arm whose scipy
    transition matrix (``gittins.CompiledArm.transition``) is built and
    each ``environments._reach`` call (Tarjan's algorithm) for the rest
    of the test."""
    built, reached = [], []
    transition, reach = gittins.CompiledArm.__dict__["transition"].func, envs._reach
    counted = cached_property(lambda arm: built.append(arm) or transition(arm))
    counted.__set_name__(gittins.CompiledArm, "transition")
    monkeypatch.setattr(gittins.CompiledArm, "transition", counted)
    monkeypatch.setattr(envs, "_reach", lambda succs: reached.append(succs) or reach(succs))
    return built, reached
