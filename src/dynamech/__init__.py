"""Revenue-optimal dynamic auctions over bandit environments.

Allocation by Gittins indices of affinely transformed (virtual) values,
payments by a two-tier rule (period-0 entry fee plus per-round
externality price), and an audit suite that exercises the incentive
properties the construction promises.
"""

from .environments import (
    AdditiveValue,
    AgentModel,
    ArmState,
    DomainError,
    Environment,
    MultiplicativeValue,
    PrivateKernel,
    PublicKernel,
    TypeDistribution,
    ar1,
    capped_exponential_type,
    finite_chain,
    make_environment,
    power_type,
    sponsored_search,
    uniform_type,
    validate_assumptions,
    value,
)
from .gittins import (
    WelfareEstimate,
    allocate,
    weighted_welfare,
)
from .mechanism import (
    CorrectingDeviation,
    Estimate,
    MechanismRuntime,
    MisreportExperience,
    MisreportTheta0,
    MisreportThetaAlways,
    ReportSchedule,
    Strategy,
    Transcript,
    Truthful,
    entry_fee_p0,
    per_round_price,
    run_episode,
)
from .virtual import (
    VirtualTransform,
    affine_coefficients,
    dormancy_threshold,
    inverse_hazard,
)

__version__ = "0.1.0"
