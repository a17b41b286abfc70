"""Weak closed-loop strategies for stochastic linear-quadratic control.

The package solves finite-horizon SLQ problems whose generalized Riccati
equation has no regular solution: it perturbs the control weight by eps,
solves the perturbed Riccati and adjoint equations, runs a decreasing eps
ladder, extracts the weak closed-loop limit strategy, judges open-loop
solvability from exact second moments of the ladder's outcomes, and
verifies optimality by Euler-Maruyama Monte Carlo against analytic oracles.
"""

from .core import GridFn, pinv, range_included
from .errors import (
    BlowUpError,
    DegeneratePerturbationError,
    EnsembleError,
    InvalidInputError,
    UnknownProblemError,
    WrongClassError,
)
from .problem import (
    InitialPair,
    Modulation,
    NamedProfile,
    SLQProblem,
    builtin,
    builtin_names,
    validate,
)
from .riccati import (
    RegularityReport,
    RiccatiSolution,
    check_regularity,
    gain,
    solve_gre,
    solve_ladder,
)
from .bsde import solve_adjoint
from .strategy import (
    PerturbedSolution,
    SolvabilityReport,
    WeakClosedLoopStrategy,
    default_ladder,
    diagnose,
    extract_limit,
    run_ladder,
)
from .moments import SecondMoments, second_moments
from .simulate import (
    ControlSpec,
    CoupledEnsembles,
    MonteCarloConfig,
    MonteCarloEstimate,
    control_norm,
    estimate_cost,
    simulate_coupled,
    simulate_ensemble,
    terminal_moment,
)

__version__ = "0.1.0"
