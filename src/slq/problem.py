"""Problem data for finite-horizon stochastic linear-quadratic control.

A problem bundles the state-equation coefficients A, B, C, D, the cost
weights Q, S, R, G, g and four inhomogeneous inputs b, sigma, q, rho.
Coefficients, inputs and table profiles are :class:`~slq.core.GridFn` time
tables; a constant is a one-node table (``GridFn.const``), since tables
clamp outside their grid.  The drift b alone may add a martingale-modulated
part ``b_mod``, ``exp(gamma*W(s) - gamma^2 s/2) * f(s)`` with a
deterministic scalar profile f; it is restricted to a scalar state (n = 1,
any m), where it admits an exact deterministic reduction of the adjoint
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import GridFn, is_symmetric
from .errors import InvalidInputError, UnknownProblemError

__all__ = [
    "NamedProfile",
    "Modulation",
    "SLQProblem",
    "InitialPair",
    "ValidationReport",
    "validate",
    "builtin",
    "builtin_names",
    "named_profile",
    "NAMED_PROFILES",
]


@dataclass(frozen=True)
class NamedProfile:
    """Closed-form scalar profile ``smooth(s) / sqrt(T - s)``, with an
    inverse-square-root singularity at the horizon.

    Singular profiles must be closed-form so the adjoint solver can
    integrate across the endpoint layer exactly; tables cannot represent the
    singularity.  A smooth profile is a :class:`GridFn`.
    """

    name: str
    smooth: Callable[[np.ndarray], np.ndarray]

    def smooth_at(self, s):
        return self.smooth(np.asarray(s, dtype=float))

    def __call__(self, s, T: float):
        s_arr = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return self.smooth(s_arr) / np.sqrt(np.maximum(T - s_arr, 0.0))


NAMED_PROFILES = {
    # e^{-s} / sqrt(T - s): exponential decay against an inverse-square-root
    # endpoint layer.  With gamma = sqrt(2) this is the modulated drift of the
    # built-in "example-5.1" problem.
    "exp-inv-sqrt-gap": NamedProfile("exp-inv-sqrt-gap", smooth=lambda s: np.exp(-s)),
    # 1 / sqrt(T - s)
    "inv-sqrt-gap": NamedProfile("inv-sqrt-gap", smooth=lambda s: np.ones_like(s)),
}


def named_profile(name: str) -> NamedProfile:
    try:
        return NAMED_PROFILES[name]
    except KeyError:
        raise UnknownProblemError(f"unknown named profile {name!r}") from None


Profile = Union[GridFn, NamedProfile]


@dataclass(frozen=True)
class Modulation:
    gamma: float
    profile: Profile

    def profile_at(self, s, T: float):
        if isinstance(self.profile, NamedProfile):
            return self.profile(s, T)
        return self.profile(s)


@dataclass(frozen=True)
class SLQProblem:
    """Full problem datum for one SLQ control problem on [0, T]."""

    n: int
    m: int
    T: float
    A: GridFn
    B: GridFn
    C: GridFn
    D: GridFn
    Q: GridFn
    S: GridFn
    R: GridFn
    G: np.ndarray
    g: np.ndarray
    b: GridFn
    sigma: GridFn
    q: GridFn
    rho: GridFn
    b_mod: Optional[Modulation] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "G", np.asarray(self.G, dtype=float).reshape(self.n, self.n))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float).reshape(self.n))


@dataclass(frozen=True)
class InitialPair:
    t: float
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if not np.all(np.isfinite(self.x)):
            raise InvalidInputError("initial state has non-finite entries")

    def check(self, p: SLQProblem):
        """Raise :class:`InvalidInputError` unless x has length n and t lies in [0, T)."""
        if self.x.size != p.n:
            raise InvalidInputError(f"initial state has length {self.x.size}, expected {p.n}")
        if not (0.0 <= self.t < p.T):
            raise InvalidInputError(f"initial time {self.t} outside [0, T)")


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)


# shapes in terms of the dimensions n, m, in problem-file order
COEF_SHAPES = {
    "A": ("n", "n"),
    "B": ("n", "m"),
    "C": ("n", "n"),
    "D": ("n", "m"),
    "Q": ("n", "n"),
    "S": ("m", "n"),
    "R": ("m", "m"),
}

INPUT_SHAPES = {"b": ("n",), "sigma": ("n",), "q": ("n",), "rho": ("m",)}


def validate(p: SLQProblem) -> ValidationReport:
    """Check shapes, table spans, symmetry, finite T, G, g and gamma, and
    that a modulated drift has a scalar state (any m).  Every profile that
    can be built is integrable on [0, T): a table is finite and clamped, a
    named profile is ``smooth(s)/sqrt(T - s)``.

    Never raises; every finding is a line in the report.
    """
    report = ValidationReport()
    dims = {"n": p.n, "m": p.m}
    if p.n < 1 or p.m < 1:
        report.add("state and control dimensions must be positive")
        return report
    if not (0.0 < p.T < math.inf):
        report.add("horizon T must be positive and finite")

    def check_span(name: str, f: GridFn):
        if f.grid[0] < -1e-12 or f.grid[-1] > p.T + 1e-12:
            report.add(f"{name} table spans outside [0, T]")

    for name, want in {**COEF_SHAPES, **INPUT_SHAPES}.items():
        f: GridFn = getattr(p, name)
        want_shape = tuple(dims[d] for d in want)
        if f.value_shape != want_shape:
            report.add(f"{name} has shape {f.value_shape}, expected {want_shape}")
        check_span(name, f)

    for cname in ("Q", "R"):
        vals = getattr(p, cname).values
        if vals.shape[-1] == vals.shape[-2]:
            if not np.allclose(vals, np.swapaxes(vals, -1, -2), atol=0.0):
                report.add(f"{cname} not symmetric")
    if not np.all(np.isfinite(p.g)):
        report.add("g has non-finite entries")
    if not np.all(np.isfinite(p.G)):
        report.add("G has non-finite entries")
    elif not is_symmetric(p.G):
        report.add("G not symmetric")

    if p.b_mod is not None:
        if isinstance(p.b_mod.profile, GridFn):
            check_span("b profile", p.b_mod.profile)
        if not math.isfinite(p.b_mod.gamma):
            report.add(f"b: gamma must be finite, got {p.b_mod.gamma}")
        if p.n != 1:
            report.add(f"b: a modulated drift requires scalar state (n=1), got n={p.n}")
    return report


def _scalar_problem(name, T, G, b_mod=None, **coefs) -> SLQProblem:
    """Scalar problem with constant coefficients A .. R, zero inputs and the
    modulated drift ``b_mod``."""
    zero = GridFn.const(np.zeros(1))
    return SLQProblem(
        n=1, m=1, T=T, **{c: GridFn.const([[v]]) for c, v in coefs.items()},
        G=np.array([[G]], dtype=float), g=np.zeros(1),
        b=zero, sigma=zero, q=zero, rho=zero, b_mod=b_mod, name=name,
    )


def builtin_names() -> list:
    return ["example-1.1", "example-5.1", "standard-scalar"]


def builtin(name: str):
    """Return a built-in (problem, default initial pair).

    - ``example-1.1``: dX = (-2X + u) ds + 2X dW on [0,1], cost E|X(1)|^2.
      Homogeneous; open-loop but not closed-loop solvable.
    - ``example-5.1``: dX = (-X + u + b) ds + sqrt(2) X dW on [0,1] with the
      modulated drift b(s) = exp(sqrt(2) W(s) - 2s) / sqrt(1-s), cost
      E|X(1)|^2.  Open-loop but not closed-loop solvable.
    - ``standard-scalar``: dX = u ds on [0,1], cost E[X(1)^2 + int u^2].
      Uniformly convex control weight; closed-loop solvable.
    """
    if name == "example-1.1":
        p = _scalar_problem(name, T=1.0, A=-2.0, B=1.0, C=2.0, D=0.0, Q=0.0, S=0.0, R=0.0, G=1.0)
        return p, InitialPair(t=0.0, x=np.array([1.0]))
    if name == "example-5.1":
        gamma = math.sqrt(2.0)
        # gamma^2/2 = 1, so exp(gamma W - gamma^2 s/2) * e^{-s}/sqrt(1-s)
        # equals exp(sqrt(2) W(s) - 2s)/sqrt(1-s) identically.
        b_mod = Modulation(gamma=gamma, profile=named_profile("exp-inv-sqrt-gap"))
        p = _scalar_problem(name, T=1.0, A=-1.0, B=1.0, C=gamma, D=0.0, Q=0.0, S=0.0, R=0.0, G=1.0,
                            b_mod=b_mod)
        return p, InitialPair(t=0.0, x=np.array([1.0]))
    if name == "standard-scalar":
        p = _scalar_problem(name, T=1.0, A=0.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=1.0, G=1.0)
        return p, InitialPair(t=0.0, x=np.array([1.0]))
    raise UnknownProblemError(f"unknown built-in problem {name!r}")
