"""Perturbed feedback construction, eps-ladder, and weak limit extraction.

For each eps > 0 the perturbed problem is uniquely closed-loop solvable with

    Theta_eps = -(R + eps I + D'P_eps D)^{-1} (B'P_eps + D'P_eps C + S),
    v_eps     = -(R + eps I + D'P_eps D)^{-1} (B'eta + D'zeta + D'P_eps sigma + rho).

Running a decreasing eps ladder and measuring consecutive L2 distances on a
truncated window [0, T - delta] yields the weak closed-loop limit pair
(Theta*, v*): the limit is taken as the last ladder member, with the Cauchy
distances attached as evidence.  No extrapolation is applied; the
convergence is guaranteed without a rate, so the ladder depth is the
accuracy dial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bsde as bsde_mod
from .moments import second_moments
from .core import GridFn, csv_text, matmul, range_included
from .errors import BlowUpError, InvalidInputError
from .problem import InitialPair, SLQProblem
from .riccati import (
    REGULARITY_TOL,
    RegularityReport,
    RiccatiSolution,
    check_regularity,
    coef_tables,
    inner,
    solve_inner,
    solve_ladder,
)
from .simulate import ControlSpec

__all__ = [
    "PerturbedSolution",
    "WeakClosedLoopStrategy",
    "SolvabilityReport",
    "run_ladder",
    "extract_limit",
    "diagnose",
    "closed_loop_test",
    "default_ladder",
    "ladder_summary_csv",
    "strategy_csv",
]


def _node_kernel(p: SLQProblem, cf: dict, P: RiccatiSolution, h) -> tuple:
    """K, L and the scale of K at the grid nodes of ``P``, plus the
    right-hand sides of v_eps as columns: B'eta + D'P sigma + rho, then
    (B + gamma D) h when the drift is modulated (``h`` from
    :func:`~slq.bsde.solve_adjoint`, or None).  ``cf`` is
    ``coef_tables(p, P.grid)``, built once per ladder.

    The adjoint is linear in its forcing, so the pair superposes: eta is the
    sweep's ``P.eta`` of the deterministic inputs and g (zeta = 0 on that
    part) plus M h, and zeta is gamma M h.
    """
    grid = P.grid
    Ps = P.P.values
    K, L, scale = inner(cf, Ps, P.epsilon)
    B, D = cf["B"], cf["D"]
    rhs = [
        matmul(B.mT, P.eta.values[..., None])
        + matmul(D.mT, matmul(Ps, p.sigma(grid)[..., None]))
        + p.rho(grid)[..., None]
    ]
    if h is not None:
        rhs.append(((B + p.b_mod.gamma * D)[..., 0, :] * h.values[..., None])[..., None])
    return K, L, scale, rhs


@dataclass(frozen=True)
class PerturbedSolution:
    """Feedback pair (Theta_eps, v_eps) with its Riccati solution.

    ``control`` is the pair as a feedback :class:`ControlSpec` on the full
    grid; its theta node values satisfy the defining formula at every node
    exactly (to round-off).
    """

    epsilon: float
    P: RiccatiSolution
    control: ControlSpec


@dataclass(frozen=True)
class WeakClosedLoopStrategy:
    """Limit pair (Theta*, v*) as a feedback ``control`` on [0, T - delta];
    the window ends where the control's grid ends.

    cauchy_evidence rows are (eps_k, theta distance, v distance) between
    consecutive ladder members in L2(0, T - delta); ``converged`` records
    whether the final distance passed the declared tolerance.
    """

    control: ControlSpec
    cauchy_evidence: list
    converged: bool


def default_ladder(eps_max: float = 1.0, eps_min: float = 2.0**-10, factor: float = 0.5) -> list:
    """Geometric ladder eps_max * factor^k down to eps_min (inclusive)."""
    if not (0.0 < factor < 1.0) or eps_min <= 0.0 or eps_max < eps_min:
        raise InvalidInputError("need 0 < factor < 1 and 0 < eps_min <= eps_max")
    # inf * factor stays inf, so the ladder would never end; a NaN passes
    # every comparison above and would leave it empty
    for name, value in (("eps_max", eps_max), ("eps_min", eps_min)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
    out = []
    e = eps_max
    while e >= eps_min * (1.0 - 1e-12):
        out.append(e)
        e *= factor
    return out


def run_ladder(p: SLQProblem, ladder, steps: int) -> list:
    """Solve Riccati + adjoint and assemble (Theta_eps, v_eps) per rung.

    All rungs integrate as one stack on one uniform grid (see
    :func:`solve_ladder`), so downstream comparisons are node-aligned;
    solver errors name the eps of the rung that failed.  A leading eps = 0
    adds the generalized flow to the same pass; its entry, the solution or
    its :class:`BlowUpError`, is passed on unassembled (see :func:`closed_loop_test`).
    """
    ladder = [float(e) for e in ladder]
    g = int(bool(ladder) and ladder[0] == 0.0)
    if len(ladder) - g < 3:
        raise InvalidInputError("ladder must have at least 3 members")
    if any(not (a > b) for a, b in zip(ladder[g:], ladder[g + 1:])):
        raise InvalidInputError("ladder must be strictly decreasing")

    out = solve_ladder(p, ladder, steps)
    grid = out[-1].grid
    cf = coef_tables(p, grid)
    hs = bsde_mod.solve_adjoint(p, out[g:])
    for k, (P, h) in enumerate(zip(out[g:], hs), start=g):
        K, L, scale, rhs = _node_kernel(p, cf, P, h)
        theta, *v = (-solve_inner(K, r, P.epsilon, scale, grid) for r in [L] + rhs)
        control = ControlSpec(GridFn(grid, theta), *(GridFn(grid, x[..., 0]) for x in v),
                              gamma=None if h is None else p.b_mod.gamma)
        out[k] = PerturbedSolution(epsilon=P.epsilon, P=P, control=control)
    return out


def _v_l2_sq(grid, dv_det, dv_mod, gamma) -> float:
    """E int |dv_det + dv_mod M(s)|^2 ds using E[M] = 1, E[M^2] = e^{gamma^2 s}."""
    sq = np.sum(dv_det**2, axis=1)
    if dv_mod is not None:
        cross = 2.0 * np.sum(dv_det * dv_mod, axis=1)
        sq = sq + cross + np.sum(dv_mod**2, axis=1) * np.exp(gamma**2 * grid)
    return float(np.trapezoid(sq, grid))


def _l2_pair(g, theta, v_det, v_mod, gamma) -> tuple:
    """L2(g) norms of theta and of v_det + v_mod M(s), in the same order as
    the Cauchy evidence rows."""
    sq_theta = np.sum(theta.reshape(g.size, -1) ** 2, axis=1)
    return math.sqrt(np.trapezoid(sq_theta, g)), math.sqrt(_v_l2_sq(g, v_det, v_mod, gamma))


def extract_limit(sols: list, delta: float, tol: float) -> WeakClosedLoopStrategy:
    """Take the weak closed-loop limit of a ladder on [0, T - delta].

    Consecutive L2(0, T - delta) distances are computed for Theta and for the
    v parts; convergence is declared when the final distances fall below
    ``tol * max(1, norm of last iterate)``.  The returned strategy is the
    last ladder member restricted to the window.
    """
    if len(sols) < 3:
        raise InvalidInputError("need at least 3 ladder members")
    ctrls = [s.control for s in sols]
    grid0 = ctrls[0].theta.grid
    for c in ctrls[1:]:
        if c.theta.grid.shape != grid0.shape or not np.array_equal(c.theta.grid, grid0):
            raise InvalidInputError("ladder members must share one grid")
    T = grid0[-1]
    if not (0.0 < delta < T):
        raise InvalidInputError(f"delta must be in (0, {T}), got {delta}")
    cut = T - delta
    keep = grid0 <= cut + 1e-15
    if keep.sum() < 2:
        raise InvalidInputError("truncated window contains fewer than 2 grid nodes")
    g = grid0[keep]

    last = ctrls[-1]
    gamma = last.gamma if last.gamma is not None else 0.0
    evidence = []
    for sol, a, b in zip(sols, ctrls, ctrls[1:]):
        if (a.v_mod_profile is None) != (b.v_mod_profile is None):
            raise InvalidInputError("ladder members disagree on modulation structure")
        dth = (b.theta.values - a.theta.values)[keep]
        dvd = (b.v_det.values - a.v_det.values)[keep]
        dvm = None
        if a.v_mod_profile is not None:
            dvm = (b.v_mod_profile.values - a.v_mod_profile.values)[keep]
        evidence.append((sol.epsilon, *_l2_pair(g, dth, dvd, dvm, gamma)))

    window = last.restrict(cut)
    vm_last = window.v_mod_profile.values if window.v_mod_profile is not None else None
    norm_theta, norm_v = _l2_pair(g, window.theta.values, window.v_det.values, vm_last, gamma)
    converged = evidence[-1][1] <= tol * max(1.0, norm_theta) and evidence[-1][2] <= tol * max(
        1.0, norm_v
    )

    return WeakClosedLoopStrategy(control=window, cauchy_evidence=evidence, converged=converged)


@dataclass(frozen=True)
class SolvabilityReport:
    """Verdicts from the closed-loop test and the eps-ladder boundedness probe.

    The raw ladder numbers are always carried so a user can re-judge the
    heuristic thresholds; any finite-ladder verdict is an inference about an
    asymptotic statement.  ``controls`` are the rungs' feedback pairs, for a
    Monte Carlo cross-check of the exact norms.
    """

    closed_loop: RegularityReport
    open_loop_verdict: str  # solvable | not-solvable | inconclusive
    u_norms: list  # (eps, E int |u_eps|^2)
    u_distances: list  # (eps_k, sqrt E int |u_k - u_{k+1}|^2)
    convergence_ratio: float
    controls: list


def closed_loop_test(p: SLQProblem, P0) -> RegularityReport:
    """The regularity tests of a generalized Riccati solution and, for a
    regular one, the adjoint range condition.

    ``P0`` is the eps = 0 entry of :func:`run_ladder`.  A finite-time
    blow-up counts as not regular and gives its time.
    """
    if isinstance(P0, BlowUpError):
        return RegularityReport(blowup_time=P0.time)
    reg = check_regularity(P0, p)
    if reg.verdict != "regular":
        return reg
    (h,) = bsde_mod.solve_adjoint(p, [P0])
    K, _, _, rhs = _node_kernel(p, coef_tables(p, P0.grid), P0, h)
    return replace(reg, eta_ok=all(range_included(r, K, REGULARITY_TOL) for r in rhs))


# relative round-off slack of the shrink test: example 1.1's exact distance
# ratio at rungs (0.5 -> 0.25) / (0.25 -> 0.125) is 2 * 1.125 / 1.5 = 1.5
SHRINK_SLACK = 1e-6


def diagnose(p: SLQProblem, ip: InitialPair, ladder, steps: int) -> SolvabilityReport:
    """Diagnose closed-loop and open-loop solvability.

    Closed-loop: :func:`closed_loop_test`.  Open-loop: the exact second
    moments (:func:`~slq.moments.second_moments`) of the outcomes
    u_eps = Theta_eps X_eps + v_eps of every ladder rung on one Brownian
    motion give E int |u_eps|^2 and the pathwise L2 distances between
    consecutive rungs; the verdict judges their boundedness and decay.
    Thresholds: bounded means max/min of the last three norms < 10 and
    distances shrinking by >= 1.5x per halving; growth by >= 2x per rung
    over >= 4 rungs means not-solvable; anything else is inconclusive.
    """
    P0, *sols = run_ladder(p, [0.0, *ladder], steps)
    controls = [s.control for s in sols]
    mom = second_moments(p, ip, controls, steps)

    u_norms = [(s.epsilon, float(v)) for s, v in zip(sols, mom.control_norm_sq)]
    u_distances = [
        (s.epsilon, math.sqrt(max(float(d), 0.0))) for s, d in zip(sols, mom.pair_dist_sq)
    ]

    norms = mom.control_norm_sq
    dists = np.array([d for _, d in u_distances])
    last3 = norms[-3:]
    bounded = float(last3.max()) < 10.0 * max(float(last3.min()), 1e-300)
    ratios = dists[:-1] / np.maximum(dists[1:], 1e-300)
    n_check = min(3, ratios.size)
    shrinking = n_check > 0 and bool(np.all(ratios[-n_check:] >= 1.5 * (1.0 - SHRINK_SLACK)))
    growth_ratios = norms[1:] / np.maximum(norms[:-1], 1e-300)
    growing = growth_ratios.size >= 4 and bool(np.all(growth_ratios[-4:] >= 2.0))

    if bounded and shrinking:
        verdict = "solvable"
    elif growing:
        verdict = "not-solvable"
    else:
        verdict = "inconclusive"

    return SolvabilityReport(
        closed_loop=closed_loop_test(p, P0),
        open_loop_verdict=verdict,
        u_norms=u_norms,
        u_distances=u_distances,
        convergence_ratio=float(ratios[-1]) if ratios.size else float("nan"),
        controls=controls,
    )


def ladder_summary_csv(sols: list, evidence: list, u_norms=None) -> str:
    """CSV: eps,u_norm_sq,theta_l2_dist,v_l2_dist (distances to next rung),
    nan where a rung has no value."""
    norm_by_eps = {e: v for e, v, *_ in u_norms or ()}
    dist_by_eps = {e: (dt, dv) for e, dt, dv in evidence}
    rows = [(s.epsilon, norm_by_eps.get(s.epsilon, np.nan),
             *dist_by_eps.get(s.epsilon, (np.nan, np.nan))) for s in sols]
    return csv_text("eps,u_norm_sq,theta_l2_dist,v_l2_dist", [np.array(rows)])


def strategy_csv(ws: WeakClosedLoopStrategy) -> str:
    """CSV dump of (Theta*, v*): s,theta_11..,v_det_1..,v_mod_profile."""
    c = ws.control
    g = c.theta.grid
    th = c.theta.values
    vd = c.v_det.values
    m, n = th.shape[1], th.shape[2]
    cols = ["s", *(f"theta_{i + 1}{j + 1}" for i in range(m) for j in range(n)),
            *(f"v_det_{i + 1}" for i in range(m)), "v_mod_profile"]
    vm = [] if c.v_mod_profile is None else [c.v_mod_profile.values[:, :1]]
    return csv_text(",".join(cols), [g[:, None], th.reshape(g.size, -1), vd, *vm], blank=not vm)
