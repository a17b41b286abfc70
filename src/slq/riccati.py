"""Backward integration of the perturbed and generalized Riccati equations,
each with the adjoint eta of the deterministic inputs beside it.

Both flows share one right-hand side

    dP/ds = -[P A + A'P + C'P C + Q - L' K^{-1} L],    L = B'P + D'P C + S,

with K = R + eps*I + D'P D inverted exactly in the perturbed flow and
K = R + D'P D pseudo-inverted in the generalized flow.  For deterministic
inputs zeta = 0, and eta solves a linear equation driven by P and the gain
Theta = -K^{-1} L (K^+ in the generalized flow):

    deta/ds = -[(A + B Theta)'eta + (C + D Theta)'P sigma + Theta'rho + P b + q],  eta(T) = g.

Integration is classical fixed-step RK4 from T down to 0 on the rows
(P, eta), so eta reads P and Theta at every stage and keeps fourth order;
P is symmetrized after every step and never reads eta.  Unforced (b, sigma,
q, rho and g zero), eta is exactly +0.0 and only P is integrated.  One
backward loop, :func:`_solve_backward`, holds the generalized flow and a
whole eps ladder as one stack on one uniform grid and owns the blow-up test
and the step doubling, both on P.  Two backends supply its arithmetic: numpy
stacks for any n and m, and for n = m = 1 Python floats with the numpy
backend's bits, since numpy's per-call cost on 1x1 matrices was most of a
scalar solve.  Blow-up is reported, not papered over: an indefinite
generalized equation may fail to have a global solution, so its blow-up is
returned while the ladder goes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    GridFn, interp_weights, matmul, pinv, pinv_1x1, range_included, symmetrize,
)
from .errors import BlowUpError, DegeneratePerturbationError, InvalidInputError
from .problem import SLQProblem

__all__ = [
    "RiccatiSolution",
    "RegularityReport",
    "solve_ladder",
    "solve_gre",
    "coef_tables",
    "inner",
    "solve_inner",
    "gain",
    "check_regularity",
    "riccati_csv",
]

BLOWUP_NORM = 1e12
COND_LIMIT = 1e14


@dataclass(frozen=True)
class RiccatiSolution:
    """Symmetric matrix flow P(.) and adjoint eta(.) on a uniform grid of [0, T].

    ``epsilon == 0`` marks the unperturbed generalized equation.  P(T) equals
    the terminal weight exactly; every stored node is exactly symmetric.
    eta(T) equals g, and eta is exactly +0.0 when b, sigma, q, rho and g are.
    """

    epsilon: float
    P: GridFn
    eta: GridFn
    steps: int
    max_local_error_estimate: float
    max_step_asymmetry: float

    @property
    def grid(self) -> np.ndarray:
        return self.P.grid


def coef_tables(p: SLQProblem, times) -> dict:
    """Coefficients of K and L at scalar or array times, with A'..D' and |R| = max |R_ij|."""
    cf = {name: getattr(p, name)(times) for name in "ABCDQSR"}
    cf.update({f"{name}'": cf[name].mT for name in "ABCD"})
    cf["|R|"] = np.abs(cf["R"]).max(axis=(-2, -1))
    return cf


def _eps_rows(eps: np.ndarray, m: int) -> tuple:
    """``(g, eps[g:], eps[g:] I)`` for a stack whose first ``g`` entries are 0."""
    g = int(np.count_nonzero(eps == 0.0))
    return g, eps[g:], eps[g:, None, None] * np.eye(m)


def inner(cf: dict, P: np.ndarray, eps, idx=slice(None)) -> tuple:
    """K = R + eps I + D'PD, L = B'P + D'PC + S, and the summand scale of K.

    ``P`` is a stack ``(N, n, n)``; ``idx`` picks the matching rows of the
    coefficient tables ``cf`` (one quarter-grid row shared by the stack, or
    one row per entry).  ``eps`` is one value for the whole stack, or the
    :func:`_eps_rows` of a stack led by generalized flows (eps = 0).  The
    scale covers the eps > 0 rows, or is None if there are none.
    """
    if not isinstance(eps, tuple):
        eps = _eps_rows(np.full(len(P), eps), cf["R"].shape[-1])
    g, e, eps_I = eps
    PD = matmul(P, cf["D"][idx])
    DPD = matmul(cf["D'"][idx], PD)
    K = cf["R"][idx] + DPD
    scale = None  # read only by the eps > 0 conditioning check
    if g < len(P):
        scale = cf["|R|"][idx] + np.abs(DPD[g:]).max(axis=(-2, -1)) + e
        K[g:] += eps_I
    L = matmul(cf["B'"][idx], P) + matmul(PD.mT, cf["C"][idx]) + cf["S"][idx]
    return K, L, scale


def _singular(eps: float, s: float) -> DegeneratePerturbationError:
    return DegeneratePerturbationError(
        f"R + {eps}*I + D'PD is numerically singular at s={s:.6g}; increase eps"
    )


def solve_inner(K: np.ndarray, rhs: np.ndarray, eps, scale, times) -> np.ndarray:
    """K^{-1} rhs for eps > 0, the pseudoinverse K^+ rhs for eps = 0.

    Works on a stack as returned by :func:`inner` with one sign of eps, the
    scale being None for eps = 0; ``eps`` and ``times`` are each a scalar or
    an array along the stack axis.  For eps > 0, K = R + eps I + D'PD must
    be invertible relative to the scale of its summands (not of K itself): a
    tiny K produced by large cancelling terms means eps is too small for the
    given weights, and raises :class:`DegeneratePerturbationError` naming
    the eps and time of the first bad stack entry.
    """
    if scale is None:
        return matmul(pinv(K), rhs)
    m = K.shape[-1]
    if m == 1:
        lo = hi = np.abs(K[:, 0, 0])
    else:
        ev = np.abs(np.linalg.eigvalsh(symmetrize(K)))
        lo, hi = ev.min(axis=1), ev.max(axis=1)
    bad = lo <= np.maximum(hi, scale) / COND_LIMIT
    if bad.any():
        i = np.argmax(bad)
        raise _singular(*(float(np.broadcast_to(x, bad.shape)[i]) for x in (eps, times)))
    if m == 1:
        return rhs / K
    return np.linalg.solve(K, rhs)


def _forcing(p: SLQProblem, times: np.ndarray) -> Optional[list]:
    """b, sigma, q and rho at ``times``, or None when they and g are all zero."""
    inputs = (p.b, p.sigma, p.q, p.rho)
    if not (p.g.any() or any(f.values.any() for f in inputs)):
        return None
    return [f(times) for f in inputs]


def _zeros(shape: tuple) -> np.ndarray:
    """A read-only table of +0.0 whose rows share one block of memory: the
    eta of an unforced stack, allocated once for all its rows."""
    return np.broadcast_to(np.zeros(shape[1:]), shape)


def _rk4(stage, j: int, y: list, step: float, stride: int, frozen: int) -> list:
    """One classical RK4 step of y' = stage(j, y, frozen) backward from
    quarter-grid index j to j - stride, midpoint j - stride/2, on a list y of
    Python floats or of numpy stacks: one sum order serves both."""
    k1 = stage(j, y, frozen)
    k2 = stage(j - stride // 2, [v - (0.5 * step) * k for v, k in zip(y, k1)], frozen)
    k3 = stage(j - stride // 2, [v - (0.5 * step) * k for v, k in zip(y, k2)], frozen)
    k4 = stage(j - stride, [v - step * k for v, k in zip(y, k3)], frozen)
    return [v - (step / 6.0) * (((a + 2.0 * b) + 2.0 * c) + d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)]


class _MatrixRows:
    """The arithmetic of :func:`_solve_backward` on numpy stacks for any n and
    m, the state ``[P]`` of shape ``(N, n, n)``, or ``[P, eta]`` with eta
    ``(N, n)`` when forced; it tracks each row's largest step asymmetry."""

    def __init__(self, p: SLQProblem, eps: np.ndarray, times: np.ndarray):
        self.p, self.times, self.cf = p, times, coef_tables(p, times)
        self.rows = _eps_rows(eps, p.m)
        self.forcing = _forcing(p, times)
        self.LKL = np.empty((eps.size, p.n, p.n))  # the gain term L'K^{-1}L, or L'K^+L
        self.KL = np.empty((eps.size, p.m, p.n))  # K^{-1}L, or K^+L; read for eta
        self.y_T = [np.repeat(symmetrize(np.asarray(p.G, dtype=float))[None], eps.size, axis=0)]
        if self.forcing is not None:
            self.y_T.append(np.repeat(p.g[None] + 0.0, eps.size, axis=0))
        size = (eps.size, (times.size - 1) // 4 + 1)
        self.P = np.empty(size + (p.n, p.n))
        self.eta = _zeros(size + (p.n,)) if self.forcing is None else np.empty(size + (p.n,))
        self.max_asym = np.zeros(eps.size)

    def stage(self, j: int, y: list, frozen: int) -> list:
        """dP (and deta if forced) at quarter-grid index j, zero on the first
        ``frozen`` rows; the first ``g`` rows are generalized (:func:`_eps_rows`)."""
        P, m = y[0], self.p.m
        cf, LKL, KL, (g, e, _) = self.cf, self.LKL, self.KL, self.rows
        K, L, scale = inner(cf, P, self.rows, j)
        if g:
            # L'(K^+ L); pinv_1x1 skips pinv's checks: a non-finite value reaches the blow-up test
            KL[:g] = (pinv_1x1(K[:g]) if m == 1 else pinv(K[:g])) @ L[:g]
            LKL[:g] = L[:g].mT @ KL[:g]
        if e.size:
            if m == 1:
                # K^{-1} is a scalar here, so L' K^{-1} L = K^{-1} (L'L)
                LKL[g:] = solve_inner(K[g:], L[g:].mT @ L[g:], e, scale, self.times[j])
                if self.forcing is not None:
                    KL[g:] = L[g:] / K[g:]
            else:
                KL[g:] = solve_inner(K[g:], L[g:], e, scale, self.times[j])
                LKL[g:] = L[g:].mT @ KL[g:]
        dP = -(P @ cf["A"][j] + cf["A'"][j] @ P + cf["C'"][j] @ P @ cf["C"][j] + cf["Q"][j] - LKL)
        dP[:frozen] = 0.0
        if self.forcing is None:
            return [dP]
        b, sigma, q, rho = (f[j] for f in self.forcing)
        Th = -KL
        force = ((cf["C"][j] + cf["D"][j] @ Th).mT @ (P @ sigma[:, None])
                 + Th.mT @ rho[:, None] + P @ b[:, None])[..., 0] + q
        deta = -(((cf["A"][j] + cf["B"][j] @ Th).mT @ y[1][..., None])[..., 0] + force)
        deta[:frozen] = 0.0
        return [dP, deta]

    @staticmethod
    def norms(y: list, z=None) -> np.ndarray:
        """The Frobenius norm of each row of P = y[0], or of P - z[0]."""
        return np.linalg.norm(y[0] if z is None else y[0] - z[0], axis=(-2, -1))

    def symmetrized(self, y: list, norms: np.ndarray) -> list:
        asym = np.linalg.norm(y[0] - y[0].mT, axis=(-2, -1)) / np.maximum(1.0, norms)
        self.max_asym = np.maximum(self.max_asym, asym)
        return [symmetrize(y[0]), *y[1:]]

    def write(self, k: int, y: list) -> None:
        for table, v in zip((self.P, self.eta), y):
            table[:, k] = v


class _ScalarRows:
    """:class:`_MatrixRows` for n = m = 1 on a list of Python floats, the P
    rows, then the eta rows when forced, in its order of operations and so
    with its bits and errors.  A numpy 1x1 product is 0.0 + a*b, never -0.0,
    and the tables hold no -0.0, so q and s (and q of eta) make a zero sum
    +0.0 as there; a finite 1x1 step's asymmetry is 0.0."""

    def __init__(self, p: SLQProblem, eps: np.ndarray, times: np.ndarray):
        self.tab = np.stack([getattr(p, k)(times)[:, 0, 0] + 0.0 for k in "ABCDQSR"], axis=1)
        self.rates, self.times = eps.tolist(), times
        forcing, n = _forcing(p, times), eps.size
        self.y_T = symmetrize(np.asarray(p.G, dtype=float)).ravel().tolist() * n
        if forcing is not None:
            self.inputs = np.stack([f[:, 0] + 0.0 for f in forcing], axis=1)
            self.y_T += (p.g + 0.0).tolist() * n
        self.forced = forcing is not None
        self.nodes = np.empty((len(self.y_T), (times.size - 1) // 4 + 1))  # P rows, then eta's
        self.P = self.nodes[:n, :, None, None]
        self.eta = self.nodes[n:, :, None] if self.forced else _zeros(self.P.shape[:3])
        self.max_asym = [0.0] * n

    def stage(self, j: int, y: list, frozen: int) -> list:
        a, b, c, d, q, s, r = self.tab[j].tolist()  # one row per stage, not the table
        abs_r, dP, thetas = abs(r), [], [] if self.forced else None
        for x, e in zip(y, self.rates):  # the P rows
            xd = x * d
            dxd = d * xd
            K, L = r + dxd, (b * x + xd * c) + s
            if e == 0.0:  # a generalized row: L (K^+ L)
                KL = (1.0 / K if K != 0.0 else 0.0) * L
                LKL = L * KL
            else:
                K += e
                # max(abs_K, scale) as the builtin picks it, NaN included,
                # without the call
                abs_K, scale = abs(K), (abs_r + abs(dxd)) + e
                if abs_K <= (scale if scale > abs_K else abs_K) / COND_LIMIT:
                    raise _singular(e, float(self.times[j]))
                LKL = (L * L) / K
            xa = x * a  # = a * x, so x a + a x is xa + xa
            dP.append(-((((xa + xa) + (c * x) * c) + q) - LKL))
            if thetas is not None:
                thetas.append(-(KL if e == 0.0 else L / K))
        dP[:frozen] = [0.0] * frozen
        if thetas is None:
            return dP
        bv, sv, qv, rv = self.inputs[j].tolist()
        deta = [-((a + b * th) * v + ((((c + d * th) * (x * sv) + th * rv) + x * bv) + qv))
                for x, v, th in zip(y, y[len(thetas):], thetas)]
        deta[:frozen] = [0.0] * frozen
        return dP + deta

    def norms(self, y: list, z=None) -> list:
        """The norm of each P row of y, or of y - z."""
        P = y[:len(self.rates)]
        if z is None:
            return [math.sqrt(x * x) for x in P]
        return [math.sqrt((x - w) * (x - w)) for x, w in zip(P, z)]

    def symmetrized(self, y: list, norms: list) -> list:
        n = len(self.rates)
        return [0.5 * (x + x) for x in y[:n]] + y[n:]

    def write(self, k: int, y: list) -> None:
        self.nodes[:, k] = y


def _solve_backward(p: SLQProblem, eps: np.ndarray, steps: int) -> list:
    """One RK4 loop over the stack of flows for the values in ``eps``, on
    :class:`_ScalarRows` for n = m = 1 and on :class:`_MatrixRows` otherwise;
    each flow carries its eta when the problem is forced.

    A leading eps = 0 is the generalized flow.  Its blow-up never raises:
    the row, P and eta, freezes at its last finite value, the other rows go
    on, and its entry is the :class:`BlowUpError`.  A positive row that
    leaves the finite regime raises, naming the first such eps in stack
    order.  Only P is tested and enters the step-doubling estimate.
    """
    if steps < 16:
        raise InvalidInputError(f"steps must be >= 16, got {steps}")
    # on the quarter grid, index j = 4k is node k, a step's midpoint is
    # 4k - 2 and the half steps' are 4k - 1 and 4k - 3
    h, grid = p.T / steps, np.linspace(0.0, p.T, steps + 1)
    times = np.linspace(0.0, p.T, 4 * steps + 1)
    rows = (_ScalarRows if p.n == p.m == 1 else _MatrixRows)(p, eps, times)
    stage, norms = rows.stage, rows.norms
    g, rates = int(np.count_nonzero(eps == 0.0)), eps.tolist()
    y = rows.y_T
    rows.write(steps, y)
    max_err, gre_blowup, frozen = [0.0] * eps.size, None, 0  # frozen: leading rows held still
    err_stride = max(1, steps // max(1, steps // 10))  # ~10% subsample
    for k in range(steps, 0, -1):
        y_new = _rk4(stage, 4 * k, y, h, 4, frozen)
        norm = norms(y_new)
        blown = [i for i, x in enumerate(norm) if not x <= BLOWUP_NORM]  # NaN too
        if blown:
            i = next((i for i in blown if i >= g), 0)  # else the generalized flow
            s = grid[k - 1]
            exc = BlowUpError(
                f"Riccati flow (eps={rates[i]}) left the finite regime near s={s:.6g}", time=s)
            if i >= g:
                raise exc
            # the step again with the generalized rows, P and eta, held still
            gre_blowup, frozen = exc, g
            y_new = _rk4(stage, 4 * k, y, h, 4, frozen)
            norm = norms(y_new)
        if k % err_stride == 0:
            # step-doubling local error estimate on a subsample of steps
            y_half = _rk4(stage, 4 * k - 2, _rk4(stage, 4 * k, y, 0.5 * h, 2, frozen),
                          0.5 * h, 2, frozen)
            max_err = [m if m != m or m >= e else e  # a NaN stays
                       for m, e in zip(max_err, norms(y_new, y_half))]
        y = rows.symmetrized(y_new, norm)
        rows.write(k - 1, y)
    sols = [RiccatiSolution(e, GridFn(grid, v), GridFn(grid, w), steps, float(err), float(asym))
            for e, v, w, err, asym in zip(rates, rows.P, rows.eta, max_err, rows.max_asym)]
    return [gre_blowup, *sols[1:]] if gre_blowup else sols


def solve_ladder(p: SLQProblem, ladder, steps: int) -> list:
    """Integrate the eps-perturbed Riccati equation for every eps of a ladder.

    All rungs advance as one ``(L, n, n)`` stack through one RK4 loop on one
    uniform grid; no rung's bits depend on the others.  K = R + eps*I + D'PD
    is inverted exactly, and a condition number above 1e14 raises
    :class:`DegeneratePerturbationError`.  The gain term scales like 1/eps,
    so the explicit integrator needs steps >~ T * |P| / eps: the first step
    at which a rung leaves the finite regime raises :class:`BlowUpError`
    naming its eps (the first in ladder order on a tie).  An eps = 0 ahead
    of the rungs adds the generalized flow as one more row: its entry equals
    :func:`solve_gre`, but a blow-up is returned, not raised.
    """
    eps = np.asarray(ladder, dtype=float)
    rungs = eps[1:] if eps.size > 1 and eps[0] == 0.0 else eps
    if not np.all(rungs > 0.0):
        raise InvalidInputError(f"eps must be positive, got {float(rungs[np.argmin(rungs > 0.0)])}")
    return _solve_backward(p, eps, steps)


def solve_gre(p: SLQProblem, steps: int) -> RiccatiSolution:
    """Integrate the generalized Riccati equation (pseudoinverse gain).

    Completes even when the solution exists but is not regular; finite-time
    blow-up raises :class:`BlowUpError` carrying the first bad node time.
    """
    sol = _solve_backward(p, np.zeros(1), steps)[0]
    if isinstance(sol, BlowUpError):
        raise sol
    return sol


def gain(P: RiccatiSolution, p: SLQProblem, times, cf=None, at=None) -> np.ndarray:
    """Feedback gain -K^{-1} L of a Riccati solution at an array of times, ``(N, m, n)``.

    K = R + eps I + D'PD uses ``P.epsilon``; for eps = 0 this is the
    pseudoinverse candidate gain -(R + D'PD)^+ (B'P + D'PC + S) of the
    generalized equation.  ``cf`` is ``coef_tables(p, times)`` and ``at``
    is ``interp_weights(P.grid, times)`` when the caller already holds
    them, as for a ladder of solutions on one grid and shared times.
    """
    cf = coef_tables(p, times) if cf is None else cf
    at = interp_weights(P.grid, times) if at is None else at
    K, L, scale = inner(cf, P.P.interp(at), P.epsilon)
    return -solve_inner(K, L, P.epsilon, scale, times)


# tolerance of the positivity and range tests of the closed-loop conditions
REGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class RegularityReport:
    """The closed-loop test of a generalized Riccati solution.

    verdict is "regular" iff positivity, finite feedback L2 norm and the
    range-inclusion condition all hold on the solution grid.  A flow that
    blew up carries its ``blowup_time`` and none of the three.  ``eta_ok``
    is the adjoint range condition, None unless the solution is regular.
    """

    positivity_ok: bool = False
    theta_hat_l2: float = math.inf  # also when the halving probe diverges
    range_ok: bool = False
    blowup_time: Optional[float] = None
    eta_ok: Optional[bool] = None

    @property
    def verdict(self) -> str:
        ok = self.positivity_ok and self.range_ok and math.isfinite(self.theta_hat_l2)
        return "regular" if ok else "not-regular"

    @property
    def solvable(self) -> bool:
        """Closed-loop solvable: regular and no failed eta range check."""
        return self.verdict == "regular" and self.eta_ok is not False

    def lines(self) -> list:
        """The closed-loop verdict line and its detail lines."""
        if self.blowup_time is not None:
            detail = f"generalized Riccati flow blew up near s={self.blowup_time:.6g}"
        else:
            detail = (f"positivity_ok={self.positivity_ok} range_ok={self.range_ok} "
                      f"theta_hat_l2={self.theta_hat_l2:.6g}")
        out = [f"closed-loop: {'solvable (regular)' if self.solvable else 'NOT solvable'}",
               f"  {detail}"]
        if self.eta_ok is False:
            out.append("  eta range condition fails: B'eta + D'zeta + D'P sigma + rho not in range(K)")
        return out


def _theta_hat_l2_probe(P: RiccatiSolution, p: SLQProblem) -> float:
    """L2 norm of the candidate gain with a delta-halving divergence probe near T.

    A genuinely infinite int |gain|^2 cannot be computed, so the norm
    over [0, T - delta] is tracked while delta halves from 1e-2 to 1e-5; if
    the last halving still grows the norm materially the value is flagged
    infinite.
    """
    T = p.T
    base_cut = T - 1e-2 * T
    base_grid = P.grid[P.grid <= base_cut]
    if base_grid.size < 2 or base_grid[-1] < base_cut - 1e-15:
        base_grid = np.append(base_grid, base_cut)
    th = gain(P, p, base_grid)
    sq = np.sum(th.reshape(base_grid.size, -1) ** 2, axis=1)
    base_sq = float(np.trapezoid(sq, base_grid))

    deltas = 1e-2 * T * 0.5 ** np.arange(0, 11)  # down to ~1e-5 T
    gaps = np.unique(np.concatenate([np.geomspace(deltas[-1], 1e-2 * T, 257), deltas]))
    tail_nodes = T - gaps[::-1]  # ascending times from base_cut to T - min(delta)
    th_tail = gain(P, p, tail_nodes)
    sq_tail = np.sum(th_tail.reshape(tail_nodes.size, -1) ** 2, axis=1)

    norms = []
    for d in deltas:
        mask = tail_nodes <= (T - d) + 1e-18
        tail_sq = float(np.trapezoid(sq_tail[mask], tail_nodes[mask])) if mask.sum() >= 2 else 0.0
        norms.append(float(np.sqrt(max(base_sq + tail_sq, 0.0))))
    if norms[-1] - norms[-2] > 0.02 * max(1.0, norms[-1]):
        return float("inf")
    return norms[-1]


def check_regularity(P: RiccatiSolution, p: SLQProblem) -> RegularityReport:
    """Test the three regularity conditions of a generalized Riccati solution.

    (a) min eigenvalue of R + D'PD >= -REGULARITY_TOL at every grid node,
    (b) trapezoid L2 norm of the candidate gain finite under the
        delta-halving probe,
    (c) range(B'P + D'PC + S) contained in range(R + D'PD) at every node.
    """
    if P.epsilon != 0.0:
        raise InvalidInputError(
            f"regularity needs a generalized solution (eps = 0), got eps={P.epsilon}"
        )
    K, L, _ = inner(coef_tables(p, P.grid), P.P.values, 0.0)
    return RegularityReport(
        positivity_ok=bool(np.linalg.eigvalsh(symmetrize(K)).min() >= -REGULARITY_TOL),
        theta_hat_l2=_theta_hat_l2_probe(P, p),
        range_ok=range_included(L, K, REGULARITY_TOL),
    )


def riccati_csv(sols: list) -> list:
    """One CSV dump per solution of a ladder on one grid: header
    s,P_11,...,P_nn; one row per node; 17 digits.  The shared s column is
    formatted once."""
    grid = sols[0].grid
    if any(not np.array_equal(sol.grid, grid) for sol in sols):
        raise InvalidInputError("ladder members must share one grid")
    n = sols[0].P.values.shape[1]
    header = "s," + ",".join(f"P_{i + 1}{j + 1}" for i in range(n) for j in range(n))
    # one format string per row, as core.csv_text, with s as ready text
    s_col = ["%.17g" % s for s in grid.tolist()]
    fmt = "%s" + ",%.17g" * (n * n)
    out = []
    for sol in sols:
        entries = sol.P.values.reshape(grid.size, -1).T.tolist()
        out.append("\n".join([header, *map(fmt.__mod__, zip(s_col, *entries))]) + "\n")
    return out
