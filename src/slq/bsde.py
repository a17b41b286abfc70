"""Modulated part of the adjoint backward equation for the perturbed
feedback construction.

The solver takes a whole eps ladder of Riccati solutions and returns one
result per rung; a single solution is a ladder of one.  The adjoint pair
(eta, zeta) of the deterministic inputs and g needs nothing here: zeta
vanishes, and the Riccati sweep integrates eta beside P in the same RK4
stages (``RiccatiSolution.eta``, see :mod:`slq.riccati`).  For a
martingale-modulated drift b(s) = M(s) f(s) with
M(s) = exp(gamma*W(s) - gamma^2 s/2) on a scalar state, the ansatz
eta = M*h, zeta = gamma*M*h turns the backward SDE into a deterministic
ODE for the scalar h, for any number of controls,

    h' = -[(A + B*Th + gamma*(C + D*Th)) h + P f],   h(T) = 0.

The h equation is integrated with an exact-propagator product-integration
scheme: each backward step multiplies by exp(int a) and adds a Gauss-Legendre
quadrature of the forcing, with the substitution u = sqrt(T - s) on every
interval when the profile carries an inverse-square-root endpoint
singularity.  Plain RK4 loses several orders across that layer even when the
first step is handled analytically, which is why the product rule is used
throughout.
"""

from __future__ import annotations

import numpy as np

from .core import GridFn, interp_weights, matmul
from .errors import InvalidInputError
from .problem import NamedProfile, SLQProblem
from .riccati import coef_tables, gain

__all__ = ["solve_adjoint"]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def _gauss_nodes(lo: np.ndarray, hi: np.ndarray):
    """Per-interval 4-point Gauss-Legendre nodes/weights, vectorized."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * _GL_X
    weights = half[..., None] * _GL_W
    return nodes, weights


def _adjoint_modulated(p: SLQProblem, sols) -> list:
    """Exact per-path reduction for a scalar state with modulated drift.

    Requires n = 1 and a modulated b.  Returns, per Riccati solution in
    ``sols``, the profile h with eta = M*h and zeta = gamma*M*h.  Each Gauss
    node set's coefficient tables and interpolation weights are built once
    for all solutions; the gains and the h recurrence, on Python floats,
    then run rung by rung.
    """
    if p.n != 1:
        raise InvalidInputError(f"modulated reduction requires a scalar state (n = 1), got n = {p.n}")

    T = p.T
    gamma = float(p.b_mod.gamma)
    profile = p.b_mod.profile
    grid = sols[0].grid
    lo, hi = grid[:-1], grid[1:]

    # propagator exponents int_{lo_k}^{hi_k} a
    tau_nodes, tau_w = _gauss_nodes(lo, hi)

    if isinstance(profile, NamedProfile):
        # substitute r = T - u^2: the forcing integrand becomes smooth in u
        u_lo = np.sqrt(np.maximum(T - hi, 0.0))
        u_hi = np.sqrt(np.maximum(T - lo, 0.0))
        u_nodes, u_w = _gauss_nodes(u_lo, u_hi)
        r_nodes = T - u_nodes**2
        dens = 2.0 * np.ones_like(u_nodes)
        f_smooth = profile.smooth_at(r_nodes.reshape(-1)).reshape(r_nodes.shape)
    else:
        r_nodes, u_w = _gauss_nodes(lo, hi)
        dens = np.ones_like(r_nodes)
        f_smooth = p.b_mod.profile_at(r_nodes.reshape(-1), T).reshape(r_nodes.shape)

    # inner exponents int_{lo_k}^{r_{k,i}} a, one 4-point rule per (k, i)
    inner_lo = np.broadcast_to(lo[:, None], r_nodes.shape)
    in_nodes, in_w = _gauss_nodes(inner_lo, r_nodes)

    def integrals(nodes, w):
        """int (A + B Th + gamma (C + D Th)) by 4-point rules, rung by rung."""
        times = nodes.reshape(-1)
        cf, at = coef_tables(p, times), interp_weights(sols[0].grid, times)
        for P in sols:
            Th = gain(P, p, times, cf, at)
            a = cf["A"] + matmul(cf["B"], Th) + gamma * (cf["C"] + matmul(cf["D"], Th))
            yield np.sum(a.reshape(nodes.shape) * w, axis=-1)

    prop = [np.exp(Ia) for Ia in integrals(tau_nodes, tau_w)]
    # the inner rules one forcing node per interval at a time: no rung's
    # temporaries span all 16 inner nodes of an interval
    inner_a = np.stack([list(integrals(in_nodes[:, i], in_w[:, i])) for i in range(4)], axis=-1)
    at_r = interp_weights(sols[0].grid, r_nodes.reshape(-1))
    h = []
    for P, pr, ia in zip(sols, prop, inner_a):
        g_vals = np.exp(ia) * P.P.interp(at_r).reshape(r_nodes.shape) * f_smooth * dens
        F = np.sum(g_vals * u_w, axis=1)
        x, hk = 0.0, [0.0]  # h(T) = 0, then h_k = prop_k h_{k+1} + F_k backward
        for a, f in zip(pr[::-1].tolist(), F[::-1].tolist()):
            x = a * x + f
            hk.append(x)
        h.append(GridFn(grid, np.array(hk[::-1])))
    return h


def solve_adjoint(p: SLQProblem, sols) -> list:
    """The modulated profile h of each Riccati solution in ``sols``, on the
    grid they must share; None per solution when the drift is not modulated."""
    if any(not np.array_equal(P.grid, sols[0].grid) for P in sols[1:]):
        raise InvalidInputError("Riccati solutions must share one grid")
    if p.b_mod is None:
        return [None] * len(sols)
    return _adjoint_modulated(p, sols)
