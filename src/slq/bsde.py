"""Adjoint backward equation for the perturbed feedback construction.

Every solver takes a whole eps ladder of Riccati solutions and returns one
adjoint per rung from one pass; a single solution is a ladder of one.  Two
input classes admit exact reductions of the adjoint pair (eta, zeta):

* deterministic inputs: zeta vanishes and eta solves a linear backward ODE,
  integrated with fixed-step RK4, all rungs as one ``(L, n)`` stack.  When
  b, sigma, q and rho have no deterministic part and g = 0, eta is exactly
  zero and neither the gain nor the loop is formed;
* scalar martingale-modulated drift b(s) = M(s) f(s) with
  M(s) = exp(gamma*W(s) - gamma^2 s/2): the ansatz eta = M*h, zeta =
  gamma*M*h turns the backward SDE into a deterministic scalar ODE for h,

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

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import GridFn, rk4_step
from .errors import WrongClassError
from .problem import NamedProfile, RandomInput, SLQProblem
from .riccati import coef_tables, gain

__all__ = ["AdjointProfile", "solve_adjoint"]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class AdjointProfile:
    """Deterministic description of the adjoint solution for one eps.

    Per-path values are reconstructed as ``eta(s) = deterministic_eta(s) +
    M(s) * modulated_h(s)`` and ``zeta(s) = gamma * M(s) * modulated_h(s)``;
    zeta is never stored separately, which keeps the reduction consistent by
    construction.
    """

    epsilon: float
    deterministic_eta: GridFn
    modulated_h: Optional[GridFn] = None
    gamma: Optional[float] = None


def _adjoint_deterministic(p: SLQProblem, sols, steps: int) -> list:
    """Backward RK4 for the adjoint ODE under purely deterministic inputs.

    With zeta identically zero the adjoint reduces to

        eta' = -[(A + B*Th)' eta + (C + D*Th)' P sigma + Th' rho + P b + q],

    with terminal value eta(T) = g, on a uniform grid of ``steps`` steps.
    One :class:`AdjointProfile` per Riccati solution in ``sols``, from one
    set of half-grid coefficient tables and one RK4 loop over an ``(L, n)``
    stack.  Unforced (b, sigma, q, rho without deterministic part, g = 0),
    eta is exactly +0.0 and no gain or loop is formed.
    """
    grid = np.linspace(0.0, p.T, steps + 1)
    values = np.zeros((len(sols), steps + 1, p.n))
    values[:, steps] = p.g
    if p.g.any() or any(f.deterministic.values.any() for f in (p.b, p.sigma, p.q, p.rho)):
        half_times = np.linspace(0.0, p.T, 2 * steps + 1)
        cf = coef_tables(p, half_times)
        sig = p.sigma.deterministic(half_times)[..., None]
        rho = p.rho.deterministic(half_times)[..., None]
        qv = p.q.deterministic(half_times)
        bv = p.b.deterministic(half_times)[..., None]
        cl, force = [], []
        for P in sols:
            Th = gain(P, p, half_times, cf)
            Pv = P.P(half_times)
            cl.append(cf["A"] + cf["B"] @ Th)
            force.append(
                ((cf["C"] + cf["D"] @ Th).mT @ (Pv @ sig) + Th.mT @ rho + Pv @ bv)[..., 0] + qv
            )
        # time-major stacks; each rung keeps its transposed (A + B Th)' view
        # layout, so its matrix-vector products round as in a call of its own
        M_cl = np.stack(cl, axis=1).mT
        force = np.stack(force, axis=1)

        def rhs(j: int, eta: np.ndarray) -> np.ndarray:
            return -((M_cl[j] @ eta[..., None])[..., 0] + force[j])

        eta = values[:, steps].copy()
        for k in range(steps, 0, -1):
            eta = rk4_step(rhs, 2 * k, eta, p.T / steps, 2)
            values[:, k - 1] = eta
    return [AdjointProfile(P.epsilon, GridFn(grid, v)) for P, v in zip(sols, values)]


def _gauss_nodes(lo: np.ndarray, hi: np.ndarray):
    """Per-interval 4-point Gauss-Legendre nodes/weights, vectorized."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * _GL_X
    weights = half[..., None] * _GL_W
    return nodes, weights


def _adjoint_modulated(p: SLQProblem, sols, steps: int) -> list:
    """Exact per-path reduction for a scalar problem with modulated drift.

    Requires n = m = 1, a modulated b, zero sigma/q/rho and zero terminal
    weight g.  Returns, per Riccati solution in ``sols``, the deterministic
    profile h with eta = M*h and zeta = gamma*M*h, plus the eta of the
    deterministic part of b from :func:`_adjoint_deterministic`.  Each
    Gauss node's coefficient tables are built once for all solutions, and
    one loop runs every rung's h recurrence.
    """
    if p.n != 1 or p.m != 1:
        raise WrongClassError("modulated reduction requires a scalar problem (n = m = 1)")
    for name in ("sigma", "q", "rho"):
        inp: RandomInput = getattr(p, name)
        if not inp.is_zero():
            raise WrongClassError(f"modulated reduction requires {name} = 0")
    if not np.all(p.g == 0.0):
        raise WrongClassError("modulated reduction requires g = 0")

    T = p.T
    gamma = float(p.b.modulated.gamma)
    profile = p.b.modulated.profile
    grid = np.linspace(0.0, T, steps + 1)
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
        f_smooth = p.b.modulated.profile_at(r_nodes.reshape(-1), T).reshape(r_nodes.shape)

    # inner exponents int_{lo_k}^{r_{k,i}} a, one 4-point rule per (k, i)
    inner_lo = np.broadcast_to(lo[:, None], r_nodes.shape)
    in_nodes, in_w = _gauss_nodes(inner_lo, r_nodes)

    def integrals(nodes, w):
        """int (A + B Th + gamma (C + D Th)) by 4-point rules, rung by rung."""
        cf = coef_tables(p, nodes.reshape(-1))
        for P in sols:
            Th = gain(P, p, nodes.reshape(-1), cf)
            a = cf["A"] + cf["B"] @ Th + gamma * (cf["C"] + cf["D"] @ Th)
            yield np.sum(a.reshape(nodes.shape) * w, axis=-1)

    prop = np.stack([np.exp(Ia) for Ia in integrals(tau_nodes, tau_w)], axis=1)
    # the inner rules one forcing node per interval at a time: no rung's
    # temporaries span all 16 inner nodes of an interval
    inner = np.stack([list(integrals(in_nodes[:, i], in_w[:, i])) for i in range(4)], axis=-1)
    F = np.empty((steps, len(sols)))
    for i, (P, x) in enumerate(zip(sols, inner)):
        g_vals = np.exp(x) * P.P(r_nodes.reshape(-1)).reshape(r_nodes.shape) * f_smooth * dens
        F[:, i] = np.sum(g_vals * u_w, axis=1)

    h = np.zeros((steps + 1, len(sols)))
    for k in range(steps - 1, -1, -1):
        h[k] = prop[k] * h[k + 1] + F[k]

    # the deterministic drift component superposes linearly with the
    # modulated one (zeta = 0 on this component)
    stripped = replace(p, b=RandomInput(deterministic=p.b.deterministic))
    det = _adjoint_deterministic(stripped, sols, steps)
    return [
        AdjointProfile(P.epsilon, d.deterministic_eta, GridFn(grid, hk), gamma)
        for P, d, hk in zip(sols, det, h.T)
    ]


def solve_adjoint(p: SLQProblem, sols, steps: int) -> list:
    """Dispatch to the reduction matching the problem's input class: one
    :class:`AdjointProfile` per Riccati solution in ``sols``."""
    if not p.has_modulated_input():
        return _adjoint_deterministic(p, sols, steps)
    if p.b.modulated is not None and all(
        getattr(p, name).modulated is None for name in ("sigma", "q", "rho")
    ):
        return _adjoint_modulated(p, sols, steps)
    raise WrongClassError("only the b input may carry a modulated part")
