"""Exact second moments of K controls driven by one Brownian motion.

Each control has the affine form ``u_i = Theta_i X_i + v_det,i + v_mod,i M``
of :class:`~slq.simulate.ControlSpec`, with ``dM = gamma M dW``.  The joint
state ``Z = (X_1 .. X_K, M_1 .. M_J, 1)``, one M per distinct gamma, solves
the linear SDE ``dZ = F Z ds + G Z dW``, so its second moment
``Sigma = E[Z Z']`` solves the matrix ODE

    Sigma' = F Sigma + Sigma F' + G Sigma G',    Sigma(t) = E[Z(t) Z(t)']

(moment equations of linear SDEs; Yong & Zhou, *Stochastic Controls*, 1999,
ch. 1).  ``E int |u_i|^2``, ``E int |u_i - u_{i+1}|^2``, the cost and
``E |X_i(T)|^2`` are quadratic forms in Sigma.  No sampling is involved, so
these are the reference values Monte Carlo is checked against.

The ODE is integrated forward with classical RK4 over pairs of intervals of
one uniform node grid, so every stage time is a node.  Control tables are
read by their linear interpolation.  For the eps ladder's controls from
t = 0 with the ladder's (even) ``steps``, the node grid is the ladder's own
grid, where that interpolation returns the node values exactly.  A drift
profile ``smooth(s) / sqrt(T - s)`` is integrated in ``r = sqrt(T - s)``
instead: with ``ds = -2 r dr`` its term becomes ``-2 smooth(s)``, and the
flow is smooth in r.  Integrals are trapezoid sums on the step ends.

The module reads problem data and control tables only; it shares no code
with the Riccati and adjoint solvers that build the controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InvalidInputError
from .problem import InitialPair, NamedProfile, SLQProblem

__all__ = ["SecondMoments", "second_moments"]


@dataclass(frozen=True)
class SecondMoments:
    """Exact moments of K controls on shared noise, in control order."""

    control_norm_sq: np.ndarray  # (K,) E int |u_i|^2
    pair_dist_sq: np.ndarray  # (K-1,) E int |u_i - u_{i+1}|^2
    cost: np.ndarray  # (K,) running + terminal cost
    terminal_moment: np.ndarray  # (K,) E |X_i(T)|^2


def _check(p: SLQProblem, ip: InitialPair, controls: list):
    if not controls:
        raise InvalidInputError("need at least one control")
    ip.check(p)
    for c in controls:
        if c.theta is None:
            continue
        if c.theta.grid[0] > ip.t + 1e-12:
            raise InvalidInputError("feedback grid starts after the initial time")
        if c.theta.grid[-1] < p.T - 1e-12:
            raise InvalidInputError(
                "feedback grid ends before T; held feedback is not supported"
            )


def second_moments(p: SLQProblem, ip: InitialPair, controls: list,
                   steps: int = 2000) -> SecondMoments:
    """Exact moments of ``controls`` (``ControlSpec`` values) from ``ip``.

    ``steps`` is the number of intervals of the uniform node grid, rounded
    up to even; each RK4 step spans two intervals.  A flow that leaves the
    finite regime raises :class:`BlowUpError`.
    """
    _check(p, ip, controls)
    if steps < 1:
        raise InvalidInputError(f"steps must be positive, got {steps}")
    t, T, n, m, K = ip.t, p.T, p.n, p.m, len(controls)
    mod = p.b_mod
    singular = mod is not None and isinstance(mod.profile, NamedProfile)
    intervals = steps + steps % 2
    if singular:
        # tau = r0 - r runs forward with s; ds = 2 r dtau
        r0 = np.sqrt(T - t)
        tau = np.linspace(0.0, r0, intervals + 1)
        r = r0 - tau
        s = T - r * r
        s[0] = t
        c = 2.0 * r
    else:
        tau = s = np.linspace(t, T, intervals + 1)
        c = np.ones(s.size)
    N = s.size

    # Z = (X_1 .. X_K, M_1 .. M_J, 1)
    gammas = sorted({ctl.gamma for ctl in controls if ctl.v_mod_profile is not None}
                    | ({float(mod.gamma)} if mod is not None else set()))
    J = len(gammas)
    d = K * n + J + 1
    one = d - 1

    def table(f, shape):
        return np.zeros((N,) + shape) if f is None else f(s).reshape((N,) + shape)

    A, B, C, D = (getattr(p, name)(s) for name in "ABCD")
    b_det, sig_det = p.b(s), p.sigma(s)
    F = np.zeros((N, d, d))
    Gm = np.zeros((N, d, d))
    U = np.zeros((N, K, m, d))  # u_i = U_i Z
    for i, ctl in enumerate(controls):
        X = slice(i * n, (i + 1) * n)
        th = table(ctl.theta, (m, n))
        vd = table(ctl.v_det, (m,))[..., None]
        F[:, X, X] = A + B @ th
        F[:, X, one] = (B @ vd)[..., 0] + b_det
        Gm[:, X, X] = C + D @ th
        Gm[:, X, one] = (D @ vd)[..., 0] + sig_det
        U[:, i, :, X] = th
        U[:, i, :, one] = vd[..., 0]
        if ctl.v_mod_profile is not None:
            j = K * n + gammas.index(ctl.gamma)
            vm = table(ctl.v_mod_profile, (m,))[..., None]
            F[:, X, j] = (B @ vm)[..., 0]
            Gm[:, X, j] = (D @ vm)[..., 0]
            U[:, i, :, j] = vm[..., 0]
    for j, gam in enumerate(gammas):
        Gm[:, K * n + j, K * n + j] = gam
    # as a flow in tau: F -> c F, G -> sqrt(c) G
    F *= c[:, None, None]
    Gm *= np.sqrt(c)[:, None, None]
    if mod is not None:
        # c times the profile; in r that is 2 smooth(s), finite at s = T
        b_mod = 2.0 * mod.profile.smooth_at(s) if singular else mod.profile_at(s, T)
        j = K * n + gammas.index(float(mod.gamma))
        for i in range(K):
            F[:, i * n:(i + 1) * n, j] += b_mod[:, None]
    Gt = Gm.mT

    z0 = np.concatenate([np.tile(ip.x, K), np.ones(J + 1)])
    S = np.outer(z0, z0)
    g = np.array(gammas)
    S[K * n:one, K * n:one] = np.exp(np.outer(g, g) * t)  # E[M_a M_b] at s = t

    def rhs(j: int, S: np.ndarray) -> np.ndarray:
        FS = F[j] @ S
        return FS + FS.T + Gm[j] @ S @ Gt[j]

    ends = np.arange(0, N, 2)
    Sig = np.empty((ends.size, d, d))
    Sig[0] = S
    for k, j in enumerate(ends[:-1]):
        h = tau[j + 2] - tau[j]
        k1 = rhs(j, S)
        k2 = rhs(j + 1, S + 0.5 * h * k1)
        k3 = rhs(j + 1, S + 0.5 * h * k2)
        k4 = rhs(j + 2, S + h * k3)
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Sig[k + 1] = S
    if not np.isfinite(Sig[-1]).all():
        bad = int(np.argmin(np.isfinite(Sig).all(axis=(1, 2))))
        raise BlowUpError(
            f"second moments left the finite regime near s={s[ends[bad]]:.6g}", time=s[ends[bad]]
        )

    def expect(V: np.ndarray, W=None) -> np.ndarray:
        """int_t^T E[(V Z)' W (V Z)] ds per control for V (ends, K, r, d) and
        W (ends, r, r), or the identity, by trapezoid in tau."""
        VS = V @ Sig[:, None]
        vals = np.sum(VS * V if W is None else (VS @ V.mT) * W[:, None], axis=(-2, -1))
        return np.trapezoid(c[ends, None] * vals, tau[ends], axis=0)

    Ue = U[ends]
    unorm = expect(Ue)
    pdist = expect(Ue[:, :-1] - Ue[:, 1:])

    # running cost: (X_i, u_i, 1) against [[Q, S', q], [S, R, rho], [q', rho', 0]]
    se = s[ends]
    Q, Sw, R = (getattr(p, name)(se) for name in "QSR")
    q, rho = p.q(se), p.rho(se)
    W = np.zeros((ends.size, n + m + 1, n + m + 1))
    W[:, :n, :n], W[:, n:-1, n:-1] = Q, R
    W[:, n:-1, :n], W[:, :n, n:-1] = Sw, Sw.mT
    W[:, :n, -1] = W[:, -1, :n] = q
    W[:, n:-1, -1] = W[:, -1, n:-1] = rho
    Y = np.zeros((ends.size, K, n + m + 1, d))
    for i in range(K):
        Y[:, i, :n, i * n:(i + 1) * n] = np.eye(n)
    Y[:, :, n:-1] = Ue
    Y[:, :, -1, one] = 1.0
    run_cost = expect(Y, W)

    ST = Sig[-1]
    XX = np.array([ST[i * n:(i + 1) * n, i * n:(i + 1) * n] for i in range(K)])
    EX = np.array([ST[i * n:(i + 1) * n, one] for i in range(K)])
    terminal = np.einsum("kii->k", XX)
    cost = run_cost + np.sum(XX * p.G, axis=(-2, -1)) + 2.0 * EX @ p.g
    return SecondMoments(
        control_norm_sq=unorm, pair_dist_sq=pdist, cost=cost, terminal_moment=terminal
    )
