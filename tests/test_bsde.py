import dataclasses
import math

import numpy as np
import pytest

from slq.bsde import solve_adjoint
from slq.errors import InvalidInputError
from slq.core import GridFn
from slq.problem import Modulation, SLQProblem, builtin, named_profile
from slq.moments import second_moments
from slq.riccati import gain, solve_ladder
from slq.strategy import run_ladder
from test_riccati import random_problem


def with_inputs(p, b=None, sigma=None, q=None, rho=None, g=None, b_mod=None):
    def as_input(v, dim):
        return GridFn.const(np.full(dim, 0.0 if v is None else float(v)))

    return SLQProblem(
        n=p.n, m=p.m, T=p.T, A=p.A, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=p.R,
        G=p.G, g=np.full(p.n, float(g)) if g is not None else p.g,
        b=as_input(b, p.n), sigma=as_input(sigma, p.n),
        q=as_input(q, p.n), rho=as_input(rho, p.m), b_mod=b_mod, name=p.name,
    )


class TestDeterministic:
    def test_zero_inputs_zero_terminal(self):
        p, _ = builtin("standard-scalar")
        P = solve_ladder(p, [1.0], 64)[0]
        (h,) = solve_adjoint(p, [P])
        assert np.all(P.eta.values == 0.0)
        assert h is None

    def test_constant_solution_under_zero_drift(self):
        base, _ = builtin("standard-scalar")
        p = with_inputs(base, g=2.5)
        # kill A, B so the closed-loop drift matrix vanishes
        p = SLQProblem(
            n=1, m=1, T=1.0,
            A=GridFn.const([[0.0]]), B=GridFn.const([[0.0]]),
            C=GridFn.const([[0.0]]), D=GridFn.const([[0.0]]),
            Q=p.Q, S=p.S, R=p.R, G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho,
        )
        P = solve_ladder(p, [0.5], 64)[0]
        assert np.allclose(P.eta.values, 2.5, atol=1e-13)

    def test_terminal_value_exact(self):
        base, _ = builtin("standard-scalar")
        p = with_inputs(base, b=1.0, g=0.7)
        P = solve_ladder(p, [1.0], 128)[0]
        assert P.eta(p.T)[0] == 0.7

    def test_richardson_self_convergence(self):
        # standard-scalar with b = 1: no closed form needed, the oracle is
        # the step-halved solve of the same problem.  eta rides in the
        # Riccati sweep's RK4 stages, so each halving divides the gap by
        # about 16 (15.97 and 16.00 measured)
        base, _ = builtin("standard-scalar")
        p = with_inputs(base, b=1.0)
        on = np.linspace(0.0, 1.0, 9)
        etas = [solve_ladder(p, [1.0], n)[0].eta(on) for n in (64, 128, 256)]
        gaps = [np.max(np.abs(a - b)) for a, b in zip(etas, etas[1:])]
        assert gaps[1] <= 1e-11
        assert 14.0 <= gaps[0] / gaps[1] <= 18.0

    def test_closed_form_at_zero(self):
        # standard-scalar with b = 1: P = k/(1 + k(1 - s)) and
        # eta(0) = k - k^2/(k + 1) for k = 1 + eps; 1.1e-11 off at 128 steps
        # (1.9e-6 when eta read P linearly interpolated at its half nodes)
        base, _ = builtin("standard-scalar")
        p = with_inputs(base, b=1.0)
        eps = 0.01
        k = 1.0 + eps
        (P,) = solve_ladder(p, [eps], 128)
        assert abs(P.eta.values[0, 0] - (k - k * k / (k + 1.0))) <= 1e-9

    def test_linearity_in_forcing(self):
        # each problem solves its own ladder: P does not read the forcing,
        # so the three P tables agree bit for bit and only eta scales
        base, _ = builtin("standard-scalar")
        p1 = with_inputs(base, b=1.0)
        p2 = with_inputs(base, b=2.0)
        P, P1, P2 = (solve_ladder(q, [1.0], 256)[0] for q in (base, p1, p2))
        assert np.array_equal(P1.P.values, P.P.values)
        assert np.array_equal(P2.P.values, P.P.values)
        assert np.any(P1.eta.values != 0.0)
        assert np.allclose(2.0 * P1.eta.values, P2.eta.values, atol=1e-12)


class TestModulated:
    def test_terminal_condition_exact(self):
        p, _ = builtin("example-5.1")
        P = solve_ladder(p, [0.5], 128)[0]
        (h,) = solve_adjoint(p, [P])
        assert h(p.T) == 0.0

    def test_value_at_zero_eps_one(self):
        # h(0) = [eps/(eps+1)] * e^0 * int_0^1 dr/sqrt(1-r) = 0.5 * 2 = 1
        p, _ = builtin("example-5.1")
        P = solve_ladder(p, [1.0], 2000)[0]
        (h,) = solve_adjoint(p, [P])
        assert h(0.0) == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_profile_relation(self):
        # h(s) (eps+1-s) / (eps e^{-s}) equals the gap integral 2 sqrt(1-s)
        p, _ = builtin("example-5.1")
        eps = 0.5
        P = solve_ladder(p, [eps], 2000)[0]
        (h,) = solve_adjoint(p, [P])
        g = h.grid
        lhs = h.values * (eps + 1.0 - g) / (eps * np.exp(-g))
        assert np.max(np.abs(lhs - 2.0 * np.sqrt(1.0 - g))) <= 1e-5

    def test_h_converges_at_second_order(self):
        # h = eps e^{-s} 2 sqrt(1-s) / (eps+1-s) on example 5.1.  The scheme
        # is exact to 7e-15 when fed the exact P, so the whole error comes
        # from reading P (and the gain) by linear interpolation at the Gauss
        # nodes: 3.1e-7, 7.9e-8 and 2.0e-8 at 1000, 2000 and 4000 steps.  A
        # fix of that reading tightens this test
        p, _ = builtin("example-5.1")
        eps = 0.25
        errs = []
        for steps in (1000, 2000, 4000):
            (h,) = solve_adjoint(p, solve_ladder(p, [eps], steps))
            s = h.grid
            exact = eps * np.exp(-s) * 2.0 * np.sqrt(1.0 - s) / (eps + 1.0 - s)
            errs.append(np.max(np.abs(h.values - exact)))
        assert errs[2] <= 3e-8
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5, errs

    def test_ansatz_consistency_pathwise(self):
        # substituting eta = M h, zeta = gamma M h into the adjoint drift
        # must reproduce M times the h-equation right-hand side
        p, _ = builtin("example-5.1")
        eps = 0.25
        P = solve_ladder(p, [eps], 1000)[0]
        (h_fn,) = solve_adjoint(p, [P])
        gamma = p.b_mod.gamma
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            s = rng.uniform(0.0, 0.999)
            W = rng.normal(0.0, max(np.sqrt(s), 1e-9))
            M = math.exp(gamma * W - 0.5 * gamma**2 * s)
            h = float(h_fn(s))
            Th = float(gain(P, p, [s])[0, 0, 0])
            A = float(p.A(s)[0, 0]); B = float(p.B(s)[0, 0])
            C = float(p.C(s)[0, 0]); D = float(p.D(s)[0, 0])
            Pv = float(P.P(s)[0, 0])
            f = float(p.b_mod.profile(s, p.T))
            eta, zeta = M * h, gamma * M * h
            bsde_drift = -((A + B * Th) * eta + (C + D * Th) * zeta + Pv * M * f)
            h_rhs = -((A + B * Th + gamma * (C + D * Th)) * h + Pv * f)
            denom = max(1.0, abs(bsde_drift))
            worst = max(worst, abs(bsde_drift - M * h_rhs) / denom)
        assert worst <= 1e-6

    def test_linearity_via_scaled_profile(self):
        # doubling the forcing profile doubles h node-wise
        p, _ = builtin("example-5.1")
        tab = GridFn([0.0, 1.0], np.array([1.0, 1.0]))
        tab2 = GridFn([0.0, 1.0], np.array([2.0, 2.0]))
        base = SLQProblem(
            n=1, m=1, T=1.0, A=p.A, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=p.R,
            G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho,
            b_mod=Modulation(gamma=1.0, profile=tab),
        )
        double = SLQProblem(
            n=1, m=1, T=1.0, A=p.A, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=p.R,
            G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho,
            b_mod=Modulation(gamma=1.0, profile=tab2),
        )
        (h1,) = solve_adjoint(base, solve_ladder(base, [0.5], 256))
        (h2,) = solve_adjoint(double, solve_ladder(double, [0.5], 256))
        assert np.allclose(2.0 * h1.values, h2.values, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_forced_rungs_are_first_order_stationary(self, m):
        # each rung's feedback pair minimizes J_eps = J + eps E int |u|^2,
        # so the central difference of J_eps along a perturbation of v_det,
        # v_mod or Theta vanishes.  The exact moments share no code with the
        # solvers; at 2000 steps the residual reads at most 3.3e-5 for
        # m = 1 (5.1e-6 at 8000) and 3.25e-5 for m = 2.  A 1% error in v_det
        # reads 1.6e-4 to 4.4e-4 (m = 1) and 1.1e-4 to 4.1e-4 (m = 2)
        p, ip = forced_modulated() if m == 1 else two_control_modulated()
        h, steps, bound = 1e-3, 2000, 6e-5

        def moved(c, part, dv):
            f = getattr(c, part)
            return dataclasses.replace(c, **{part: GridFn(f.grid, f.values + dv)})

        for sol in run_ladder(p, [1.0, 0.5, 0.25, 0.125], steps):
            c = sol.control
            s = c.theta.grid
            w = np.cos(3.0 * s)[:, None]
            off = moved(c, "v_det", 0.01 * c.v_det.values)
            directions = [(c, "v_det", w), (c, "v_mod_profile", w),
                          (c, "theta", (0.5 + s)[:, None, None]), (off, "v_det", w)]
            mom = second_moments(p, ip, [moved(a, part, t * dv) for a, part, dv in directions
                                         for t in (h, -h)], steps)
            J = mom.cost + sol.epsilon * mom.control_norm_sq
            dJ = np.abs(J[0::2] - J[1::2]) / (2.0 * h)
            assert np.all(dJ[:3] <= bound), (sol.epsilon, dJ)
            assert dJ[3] > bound, (sol.epsilon, dJ)


def forced_modulated():
    """Example 5.1 with D = 0.2, R = 0.5, a sigma table 0.3 -> 0.1, q = 0.1,
    rho = 0.05 and g = 0.1 beside its modulated drift, and its initial pair."""
    p, ip = builtin("example-5.1")
    return dataclasses.replace(
        p, D=GridFn.const([[0.2]]), R=GridFn.const([[0.5]]), g=np.array([0.1]),
        sigma=GridFn([0.0, 1.0], np.array([[0.3], [0.1]])), q=GridFn.const([0.1]),
        rho=GridFn.const([0.05]),
    ), ip


def two_control_modulated():
    """:func:`forced_modulated` with two controls: B = (1, 0.4),
    D = (0.2, -0.3), R = (0.5, 0.1; 0.1, 0.7), S = (0.1, 0)' and
    rho = (0.05, -0.02)."""
    p, ip = forced_modulated()
    return dataclasses.replace(
        p, m=2, B=GridFn.const([[1.0, 0.4]]), D=GridFn.const([[0.2, -0.3]]),
        R=GridFn.const([[0.5, 0.1], [0.1, 0.7]]), S=GridFn.const([[0.1], [0.0]]),
        rho=GridFn.const([0.05, -0.02]),
    ), ip


def forced_random_problem():
    """The n = 2 random problem with nonzero b, sigma, q, rho and g."""
    base = random_problem()
    return with_inputs(base, b=0.4, sigma=-0.3, q=0.2, rho=0.5, g=-0.6)


def modulated(profile, gamma=2.0**0.5):
    """Example 5.1 with the modulated drift profile ``profile``."""
    p, _ = builtin("example-5.1")
    return dataclasses.replace(p, b_mod=Modulation(gamma=gamma, profile=profile))


@pytest.mark.parametrize("case", ["example-5.1", "inv-sqrt-gap", "table-profile",
                                  "forced-scalar", "forced-random"])
def test_stacked_rungs_equal_one_solution_calls(case):
    # the rungs share their interpolation weights and coefficient tables,
    # and nothing else: each rung's adjoint has the bits of its own call
    if case == "forced-random":
        p = forced_random_problem()
    elif case == "inv-sqrt-gap":
        p = modulated(named_profile("inv-sqrt-gap"))
    elif case == "table-profile":
        g = np.linspace(0.0, 1.0, 9)
        p = modulated(GridFn(g, np.cos(3.0 * g) - 0.5 * g), gamma=0.8)
    else:
        p, _ = builtin("example-5.1" if case == "example-5.1" else "standard-scalar")
        if case == "forced-scalar":
            p = with_inputs(p, b=1.0, rho=0.3, g=0.7)
    sols = solve_ladder(p, [1.0, 0.5, 0.25, 0.125], 128)
    stacked = solve_adjoint(p, sols)
    assert len(stacked) == len(sols)
    for P, h in zip(sols, stacked):
        (one,) = solve_adjoint(p, [P])
        assert (h is None) == (one is None)
        if one is not None:
            assert np.array_equal(h.values, one.values)
    if case.startswith("forced"):
        assert np.all(np.abs(sols[-1].eta.values[0]) > 0.0)
    else:
        assert np.all(stacked[-1].values[:-1] != 0.0)


def test_rungs_on_different_grids_are_rejected():
    p, _ = builtin("example-5.1")
    sols = [solve_ladder(p, [0.5], 64)[0], solve_ladder(p, [0.25], 128)[0]]
    with pytest.raises(InvalidInputError, match="share one grid"):
        solve_adjoint(p, sols)


@pytest.mark.parametrize("name", ["example-1.1", "example-5.1"])
def test_unforced_eta_is_exact_positive_zero(name):
    # b, sigma, q, rho and g zero: eta is +0.0
    p, _ = builtin(name)
    sols = solve_ladder(p, [1.0, 0.5, 0.25], 64)
    for P in sols:
        eta = P.eta.values
        assert eta.shape == (65, 1)
        assert np.all(eta == 0.0) and not np.signbit(eta).any()


def test_adjoint_is_on_the_solutions_grid():
    # the grid is read from the solutions: no step count can disagree with it
    p, _ = builtin("example-5.1")
    sols = solve_ladder(p, [1.0, 0.5], 100)
    for P, h in zip(sols, solve_adjoint(p, sols)):
        assert np.array_equal(h.grid, P.grid)


def test_dispatch():
    p5, _ = builtin("example-5.1")
    P = solve_ladder(p5, [0.5], 64)[0]
    assert solve_adjoint(p5, [P])[0] is not None
    p0, _ = builtin("standard-scalar")
    P0 = solve_ladder(p0, [0.5], 64)[0]
    assert solve_adjoint(p0, [P0]) == [None]

