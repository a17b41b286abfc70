"""Exact second moments of ladder outcomes against closed forms."""

import numpy as np
import pytest

from slq.core import GridFn
from slq.errors import InvalidInputError
from slq.moments import second_moments
from slq.problem import InitialPair, SLQProblem, builtin
from slq.simulate import ControlSpec
from slq.strategy import run_ladder
from slq.verify import bar_control_example_11

LADDER = [2.0**-k for k in range(6)]  # the default diagnose ladder


def ladder_moments(p, ip, steps=2000):
    sols = run_ladder(p, LADDER, steps)
    return second_moments(p, ip, [s.control for s in sols], steps)


@pytest.mark.parametrize("name, exact, rel", [
    # E int |u_eps|^2 = x^2 / (1 + eps)^2: P_eps = eps / (eps + 1 - s), so
    # E u^2 is constant in s; only the RK4 error of the moment flow is left
    ("example-1.1", lambda e, x: x**2 / (1.0 + e) ** 2, 1e-8),
    # criterion 5's closed form; what is left is the ladder's own
    # discretization error, not the moment flow's
    ("example-5.1", lambda e, x: ((x + 2.0) / (1.0 + e)) ** 2, 2e-4),
])
def test_ladder_norms_match_closed_forms(name, exact, rel):
    p, ip = builtin(name)
    mom = ladder_moments(p, ip)
    want = np.array([exact(e, float(ip.x[0])) for e in LADDER])
    np.testing.assert_allclose(mom.control_norm_sq, want, rtol=rel, atol=0.0)


def test_linear_terminal_weight_norms_grow_4x():
    # cost 2 g X(1) with free drift: P = 0, eta = g, so u_eps = -g / eps
    g = 1.5
    zero, zero1 = GridFn.const([[0.0]]), GridFn.const(np.zeros(1))
    p = SLQProblem(
        n=1, m=1, T=1.0, A=zero, B=GridFn.const([[1.0]]), C=zero, D=zero, Q=zero,
        S=zero, R=zero, G=np.zeros((1, 1)), g=np.array([g]),
        b=zero1, sigma=zero1, q=zero1, rho=zero1,
    )
    mom = ladder_moments(p, InitialPair(t=0.0, x=np.array([1.0])), steps=200)
    want = g**2 / np.array(LADDER) ** 2
    np.testing.assert_allclose(mom.control_norm_sq, want, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(mom.control_norm_sq[1:] / mom.control_norm_sq[:-1], 4.0,
                               rtol=1e-9)


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_modulated_zeroing_control(t):
    # the bar control x/(t-1) e^{2W(s)-4s} of example 1.1 gives
    # X(1) = Phi(1) x (1 - e^{2W(t)-4t}) with E Phi(1)^2 = 1, so
    # E X(1)^2 = x^2 (2 - 2 e^{-2t}): 0 from t = 0, and W(t) ~ N(0, t) is
    # random otherwise; E u^2 = x^2 / (1-t)^2 because E M(s)^2 = e^{4s}
    p, _ = builtin("example-1.1")
    x = 0.7
    ip = InitialPair(t=t, x=np.array([x]))
    # the bar control's table has 2048 intervals on [t, 1]; on that grid
    # every stage time is one of its nodes, so no interpolation error enters
    mom = second_moments(p, ip, [ControlSpec.zero(), bar_control_example_11(t, x)], steps=2048)
    assert mom.control_norm_sq[0] == 0.0
    assert mom.control_norm_sq[1] == pytest.approx(x**2 / (1.0 - t), rel=1e-8)
    assert mom.pair_dist_sq[0] == pytest.approx(x**2 / (1.0 - t), rel=1e-8)
    assert mom.cost[0] == pytest.approx(x**2, rel=1e-10)
    exact = x**2 * (2.0 - 2.0 * np.exp(-2.0 * t))
    assert mom.terminal_moment[1] == pytest.approx(exact, rel=1e-8, abs=1e-9)
    assert mom.cost[1] == pytest.approx(exact, rel=1e-8, abs=1e-9)


def test_rejects_held_feedback_and_bad_steps():
    p, ip = builtin("example-1.1")
    ctrl = run_ladder(p, [1.0, 0.5, 0.25], 64)[0].control
    held = ControlSpec(theta=ctrl.theta.restrict(0.9), v_det=ctrl.v_det.restrict(0.9))
    with pytest.raises(InvalidInputError, match="held feedback"):
        second_moments(p, ip, [held])
    with pytest.raises(InvalidInputError, match="steps"):
        second_moments(p, ip, [ctrl], steps=0)
