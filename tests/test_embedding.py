"""Matrix-valued (n = m = 2) embeddings of the scalar built-ins.

Two copies of a scalar problem, either side by side (block-diagonal) or
rotated by orthogonal U (state) and V (control), solve as the scalar problem
mapped through U and V: P -> U P U', Theta -> V Theta U'.  This runs the
eigvalsh, solve and multi-column pseudoinverse branches of the gain kernel,
which scalar problems never reach.
"""

import numpy as np
import pytest

from slq.errors import DegeneratePerturbationError
from slq.core import GridFn
from slq.moments import second_moments
from slq.problem import InitialPair, SLQProblem, builtin
from slq.riccati import check_regularity, solve_gre, solve_ladder
from slq.simulate import ControlSpec, MonteCarloConfig, simulate_coupled
from slq.strategy import run_ladder

STEPS = 128


def rotations(seed: int = 11):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    return U, V


def embed(p: SLQProblem, U: np.ndarray, V: np.ndarray, R=None) -> SLQProblem:
    """Two copies of the scalar problem p, rotated by U (state) and V (control)."""

    def c(name, left, right):
        return GridFn.const(left @ (float(getattr(p, name)(0.0)[0, 0]) * np.eye(2)) @ right.T)

    return SLQProblem(
        n=2, m=2, T=p.T,
        A=c("A", U, U), B=c("B", U, V), C=c("C", U, U), D=c("D", U, V),
        Q=c("Q", U, U), S=c("S", V, U),
        R=GridFn.const(R) if R is not None else c("R", V, V),
        G=U @ (p.G[0, 0] * np.eye(2)) @ U.T, g=np.zeros(2),
        b=GridFn.const(np.zeros(2)), sigma=GridFn.const(np.zeros(2)),
        q=GridFn.const(np.zeros(2)), rho=GridFn.const(np.zeros(2)), name=p.name + "-2x2",
    )


EMBEDDINGS = {"block": (np.eye(2), np.eye(2)), "similar": rotations()}


@pytest.mark.parametrize("kind", sorted(EMBEDDINGS))
@pytest.mark.parametrize("name", ["example-1.1", "standard-scalar"])
def test_ladder_maps_through_rotations(name, kind):
    U, V = EMBEDDINGS[kind]
    p, _ = builtin(name)
    ladder = [1.0, 0.5, 0.25]
    scalar = run_ladder(p, ladder, STEPS)
    matrix = run_ladder(embed(p, U, V), ladder, STEPS)
    for a, b in zip(scalar, matrix):
        P_map = a.P.P.values[:, :1, :1] * (U @ U.T)
        theta_map = a.control.theta.values[:, :1, :1] * (V @ U.T)
        assert np.max(np.abs(b.P.P.values - P_map)) <= 1e-12
        assert np.max(np.abs(b.control.theta.values - theta_map)) <= 1e-12
        assert np.all(b.control.v_det.values == 0.0)


@pytest.mark.parametrize("kind", sorted(EMBEDDINGS))
@pytest.mark.parametrize("name", ["example-1.1", "standard-scalar"])
def test_monte_carlo_doubles_scalar(name, kind):
    # both copies start at 1 and share one Brownian motion, so every path
    # carries twice the scalar cost and |u|^2
    U, V = EMBEDDINGS[kind]
    p, ip = builtin(name)
    ladder = [1.0, 0.5, 0.25]
    cfg = MonteCarloConfig(paths=400, steps=64, master_seed=31)

    def run(q, sols, x):
        controls = [ControlSpec.zero()] + [s.control for s in sols]
        return simulate_coupled(q, InitialPair(t=ip.t, x=x), controls, cfg)

    q = embed(p, U, V)
    scalar = run(p, run_ladder(p, ladder, STEPS), ip.x)
    matrix = run(q, run_ladder(q, ladder, STEPS), U @ np.ones(2))
    for name_ in ("cost", "control_norm_sq"):
        np.testing.assert_allclose(getattr(matrix, name_), 2.0 * getattr(scalar, name_),
                                   rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("kind", sorted(EMBEDDINGS))
@pytest.mark.parametrize("name", ["example-1.1", "standard-scalar"])
def test_exact_moments_double_scalar(name, kind):
    # the exact-moment counterpart of test_monte_carlo_doubles_scalar
    U, V = EMBEDDINGS[kind]
    p, ip = builtin(name)
    ladder = [1.0, 0.5, 0.25]
    q = embed(p, U, V)
    scalar = second_moments(p, ip, [s.control for s in run_ladder(p, ladder, STEPS)], STEPS)
    matrix = second_moments(q, InitialPair(t=ip.t, x=U @ np.ones(2)),
                            [s.control for s in run_ladder(q, ladder, STEPS)], STEPS)
    for name_ in ("control_norm_sq", "pair_dist_sq", "cost", "terminal_moment"):
        np.testing.assert_allclose(getattr(matrix, name_), 2.0 * getattr(scalar, name_),
                                   rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("kind", sorted(EMBEDDINGS))
@pytest.mark.parametrize("name", ["example-1.1", "standard-scalar"])
def test_regularity_matches_scalar(name, kind):
    U, V = EMBEDDINGS[kind]
    p, _ = builtin(name)
    scalar = check_regularity(solve_gre(p, STEPS), p)
    q = embed(p, U, V)
    matrix = check_regularity(solve_gre(q, STEPS), q)
    assert matrix.verdict == scalar.verdict
    assert matrix.range_ok == scalar.range_ok
    assert matrix.positivity_ok == scalar.positivity_ok
    assert matrix.theta_hat_l2 == pytest.approx(np.sqrt(2.0) * scalar.theta_hat_l2, rel=1e-10)


def test_degenerate_perturbation_names_time():
    # R = diag(-0.5, 1) cancels eps = 0.5 in one direction only
    p, _ = builtin("standard-scalar")
    q = embed(p, np.eye(2), np.eye(2), R=np.diag([-0.5, 1.0]))
    with pytest.raises(DegeneratePerturbationError, match="s=1;"):
        solve_ladder(q, [0.5], 64)[0]

