import math

import numpy as np
import pytest

from slq import bsde
from slq.bsde import solve_adjoint
from slq.errors import InvalidInputError
from slq.core import GridFn
from slq.problem import RandomInput, SLQProblem, builtin
from slq.riccati import solve_perturbed
from slq.simulate import MonteCarloConfig
from slq.strategy import (
    extract_limit,
    default_ladder,
    diagnose,
    ladder_summary_csv,
    run_ladder,
    strategy_csv,
    theta_eps,
    v_eps_parts,
)


def zero_input_problem():
    zero = RandomInput.zero(1)
    return SLQProblem(
        n=1, m=1, T=1.0,
        A=GridFn.const([[0.0]]), B=GridFn.const([[1.0]]), C=GridFn.const([[0.0]]),
        D=GridFn.const([[0.0]]), Q=GridFn.const([[0.0]]), S=GridFn.const([[0.0]]),
        R=GridFn.const([[0.0]]), G=np.zeros((1, 1)), g=np.zeros(1),
        b=zero, sigma=zero, q=zero, rho=zero, name="zero-terminal",
    )


class TestThetaEps:
    def test_example_51_values(self):
        p, _ = builtin("example-5.1")
        P = solve_perturbed(p, 0.1, 2000)
        assert theta_eps(P, p, 0.9)[0, 0] == pytest.approx(-5.0, abs=1e-7)
        P1 = solve_perturbed(p, 1.0, 2000)
        assert theta_eps(P1, p, 0.0)[0, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_zero_numerator(self):
        zero = RandomInput.zero(1)
        p = SLQProblem(
            n=1, m=1, T=1.0,
            A=GridFn.const([[0.4]]), B=GridFn.const([[0.0]]), C=GridFn.const([[0.2]]),
            D=GridFn.const([[0.0]]), Q=GridFn.const([[1.0]]), S=GridFn.const([[0.0]]),
            R=GridFn.const([[1.0]]), G=np.eye(1), g=np.zeros(1),
            b=zero, sigma=zero, q=zero, rho=zero,
        )
        P = solve_perturbed(p, 0.3, 64)
        for s in (0.0, 0.4, 1.0):
            assert theta_eps(P, p, s)[0, 0] == 0.0


class TestVEpsParts:
    def test_example_51_per_path_value_at_zero(self):
        # modulated profile at s=0, eps=1: -(1/(eps+1-s)) e^{-s} 2 sqrt(1-s)
        # evaluates to -1, and M(0) = 1 so the per-path value is -1
        p, _ = builtin("example-5.1")
        P = solve_perturbed(p, 1.0, 2000)
        adj = solve_adjoint(p, P, 2000)
        v_det, v_mod = v_eps_parts(P, adj, p, 0.0)
        assert v_det[0] == 0.0
        assert v_mod[0] == pytest.approx(-1.0, abs=1e-6)

    def test_example_51_profile_mid(self):
        p, _ = builtin("example-5.1")
        eps, s = 0.5, 0.5
        P = solve_perturbed(p, eps, 4000)
        adj = solve_adjoint(p, P, 4000)
        _, v_mod = v_eps_parts(P, adj, p, s)
        expected = -(1.0 / (eps + 1.0 - s)) * math.exp(-s) * 2.0 * math.sqrt(1.0 - s)
        assert v_mod[0] == pytest.approx(expected, abs=1e-6)

    def test_zero_adjoint_gives_zero(self):
        p, _ = builtin("standard-scalar")
        P = solve_perturbed(p, 0.5, 64)
        adj = solve_adjoint(p, P, 64)
        v_det, v_mod = v_eps_parts(P, adj, p, 0.3)
        assert np.all(v_det == 0.0) and v_mod is None

    def test_eps_mismatch_rejected(self):
        p, _ = builtin("standard-scalar")
        P1 = solve_perturbed(p, 0.5, 64)
        P2 = solve_perturbed(p, 0.25, 64)
        adj = solve_adjoint(p, P1, 64)
        with pytest.raises(InvalidInputError):
            v_eps_parts(P2, adj, p, 0.1)


class TestRunLadder:
    def test_example_51_theta_values(self):
        p, _ = builtin("example-5.1")
        sols = run_ladder(p, [1.0, 0.5, 0.25], 512)
        got = [s.control.theta(0.0)[0, 0] for s in sols]
        assert got == pytest.approx([-0.5, -2.0 / 3.0, -0.8], abs=1e-8)

    def test_ladder_validation(self):
        p, _ = builtin("standard-scalar")
        with pytest.raises(InvalidInputError):
            run_ladder(p, [1.0, 0.5], 64)
        with pytest.raises(InvalidInputError):
            run_ladder(p, [1.0, 0.5, 0.5], 64)
        with pytest.raises(InvalidInputError):
            run_ladder(p, [1.0, 0.5, -0.25], 64)

    def test_zero_inputs_zero_bias(self):
        p, _ = builtin("example-1.1")
        sols = run_ladder(p, [1.0, 0.5, 0.25], 64)
        for s in sols:
            assert np.all(s.control.v_det.values == 0.0)
            assert s.control.v_mod_profile is None

    def test_theta_node_identity(self):
        p, _ = builtin("example-5.1")
        sols = run_ladder(p, [1.0, 0.5, 0.25], 128)
        for sol in sols:
            grid = sol.control.theta.grid
            assert np.max(np.abs(sol.control.theta.values - theta_eps(sol.P, p, grid))) <= 1e-12
            for k in (0, 50, 128):
                direct = theta_eps(sol.P, p, grid[k])
                assert np.max(np.abs(sol.control.theta.values[k] - direct)) <= 1e-12

    def test_ladder_monotone_feedback_magnitude(self):
        for name in ("example-1.1", "example-5.1"):
            p, _ = builtin(name)
            sols = run_ladder(p, [1.0, 0.5, 0.25, 0.125], 256)
            mags = np.stack([np.abs(s.control.theta.values[:, 0, 0]) for s in sols])
            interior = sols[0].control.theta.grid < 1.0
            assert np.all(np.diff(mags[:, interior], axis=0) > 0.0)


class TestExtractLimit:
    def test_zero_problem_converges_immediately(self):
        sols = run_ladder(zero_input_problem(), [1.0, 0.5, 0.25], 64)
        ws = extract_limit(sols, delta=0.1, tol=1e-3)
        assert ws.converged
        assert np.all(ws.control.theta.values == 0.0)
        assert np.all(ws.control.v_det.values == 0.0)

    def test_example_11_limit_value(self):
        p, _ = builtin("example-1.1")
        ladder = default_ladder(1.0, 2.0**-10)
        sols = run_ladder(p, ladder, 1024)
        ws = extract_limit(sols, delta=0.1, tol=1e-3)
        # Theta_eps(0) = -1/(eps+1) -> -1
        assert ws.control.theta(0.0)[0, 0] == pytest.approx(-1.0, abs=2e-3)

    def test_truncation_consistency(self):
        p, _ = builtin("example-5.1")
        sols = run_ladder(p, [1.0, 0.5, 0.25, 0.125], 200)
        wide = extract_limit(sols, delta=0.05, tol=1e-3)
        narrow = extract_limit(sols, delta=0.2, tol=1e-3)
        k = narrow.control.theta.grid.size
        assert np.array_equal(wide.control.theta.grid[:k], narrow.control.theta.grid)
        assert np.array_equal(wide.control.theta.values[:k], narrow.control.theta.values)

    def test_cauchy_ratio_band_late_rungs(self):
        p, _ = builtin("example-5.1")
        sols = run_ladder(p, default_ladder(1.0, 2.0**-10), 1024)
        ws = extract_limit(sols, delta=0.1, tol=1e-3)
        d = [row[1] for row in ws.cauchy_evidence]
        ratios = [d[i] / d[i + 1] for i in range(len(d) - 1)]
        for r in ratios[-3:]:
            assert 1.8 <= r <= 2.2

    def test_validation(self):
        p, _ = builtin("example-5.1")
        sols = run_ladder(p, [1.0, 0.5, 0.25], 64)
        with pytest.raises(InvalidInputError):
            extract_limit(sols, delta=2.0, tol=1e-3)
        with pytest.raises(InvalidInputError):
            extract_limit(sols[:2], delta=0.1, tol=1e-3)
        other = run_ladder(p, [1.0, 0.5, 0.25], 32)
        with pytest.raises(InvalidInputError):
            extract_limit([sols[0], sols[1], other[2]], delta=0.1, tol=1e-3)


def test_csv_outputs():
    p, _ = builtin("example-5.1")
    sols = run_ladder(p, [1.0, 0.5, 0.25], 64)
    ws = extract_limit(sols, delta=0.1, tol=1e-3)
    s_csv = strategy_csv(ws)
    lines = s_csv.strip().split("\n")
    assert lines[0] == "s,theta_11,v_det_1,v_mod_profile"
    assert len(lines) == ws.control.theta.grid.size + 1
    l_csv = ladder_summary_csv(sols, ws.cauchy_evidence)
    lines = l_csv.strip().split("\n")
    assert lines[0] == "eps,u_norm_sq,theta_l2_dist,v_l2_dist"
    assert lines[1].startswith("1,nan,")
    assert lines[3].split(",")[2] == "nan"  # last rung has no next distance


def test_diagnose_propagates_eta_check_failure(monkeypatch):
    # a range check that could not run must not count as a pass
    p, ip = builtin("standard-scalar")
    real = bsde.solve_adjoint

    def failing(p, P, steps):
        if P.epsilon == 0.0:
            raise InvalidInputError("no adjoint at eps = 0")
        return real(p, P, steps)

    monkeypatch.setattr(bsde, "solve_adjoint", failing)
    mc = MonteCarloConfig(paths=200, steps=32, master_seed=1)
    with pytest.raises(InvalidInputError, match="no adjoint at eps = 0"):
        diagnose(p, ip, [1.0, 0.5, 0.25], 64, mc)


def test_default_ladder():
    lad = default_ladder(1.0, 2.0**-10, 0.5)
    assert lad[0] == 1.0 and lad[-1] == pytest.approx(2.0**-10)
    assert len(lad) == 11
    with pytest.raises(InvalidInputError):
        default_ladder(1.0, 2.0, 0.5)
    with pytest.raises(InvalidInputError):
        default_ladder(1.0, 0.1, 1.5)
