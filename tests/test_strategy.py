import dataclasses
import math

import numpy as np
import pytest

from slq import bsde
from slq.errors import BlowUpError, InvalidInputError
from slq.core import GridFn
from slq.problem import SLQProblem, builtin
from slq.riccati import gain, solve_ladder
from slq.strategy import (
    extract_limit,
    default_ladder,
    diagnose,
    ladder_summary_csv,
    closed_loop_test,
    run_ladder,
    strategy_csv,
)
from test_riccati import scalar_problem


def zero_input_problem():
    zero = GridFn.const(np.zeros(1))
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
        P = solve_ladder(p, [0.1], 2000)[0]
        assert gain(P, p, [0.9])[0, 0, 0] == pytest.approx(-5.0, abs=1e-7)
        P1 = solve_ladder(p, [1.0], 2000)[0]
        assert gain(P1, p, [0.0])[0, 0, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_zero_numerator(self):
        zero = GridFn.const(np.zeros(1))
        p = SLQProblem(
            n=1, m=1, T=1.0,
            A=GridFn.const([[0.4]]), B=GridFn.const([[0.0]]), C=GridFn.const([[0.2]]),
            D=GridFn.const([[0.0]]), Q=GridFn.const([[1.0]]), S=GridFn.const([[0.0]]),
            R=GridFn.const([[1.0]]), G=np.eye(1), g=np.zeros(1),
            b=zero, sigma=zero, q=zero, rho=zero,
        )
        P = solve_ladder(p, [0.3], 64)[0]
        assert np.all(gain(P, p, [0.0, 0.4, 1.0]) == 0.0)


class TestVEpsParts:
    # v_eps of the ladder controls at grid nodes, 4000 steps on [0, 1]
    @pytest.fixture(scope="class")
    def ladder_51(self):
        p, _ = builtin("example-5.1")
        return run_ladder(p, [1.0, 0.5, 0.25], 4000)

    def test_example_51_per_path_value_at_zero(self, ladder_51):
        # modulated profile at s=0, eps=1: -(1/(eps+1-s)) e^{-s} 2 sqrt(1-s)
        # evaluates to -1, and M(0) = 1 so the per-path value is -1
        c = ladder_51[0].control
        assert c.v_det.values[0, 0] == 0.0
        assert c.v_mod_profile.values[0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_example_51_profile_mid(self, ladder_51):
        sol = ladder_51[1]
        eps, k = sol.epsilon, 2000
        s = sol.control.v_mod_profile.grid[k]
        assert (eps, s) == (0.5, 0.5)
        expected = -(1.0 / (eps + 1.0 - s)) * math.exp(-s) * 2.0 * math.sqrt(1.0 - s)
        assert sol.control.v_mod_profile.values[k, 0] == pytest.approx(expected, abs=1e-6)

    def test_zero_adjoint_gives_zero(self):
        p, _ = builtin("standard-scalar")
        for sol in run_ladder(p, [1.0, 0.5, 0.25], 64):
            assert np.all(sol.control.v_det.values == 0.0)
            assert sol.control.v_mod_profile is None


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

    def test_blowup_names_first_rung_in_time_once(self):
        # at 16 steps both small rungs blow up; the eps = 2^-6 flow leaves the
        # finite regime first in backward time
        p, _ = builtin("example-5.1")
        with pytest.raises(BlowUpError, match=r"eps=0\.015625\).* near s=0\.875") as exc_info:
            run_ladder(p, [1.0, 2.0**-5, 2.0**-6], 16)
        assert str(exc_info.value).count("eps=") == 1
        assert exc_info.value.time == 0.875

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
            assert np.max(np.abs(sol.control.theta.values - gain(sol.P, p, grid))) <= 1e-12
            for k in (0, 50, 128):
                direct = gain(sol.P, p, grid[k:k + 1])[0]
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

    def failing(p, sols):
        if any(P.epsilon == 0.0 for P in sols):
            raise InvalidInputError("no adjoint at eps = 0")
        return real(p, sols)

    monkeypatch.setattr(bsde, "solve_adjoint", failing)
    with pytest.raises(InvalidInputError, match="no adjoint at eps = 0"):
        diagnose(p, ip, [1.0, 0.5, 0.25], 64)


@pytest.mark.parametrize("p, verdict, range_ok, blown, eta_ok, solvable", [
    (builtin("standard-scalar")[0], "regular", True, False, True, True),
    (builtin("example-1.1")[0], "not-regular", False, False, None, False),
    # K = 0 and L = 0 pass every regularity test, but rho = 1 is not in range(K)
    (dataclasses.replace(scalar_problem(B=0.0), rho=GridFn.const([1.0])),
     "regular", True, False, False, False),
    # R = 1/2, Q = 1, G = -1: the generalized flow blows up near s = 0.373
    (scalar_problem(R=0.5, Q=1.0, G=-1.0), "not-regular", False, True, None, False),
], ids=["standard-scalar", "example-1.1", "eta-range", "blowup"])
def test_closed_loop_test_branches(p, verdict, range_ok, blown, eta_ok, solvable):
    rep = closed_loop_test(p, solve_ladder(p, [0.0, 1.0, 0.5], 512)[0])
    assert (rep.verdict, rep.range_ok, rep.eta_ok, rep.solvable) == (
        verdict, range_ok, eta_ok, solvable)
    assert rep.blowup_time == (pytest.approx(0.373, abs=1e-3) if blown else None)


def test_default_ladder():
    lad = default_ladder(1.0, 2.0**-10, 0.5)
    assert lad[0] == 1.0 and lad[-1] == pytest.approx(2.0**-10)
    assert len(lad) == 11
    with pytest.raises(InvalidInputError):
        default_ladder(1.0, 2.0, 0.5)
    with pytest.raises(InvalidInputError):
        default_ladder(1.0, 0.1, 1.5)


@pytest.mark.parametrize("eps_max, eps_min, message", [
    (math.inf, 2.0**-10, "eps_max must be finite, got inf"),
    (math.nan, 2.0**-10, "eps_max must be finite, got nan"),
    (1.0, math.nan, "eps_min must be finite, got nan"),
    (math.nan, math.nan, "eps_max must be finite, got nan"),
])
def test_default_ladder_rejects_non_finite_ends(eps_max, eps_min, message):
    # inf * factor is inf again, so the rungs would be appended without end;
    # a NaN eps_min passes every range comparison and leaves the ladder empty
    with pytest.raises(InvalidInputError, match=message):
        default_ladder(eps_max, eps_min, 0.5)
