import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slq.errors import BlowUpError, DegeneratePerturbationError, InvalidInputError
from slq.core import GridFn
from slq import riccati
from slq.problem import SLQProblem, builtin
from slq.riccati import (
    check_regularity,
    gain,
    riccati_csv,
    solve_gre,
    solve_ladder,
)
from slq.strategy import closed_loop_test
from test_embedding import EMBEDDINGS, embed


def scalar_problem(A=0.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=0.0, G=1.0, T=1.0,
                   b=0.0, sigma=0.0, q=0.0, rho=0.0, g=0.0):
    return SLQProblem(
        n=1, m=1, T=T,
        A=GridFn.const([[A]]), B=GridFn.const([[B]]), C=GridFn.const([[C]]),
        D=GridFn.const([[D]]), Q=GridFn.const([[Q]]), S=GridFn.const([[S]]),
        R=GridFn.const([[R]]), G=np.array([[G]]), g=np.array([g]),
        b=GridFn.const([b]), sigma=GridFn.const([sigma]), q=GridFn.const([q]),
        rho=GridFn.const([rho]),
    )


# nonzero b, sigma, q, rho and g: every input forces eta
FORCING = {"b": 0.4, "sigma": -0.3, "q": 0.2, "rho": 0.5, "g": -0.6}


def random_problem():
    """An n = 2, m = 1 problem with random constant coefficients."""
    rng = np.random.default_rng(2)
    M = rng.standard_normal((2, 2))
    return SLQProblem(
        n=2, m=1, T=1.0,
        A=GridFn.const(rng.standard_normal((2, 2))),
        B=GridFn.const(rng.standard_normal((2, 1))),
        C=GridFn.const(rng.standard_normal((2, 2)) * 0.3),
        D=GridFn.const(rng.standard_normal((2, 1)) * 0.3),
        Q=GridFn.const(M @ M.T), S=GridFn.const(rng.standard_normal((1, 2))),
        R=GridFn.const(np.eye(1)), G=np.eye(2), g=np.zeros(2),
        b=GridFn.const(np.zeros(2)), sigma=GridFn.const(np.zeros(2)),
        q=GridFn.const(np.zeros(2)), rho=GridFn.const(np.zeros(1)),
    )


def time_table_problem():
    """A scalar problem with time tables for A and Q, and nonzero D and S."""
    p = scalar_problem(B=1.0, C=0.4, D=0.7, S=0.3, R=1.0, G=1.0)
    return dataclasses.replace(
        p,
        A=GridFn([0.0, 1.0], np.array([[[-0.5]], [[0.8]]])),
        Q=GridFn([0.0, 0.5, 1.0], np.array([[[1.0]], [[0.2]], [[0.6]]])),
    )


class TestPerturbed:
    def test_example_51_closed_form_values(self):
        p, _ = builtin("example-5.1")
        sol = solve_ladder(p, [0.5], 2000)[0]
        assert sol.P(0.5)[0, 0] == pytest.approx(0.5, abs=1e-10)
        sol1 = solve_ladder(p, [1.0], 2000)[0]
        assert sol1.P(0.0)[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_fixed_point(self):
        p = scalar_problem(A=0.3, B=1.0, C=0.2, D=0.5, R=1.0, G=0.0)
        sol = solve_ladder(p, [0.25], 64)[0]
        assert np.all(sol.P.values == 0.0)

    def test_terminal_condition_exact(self):
        p, _ = builtin("example-5.1")
        sol = solve_ladder(p, [0.5], 64)[0]
        assert sol.P(p.T)[0, 0] == p.G[0, 0]

    def test_fourth_order_convergence(self):
        p, _ = builtin("example-5.1")
        eps = 0.5

        def max_err(steps):
            sol = solve_ladder(p, [eps], steps)[0]
            s = sol.grid
            return np.max(np.abs(sol.P.values[:, 0, 0] - eps / (eps + 1.0 - s)))

        assert max_err(64) / max_err(128) >= 12.0

    def test_local_error_estimate_is_fifth_order_for_tables(self):
        # time-dependent A: the step-doubling half steps need their own
        # midpoints, or the estimate shrinks only like h^2
        p, _ = builtin("standard-scalar")
        A = GridFn([0.0, 1.0], np.array([[[0.0]], [[4.0]]]))
        q = SLQProblem(n=1, m=1, T=1.0, A=A, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=p.R,
                       G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho)
        est = [solve_ladder(q, [0.5], n)[0].max_local_error_estimate for n in (200, 400)]
        assert est[0] / est[1] >= 16.0

    def test_eps_monotone_on_example_51(self):
        p, _ = builtin("example-5.1")
        ladder = [1.0, 0.5, 0.25, 0.125]
        sols = [solve_ladder(p, [e], 256)[0] for e in ladder]
        for hi, lo in zip(sols[:-1], sols[1:]):
            assert np.all(hi.P.values >= lo.P.values - 1e-12)

    def test_symmetry_enforced_and_drift_small(self):
        p = random_problem()
        sol = solve_ladder(p, [0.5], 256)[0]
        assert np.array_equal(sol.P.values, np.swapaxes(sol.P.values, 1, 2))
        assert sol.max_step_asymmetry <= 1e-10

    @pytest.mark.parametrize("name", ["example-5.1", "random-n2"])
    def test_ladder_rungs_equal_single_solves(self, name):
        p = random_problem() if name == "random-n2" else builtin(name)[0]
        ladder = [1.0, 0.5, 0.25]
        for eps, rung in zip(ladder, solve_ladder(p, ladder, 256)):
            alone = solve_ladder(p, [eps], 256)[0]
            assert rung.epsilon == eps
            assert np.array_equal(rung.P.values, alone.P.values)
            assert rung.max_local_error_estimate == alone.max_local_error_estimate
            assert rung.max_step_asymmetry == alone.max_step_asymmetry

    def test_eps_must_be_positive(self):
        p, _ = builtin("example-5.1")
        with pytest.raises(InvalidInputError):
            solve_ladder(p, [0.0], 64)[0]
        with pytest.raises(InvalidInputError):
            solve_ladder(p, [0.5], 8)[0]

    def test_degenerate_perturbation(self):
        # R = -0.5 cancels eps = 0.5 exactly: inner matrix is singular
        p = scalar_problem(R=-0.5, G=1.0)
        with pytest.raises(DegeneratePerturbationError):
            solve_ladder(p, [0.5], 64)[0]


class TestGRE:
    def test_example_11_constant_solution(self):
        p, _ = builtin("example-1.1")
        sol = solve_gre(p, 256)
        assert np.max(np.abs(sol.P.values - 1.0)) <= 1e-12

    def test_example_51_constant_solution(self):
        p, _ = builtin("example-5.1")
        sol = solve_gre(p, 256)
        assert np.max(np.abs(sol.P.values - 1.0)) <= 1e-12

    def test_standard_scalar_separable_solution(self):
        p, _ = builtin("standard-scalar")
        sol = solve_gre(p, 2000)
        assert sol.P(0.0)[0, 0] == pytest.approx(0.5, abs=1e-8)
        exact = 1.0 / (2.0 - sol.grid)
        assert np.max(np.abs(sol.P.values[:, 0, 0] - exact)) <= 1e-8

    def test_blowup_reported_with_time(self):
        # P' = P^2 with P(1) = -2 leaves the finite regime at s = 1/2
        p = scalar_problem(R=1.0, G=-2.0)
        with pytest.raises(BlowUpError) as exc_info:
            solve_gre(p, 4096)
        assert exc_info.value.time == pytest.approx(0.5, abs=0.01)


class TestThetaHat:
    def test_zero_when_inner_matrix_vanishes(self):
        p, _ = builtin("example-1.1")
        sol = solve_gre(p, 256)
        assert np.all(gain(sol, p, [0.0, 0.37, 1.0]) == 0.0)

    def test_standard_scalar_value(self):
        p, _ = builtin("standard-scalar")
        sol = solve_gre(p, 2000)
        assert gain(sol, p, [0.0])[0, 0, 0] == pytest.approx(-0.5, abs=1e-8)

    def test_zero_numerator(self):
        p = scalar_problem(A=0.5, B=0.0, C=0.1, D=0.0, Q=1.0, R=1.0, G=1.0)
        sol = solve_gre(p, 256)
        assert np.all(gain(sol, p, [0.0, 0.5, 1.0]) == 0.0)


class TestRegularity:
    def test_examples_fail_range_condition(self):
        for name in ("example-1.1", "example-5.1"):
            p, _ = builtin(name)
            rep = check_regularity(solve_gre(p, 512), p)
            assert not rep.range_ok
            assert rep.verdict == "not-regular"
            assert rep.positivity_ok  # failure is the range condition alone
            assert np.isfinite(rep.theta_hat_l2)

    def test_standard_scalar_regular(self):
        p, _ = builtin("standard-scalar")
        rep = check_regularity(solve_gre(p, 512), p)
        assert rep.verdict == "regular"
        # integral of (2-s)^-2 over [0,1] is 1/2
        assert rep.theta_hat_l2 == pytest.approx(np.sqrt(0.5), abs=1e-3)

    def test_rejects_perturbed_solution(self):
        p, _ = builtin("standard-scalar")
        with pytest.raises(InvalidInputError, match="eps=0.5"):
            check_regularity(solve_ladder(p, [0.5], 64)[0], p)

    def test_l2_probe_flags_divergent_gain(self):
        # hand-built solution P = 1 against R(s) = 1 - s gives the gain
        # -1/(1-s), whose squared integral diverges at the horizon
        from slq.riccati import RiccatiSolution

        p = scalar_problem(B=1.0, G=1.0)
        tab = GridFn([0.0, 1.0], np.array([[[1.0]], [[0.0]]]))
        q = SLQProblem(
            n=1, m=1, T=1.0, A=p.A, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=tab,
            G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho,
        )
        grid = np.linspace(0.0, 1.0, 257)
        sol = RiccatiSolution(
            epsilon=0.0,
            P=GridFn(grid, np.ones((257, 1, 1))),
            eta=GridFn(grid, np.zeros((257, 1))),
            steps=256,
            max_local_error_estimate=0.0,
            max_step_asymmetry=0.0,
        )
        rep = check_regularity(sol, q)
        assert rep.theta_hat_l2 == np.inf
        assert rep.verdict == "not-regular"


def test_csv_dump_shape_and_precision():
    p, _ = builtin("example-5.1")
    sol = solve_ladder(p, [0.5], 64)[0]
    (text,) = riccati_csv([sol])
    lines = text.strip().split("\n")
    assert lines[0] == "s,P_11"
    assert len(lines) == 66
    s_val = float(lines[33].split(",")[0])
    p_val = float(lines[33].split(",")[1])
    assert p_val == sol.P.values[32, 0, 0]  # 17 digits round-trips exactly
    assert s_val == sol.grid[32]


def test_csv_dump_of_a_ladder_formats_each_solution_alone():
    p = random_problem()
    sols = solve_ladder(p, [0.0, 1.0, 0.5], 32)
    texts = riccati_csv(sols)
    assert texts == [riccati_csv([sol])[0] for sol in sols]
    lines = texts[1].split("\n")
    assert lines[0] == "s,P_11,P_12,P_21,P_22" and lines[-1] == "" and len(lines) == 35
    row = [float(v) for v in lines[5].split(",")]
    assert row == [sols[1].grid[4], *sols[1].P.values[4].ravel()]
    with pytest.raises(InvalidInputError, match="share one grid"):
        riccati_csv([sols[1], solve_ladder(p, [0.5], 64)[0]])


def _merged_case(name):
    if name.endswith("-2x2"):
        return embed(builtin(name[:-4])[0], *EMBEDDINGS["similar"])
    return builtin(name)[0]


class TestMergedStack:
    """The generalized flow as row 0 of the ladder's stack: every row is
    bit-equal to its one-row solve."""

    @pytest.mark.parametrize(
        "name", ["example-1.1", "example-5.1", "standard-scalar", "standard-scalar-2x2"]
    )
    def test_rows_equal_single_solves(self, name):
        p = _merged_case(name)
        ladder = [1.0, 0.5, 0.25]
        merged = solve_ladder(p, [0.0, *ladder], 256)
        alone = [solve_gre(p, 256)] + [solve_ladder(p, [eps], 256)[0] for eps in ladder]
        assert len(merged) == len(alone)
        for a, b in zip(merged, alone):
            assert a.epsilon == b.epsilon
            assert np.array_equal(a.P.values, b.P.values)
            assert a.max_local_error_estimate == b.max_local_error_estimate
            assert a.max_step_asymmetry == b.max_step_asymmetry

    def test_generalized_blowup_is_returned_and_rungs_go_on(self):
        # R + D'PD = 1/2 and P(1) = -1: the generalized flow blows up near
        # s = 0.373 while every rung stays finite
        p = scalar_problem(R=0.5, G=-1.0, Q=1.0)
        ladder = [1.0, 0.5, 0.25]
        P0, *rungs = solve_ladder(p, [0.0, *ladder], 512)
        with pytest.raises(BlowUpError) as exc_info:
            solve_gre(p, 512)
        assert isinstance(P0, BlowUpError)
        assert P0.time == exc_info.value.time == pytest.approx(0.373, abs=1e-3)
        assert str(P0) == str(exc_info.value)
        for eps, rung in zip(ladder, rungs):
            alone = solve_ladder(p, [eps], 512)[0]
            assert np.all(np.isfinite(rung.P.values))
            assert np.array_equal(rung.P.values, alone.P.values)
            assert rung.max_local_error_estimate == alone.max_local_error_estimate
            assert rung.max_step_asymmetry == alone.max_step_asymmetry
        reg = closed_loop_test(p, P0)
        assert (reg.verdict, reg.blowup_time, reg.eta_ok) == ("not-regular", P0.time, None)
        assert reg.lines() == [
            "closed-loop: NOT solvable",
            "  generalized Riccati flow blew up near s=0.373047",
        ]

    def test_rung_blowup_still_raises(self):
        # at 16 steps both small rungs blow up; the generalized flow beside
        # them changes neither the rung named nor the time
        p, _ = builtin("example-5.1")
        with pytest.raises(BlowUpError, match=r"eps=0\.015625\).* near s=0\.875"):
            solve_ladder(p, [0.0, 1.0, 2.0**-5, 2.0**-6], 16)

    def test_zero_only_leads(self):
        p, _ = builtin("example-5.1")
        with pytest.raises(InvalidInputError, match="eps must be positive, got 0.0"):
            solve_ladder(p, [1.0, 0.0], 64)


_coef = st.floats(-1.0, 1.0)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(A=_coef, B=_coef, C=_coef, D=_coef, Q=st.floats(0.0, 1.0), G=st.floats(0.0, 1.0),
       R=st.floats(0.1, 2.0))
def test_uniformly_convex_gre_is_regular_and_the_ladder_closes_in(A, B, C, D, Q, G, R):
    # R >= 0.1 with Q, G >= 0: the generalized solution is regular and
    # P_eps decreases to it as eps decreases (the cost grows with eps)
    p = scalar_problem(A=A, B=B, C=C, D=D, Q=Q, R=R, G=G)
    P0, *rungs = solve_ladder(p, [0.0, 1.0, 0.5, 0.25, 0.125], 256)
    assert check_regularity(P0, p).verdict == "regular"
    gaps = [float(np.max(np.abs(r.P.values - P0.P.values))) for r in rungs]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), gaps


_mat = st.lists(_coef, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2)))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(A=_mat, B=_mat, C=_mat, D=_mat, M=_mat, N=_mat, V=_mat)
def test_uniformly_convex_gre_is_regular_and_the_ladder_closes_in_2x2(A, B, C, D, M, N, V):
    # n = m = 2, through the matrix pass: Q = MM' and G = NN' are >= 0 and
    # R = VV' + 0.1 I >= 0.1 I.  P_eps - P_0 is >= 0 and decreases with
    # eps, so its largest entry, a diagonal one, does not grow
    p = SLQProblem(
        n=2, m=2, T=1.0, A=GridFn.const(A), B=GridFn.const(B), C=GridFn.const(C),
        D=GridFn.const(D), Q=GridFn.const(M @ M.T), S=GridFn.const(np.zeros((2, 2))),
        R=GridFn.const(V @ V.T + 0.1 * np.eye(2)), G=N @ N.T, g=np.zeros(2),
        b=GridFn.const(np.zeros(2)), sigma=GridFn.const(np.zeros(2)), q=GridFn.const(np.zeros(2)),
        rho=GridFn.const(np.zeros(2)),
    )
    P0, *rungs = solve_ladder(p, [0.0, 1.0, 0.5, 0.25, 0.125], 256)
    assert check_regularity(P0, p).verdict == "regular"
    gaps = [float(np.max(np.abs(r.P.values - P0.P.values))) for r in rungs]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), gaps


# (problem, ladder, steps): a leading 0.0 puts the generalized flow in the stack
STAGE_CASES = {
    "example-1.1": (lambda: builtin("example-1.1")[0], [0.0, 1.0, 0.5, 0.25, 0.125], 256),
    "example-5.1": (lambda: builtin("example-5.1")[0], [0.0, 1.0, 0.5, 0.25, 0.125], 256),
    "standard-scalar": (lambda: builtin("standard-scalar")[0], [1.0, 0.5, 0.25], 256),
    "time-table": (time_table_problem, [0.0, 1.0, 0.5, 0.25], 400),
    # the generalized row blows up near s = 0.373 and stays frozen
    "generalized-blowup": (lambda: scalar_problem(R=0.5, Q=1.0, G=-1.0),
                           [0.0, 1.0, 0.5, 0.25], 512),
    "degenerate": (lambda: scalar_problem(R=-0.5, G=1.0), [0.5], 64),
    "degenerate-behind-rows": (lambda: scalar_problem(R=-0.5, G=1.0), [0.0, 1.0, 0.5], 64),
    # P stays -0.0; a -0.0 in q or s must not reach the scalar stage's sums
    "negative-zeros": (lambda: scalar_problem(B=0.0, C=-0.0, D=1.0, Q=-0.0, S=-0.0, G=-0.0),
                       [0.0, 1.0, 0.5], 64),
    # the same problems with every input nonzero: eta rides in the rows
    "forced-example-5.1": (lambda: dataclasses.replace(
        builtin("example-5.1")[0], b=GridFn.const([0.3]), g=np.array([0.1])),
        [0.0, 1.0, 0.5, 0.25, 0.125], 256),
    "forced-time-table": (lambda: dataclasses.replace(
        time_table_problem(), sigma=GridFn([0.0, 1.0], np.array([[0.3], [0.1]])),
        q=GridFn.const([0.1]), rho=GridFn.const([0.05]), g=np.array([0.1])),
        [0.0, 1.0, 0.5, 0.25], 400),
    # the generalized row, P and eta, freezes near s = 0.373 under forcing
    "forced-generalized-blowup": (lambda: scalar_problem(R=0.5, Q=1.0, G=-1.0, **FORCING),
                                  [0.0, 1.0, 0.5, 0.25], 512),
    # K = 0 on the generalized row: K^+ = 0, so its Theta is 0
    "forced-zero-gain": (lambda: scalar_problem(B=0.0, D=0.0, G=0.5, **FORCING),
                         [0.0, 1.0, 0.5], 64),
    "forced-degenerate": (lambda: scalar_problem(R=-0.5, G=1.0, **FORCING), [0.0, 1.0, 0.5], 64),
    # a -0.0 in an input or g must not reach the scalar eta sums
    "forced-negative-zeros": (lambda: scalar_problem(
        B=0.0, C=-0.0, D=1.0, Q=-0.0, S=-0.0, G=-0.0, b=-0.0, sigma=0.5, q=-0.0, rho=-0.0,
        g=-0.0), [0.0, 1.0, 0.5], 64),
    # at 16 steps the rung 2^-6 blows up near s = 0.875 and raises
    "rung-blowup": (lambda: builtin("example-5.1")[0], [0.0, 1.0, 2.0**-5, 2.0**-6], 16),
    # two rungs blow up in the same step: the first in stack order is named
    "rung-blowup-tie": (lambda: builtin("example-5.1")[0],
                        [0.0, 1.0, 2.0**-6 * (1.0 + 1e-6), 2.0**-6], 16),
    # solve's default ladder 2^0 .. 2^-10 behind the generalized row
    "example-5.1-default": (lambda: builtin("example-5.1")[0],
                            [0.0, *(2.0**-k for k in range(11))], 2000),
}


def _pass_or_error(p, ladder, steps, backend=None):
    """The one backward loop on ``backend`` (by default the one n and m pick),
    or the error it raises."""
    with pytest.MonkeyPatch.context() as mp:
        if backend is not None:
            mp.setattr(riccati, "_ScalarRows", backend)
            mp.setattr(riccati, "_MatrixRows", backend)
        try:
            return riccati._solve_backward(p, np.asarray(ladder, dtype=float), steps)
        except (BlowUpError, DegeneratePerturbationError) as exc:
            return exc


def _assert_same_pass(scalar, matrix):
    assert type(scalar) is type(matrix)
    if isinstance(matrix, Exception):
        assert (str(scalar), getattr(scalar, "time", None)) == (
            str(matrix), getattr(matrix, "time", None))
        return
    for a, b in zip(scalar, matrix, strict=True):
        if isinstance(b, BlowUpError):
            assert (str(a), a.time) == (str(b), b.time)
            continue
        for table in ("P", "eta"):
            x, z = getattr(a, table).values, getattr(b, table).values
            assert np.array_equal(x, z) and np.array_equal(np.signbit(x), np.signbit(z)), table
        assert a.max_local_error_estimate == b.max_local_error_estimate
        assert a.max_step_asymmetry == b.max_step_asymmetry


@pytest.mark.parametrize("case", list(STAGE_CASES))
def test_scalar_stage_equals_matrix_stage(case, monkeypatch):
    # the Python-float backend against the numpy backend through the one
    # loop, bit for bit, errors included
    make, ladder, steps = STAGE_CASES[case]
    p = make()
    scalar = _pass_or_error(p, ladder, steps, riccati._ScalarRows)
    _assert_same_pass(scalar, _pass_or_error(p, ladder, steps, riccati._MatrixRows))
    monkeypatch.delattr(riccati, "_MatrixRows")  # n = m = 1 must not reach it
    _assert_same_pass(_pass_or_error(p, ladder, steps), scalar)


_nonzero = st.floats(-1.0, 1.0).filter(lambda v: v != 0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(A=_coef, B=_coef, C=_coef, D=_nonzero, Q=_coef, S=_nonzero,
       G=st.one_of(st.just(0.0), _coef), R=st.one_of(st.floats(-0.5, 2.0), st.just(-0.5)),
       forcing=st.one_of(st.just({}), st.fixed_dictionaries({k: _coef for k in FORCING})))
def test_scalar_pass_equals_matrix_pass_on_drawn_problems(A, B, C, D, Q, S, G, R, forcing):
    # R < 0 makes K singular (R = -0.5 with G = 0 at eps = 0.5) or a flow
    # blow up on some draws: the error type, message and time must match
    # too.  Most draws are forced, and eta must match as P does
    p = scalar_problem(A=A, B=B, C=C, D=D, Q=Q, S=S, R=R, G=G, **forcing)
    ladder = [0.0, 1.0, 0.5, 0.25]
    with np.errstate(all="ignore"):
        matrix = _pass_or_error(p, ladder, 64, riccati._MatrixRows)
    _assert_same_pass(_pass_or_error(p, ladder, 64, riccati._ScalarRows), matrix)


@pytest.mark.parametrize("forcing", [{}, FORCING], ids=["unforced", "forced"])
def test_matrix_generalized_row_freezes_as_the_scalar_one(forcing):
    # two uncoupled copies of the generalized-blowup case on the numpy
    # backend: the generalized flow blows up at the scalar time and its
    # frozen row leaves every rung the scalar rung on the diagonal, and,
    # forced, the scalar eta in both entries
    p = scalar_problem(R=0.5, Q=1.0, G=-1.0, **forcing)
    ladder = [0.0, 1.0, 0.5, 0.25]
    scalar = solve_ladder(p, ladder, 512)
    twice = {k: GridFn.const(np.repeat(getattr(p, k).values[0], 2))
             for k in ("b", "sigma", "q", "rho")}
    q = dataclasses.replace(embed(p, *EMBEDDINGS["block"]), g=np.repeat(p.g, 2), **twice)
    matrix = solve_ladder(q, ladder, 512)
    assert isinstance(scalar[0], BlowUpError) and isinstance(matrix[0], BlowUpError)
    assert (str(matrix[0]), matrix[0].time) == (str(scalar[0]), scalar[0].time)
    assert matrix[0].time == pytest.approx(0.373, abs=1e-3)
    for a, b in zip(scalar[1:], matrix[1:], strict=True):
        assert b.epsilon == a.epsilon
        assert np.max(np.abs(b.P.values - a.P.values[:, :1, :1] * np.eye(2))) <= 1e-12
        assert np.max(np.abs(b.eta.values - a.eta.values)) <= 1e-12
        assert np.any(a.eta.values != 0.0) == bool(forcing)


@pytest.mark.parametrize("name", ["time-table", "random-n2"])
def test_rk4_flow_matches_a_radau_oracle(name):
    # scipy's implicit Radau IIA integrator on the Riccati equation written
    # out from the coefficients, against the scalar (n = m = 1) and the
    # matrix (n = 2) stage at eps = 0.5
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    p = time_table_problem() if name == "time-table" else random_problem()
    eps, n = 0.5, p.n

    def f(s, y):
        P = y.reshape(n, n)
        A, B, C, D, Q, S, R = (getattr(p, k)(s) for k in "ABCDQSR")
        K = R + eps * np.eye(p.m) + D.T @ P @ D
        L = B.T @ P + D.T @ P @ C + S
        return -(P @ A + A.T @ P + C.T @ P @ C + Q - L.T @ np.linalg.solve(K, L)).ravel()

    coarse, fine = (solve_ladder(p, [eps], steps)[0].P.values for steps in (50, 100))
    ref = solve_ivp(f, (p.T, 0.0), p.G.ravel(), method="Radau", rtol=1e-10, atol=1e-12,
                    t_eval=np.linspace(p.T, 0.0, 101))
    assert ref.success
    exact = ref.y.T[::-1].reshape(-1, n, n)
    err_coarse = np.max(np.abs(coarse - exact[::2]))
    err_fine = np.max(np.abs(fine - exact))
    # RK4's global error is C h^4 + O(h^5): halving h divides it by about 16
    # (>= 12 allowed), and Richardson's (P_h - P_{h/2}) * 16/15 estimates it,
    # within a factor 2; Radau at rtol 1e-10 adds at most ~1e-10 |P|
    radau = 1e-9 * max(1.0, np.max(np.abs(exact)))
    assert err_coarse / err_fine >= 12.0, (err_coarse, err_fine)
    richardson = np.max(np.abs(coarse - fine[::2])) * 16.0 / 15.0
    assert err_coarse <= 2.0 * richardson + radau, (err_coarse, richardson)
