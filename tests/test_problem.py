import dataclasses
import math

import numpy as np
import pytest

from slq.core import GridFn
from slq.errors import UnknownProblemError
from slq.problem import (
    NAMED_PROFILES,
    Modulation,
    SLQProblem,
    builtin,
    builtin_names,
    named_profile,
    validate,
)


def test_builtin_example_11_coefficients():
    p, ip = builtin("example-1.1")
    assert p.A(0.3) == pytest.approx(-2.0)
    assert p.C(0.7) == pytest.approx(2.0)
    assert p.T == 1.0 and p.n == p.m == 1
    assert p.G[0, 0] == 1.0
    assert ip.t == 0.0


def test_builtin_example_51_coefficients():
    p, _ = builtin("example-5.1")
    for s in (0.0, 0.33, 1.0):
        assert p.C(s)[0, 0] == pytest.approx(math.sqrt(2.0))
    assert p.A(0.5)[0, 0] == pytest.approx(-1.0)
    mod = p.b_mod
    assert mod is not None
    # martingale normalization: gamma^2/2 = 1 makes the modulated drift equal
    # exp(sqrt(2) W(s) - 2s)/sqrt(1-s) with the recorded e^{-s} profile
    assert mod.gamma**2 / 2.0 == pytest.approx(1.0, abs=1e-15)
    assert mod.profile.name == "exp-inv-sqrt-gap"
    assert mod.profile(0.0, p.T) == pytest.approx(1.0)
    assert mod.profile(0.75, p.T) == pytest.approx(math.exp(-0.75) / math.sqrt(0.25))


def test_builtin_standard_scalar():
    p, _ = builtin("standard-scalar")
    for s in (0.0, 0.5, 1.0):
        assert p.R(s)[0, 0] == pytest.approx(1.0)
    assert p.A(0.1)[0, 0] == 0.0
    assert not any(f.values.any() for f in (p.b, p.sigma, p.q, p.rho))
    assert p.b_mod is None
    assert np.all(p.g == 0.0)


def test_unknown_builtin():
    with pytest.raises(UnknownProblemError):
        builtin("example-9.9")
    with pytest.raises(UnknownProblemError):
        named_profile("no-such-profile")


def test_validate_builtins_clean():
    for name in builtin_names():
        p, _ = builtin(name)
        report = validate(p)
        assert report.ok(), report.violations


@pytest.mark.parametrize("name", sorted(NAMED_PROFILES))
def test_validate_accepts_every_named_profile(name):
    # both are smooth(s)/sqrt(T - s), integrable on [0, T)
    p, _ = builtin("example-5.1")
    mod = Modulation(gamma=1.0, profile=named_profile(name))
    q = dataclasses.replace(p, b_mod=mod)
    assert validate(q).violations == []


def test_validate_flags_nonsymmetric_q():
    p, _ = builtin("standard-scalar")
    bad = SLQProblem(
        n=2, m=1, T=1.0,
        A=GridFn.const(np.zeros((2, 2))),
        B=GridFn.const(np.ones((2, 1))),
        C=GridFn.const(np.zeros((2, 2))),
        D=GridFn.const(np.zeros((2, 1))),
        Q=GridFn.const(np.array([[0.0, 1.0], [0.0, 0.0]])),
        S=GridFn.const(np.zeros((1, 2))),
        R=GridFn.const(np.eye(1)),
        G=np.eye(2), g=np.zeros(2),
        b=GridFn.const(np.zeros(2)), sigma=GridFn.const(np.zeros(2)),
        q=GridFn.const(np.zeros(2)), rho=GridFn.const(np.zeros(1)),
    )
    report = validate(bad)
    assert any("Q not symmetric" in v for v in report.violations)


def test_validate_rejects_modulation_on_vector_state():
    mod = Modulation(gamma=1.0, profile=named_profile("inv-sqrt-gap"))
    p = SLQProblem(
        n=2, m=1, T=1.0,
        A=GridFn.const(np.zeros((2, 2))),
        B=GridFn.const(np.ones((2, 1))),
        C=GridFn.const(np.zeros((2, 2))),
        D=GridFn.const(np.zeros((2, 1))),
        Q=GridFn.const(np.zeros((2, 2))),
        S=GridFn.const(np.zeros((1, 2))),
        R=GridFn.const(np.eye(1)),
        G=np.eye(2), g=np.zeros(2),
        b=GridFn.const(np.zeros(2)), sigma=GridFn.const(np.zeros(2)),
        q=GridFn.const(np.zeros(2)), rho=GridFn.const(np.zeros(1)), b_mod=mod,
    )
    report = validate(p)
    assert any("scalar state" in v for v in report.violations)


@pytest.mark.parametrize("field, value, violation", [
    ("T", math.inf, "horizon T must be positive and finite"),
    ("T", math.nan, "horizon T must be positive and finite"),
    ("G", [[math.inf]], "G has non-finite entries"),
    ("g", [math.nan], "g has non-finite entries"),
    ("b_mod", Modulation(gamma=math.nan, profile=named_profile("inv-sqrt-gap")),
     "b: gamma must be finite, got nan"),
])
def test_validate_flags_non_finite_values(field, value, violation):
    # a problem built in Python skips the file parser's finite-number check
    p, _ = builtin("standard-scalar")
    assert validate(dataclasses.replace(p, **{field: value})).violations == [violation]


@pytest.mark.parametrize("part", ["table", "profile table"])
def test_validate_flags_input_tables_outside_horizon(part):
    # a table node at s = 3 on T = 1 would otherwise be silently ignored
    p, _ = builtin("standard-scalar")
    tab = GridFn([0.0, 3.0], np.array([[1.0], [2.0]]))
    if part == "table":
        q = dataclasses.replace(p, b=tab)
    else:
        profile = GridFn(tab.grid, tab.values[:, 0])
        q = dataclasses.replace(p, b_mod=Modulation(gamma=1.0, profile=profile))
    assert validate(q).violations == [f"b {part} spans outside [0, T]"]


def test_table_coefficients():
    p, _ = builtin("standard-scalar")
    tab = GridFn([0.0, 1.0], np.array([[[0.0]], [[2.0]]]))
    q = SLQProblem(
        n=1, m=1, T=1.0, A=tab, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=p.R,
        G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho,
    )
    assert q.A(0.25)[0, 0] == pytest.approx(0.5)
    clamped = GridFn([0.0, 0.5], np.array([[[1.0]], [[1.0]]]))
    q2 = SLQProblem(
        n=1, m=1, T=1.0, A=clamped, B=p.B, C=p.C, D=p.D, Q=p.Q, S=p.S, R=p.R,
        G=p.G, g=p.g, b=p.b, sigma=p.sigma, q=p.q, rho=p.rho,
    )
    assert q2.A(0.9)[0, 0] == pytest.approx(1.0)


def test_table_evaluation_is_lipschitz():
    grid = np.array([0.0, 0.4, 1.0])
    vals = np.array([[[0.0]], [[2.0]], [[1.0]]])
    tab = GridFn(grid, vals)
    slopes = [2.0 / 0.4, 1.0 / 0.6]
    L = max(slopes)
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = rng.uniform(0.0, 1.0)
        h = rng.uniform(0.0, 1e-3)
        assert abs(tab(min(s + h, 1.0))[0, 0] - tab(s)[0, 0]) <= L * h + 1e-12
