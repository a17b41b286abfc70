from pathlib import Path

import numpy as np
import pytest

from slq.errors import InvalidInputError
from slq.problem import builtin, builtin_names, validate
from slq.problemfile import load_problem, parse_problem

DOCS = Path(__file__).resolve().parents[1] / "docs" / "problems"


@pytest.mark.parametrize("name", builtin_names())
def test_reference_files_match_builtins(name):
    p, _ = builtin(name)
    q = load_problem(DOCS / f"{name}.slq")
    assert validate(q).ok(), validate(q).violations
    s = np.linspace(0.0, p.T, 13)
    for c in ("A", "B", "C", "D", "Q", "S", "R"):
        assert np.allclose(getattr(q, c)(s), getattr(p, c)(s)), c
    assert np.array_equal(q.G, p.G) and np.array_equal(q.g, p.g)
    if p.b_mod is None:
        assert q.b_mod is None
    else:
        assert q.b_mod.gamma == p.b_mod.gamma
        assert q.b_mod.profile.name == p.b_mod.profile.name


TABLE_PROBLEM = """
[dims]
n = 2
m = 1
[horizon]
T = 2
[coef.A]
0 : 1, 0; 0, 1
2 : 0, 1; 1, 0
[coef.B]
constant = 1; 0
[terminal]
G = 1, 0; 0, 2
g = 0.5, -0.5
[input.b]
deterministic = table
0 : 1, 1
2 : 3, 3
"""


def test_tables_and_terminal_vector():
    p = parse_problem(TABLE_PROBLEM)
    assert p.n == 2 and p.T == 2.0
    assert np.allclose(p.A(1.0), [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(p.G, [[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(p.g, [0.5, -0.5])
    assert np.allclose(p.b(1.0), [2.0, 2.0])


def test_modulated_profile_table():
    text = """
[dims]
n = 1
m = 1
[horizon]
T = 1
[terminal]
G = 1
[input.b]
gamma = 0.5
profile = table
0 : 1
1 : 2
"""
    p = parse_problem(text)
    assert p.b_mod.gamma == 0.5
    assert p.b_mod.profile_at(0.5, p.T) == pytest.approx(1.5)


@pytest.mark.parametrize(
    "bad",
    [
        "[dims]\nn = 1\nm = 1\n",  # missing horizon/terminal
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[terminal]\nG = 1\n[coef.A]\nconstant = 1\n0 : 2\n",
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[terminal]\nG = 1; 2\n",
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[terminal]\nG = 1\n[input.b]\nprofile = named:nope\ngamma = 1\n",
        "stray line\n[dims]\nn = 1\nm = 1\n",
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[terminal]\nG = 1\n[input.b]\ngamma = 1\n",
    ],
)
def test_rejects_malformed(bad):
    with pytest.raises((InvalidInputError, LookupError)):
        parse_problem(bad)


_MINIMAL = "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[terminal]\nG = 1\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (_MINIMAL + "[inputs.b]\ndeterministic = 5\n", r"line 8: unknown section \[inputs\.b\]"),
        (_MINIMAL + "[bogus]\n", r"line 8: unknown section \[bogus\]"),
        (_MINIMAL + "[coef.E]\nconstant = 1\n", r"line 8: unknown section \[coef\.e\]"),
        (_MINIMAL.replace("m = 1\n", "m = 1\nk = 2\n"), r"line 4: unknown key 'k' in \[dims\]"),
        (_MINIMAL.replace("T = 1\n", "T = 1\nt0 = 0\n"),
         r"line 6: unknown key 't0' in \[horizon\]"),
        (_MINIMAL + "H = 1\n", r"line 8: unknown key 'H' in \[terminal\]"),
    ],
    ids=["inputs.b", "bogus", "coef.E", "dims", "horizon", "terminal"],
)
def test_rejects_unknown_sections_and_keys(text, where):
    parse_problem(_MINIMAL)
    with pytest.raises(InvalidInputError, match=where):
        parse_problem(text)


_B = _MINIMAL + "[input.b]\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (_MINIMAL.replace("m = 1\n", "m = 1\nn = 2\n"), r"line 4: duplicate key 'n' in \[dims\]"),
        (_MINIMAL.replace("T = 1\n", "T = 1\nT = 2\n"),
         r"line 6: duplicate key 't' in \[horizon\]"),
        (_MINIMAL + "G = 2\n", r"line 8: duplicate key 'G' in \[terminal\]"),
        (_MINIMAL + "[coef.a]\nconstant = 1\nconstant = 3\n",
         r"line 10: duplicate key 'constant' in \[coef\.a\]"),
        (_B + "deterministic = 5\ndeterministic = 6\n",
         r"line 10: duplicate key 'deterministic' in \[input\.b\]"),
        (_B + "gamma = 1\nprofile = named:inv-sqrt-gap\ngamma = 2\n",
         r"line 11: duplicate key 'gamma' in \[input\.b\]"),
        (_B + "gamma = 1\nprofile = named:inv-sqrt-gap\nprofile = named:exp-inv-sqrt-gap\n",
         r"line 11: duplicate key 'profile' in \[input\.b\]"),
    ],
    ids=["dims", "horizon", "terminal", "coef", "input-deterministic", "input-gamma",
         "input-profile"],
)
def test_rejects_duplicate_keys(text, where):
    with pytest.raises(InvalidInputError, match=where):
        parse_problem(text)


@pytest.mark.parametrize(
    "text",
    [
        _B + "deterministic = 5\ndeterministic = table\n0 : 1\n1 : 2\n",
        _B + "gamma = 1\nprofile = named:inv-sqrt-gap\nprofile = table\n0 : 1\n1 : 2\n",
    ],
    ids=["deterministic", "profile"],
)
def test_rejects_value_and_table_together(text):
    with pytest.raises(InvalidInputError, match=r"\[input\.b\]: give either .* not both"):
        parse_problem(text)


@pytest.mark.parametrize(
    "text, where",
    [
        (_B + "gamma = abc\nprofile = named:inv-sqrt-gap\n",
         r"line 9: 'abc' is not a number in \[input\.b\]"),
        (_MINIMAL + "[coef.a]\nx : 1\n", r"line 9: 'x' is not a number in \[coef\.a\]"),
        (_MINIMAL.replace("n = 1\n", "n = 1.5\n"), r"line 2: '1\.5' is not an integer in \[dims\]"),
        (_MINIMAL.replace("T = 1\n", "T = abc\n"), r"line 5: 'abc' is not a number in \[horizon\]"),
        (_MINIMAL + "[coef.b]\nconstant = 1, x\n", r"line 9: 'x' is not a number in \[coef\.b\]"),
        (_MINIMAL.replace("T = 1\n", "T = inf\n"),
         r"line 5: 'inf' is not a finite number in \[horizon\]"),
        (_MINIMAL.replace("G = 1\n", "G = inf\n"),
         r"line 7: 'inf' is not a finite number in \[terminal\]"),
        (_MINIMAL + "g = nan\n", r"line 8: 'nan' is not a finite number in \[terminal\]"),
        (_MINIMAL + "[coef.a]\nconstant = inf\n",
         r"line 9: 'inf' is not a finite number in \[coef\.a\]"),
        (_MINIMAL + "[coef.a]\n-inf : 1\n",
         r"line 9: '-inf' is not a finite number in \[coef\.a\]"),
        (_B + "gamma = nan\nprofile = named:inv-sqrt-gap\n",
         r"line 9: 'nan' is not a finite number in \[input\.b\]"),
    ],
    ids=["input-gamma", "coef-table-time", "dims", "horizon", "coef-matrix", "horizon-inf",
         "terminal-G-inf", "terminal-g-nan", "coef-inf", "coef-table-time-inf",
         "input-gamma-nan"],
)
def test_rejects_non_numeric_values_with_line(text, where):
    with pytest.raises(InvalidInputError, match=where):
        parse_problem(text)


@pytest.mark.parametrize(
    "text, where",
    [
        (_MINIMAL + "[coef.a]\nconstant = 1, 2\n",
         r"^line 9: value of size 2 does not fit shape \(1, 1\) in \[coef\.a\]$"),
        (_B + "deterministic = table\n0 : 1, 2\n",
         r"^line 10: value of size 2 does not fit shape 1 in \[input\.b\]$"),
    ],
    ids=["coef-constant", "input-table-row"],
)
def test_rejects_wrong_size_values_with_line(text, where):
    with pytest.raises(InvalidInputError, match=where):
        parse_problem(text)


@pytest.mark.parametrize("section", ["sigma", "q", "rho"])
@pytest.mark.parametrize("key, line", [("gamma", "gamma = 1"),
                                       ("profile", "profile = named:inv-sqrt-gap")])
def test_only_the_drift_takes_a_modulated_part(section, key, line):
    # the same lines in [input.b] are its modulated part
    assert parse_problem(_B + "gamma = 1\nprofile = named:inv-sqrt-gap\n").b_mod is not None
    text = _MINIMAL + f"[input.{section}]\ndeterministic = 0\n{line}\n"
    with pytest.raises(InvalidInputError,
                       match=rf"^line 10: unknown key '{key}' in \[input\.{section}\]$"):
        parse_problem(text)
