"""Line-oriented problem definition files.

Format: UTF-8 text, ``key = value`` lines under ``[section]`` headers, with
``#`` comments.  Sections: ``[dims]`` (n, m), ``[horizon]`` (T),
``[coef.A]`` .. ``[coef.R]``, ``[terminal]`` (G, g), ``[input.b]`` ..
``[input.rho]``.  Matrices are semicolon-separated rows of comma-separated
reals ("1, 0; 0, 1").  A coefficient section holds either ``constant =
MATRIX`` or bare table lines ``t : MATRIX``.  Input sections hold
``deterministic = VECTOR`` (or ``deterministic = table`` followed by ``t :
VECTOR`` lines); ``[input.b]`` alone may add a modulated part, ``gamma =
REAL`` and ``profile = named:<id>`` or ``profile = table`` followed by ``t :
REAL`` lines.
Missing coefficient and input sections default to zero; unknown sections
and keys, repeated keys and a value given both inline and as a table are
rejected.  Constants are one-node tables.

Reference files for the built-in problems ship under ``docs/problems/``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GridFn
from .errors import InvalidInputError
from .problem import (
    COEF_SHAPES,
    INPUT_SHAPES,
    Modulation,
    SLQProblem,
    named_profile,
)

__all__ = ["parse_problem", "load_problem"]

_COEF_SECTIONS = {f"coef.{c.lower()}": c for c in COEF_SHAPES}
_INPUT_SECTIONS = {f"input.{c}": c for c in INPUT_SHAPES}
_SECTIONS = {"dims", "horizon", "terminal"} | set(_COEF_SECTIONS) | set(_INPUT_SECTIONS)


def _reshape(arr: np.ndarray, shape, lineno: int, where: str) -> np.ndarray:
    try:
        return arr.reshape(shape)
    except ValueError:
        raise InvalidInputError(
            f"line {lineno}: value of size {arr.size} does not fit shape {shape} in {where}"
        ) from None


def _number(text: str, lineno: int, where: str, kind=float):
    """``kind(text)``; a malformed or non-finite value raises naming its
    line and section."""
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
    else:
        if math.isfinite(value):
            return value
        expected = "a finite number"
    raise InvalidInputError(f"line {lineno}: {text.strip()!r} is not {expected} in {where}")


def _parse_matrix(text: str, lineno: int, where: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    data = [[_number(x, lineno, where) for x in row.split(",")] for row in rows]
    lengths = {len(r) for r in data}
    if not data or len(lengths) != 1:
        raise InvalidInputError(f"line {lineno}: ragged matrix literal {text!r} in {where}")
    return np.asarray(data, dtype=float)


def _parse_sections(text: str) -> dict:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise InvalidInputError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InvalidInputError(f"line {lineno}: content before any [section]")
        sections[current].append((lineno, line))
    return sections


def _split_kv(line: str, lineno: int, keep_case: bool = False):
    if "=" not in line:
        raise InvalidInputError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, val = line.split("=", 1)
    key = key.strip()
    return (key if keep_case else key.lower()), val.strip()


def _section_kv(sections: dict, sec: str, keys: tuple, keep_case: bool = False) -> dict:
    """Each key of a fixed-key section mapped to (value, line number); other
    keys are rejected."""
    out = {}
    for lineno, line in sections[sec]:
        key, val = _split_kv(line, lineno, keep_case)
        if key not in keys:
            raise InvalidInputError(f"line {lineno}: unknown key {key!r} in [{sec}]")
        if key in out:
            raise InvalidInputError(f"line {lineno}: duplicate key {key!r} in [{sec}]")
        out[key] = (val, lineno)
    return out


def _table(rows) -> GridFn:
    """The GridFn of ``(t, value)`` rows given in any order."""
    rows = sorted(rows, key=lambda kv: kv[0])
    return GridFn(np.array([t for t, _ in rows]), np.stack([v for _, v in rows]))


def _parse_coef(lines, shape, what: str) -> GridFn:
    constant = None
    table_rows = []
    for lineno, line in lines:
        if "=" in line and ":" not in line.split("=", 1)[0]:
            key, val = _split_kv(line, lineno)
            if key != "constant":
                raise InvalidInputError(f"line {lineno}: unknown key {key!r} in {what}")
            if constant is not None:
                raise InvalidInputError(f"line {lineno}: duplicate key {key!r} in {what}")
            constant = _reshape(_parse_matrix(val, lineno, what), shape, lineno, what)
        elif ":" in line:
            t_str, mat = line.split(":", 1)
            t = _number(t_str, lineno, what)
            table_rows.append((t, _reshape(_parse_matrix(mat, lineno, what), shape, lineno, what)))
        else:
            raise InvalidInputError(f"line {lineno}: cannot parse {line!r} in {what}")
    if constant is not None and table_rows:
        raise InvalidInputError(f"{what}: give either a constant or a table, not both")
    # a constant is a one-node table
    if constant is not None:
        table_rows = [(0.0, constant)]
    return _table(table_rows or [(0.0, np.zeros(shape))])


def _parse_input(lines, dim: int, what: str, keys: tuple) -> tuple:
    """The input's table and its modulated part or None; ``keys`` are the
    keys the section accepts."""
    det_const = np.zeros(dim)
    gamma = None
    profile_named = None
    mode = None  # which '... = table' is collecting bare lines
    seen = set()  # (key, is a '= table' line)
    det_rows: list = []
    prof_rows: list = []
    for lineno, line in lines:
        if "=" in line and ":" not in line.split("=", 1)[0]:
            key, val = _split_kv(line, lineno)
            if key not in keys:
                raise InvalidInputError(f"line {lineno}: unknown key {key!r} in {what}")
            table = val.lower() == "table"
            if (key, table) in seen:
                raise InvalidInputError(f"line {lineno}: duplicate key {key!r} in {what}")
            seen.add((key, table))
            if table and key != "gamma":
                mode = key
            elif key == "deterministic":
                det_const = _reshape(_parse_matrix(val, lineno, what), dim, lineno, what)
            elif key == "gamma":
                gamma = _number(val, lineno, what)
            elif val.lower().startswith("named:"):
                profile_named = named_profile(val[6:].strip())
            else:
                raise InvalidInputError(f"line {lineno}: profile must be 'named:<id>' or 'table'")
        elif ":" in line:
            t_str, vec = line.split(":", 1)
            t, arr = _number(t_str, lineno, what), _parse_matrix(vec, lineno, what)
            if mode == "deterministic":
                det_rows.append((t, _reshape(arr, dim, lineno, what)))
            elif mode == "profile":
                prof_rows.append((t, _reshape(arr, (), lineno, what + " profile")))
            else:
                raise InvalidInputError(
                    f"line {lineno}: table row outside 'deterministic = table' or "
                    f"'profile = table' in {what}"
                )
        else:
            raise InvalidInputError(f"line {lineno}: cannot parse {line!r} in {what}")
    for key in ("deterministic", "profile"):
        if (key, False) in seen and (key, True) in seen:
            raise InvalidInputError(f"{what}: give either a {key} value or a table, not both")

    det = _table(det_rows or [(0.0, det_const)])

    modulated = None
    if gamma is not None or profile_named is not None or prof_rows:
        if gamma is None:
            raise InvalidInputError(f"{what}: modulated input needs gamma")
        if profile_named is not None:
            profile = profile_named
        elif prof_rows:
            profile = _table(prof_rows)
        else:
            raise InvalidInputError(f"{what}: modulated input needs a profile")
        modulated = Modulation(gamma=gamma, profile=profile)
    return det, modulated


def parse_problem(text: str, name: str = "") -> SLQProblem:
    """Parse a problem definition from text; see the module docstring."""
    sections = _parse_sections(text)
    for needed in ("dims", "horizon", "terminal"):
        if needed not in sections:
            raise InvalidInputError(f"missing required section [{needed}]")

    kv = _section_kv(sections, "dims", ("n", "m"))
    try:
        n, m = _number(*kv["n"], "[dims]", int), _number(*kv["m"], "[dims]", int)
    except KeyError as exc:
        raise InvalidInputError(f"[dims] needs n and m (missing {exc})") from None
    kv = _section_kv(sections, "horizon", ("t",))
    if "t" not in kv:
        raise InvalidInputError("[horizon] needs T")
    T = _number(*kv["t"], "[horizon]")

    dims = {"n": n, "m": m}
    coefs = {
        c: _parse_coef(sections.get(sec, []), tuple(dims[d] for d in COEF_SHAPES[c]), f"[{sec}]")
        for sec, c in _COEF_SECTIONS.items()
    }

    # G and g are distinguished by case in [terminal]
    kv = _section_kv(sections, "terminal", ("G", "g"), keep_case=True)
    if "G" not in kv:
        raise InvalidInputError("[terminal] needs G")
    G = _reshape(_parse_matrix(*kv["G"], "[terminal]"), (n, n), kv["G"][1], "[terminal] G")
    g_vec = (_reshape(_parse_matrix(*kv["g"], "[terminal]"), n, kv["g"][1], "[terminal] g")
             if "g" in kv else np.zeros(n))

    # only the drift may be modulated
    inputs = {
        i: _parse_input(sections.get(sec, []), dims[INPUT_SHAPES[i][0]], f"[{sec}]",
                        ("deterministic", "gamma", "profile") if i == "b" else ("deterministic",))
        for sec, i in _INPUT_SECTIONS.items()
    }
    return SLQProblem(n=n, m=m, T=T, **coefs, G=G, g=g_vec,
                      **{i: det for i, (det, _) in inputs.items()}, b_mod=inputs["b"][1], name=name)


def load_problem(path) -> SLQProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), name=str(path))
