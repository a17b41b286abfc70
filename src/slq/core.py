"""Dense linear algebra and grid-function utilities shared by all solvers.

Matrices are plain float64 ``numpy`` arrays.  Symmetric matrices are ordinary
square arrays kept symmetric by construction (see :func:`symmetrize`); there
is no separate packed storage.  Time-dependent quantities are :class:`GridFn`
values: node samples on a strictly increasing grid, linearly interpolated in
between and clamped outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "matmul",
    "pinv",
    "pinv_1x1",
    "range_included",
    "symmetrize",
    "is_symmetric",
    "interp_weights",
    "GridFn",
    "csv_text",
]


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    """A matrix, or a stack of matrices along a leading axis."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim > 3:
        raise InvalidInputError(f"{name} must be at most 3-dimensional, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return A


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on matrices or stacks of them.  Two stacks of 1x1 matrices
    multiply elementwise as ``0.0 + a * b``, at a fraction of matmul's
    per-matrix cost: numpy's matmul sums its one product onto +0.0, so the
    two agree bit for bit (a -0.0 product comes out +0.0), except that of
    two NaN factors either may give the result's sign and payload."""
    if a.shape[-2:] == (1, 1) == b.shape[-2:]:
        return 0.0 + a * b
    return a @ b


def pinv_1x1(A: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a float 1x1 matrix, or a stack of them: 1/a, and 0
    for a = 0.  It checks nothing; :func:`pinv` validates its argument and
    calls this for 1x1 input."""
    return np.divide(1.0, A, out=np.zeros(A.shape), where=A != 0.0)


_PINV_REL_TOL = 1e-12


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative rank cutoff.

    Singular values at or below ``1e-12 * max(singular values)`` are
    treated as zero.  A zero matrix therefore maps to the zero matrix,
    reproducing the 0^+ = 0 convention required by degenerate scalar
    problems.  A 1x1 matrix (or a stack of them) skips the SVD and maps a
    to 1/a; that equals the SVD result bit for bit except, for |a| near
    1e-300, in the last bit.

    Parameters
    ----------
    M : array_like
        Matrix to invert, or a stack ``(N, r, c)`` of matrices inverted one
        by one; must be finite.
    """
    A = _as_matrix(M, "pinv input")
    if A.shape[-2:] == (1, 1):
        # the one singular value is |a|, so the relative cutoff keeps every
        # nonzero a
        return pinv_1x1(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.ndim == 1 and (s.size == 0 or s[0] == 0.0):
        return np.zeros((A.shape[1], A.shape[0]))
    keep = s > _PINV_REL_TOL * s[..., :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return (Vt.mT * s_inv[..., None, :]) @ U.mT


def range_included(N, M, tol: float) -> bool:
    """Numerical test for range(N) being contained in range(M).

    Returns True iff ``||(I - M M^+) N||_F <= tol * max(1, ||N||_F)``; on
    stacks of matrices, iff that holds for every pair in the stack.  Both
    matrices must have the same number of rows.
    """
    if tol <= 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    A = _as_matrix(N, "N")
    B = _as_matrix(M, "M")
    if A.shape[-2] != B.shape[-2]:
        raise InvalidInputError(f"row counts differ: N has {A.shape[-2]}, M has {B.shape[-2]}")
    proj = np.eye(B.shape[-2]) - B @ pinv(B)
    resid = np.linalg.norm(proj @ A, axis=(-2, -1))
    return bool(np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))))


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M') / 2, node by node on a stack."""
    return 0.5 * (M + M.mT)


def is_symmetric(M) -> bool:
    A = np.asarray(M, dtype=float)
    return A.ndim == 2 and A.shape[0] == A.shape[1] and bool(np.all(A - A.T == 0.0))


def interp_weights(grid: np.ndarray, s) -> tuple:
    """Where the times ``s`` fall on a strictly increasing ``grid``: node
    indices ``idx`` and weights ``w`` in [0, 1] (clamped outside the span)
    such that the linear interpolant of node values v is
    ``(1 - w) v[idx] + w v[idx + 1]``.  One pair serves every
    :class:`GridFn` on ``grid`` (see :meth:`GridFn.interp`)."""
    pts = np.atleast_1d(np.asarray(s, dtype=float))
    if grid.size == 1:
        return np.zeros(pts.size, dtype=np.intp), np.zeros(pts.size)
    idx = np.clip(np.searchsorted(grid, pts, side="right") - 1, 0, grid.size - 2)
    h = grid[idx + 1] - grid[idx]
    return idx, np.clip((pts - grid[idx]) / h, 0.0, 1.0)


@dataclass(frozen=True)
class GridFn:
    """A time-dependent array sampled on a strictly increasing grid.

    ``values[k]`` is the sample at ``grid[k]``; entries may be scalars,
    vectors or matrices as long as every node shares one shape.  Evaluation
    interpolates linearly between nodes and clamps outside the grid span.
    Instances are immutable and safe to share across threads.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise InvalidInputError("grid must be a non-empty 1-D array")
        if g.size > 1 and not np.all(np.diff(g) > 0.0):
            raise InvalidInputError("grid must be strictly increasing")
        if v.shape[0] != g.size:
            raise InvalidInputError(
                f"values leading dimension {v.shape[0]} does not match grid size {g.size}"
            )
        if not np.all(np.isfinite(g)) or not np.all(np.isfinite(v)):
            raise InvalidInputError("grid function has non-finite entries")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @staticmethod
    def const(value) -> "GridFn":
        """The constant ``value``: one node at s = 0, clamped everywhere."""
        return GridFn(np.zeros(1), np.asarray(value, dtype=float)[None])

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[1:]

    def __call__(self, s):
        """Evaluate at scalar or array times (linear interpolation, clamped)."""
        s_arr = np.asarray(s, dtype=float)
        out = self.interp(interp_weights(self.grid, s_arr))
        return out[0] if s_arr.ndim == 0 else out

    def interp(self, weights: tuple) -> np.ndarray:
        """Values at the times ``s`` of ``weights = interp_weights(self.grid, s)``,
        as ``self(s)`` for array ``s``."""
        idx, w = weights
        if self.grid.size == 1:
            return np.broadcast_to(self.values[0], (idx.size,) + self.value_shape).copy()
        w = w.reshape((-1,) + (1,) * len(self.value_shape))
        v = self.values
        return (1.0 - w) * np.take(v, idx, axis=0) + w * np.take(v, idx + 1, axis=0)

    def restrict(self, t_max: float) -> "GridFn":
        """Nodes with grid <= t_max (no resampling; restriction is exact)."""
        keep = self.grid <= t_max + 1e-15
        if not np.any(keep):
            raise InvalidInputError(f"no grid nodes at or below {t_max}")
        return GridFn(self.grid[keep], self.values[keep])


def csv_text(header: str, columns: list, blank: bool = False) -> str:
    """CSV text: ``header``, then one line per row of the side-by-side 2-D
    ``columns`` at 17 significant digits, ending in an empty field if
    ``blank``.  One format string per row over Python floats gives the
    bytes of formatting each value on its own."""
    table = np.hstack(columns)
    fmt = ",".join(["%.17g"] * table.shape[1] + [""] * blank)
    return "\n".join([header, *(fmt % tuple(row) for row in table.tolist())]) + "\n"
