import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slq.core import GridFn, interp_weights, matmul, pinv, pinv_1x1, range_included
from slq.errors import InvalidInputError
from slq.strategy import _l2_pair


class TestPinv:
    def test_scalar_zero_maps_to_zero(self):
        assert pinv(np.array([[0.0]])) == pytest.approx(0.0, abs=0.0)

    def test_1x1_stack_matches_svd(self):
        # pinv's 1x1 branch and the SVD give the same bits away from 1e-300
        a = np.array([0.0, 0.7, -3.0, 1e-12, 5e8]).reshape(-1, 1, 1)
        got = pinv_1x1(a)
        assert np.array_equal(got, pinv(a))
        for x, y in zip(a, got):
            assert np.array_equal(y, np.linalg.pinv(x))

    def test_identity(self):
        for tol in (1e-15, 1e-6, 0.5):
            assert np.allclose(pinv(np.eye(3), tol), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        got = pinv(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)

    def test_moore_penrose_identities_random(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            r, c = rng.integers(1, 6, size=2)
            M = rng.standard_normal((r, c))
            if rng.random() < 0.3:  # make it rank-deficient
                M[:, -1] = M[:, 0] if c > 1 else 0.0
            Mp = pinv(M)
            scale = max(1.0, np.linalg.norm(M))
            assert np.linalg.norm(M @ Mp @ M - M) <= 1e-9 * scale
            assert np.linalg.norm(Mp @ M @ Mp - Mp) <= 1e-9 * max(1.0, np.linalg.norm(Mp))
            assert np.linalg.norm((M @ Mp).T - M @ Mp) <= 1e-9 * scale
            assert np.linalg.norm((Mp @ M).T - Mp @ M) <= 1e-9 * scale

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            back = pinv(pinv(M))
            assert np.linalg.norm(back - M) <= 1e-9 * max(1.0, np.linalg.norm(M))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            pinv(np.array([[np.nan]]))
        with pytest.raises(InvalidInputError):
            pinv(np.eye(2), rel_tol=0.0)
        with pytest.raises(InvalidInputError):
            pinv(np.eye(2), rel_tol=1.5)


    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3, 2))
        M[1] = 0.0
        M[2, :, 1] = M[2, :, 0]
        got = pinv(M)
        assert got.shape == (5, 2, 3)
        for k in range(5):
            assert np.array_equal(got[k], pinv(M[k]))
        assert np.array_equal(pinv(np.zeros((4, 2, 2))), np.zeros((4, 2, 2)))

    def test_one_by_one_is_reciprocal(self):
        # 1x1 inputs skip the SVD: a -> 1/a, 0 -> 0, on one matrix or a stack
        rng = np.random.default_rng(5)
        a = 10.0 ** rng.uniform(-12, 12, 200) * rng.choice([-1.0, 1.0], 200)
        a[::7] = 0.0
        st = a.reshape(-1, 1, 1)
        want = np.where(st != 0.0, 1.0 / np.where(st != 0.0, st, 1.0), 0.0)
        assert np.array_equal(pinv(st), want)
        assert np.array_equal(pinv(st[3]), want[3])
        with pytest.raises(InvalidInputError):
            pinv(np.array([[np.inf]]))


class TestRangeIncluded:
    def test_nonzero_into_zero_is_false(self):
        assert not range_included(np.array([[1.0]]), np.array([[0.0]]), 1e-9)

    def test_zero_into_anything(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.standard_normal((3, 2))
            assert range_included(np.zeros((3, 1)), M, 1e-12)

    def test_reflexive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = rng.standard_normal((4, 3))
            assert range_included(M, M, 1e-9)

    def test_included_by_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            M = rng.standard_normal((4, 3))
            N = M @ rng.standard_normal((3, 2))  # range(N) inside range(M)
            assert range_included(N, M, 1e-8)
            big = np.hstack([M, rng.standard_normal((4, 1))])
            assert range_included(M, big, 1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            range_included(np.zeros((2, 1)), np.zeros((3, 1)), 1e-9)

    def test_stack_requires_every_node(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 3, 2))
        M[1] = 0.0
        assert range_included(M[:, :, :1], M, 1e-9)
        N = M[:, :, :1].copy()
        N[1, 0, 0] = 1.0  # a nonzero column outside the range of the zero node
        assert not range_included(N, M, 1e-9)


class TestGridFn:
    def test_interpolation_and_clamping(self):
        f = GridFn(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert f(0.25) == pytest.approx(0.5)
        f2 = GridFn(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        assert f2(0.9) == pytest.approx(1.0)  # clamped past the last node

    def test_vectorized_matches_scalar(self):
        g = np.linspace(0.0, 2.0, 9)
        f = GridFn(g, np.sin(g))
        pts = np.array([0.3, 1.11, 1.99])
        assert np.allclose(f(pts), [f(x) for x in pts])

    def test_restrict_is_exact(self):
        g = np.linspace(0.0, 1.0, 11)
        f = GridFn(g, g**2)
        r = f.restrict(0.55)
        assert np.array_equal(r.grid, g[g <= 0.55 + 1e-15])
        assert np.array_equal(r.values, f.values[: r.grid.size])

    def test_const(self):
        scalar = GridFn.const(2.5)
        assert scalar.grid.tolist() == [0.0] and scalar.value_shape == ()
        assert scalar(0.7) == 2.5
        assert np.array_equal(scalar(np.array([-1.0, 0.0, 3.0])), [2.5, 2.5, 2.5])
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        mat = GridFn.const(M)
        assert mat.value_shape == (2, 2)
        assert np.array_equal(mat(0.3), M)
        assert mat(np.linspace(0.0, 1.0, 4)).shape == (4, 2, 2)
        # every evaluation is a fresh array: mutating it leaves f unchanged
        for f, s in ((scalar, np.array([0.1, 0.2])), (mat, 0.2), (mat, np.array([0.1]))):
            before = f(s).copy()
            out = f(s)
            out[...] = -7.0
            assert np.array_equal(f(s), before)
        with pytest.raises(InvalidInputError):
            GridFn.const([np.nan])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GridFn(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            GridFn(np.array([0.0, 1.0]), np.array([1.0]))


def l2_norm(f: GridFn) -> float:
    """The Theta norm of the Cauchy evidence: trapezoid sqrt(int |f(s)|_F^2 ds)."""
    return _l2_pair(f.grid, f.values, np.zeros((f.grid.size, 1)), None, 0.0)[0]


class TestL2Norm:
    def test_constant_one(self):
        for k in (2, 5, 33):
            f = GridFn(np.linspace(0.0, 1.0, k), np.ones(k))
            assert l2_norm(f) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        f = GridFn(np.linspace(0.0, 1.0, 8), np.zeros(8))
        assert l2_norm(f) == 0.0

    def test_against_antiderivative(self):
        # integrand (1.5-s)^-2 has antiderivative 1/(1.5-s), so the L2 norm
        # of -1/(1.5-s) over [0,1] is sqrt(1/0.5 - 1/1.5) = sqrt(4/3)
        g = np.linspace(0.0, 1.0, 10_000)
        f = GridFn(g, -1.0 / (1.5 - g))
        expected = np.sqrt(1.0 / 0.5 - 1.0 / 1.5)
        assert l2_norm(f) == pytest.approx(expected, abs=1e-4)

    def test_second_order_refinement(self):
        expected = np.sqrt(4.0 / 3.0)

        def err(k):
            g = np.linspace(0.0, 1.0, k)
            return abs(l2_norm(GridFn(g, -1.0 / (1.5 - g))) - expected)

        assert err(501) / err(1001) >= 3.5

    def test_matrix_valued_uses_frobenius(self):
        g = np.linspace(0.0, 1.0, 101)
        vals = np.zeros((101, 2, 2))
        vals[:, 0, 0] = 1.0
        vals[:, 1, 1] = 1.0
        assert l2_norm(GridFn(g, vals)) == pytest.approx(np.sqrt(2.0), abs=1e-12)


# signed zeros, infinities, NaNs of both signs, subnormals and the extremes
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
            2.2250738585072009e-308, -1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1.0, -1.0]
_entries = st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=40)


class _Tracked(np.ndarray):
    """An array that counts the products ``@`` forms with it on the left."""

    calls = 0

    def __matmul__(self, other):
        _Tracked.calls += 1
        return np.asarray(self) @ np.asarray(other)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=_entries, b=_entries, size=st.integers(1, 100_000))
@example(a=_SPECIAL, b=_SPECIAL[::-1], size=1)
@example(a=_SPECIAL, b=_SPECIAL[3:], size=100_000)
def test_matmul_of_1x1_stacks_is_numpys_bit_for_bit(a, b, size):
    # np.resize repeats the draws cyclically, so lists of different lengths
    # pair every entry of one with many of the other
    x = np.resize(np.array(a), size).reshape(size, 1, 1)
    y = np.resize(np.array(b), size).reshape(size, 1, 1)
    with np.errstate(all="ignore"):
        for u, v in ((x, y), (x, y[0]), (x[:1], y), (x.mT, y[::-1]), (x[0], y[0])):
            want = u @ v
            got = matmul(u.view(_Tracked), v)
            assert got.shape == want.shape
            # of two NaN factors, numpy's vector multiply may pass on either
            both_nan = np.isnan(u) & np.isnan(v)
            assert got[~both_nan].tobytes() == want[~both_nan].tobytes()
            assert np.isnan(got[both_nan]).all()
    assert _Tracked.calls == 0


def test_matmul_of_other_shapes_is_matmul():
    rng = np.random.default_rng(3)
    for a_shape, b_shape in (((5, 2, 2), (5, 2, 2)), ((5, 2, 1), (5, 1, 1)),
                             ((2, 2), (2, 1)), ((5, 1, 1), (5, 1, 2))):
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        before = _Tracked.calls
        got = matmul(a.view(_Tracked), b)
        assert _Tracked.calls == before + 1
        assert np.asarray(got).tobytes() == (a @ b).tobytes()


def test_one_set_of_weights_serves_every_gridfn_on_the_grid():
    g = np.linspace(0.0, 1.0, 7)
    fs = [GridFn(g, np.sin(g)), GridFn(g, np.outer(g, [1.0, -2.0]).reshape(7, 1, 2))]
    pts = np.array([-0.5, 0.0, 0.31, 0.5, 0.999, 1.0, 2.0])
    at = interp_weights(g, pts)
    for f in fs:
        assert f.interp(at).tobytes() == f(pts).tobytes()
    one = GridFn.const([[3.0]])
    assert np.array_equal(one.interp(interp_weights(one.grid, pts)), np.full((7, 1, 1), 3.0))
