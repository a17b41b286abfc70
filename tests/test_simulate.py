import sys
import threading
import time
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from numpy.random import Generator, Philox

from slq import simulate
from slq.core import GridFn
from slq.errors import EnsembleError, InvalidInputError
from slq.moments import second_moments
from slq.problem import InitialPair, Modulation, SLQProblem, builtin
from slq.simulate import (
    ControlSpec,
    MonteCarloConfig,
    control_norm,
    estimate_cost,
    mean_se,
    simulate_coupled,
    simulate_ensemble,
    terminal_moment,
)
from slq.strategy import extract_limit, run_ladder


def scalar_problem(A=0.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=0.0, G=1.0,
                   b=None, sigma=None, q=None, rho=None, g=0.0, T=1.0, name=""):
    def inp(v, dim):
        return GridFn.const(np.full(dim, 0.0 if v is None else float(v)))

    return SLQProblem(
        n=1, m=1, T=T,
        A=GridFn.const([[A]]), B=GridFn.const([[B]]), C=GridFn.const([[C]]),
        D=GridFn.const([[D]]), Q=GridFn.const([[Q]]), S=GridFn.const([[S]]),
        R=GridFn.const([[R]]), G=np.array([[G]]), g=np.array([g]),
        b=inp(b, 1), sigma=inp(sigma, 1), q=inp(q, 1), rho=inp(rho, 1), name=name,
    )


class TestDeterminism:
    def test_bit_identical_reruns(self):
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=1, steps=16, master_seed=77)
        a = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, record_paths=True)
        b = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, record_paths=True)
        assert np.array_equal(a.recorded["W"], b.recorded["W"])
        assert np.array_equal(a.recorded["X"], b.recorded["X"])
        assert np.array_equal(a.cost, b.cost)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # masked, -1 would silently run the seed 2^64 - 1
        message = rf"master_seed must be in \[0, 2\^64\), got {seed}"
        with pytest.raises(InvalidInputError, match=message):
            MonteCarloConfig(paths=1, steps=16, master_seed=seed)

    def test_largest_seed_runs(self):
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=2, steps=16, master_seed=2**64 - 1)
        assert cfg.master_seed == 2**64 - 1
        ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        assert np.all(np.isfinite(ens.cost))

    def test_block_size_does_not_change_results(self):
        # 9000 paths span two row tiles, and blocks of 77 straddle their edge
        p, ip = builtin("example-5.1")
        cfg = MonteCarloConfig(paths=9000, steps=64, master_seed=5)
        a = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=8192)
        for block in (4096, 77):
            b = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=block)
            assert np.array_equal(a.cost, b.cost)
            assert np.array_equal(a.X_T, b.X_T)
            assert estimate_cost(p, ip, a).mean == estimate_cost(p, ip, b).mean
        sol = run_ladder(p, [1.0, 0.5, 0.25], 64)[-1]
        grid = np.linspace(0.0, 1.0, 3)
        controls = [ControlSpec.zero(), sol.control.restrict(0.75),
                    ControlSpec(v_mod_profile=GridFn(grid, np.ones((3, 1))), gamma=0.5)]
        a = simulate_coupled(p, ip, controls, cfg, block_size=8192)
        for block in (4096, 77):
            b = simulate_coupled(p, ip, controls, cfg, block_size=block)
            assert np.array_equal(a.cost, b.cost)
            assert np.array_equal(a.control_norm_sq, b.control_norm_sq)

    @pytest.mark.parametrize("cores, ahead, rows", [(1, 1, 64), (2, 3, 64), (8, 2, 7)])
    def test_cores_and_lookahead_do_not_change_results(self, monkeypatch, cores, ahead, rows):
        p, ip = builtin("example-5.1")
        cfg = MonteCarloConfig(paths=9000, steps=64, master_seed=5)
        ref = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, record_paths=True)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        monkeypatch.setattr(simulate, "_AHEAD", ahead)
        monkeypatch.setattr(simulate, "_ROWS", rows)
        for block in (8192, 4096, 77):
            ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=block,
                                    record_paths=True)
            assert np.array_equal(ens.recorded["W"], ref.recorded["W"])
            assert np.array_equal(ens.cost, ref.cost)

    def test_common_random_numbers_coupling(self):
        # the same seed must reproduce the same Brownian increments, so two
        # identical controls simulated jointly have exactly equal rows
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=500, steps=32, master_seed=11)
        cpl = simulate_coupled(p, ip, [ControlSpec.zero(), ControlSpec.zero()], cfg)
        assert np.array_equal(cpl.control_norm_sq[0], cpl.control_norm_sq[1])
        assert np.array_equal(cpl.cost[0], cpl.cost[1])

    def test_stacked_controls_share_only_noise(self):
        # every row of a coupled run equals a separate run of that control:
        # stacking shares the Brownian increments and nothing else, the
        # feedback row is held past its grid end and the open-loop rows are
        # never held
        p = scalar_problem(A=-0.5, B=1.0, C=0.4, D=0.2, Q=1.0, S=0.1, R=1.0,
                           G=1.0, b=0.2, sigma=0.3, q=0.1, rho=0.05, g=0.1)
        ip = InitialPair(t=0.0, x=np.array([0.8]))
        grid = np.linspace(0.0, 1.0, 9)
        col = grid.reshape(-1, 1)
        controls = [
            ControlSpec.zero(),
            ControlSpec(v_det=GridFn(grid, 0.5 - col)),
            ControlSpec(v_det=GridFn(grid, 0.1 * col), v_mod_profile=GridFn(grid, 0.3 + 0.0 * col),
                        gamma=1.2),
            ControlSpec(GridFn(grid, (-0.4 - 0.2 * col).reshape(-1, 1, 1)),
                        GridFn(grid, 0.25 + 0.0 * col),
                        GridFn(grid, -0.2 + 0.1 * col), gamma=0.8).restrict(0.75),
        ]
        cfg = MonteCarloConfig(paths=500, steps=64, master_seed=23)
        cpl = simulate_coupled(p, ip, controls, cfg)
        for i, c in enumerate(controls):
            ens = simulate_ensemble(p, ip, c, cfg)
            assert np.array_equal(cpl.cost[i], ens.cost[0])
            assert np.array_equal(cpl.control_norm_sq[i], ens.control_norm_sq[0])


class TestOneResultType:
    """A one-control run is the K = 1 row of a coupled run."""

    def test_ensemble_is_a_one_control_coupled_run(self):
        p, ip = builtin("example-5.1")
        ctrl = run_ladder(p, [1.0, 0.5, 0.25], 64)[-1].control.restrict(0.75)
        cfg = MonteCarloConfig(paths=700, steps=64, master_seed=19)
        ens = simulate_ensemble(p, ip, ctrl, cfg)
        cpl = simulate_coupled(p, ip, [ctrl], cfg)
        assert ens.controls == [ctrl] and ens.cost.shape == (1, 700)
        assert ens.X_T.shape == (1, 700, 1)
        for field in ("cost", "control_norm_sq", "X_T", "blown"):
            assert np.array_equal(getattr(ens, field), getattr(cpl, field)), field
        assert ens.recorded is None and cpl.recorded is None

    def test_record_paths_fills_recorded(self):
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=5, steps=16, master_seed=3)
        ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, record_paths=True)
        rec = ens.recorded
        assert rec["s"].shape == (17,) and rec["W"].shape == (5, 17)
        assert rec["X"].shape == (1, 5, 17, 1) and rec["u"].shape == (1, 5, 17, 1)
        assert np.array_equal(rec["X"][:, :, -1], ens.X_T)

    def test_estimators_refuse_several_controls(self):
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=16, steps=16, master_seed=1)
        cpl = simulate_coupled(p, ip, [ControlSpec.zero(), ControlSpec.zero()], cfg)
        for estimate in (lambda e: estimate_cost(p, ip, e), control_norm, terminal_moment):
            with pytest.raises(InvalidInputError, match="one-control ensemble"):
                estimate(cpl)


TILE = 8192  # paths per row tile: part of the stream's definition


def tile_normals(seed, paths, draws):
    """(paths, draws) normals rebuilt from the row-tile definition: draw d of
    path i is element i mod 8192 of the normals of Philox(key=(seed, d 2^32 + i // 8192))."""
    tiles = -(-paths // TILE)
    z = np.empty((draws, tiles * TILE))
    for d in range(draws):
        for t in range(tiles):
            key = np.array([seed, d * 2**32 + t], dtype=np.uint64)
            z[d, t * TILE : (t + 1) * TILE] = Generator(Philox(key=key)).standard_normal(TILE)
    return z[:, :paths].T


def streamed(seed, paths, block_size, draws):
    """Every row the simulator's noise producer yields, put back as (paths, draws)."""
    z = np.empty((paths, draws))
    with closing(simulate._noise_rows(seed, paths, block_size, draws)) as rows:
        for start in range(0, paths, block_size):
            for d in range(draws):
                z[start : start + block_size, d] = next(rows)
        assert next(rows, None) is None
    return z


@pytest.mark.parametrize(
    "seed, paths, block_size, draws",
    [
        (2**64 - 1, 3, 8192, 17),
        (12345, 8193, 8192, 3),  # one path in a second tile
        (7, 9000, 4096, 130),  # two blocks per tile; chunks end at rows 64 and 128
        (11, 9000, 77, 5),  # blocks start inside a tile and straddle its edge
        (0, 20000, 20000, 2),  # one block over three tiles
    ],
)
def test_noise_rows_stream_contract(monkeypatch, seed, paths, block_size, draws):
    # the rows are the row-tile streams whatever the block and the number
    # of helper threads
    ref = tile_normals(seed, paths, draws)
    for cores in (1, 2, 8):
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        assert np.array_equal(streamed(seed, paths, block_size, draws), ref)


class TestRowProducer:
    """Helper threads, one per usable core, fill chunks of draw rows in order."""

    def _fills(self, monkeypatch, cores, paths, block_size, draws):
        seen = []
        orig = simulate._fill_chunk

        def recording(seed, start, r0, rows):
            seen.append((threading.current_thread(), start, r0, rows.shape))
            return orig(seed, start, r0, rows)

        monkeypatch.setattr(simulate, "_fill_chunk", recording)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        before = threading.active_count()
        streamed(3, paths, block_size, draws)
        assert threading.active_count() == before
        return seen

    def test_one_core_starts_one_helper(self, monkeypatch):
        threads = {th for th, *_ in self._fills(monkeypatch, 1, 300, 8192, 200)}
        assert len(threads) == 1 and threading.current_thread() not in threads

    def test_no_fill_runs_on_the_calling_thread(self, monkeypatch):
        threads = {th for th, *_ in self._fills(monkeypatch, 3, 300, 50, 200)}
        assert 1 <= len(threads) <= 3 and threading.current_thread() not in threads

    def test_chunks_cover_every_block_and_row_once(self, monkeypatch):
        seen = self._fills(monkeypatch, 2, 9000, 4096, 130)
        assert sorted((s, r0, shape) for _, s, r0, shape in seen) == [
            (start, r0, (min(64, 130 - r0), min(4096, 9000 - start)))
            for start in (0, 4096, 8192) for r0 in (0, 64, 128)
        ]

    def test_more_threads_than_cores_with_frequent_switches(self, monkeypatch):
        # eight helpers fill the chunks of a ring of shared buffers
        ref = tile_normals(21, 9000, 9)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
        monkeypatch.setattr(simulate, "_ROWS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(streamed(21, 9000, 1000, 9), ref)
        finally:
            sys.setswitchinterval(interval)

    def test_helper_failure_reaches_caller(self, monkeypatch):
        failed, orig = [], simulate._fill_chunk

        def fill(seed, start, r0, rows):
            if (start, r0) == (100, 0):
                failed.append(threading.current_thread())
                raise RuntimeError("injected in a helper")
            return orig(seed, start, r0, rows)

        monkeypatch.setattr(simulate, "_fill_chunk", fill)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=300, steps=16, master_seed=4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected in a helper"):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=100)
        assert threading.active_count() == before
        assert len(failed) == 1 and failed[0] is not threading.current_thread()
        with pytest.raises(RuntimeError, match="injected in a helper"):
            streamed(4, 300, 100, 17)
        assert threading.active_count() == before

    def test_step_failure_waits_for_helpers(self, monkeypatch):
        # the first step fails while a helper still fills the second chunk:
        # that helper has returned before the error reaches the caller
        filled, started = [], threading.Event()
        orig = simulate._fill_chunk

        def fill(seed, start, r0, rows):
            if r0 == 64:
                started.set()
                time.sleep(0.05)  # still running when the step raises
            orig(seed, start, r0, rows)
            filled.append(r0)
            return rows

        def step(*args):
            started.wait(5.0)
            raise RuntimeError("injected in a step")

        monkeypatch.setattr(simulate, "_fill_chunk", fill)
        monkeypatch.setattr(simulate, "_euler_step", step)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=300, steps=400, master_seed=4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected in a step"):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        assert threading.active_count() == before
        assert 64 in filled and len(filled) <= simulate._AHEAD + 1


class TestStreamedBlocks:
    """The calling thread steps each draw row as it arrives, one block at a time."""

    def test_fills_run_ahead_by_the_lookahead_only(self, monkeypatch):
        # every step runs on the calling thread and every fill on a helper;
        # when a row is stepped, at most _AHEAD chunks past its own were begun
        caller, fills, begun = threading.current_thread(), [], []
        lock = threading.Lock()
        orig_fill, orig_step = simulate._fill_chunk, simulate._euler_step

        def fill(seed, start, r0, rows):
            assert threading.current_thread() is not caller
            with lock:
                fills.append((start, r0))
            return orig_fill(seed, start, r0, rows)

        def step(*args):
            assert threading.current_thread() is caller
            with lock:
                begun.append(len(fills))
            return orig_step(*args)

        monkeypatch.setattr(simulate, "_fill_chunk", fill)
        monkeypatch.setattr(simulate, "_euler_step", step)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=600, steps=150, master_seed=4)
        simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=200)
        assert sorted(fills) == [(s, r0) for s in (0, 200, 400) for r0 in (0, 64, 128)]
        assert len(begun) == 3 * 150
        for i, n in enumerate(begun):
            b, k = divmod(i, 150)
            assert n <= 3 * b + (k + 1) // simulate._ROWS + simulate._AHEAD + 1

    @pytest.mark.parametrize("ahead", [1, 3])
    def test_peak_memory_is_bounded_by_the_lookahead(self, monkeypatch, ahead):
        # one block's normals would take 2048 x 1025 x 8 B = 16.8 MB; the
        # ring holds _AHEAD + 1 chunks of _ROWS rows
        monkeypatch.setattr(simulate, "_AHEAD", ahead)
        p, ip = builtin("example-1.1")
        block, steps = 2048, 1024
        cfg = MonteCarloConfig(paths=3 * block, steps=steps, master_seed=9)
        tracemalloc.start()
        try:
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (ahead + 2) * simulate._ROWS * block * 8

    def test_no_thread_left_after_run(self):
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=300, steps=16, master_seed=4)
        before = threading.active_count()
        simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=64)
        assert threading.active_count() == before

    def test_no_thread_left_after_ensemble_error(self):
        p = scalar_problem(A=60.0, G=1.0)
        ip = InitialPair(t=0.0, x=np.array([1.0]))
        cfg = MonteCarloConfig(paths=100, steps=64, master_seed=1)
        before = threading.active_count()
        with pytest.raises(EnsembleError):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=30)
        assert threading.active_count() == before

    @pytest.mark.parametrize("target", ["fill", "step"])
    def test_failure_reaches_caller_with_nothing_filled_past_the_lookahead(self, monkeypatch,
                                                                           target):
        # the second block's chunk fails, or the first block's first step:
        # no chunk past the lookahead of the failing one is begun
        fills = []
        orig_fill, orig_step = simulate._fill_chunk, simulate._euler_step

        def fill(seed, start, r0, rows):
            fills.append(start)
            if target == "fill" and start == 100:
                raise RuntimeError("injected")
            return orig_fill(seed, start, r0, rows)

        def step(*args):
            if target == "step":
                raise RuntimeError("injected")
            return orig_step(*args)

        monkeypatch.setattr(simulate, "_fill_chunk", fill)
        monkeypatch.setattr(simulate, "_euler_step", step)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=1000, steps=16, master_seed=4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=100)
        assert threading.active_count() == before
        last = (1 if target == "fill" else 0) + simulate._AHEAD
        assert set(fills) <= {100 * c for c in range(last + 1)}


class TestStreamStatistics:
    """The row-tile streams look like independent standard normals."""

    @staticmethod
    def rows(seed, tiles=4, draws=8):
        return simulate._fill_chunk(seed, 0, 0, np.empty((draws, tiles * TILE)))

    def test_mean_and_variance(self):
        z = self.rows(3).ravel()
        n = z.size
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)

    def test_adjacent_rows_adjacent_tiles_and_two_seeds_are_uncorrelated(self):
        z = self.rows(3)
        pairs = [
            (z[:-1], z[1:]),  # draw d and d + 1 of each path
            (z[:, :-TILE], z[:, TILE:]),  # the same element of tiles t and t + 1
            (z, self.rows(4)),  # two master seeds
        ]
        for a, b in pairs:
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) <= 5.0 / np.sqrt(a.size)

    def test_key_map_is_injective_over_the_valid_range(self):
        # draws d <= 2^32 - 2 (steps < 2^32 - 1) and tiles t < 2^32 (paths
        # <= 2^45): key = d 2^32 + t, so divmod(key, 2^32) gives (d, t) back
        # and the largest key fits 64 bits
        rng = np.random.default_rng(0)
        ds = [0, 1, 2**32 - 2, *rng.integers(0, 2**32 - 1, 50).tolist()]
        ts = [0, 1, 2**32 - 1, *rng.integers(0, 2**32, 50).tolist()]
        pairs = {(d, t) for d in ds for t in ts}
        assert {divmod(d * 2**32 + t, 2**32) for d, t in pairs} == pairs
        assert (2**32 - 2) * 2**32 + 2**32 - 1 < 2**64
        # the simulator keys its last row tile so
        z = simulate._fill_chunk(9, (2**32 - 1) * TILE + 5, 2**32 - 2, np.empty((1, 3)))
        key = np.array([9, (2**32 - 2) * 2**32 + 2**32 - 1], dtype=np.uint64)
        assert np.array_equal(z[0], Generator(Philox(key=key)).standard_normal(8)[5:])
        MonteCarloConfig(paths=2**45, steps=2**32 - 2, master_seed=0)
        with pytest.raises(InvalidInputError, match=r"paths must be in \[1, 2\^45\]"):
            MonteCarloConfig(paths=2**45 + 1, steps=16, master_seed=0)


def reference_euler(p, ip, controls, cfg):
    """Euler-Maruyama for coupled controls, written out path-major in the
    simulator's expression order: (cost, int |u|^2)."""
    N, P = cfg.steps, cfg.paths
    dt = (p.T - ip.t) / N
    s = ip.t + dt * np.arange(N + 1)
    s[-1] = p.T
    z = tile_normals(cfg.master_seed, P, N + 1)
    W, dW = np.sqrt(ip.t) * z[:, 0], z[:, 1:] * np.sqrt(dt)
    A, B, C, D, Q, S, R = (getattr(p, c)(s) for c in "ABCDQSR")
    b, sigma, q, rho = (getattr(p, c)(s) for c in ("b", "sigma", "q", "rho"))
    mod = p.b_mod
    b_mod = None if mod is None else np.append(mod.profile(s[:-1]).reshape(N), 0.0)

    def apply(M, x):  # M (i, j), x (P, j) -> (P, i)
        out = M[:, 0] * x[:, :1]
        for j in range(1, x.shape[1]):
            out = out + M[:, j] * x[:, j : j + 1]
        return out

    def dot(a, c):
        out = a[:, 0] * c[..., 0]
        for i in range(1, a.shape[1]):
            out = out + a[:, i] * c[..., i]
        return out

    def control(c, k, X, held):
        M = np.exp(c.gamma * W - 0.5 * c.gamma * c.gamma * s[k]) if c.gamma else None
        u = np.zeros((P, p.m)) if c.theta is None else apply(c.theta(s[k]), X)
        if c.v_det is not None:
            u += c.v_det(s[k])
        if c.v_mod_profile is not None:
            u += c.v_mod_profile(s[k]) * M[:, None]
        hold = N if c.theta is None else max(np.nonzero(s <= c.theta.grid[-1] + 1e-12)[0])
        return held if k > hold else u

    def running(k, X, u):
        val = np.zeros(P)
        val += dot(apply(Q[k], X), X)
        val += 2.0 * dot(apply(S[k], X), u)
        val += dot(apply(R[k], u), u)
        val += 2.0 * dot(X, q[k])
        val += 2.0 * dot(u, rho[k])
        return val

    K = len(controls)
    X = [np.broadcast_to(ip.x, (P, p.n)).copy() for _ in controls]
    u = [None] * K
    acc = np.zeros((2, K, P))
    prev = None
    for k in range(N + 1):
        u = [control(c, k, X[i], u[i]) for i, c in enumerate(controls)]
        phi = np.array([[dot(v, v) for v in u], [running(k, X[i], u[i]) for i in range(K)]])
        if k > 0:
            acc += 0.5 * dt * (prev + phi)
        prev = phi
        if k < N:
            for i in range(K):
                drift = apply(A[k], X[i]) + apply(B[k], u[i])
                drift = drift + b[k]
                if mod is not None:
                    M_b = np.exp(mod.gamma * W - 0.5 * mod.gamma * mod.gamma * s[k])
                    drift = drift + (b_mod[k] * M_b)[:, None]
                diff = apply(C[k], X[i]) + apply(D[k], u[i]) + sigma[k]
                X[i] = X[i] + drift * dt + diff * dW[:, k : k + 1]
            W += dW[:, k]
    cost = np.array([acc[1, i] + (dot(apply(p.G, X[i]), X[i]) + 2.0 * dot(X[i], p.g))
                     for i in range(K)])
    return cost, acc[0]


def test_coupled_run_matches_a_reference_euler_loop():
    # n = 2, m = 2 with every coefficient and input, a modulated b and a
    # held feedback: the stacked, in-place loop gives the reference's bits
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.0, 5)

    def table(*shape, scale=0.4):
        return GridFn(grid, scale * rng.standard_normal((5,) + shape))

    p = SLQProblem(
        n=2, m=2, T=1.0, A=table(2, 2), B=table(2, 2), C=table(2, 2),
        D=GridFn(grid, 0.3 + 0.1 * rng.random((5, 2, 2))),
        Q=GridFn.const(np.eye(2) + 0.2), S=table(2, 2, scale=0.1), R=GridFn.const(np.eye(2)),
        G=np.array([[1.0, 0.3], [0.3, 2.0]]), g=np.array([0.2, -0.1]),
        b_mod=Modulation(gamma=0.6, profile=table(1)), b=table(2, scale=0.2),
        sigma=table(2, scale=0.2), q=table(2, scale=0.2), rho=table(2, scale=0.2), name="n2",
    )
    ip = InitialPair(t=0.125, x=np.array([0.5, -0.4]))
    controls = [
        ControlSpec(table(2, 2), table(2), table(2), gamma=1.1).restrict(0.6),
        ControlSpec(v_det=table(2), v_mod_profile=table(2), gamma=0.6),
        ControlSpec.zero(),
    ]
    cfg = MonteCarloConfig(paths=150, steps=32, master_seed=2**63 + 5)
    cpl = simulate_coupled(p, ip, controls, cfg, block_size=64)
    cost, unorm = reference_euler(p, ip, controls, cfg)
    assert not cpl.blown.any()
    assert np.array_equal(cpl.cost, cost)
    assert np.array_equal(cpl.control_norm_sq, unorm)


@pytest.mark.parametrize("coupled", [False, True])
def test_zero_control_matches_the_reference_bits(coupled):
    # u = 0 would enter the drift, the diffusion (D) and the running cost
    # (S, R, rho); a run with no control part skips that arithmetic, and a
    # coupled run with a nonzero control does it, on the same bits
    p = scalar_problem(A=-0.5, B=1.0, C=0.4, D=0.3, Q=1.0, S=0.2, R=1.0, G=1.0,
                       b=0.2, sigma=0.3, q=0.1, rho=0.15, g=0.1)
    ip = InitialPair(t=0.25, x=np.array([0.8]))
    grid = np.linspace(0.0, 1.0, 5)
    controls = [ControlSpec.zero()]
    if coupled:
        controls.append(ControlSpec(v_det=GridFn(grid, 0.5 - grid.reshape(-1, 1))))
    cfg = MonteCarloConfig(paths=150, steps=32, master_seed=31)
    cpl = simulate_coupled(p, ip, controls, cfg, block_size=64)
    cost, unorm = reference_euler(p, ip, controls, cfg)
    assert not cpl.blown.any()
    assert np.array_equal(cpl.cost, cost)
    assert np.array_equal(cpl.control_norm_sq, unorm)
    assert not cpl.control_norm_sq[0].any()


class TestAgainstMomentOracle:
    """Monte Carlo against the exact second moments of :mod:`slq.moments`."""

    def test_example_11_zero_control_unit_moment(self):
        # moment flow: d/ds E X^2 = (2A + C^2) E X^2 = 0, so E X(1)^2 = x^2
        p, ip = builtin("example-1.1")
        mom = second_moments(p, ip, [ControlSpec.zero()])
        assert mom.terminal_moment[0] == pytest.approx(1.0, abs=1e-12)
        assert mom.cost[0] == pytest.approx(1.0, abs=1e-12)
        cfg = MonteCarloConfig(paths=40_000, steps=512, master_seed=3)
        ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        est = estimate_cost(p, ip, ens)
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error

    def test_example_51_homogeneous_unit_moment(self):
        hom = scalar_problem(A=-1.0, B=1.0, C=np.sqrt(2.0), G=1.0)
        mom = second_moments(hom, InitialPair(t=0.0, x=np.array([1.0])), [ControlSpec.zero()])
        assert mom.terminal_moment[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_initial_data(self):
        p = scalar_problem(A=0.5, B=1.0, C=0.4, G=1.0)
        mom = second_moments(p, InitialPair(t=0.0, x=np.array([0.0])), [ControlSpec.zero()])
        assert mom.terminal_moment[0] == 0.0 and mom.cost[0] == 0.0

    def test_oracle_matches_mc_across_seeds(self):
        # scalar problem with noise, running cost and a constant feedback;
        # mild coefficients keep the Euler bias below the Monte Carlo noise
        p = scalar_problem(A=-0.5, B=1.0, C=0.4, D=0.2, Q=1.0, S=0.1, R=1.0,
                           G=1.0, b=0.2, sigma=0.3, q=0.1, rho=0.05, g=0.1)
        ip = InitialPair(t=0.0, x=np.array([0.8]))
        theta = np.array([[-0.4]])
        v = np.array([0.25])
        grid = np.linspace(0.0, 1.0, 3)
        ctrl = ControlSpec(
            theta=GridFn(grid, np.broadcast_to(theta, (3, 1, 1)).copy()),
            v_det=GridFn(grid, np.broadcast_to(v, (3, 1)).copy()),
        )
        cost_oracle = second_moments(p, ip, [ctrl], steps=4096).cost[0]
        hits = 0
        for seed in range(20):
            cfg = MonteCarloConfig(paths=4000, steps=256, master_seed=seed)
            ens = simulate_ensemble(p, ip, ctrl, cfg)
            est = estimate_cost(p, ip, ens)
            if abs(est.mean - cost_oracle) <= 3.0 * est.std_error:
                hits += 1
        assert hits >= 18


class TestControlsAndCost:
    def test_zero_control_norm_exact(self):
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=200, steps=32, master_seed=1)
        ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        est = control_norm(ens)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_empty_cost_functional_is_zero(self):
        p = scalar_problem(A=0.2, B=1.0, C=0.3, G=0.0)
        ip = InitialPair(t=0.0, x=np.array([1.0]))
        grid = np.linspace(0.0, 1.0, 5)
        ctrl = ControlSpec(v_det=GridFn(grid, np.ones((5, 1))))
        cfg = MonteCarloConfig(paths=300, steps=32, master_seed=9)
        ens = simulate_ensemble(p, ip, ctrl, cfg)
        assert np.all(ens.cost == 0.0)

    def test_control_norm_of_deterministic_grid(self):
        p = scalar_problem(G=0.0)
        ip = InitialPair(t=0.0, x=np.array([0.0]))
        grid = np.linspace(0.0, 1.0, 101)
        ctrl = ControlSpec(v_det=GridFn(grid, (2.0 * grid).reshape(-1, 1)))
        cfg = MonteCarloConfig(paths=100, steps=100, master_seed=9)
        ens = simulate_ensemble(p, ip, ctrl, cfg)
        est = control_norm(ens)
        assert est.mean == pytest.approx(4.0 / 3.0, abs=1e-3)
        assert est.std_error <= 1e-15  # deterministic integrand, ulp-level spread

    def test_modulated_control_mean_square(self):
        # u = M(s) with gamma: E u^2 = e^{gamma^2 s}, so E int u^2 has a
        # closed form to compare against
        gamma = 0.8
        p = scalar_problem(G=0.0)
        ip = InitialPair(t=0.0, x=np.array([0.0]))
        grid = np.linspace(0.0, 1.0, 3)
        ctrl = ControlSpec(v_mod_profile=GridFn(grid, np.ones((3, 1))), gamma=gamma)
        cfg = MonteCarloConfig(paths=50_000, steps=256, master_seed=21)
        ens = simulate_ensemble(p, ip, ctrl, cfg)
        est = control_norm(ens)
        expected = (np.exp(gamma**2) - 1.0) / gamma**2
        assert abs(est.mean - expected) <= 3.0 * est.std_error

    def test_feedback_hold_after_cutoff(self):
        p, ip = builtin("example-1.1")
        grid = np.linspace(0.0, 1.0, 65)
        theta = GridFn(grid, np.full((65, 1, 1), -1.0))
        ctrl = ControlSpec(theta=theta, v_det=GridFn(grid, np.zeros((65, 1))))
        cfg = MonteCarloConfig(paths=4, steps=64, master_seed=2)
        ens = simulate_ensemble(p, ip, ctrl.restrict(0.75), cfg, record_paths=True)
        u = ens.recorded["u"][0]  # (paths, N+1, m)
        X = ens.recorded["X"][0]
        s = ens.recorded["s"]
        held = u[:, s >= 0.75, 0]
        assert np.all(held == held[:, :1])  # frozen at its last feedback value
        assert np.array_equal(u[:, s <= 0.75], -X[:, s <= 0.75])
        # a grid that reaches T is never held: u = Theta X up to T
        ens = simulate_ensemble(p, ip, ctrl, cfg, record_paths=True)
        assert np.array_equal(ens.recorded["u"][0], -ens.recorded["X"][0])

    def test_initial_time_brownian_offset(self):
        # starting at t > 0 the Brownian value W(t) is drawn, not zero
        p, _ = builtin("example-1.1")
        ip = InitialPair(t=0.5, x=np.array([1.0]))
        cfg = MonteCarloConfig(paths=2000, steps=32, master_seed=13)
        ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, record_paths=True)
        w0 = ens.recorded["W"][:, 0]
        assert np.std(w0) == pytest.approx(np.sqrt(0.5), rel=0.1)


class TestErrors:
    def test_ensemble_error_on_mass_blowup(self):
        p = scalar_problem(A=60.0, G=1.0)  # e^{60} state growth overflows 1e12
        ip = InitialPair(t=0.0, x=np.array([1.0]))
        cfg = MonteCarloConfig(paths=100, steps=64, master_seed=1)
        with pytest.raises(EnsembleError):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg)

    def test_blown_paths_are_left_out_of_every_mean(self):
        # a few paths leave the finite regime: the coupled run reports the
        # same mask as a run alone, and every mean skips those paths, whose
        # cost rows still hold the running cost from before the blow-up
        p = scalar_problem(A=1.0, C=22.0, Q=1.0, G=1.0)
        ip = InitialPair(t=0.0, x=np.array([1.0]))
        cfg = MonteCarloConfig(paths=4000, steps=16, master_seed=1)
        cpl = simulate_coupled(p, ip, [ControlSpec.zero(), ControlSpec.zero()], cfg)
        alone = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        blown = int(cpl.blown.sum())
        assert 0 < blown <= 40
        assert np.array_equal(cpl.blown, alone.blown)
        got = cpl.mean_se(cpl.cost)
        want = mean_se(cpl.cost[:, ~cpl.blown])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert not np.array_equal(got[0], cpl.cost.mean(axis=1))
        assert estimate_cost(p, ip, alone).paths == 4000 - blown

    def test_mismatched_ensemble_rejected(self):
        p, ip = builtin("example-1.1")
        q, _ = builtin("example-5.1")
        cfg = MonteCarloConfig(paths=16, steps=16, master_seed=1)
        ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        with pytest.raises(InvalidInputError):
            estimate_cost(q, ip, ens)
        with pytest.raises(InvalidInputError):
            estimate_cost(p, InitialPair(t=0.0, x=np.array([2.0])), ens)

    def test_modulated_profile_needs_gamma(self):
        grid = np.linspace(0.0, 1.0, 3)
        theta = GridFn(grid, np.zeros((3, 1, 1)))
        prof = GridFn(grid, np.ones((3, 1)))
        with pytest.raises(InvalidInputError, match="gamma"):
            ControlSpec(theta, GridFn(grid, np.zeros((3, 1))), v_mod_profile=prof)
        with pytest.raises(InvalidInputError, match="gamma"):
            ControlSpec(v_mod_profile=prof)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            MonteCarloConfig(paths=0, steps=64, master_seed=1)
        with pytest.raises(InvalidInputError):
            MonteCarloConfig(paths=10, steps=8, master_seed=1)

    @pytest.mark.parametrize("field", ["paths", "steps", "master_seed"])
    @pytest.mark.parametrize("value", [16.5, True, np.float64(17.0), "17"])
    def test_non_integral_config_values_are_rejected(self, field, value):
        # a float seed must not be truncated to another seed, nor a float size reach numpy
        kwargs = {"paths": 20, "steps": 16, "master_seed": 1, field: value}
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got"):
            MonteCarloConfig(**kwargs)

    def test_numpy_integers_are_plain_ints(self):
        cfg = MonteCarloConfig(paths=np.int64(20), steps=np.int32(16),
                               master_seed=np.uint64(2**64 - 1))
        assert (cfg.paths, cfg.steps, cfg.master_seed) == (20, 16, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.paths, cfg.steps, cfg.master_seed))

    @pytest.mark.parametrize("steps", [2**32 - 1, 2**40])
    def test_steps_past_the_key_layout_are_rejected(self, steps):
        with pytest.raises(InvalidInputError, match="steps must be in"):
            MonteCarloConfig(paths=1, steps=steps, master_seed=1)

    @pytest.mark.parametrize("block_size", [0, -1, 2.5, True])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_block_size_below_one_is_rejected(self, block_size, coupled):
        # a negative size would run no block and report a zero cost
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=10, steps=16, master_seed=1)
        run = simulate_coupled if coupled else simulate_ensemble
        ctrl = [ControlSpec.zero()] if coupled else ControlSpec.zero()
        with pytest.raises(InvalidInputError, match="block_size must be"):
            run(p, ip, ctrl, cfg, block_size=block_size)


class TestWeakConvergenceInvariance:
    def test_halving_dt_stays_within_noise(self):
        # the second moment of example-1.1 under zero control is invariant in
        # time, so halving the step cannot move the estimate materially
        p, ip = builtin("example-1.1")
        cfg1 = MonteCarloConfig(paths=20_000, steps=256, master_seed=8)
        cfg2 = MonteCarloConfig(paths=20_000, steps=512, master_seed=8)
        e1 = estimate_cost(p, ip, simulate_ensemble(p, ip, ControlSpec.zero(), cfg1))
        e2 = estimate_cost(p, ip, simulate_ensemble(p, ip, ControlSpec.zero(), cfg2))
        assert abs(e1.mean - e2.mean) <= max(e1.std_error, e2.std_error)


def test_terminal_moment_estimator():
    p, ip = builtin("example-1.1")
    cfg = MonteCarloConfig(paths=10_000, steps=128, master_seed=17)
    ens = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
    tm = terminal_moment(ens)
    est = estimate_cost(p, ip, ens)
    assert tm.mean == pytest.approx(est.mean)  # cost is purely terminal here
    assert tm.quantity == "terminal-moment"


def test_strategy_control_is_truncated_feedback():
    p, _ = builtin("example-5.1")
    sols = run_ladder(p, [1.0, 0.5, 0.25], 64)
    ws = extract_limit(sols, delta=0.2, tol=1e3)
    full, window = sols[-1].control, ws.control
    assert full.theta.grid[-1] == p.T
    # the window ends at the last node at or below T - delta
    grid = full.theta.grid
    last = grid[grid <= 0.8 + 1e-15][-1]
    for part in (window.theta, window.v_det, window.v_mod_profile):
        assert part.grid[-1] == last
    k = window.theta.grid.size
    assert np.array_equal(window.theta.values, full.theta.values[:k])
    assert np.array_equal(window.v_mod_profile.values, full.v_mod_profile.values[:k])
    assert window.gamma == full.gamma == pytest.approx(np.sqrt(2.0))
