import sys
import threading
import time
import tracemalloc

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
        p, ip = builtin("example-5.1")
        cfg = MonteCarloConfig(paths=3000, steps=64, master_seed=5)
        a = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=4096)
        b = simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=77)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.X_T, b.X_T)
        assert estimate_cost(p, ip, a).mean == estimate_cost(p, ip, b).mean
        sol = run_ladder(p, [1.0, 0.5, 0.25], 64)[-1]
        grid = np.linspace(0.0, 1.0, 3)
        controls = [ControlSpec.zero(), sol.control.restrict(0.75),
                    ControlSpec(v_mod_profile=GridFn(grid, np.ones((3, 1))), gamma=0.5)]
        a = simulate_coupled(p, ip, controls, cfg, block_size=4096)
        b = simulate_coupled(p, ip, controls, cfg, block_size=77)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.control_norm_sq, b.control_norm_sq)

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


@pytest.mark.parametrize(
    "seed, start, count, draws",
    [
        (2**64 - 1, 0, 3, 17),
        (2**64 - 1, 2**64 - 2, 5, 1025),  # path indices wrap to 0, 1, 2
        (12345, 2**64 - 3, 70, 17),  # more paths than one fill buffer
        (7, 5, 8193, 3),  # splits unevenly across two, three or four threads
        (11, 0, 129, 33),  # just above two fill buffers: two ranges at most
        (2**64 - 1, 2**64 - 100, 200, 9),  # a range starts at or spans the wrap
    ],
)
def test_path_block_normals_stream_contract(monkeypatch, seed, start, count, draws):
    # row i is the stream of a fresh Philox keyed by (seed, start + i mod 2^64),
    # whatever the number of threads the block is split across
    ref = np.stack([
        Generator(Philox(key=np.array([seed, (start + i) & simulate.MASK64], dtype=np.uint64)))
        .standard_normal(draws)
        for i in range(count)
    ])
    assert np.array_equal(simulate._path_block_normals(seed, start, count, draws), ref)
    for cores in (1, 2, 3, 4):
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        z = simulate._path_block_normals(seed, start, count, draws)
        assert z.flags.f_contiguous
        assert np.array_equal(z, ref)


class TestSplitDraw:
    """A block is filled in contiguous ranges, one thread per usable core."""

    def _fill_threads(self, monkeypatch, cores, count):
        seen = []
        orig = simulate._fill_rows

        def recording(seed, start, rows, chunk):
            seen.append((threading.current_thread(), start, len(rows)))
            return orig(seed, start, rows, chunk)

        monkeypatch.setattr(simulate, "_fill_rows", recording)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        before = threading.active_count()
        simulate._path_block_normals(3, 10, count, 5)
        assert threading.active_count() == before
        return seen

    def test_one_core_starts_no_helper(self, monkeypatch):
        seen = self._fill_threads(monkeypatch, 1, 8192)
        assert seen == [(threading.current_thread(), 10, 8192)]

    def test_small_block_stays_on_the_calling_thread(self, monkeypatch):
        seen = self._fill_threads(monkeypatch, 4, 127)
        assert seen == [(threading.current_thread(), 10, 127)]

    def test_ranges_cover_the_block_once(self, monkeypatch):
        seen = self._fill_threads(monkeypatch, 3, 8193)
        assert sorted((s, n) for _, s, n in seen) == [(10, 2731), (2741, 2731), (5472, 2731)]
        assert [s for thread, s, _ in seen if thread is threading.current_thread()] == [10]
        assert len({thread for thread, _, _ in seen}) == 3

    def test_more_threads_than_cores_with_frequent_switches(self, monkeypatch):
        # eight threads write disjoint row ranges of one draw-major block
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 1)
        ref = simulate._path_block_normals(21, 2**64 - 4000, 8193, 4)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(simulate._path_block_normals(21, 2**64 - 4000, 8193, 4), ref)
        finally:
            sys.setswitchinterval(interval)

    def test_helper_failure_reaches_caller(self, monkeypatch):
        # a helper of a block's draw fails; the caller of
        # _path_block_normals joins its helpers and hands the error on
        callers, failed = set(), []
        orig_block, orig_fill = simulate._path_block_normals, simulate._fill_rows

        def block(*args):
            callers.add(threading.current_thread())
            return orig_block(*args)

        def fill(seed, start, rows, chunk):
            if threading.current_thread() not in callers:
                failed.append(start)
                raise RuntimeError("injected in a helper")
            return orig_fill(seed, start, rows, chunk)

        monkeypatch.setattr(simulate, "_path_block_normals", block)
        monkeypatch.setattr(simulate, "_fill_rows", fill)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=300, steps=16, master_seed=4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected in a helper"):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=200)
        assert threading.active_count() == before
        assert failed == [100]  # the second half of the first block
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected in a helper"):
            simulate._path_block_normals(4, 0, 300, 17)
        assert threading.active_count() == before

    def test_calling_thread_failure_waits_for_helpers(self, monkeypatch):
        # the calling thread's own range fails while a helper fills the
        # other: the helper has returned before the error reaches the caller
        caller, events, started = threading.current_thread(), [], threading.Event()
        orig = simulate._fill_rows

        def fill(seed, start, rows, chunk):
            if threading.current_thread() is caller:
                started.wait(5.0)
                raise RuntimeError("injected on the calling thread")
            started.set()
            time.sleep(0.05)  # still running when the calling thread raises
            orig(seed, start, rows, chunk)
            events.append(start)

        monkeypatch.setattr(simulate, "_fill_rows", fill)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected on the calling thread"):
            simulate._path_block_normals(4, 0, 300, 17)
        assert threading.active_count() == before
        assert events == [150]


class TestTwoPhaseBlocks:
    """A block is drawn, then stepped on the calling thread; one block at a time."""

    def test_no_draw_runs_while_a_block_steps(self, monkeypatch):
        # the draw's helpers too have returned before the block steps, and
        # every step runs on the calling thread
        caller, events, running = threading.current_thread(), [], []
        lock = threading.Lock()

        def watched(kind, orig):
            def call(*args):
                with lock:
                    # a step starts with nothing else running, and nothing
                    # starts while a step runs
                    assert (running == []) if kind == "step" else ("step" not in running)
                    running.append(kind)
                    events.append(kind)
                try:
                    if kind == "step":
                        assert threading.current_thread() is caller
                        time.sleep(1e-3)  # room for a draw on another thread
                    return orig(*args)
                finally:
                    with lock:
                        running.remove(kind)
            return call

        monkeypatch.setattr(simulate, "_euler_step", watched("step", simulate._euler_step))
        monkeypatch.setattr(simulate, "_path_block_normals",
                            watched("draw", simulate._path_block_normals))
        monkeypatch.setattr(simulate, "_fill_rows", watched("fill", simulate._fill_rows))
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=600, steps=16, master_seed=4)
        simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=200)
        phases = [e for e in events if e != "fill"]
        assert phases == (["draw"] + ["step"] * 16) * 3
        assert events.count("fill") == 3 * 2  # two ranges per block

    def test_peak_memory_is_one_block_of_normals(self):
        p, ip = builtin("example-1.1")
        block, steps = 2048, 256
        cfg = MonteCarloConfig(paths=3 * block, steps=steps, master_seed=9)
        tracemalloc.start()
        try:
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block * (steps + 1) * 8

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

    @pytest.mark.parametrize("target, drawn", [
        ("draw", [0, 100]),  # the second block's draw fails
        ("step", [0]),  # the first block's first step fails
    ])
    def test_failure_reaches_caller_with_nothing_drawn_after_it(self, monkeypatch, target,
                                                                drawn):
        starts = []
        orig_draw, orig_step = simulate._path_block_normals, simulate._euler_step

        def draw(seed, start, *rest):
            starts.append(start)
            if target == "draw" and len(starts) == 2:
                raise RuntimeError("injected")
            return orig_draw(seed, start, *rest)

        def step(*args):
            if target == "step":
                raise RuntimeError("injected")
            return orig_step(*args)

        monkeypatch.setattr(simulate, "_path_block_normals", draw)
        monkeypatch.setattr(simulate, "_euler_step", step)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        p, ip = builtin("example-1.1")
        cfg = MonteCarloConfig(paths=300, steps=16, master_seed=4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            simulate_ensemble(p, ip, ControlSpec.zero(), cfg, block_size=100)
        assert threading.active_count() == before
        assert starts == drawn


def reference_euler(p, ip, controls, cfg):
    """Euler-Maruyama for coupled controls, written out path-major in the
    simulator's expression order: (cost, int |u|^2)."""
    N, P = cfg.steps, cfg.paths
    dt = (p.T - ip.t) / N
    s = ip.t + dt * np.arange(N + 1)
    s[-1] = p.T
    z = np.stack([Generator(Philox(key=np.array([cfg.master_seed, i], dtype=np.uint64)))
                  .standard_normal(N + 1) for i in range(P)])
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

    def test_coupled_run_reports_blown_paths(self):
        # a few paths leave the finite regime: the coupled run reports the
        # same mask as a run alone, and the Monte Carlo criteria refuse it
        from slq import verify

        p = scalar_problem(A=1.0, C=22.0, Q=1.0, G=1.0)
        ip = InitialPair(t=0.0, x=np.array([1.0]))
        cfg = MonteCarloConfig(paths=4000, steps=16, master_seed=1)
        cpl = simulate_coupled(p, ip, [ControlSpec.zero(), ControlSpec.zero()], cfg)
        alone = simulate_ensemble(p, ip, ControlSpec.zero(), cfg)
        assert 0 < cpl.blown.sum() <= 40
        assert np.array_equal(cpl.blown, alone.blown)
        with pytest.raises(EnsembleError, match="left the finite regime"):
            verify._coupled_without_blowup(p, ip, [ControlSpec.zero()], cfg)

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
