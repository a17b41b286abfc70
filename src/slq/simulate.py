"""Euler-Maruyama Monte Carlo for the controlled state equation.

The scheme is

    X_{k+1} = X_k + (A X_k + B u_k + b_k) dt + (C X_k + D u_k + sigma_k) dW_k

on a uniform grid of [t, T].  Path i draws its Brownian increments from a
dedicated counter-based stream: a Philox bit generator keyed by the 128-bit
pair (master_seed, i).  Draw 0 seeds W(t) for t > 0; draws 1..N are the
increments.  Paths are therefore independent of how work is blocked, and all
reductions run over full per-path arrays in fixed order, so results cannot
depend on a worker or block count.  Two runs with the same master seed share
Brownian increments exactly, which is what couples controls under common
random numbers.  Paths are simulated one block at a time, in two phases:
the block's normals are drawn on every usable core (see
:func:`_path_block_normals`), then the calling thread steps the block alone
and drops its normals before the next draw, so two blocks never exist at
once and no thread outlives a run.  Since a stream depends only on
(master_seed, i), results do not depend on the split or the threads.  The
Euler loop writes into work arrays allocated once per block, with every
floating-point operation in the same order as the written-out scheme.

Every control has one affine form, u = Theta X + v_det + v_mod M(s) with
M(s_k) = exp(gamma W_k - gamma^2 s_k / 2) from the same path's W, and one
stacked Euler step advances all controls of a run at once; a run in which
no control has a part skips the control arithmetic, as u = 0 would only add
exact zeros.  A feedback
control (one with a Theta) is applied up to the end of its own grid and
held at its last value afterwards: a weak closed-loop strategy may be
singular at T while its outcome stays square integrable, so it is used on
a window [t, T - delta] (see :func:`~slq.strategy.extract_limit`) and the
window, not the simulator, decides where the hold starts.  As an oracle of
the solvers, the module imports none of them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .core import GridFn
from .errors import EnsembleError, InvalidInputError
from .problem import InitialPair, SLQProblem

__all__ = [
    "MonteCarloConfig",
    "ControlSpec",
    "MonteCarloEstimate",
    "CoupledEnsembles",
    "simulate_ensemble",
    "simulate_coupled",
    "estimate_cost",
    "control_norm",
    "terminal_moment",
    "estimate_csv_row",
    "ESTIMATE_CSV_HEADER",
    "mean_se",
]

MASK64 = (1 << 64) - 1
DEFAULT_BLOCK = 8192
_DRAW_CHUNK = 64  # paths in the fill buffers of one block's draw, all threads together


@dataclass(frozen=True)
class MonteCarloConfig:
    """Simulation sizes and master seed."""

    paths: int
    steps: int
    master_seed: int

    def __post_init__(self):
        if self.paths < 1:
            raise InvalidInputError("paths must be positive")
        if self.steps < 16:
            raise InvalidInputError("steps must be >= 16")
        if not 0 <= self.master_seed <= MASK64:
            raise InvalidInputError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(frozen=True, eq=False)
class ControlSpec:
    """The affine control u = Theta X + v_det + v_mod_profile * M(s).

    A missing part is zero; ``gamma`` is the exponent of M and is required
    with a modulated profile.  A control is feedback iff it has ``theta``:
    only feedback is held, from the last Monte Carlo node at or below the
    end of ``theta``'s grid on, so :meth:`restrict` makes its window.
    """

    theta: Optional[GridFn] = None
    v_det: Optional[GridFn] = None
    v_mod_profile: Optional[GridFn] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.v_mod_profile is not None and self.gamma is None:
            raise InvalidInputError("a modulated control profile needs gamma")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", float(self.gamma))

    def restrict(self, t_max: float) -> "ControlSpec":
        """Every part on its grid nodes at or below ``t_max``."""
        parts = (self.theta, self.v_det, self.v_mod_profile)
        return ControlSpec(*(f if f is None else f.restrict(t_max) for f in parts), self.gamma)

    @staticmethod
    def zero() -> "ControlSpec":
        return ControlSpec()


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    paths: int
    quantity: str  # cost | control-norm-squared | terminal-moment
    steps: int
    seed: int


ESTIMATE_CSV_HEADER = "quantity,mean,std_error,paths,steps,seed"


def mean_se(values: np.ndarray):
    """Mean and standard error over the last (path) axis; nan for one path."""
    M = values.shape[-1]
    mean = values.mean(axis=-1)
    if M < 2:
        return mean, np.full(np.shape(mean), np.nan)
    return mean, values.std(axis=-1, ddof=1) / np.sqrt(M)


def estimate_csv_row(est: MonteCarloEstimate) -> str:
    return (
        f"{est.quantity},{est.mean:.17g},{est.std_error:.17g},"
        f"{est.paths},{est.steps},{est.seed}"
    )


@dataclass(eq=False)
class CoupledEnsembles:
    """Per-path reductions of K controls simulated on shared noise (common
    random numbers); :func:`simulate_ensemble` gives the K = 1 form.

    Full paths are kept in ``recorded`` only when ``record_paths`` was
    requested (None otherwise); the reductions are all downstream consumers
    need.  The fields after ``cfg`` are in the order :func:`_run_blocks`
    returns them; :func:`mean_se` of a per-path field gives its estimates.
    """

    problem: SLQProblem
    ip: InitialPair
    controls: list
    cfg: MonteCarloConfig
    cost: np.ndarray  # (K, M) terminal + running cost per path
    control_norm_sq: np.ndarray  # (K, M) int |u|^2 per path
    X_T: np.ndarray  # (K, M, n)
    recorded: Optional[dict]
    blown: np.ndarray  # (M,) bool, zeroed under every control


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fill_rows(master_seed: int, start: int, rows: np.ndarray, chunk: int):
    """Fill row i of ``rows`` with the normals of path start + i.

    Row i is the stream of a fresh ``Philox(key=[master_seed, start + i])``.
    One bit generator is re-keyed per path instead, with its counter, buffer
    and cached half word reset: the same bits, without the OS entropy read
    that constructing a bit generator costs.  The state holds Python ints,
    which the setter reads about three times faster than array entries;
    the per-path work holds the interpreter lock, which the threads of one
    draw share.  Rows are filled through a buffer of ``chunk`` paths,
    as ``rows`` may be a draw-major view.
    """
    count, draws = rows.shape
    buf = np.empty((min(chunk, count), draws))
    bits = Philox(0)
    gen = Generator(bits)
    key = [master_seed, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for c0 in range(0, count, len(buf)):
        part = buf[: count - c0]
        for j, row in enumerate(part):
            key[1] = (start + c0 + j) & MASK64
            bits.state = fresh
            gen.standard_normal(out=row)
        rows[c0 : c0 + len(part)] = part


def _path_block_normals(master_seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Normals of paths start .. start + count - 1, ``draws`` per path.

    Row i is the stream of path start + i (see :func:`_fill_rows`).  The
    rows are cut into one contiguous range per usable core, at most one per
    ``_DRAW_CHUNK`` paths; the calling thread fills the first range and a
    pool of helper threads, each with its own bit generator and buffer,
    fills the others, so the bits do not depend on the split.  The buffers
    together hold ``_DRAW_CHUNK`` paths, as one thread's does, so the split
    adds little to peak memory; each still holds at least one cache line per
    draw.  The pool starts a thread only for a range it is given, and every
    helper has finished before this returns or raises: a helper's error is
    raised here unless the calling thread's own range failed first.  The block
    is stored draw-major (Fortran order), so the Euler loop reads each
    step's increments as one contiguous column.
    """
    out = np.empty((draws, count)).T
    parts = max(1, min(_usable_cores(), count // _DRAW_CHUNK))
    cuts = [count * i // parts for i in range(parts + 1)]
    chunk = max(_DRAW_CHUNK // parts, 8)
    with ThreadPoolExecutor(max(1, parts - 1)) as pool:
        helpers = [pool.submit(_fill_rows, master_seed, start + lo, out[lo:hi], chunk)
                   for lo, hi in zip(cuts[1:-1], cuts[2:])]
        _fill_rows(master_seed, start, out[: cuts[1]], chunk)
    for f in helpers:
        f.result()
    return out


def _apply(M: np.ndarray, X: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """M x for every state of a stack: (..., i, j) with (..., B, j) -> (..., B, i).

    Written as a sum of broadcast products over j: on these small matrices
    and long stacks it is several times faster than ``einsum``.  ``out``
    receives the sum and ``tmp`` each further product; either is allocated
    when not given.
    """
    out = np.multiply(M[..., None, :, 0], X[..., :1], out=out)
    for j in range(1, X.shape[-1]):
        out += np.multiply(M[..., None, :, j], X[..., j : j + 1], out=tmp)
    return out


def _dot(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for i in range(1, a.shape[-1]):
        out += np.multiply(a[..., i], b[..., i], out=tmp)
    return out


class _BlockWork:
    """The arrays one block's Euler loop writes into, allocated once per block.

    ``drift`` and ``diff`` hold the step's coefficients; ``x1``, ``x2``
    (state-shaped), ``u1``, ``u2`` (control-shaped), ``s1``, ``s2`` (one
    value per control and path) and ``b`` (one per path) are scratch
    between two calls.  The second products exist only for sums over a
    dimension above 1, and ``b`` only for a modulated b.
    """

    def __init__(self, K: int, B: int, n: int, m: int, b_mod: bool):
        self.drift, self.diff, self.x1 = (np.empty((K, B, n)) for _ in range(3))
        self.u1, self.s1 = np.empty((K, B, m)), np.empty((K, B))
        wide = max(n, m) > 1
        self.x2 = np.empty((K, B, n)) if wide else None
        self.u2 = np.empty((K, B, m)) if wide else None
        self.s2 = np.empty((K, B)) if wide else None
        self.b = np.empty(B) if b_mod else None


def _control_tables(controls: list, p: SLQProblem, s_nodes: np.ndarray) -> dict:
    """The K controls' node tables stacked as (N+1, K, ...) arrays.

    A part is None when no control has it; zero rows fill in for controls
    that lack a part others have.  ``hold[i]`` is the first node index at
    which control i is held: the last node at or below the end of its
    theta grid (N for open-loop controls and for feedback whose grid
    reaches T, never held); ``first_hold`` is the smallest of them.
    """
    N, K = s_nodes.size - 1, len(controls)

    def stack(part: str, shape: tuple):
        if all(getattr(c, part) is None for c in controls):
            return None
        out = np.zeros((N + 1, K) + shape)
        for i, c in enumerate(controls):
            if getattr(c, part) is not None:
                out[:, i] = getattr(c, part)(s_nodes).reshape((N + 1,) + shape)
        return out

    hold = np.full(K, N)
    for i, c in enumerate(controls):
        if c.theta is not None:
            if c.theta.grid[0] > s_nodes[0] + 1e-12:
                raise InvalidInputError("feedback grid starts after the initial time")
            hold[i] = max(int(np.searchsorted(s_nodes, c.theta.grid[-1] + 1e-12) - 1), 0)
    return {
        "theta": stack("theta", (p.m, p.n)),
        "v_det": stack("v_det", (p.m,)),
        "v_mod": stack("v_mod_profile", (p.m,)),
        "hold": hold,
        "first_hold": int(hold.min()),
    }


def _control_at(ct: dict, k: int, X: np.ndarray, M: Optional[np.ndarray], held: np.ndarray,
                out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """u = Theta X + v_det + v_mod M(s_k) at node k into ``out`` (K, B, m) for
    states X (K, B, n); M is (K, B), and feedback rows past their hold index
    keep ``held``, the previous node's controls; ``tmp`` is out-shaped scratch."""
    if ct["theta"] is None:
        out.fill(0.0)
    else:
        _apply(ct["theta"][k], X, out, tmp)
    if ct["v_det"] is not None:
        out += ct["v_det"][k][:, None]
    if ct["v_mod"] is not None:
        out += np.multiply(ct["v_mod"][k][:, None], M[..., None], out=tmp)
    if k > ct["first_hold"]:
        frozen = k > ct["hold"]
        out[frozen] = held[frozen]
    return out


def _input_tables(p: SLQProblem, s_nodes: np.ndarray) -> dict:
    """Node tables of the coefficients and inputs; a zero weight or input is None."""
    N = s_nodes.size - 1
    tabs = {name: getattr(p, name)(s_nodes) for name in "ABCDQSR"}
    for name in ("Q", "S", "R"):
        if not getattr(p, name).values.any():
            tabs[name] = None
    for name in ("b", "sigma", "q", "rho"):
        f = getattr(p, name)
        tabs[name] = f(s_nodes) if f.values.any() else None
    tabs["running_cost"] = any(tabs[c] is not None for c in ("Q", "S", "R", "q", "rho"))
    tabs["D_nonzero"] = np.any(tabs["D"] != 0.0, axis=(1, 2))
    tabs["b_mod"] = tabs["b_gamma"] = None
    mod = p.b_mod
    if mod is not None:
        # drift uses left endpoints only, so the profile is never evaluated
        # at a singular terminal node
        prof = np.zeros(N + 1)
        prof[:-1] = np.asarray(mod.profile_at(s_nodes[:-1], p.T)).reshape(N)
        tabs["b_mod"] = prof
        tabs["b_gamma"] = float(mod.gamma)
    return tabs


def _cost_integrand(tabs: dict, k: int, X: np.ndarray, u: Optional[np.ndarray], out: np.ndarray,
                    w: _BlockWork) -> np.ndarray:
    """The running cost at node k into ``out`` (K, B); u None is u = 0."""
    out.fill(0.0)
    if tabs["Q"] is not None:
        out += _dot(_apply(tabs["Q"][k], X, w.x1, w.x2), X, w.s1, w.s2)
    if tabs["S"] is not None and u is not None:
        out += np.multiply(2.0, _dot(_apply(tabs["S"][k], X, w.u1, w.u2), u, w.s1, w.s2), out=w.s1)
    if tabs["R"] is not None and u is not None:
        out += _dot(_apply(tabs["R"][k], u, w.u1, w.u2), u, w.s1, w.s2)
    if tabs["q"] is not None:
        out += np.multiply(2.0, _dot(X, tabs["q"][k], w.s1, w.s2), out=w.s1)
    if tabs["rho"] is not None and u is not None:
        out += np.multiply(2.0, _dot(u, tabs["rho"][k], w.s1, w.s2), out=w.s1)
    return out


def _euler_step(tabs: dict, k: int, X: np.ndarray, u: Optional[np.ndarray],
                M_b: Optional[np.ndarray], dt: float, dw: np.ndarray, w: _BlockWork) -> np.ndarray:
    """One Euler-Maruyama step, in place, of every control's states X (K, B, n)
    under controls u (K, B, m), None for u = 0; M_b (B,) modulates b, dw (B, 1)
    is the increment.  X becomes (X + drift dt) + diff dw, summed in that order."""
    drift = _apply(tabs["A"][k], X, w.drift, w.x1)
    if u is not None:
        drift += _apply(tabs["B"][k], u, w.x1, w.x2)
    if tabs["b"] is not None:
        drift += tabs["b"][k]
    if M_b is not None:
        drift += np.multiply(tabs["b_mod"][k], M_b, out=w.b)[:, None]
    diff = _apply(tabs["C"][k], X, w.diff, w.x1)
    if u is not None and tabs["D_nonzero"][k]:
        diff += _apply(tabs["D"][k], u, w.x1, w.x2)
    if tabs["sigma"] is not None:
        diff += tabs["sigma"][k]
    drift *= dt
    diff *= dw
    X += drift
    X += diff
    return X


def _run_blocks(
    p: SLQProblem,
    ip: InitialPair,
    controls: list,
    cfg: MonteCarloConfig,
    block_size: int,
    record_paths: bool,
):
    ip.check(p)
    t, T, N = ip.t, p.T, cfg.steps
    dt = (T - t) / N
    s_nodes = t + dt * np.arange(N + 1)
    s_nodes[-1] = T
    tabs = _input_tables(p, s_nodes)
    ct = _control_tables(controls, p, s_nodes)
    # M(s) = exp(gamma W - gamma^2 s / 2) is formed once per distinct gamma
    gammas = sorted(({c.gamma for c in controls if c.v_mod_profile is not None} | {tabs["b_gamma"]}) - {None})
    gam = np.array(gammas)
    # gamma^2 s / 2 at every node, (N + 1, G)
    half_g2s = (0.5 * gam * gam)[None, :] * s_nodes[:, None]
    g_ctrl = [gammas.index(c.gamma) if c.v_mod_profile is not None else 0 for c in controls]
    g_b = None if tabs["b_gamma"] is None else gammas.index(tabs["b_gamma"])

    K = len(controls)
    # u = 0 when no control has a part: its arithmetic would add exact zeros
    has_u = any(ct[part] is not None for part in ("theta", "v_det", "v_mod"))
    # trapezoid sums of |u|^2 and the running cost
    sums = tuple(key for key, on in (("unorm", has_u), ("cost", tabs["running_cost"])) if on)
    M = cfg.paths
    cost = np.zeros((K, M))
    unorm = np.zeros((K, M))
    X_T = np.zeros((K, M, p.n))
    blown = np.zeros(M, dtype=bool)
    rec = None if not record_paths else {
        "s": s_nodes,
        "W": np.zeros((M, N + 1)),
        "X": np.zeros((K, M, N + 1, p.n)),
        "u": np.zeros((K, M, N + 1, p.m)),
    }

    half_dt = 0.5 * dt
    sqrt_dt = np.sqrt(dt)
    sqrt_t = np.sqrt(t) if t > 0.0 else 0.0
    # W is read only to form M(s) or to record paths
    need_W = bool(gammas) or rec is not None

    # one block of normals exists at a time: it is drawn on every usable
    # core, stepped on this thread alone and dropped before the next draw
    for start in range(0, M, block_size):
        z = _path_block_normals(cfg.master_seed, start, min(block_size, M - start), N + 1)
        Bn = z.shape[0]
        sl = slice(start, start + Bn)
        W = sqrt_t * z[:, 0] if need_W else None
        dW = z[:, 1:]
        dW *= sqrt_dt
        X = np.broadcast_to(ip.x, (K, Bn, p.n)).copy()
        w = _BlockWork(K, Bn, p.n, p.m, g_b is not None)
        # u and the previous node's controls trade buffers every node; with
        # no part in any control u = 0 and stays None
        u, spare = (np.empty((K, Bn, p.m)), np.empty((K, Bn, p.m))) if has_u else (None, None)
        Mg = np.empty((len(gammas), Bn))
        Mc = None if ct["v_mod"] is None else np.empty((K, Bn))
        bad = np.zeros(Bn, dtype=bool)
        any_bad = False
        # each node's integrands and the previous node's trade buffers
        acc = {key: np.zeros((K, Bn)) for key in sums}
        phi = {key: np.empty((K, Bn)) for key in sums}
        prev = {key: np.empty((K, Bn)) for key in sums}

        for k in range(N + 1):
            if gammas:
                np.multiply(gam[:, None], W, out=Mg)
                Mg -= half_g2s[k][:, None]
                np.exp(Mg, out=Mg)
            if Mc is not None:
                np.take(Mg, g_ctrl, axis=0, out=Mc, mode="clip")
            if has_u:
                u, spare = _control_at(ct, k, X, Mc, u, spare, w.u1), u
                _dot(u, u, phi["unorm"], w.s1)
            if "cost" in phi:
                _cost_integrand(tabs, k, X, u, phi["cost"], w)
            if k > 0:
                for key in sums:
                    step = np.add(prev[key], phi[key], out=w.s1)
                    step *= half_dt
                    acc[key] += step
            prev, phi = phi, prev
            if rec is not None:
                rec["X"][:, sl, k] = X
                if has_u:
                    rec["u"][:, sl, k] = u
                rec["W"][sl, k] = W

            if k < N:
                X = _euler_step(tabs, k, X, u, None if g_b is None else Mg[g_b], dt,
                                dW[:, k : k + 1], w)
                # one mask per path: leaving the finite regime under any
                # control zeroes the path under all of them; the cheap
                # whole-block test (NaN fails it too) usually passes
                if not np.abs(X, out=w.x1).max() < 1e12:
                    bad |= ~(w.x1 < 1e12).all(axis=(0, 2))
                    any_bad = True
                if any_bad:
                    X[:, bad] = 0.0
                if need_W:
                    W += dW[:, k]
        del z, dW, W

        terminal = _dot(_apply(p.G, X), X) + 2.0 * _dot(X, p.g)
        cost[:, sl] = acc.get("cost", 0.0) + terminal
        unorm[:, sl] = acc.get("unorm", 0.0)
        X_T[:, sl] = X
        blown[sl] = bad

    frac = float(blown.mean())
    if frac > 0.01:
        raise EnsembleError(f"{100 * frac:.1f}% of paths left the finite regime")
    return s_nodes, cost, unorm, X_T, rec, blown


def simulate_ensemble(
    p: SLQProblem,
    ip: InitialPair,
    ctrl: ControlSpec,
    cfg: MonteCarloConfig,
    block_size: int = DEFAULT_BLOCK,
    record_paths: bool = False,
) -> CoupledEnsembles:
    """Simulate one control: the K = 1 form of :func:`simulate_coupled`.

    ``block_size`` only batches the work; results are bit-identical for any
    value because every path owns its RNG stream and reductions run over
    full per-path arrays.
    """
    _, *rows = _run_blocks(p, ip, [ctrl], cfg, block_size, record_paths)
    return CoupledEnsembles(p, ip, [ctrl], cfg, *rows)


def simulate_coupled(
    p: SLQProblem,
    ip: InitialPair,
    controls: list,
    cfg: MonteCarloConfig,
    block_size: int = DEFAULT_BLOCK,
) -> CoupledEnsembles:
    """Simulate several controls on shared Brownian increments.

    Needed wherever pathwise differences between controls are meaningful
    only under common random numbers (the eps-ladder boundedness probe)."""
    _, *rows = _run_blocks(p, ip, controls, cfg, block_size, False)
    return CoupledEnsembles(p, ip, list(controls), cfg, *rows)


def _only_control(ens: CoupledEnsembles, rows: np.ndarray) -> np.ndarray:
    """The rows of the one control of ``ens``; an estimate needs K = 1."""
    if len(ens.controls) != 1:
        raise InvalidInputError(f"estimate needs a one-control ensemble, got {len(ens.controls)}")
    return rows[0]


def _check_match(ens: CoupledEnsembles, p: SLQProblem, ip: InitialPair):
    same = (
        ens.problem is p
        or (ens.problem.name == p.name and ens.problem.T == p.T and ens.problem.n == p.n)
    )
    if not same or ens.ip.t != ip.t or not np.array_equal(ens.ip.x, ip.x):
        raise InvalidInputError("ensemble was simulated for a different problem or initial pair")


def _estimate(values: np.ndarray, quantity: str, cfg: MonteCarloConfig) -> MonteCarloEstimate:
    mean, se = mean_se(values)
    return MonteCarloEstimate(
        mean=float(mean), std_error=float(se), paths=values.size, quantity=quantity,
        steps=cfg.steps, seed=cfg.master_seed,
    )


def estimate_cost(p: SLQProblem, ip: InitialPair, ens: CoupledEnsembles) -> MonteCarloEstimate:
    """Mean and standard error of the quadratic cost over the ensemble."""
    _check_match(ens, p, ip)
    return _estimate(_only_control(ens, ens.cost), "cost", ens.cfg)


def control_norm(ens: CoupledEnsembles) -> MonteCarloEstimate:
    """Monte Carlo estimate of E int |u(s)|^2 ds for the simulated control."""
    return _estimate(_only_control(ens, ens.control_norm_sq), "control-norm-squared", ens.cfg)


def terminal_moment(ens: CoupledEnsembles) -> MonteCarloEstimate:
    """Monte Carlo estimate of E |X(T)|^2."""
    X_T = _only_control(ens, ens.X_T)
    return _estimate(np.einsum("bi,bi->b", X_T, X_T), "terminal-moment", ens.cfg)
