"""One benchmark process: import ``slq``, load the problem, run operations.

Started by ``run.py`` in a fresh interpreter with a JSON argument; writes a
JSON result file and prints nothing.  Operations run one at a time (closed
loop) until the next one, predicted from the median so far, would overrun
the time budget; at least one always runs.  With tracing on, spans are
recorded around the public ``slq`` functions (see :func:`install_tracing`)
and kept in memory until the result file is written.
"""

import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from spans import Recorder, now
from workloads import WORKLOADS, GateError, digest

MAX_OPS = 1000


def _riccati_observer(kind):
    def observe(rec, args, sol):
        rec.add("riccati.rk4_steps", sol.steps)
        rec.add(f"riccati.{kind}.rk4_steps", sol.steps)
        rec.maximum("riccati.max_local_error_estimate", sol.max_local_error_estimate)
    return observe


def _blocks_observer(rec, args, result):
    _, _, controls, cfg = args[:4]
    blown = result[5]
    rec.add("simulate.path_steps", len(controls) * cfg.paths * cfg.steps)
    rec.add("simulate.paths", cfg.paths)
    rec.add("simulate.blown_paths", int(blown.sum()))


def install_tracing(rec: Recorder, slq):
    """Wrap each public function at the attribute its caller resolves.

    ``slq.cli`` and ``slq.strategy`` bind their imports at import time, so
    the same function is wrapped once per importing module under one span
    name.  Count-only wraps (theta_eps, v_eps_parts, GridFn.__call__) keep
    their time in the caller's self time: for run_ladder that is the
    feedback assembly.  The self time of ``simulate`` is the Euler stepping
    and reductions; its one child, ``simulate.rng``, is the per-path normals.
    """
    cli, strategy, bsde, sim = slq.cli, slq.strategy, slq.bsde, slq.simulate
    for owner in (cli, strategy):
        rec.wrap(owner, "run_ladder", "strategy.run_ladder")
        rec.wrap(owner, "solve_gre", "riccati.solve_gre", on_return=_riccati_observer("solve_gre"))
        rec.wrap(owner, "check_regularity", "riccati.check_regularity")
    rec.wrap(cli, "extract_limit", "strategy.extract_limit")
    rec.wrap(cli, "diagnose", "strategy.diagnose")
    for attr in ("riccati_csv", "strategy_csv", "ladder_summary_csv"):
        rec.wrap(cli, attr, "cli.csv")
    rec.wrap(cli, "_write_atomic", "cli.write",
             on_return=lambda r, a, _: r.add("cli.bytes_written", len(a[2].encode("utf-8"))))
    rec.wrap(strategy, "solve_perturbed", "riccati.solve_perturbed",
             on_return=_riccati_observer("solve_perturbed"))
    rec.wrap(strategy, "theta_eps", "strategy.theta_eps", span=False)
    rec.wrap(strategy, "v_eps_parts", "strategy.v_eps_parts", span=False)
    rec.wrap(bsde, "solve_adjoint", "bsde.solve_adjoint")
    rec.wrap(sim, "simulate_ensemble", "simulate")
    rec.wrap(sim, "simulate_coupled", "simulate")
    rec.wrap(sim, "_run_blocks", "simulate.blocks", span=False, on_return=_blocks_observer)
    rec.wrap(sim, "_path_block_normals", "simulate.rng",
             on_return=lambda r, a, z: r.add("simulate.normals", int(z.size)))
    rec.wrap(slq.core.GridFn, "__call__", "core.gridfn", span=False)


def _run_op(wl, op_seed: int, work: str, rec):
    out_dir = tempfile.mkdtemp(prefix="op-", dir=work)
    before = dict(rec.counts) if rec else {}
    if rec:
        rec.maxima = {}
        root = rec.open("op")
    error = None
    t0 = now()
    try:
        wl.run(op_seed, out_dir)
    except GateError as exc:
        error = str(exc)
    except Exception:  # an operation that raises is counted as failed, not fatal
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall = now() - t0
    if rec:
        rec.close(root)
    op = {"seed": op_seed, "wall_s": wall, "error": error}
    if error is None:
        try:
            op["check"] = wl.check(out_dir)
            op["digest"] = digest(out_dir)
        except (GateError, OSError, ValueError, IndexError) as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    if rec:
        op["trace"] = rec.summarize(root)
        op["counts"] = {k: v - before.get(k, 0) for k, v in rec.counts.items()
                        if v != before.get(k, 0)}
        op["maxima"] = dict(rec.maxima)
    return op


def main():
    cfg = json.loads(sys.argv[1])
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy as np
    import slq
    import slq.cli
    import slq.simulate
    import slq.verify

    if not os.path.abspath(slq.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported slq from {slq.__file__}, not from {src}")
    t_load = now()
    p, ip = slq.builtin(WORKLOADS[cfg["workload"]].problem)
    report = slq.validate(p)
    if not report.ok():
        raise SystemExit("invalid problem: " + "; ".join(report.violations))
    load_s = now() - t_load
    result = {
        "ready": time.clock_gettime(time.CLOCK_MONOTONIC),
        "load_s": load_s,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "slq": slq.__version__},
    }
    if not cfg["setup_only"]:
        wl = WORKLOADS[cfg["workload"]](slq, p, ip)
        rec = Recorder() if cfg["trace"] else None
        if rec:
            install_tracing(rec, slq)
        rng = random.Random(f"{cfg['workload']}:{cfg['seed']}")
        ops = []
        t_start = now()
        while len(ops) < MAX_OPS:
            if ops and (now() - t_start) + statistics.median(o["wall_s"] for o in ops) > cfg["seconds"]:
                break
            ops.append(_run_op(wl, rng.getrandbits(32), cfg["work"], rec))
        result["ops"] = ops
        if rec:
            rec.unwrap_all()
            result["absent"] = rec.absent
            result["broken"] = sorted(rec.broken)
            result["spans"] = rec.spans
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
