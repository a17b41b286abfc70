"""Benchmark of the slq pipeline: time to a checked result, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve-ex51 --seed 25 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; metric names and units come from
``BENCHMARK.json``.  Every run is closed-loop: one process, one operation at
a time, BLAS/OpenMP threads capped at the number of usable cores.  The
program is imported from ``src/`` of the checkout; without it the run exits
with code 2 and prints no result.

``--trace 0`` starts a few set-up probes (fresh interpreters that import
``slq`` and load the problem) and then one worker that runs operations for
``--seconds``; it reports the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced worker for half the time each and reports the
per-layer metrics; ``trace.overhead_s`` is the difference of their median
operation times.  Operations take their Monte Carlo seeds from ``--seed``, so
both workers of a traced run do identical operations and must emit identical
bytes.

Human-readable lines come first; the last line of standard output is the
JSON result.  The run record (sizes, versions, thread caps, per-operation
digests and work counts, and in traced runs every span) is also written to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
DEADLINE_S = 170.0
# Work counts that must repeat exactly between runs of one seed: "computed"
# from problem and Monte Carlo sizes, or "counted" by a wrapper.
EXACT_COUNTS = {
    "riccati.rk4_steps": "computed",
    "simulate.path_steps": "computed",
    "simulate.normals": "counted",
    "core.gridfn.calls": "counted",
    "strategy.theta_eps.calls": "counted",
    "cli.bytes_written": "counted",
}


class BenchError(Exception):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(values: list) -> float:
    """Highest sample with at least ten samples above it; the maximum below 11 samples."""
    v = sorted(values)
    return v[len(v) - 11] if len(v) >= 11 else v[-1]


class Runner:
    def __init__(self, args, root: str, work: str):
        self.args, self.root, self.work = args, root, work
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, **{k: str(self.nproc) for k in THREAD_VARS})
        self.deadline = _monotonic() + DEADLINE_S

    def spawn(self, name: str, seconds: float, trace: bool, setup_only: bool = False) -> dict:
        result = os.path.join(self.work, name + ".json")
        cfg = {"workload": self.args.workload, "seed": self.args.seed, "seconds": seconds,
               "trace": trace, "setup_only": setup_only, "work": self.work, "result": result}
        t0 = _monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {name} did not finish before the deadline")
        if proc.returncode != 0 or not os.path.exists(result):
            raise BenchError(f"worker {name} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        out["setup_s"] = out["ready"] - t0
        return out


def _median(ops: list, f) -> float:
    return float(statistics.median(f(o) for o in ops)) if ops else 0.0


def end_to_end(runner: Runner) -> tuple:
    setups = [runner.spawn(f"setup{i}", 0, False, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    main = runner.spawn("main", runner.args.seconds, False)
    setups.append(main["setup_s"])
    ops = main["ops"]
    walls = [o["wall_s"] for o in ops]
    failed = sum(o["error"] is not None for o in ops)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "ok_frac": (len(ops) - failed) / len(ops),
    }
    record = {"setup_samples": setups, "wall_samples": walls, "versions": main["versions"],
              "ops": ops, "samples": {"setup_s": len(setups)}}
    return metrics, ops, record


def per_layer(runner: Runner) -> tuple:
    wl = WORKLOADS[runner.args.workload]
    half = runner.args.seconds / 2.0
    plain = runner.spawn("plain", half, False)
    traced = runner.spawn("traced", half, True)
    p_ops, t_ops = plain["ops"], traced["ops"]
    ok = [o for o in t_ops if "trace" in o]

    def busy(n):
        return _median(ok, lambda o: o["trace"]["busy"].get(n, 0.0))

    def self_s(n):
        return _median(ok, lambda o: o["trace"]["self"].get(n, 0.0))

    def count(k):
        return int(statistics.median(o["counts"].get(k, 0) for o in ok)) if ok else 0

    def per_op(f):
        return _median(ok, f)

    plain_wall = _median(p_ops, lambda o: o["wall_s"])
    steps_pert = count("riccati.solve_perturbed.rk4_steps")
    paths = count("simulate.paths")
    thetas = [o["check"]["theta_err_max"] for o in p_ops if "theta_err_max" in o.get("check", {})]
    metrics = {
        "riccati.solve_perturbed.calls": count("riccati.solve_perturbed.calls"),
        "riccati.solve_perturbed.busy_s": busy("riccati.solve_perturbed"),
        "riccati.solve_perturbed.step_us": (
            1e6 * busy("riccati.solve_perturbed") / steps_pert if steps_pert else 0.0),
        "riccati.rk4_steps": count("riccati.rk4_steps"),
        "riccati.max_local_error_estimate": per_op(
            lambda o: o["maxima"].get("riccati.max_local_error_estimate", 0.0)),
        "riccati.solve_gre.busy_s": busy("riccati.solve_gre"),
        "riccati.check_regularity.busy_s": busy("riccati.check_regularity"),
        "bsde.solve_adjoint.calls": count("bsde.solve_adjoint.calls"),
        "bsde.solve_adjoint.busy_s": busy("bsde.solve_adjoint"),
        "strategy.run_ladder.busy_s": busy("strategy.run_ladder"),
        "strategy.run_ladder.self_s": self_s("strategy.run_ladder"),
        "strategy.theta_eps.calls": count("strategy.theta_eps.calls"),
        "strategy.v_eps_parts.calls": count("strategy.v_eps_parts.calls"),
        "strategy.extract_limit.busy_s": busy("strategy.extract_limit"),
        "strategy.diagnose.self_s": self_s("strategy.diagnose"),
        "core.gridfn.calls": count("core.gridfn.calls"),
        "simulate.busy_s": busy("simulate"),
        "simulate.rng.busy_s": busy("simulate.rng"),
        "simulate.step.busy_s": per_op(lambda o: o["trace"]["busy"].get("simulate", 0.0)
                                       - o["trace"]["busy"].get("simulate.rng", 0.0)),
        "simulate.path_steps": count("simulate.path_steps"),
        "simulate.normals": count("simulate.normals"),
        "simulate.blown_paths": count("simulate.blown_paths"),
        "simulate.kept_frac": 1.0 - count("simulate.blown_paths") / paths if paths else 0.0,
        "cli.csv.busy_s": busy("cli.csv"),
        "cli.write.busy_s": busy("cli.write"),
        "cli.bytes_written": count("cli.bytes_written"),
        "problem.load.busy_s": traced["load_s"],
        "trace.overhead_s": _median(t_ops, lambda o: o["wall_s"]) - plain_wall,
        "trace.uncovered_s": per_op(lambda o: o["trace"]["uncovered_s"]),
        "rung_steps_per_s": wl.rungs * wl.riccati_steps / plain_wall,
        "path_steps_per_s": wl.paths * wl.mc_steps * wl.controls / plain_wall,
        "theta_err_max": float(statistics.median(thetas)) if thetas else 0.0,
    }
    ops = p_ops + t_ops
    record = {"versions": traced["versions"], "plain_ops": p_ops, "traced_ops": t_ops,
              "absent": traced["absent"], "broken": traced["broken"], "spans": traced["spans"]}
    return metrics, ops, record


def _layer_lines(record: dict) -> list:
    ok = [o for o in record["traced_ops"] if "trace" in o]
    if not ok:
        return ["no traced operation completed"]
    lines = []
    wall = statistics.median(o["trace"]["wall_s"] for o in ok)
    names = {n for o in ok for n in o["trace"]["self"]}
    shares = sorted(((statistics.median(o["trace"]["self"].get(n, 0.0) for o in ok), n)
                     for n in names), reverse=True)
    uncovered = statistics.median(o["trace"]["uncovered_s"] for o in ok)
    lines.append(f"traced wall_s {wall:.4f} s: top-level spans cover "
                 f"{100 * (1 - uncovered / wall):.1f}%, uncovered {uncovered:.4f} s")
    lines.append("self time by span (share of traced wall_s): " + ", ".join(
        f"{n} {100 * s / wall:.1f}%" for s, n in shares[:5]))
    if shares:
        lines.append(f"dominant layer: {shares[0][1]}")
    plain = {o["seed"]: o.get("digest") for o in record["plain_ops"]}
    pairs = [(plain[o["seed"]], o.get("digest")) for o in ok if o["seed"] in plain]
    lines.append(f"traced digests equal untraced: {sum(a == b for a, b in pairs)}/{len(pairs)}")
    for k, kind in EXACT_COUNTS.items():
        vals = sorted({o["counts"].get(k, 0) for o in ok})
        lines.append(f"count {k} ({kind}): " + ("/".join(map(str, vals))))
    for name in record["absent"]:
        lines.append(f"absent: {name} (no such attribute; its spans read 0)")
    for msg in record["broken"]:
        lines.append(f"observer failed: {msg}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"error: run from the repository root ({exc})", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "slq", "__init__.py")):
        print("error: src/slq not found; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        runner = Runner(args, root, work)
        metrics, ops, record = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print("error: runner computes no value for " + ", ".join(missing), file=sys.stderr)
        return 1

    failed = sum(o["error"] is not None for o in ops)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={runner.nproc} threads={runner.nproc} "
          f"versions={record['versions']}")
    for o in ops:
        status = "ok" if o["error"] is None else "FAILED: " + o["error"]
        print(f"op seed={o['seed']} wall_s={o['wall_s']:.4f} digest={o.get('digest', '-')[:16]} "
              f"{status}")
    if args.trace:
        for line in _layer_lines(record):
            print(line)
    samples = len(record.get("wall_samples", ())) or len(record.get("traced_ops", ()))
    for m in declared:
        n = record.get("samples", {}).get(m["name"], samples)
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']:6s} (samples: {n})")

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": runner.nproc,
        "thread_caps": {k: runner.env[k] for k in THREAD_VARS},
        "exact_counts": EXACT_COUNTS, "metrics": metrics,
    })
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"run record: {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
