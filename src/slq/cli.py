"""Command-line entry point.

Subcommands: ``solve`` (eps-ladder + weak limit extraction), ``diagnose``
(closed-loop / open-loop / weak closed-loop verdicts), ``simulate`` (Monte
Carlo cost of a chosen control), ``verify-example`` (acceptance checks for a
built-in problem).  All numeric output uses 17 significant digits so doubles
round-trip; files are written atomically via rename, and nothing is written
when a run fails.

Defaults can be placed in a config file of ``key = value`` lines (keys match
the long flag names with dashes replaced by underscores); explicit flags
override the file, and an unknown key or a malformed value is an error
that names the file and line.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import csv_text
from .problem import InitialPair, builtin, builtin_names, validate
from .problemfile import load_problem
from .riccati import riccati_csv
from .simulate import (
    ControlSpec,
    MonteCarloConfig,
    control_norm,
    estimate_cost,
    estimate_csv_row,
    ESTIMATE_CSV_HEADER,
    mean_se,
    simulate_coupled,
    simulate_ensemble,
    terminal_moment,
)
from .strategy import (
    closed_loop_test,
    default_ladder,
    diagnose,
    extract_limit,
    ladder_summary_csv,
    run_ladder,
    strategy_csv,
)
from . import verify as verify_mod

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    command: str
    builtin: Optional[str] = None
    problem: Optional[str] = None
    t: Optional[float] = None  # None -> problem default (0 for files)
    x: Optional[str] = None
    eps_max: float = 1.0
    eps_min: Optional[float] = None  # None -> 2^-10 (solve), 2^-5 (diagnose)
    ladder_factor: float = 0.5
    steps: int = 2000
    delta: Optional[float] = None  # None -> 1e-2 * T
    tol: float = 1e-3
    paths: int = 0
    mc_steps: int = 1024
    seed: int = verify_mod.MASTER_SEED
    out: str = "."
    control: str = "feedback"
    dump_paths: bool = False


_FLOAT_KEYS = {"t", "eps_max", "eps_min", "ladder_factor", "delta", "tol"}
_INT_KEYS = {"steps", "paths", "mc_steps", "seed"}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}
_CHOICES = {"control": ("zero", "feedback"), "builtin": tuple(builtin_names())}


def _coerce(key: str, val: str):
    if key in _FLOAT_KEYS:
        return float(val)
    if key in _INT_KEYS:
        return int(val)
    if key == "dump_paths":
        return _BOOLS[val.lower()]
    if val not in _CHOICES.get(key, (val,)):
        raise ValueError(val)
    return val


def _read_config_file(path: str) -> dict:
    """The typed settings of a config file; an unknown key or a value of the
    wrong type is an error that names ``path:line``."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _coerce(key, val)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: bad value {val!r} for {key}") from None
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig(command=args.command, **file_vals)
    for f in fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            setattr(cfg, f.name, flag_val)
    if cfg.paths < 0:
        raise ValueError(f"paths must be >= 0, got {cfg.paths}")
    if cfg.mc_steps < 16:
        raise ValueError(f"--mc-steps must be >= 16, got {cfg.mc_steps}")
    if not cfg.tol > 0.0:
        raise ValueError(f"--tol must be positive, got {cfg.tol:g}")
    return cfg


def _load(cfg: RunConfig):
    if (cfg.builtin is None) == (cfg.problem is None):
        raise ValueError("give exactly one of --builtin or --problem")
    if cfg.builtin is not None:
        p, ip_default = builtin(cfg.builtin)
    else:
        p = load_problem(cfg.problem)
        ip_default = InitialPair(t=0.0, x=np.ones(p.n))
    report = validate(p)
    if not report.ok():
        raise ValueError("invalid problem: " + "; ".join(report.violations))
    t = cfg.t if cfg.t is not None else ip_default.t
    try:
        x = ip_default.x if cfg.x is None else np.array([float(v) for v in cfg.x.split(",")])
    except ValueError:
        raise ValueError(f"--x must be comma-separated numbers, got {cfg.x!r}") from None
    ip = InitialPair(t=t, x=x)
    ip.check(p)
    return p, ip


def _write_atomic(out_dir: str, name: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _monte_carlo(cfg: RunConfig, simulate, *args, **kwargs):
    """``simulate(*args, mc, **kwargs)``, naming on stderr the paths it zeroed."""
    paths = cfg.paths if cfg.paths > 0 else 20_000
    mc = MonteCarloConfig(paths=paths, steps=cfg.mc_steps, master_seed=cfg.seed)
    res = simulate(*args, mc, **kwargs)
    if res.blown.any():
        print(f"warning: {int(res.blown.sum())} of {paths} paths left the finite regime "
              "and were zeroed", file=sys.stderr)
    return res


def _cmd_solve(cfg: RunConfig) -> int:
    p, ip = _load(cfg)
    delta = cfg.delta if cfg.delta is not None else 1e-2 * p.T
    eps_min = cfg.eps_min if cfg.eps_min is not None else 2.0**-10
    ladder = default_ladder(cfg.eps_max, eps_min, cfg.ladder_factor)
    P0, *sols = run_ladder(p, [0.0, *ladder], cfg.steps)
    ws = extract_limit(sols, delta=delta, tol=cfg.tol)

    u_norms = None
    if cfg.paths > 0:
        cpl = _monte_carlo(cfg, simulate_coupled, p, ip, [s.control for s in sols])
        means, ses = mean_se(cpl.control_norm_sq)
        u_norms = [(s.epsilon, float(v), float(se)) for s, v, se in zip(sols, means, ses)]

    texts = riccati_csv([s.P for s in sols])
    files = {f"riccati_eps_{k}.csv": text for k, text in enumerate(texts)}
    files["strategy.csv"] = strategy_csv(ws)
    files["ladder_summary.csv"] = ladder_summary_csv(sols, ws.cauchy_evidence, u_norms)

    lines = [
        f"problem: {p.name or cfg.problem}",
        f"ladder: eps in [{ladder[-1]:.6g}, {ladder[0]:.6g}], {len(ladder)} rungs, "
        f"steps={cfg.steps}",
        f"extraction window: [0, {p.T - delta:.17g}] (delta={delta:.6g}), tol={cfg.tol:g}",
        f"extraction: {'converged' if ws.converged else 'inconclusive'}",
        "cauchy evidence (eps, theta distance, v distance):",
    ]
    for eps, dth, dv in ws.cauchy_evidence:
        lines.append(f"  {eps:.10g}, {dth:.6e}, {dv:.6e}")
    lines += closed_loop_test(p, P0).lines()
    files["report.txt"] = "\n".join(lines) + "\n"

    for name, text in files.items():
        _write_atomic(cfg.out, name, text)
    print("\n".join(lines))
    return 0 if ws.converged else 2


def _cmd_diagnose(cfg: RunConfig) -> int:
    p, ip = _load(cfg)
    # the verdicts read exact moments, so any ladder depth the Riccati grid
    # resolves is usable (--eps-min); by default diagnose keeps the six
    # rungs 2^0 .. 2^-5, one more than its shrink and growth tests need
    eps_min = cfg.eps_min if cfg.eps_min is not None else 2.0**-5
    ladder = default_ladder(cfg.eps_max, eps_min, cfg.ladder_factor)
    rep = diagnose(p, ip, ladder, cfg.steps)

    closed, *detail = rep.closed_loop.lines()
    open_v = {"solvable": "solvable", "not-solvable": "NOT solvable"}.get(
        rep.open_loop_verdict, "inconclusive"
    )
    lines = [closed, f"open-loop: {open_v}", f"weak-closed-loop: {open_v}", *detail]
    lines.append(f"  last u-distance ratio: {rep.convergence_ratio:.4f}")
    lines.append("  u-norms (eps, E int |u|^2): " + "; ".join(
        f"{e:.6g}: {v:.6g}" for e, v in rep.u_norms
    ))
    if cfg.paths > 0:
        # a cross-check only: the verdicts above never read it
        cpl = _monte_carlo(cfg, simulate_coupled, p, ip, rep.controls)
        lines.append("  monte carlo cross-check (eps, mean +- se vs exact): " + "; ".join(
            f"{e:.6g}: {mean:.6g} +- {se:.2g} vs {v:.6g}"
            for (e, v), mean, se in zip(rep.u_norms, *mean_se(cpl.control_norm_sq))
        ))

    csv_lines = ["eps,u_norm_sq,u_norm_se,u_l2_dist_to_next"]
    dist_by_eps = dict(rep.u_distances)
    for e, v in rep.u_norms:
        d = dist_by_eps.get(e)
        # exact values carry no standard error
        csv_lines.append(f"{e:.17g},{v:.17g},0," + (f"{d:.17g}" if d is not None else "nan"))

    _write_atomic(cfg.out, "solvability.csv", "\n".join(csv_lines) + "\n")
    _write_atomic(cfg.out, "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    p, ip = _load(cfg)
    # argparse and the config file admit only zero and feedback
    if cfg.control == "zero":
        ctrl = ControlSpec.zero()
    else:
        eps_min = cfg.eps_min if cfg.eps_min is not None else 2.0**-10
        ladder = default_ladder(cfg.eps_max, eps_min, cfg.ladder_factor)
        sols = run_ladder(p, ladder, cfg.steps)
        delta = cfg.delta if cfg.delta is not None else 1e-2 * p.T
        ctrl = extract_limit(sols, delta=delta, tol=cfg.tol).control

    ens = _monte_carlo(cfg, simulate_ensemble, p, ip, ctrl, record_paths=cfg.dump_paths)
    rows = [ESTIMATE_CSV_HEADER]
    rows.append(estimate_csv_row(estimate_cost(p, ip, ens)))
    rows.append(estimate_csv_row(control_norm(ens)))
    rows.append(estimate_csv_row(terminal_moment(ens)))
    _write_atomic(cfg.out, "ensemble.csv", "\n".join(rows) + "\n")
    if cfg.dump_paths and ens.recorded is not None:
        _write_atomic(cfg.out, "paths.csv", _paths_csv(ens))
    print("\n".join(rows))
    return 0


def _paths_csv(ens) -> str:
    rec = ens.recorded
    n = ens.X_T.shape[2]
    m = rec["u"].shape[3]
    header = "path,k,s,W," + ",".join(f"X_{i+1}" for i in range(n)) + "," + ",".join(
        f"u_{i+1}" for i in range(m)
    )
    paths, nodes = rec["W"].shape
    i, k = np.divmod(np.arange(paths * nodes), nodes)  # one row per (path, node), path-major
    cols = (i, k, rec["s"][k], rec["W"], rec["X"][0], rec["u"][0])
    return csv_text(header, [c.reshape(i.size, -1) for c in cols])


def _cmd_verify(args) -> int:
    name = args.example
    try:
        cids = verify_mod.criteria_for(name)
    except KeyError:
        print(f"unknown example {name!r}; choose from {builtin_names()}", file=sys.stderr)
        return 1
    all_ok = True
    for cid in cids:
        result = verify_mod.run_criterion(cid)
        print("\n".join(result.lines()), flush=True)
        all_ok &= result.passed
    print("verdict:", "ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


def _add_common(sp: argparse.ArgumentParser, eps_min: str, no_paths: str):
    sp.add_argument("--builtin", help="built-in problem name")
    sp.add_argument("--problem", help="problem definition file")
    sp.add_argument("--config", help="config file of key = value defaults")
    sp.add_argument("--t", type=float, help="initial time (default 0)")
    sp.add_argument("--x", help="initial state, comma-separated")
    sp.add_argument("--eps-max", dest="eps_max", type=float, help="ladder start (default 1)")
    sp.add_argument("--eps-min", dest="eps_min", type=float, help=f"ladder end (default {eps_min})")
    sp.add_argument("--ladder-factor", dest="ladder_factor", type=float,
                    help="geometric ladder factor in (0,1) (default 0.5)")
    sp.add_argument("--steps", type=int, help="solver grid steps (default 2000)")
    sp.add_argument("--delta", type=float, help="extraction window gap (default 1e-2*T)")
    sp.add_argument("--tol", type=float, help="extraction tolerance (default 1e-3)")
    sp.add_argument("--paths", type=int, help=f"Monte Carlo paths, 0 for {no_paths} (default 0)")
    sp.add_argument("--mc-steps", dest="mc_steps", type=int,
                    help="Monte Carlo time steps (default 1024)")
    sp.add_argument("--seed", type=int, help=f"64-bit master seed (default {verify_mod.MASTER_SEED})")
    sp.add_argument("--out", help="output directory (default .)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slq",
        description="Weak closed-loop strategies for stochastic LQ control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the eps ladder and extract the weak limit")
    _add_common(sp, "2^-10", "none")
    sp = sub.add_parser("diagnose", help="closed-loop/open-loop solvability verdicts")
    _add_common(sp, "2^-5", "none")
    sp = sub.add_parser("simulate", help="Monte Carlo simulation of a control")
    _add_common(sp, "2^-10", "20000")
    sp.add_argument("--control", choices=_CHOICES["control"], help="control to simulate")
    sp.add_argument("--dump-paths", dest="dump_paths", action="store_true", default=None,
                    help="also write per-path trajectories (large)")
    sp = sub.add_parser("verify-example", help="run acceptance checks for a built-in")
    sp.add_argument("example", help="built-in name, e.g. example-5.1")

    args = parser.parse_args(argv)
    if args.command == "verify-example":
        return _cmd_verify(args)
    try:
        cfg = _build_config(args)
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "diagnose":
            return _cmd_diagnose(cfg)
        return _cmd_simulate(cfg)
    except Exception as exc:  # uniform error contract: message to stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
