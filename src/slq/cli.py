"""Command-line entry point.

Subcommands: ``solve`` (eps-ladder + weak limit extraction), ``diagnose``
(closed-loop / open-loop / weak closed-loop verdicts), ``simulate`` (Monte
Carlo cost of a chosen control), ``verify-example`` (acceptance checks for a
built-in problem).  All numeric output uses 17 significant digits so doubles
round-trip; files are written atomically via rename, and nothing is written
when a run fails.

Defaults can be placed in a config file of ``key = value`` lines.  A key is
the long flag of any run subcommand with dashes replaced by underscores, at
most once per file, and its value is typed by that flag's declaration
(``yes``/``no`` for ``dump_paths``).  Explicit flags override the file; an
unknown or repeated key or a malformed value is an error that names the file
and line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

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

__all__ = ["main"]

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_DEFAULT_PATHS = 20_000  # simulate's paths at --paths 0


def _read_config_file(path: str, flags: dict) -> dict:
    """The settings of a config file, each typed by the type and choices of
    the flag its key names in ``flags`` (``{key: Action}``).  An unknown or
    repeated key or a value the flag refuses is an error that names
    ``path:line``."""
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
            if key not in flags:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            flag = flags[key]
            # a --builtin flag is checked by the loader, a file's value here
            choices = builtin_names() if key == "builtin" else flag.choices
            try:
                out[key] = _BOOLS[val.lower()] if flag.nargs == 0 else (flag.type or str)(val)
                if choices is not None and out[key] not in choices:
                    raise ValueError(val)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: bad value {val!r} for {key}") from None
    return out


def _check(args: argparse.Namespace):
    """The bounds no argparse type states, on flags and config values alike."""
    if args.paths < 0:
        raise ValueError(f"paths must be >= 0, got {args.paths}")
    if args.mc_steps < 16:
        raise ValueError(f"--mc-steps must be >= 16, got {args.mc_steps}")
    # diagnose has no --tol, but a config file may still set it
    if "tol" in args and not args.tol > 0.0:
        raise ValueError(f"--tol must be positive, got {args.tol:g}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")


def _load(cfg: argparse.Namespace):
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


def _monte_carlo(cfg: argparse.Namespace, simulate, *args, **kwargs):
    """``simulate(*args, mc, **kwargs)``, naming on stderr the paths it zeroed."""
    paths = cfg.paths if cfg.paths > 0 else _DEFAULT_PATHS
    mc = MonteCarloConfig(paths=paths, steps=cfg.mc_steps, master_seed=cfg.seed)
    res = simulate(*args, mc, **kwargs)
    if res.blown.any():
        print(f"warning: {int(res.blown.sum())} of {paths} paths left the finite regime "
              "and were zeroed", file=sys.stderr)
    return res


def _cmd_solve(cfg: argparse.Namespace) -> int:
    p, ip = _load(cfg)
    delta = cfg.delta if cfg.delta is not None else 1e-2 * p.T
    ladder = default_ladder(cfg.eps_max, cfg.eps_min, cfg.ladder_factor)
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


def _cmd_diagnose(cfg: argparse.Namespace) -> int:
    p, ip = _load(cfg)
    ladder = default_ladder(cfg.eps_max, cfg.eps_min, cfg.ladder_factor)
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

    dist_by_eps = dict(rep.u_distances)
    # exact values carry no standard error
    table = np.array([(e, v, 0.0, dist_by_eps.get(e, np.nan)) for e, v in rep.u_norms])
    csv = csv_text("eps,u_norm_sq,u_norm_se,u_l2_dist_to_next", [table])
    _write_atomic(cfg.out, "solvability.csv", csv)
    _write_atomic(cfg.out, "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_simulate(cfg: argparse.Namespace) -> int:
    p, ip = _load(cfg)
    # argparse and the config file admit only zero and feedback
    if cfg.control == "zero":
        ctrl = ControlSpec.zero()
    else:
        ladder = default_ladder(cfg.eps_max, cfg.eps_min, cfg.ladder_factor)
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


def _shown(default) -> str:
    """A default as ``--help`` states it: 2^k for a power of two below 1/2."""
    if isinstance(default, float):
        mant, exp = math.frexp(default)
        return f"2^{exp - 1}" if mant == 0.5 and exp < 0 else f"{default:g}"
    return str(default)


def _add_run_options(sp: argparse.ArgumentParser, command: str) -> dict:
    """Declare ``command``'s options on ``sp``, each help line stating its
    default; return the options a config file may set, as ``{key: Action}``."""

    def opt(flag, help, default=None, **kwargs):
        if default is not None:
            help = f"{help} (default {_shown(default)})"
        return sp.add_argument(flag, default=default, help=help, **kwargs)

    sp.add_argument("--config", help="config file of key = value defaults")
    # the diagnose verdicts read exact moments, so any ladder depth the
    # Riccati grid resolves is usable; by default they keep the six rungs
    # 2^0 .. 2^-5, one more than the shrink and growth tests need
    eps_min = 2.0**-5 if command == "diagnose" else 2.0**-10
    no_paths = _DEFAULT_PATHS if command == "simulate" else "none"
    flags = [
        opt("--builtin", "built-in problem name"),
        opt("--problem", "problem definition file"),
        opt("--t", "initial time (default 0)", type=float),
        opt("--x", "initial state, comma-separated"),
        opt("--eps-max", "ladder start", 1.0, type=float),
        opt("--eps-min", "ladder end", eps_min, type=float),
        opt("--ladder-factor", "geometric ladder factor in (0,1)", 0.5, type=float),
        opt("--steps", "solver grid steps", 2000, type=int),
    ]
    if command != "diagnose":  # diagnose extracts no limit
        flags += [
            opt("--delta", "extraction window gap (default 1e-2*T)", type=float),
            opt("--tol", "extraction tolerance", 1e-3, type=float),
        ]
    flags += [
        opt("--paths", f"Monte Carlo paths, 0 for {no_paths}", 0, type=int),
        opt("--mc-steps", "Monte Carlo time steps", 1024, type=int),
        opt("--seed", "64-bit master seed", verify_mod.MASTER_SEED, type=int),
        opt("--out", "output directory", "."),
    ]
    if command == "simulate":
        flags.append(opt("--control", "control to simulate", "feedback",
                         choices=("zero", "feedback")))
        flags.append(sp.add_argument("--dump-paths", action="store_true",
                                     help="also write per-path trajectories (large)"))
    return {f.dest: f for f in flags}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slq",
        description="Weak closed-loop strategies for stochastic LQ control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = {
        "solve": (_cmd_solve, "run the eps ladder and extract the weak limit"),
        "diagnose": (_cmd_diagnose, "closed-loop/open-loop solvability verdicts"),
        "simulate": (_cmd_simulate, "Monte Carlo simulation of a control"),
    }
    parsers, flags = {}, {}  # a config key may name the flag of any run command
    for command, (_, help) in run.items():
        parsers[command] = sub.add_parser(command, help=help)
        flags.update(_add_run_options(parsers[command], command))
    sp = sub.add_parser("verify-example", help="run acceptance checks for a built-in")
    sp.add_argument("example", help="built-in name, e.g. example-5.1")

    args = parser.parse_args(argv)
    if args.command == "verify-example":
        return _cmd_verify(args)
    try:
        if args.config:
            # the file's values become defaults, so a flag still overrides them
            parsers[args.command].set_defaults(**_read_config_file(args.config, flags))
            args = parser.parse_args(argv)
        _check(args)
        return run[args.command][0](args)
    except Exception as exc:  # uniform error contract: message to stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
