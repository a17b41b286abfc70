"""Print a sha256 prefix of the files each recorded CLI command writes.

Run from the repo root, e.g. ``python3 scripts/cli_digests.py``; it imports
``slq`` from the repository's ``src``.  Each command writes into a fresh
directory; its digest is the sha256 over the sorted file names, each
followed by a NUL byte and the file's bytes, cut to 16 hex digits.  Equal
digests before and after a change mean that change left the CLI's output
bytes alone.

``--compare FILE`` reads an earlier run's output from FILE and, after the
digests, prints each command whose digest changed or that FILE lacks; the
exit code is 1 if there is one.  ``scripts/cli_digests.txt`` is such an
output, the reference the test suite compares every command with, the
Monte Carlo ones included; regenerate it only for a change that means to
alter the bytes.  The Monte Carlo commands' bytes follow from the row-tile
noise streams of ``slq.simulate`` (draw d of path i is element i mod 8192 of
the normals of Philox keyed by (seed, d 2^32 + i // 8192)) and from the Euler
arithmetic; block sizes and thread counts do not enter them.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from slq.cli import main  # noqa: E402

# problem files, written as <key with - for _>.slq into the working
# directory; commands name them relative to it, as the report quotes the path
PROBLEMS = {
    # the linear terminal weight g = 1 of tests/test_cli.py: P = 0, so the
    # adjoint eta is g at every node
    "linear_terminal": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
        "[coef.B]\nconstant = 1\n[terminal]\nG = 0\ng = 1\n"
    ),
    # time tables for A and Q, nonzero D and S: a coefficient row per
    # quarter-grid node of the Riccati stage
    "time_table": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
        "[coef.A]\n0 : -0.5\n1 : 0.8\n[coef.B]\nconstant = 1\n"
        "[coef.C]\nconstant = 0.4\n[coef.D]\nconstant = 0.7\n"
        "[coef.Q]\n0 : 1\n0.5 : 0.2\n1 : 0.6\n[coef.S]\nconstant = 0.3\n"
        "[coef.R]\nconstant = 1\n[terminal]\nG = 1\n"
    ),
    # R = 0.5, Q = 1, G = -1: the generalized flow blows up near s = 0.373
    # and its row stays frozen while the rungs go on
    "gre_blowup": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
        "[coef.B]\nconstant = 1\n[coef.Q]\nconstant = 1\n"
        "[coef.R]\nconstant = 0.5\n[terminal]\nG = -1\n"
    ),
    # example 5.1 with the drift profile 1/sqrt(T - s) in place of
    # e^{-s}/sqrt(T - s): the other named profile
    "inv_sqrt_gap": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
        "[coef.A]\nconstant = -1\n[coef.B]\nconstant = 1\n"
        "[coef.C]\nconstant = 1.4142135623730951\n[terminal]\nG = 1\n"
        "[input.b]\ndeterministic = 0\ngamma = 1.4142135623730951\n"
        "profile = named:inv-sqrt-gap\n"
    ),
    # n = 2, m = 1 with R = 0: the only problem here on the numpy
    # backend of the Riccati pass
    "two_state": (
        "[dims]\nn = 2\nm = 1\n[horizon]\nT = 1\n"
        "[coef.A]\nconstant = 0, 1; -1, 0\n[coef.B]\nconstant = 0; 1\n"
        "[coef.C]\nconstant = 0.3, 0; 0, 0.3\n[coef.D]\nconstant = 0; 0.5\n"
        "[coef.Q]\nconstant = 1, 0; 0, 0\n[coef.S]\nconstant = 0.2, 0\n"
        "[coef.R]\nconstant = 0\n[terminal]\nG = 1, 0; 0, 1\ng = 0.5, 0\n"
        "[input.b]\ndeterministic = 0.1, 0\n"
    ),
    # nonzero b, a sigma table, q and rho, with g = 0.1: the only problem
    # here whose every deterministic input forces the adjoint
    "forced_inputs": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
        "[coef.A]\nconstant = -0.5\n[coef.B]\nconstant = 1\n[coef.C]\nconstant = 0.4\n"
        "[coef.D]\nconstant = 0.2\n[coef.Q]\nconstant = 1\n[coef.S]\nconstant = 0.1\n"
        "[coef.R]\nconstant = 1\n[terminal]\nG = 1\ng = 0.1\n"
        "[input.b]\ndeterministic = 0.2\n"
        "[input.sigma]\ndeterministic = table\n0 : 0.3\n1 : 0.1\n"
        "[input.q]\ndeterministic = 0.1\n[input.rho]\ndeterministic = 0.05\n"
    ),
    # example 5.1 with D = 0.2, R = 0.5, g = 0.1 and a sigma table, q and rho
    # beside its modulated drift: the adjoint superposes the sweep's eta
    # and the modulated h
    "forced_modulated": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
        "[coef.A]\nconstant = -1\n[coef.B]\nconstant = 1\n"
        "[coef.C]\nconstant = 1.4142135623730951\n[coef.D]\nconstant = 0.2\n"
        "[coef.R]\nconstant = 0.5\n[terminal]\nG = 1\ng = 0.1\n"
        "[input.b]\ndeterministic = 0\ngamma = 1.4142135623730951\n"
        "profile = named:exp-inv-sqrt-gap\n"
        "[input.sigma]\ndeterministic = table\n0 : 0.3\n1 : 0.1\n"
        "[input.q]\ndeterministic = 0.1\n[input.rho]\ndeterministic = 0.05\n"
    ),
    # forced_modulated with two controls: B = (1, 0.4), D = (0.2, -0.3),
    # a full R, S = (0.1, 0)' and rho = (0.05, -0.02); the modulated
    # reduction needs a scalar state only
    "two_control_modulated": (
        "[dims]\nn = 1\nm = 2\n[horizon]\nT = 1\n"
        "[coef.A]\nconstant = -1\n[coef.B]\nconstant = 1, 0.4\n"
        "[coef.C]\nconstant = 1.4142135623730951\n[coef.D]\nconstant = 0.2, -0.3\n"
        "[coef.S]\nconstant = 0.1; 0\n[coef.R]\nconstant = 0.5, 0.1; 0.1, 0.7\n"
        "[terminal]\nG = 1\ng = 0.1\n"
        "[input.b]\ndeterministic = 0\ngamma = 1.4142135623730951\n"
        "profile = named:exp-inv-sqrt-gap\n"
        "[input.sigma]\ndeterministic = table\n0 : 0.3\n1 : 0.1\n"
        "[input.q]\ndeterministic = 0.1\n[input.rho]\ndeterministic = 0.05, -0.02\n"
    ),
    # the problem of tests/test_cli.py's blown paths: dX = 32 X ds + X dW,
    # where 9 of 4000 paths pass 1e12 in 64 Euler steps at seed 25 and are
    # left out of the means
    "blows": (
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[coef.A]\nconstant = 32\n"
        "[coef.C]\nconstant = 1\n[coef.R]\nconstant = 1\n[terminal]\nG = 0\n"
    ),
}

# config files, written as <key with - for _>.conf beside the problem files
CONFIGS = {
    # the flags of the third command, read from a file instead: the same bytes
    "steps_400": "steps = 400\neps_min = 3e-5\n",
}

COMMANDS = [
    "solve --builtin example-5.1",
    "solve --builtin example-1.1",
    "solve --builtin standard-scalar --eps-min 3e-5 --steps 400",
    "solve --builtin example-5.1 --steps 200 --eps-min 0.125 --paths 500 --mc-steps 64",
    "diagnose --builtin example-1.1 --seed 7",
    "diagnose --builtin standard-scalar --steps 400 --paths 4000 --mc-steps 256",
    "diagnose --builtin example-5.1 --steps 1000 --paths 8000 --mc-steps 512",
    "simulate --builtin example-1.1 --control zero --paths 20000 --mc-steps 256",
    "simulate --builtin example-5.1 --control feedback --paths 4000 --mc-steps 256 "
    "--steps 400 --eps-min 0.0625",
    "simulate --builtin example-5.1 --control feedback --delta 0.25 --paths 4000 "
    "--mc-steps 256 --steps 400 --eps-min 0.0625",
    "simulate --builtin example-1.1 --control zero --paths 3 --mc-steps 16 --dump-paths",
    "diagnose --problem {linear_terminal}",
    "solve --problem {time_table} --steps 400",
    "diagnose --problem {time_table} --steps 400",
    "solve --problem {gre_blowup} --steps 512 --eps-min 0.25",
    "diagnose --problem {gre_blowup} --steps 512 --eps-min 0.25",
    "diagnose --problem {inv_sqrt_gap} --steps 400",
    "solve --problem {two_state} --steps 400 --eps-min 0.125",
    "diagnose --problem {two_state} --steps 400",
    "solve --builtin standard-scalar --config {steps_400}",
    "solve --problem {forced_inputs} --steps 400 --eps-min 0.125",
    "diagnose --problem {forced_inputs} --steps 400 --paths 2000 --mc-steps 64",
    "simulate --problem {forced_inputs} --control feedback --steps 400 --eps-min 0.125 "
    "--paths 2000 --mc-steps 64",
    "solve --problem {forced_modulated} --steps 400 --eps-min 0.125",
    "diagnose --problem {forced_modulated} --steps 400",
    "solve --problem {two_control_modulated} --steps 400 --eps-min 0.125",
    "diagnose --problem {two_control_modulated} --steps 400",
    "simulate --problem {blows} --control zero --paths 4000 --mc-steps 64",
]


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _file(key: str) -> str:
    return key.replace("_", "-") + (".conf" if key in CONFIGS else ".slq")


def shown(command: str) -> str:
    return command.format(**{k: _file(k) for k in {**PROBLEMS, **CONFIGS}})


def run(command: str, work: str) -> str:
    out = tempfile.mkdtemp(dir=work)
    with contextlib.redirect_stdout(io.StringIO()):
        main([*shown(command).split(), "--out", out])
    return digest(out)


def read_digests(path: str) -> dict:
    """``{command: digest}`` from the lines of an earlier run."""
    with open(path, encoding="utf-8") as fh:
        pairs = (line.rstrip("\n").split("  slq ", 1) for line in fh if "  slq " in line)
        return {command: value for value, command in pairs}


def digests(commands):
    """Yield ``(shown command, digest)`` for each of ``commands``, run in a
    scratch working directory that holds the problem and config files."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for key, text in {**PROBLEMS, **CONFIGS}.items():
                with open(_file(key), "w", encoding="utf-8") as fh:
                    fh.write(text)
            for command in commands:
                yield shown(command), run(command, work)
        finally:
            os.chdir(home)


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", metavar="FILE", help="an earlier run's output to compare with")
    args = ap.parse_args(argv)
    earlier = read_digests(args.compare) if args.compare else None
    now = {}
    for command, value in digests(COMMANDS):
        now[command] = value
        print(f"{value}  slq {command}", flush=True)
    if earlier is None:
        return 0
    changed = [(earlier.get(c, "absent"), d, c) for c, d in now.items() if earlier.get(c) != d]
    for old, new, command in changed:
        print(f"changed: {old} -> {new}  slq {command}")
    print(f"{len(changed)} of {len(now)} digests differ from {args.compare}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(_main())
