"""Print a sha256 prefix of the files each recorded CLI command writes.

Run from the repo root, e.g. ``PYTHONPATH=src python3 scripts/cli_digests.py``.
Each command writes into a fresh directory; its digest is the sha256 over
the sorted file names, each followed by a NUL byte and the file's bytes,
cut to 16 hex digits.  Equal digests before and after a change mean that
change left the CLI's output bytes alone.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from slq.cli import main

# diagnose on the linear terminal weight g = 1 of tests/test_cli.py: the
# only command here whose adjoint eta is nonzero
LINEAR_TERMINAL = (
    "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
    "[coef.B]\nconstant = 1\n[terminal]\nG = 0\ng = 1\n"
)

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
]


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run(command: str, work: str) -> str:
    out = tempfile.mkdtemp(dir=work)
    argv = command.format(linear_terminal=os.path.join(work, "linear-terminal.slq")).split()
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--out", out])
    return digest(out)


def _main() -> int:
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "linear-terminal.slq"), "w", encoding="utf-8") as fh:
            fh.write(LINEAR_TERMINAL)
        for command in COMMANDS:
            shown = command.format(linear_terminal="linear-terminal.slq")
            print(f"{run(command, work)}  slq {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
