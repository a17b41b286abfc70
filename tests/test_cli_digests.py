"""The CLI's output bytes against the committed reference digests."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "cli_digests", os.path.join(ROOT, "scripts", "cli_digests.py")
)
cli_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_digests)

# solve and diagnose without --paths run no Monte Carlo: a second or two each
DETERMINISTIC = [
    c for c in cli_digests.COMMANDS if c.split()[0] in ("solve", "diagnose") and "--paths" not in c
]


def test_deterministic_commands_write_the_reference_bytes():
    reference = cli_digests.read_digests(os.path.join(ROOT, "scripts", "cli_digests.txt"))
    assert len(DETERMINISTIC) == 9
    assert dict(cli_digests.digests(DETERMINISTIC)) == {
        cli_digests.shown(c): reference[cli_digests.shown(c)] for c in DETERMINISTIC
    }
