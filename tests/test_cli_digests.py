"""The CLI's output bytes against the committed reference digests."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "cli_digests", os.path.join(ROOT, "scripts", "cli_digests.py")
)
cli_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_digests)


def test_every_command_writes_the_reference_bytes():
    # the nine Monte Carlo commands too, so a change to the draw or the
    # Euler loop that moves a byte fails here
    reference = cli_digests.read_digests(os.path.join(ROOT, "scripts", "cli_digests.txt"))
    assert len(cli_digests.COMMANDS) == 27
    assert dict(cli_digests.digests(cli_digests.COMMANDS)) == reference
