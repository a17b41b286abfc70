"""The benchmark's tracing still finds every name it wraps.

``perfbench/worker.py`` times the program from outside by replacing module
attributes; a name a refactor removes is only reported as absent, and a
count whose observer no longer fits the result is only reported as broken,
so the per-layer metric goes blank without failing the benchmark.  This
test fails instead.  It imports the two perfbench modules and changes
nothing under ``perfbench/``.
"""

import os
import threading

import pytest

import slq
import slq.cli
from slq import simulate
from slq.problem import builtin

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# names the tracing asks for that the program no longer binds there; a new
# entry is a per-layer metric that reads nothing
ABSENT = [
    ".slq.cli.solve_gre",
    ".slq.cli.check_regularity",
    ".slq.strategy.solve_gre",
    ".slq.strategy.solve_perturbed",
    ".slq.strategy.theta_eps",
    ".slq.strategy.v_eps_parts",
    ".slq.simulate._path_block_normals",
]


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import worker

    originals = (simulate.simulate_ensemble, simulate.simulate_coupled, simulate._run_blocks)
    rec = spans.Recorder()
    worker.install_tracing(rec, slq)
    try:
        yield rec
    finally:
        rec.unwrap_all()
    assert (simulate.simulate_ensemble, simulate.simulate_coupled, simulate._run_blocks) == originals


def test_tracing_wraps_every_name_but_the_known_absent(traced):
    assert traced.absent == ABSENT


def test_each_simulation_is_one_span_with_its_counts(traced):
    p, ip = builtin("example-1.1")
    cfg = simulate.MonteCarloConfig(paths=300, steps=16, master_seed=5)
    simulate.simulate_ensemble(p, ip, simulate.ControlSpec.zero(), cfg, block_size=128)
    simulate.simulate_coupled(p, ip, [simulate.ControlSpec.zero()] * 3, cfg, block_size=128)
    assert traced.broken == set()
    names = [name for name, _, _, parent in traced.spans if parent == -1]
    assert names == ["simulate", "simulate"]
    assert traced.counts["simulate.calls"] == 2
    assert traced.counts["simulate.blocks.calls"] == 2
    assert traced.counts["simulate.path_steps"] == (1 + 3) * 300 * 16
    assert traced.counts["simulate.paths"] == 2 * 300
    assert traced.counts["simulate.blown_paths"] == 0
    # the noise is drawn by helper threads, which call nothing wrapped
    assert "simulate.normals" not in traced.counts and "simulate.rng.calls" not in traced.counts


def test_a_streamed_run_nests_every_span_under_simulate(traced, monkeypatch):
    # the recorder keeps one span stack and is not thread-safe: helper
    # threads fill the noise rows while the calling thread steps, so only
    # the calling thread may touch it.  With the steps traced too, a 3-block
    # run on 2 cores leaves every span nested under its simulate parent.
    caller, orig_open = threading.current_thread(), traced.open

    def open_span(name):
        assert threading.current_thread() is caller
        return orig_open(name)

    monkeypatch.setattr(traced, "open", open_span)
    traced.wrap(simulate, "_euler_step", "simulate.step")
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    p, ip = builtin("example-1.1")
    cfg = simulate.MonteCarloConfig(paths=300, steps=16, master_seed=5)
    simulate.simulate_ensemble(p, ip, simulate.ControlSpec.zero(), cfg, block_size=128)
    simulate.simulate_coupled(p, ip, [simulate.ControlSpec.zero()] * 2, cfg, block_size=128)
    assert traced.broken == set() and traced._stack == []
    steps = [span for span in traced.spans if span[0] == "simulate.step"]
    assert len(steps) == 2 * 3 * 16
    for name, start, stop, parent in traced.spans:
        if name == "simulate":
            assert parent == -1
            continue
        assert name == "simulate.step"
        p_name, p_start, p_stop, _ = traced.spans[parent]
        assert p_name == "simulate" and p_start <= start <= stop <= p_stop
