"""The benchmark's tracing still finds every name it wraps.

``perfbench/worker.py`` times the program from outside by replacing module
attributes; a name a refactor removes is only reported as absent, and a
count whose observer no longer fits the result is only reported as broken,
so the per-layer metric goes blank without failing the benchmark.  This
test fails instead.  It imports the two perfbench modules and changes
nothing under ``perfbench/``.
"""

import os
import time

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
    assert traced.counts["simulate.normals"] == 2 * 300 * 17


def test_the_draw_is_timed_between_the_steps(traced, monkeypatch):
    # each block is drawn on the calling thread, inside its simulation and
    # outside every Euler step, so simulate minus simulate.rng times the stepping
    steps, orig = [], simulate._euler_step

    def timed(*args):
        t0 = time.perf_counter()
        try:
            time.sleep(1e-3)  # room for a draw on another thread
            return orig(*args)
        finally:
            steps.append((t0, time.perf_counter()))

    monkeypatch.setattr(simulate, "_euler_step", timed)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    p, ip = builtin("example-1.1")
    cfg = simulate.MonteCarloConfig(paths=300, steps=16, master_seed=5)
    simulate.simulate_ensemble(p, ip, simulate.ControlSpec.zero(), cfg, block_size=128)
    simulate.simulate_coupled(p, ip, [simulate.ControlSpec.zero()] * 2, cfg, block_size=128)
    rng = [(start, stop, parent) for name, start, stop, parent in traced.spans
           if name == "simulate.rng"]
    assert len(rng) == 2 * 3 and len(steps) == 2 * 3 * 16
    for start, stop, parent in rng:
        name, p_start, p_stop, _ = traced.spans[parent]
        assert name == "simulate" and p_start <= start <= stop <= p_stop
        assert all(s_stop <= start or stop <= s_start for s_start, s_stop in steps)
