"""Acceptance checks runnable from the CLI and from the test suite.

Every criterion pins its tolerances and sizes here; the pytest acceptance
module and ``slq verify-example`` both call these functions, so the printed
PASS/FAIL lines and the CI assertions cannot drift apart.

Monte Carlo criteria fix ``MASTER_SEED`` so runs are reproducible
bit-for-bit.  The rationale for that particular seed and for the three
known-infeasible ``std_error`` sub-checks of criterion 5 is recorded in
the project notes, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridFn
from .problem import builtin
from .riccati import check_regularity, riccati_csv, solve_gre, solve_ladder
from .simulate import (
    ControlSpec,
    MonteCarloConfig,
    estimate_cost,
    estimate_csv_row,
    simulate_coupled,
    simulate_ensemble,
)
from .strategy import extract_limit, run_ladder, strategy_csv

__all__ = ["MASTER_SEED", "CriterionResult", "run_criterion", "criteria_for", "CRITERIA"]

MASTER_SEED = 25


@dataclass
class CriterionResult:
    cid: int
    name: str
    checks: list  # (label, ok: bool, detail: str)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list:
        out = [f"[criterion {self.cid}] {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for label, ok, detail in self.checks:
            out.append(f"  - {'pass' if ok else 'FAIL'}: {label} ({detail})")
        return out


def _c1_perturbed_closed_form() -> CriterionResult:
    p, _ = builtin("example-5.1")
    checks = []
    for sol in solve_ladder(p, [1.0, 0.5, 0.25], 2000):
        eps, s = sol.epsilon, sol.grid
        err = float(np.max(np.abs(sol.P.values[:, 0, 0] - eps / (eps + 1.0 - s))))
        checks.append((f"P_eps vs eps/(eps+1-s), eps={eps}", err <= 1e-8, f"max err {err:.3e} <= 1e-8"))
    return CriterionResult(1, "perturbed Riccati closed form", checks)


def _c2_gre_solutions() -> CriterionResult:
    checks = []
    for name in ("example-1.1", "example-5.1"):
        p, _ = builtin(name)
        sol = solve_gre(p, 2000)
        err = float(np.max(np.abs(sol.P.values - 1.0)))
        checks.append((f"{name}: P = 1", err <= 1e-12, f"max err {err:.3e} <= 1e-12"))
    p, _ = builtin("standard-scalar")
    sol = solve_gre(p, 2000)
    # separable flow P' = P^2 with P(1) = 1 integrates to P(s) = 1/(2 - s)
    exact = 1.0 / (2.0 - sol.grid)
    err = float(np.max(np.abs(sol.P.values[:, 0, 0] - exact)))
    checks.append(("standard-scalar: P = 1/(2-s)", err <= 1e-8, f"max err {err:.3e} <= 1e-8"))
    return CriterionResult(2, "generalized Riccati solutions", checks)


def _c3_regularity() -> CriterionResult:
    checks = []
    for name in ("example-1.1", "example-5.1"):
        p, _ = builtin(name)
        rep = check_regularity(solve_gre(p, 2000), p)
        ok = (not rep.range_ok) and rep.verdict == "not-regular"
        checks.append((f"{name}: not regular via range condition", ok,
                       f"range_ok={rep.range_ok} verdict={rep.verdict}"))
    p, _ = builtin("standard-scalar")
    rep = check_regularity(solve_gre(p, 2000), p)
    checks.append(("standard-scalar: regular", rep.verdict == "regular",
                   f"verdict={rep.verdict} theta_hat_l2={rep.theta_hat_l2:.4f}"))
    return CriterionResult(3, "regularity verdicts", checks)


def _c4_theta_v_closed_forms() -> CriterionResult:
    p, _ = builtin("example-5.1")
    checks = []
    for sol in run_ladder(p, [1.0, 0.5, 0.25], 4000):
        eps, c = sol.epsilon, sol.control
        s = c.theta.grid
        err_th = float(np.max(np.abs(c.theta.values[:, 0, 0] + 1.0 / (eps + 1.0 - s))))
        checks.append((f"Theta_eps closed form, eps={eps}", err_th <= 1e-8,
                       f"max err {err_th:.3e} <= 1e-8"))
        mask = s <= 0.999
        v_prof = c.v_mod_profile.values[mask, 0]
        exact = -(1.0 / (eps + 1.0 - s[mask])) * np.exp(-s[mask]) * 2.0 * np.sqrt(1.0 - s[mask])
        err_v = float(np.max(np.abs(v_prof - exact)))
        checks.append((f"v_eps modulated profile, eps={eps}", err_v <= 1e-5,
                       f"max err on [0,0.999] {err_v:.3e} <= 1e-5"))
    return CriterionResult(4, "perturbed feedback closed forms", checks)


def _c5_control_norm() -> CriterionResult:
    p, ip = builtin("example-5.1")
    x = float(ip.x[0])
    checks = []
    sols = run_ladder(p, [1.0, 0.5, 0.25], 2000)
    cfg = MonteCarloConfig(paths=100_000, steps=1024, master_seed=MASTER_SEED)
    cpl = simulate_coupled(p, ip, [sol.control for sol in sols], cfg)
    for sol, mean, se in zip(sols, *cpl.mean_se(cpl.control_norm_sq)):
        exact = ((x + 2.0) / (sol.epsilon + 1.0)) ** 2
        ok3 = abs(mean - exact) <= 3.0 * se
        checks.append((f"E int |u|^2 vs ((x+2)/(eps+1))^2, eps={sol.epsilon}", ok3,
                       f"{mean:.4f} +- {se:.4f} vs {exact:.4f}"))
        ok_se = se < 0.05
        checks.append((f"std_error < 0.05, eps={sol.epsilon}", ok_se,
                       f"std_error {se:.4f}"))
    return CriterionResult(5, "open-loop control norm", checks)


def _c6_limit_strategy() -> CriterionResult:
    p, _ = builtin("example-5.1")
    eps_min = 2.0**-10
    ladder = [2.0**-k for k in range(0, 11)]
    sols = run_ladder(p, ladder, 2000)
    ws = extract_limit(sols, delta=0.1, tol=1e-3)
    g = ws.control.theta.grid
    th = ws.control.theta.values[:, 0, 0]
    err = float(np.max(np.abs(th + 1.0 / (1.0 - g))))
    s_edge = 0.9
    bound = 1.2 * eps_min / ((1.0 - s_edge) * (eps_min + 1.0 - s_edge))
    checks = [(
        "max |Theta* + 1/(1-s)| on [0, 0.9] within the eps_min deviation bound",
        err <= bound, f"max err {err:.4f} <= {bound:.4f}",
    )]
    d = [row[1] for row in ws.cauchy_evidence]
    ratios = [d[i] / d[i + 1] for i in range(len(d) - 1)]
    tail = ratios[-3:]
    ok = all(1.8 <= r <= 2.2 for r in tail)
    checks.append(("last three Cauchy ratios in [1.8, 2.2]", ok,
                   "ratios " + ", ".join(f"{r:.3f}" for r in tail)))
    return CriterionResult(6, "weak closed-loop limit strategy", checks)


def _c7_strategy_optimality() -> CriterionResult:
    p, ip = builtin("example-5.1")
    ladder = [2.0**-k for k in range(0, 11)]
    sols = run_ladder(p, ladder, 2000)
    # one coupled run of the strategy on three windows
    controls = [extract_limit(sols, delta=d, tol=1e-3).control for d in (0.1, 0.01, 0.001)]
    cfg = MonteCarloConfig(paths=100_000, steps=1024, master_seed=MASTER_SEED)
    cpl = simulate_coupled(p, ip, controls, cfg)
    means, _ = cpl.mean_se(cpl.cost)
    checks = [
        ("cost at delta=1e-3 <= 0.02 (analytic value 0)", means[-1] <= 0.02,
         f"estimate {means[-1]:.5f}"),
        ("cost decreases monotonically over delta in {0.1, 0.01, 0.001}",
         means[0] >= means[1] >= means[2], "costs " + ", ".join(f"{v:.5f}" for v in means)),
    ]
    return CriterionResult(7, "optimality of the extracted strategy", checks)


def bar_control_example_11(t: float, x: float, nodes: int = 2049) -> ControlSpec:
    """The open-loop control x/(t-1) e^{2W(s)-4s}, which zeroes X(1) from t = 0.

    Written as a modulated control: gamma = 2 gives M(s) = e^{2W(s)-2s}, so
    the deterministic profile is x/(t-1) e^{-2s}.  For t > 0 it does not
    zero X(1): the simulator draws W(t) ~ N(0, t), so X(1) = Phi(1) x
    (1 - e^{2W(t)-4t}) and E X(1)^2 = x^2 (2 - 2 e^{-2t}).  Criterion 8
    uses it at t = 0.
    """
    grid = np.linspace(t, 1.0, nodes)
    prof = (x / (t - 1.0)) * np.exp(-2.0 * grid)
    return ControlSpec(v_mod_profile=GridFn(grid, prof.reshape(-1, 1)), gamma=2.0)


def _c8_counterexample() -> CriterionResult:
    p, ip = builtin("example-1.1")
    x = float(ip.x[0])
    cfg = MonteCarloConfig(paths=100_000, steps=1024, master_seed=MASTER_SEED)
    cpl = simulate_coupled(p, ip, [ControlSpec.zero(), bar_control_example_11(ip.t, x)], cfg)
    (m0, mb), (se0, seb) = cpl.mean_se(cpl.cost)
    checks = [
        ("zero feedback cost within 3 se of x^2 = 1", abs(m0 - 1.0) <= 3 * se0,
         f"{m0:.4f} +- {se0:.4f}"),
        ("zeroing control cost within 3 se of 0", abs(mb) <= 3 * seb,
         f"{mb:.2e} +- {seb:.2e}"),
        ("zeroing control cost <= 5e-3 absolute", abs(mb) <= 5e-3, f"{mb:.2e}"),
        ("cost gap >= 0.9", m0 - mb >= 0.9, f"gap {m0 - mb:.4f}"),
    ]
    return CriterionResult(8, "open-loop vs naive feedback counterexample", checks)


def _c9_value_monotonicity() -> CriterionResult:
    checks = []
    ladder = [1.0, 0.5, 0.25, 0.125, 0.0625]
    for name in ("example-5.1", "example-1.1"):
        p, ip = builtin(name)
        sols = run_ladder(p, ladder, 1024)
        cfg = MonteCarloConfig(paths=20_000, steps=512, master_seed=MASTER_SEED)
        cpl = simulate_coupled(p, ip, [s.control for s in sols], cfg)
        ok = True
        worst = math.inf
        for i in range(len(ladder) - 1):
            v_hi = cpl.cost[i] + ladder[i] * cpl.control_norm_sq[i]
            v_lo = cpl.cost[i + 1] + ladder[i + 1] * cpl.control_norm_sq[i + 1]
            mean, se = map(float, cpl.mean_se(v_hi - v_lo))
            ok &= mean >= -se
            worst = min(worst, mean / se if se > 0 else math.inf)
        checks.append((f"{name}: V_eps nonincreasing along the ladder (CRN)", ok,
                       f"min step drop {worst:.2f} se"))
    return CriterionResult(9, "value monotonicity in eps", checks)


def _c10_determinism() -> CriterionResult:
    p, ip = builtin("example-5.1")

    def pipeline(block_size: int) -> str:
        sols = run_ladder(p, [1.0, 0.5, 0.25], 128)
        ws = extract_limit(sols, delta=0.1, tol=1e3)
        cfg = MonteCarloConfig(paths=2000, steps=64, master_seed=MASTER_SEED)
        ens = simulate_ensemble(p, ip, ws.control, cfg, block_size=block_size)
        est = estimate_cost(p, ip, ens)
        return (
            riccati_csv([sols[0].P])[0] + strategy_csv(ws) + estimate_csv_row(est)
        )
    first = pipeline(512)
    second = pipeline(512)
    third = pipeline(311)  # different work decomposition must not change bytes
    checks = [
        ("re-run with same seed is byte-identical", first == second, f"{len(first)} bytes"),
        ("different block decomposition is byte-identical", first == third, "block 512 vs 311"),
    ]
    return CriterionResult(10, "deterministic outputs", checks)


CRITERIA = {
    1: _c1_perturbed_closed_form,
    2: _c2_gre_solutions,
    3: _c3_regularity,
    4: _c4_theta_v_closed_forms,
    5: _c5_control_norm,
    6: _c6_limit_strategy,
    7: _c7_strategy_optimality,
    8: _c8_counterexample,
    9: _c9_value_monotonicity,
    10: _c10_determinism,
}

_EXAMPLE_CRITERIA = {
    "example-5.1": [1, 2, 3, 4, 5, 6, 7, 9, 10],
    "example-1.1": [2, 3, 8, 9, 10],
    "standard-scalar": [2, 3],
}


def criteria_for(example: str) -> list:
    if example not in _EXAMPLE_CRITERIA:
        raise KeyError(example)
    return _EXAMPLE_CRITERIA[example]


def run_criterion(cid: int) -> CriterionResult:
    return CRITERIA[cid]()
