import numpy as np
import pytest

from slq import riccati
from slq.cli import main

FAST_SOLVE = ["--steps", "200", "--eps-min", "0.125"]


def run(argv):
    return main([str(a) for a in argv])


def read(path):
    return path.read_text(encoding="utf-8")


class TestSolve:
    def test_standard_scalar_converges(self, tmp_path):
        rc = run(["solve", "--builtin", "standard-scalar", "--out", tmp_path,
                  "--steps", "400", "--eps-min", "3e-5"])
        assert rc == 0
        report = read(tmp_path / "report.txt")
        assert "extraction: converged" in report
        assert "closed-loop: solvable (regular)" in report
        # the regular feedback is -P/(R) with P = 1/(2-s)
        rows = read(tmp_path / "strategy.csv").strip().split("\n")[1:]
        s, theta = np.array([[float(v) for v in r.split(",")[:2]] for r in rows]).T
        assert np.max(np.abs(theta + 1.0 / (2.0 - s))) <= 1e-3

    def test_example_51_strategy_values(self, tmp_path):
        rc = run(["solve", "--builtin", "example-5.1", "--out", tmp_path,
                  "--steps", "2000", "--eps-min", 2.0**-10, "--delta", "0.1"])
        assert rc == 2  # spec tolerance declares this ladder depth inconclusive
        rows = read(tmp_path / "strategy.csv").strip().split("\n")[1:]
        table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        eps_min = 2.0**-10
        dev = eps_min / ((1.0 - 0.5) * (eps_min + 1.0 - 0.5))
        assert abs(table[0.5] + 2.0) <= 1.2 * dev + 1e-6
        for k in range(11):
            assert (tmp_path / f"riccati_eps_{k}.csv").exists()
        summary = read(tmp_path / "ladder_summary.csv").strip().split("\n")
        assert summary[0] == "eps,u_norm_sq,theta_l2_dist,v_l2_dist"
        assert len(summary) == 12

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["solve", "--builtin", "example-5.1", "--out", out,
                        *FAST_SOLVE, "--paths", "500", "--mc-steps", "64"]) == 2
        for name in ("strategy.csv", "ladder_summary.csv", "riccati_eps_0.csv", "report.txt"):
            assert read(a / name) == read(b / name), name

    def test_invalid_problem_writes_nothing(self, tmp_path):
        bad = tmp_path / "bad.slq"
        bad.write_text("[dims]\nn = 1\nm = 1\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = run(["solve", "--problem", bad, "--out", out])
        assert rc == 1
        assert not out.exists() or not list(out.iterdir())

    def test_non_finite_value_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.slq"
        bad.write_text("[dims]\nn = 1\nm = 1\n[horizon]\nT = inf\n[terminal]\nG = 1\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--problem", bad, "--out", out]) == 1
        assert "line 5: 'inf' is not a finite number in [horizon]" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_requires_exactly_one_source(self, tmp_path):
        assert run(["solve", "--out", tmp_path]) == 1
        assert run(["solve", "--builtin", "example-1.1", "--problem", "x.slq",
                    "--out", tmp_path]) == 1


class TestDiagnose:
    # at the defaults: no --paths, so the verdicts read exact moments only

    def test_example_11_verdict_lines(self, tmp_path):
        assert run(["diagnose", "--builtin", "example-1.1", "--out", tmp_path]) == 0
        report = read(tmp_path / "report.txt").split("\n")
        assert report[:3] == ["closed-loop: NOT solvable", "open-loop: solvable",
                              "weak-closed-loop: solvable"]

    def test_example_51_verdict_lines(self, tmp_path):
        rc = run(["diagnose", "--builtin", "example-5.1", "--out", tmp_path])
        assert rc == 0
        report = read(tmp_path / "report.txt").split("\n")
        assert report[0] == "closed-loop: NOT solvable"
        assert report[1] == "open-loop: solvable"
        assert report[2] == "weak-closed-loop: solvable"
        csv = read(tmp_path / "solvability.csv").strip().split("\n")
        assert csv[0].startswith("eps,u_norm_sq")
        assert len(csv) == 7  # default diagnose ladder 1 .. 2^-5

    def test_standard_scalar_regular(self, tmp_path):
        rc = run(["diagnose", "--builtin", "standard-scalar", "--out", tmp_path])
        assert rc == 0
        report = read(tmp_path / "report.txt").split("\n")
        assert report[0] == "closed-loop: solvable (regular)"
        assert report[1] == "open-loop: solvable"

    def test_linear_terminal_weight_not_solvable(self, tmp_path):
        # cost 2 g X(1) with free drift: value is -inf, u_eps = -g/eps blows
        # up at rate 4x per eps halving
        prob = tmp_path / "linear-terminal.slq"
        prob.write_text(
            "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n"
            "[coef.B]\nconstant = 1\n[terminal]\nG = 0\ng = 1\n",
            encoding="utf-8",
        )
        rc = run(["diagnose", "--problem", prob, "--out", tmp_path])
        assert rc == 0
        report = read(tmp_path / "report.txt").split("\n")
        assert report[0] == "closed-loop: NOT solvable"
        assert report[1] == "open-loop: NOT solvable"
        assert report[2] == "weak-closed-loop: NOT solvable"

    def test_monte_carlo_is_a_cross_check_only(self, tmp_path):
        exact, mc = tmp_path / "exact", tmp_path / "mc"
        assert run(["diagnose", "--builtin", "example-1.1", "--out", exact]) == 0
        assert run(["diagnose", "--builtin", "example-1.1", "--out", mc,
                    "--paths", "2000"]) == 0
        assert read(exact / "solvability.csv") == read(mc / "solvability.csv")
        rows = read(exact / "solvability.csv").strip().split("\n")[1:]
        assert all(r.split(",")[2] == "0" for r in rows)  # exact values carry no se
        plain, checked = read(exact / "report.txt"), read(mc / "report.txt").split("\n")
        extra = [line for line in checked if line not in plain.split("\n")]
        assert len(extra) == 1 and extra[0].startswith("  monte carlo cross-check")
        checked.remove(extra[0])
        assert "\n".join(checked) == plain


def test_solve_and_diagnose_share_closed_loop_verdict(tmp_path):
    # K = R + D'PD = 0 and every regularity test passes, but rho = 1 is not
    # in range(K): the eta range condition alone makes it NOT solvable
    prob = tmp_path / "rho.slq"
    prob.write_text(
        "[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[terminal]\nG = 1\n"
        "[input.rho]\ndeterministic = 1\n",
        encoding="utf-8",
    )
    reports = {}
    for cmd, extra in (("solve", []), ("diagnose", ["--paths", "500", "--mc-steps", "32"])):
        out = tmp_path / cmd
        run([cmd, "--problem", prob, "--out", out, *FAST_SOLVE, *extra])
        reports[cmd] = read(out / "report.txt").split("\n")
    for lines in reports.values():
        assert "closed-loop: NOT solvable" in lines
        assert sum(line.startswith("  eta range condition fails") for line in lines) == 1
    # one formatter: solve ends on the block, diagnose puts its verdict line
    # first and its detail lines after the open-loop verdicts
    solve = reports["solve"]
    block = solve[solve.index("closed-loop: NOT solvable"):-1]
    diag = reports["diagnose"]
    assert [diag[0], *diag[3:2 + len(block)]] == block


def test_solve_and_diagnose_run_one_backward_pass(tmp_path, monkeypatch):
    # the generalized flow rides as row 0 of the ladder's RK4 stack
    stacks = []
    solve_backward = riccati._solve_backward

    def counted(p, eps, steps):
        stacks.append(list(eps))
        return solve_backward(p, eps, steps)

    monkeypatch.setattr(riccati, "_solve_backward", counted)
    assert run(["solve", "--builtin", "example-5.1", "--out", tmp_path / "solve"]) == 2
    assert stacks == [[0.0] + [2.0**-k for k in range(11)]]
    stacks.clear()
    assert run(["diagnose", "--builtin", "example-1.1", "--out", tmp_path / "diagnose",
                "--paths", "500", "--mc-steps", "32"]) == 0
    assert stacks == [[0.0] + [2.0**-k for k in range(6)]]


class TestSimulateCmd:
    def test_zero_control_summary(self, tmp_path):
        rc = run(["simulate", "--builtin", "example-1.1", "--control", "zero",
                  "--paths", "2000", "--mc-steps", "64", "--out", tmp_path])
        assert rc == 0
        rows = read(tmp_path / "ensemble.csv").strip().split("\n")
        assert rows[0] == "quantity,mean,std_error,paths,steps,seed"
        assert rows[1].startswith("cost,")
        assert rows[2].startswith("control-norm-squared,0,0,")

    def test_dump_paths(self, tmp_path):
        rc = run(["simulate", "--builtin", "example-1.1", "--control", "zero",
                  "--paths", "3", "--mc-steps", "16", "--out", tmp_path,
                  "--dump-paths"])
        assert rc == 0
        rows = read(tmp_path / "paths.csv").strip().split("\n")
        assert rows[0] == "path,k,s,W,X_1,u_1"
        assert len(rows) == 1 + 3 * 17


def test_one_path_standard_error_is_nan_and_silent(tmp_path, capsys):
    # one path gives no spread: every Monte Carlo report writes nan for its
    # standard error, and nothing is printed to stderr
    assert run(["simulate", "--builtin", "example-1.1", "--control", "zero",
                "--paths", "1", "--mc-steps", "16", "--out", tmp_path / "sim"]) == 0
    rows = read(tmp_path / "sim" / "ensemble.csv").strip().split("\n")[1:]
    assert [r.split(",")[2] for r in rows] == ["nan"] * 3
    assert run(["diagnose", "--builtin", "example-1.1", "--paths", "1", "--mc-steps", "16",
                "--out", tmp_path / "diag"]) == 0
    report = read(tmp_path / "diag" / "report.txt")
    cross = [line for line in report.split("\n") if "monte carlo cross-check" in line]
    assert len(cross) == 1 and cross[0].count("+- nan vs") == 6
    assert capsys.readouterr().err == ""


class TestBlownPaths:
    # dX = 32 X ds + X dW with 64 Euler steps: about 0.2% of paths pass 1e12
    # (9 of 4000 at the default seed); B = 0 and G = Q = 0 make every
    # feedback zero, so all commands see the zero control's paths
    PROBLEM = ("[dims]\nn = 1\nm = 1\n[horizon]\nT = 1\n[coef.A]\nconstant = 32\n"
               "[coef.C]\nconstant = 1\n[coef.R]\nconstant = 1\n[terminal]\nG = 0\n")
    MC = ["--paths", "4000", "--mc-steps", "64"]

    def test_each_monte_carlo_command_names_the_zeroed_paths(self, tmp_path, capsys):
        path = tmp_path / "blows.slq"
        path.write_text(self.PROBLEM, encoding="utf-8")
        outs = []
        for k, cmd in enumerate((["simulate", "--control", "zero"], ["solve", *FAST_SOLVE],
                                 ["diagnose", "--steps", "200"])):
            assert run([*cmd, "--problem", path, *self.MC, "--out", tmp_path / str(k)]) == 0
            out, err = capsys.readouterr()
            count, rest = err.removeprefix("warning: ").split(" of 4000 ", 1)
            assert 0 < int(count) <= 40, err  # more than none, at most 1%
            assert rest == "paths left the finite regime and were left out of the means\n"
            outs.append(out)
        # the warning goes to stderr only: stdout and files are as before
        assert read(tmp_path / "0" / "ensemble.csv") == outs[0]
        assert read(tmp_path / "2" / "report.txt") == outs[2]

    def test_no_warning_without_blown_paths(self, tmp_path, capsys):
        assert run(["simulate", "--builtin", "example-1.1", "--control", "zero",
                    *self.MC, "--out", tmp_path]) == 0
        assert capsys.readouterr().err == ""


class TestVerifyExample:
    def test_unknown_example(self, capsys):
        assert run(["verify-example", "unknown-name"]) == 1
        assert "unknown example" in capsys.readouterr().err

    def test_standard_scalar_quick(self, capsys):
        # standard-scalar maps to the two cheap criteria only
        assert run(["verify-example", "standard-scalar"]) == 0
        out = capsys.readouterr().out
        assert "[criterion 2]" in out and "[criterion 3]" in out
        assert "ALL PASS" in out


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("steps = 150\neps_min = 0.125\npaths = 0\n", encoding="utf-8")
        out1 = tmp_path / "o1"
        rc = run(["solve", "--builtin", "example-1.1", "--config", conf,
                  "--out", out1])
        assert rc in (0, 2)
        assert sum(1 for f in out1.iterdir() if f.name.startswith("riccati_eps_")) == 4
        out2 = tmp_path / "o2"
        rc = run(["solve", "--builtin", "example-1.1", "--config", conf,
                  "--eps-min", "0.25", "--out", out2])
        assert rc in (0, 2)
        assert sum(1 for f in out2.iterdir() if f.name.startswith("riccati_eps_")) == 3

    def test_unknown_key_and_bad_boolean_are_rejected(self, tmp_path, capsys):
        for text, line, message in (
            ("steps = 150\nbogus = 1\n", 2, "unknown key 'bogus'"),
            ("# typo\n\ndump_paths = ture\n", 3, "bad value 'ture' for dump_paths"),
        ):
            conf = tmp_path / "run.conf"
            conf.write_text(text, encoding="utf-8")
            out = tmp_path / "out"
            assert run(["simulate", "--builtin", "example-1.1", "--control", "zero",
                        "--config", conf, "--out", out]) == 1
            assert f"{conf}:{line}: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_value_outside_a_flags_choices_is_rejected(self, tmp_path, capsys):
        # control must be one of --control's choices and builtin a built-in
        # name, or solve would run and a later command fail without path:line
        for text, flags, line, message in (
            ("steps = 150\ncontrol = bogus\n", ["--builtin", "example-1.1"], 2,
             "bad value 'bogus' for control"),
            ("builtin = nope\n", [], 1, "bad value 'nope' for builtin"),
        ):
            conf = tmp_path / "run.conf"
            conf.write_text(text, encoding="utf-8")
            out = tmp_path / "out"
            assert run(["solve", *flags, "--config", conf, "--out", out]) == 1
            assert f"{conf}:{line}: {message}" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("text, line, message", [
    ("steps = 100\nsteps = 200\n", 2, "duplicate key 'steps'"),
    ("eps-min = 0.5\neps_min = 0.25\n", 2, "duplicate key 'eps_min'"),
    ("# int\nsteps = 1.5\n", 2, "bad value '1.5' for steps"),
    ("seed = x\n", 1, "bad value 'x' for seed"),
    ("tol = 1e-3\neps_min = abc\n", 2, "bad value 'abc' for eps_min"),
])
def test_config_value_refused_by_its_flag_names_the_line(text, line, message, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run(["solve", "--builtin", "standard-scalar", "--config", conf, "--out", out]) == 1
    assert f"{conf}:{line}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "diagnose", "simulate"])
def test_one_config_file_serves_every_command(command, tmp_path):
    # control and dump_paths are simulate's flags, and solve and diagnose
    # accept a file that sets them
    conf = tmp_path / "run.conf"
    conf.write_text("steps = 200\neps_min = 0.125\ncontrol = zero\ndump_paths = yes\n"
                    "paths = 3\nmc_steps = 16\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = run([command, "--builtin", "standard-scalar", "--config", conf, "--out", out])
    assert rc == 0 or (command == "solve" and rc == 2)  # 2: extraction inconclusive
    assert (out / "report.txt").exists() == (command != "simulate")
    assert (out / "paths.csv").exists() == (command == "simulate")


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("from_file", [False, True])
def test_seed_outside_64_bits_is_rejected(seed, from_file, tmp_path, capsys):
    # the Monte Carlo seed is masked to 64 bits, so -1 would run the stream
    # of 2^64 - 1 and write that number as its seed
    conf = tmp_path / "run.conf"
    conf.write_text(f"seed = {seed}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["simulate", "--builtin", "example-1.1", "--control", "zero", "--paths", "100",
                "--mc-steps", "16", *(["--config", conf] if from_file else ["--seed", seed]),
                "--out", out]) == 1
    assert f"--seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_still_runs(tmp_path):
    assert run(["simulate", "--builtin", "example-1.1", "--control", "zero", "--paths", "100",
                "--mc-steps", "16", "--seed", 2**64 - 1, "--out", tmp_path]) == 0
    rows = read(tmp_path / "ensemble.csv").strip().split("\n")[1:]
    assert [r.split(",")[-1] for r in rows] == [str(2**64 - 1)] * 3


def test_negative_paths_are_rejected_and_nothing_is_written(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("paths = -3\n", encoding="utf-8")
    for k, (cmd, paths) in enumerate((
        (["simulate", "--control", "zero", "--paths", "-5"], "-5"),
        (["solve", *FAST_SOLVE, "--paths", "-3"], "-3"),
        (["diagnose", "--paths", "-3"], "-3"),
        (["diagnose", "--config", conf], "-3"),
    )):
        out = tmp_path / str(k)
        assert run([*cmd, "--builtin", "example-1.1", "--out", out]) == 1
        assert f"paths must be >= 0, got {paths}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["simulate", "--control", "zero", "--paths", "100", "--mc-steps", "0"],
     "--mc-steps must be >= 16, got 0"),
    (["solve", *FAST_SOLVE, "--paths", "100", "--mc-steps", "15"],
     "--mc-steps must be >= 16, got 15"),
    (["solve", *FAST_SOLVE, "--tol", "-1"], "--tol must be positive, got -1"),
    # diagnose has no --tol, but a file it shares with solve may set tol
    (["diagnose", "--config", "TOL_0"], "--tol must be positive, got 0"),
])
def test_bad_mc_steps_and_tol_name_their_flag(flags, message, tmp_path, capsys):
    # --steps is the Riccati grid, and a tolerance <= 0 would only show as
    # an inconclusive extraction
    conf = tmp_path / "run.conf"
    conf.write_text("tol = 0\n", encoding="utf-8")
    flags = [conf if f == "TOL_0" else f for f in flags]
    out = tmp_path / "out"
    assert run([*flags, "--builtin", "standard-scalar", "--out", out]) == 1
    err = capsys.readouterr().err
    assert message in err and "--steps" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--delta", "0.1"]])
def test_diagnose_has_no_extraction_flags(flag, capsys):
    # diagnose extracts no limit, so a window gap or tolerance would be unread
    with pytest.raises(SystemExit) as exc_info:
        run(["diagnose", "--builtin", "example-1.1", *flag])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run(["diagnose", "--help"])
    assert flag[0] not in capsys.readouterr().out


@pytest.mark.parametrize("from_file", [False, True])
def test_infinite_eps_max_is_rejected(from_file, tmp_path, capsys):
    # inf * factor stays inf, so the ladder would grow until memory ran out
    conf = tmp_path / "run.conf"
    conf.write_text("eps_max = inf\n", encoding="utf-8")
    out = tmp_path / "out"
    flags = ["--config", conf] if from_file else ["--eps-max", "inf"]
    assert run(["solve", "--builtin", "standard-scalar", *flags, "--out", out]) == 1
    assert "error: eps_max must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_nan_eps_min_is_rejected(command, tmp_path, capsys):
    # NaN passes every range comparison, so the ladder would come out empty
    out = tmp_path / "out"
    argv = [command, "--builtin", "standard-scalar", "--eps-min", "nan", "--steps", "200"]
    assert run([*argv, "--out", out]) == 1
    assert "error: eps_min must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "diagnose", "simulate"])
@pytest.mark.parametrize("flags, message", [
    (["--t", "2"], "initial time 2.0 outside [0, T)"),
    (["--t", "-0.5"], "initial time -0.5 outside [0, T)"),
    (["--x", "1,2"], "initial state has length 2, expected 1"),
    (["--x", "a"], "--x must be comma-separated numbers, got 'a'"),
])
def test_bad_initial_pair_is_rejected_without_monte_carlo(command, flags, message, tmp_path,
                                                          capsys):
    # solve with --paths 0 never simulates, yet checks the pair before any work
    out = tmp_path / "out"
    argv = [command, *FAST_SOLVE, *flags, "--builtin", "standard-scalar", "--out", out]
    if command == "simulate":
        argv += ["--control", "zero", "--paths", "100", "--mc-steps", "16"]
    assert run(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "diagnose", "simulate", "verify-example"])
def test_help_states_the_defaults(command, capsys):
    # argparse %-formats a help string only when it prints it
    with pytest.raises(SystemExit) as exc_info:
        run([command, "--help"])
    assert exc_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    if command != "verify-example":
        eps_min = "2^-5" if command == "diagnose" else "2^-10"
        assert f"ladder end (default {eps_min})" in out
        assert "(default 1024)" in out and "(default 25)" in out
    if command == "simulate":
        assert "0 for 20000" in out
