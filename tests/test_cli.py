import math

import numpy as np
import pytest

from nlbranch import generator
from nlbranch.cli import main
from nlbranch.config import PRESETS, compile_expression, load_scenario
from nlbranch.errors import QuadratureError, ValidationError


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


# ---------------------------------------------------------------------------
# config layer


def test_all_presets_load():
    for name in PRESETS:
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.sim.n_paths >= 1


def test_unknown_scenario_raises():
    with pytest.raises(ValidationError):
        load_scenario("no-such-scenario")


def test_with_overrides():
    sc = load_scenario("case2-stable").with_overrides(seed=99, n_paths=7, h=0.01)
    assert sc.sim.seed == 99
    assert sc.sim.n_paths == 7
    assert sc.sim.h == 0.01


def test_compile_expression_restricted():
    f = compile_expression("exp(-x) * sqrt(x)")
    x = np.array([1.0, 4.0])
    assert np.allclose(f(x), np.exp(-x) * np.sqrt(x))
    with pytest.raises(ValidationError):
        compile_expression("__import__('os')")
    with pytest.raises(ValidationError):
        compile_expression("open('/etc/passwd')")


INI = """
[scenario mine]
x0 = 2.0
y0 = 1.0
case = A2
alpha = 1.5
beta = 1.0
kappa = 0.5
C_star = 0.5
k3 = 1.0
k2 = 1.0
checks = drift, noise

[coefficients mine]
type = custom
gamma0 = -x
gamma1 = 0*x
gamma2 = x

[measure mine]
type = stable_truncated
alpha = 1.5

[modulus mine]
phi1 = zero
l0 = 1.0
k2 = 1.0

[sim mine]
h = 0.01
t_end = 0.5
n_paths = 50
seed = 3
record_times = 0.0,0.25,0.5
"""


def test_ini_scenario_roundtrip(tmp_path):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI)
    sc = load_scenario("mine", config_path=cfg)
    assert sc.case == "A2"
    assert sc.params["alpha"] == 1.5
    assert sc.sim.h == 0.01
    assert list(sc.checkpoints) == [0.25, 0.5]
    assert sc.checks == ("drift", "noise")
    # unknown section name falls through to presets and fails
    with pytest.raises(ValidationError):
        load_scenario("other", config_path=cfg)
    with pytest.raises(ValidationError):
        load_scenario("mine", config_path=tmp_path / "missing.ini")


# ---------------------------------------------------------------------------
# CLI commands


def test_check_accepts_ergodic_scenario(tmp_path, capsys):
    code, out = run(tmp_path, "check", "--scenario", "case2-stable")
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict = all-hold" in text
    assert (out / "case2-stable.check.txt").read_text().strip().endswith(
        "verdict = all-hold")


def test_check_rejects_pure_growth_with_witnesses(tmp_path, capsys):
    code, _ = run(tmp_path, "check", "--scenario", "pure-growth")
    assert code == 1
    text = capsys.readouterr().out
    assert "fails-at" in text
    assert "witness" in text
    assert "verdict = failed" in text


def test_check_fails_on_skipped_lyapunov_points(tmp_path, capsys, monkeypatch):
    apply = generator.apply_coupling_L

    def failing_at_one_point(fn, x, y, *args, **kwargs):
        if y == 2.0 and math.isclose(x - y, 1e-3):
            raise QuadratureError("integrand refused")
        return apply(fn, x, y, *args, **kwargs)

    monkeypatch.setattr(generator, "apply_coupling_L", failing_at_one_point)
    code, _ = run(tmp_path, "check", "--scenario", "case2-stable")
    assert code == 1
    text = capsys.readouterr().out
    assert "condition lyapunov: inconclusive" in text
    assert "skipped = [(0.001, 2.0)]" in text
    assert "verdict = failed" in text


def test_check_unknown_scenario_is_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "check", "--scenario", "nope")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["check"]) == 2  # --scenario required


def test_testfn_writes_table(tmp_path, capsys):
    code, out = run(tmp_path, "testfn", "--scenario", "case2-stable")
    assert code == 0
    table = (out / "case2-stable.testfn.csv").read_text().splitlines()
    assert table[0] == "r,psi,dpsi,d2psi"
    r0 = [float(v) for v in table[1].split(",")]
    assert r0[0] == 0.0 and r0[1] == 0.0  # psi(0) = 0
    assert "lam" in (out / "case2-stable.constants.txt").read_text()


def test_couple_runs_and_is_idempotent(tmp_path, capsys):
    args = ("couple", "--scenario", "case2-stable", "--paths", "200")
    code, out = run(tmp_path, *args)
    assert code == 0
    captured = capsys.readouterr()
    assert "order_violations = 0" in captured.out
    assert "capped_steps = 0\nclipped_jumps = 0" in captured.out
    assert "warning" not in captured.err
    first = (out / "case2-stable.ensemble.bin").read_bytes()
    first_curve = (out / "case2-stable.curve.csv").read_bytes()
    code2, _ = run(tmp_path, *args)
    assert code2 == 0
    assert (out / "case2-stable.ensemble.bin").read_bytes() == first
    assert (out / "case2-stable.curve.csv").read_bytes() == first_curve


def test_simulate_writes_summary(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", "--scenario", "case2-stable",
                    "--paths", "200")
    assert code == 0
    lines = (out / "case2-stable.single.csv").read_text().splitlines()
    assert lines[0] == "t,mean,var,q05,q50,q95,n"
    assert len(lines) > 1
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)


SATURATED_INI = """
[scenario sat]
x0 = 10.0
y0 = 5.0

[coefficients sat]
type = custom
gamma0 = -x
gamma2 = 2000*minimum(x, 1)

[measure sat]
type = stable_truncated
alpha = 1.5

[sim sat]
h = 0.001
eps = 0.1
t_end = 0.05
n_paths = 50
seed = 2
record_times = 0.0,0.025,0.05
"""


def test_thinning_limits_warn_without_failing(tmp_path, capsys):
    cfg = tmp_path / "sat.ini"
    cfg.write_text(SATURATED_INI)
    assert not load_scenario("sat", config_path=cfg).coeffs.has_diffusion
    for command in ("couple", "simulate"):
        code, out = run(tmp_path, command, "--config", str(cfg),
                        "--scenario", "sat")
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: jump thinning is approximate" in err
    fit = (out / "sat.fit.txt").read_text()
    capped = int(fit.split("capped_steps = ")[1].split()[0])
    clipped = int(fit.split("clipped_jumps = ")[1].split()[0])
    assert capped > 0 and clipped > 0


def test_seed_override_changes_ensemble(tmp_path):
    code, out = run(tmp_path, "couple", "--scenario", "case2-stable",
                    "--paths", "100", "--seed", "1")
    a = (out / "case2-stable.ensemble.bin").read_bytes()
    code, out = run(tmp_path, "couple", "--scenario", "case2-stable",
                    "--paths", "100", "--seed", "2")
    b = (out / "case2-stable.ensemble.bin").read_bytes()
    assert code == 0 and a != b


def test_invariant_summary_command(tmp_path, capsys):
    code, out = run(tmp_path, "invariant", "--scenario", "cir",
                    "--paths", "500")
    assert code == 0
    text = (out / "cir.invariant.txt").read_text()
    assert "tail_w1" in text


def test_threads_flag_is_rejected(capsys):
    # the flag was a worker hint nothing read; it is gone, so any value of it
    # is now a usage error
    assert main(["check", "--scenario", "cir", "--threads", "1"]) == 2
    assert "--threads" in capsys.readouterr().err
