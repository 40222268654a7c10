import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nlbranch import cli, generator, simulate
from nlbranch.cli import main
from nlbranch.config import PRESETS, compile_expression, load_scenario
from nlbranch.errors import QuadratureError, ValidationError
from nlbranch.simulate import SimConfig


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
kappa = 0.5
record_times = 0.0,0.25,0.5
"""


def test_ini_scenario_roundtrip(tmp_path):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI)
    sc = load_scenario("mine", config_path=cfg)
    assert sc.case == "A2"
    assert sc.params["alpha"] == 1.5
    assert sc.sim.h == 0.01
    assert sc.sim.kappa == 0.5 and "kappa" not in sc.params
    assert sc.checks == ("drift", "noise")
    # unknown section name falls through to presets and fails
    with pytest.raises(ValidationError):
        load_scenario("other", config_path=cfg)
    with pytest.raises(ValidationError):
        load_scenario("mine", config_path=tmp_path / "missing.ini")


def test_ini_check_derives_constants(tmp_path, capsys):
    # the default checks include the constants, whose C_star is the one the
    # noise check certifies for the 1.5-stable measure at kappa = 0.5
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("checks = drift, noise\n", ""))
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 0
    noise, constants = capsys.readouterr().out.split("constants: derived")
    assert "  C_star = 0.4309644062711509\n" in noise
    assert "  C_star = 0.4309644062711509\n" in constants


@pytest.mark.parametrize("line", ["k3 = 1.0", "C_star = 0.5"], ids=["k3", "C_star"])
def test_ini_constant_key_is_config_error(tmp_path, capsys, line):
    # the constants take k3 and C_star from the noise check; a file that
    # still sets one would otherwise be read as if it mattered
    cfg = tmp_path / "scen.ini"
    cfg.write_text(with_line(INI.replace("checks = drift, noise\n", ""),
                             "scenario", line))
    key = repr(line.split()[0].lower())     # configparser lowercases keys
    for cmd in ("check", "testfn"):
        code, _ = run(tmp_path, cmd, "--scenario", "mine", "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err


@pytest.mark.parametrize("line", ["x0 = nan", "x0 = inf", "y0 = nan", "y0 = inf"])
def test_ini_non_finite_start_is_config_error(tmp_path, capsys, line):
    # a NaN or infinite start is refused before any step, not run as a
    # blown-up ensemble that fails the flagged-path limit
    cfg = tmp_path / "scen.ini"
    cfg.write_text(with_line(INI, "scenario", line))
    for cmd in ("couple", "invariant", "simulate"):
        code, _ = run(tmp_path, cmd, "--scenario", "mine", "--config", str(cfg))
        err = capsys.readouterr().err
        if cmd == "simulate" and line.startswith("y0"):
            assert code == 0      # simulate runs from x0 alone
            continue
        assert code == 2
        assert err.startswith("config error: ") and "must be nonnegative and finite" in err


def test_ini_noise_failure_fails_constants(tmp_path, capsys):
    # gamma2 = 0 has no jump activity: the noise check fails, and the
    # constants, which have nothing certified to rest on, fail with it
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("checks = drift, noise\n", "")
                   .replace("gamma2 = x\n", "gamma2 = 0*x\n"))
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 1
    text = capsys.readouterr().out
    assert "condition A2: fails-at" in text and "constants: failed (" in text
    assert "verdict = failed" in text
    code, _ = run(tmp_path, "testfn", "--scenario", "mine", "--config", str(cfg))
    assert code == 1
    assert "construction failed" in capsys.readouterr().err


def test_ini_noise_failure_names_the_rate_witness(tmp_path, capsys):
    # k3 is what fails, so the witness is the x where gamma2(x) / x^beta is
    # smallest (all are 0: the first grid point, 1/2), not a point of the
    # moment route, which holds
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("gamma2 = x\n", "gamma2 = 0*x\n"))
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 1
    text = capsys.readouterr().out
    assert "  k3 = 0.0\n" in text and "  C_star_moment = 2." in text
    assert re.findall(r"witness .*", text) == ["witness point=0.5 margin=0"]


def test_ini_scenario_kappa_is_config_error(tmp_path, capsys):
    # the coupling simulates at [sim] kappa (0.5 by default); a kappa that only
    # the constants saw would certify a coupling nothing simulates
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("kappa = 0.5\n", "")
                   .replace("beta = 1.0\n", "beta = 1.0\nkappa = 0.25\n"))
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 2
    assert "[sim mine]" in capsys.readouterr().err


def with_line(ini, section, line):
    """ini with line first in [section mine], in place of the section's line
    of the same key."""
    key = line.split("=")[0].strip()
    head = f"[{section} mine]\n"
    start = ini.index(head) + len(head)
    end = ini.find("\n[", start)
    end = len(ini) if end < 0 else end
    body = [row for row in ini[start:end].split("\n")
            if row.split("=")[0].strip() != key]
    return ini[:start] + "\n".join([line] + body) + ini[end:]


@pytest.mark.parametrize("section, line", [
    ("scenario", "checkpoints = 0.25"),
    ("sim", "kapa = 0.25"),
    ("coefficients", "gama2 = x"),
    ("measure", "alpa = 1.8"),
    ("modulus", "k_1 = 0.3"),
    ("measure", "type = stable"),
    ("modulus", "phi1 = quadratic"),
    ("scenario", "checks = drift, noise, constants, lyapnov"),
    # gone: the strong branch is attempted exactly when the modulus has a Phi2
    ("scenario", "try_strong = maybe"),
    # gone: the coupling needs a nondecreasing gamma2, so nothing turns the
    # check off
    ("coefficients", "gamma2_nondecreasing = no"),
])
def test_ini_unknown_key_is_config_error(tmp_path, capsys, section, line):
    # a misspelt or removed key, form, check name or boolean word would
    # otherwise leave a default in place or drop a check
    cfg = tmp_path / "scen.ini"
    cfg.write_text(with_line(INI, section, line))
    with pytest.raises(ValidationError):
        load_scenario("mine", config_path=cfg)
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert repr(line.split()[0]) in err and f"[{section} mine]" in err


def test_ini_bad_boolean_is_config_error(tmp_path, capsys):
    # a boolean word outside yes/no, true/false, on/off and 1/0 would
    # otherwise leave the default in place
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("type = stable_truncated\nalpha = 1.5\n",
                               "type = custom\ndensity = z**-2.5\nupper = 1.0\n"
                               "decreasing = maybe\n"))
    with pytest.raises(ValidationError, match="bad value 'maybe' of 'decreasing'"):
        load_scenario("mine", config_path=cfg)
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 2
    assert "[measure mine]" in capsys.readouterr().err


def test_ini_phi2_attempts_the_strong_branch(tmp_path, capsys):
    # no key asks for the strong-ergodicity branch: a modulus with a Phi2
    # attempts it, one without does not.  The drift and the modulus are
    # superexp's
    ini = (INI.replace("gamma0 = -x\n", "gamma0 = x - exp(x) + 1\n")
           .replace("k2 = 1.0\n", "k2 = 0.5\n"))
    cfg = tmp_path / "scen.ini"
    cfg.write_text(ini)
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 0
    assert "strong-ergodicity branch" not in capsys.readouterr().out
    cfg.write_text(ini.replace("k2 = 0.5\n",
                               "k2 = 0.5\nphi2 = power\ncoef = 0.5\nexponent = 2.0\n"))
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 0
    assert "\nstrong-ergodicity branch: accepted (" in capsys.readouterr().out


CIR = "type = cir\nb = 1.0\nc = 1.0\nd = 1.0\n"


@pytest.mark.parametrize("section, line", [
    ("coefficients", "b = nan"),
    ("measure", "c0 = nan"),
    ("modulus", "k2 = nan"),
    ("sim", "record_times = 0.0, nan, 0.5"),
])
def test_ini_nan_value_is_config_error(tmp_path, capsys, section, line):
    # NaN fails every comparison: a NaN cir rate made the drift check hold
    # on NaN margins, a NaN c0 a run without jumps, and a NaN record time a
    # snapshot that no step wrote
    ini = INI.replace("type = custom\ngamma0 = -x\ngamma1 = 0*x\ngamma2 = x\n", CIR)
    cfg = tmp_path / "scen.ini"
    cfg.write_text(with_line(ini, section, line))
    for cmd in ("check", "couple", "simulate"):
        code, out = run(tmp_path, cmd, "--scenario", "mine", "--config", str(cfg))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"[{section} mine]" in err


def test_ini_missing_model_key_is_config_error(tmp_path, capsys):
    # l0 has no default in DriftModulus, so the file must set it
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("l0 = 1.0\n", ""))
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert "'l0'" in err and "[modulus mine]" in err


@pytest.mark.parametrize("text, line", [
    (INI.replace("x0 = 2.0\n", "x0 = 2.0\nx0 = 3.0\n"), 4),     # duplicated key
    ("x0 = 2.0\n" + INI, 1),                                  # key before any section
    (INI.replace("y0 = 1.0\n", "y0 = 1.0\ny0 1.0\n"), 5),       # line without '='
], ids=["duplicate-option", "missing-section-header", "parsing-error"])
def test_ini_syntax_error_is_config_error(tmp_path, capsys, text, line):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(text)
    with pytest.raises(ValidationError):
        load_scenario("mine", config_path=cfg)
    code, _ = run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert re.search(r"\bline:? (\d+)", err).group(1) == str(line)


def test_ini_percent_is_the_modulo_operator(tmp_path):
    # configparser's default interpolation would reject '%' in an expression
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("gamma0 = -x\n", "gamma0 = -x % 3\n"))
    sc = load_scenario("mine", config_path=cfg)
    assert list(sc.coeffs.gamma0(np.array([1.0, 4.0]))) == [2.0, 2.0]


def test_import_and_preset_load_do_not_import_scipy():
    # scipy is a test dependency only; loading it would also triple the
    # package's start-up time
    import nlbranch
    src = str(Path(nlbranch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, nlbranch.cli\n"
             "from nlbranch.config import load_scenario\n"
             "load_scenario('logistic')\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_ini_sim_defaults_are_simconfig_defaults(tmp_path):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI)
    assert "eps" not in INI
    assert load_scenario("mine", config_path=cfg).sim.eps == SimConfig().eps


def test_readme_ini_example_loads_and_checks(tmp_path, capsys):
    # the documented format is the one the reader takes, and the example
    # restates the logistic preset, so check prints the preset's report
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [example] = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(example)
    name = re.search(r"^\[scenario (\S+)\]$", example, re.M).group(1)
    sc = load_scenario(name, config_path=cfg)
    assert sc.sim.echo() == load_scenario("logistic").sim.echo()
    code, _ = run(tmp_path, "check", "--scenario", name, "--config", str(cfg))
    assert code == 0
    from_ini = capsys.readouterr().out
    code, _ = run(tmp_path, "check", "--scenario", "logistic")
    assert code == 0
    from_preset = capsys.readouterr().out
    assert from_ini.split("\n", 1)[1] == from_preset.split("\n", 1)[1]


def test_ini_sim_kappa_reaches_noise_check_and_constants(tmp_path, capsys):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("kappa = 0.5\n", "kappa = 0.25\n")
                   .replace("checks = drift, noise", "checks = noise, constants"))
    run(tmp_path, "check", "--scenario", "mine", "--config", str(cfg))
    noise, constants = capsys.readouterr().out.split("constants: derived")
    assert noise.split("condition A2: ", 1)[1].count("  kappa = 0.25\n") == 1
    assert "  kappa = 0.25\n" in constants


# ---------------------------------------------------------------------------
# CLI commands


def test_check_accepts_ergodic_scenario(tmp_path, capsys):
    code, out = run(tmp_path, "check", "--scenario", "case2-stable")
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict = all-hold" in text
    assert (out / "case2-stable.check.txt").read_text().strip().endswith(
        "verdict = all-hold")


def _report_blocks(text):
    """{head: {key: value}} of a check report: each unindented line's head
    (up to its ':') with the 'key = value' lines indented below it."""
    blocks, fields = {}, {}
    for line in text.splitlines():
        if not line.startswith("  "):
            fields = blocks.setdefault(line.split(":")[0], {})
        elif " = " in line:
            key, val = line.strip().split(" = ", 1)
            fields[key] = val
    return blocks


@pytest.mark.parametrize("name", [name for name in PRESETS
                                  if "constants" in load_scenario(name).checks])
def test_check_constants_use_the_noise_report_values(tmp_path, capsys, name):
    # the printed values are reprs, so equal text is equal bits
    code, _ = run(tmp_path, "check", "--scenario", name)
    assert code == 0
    blocks = _report_blocks(capsys.readouterr().out)
    noise = blocks[f"condition {load_scenario(name).case}"]
    constants = blocks["constants"]
    assert "k3" in constants
    for key in ("k3", "C_star"):
        assert constants.get(key) == noise.get(key)


def test_check_rejects_pure_growth_with_witnesses(tmp_path, capsys):
    code, _ = run(tmp_path, "check", "--scenario", "pure-growth")
    assert code == 1
    text = capsys.readouterr().out
    assert "fails-at" in text
    assert "witness" in text
    assert "verdict = failed" in text


def test_check_fails_on_skipped_lyapunov_points(tmp_path, capsys, monkeypatch):
    evaluate = generator._coupling_L

    def failing_at_one_point(fn, x, y, *args):
        values, errors = evaluate(fn, x, y, *args)
        hit = (y == 2.0) & np.isclose(x - y, 1e-3, rtol=1e-9, atol=0.0)
        for i in np.flatnonzero(hit):
            values[i], errors[i] = math.nan, QuadratureError("integrand refused")
        return values, errors

    monkeypatch.setattr(generator, "_coupling_L", failing_at_one_point)
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


@pytest.mark.parametrize("argv, ini_line", [
    (["couple", "--scenario", "case2-stable", "--step", "nan"], None),
    (["couple", "--scenario", "mine"], "kappa = nan"),
    (["couple", "--scenario", "mine"], "t_end = inf"),
], ids=["step-nan", "ini-kappa-nan", "ini-t_end-inf"])
def test_non_finite_sim_value_is_config_error(tmp_path, capsys, argv, ini_line):
    # a NaN kappa would read every partner row's rho at a NaN gap, and a NaN
    # step or infinite horizon would die in the step count
    if ini_line is not None:
        cfg = tmp_path / "scen.ini"
        cfg.write_text(with_line(INI, "sim", ini_line))
        argv = argv + ["--config", str(cfg)]
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "finite" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["check"]) == 2  # --scenario required


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "--scenario" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", "cir"],                # unknown command
    ["check", "--scenario", "cir", "--sed", "1"],   # unknown option
    ["couple", "--paths", "10"],                    # no --scenario
])
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "usage: nlbranch" in capsys.readouterr().err


def test_each_command_reaches_its_own_function(monkeypatch):
    calls = []
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda args, name=name: calls.append((name, args)) or 7)
    for name in ("check", "testfn", "couple", "simulate", "invariant"):
        assert main([name, "--scenario", "mine", "--config", "my.ini", "--out", "d",
                     "--seed", "11", "--paths", "40", "--step", "0.25"]) == 7
        reached, args = calls.pop()
        assert reached == name and not calls
        assert (args.scenario, args.config, args.out) == ("mine", "my.ini", "d")
        assert (args.seed, args.paths, args.step) == (11, 40, 0.25)
        assert (type(args.seed), type(args.paths), type(args.step)) == (int, int, float)
    assert sorted(cli.COMMANDS) == ["check", "couple", "invariant", "simulate", "testfn"]


def test_testfn_writes_table(tmp_path, capsys):
    code, out = run(tmp_path, "testfn", "--scenario", "case2-stable")
    assert code == 0
    table = (out / "case2-stable.testfn.csv").read_text().splitlines()
    assert table[0] == "r,psi,dpsi,d2psi"
    r0 = [float(v) for v in table[1].split(",")]
    assert r0[0] == 0.0 and r0[1] == 0.0  # psi(0) = 0
    assert "lam" in (out / "case2-stable.constants.txt").read_text()


@pytest.mark.parametrize("name", ["case2-stable", "logistic", "xlog-drift"])
def test_testfn_row_at_zero_is_the_limit_without_warnings(tmp_path, capsys, name):
    # psi'' at r = 0 is the limit -c2 g'(0+), infinite for theta < 1, and
    # writing it evaluates no power of r near 0, so nothing overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "testfn", "--scenario", name)
    assert code == 0
    assert capsys.readouterr().err == ""
    constants = (out / f"{name}.constants.txt").read_text()
    assert "theta_exp = 0.5\n" in constants
    rows = (out / f"{name}.testfn.csv").read_text().splitlines()
    r, _, _, d2psi = (float(v) for v in rows[1].split(","))
    assert r == 0.0 and d2psi == -math.inf


# per preset with a case: the exit code of `check`, and the sha256 of its
# report and of the CSV and constants file `testfn` writes.  A change to the
# verifier that moves any constant, margin or table entry shows here.
OUTPUT_PINS = {
    "case1-diffusion": (
        0, "9590c4fd0ecb9351a691426733d654cd5402c41e845b85673a08cec72bf123b7",
        "68df4feb07e6e458dac6ed7b0ad8e5312ccbcc80a7493ce26ff917eb9d89c1c0",
        "c9e3fa1282c7bc19d7ccb95c795f817c22e7fd7936614e9ca477f42f686dd35f"),
    "case2-stable": (
        0, "7d8ae04844a277172166b4ff5df975fdfc1e9d7d60e921c7b87a7125e2556f3a",
        "dbc3d9454a32ee6bc0b3cefe6b6006b800c54c6a747467ed932c905c39a0f5eb",
        "fe79b79353614415e94680ba20ad0a04c14b3ee618f1a45445d675030179cff7"),
    "case3-dyadic": (
        0, "1eaeb4a49ccf5262b8d7219fc8cec92bdd65bf9dcb1f75fc5ffa060b190abdbd",
        "dbc3d9454a32ee6bc0b3cefe6b6006b800c54c6a747467ed932c905c39a0f5eb",
        "f0cec3368970b4dd97ce6aa304bab51e1755a1a5dd61db2a50a452532e630efd"),
    "cir": (
        0, "6ab04130f3970201411e8b96c84aabba5b2e8e3e17edf7c8aedf0e6ed8c0a10e",
        "68df4feb07e6e458dac6ed7b0ad8e5312ccbcc80a7493ce26ff917eb9d89c1c0",
        "01ddabfe29263744bd10c86b415af734fc937f3bcfe902d6ea00a9130287d7cf"),
    "cir-rate": (
        0, "8f71aadb38141543a8bb3ca3f8f2c85dc582474d0eb9c3d5860f9d24c8484381",
        "68df4feb07e6e458dac6ed7b0ad8e5312ccbcc80a7493ce26ff917eb9d89c1c0",
        "01ddabfe29263744bd10c86b415af734fc937f3bcfe902d6ea00a9130287d7cf"),
    "logistic": (
        0, "f555d9c8dcd17bba26e365d2c4236e8ead63704c97aac9b1d3fb999849e9bb9e",
        "170bc11c51d965ab5dfcad3ea1ee7a3f1b3829c3914433e5859ee787738e74af",
        "80a4b3c9d0d370d059c4cc40b7dbba2fdb33380df82bab5b0d8301f94c5ca974"),
    "pure-growth": (
        1, "52b166f63baba8ddd0f9a89821658882877a2d84046b25407f709b0277646c7e",
        "68df4feb07e6e458dac6ed7b0ad8e5312ccbcc80a7493ce26ff917eb9d89c1c0",
        "c9e3fa1282c7bc19d7ccb95c795f817c22e7fd7936614e9ca477f42f686dd35f"),
    "superexp": (
        0, "339d900810fecad76941f2f3e2141c2c06653f037936f45f0b27105ab9afbb36",
        "dbc3d9454a32ee6bc0b3cefe6b6006b800c54c6a747467ed932c905c39a0f5eb",
        "103d43101d1d625f0eda04dfb38c12548855027181bfa7a336c610879cc1e710"),
    "xlog-drift": (
        0, "1d56931065718228684932eacf6af0043da7456a68181ba0b3b1c6bf97f4af2d",
        "161cd9520383dc1541fe998d89ba046b98a9399b8ff3daaceb68f35e12fe34c5",
        "ed3da8c1b47424403ce8982f52bc2ce490553329a3ed2df5fb0274c50f451617"),
}


def test_output_pins_cover_every_preset_with_a_case():
    assert sorted(OUTPUT_PINS) == sorted(name for name in PRESETS
                                         if load_scenario(name).case)


@pytest.mark.parametrize("name", sorted(OUTPUT_PINS))
def test_check_and_testfn_outputs_are_pinned(tmp_path, capsys, name):
    check_code, report, table, constants = OUTPUT_PINS[name]
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    code, out = run(tmp_path, "check", "--scenario", name)
    assert code == check_code
    assert digest(out / f"{name}.check.txt") == report
    code, out = run(tmp_path, "testfn", "--scenario", name)
    assert code == 0
    assert digest(out / f"{name}.testfn.csv") == table
    assert digest(out / f"{name}.constants.txt") == constants


def test_couple_runs_and_is_idempotent(tmp_path, capsys):
    args = ("couple", "--scenario", "case2-stable", "--paths", "200")
    code, out = run(tmp_path, *args)
    assert code == 0
    captured = capsys.readouterr()
    assert "order_violations = 0" in captured.out
    hazard = float(captured.out.split("max_step_hazard = ")[1].split()[0])
    assert 0.0 < hazard < 1.0
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


BLOWUP_INI = """
[scenario blowup]
x0 = 0.9
y0 = 0.5

[coefficients blowup]
type = custom
gamma0 = 4*x*(x - 1)
gamma2 = x

[measure blowup]
type = stable_truncated
alpha = 1.5

[sim blowup]
eps = 0.1
t_end = 0.5
n_paths = 400
seed = 20240811
"""


def test_blowups_fail_every_simulating_command(tmp_path, capsys):
    # gamma0 = 4x(x - 1) sends a path that jumps above 1 to infinity; with
    # gamma0 = x^3 from x0 = 10 every path blows up, leaving nothing to
    # estimate from, and no estimate file is written
    every = (BLOWUP_INI.replace("x0 = 0.9", "x0 = 10")
             .replace("gamma0 = 4*x*(x - 1)", "gamma0 = x**3"))
    for ini, n_bad in ((BLOWUP_INI, None), (every, 400)):
        cfg = tmp_path / "blowup.ini"
        cfg.write_text(ini)
        for command in ("couple", "simulate", "invariant"):
            out = tmp_path / f"{command}-{n_bad}"
            code = main([command, "--config", str(cfg), "--scenario", "blowup",
                         "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert "too many flagged paths" in err
            if n_bad is not None:
                assert f"too many flagged paths ({n_bad}/{n_bad})" in err
                assert not any(out.iterdir())


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


def test_invariant_horizon_is_the_last_record_time(tmp_path, capsys, monkeypatch):
    # t_end = 0.5, but the summaries are taken at the last record time, 0.25,
    # say so, and the run stops there
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("record_times = 0.0,0.25,0.5\n",
                               "record_times = 0.0,0.25\n"))
    plans = []
    record_plan = simulate._record_plan

    def recording_plan(sim):
        plans.append(record_plan(sim))
        return plans[-1]

    monkeypatch.setattr(simulate, "_record_plan", recording_plan)
    code, out = run(tmp_path, "invariant", "--scenario", "mine", "--config", str(cfg))
    assert code == 0
    assert (out / "mine.invariant.txt").read_text() == (
        "scenario = mine\n"
        "horizon = 0.25\n"
        "start_2.0: mean = 1.25804420405087, var = 0.5023213918388696, n = 50\n"
        "start_1.0: mean = 0.6497642230111272, var = 0.2769165329938445, n = 50\n"
        "tail_w1 = 0.6082799810397426\n")
    # one kernel pass of the 25 steps (h = 0.01) up to the horizon
    assert [plan[0] for plan in plans] == [25]
    assert capsys.readouterr().err == ""


def test_invariant_horizon_at_zero_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(INI.replace("record_times = 0.0,0.25,0.5\n", "record_times = 0.0\n"))
    code, out = run(tmp_path, "invariant", "--scenario", "mine", "--config", str(cfg))
    assert code == 2
    assert not (out / "mine.invariant.txt").exists()
    assert "config error: invariant needs a horizon" in capsys.readouterr().err


def test_threads_flag_is_rejected(capsys):
    # the flag was a worker hint nothing read; it is gone, so any value of it
    # is now a usage error
    assert main(["check", "--scenario", "cir", "--threads", "1"]) == 2
    assert "--threads" in capsys.readouterr().err
