"""Smoke tests of the standalone drivers in scripts/, on two presets."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import nlbranch
from nlbranch import generator
from nlbranch.config import PRESETS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TRACER = SCRIPTS.parent / "perfbench" / "tracer.py"
SUBSET = ("case2-stable", "cir")


def load_script(name, monkeypatch):
    """Import scripts/<name>.py with its PRESETS cut down to SUBSET."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "PRESETS", {name: PRESETS[name] for name in SUBSET})
    return module


def test_run_all_scenarios_quick(tmp_path, monkeypatch, capsys):
    script = load_script("run_all_scenarios", monkeypatch)
    assert script.run(["--quick", "--out", str(tmp_path)]) == 0
    summary = capsys.readouterr().out.split("=== summary ===", 1)[1].split()
    assert summary == [word for name in SUBSET
                       for word in (name, "check=0", "couple=0", "ok")]
    for name in SUBSET:
        assert (tmp_path / f"{name}.check.txt").is_file()
        assert (tmp_path / f"{name}.fit.txt").is_file()


def test_kernel_fingerprint(monkeypatch, capsys):
    script = load_script("kernel_fingerprint", monkeypatch)
    blow_up = "blowup-zero-gamma1"
    monkeypatch.setattr(script, "BLOW_UPS", {blow_up: script.BLOW_UPS[blow_up]})
    assert script.run() == 0
    lines = capsys.readouterr().out.splitlines()
    # two couplings x two small-jump policies x three simulator lines per case:
    # the presets, the blow-up model and the many-events model
    assert len(lines) == 12 * (len(SUBSET) + 2)
    committed = set((SCRIPTS / "kernel_fingerprint.txt").read_text().splitlines())
    for line in lines:
        name, coupling, policy, simulator, _ = line.split()
        assert name in SUBSET + (blow_up, "many-events")
        assert simulator in ("coupled", "single", "single-y0")
        # the ensembles are the ones the committed fingerprint records
        assert line in committed
    assert sum(line.startswith(blow_up + " ") for line in lines) == 12
    assert sum(line.startswith("many-events ") for line in lines) == 12


def test_committed_fingerprint_names_every_configuration(monkeypatch):
    # CI diffs a fresh run against the committed output, so the file must
    # hold one line per configuration the script prints, in its order
    script = load_script("kernel_fingerprint", monkeypatch)
    monkeypatch.setattr(script, "PRESETS", PRESETS)
    tags = [f"{case[0]} {coupling} {policy} {simulator}" for case in script._cases()
            for coupling in ("refined-basic", "synchronous")
            for policy in ("drop-with-compensator", "gaussian-compensation")
            for simulator in ("coupled", "single", "single-y0")]
    lines = (SCRIPTS / "kernel_fingerprint.txt").read_text().splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == tags
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)


def test_kernel_fingerprint_fails_when_stacking_differs(monkeypatch, capsys):
    # starts stacked in the wrong order reproduce neither single digest
    script = load_script("kernel_fingerprint", monkeypatch)
    blow_up = "blowup-jumps"
    monkeypatch.setattr(script, "PRESETS", {})
    monkeypatch.setattr(script, "N_PATHS", 40)
    monkeypatch.setattr(script, "T_END", 0.1)
    monkeypatch.setattr(script, "BLOW_UPS", {blow_up: script.BLOW_UPS[blow_up]})
    stacked = script.simulate_starts
    monkeypatch.setattr(script, "simulate_starts",
                        lambda coeffs, nu, starts, cfg:
                        stacked(coeffs, nu, starts[::-1], cfg))
    assert script.run() == 1
    out, err = capsys.readouterr()
    # the blow-up model and the many-events model
    assert len(out.splitlines()) == 24
    assert err.count("simulate_starts differs from the single runs") == 8


def test_bench_layers_tiny(tmp_path, monkeypatch, capsys):
    script = load_script("bench_layers", monkeypatch)
    one = script.sample(paths=40, steps=5, calls=3)
    layers = ("event_reads_us_m25", "event_reads_us_m200", "rho_rows_us",
              "lyapunov_grid_ms.case2-stable", "lyapunov_grid_ms.logistic",
              "coupling_L_us", "assemble_ms.case2-stable.w1", "assemble_ms.logistic.w1",
              "assemble_ms.logistic.strong", "check_ms.case2-stable", "check_ms.logistic")
    rates = [f"{name}.{kind}_mpath_steps_per_s" for name in SUBSET
             for kind in ("single", "coupled")]
    assert sorted(one) == sorted(layers + tuple(rates))
    assert all(one[key] > 0 for key in layers + tuple(rates))
    # this tree against itself, one pair of fresh interpreters
    out = tmp_path / "bench.json"
    assert script.main(["--parent", str(SCRIPTS.parent), "--repeats", "1",
                        "--paths", "40", "--steps", "5", "--calls", "3",
                        "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == result
    assert sorted(result["trees"]) == ["change", "parent"]
    assert set(result["paired"]) == set(result["trees"]["change"])
    assert all(stats["samples"][0] > 0 for stats in result["paired"].values())
    for metrics in result["trees"].values():
        assert set(layers) <= set(metrics)
        for stats in metrics.values():
            assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert len(stats["samples"]) == 1
    assert result["machine"]["numpy"] == np.__version__
    # the kernel metrics of both trees timed in one interpreter, every preset
    # (the fresh interpreter reads the unpatched PRESETS)
    twin = result["one_interpreter"]
    assert sorted(twin["trees"]) == ["change", "parent"]
    kernel = {f"{name}.{kind}_mpath_steps_per_s" for name in script.PRESETS
              for kind in ("single", "coupled")}
    assert kernel == set(rates)
    for metrics in (*twin["trees"].values(), twin["paired"]):
        assert kernel <= set(metrics)
        assert all(len(stats["samples"]) == 1 and stats["samples"][0] > 0
                   for stats in metrics.values())
    # samples stay in run order, so sample i of the two trees is a pair
    runs = {script.ROOT: iter([5.0, 1.0, 3.0]), tmp_path.resolve(): iter([2.0, 6.0, 4.0])}
    monkeypatch.setattr(script, "_sample_tree", lambda tree, args: {"m": next(runs[tree])})
    monkeypatch.setattr(script, "_twin_samples", lambda parent, args: {
        "change": [{"m": 1.0}], "parent": [{"m": 2.0}]})
    assert script.main(["--parent", str(tmp_path), "--repeats", "3", "--out", str(out)]) == 0
    trees = json.loads(out.read_text())["trees"]
    assert trees["change"]["m"]["samples"] == [5.0, 1.0, 3.0]
    assert trees["parent"]["m"]["samples"] == [2.0, 6.0, 4.0]
    assert trees["change"]["m"]["median"] == 3.0
    # the ratio change / parent of each pair, with its median and quartiles
    paired = json.loads(out.read_text())["paired"]["m"]
    assert paired["samples"] == [2.5, 1.0 / 6.0, 0.75]
    assert paired["median"] == 0.75
    assert paired["q1"] <= paired["median"] <= paired["q3"]


def test_benchmark_tracer_installs_and_uninstalls():
    # the benchmark's traced runs wrap package objects by name: install looks
    # each one up, so deleting a name the tracer lists fails here, and
    # uninstall puts every original back
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    orig = generator.verify_lyapunov
    trace = tracer.Tracer()
    try:
        trace.install(nlbranch)
        assert generator.verify_lyapunov is not orig
    finally:
        trace.uninstall()
    assert generator.verify_lyapunov is orig
