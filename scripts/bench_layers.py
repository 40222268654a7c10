#!/usr/bin/env python3
"""Time the path kernel's and the generator's layers, for one source tree
or for two in alternating pairs.

    python3 scripts/bench_layers.py --out BENCH_kernel.json
    python3 scripts/bench_layers.py --parent /path/to/other/checkout \\
        --repeats 10 --out BENCH_kernel.json

Each sample runs in a fresh interpreter that imports ``nlbranch`` from the
tree's ``src/`` and times:

- ``event_reads_us_m25`` and ``event_reads_us_m200``: one event round's
  clock-refill, jump-size and mark reads when 25 or 200 paths of 1e4 fire,
  all of them partnered (the median of ``--calls`` rounds): three
  ``simulate._draws`` reads at the firing count;
- ``rho_rows_us``: the overlap ratios of one event round's partner rows,
  rho(-U, z) and rho(U, z) from ``rho_pair`` on 25 jumps of case2's
  measure;
- ``<preset>.single_mpath_steps_per_s`` and ``.coupled_...``: path-steps per
  second of ``simulate_single`` and ``simulate_coupled`` on case2-stable,
  cir, case3-dyadic, xlog-drift and case1-diffusion (a diffusion under the
  refined-basic coupling, whose reflection cir's synchronous coupling does
  not take), at ``--paths`` paths and ``--steps``
  steps of the preset's h (the median of ``KERNEL_RUNS`` timed runs, after
  ``KERNEL_WARMUPS`` untimed ones);
- ``lyapunov_grid_ms.case2-stable`` and ``.logistic``: the 60 x 3 Lyapunov
  grid ``nlbranch check`` scans (``verify_lyapunov`` on the preset's
  assembled test function; the median of up to 5 scans);
- ``coupling_L_us``: one ``apply_coupling_L`` at (x, y) = (1.5, 0.5) on
  case2-stable's test function (the median of ``--calls`` calls);
- ``assemble_ms.case2-stable.w1``, ``assemble_ms.logistic.w1`` and
  ``assemble_ms.logistic.strong``: constant assembly, one
  ``assemble_scenario`` call for the preset and variant from its noise
  report (the median of up to 5 calls);
- ``check_ms.case2-stable`` and ``check_ms.logistic``: one in-process
  ``nlbranch check`` of the preset, ``cli.main`` into a temporary
  directory with its report to stdout discarded (the median of up to 5
  calls).

With ``--parent`` the other tree is sampled too, the order of the two
alternating from repeat to repeat, and the output holds both.  The JSON
output records the machine, the settings, and per tree and metric the
samples in run order, so that sample i of the two trees ran as a pair,
with their median and quartiles.  With ``--parent`` it also holds, per
metric, the paired ratio change / parent of each sample pair, with their
median and quartiles: a change the file resolves moves the ratios'
quartile range off 1.  The generator metrics go through public calls only.

Fresh interpreters differ in heap and cache state by more than a kernel
change of a few percent, so with ``--parent`` the kernel metrics are also
timed with both trees in one interpreter (``one_interpreter`` in the
output): the parent's ``src/nlbranch`` is copied under the name
``nlbranch_parent``, which works because the package imports itself only
through relative imports.  After ``KERNEL_WARMUPS`` untimed runs of every
metric in each tree, each repeat times one run of each metric in both
trees back to back, the tree that runs first alternating from repeat to
repeat, and the output holds the samples, stats and paired ratios as
above.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("case2-stable", "cir", "case3-dyadic", "xlog-drift", "case1-diffusion")
LYAPUNOV_PRESETS = ("case2-stable", "logistic")
ASSEMBLIES = (("case2-stable", "w1"), ("logistic", "w1"), ("logistic", "strong"))
GRID_CALLS = 5
# a kernel metric's untimed and timed runs per sample: a fresh interpreter's
# first run is slower than its later ones, and one run alone is noisy
KERNEL_WARMUPS = 1
KERNEL_RUNS = 3
SEED = 20240811
WIDTH = 10_000
TWIN = "nlbranch_parent"   # the parent tree's package in a one-interpreter run


def _median_us(fn, calls):
    times = []
    for _ in range(calls):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e6 * statistics.median(times)


def _event_round(simulate, fire):
    """round(): the refill, size and mark reads of one event round in which
    the paths fire (all of them partnered), as the kernel makes them."""
    counter = 1000 * simulate._STEP_STRIDE
    slots = (simulate._SLOT_JUMP_OCCUR, simulate._SLOT_JUMP_SIZE, simulate._SLOT_MARK)
    return lambda: [simulate._draws(SEED, slot, counter, fire.size) for slot in slots]


def _check_layers(calls):
    """`check` per preset: its wall milliseconds."""
    from nlbranch.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in LYAPUNOV_PRESETS:
            check = lambda: main(["check", "--scenario", name, "--out", tmp])
            out[f"check_ms.{name}"] = 1e-3 * _median_us(check, min(calls, GRID_CALLS))
    return out


def _generator_layers(calls):
    """The Lyapunov grid of `check` per preset, one coupling operator, and
    constant assembly per preset and variant."""
    from nlbranch.cli import assemble_scenario, noise_report
    from nlbranch.config import load_scenario
    from nlbranch.generator import apply_coupling_L, verify_lyapunov

    out = {}
    for name in LYAPUNOV_PRESETS:
        sc = load_scenario(name)
        constants, fn = assemble_scenario(sc, sc.variant, noise_report(sc))
        grid = lambda: verify_lyapunov(fn, constants.lam, sc.coeffs, sc.nu, sc.sim.kappa,
                                       r_grid=np.logspace(-3, 1, 60))
        out[f"lyapunov_grid_ms.{name}"] = 1e-3 * _median_us(grid, min(calls, GRID_CALLS))
        if name == "case2-stable":
            out["coupling_L_us"] = _median_us(
                lambda: apply_coupling_L(fn, 1.5, 0.5, sc.coeffs, sc.nu, sc.sim.kappa),
                calls)
    for name, variant in ASSEMBLIES:
        sc = load_scenario(name)
        noise = noise_report(sc)
        out[f"assemble_ms.{name}.{variant}"] = 1e-3 * _median_us(
            lambda: assemble_scenario(sc, variant, noise), min(calls, GRID_CALLS))
    return out


def _kernel_runs(package, paths, steps):
    """metric -> run() of each kernel metric, on the named package."""
    simulate = importlib.import_module(f"{package}.simulate")
    load_scenario = importlib.import_module(f"{package}.config").load_scenario
    runs = {}
    for name in PRESETS:
        sc = load_scenario(name)
        cfg = replace(sc.sim, n_paths=paths, t_end=steps * sc.sim.h, record_times=None)
        runs[f"{name}.single_mpath_steps_per_s"] = functools.partial(
            simulate.simulate_single, sc.coeffs, sc.nu, sc.x0, cfg)
        runs[f"{name}.coupled_mpath_steps_per_s"] = functools.partial(
            simulate.simulate_coupled, sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    return runs


def sample(paths, steps, calls):
    """One sample of every metric, from the nlbranch on sys.path."""
    from nlbranch import simulate
    from nlbranch.config import load_scenario

    # `check` first, on a fresh heap as in its own process
    out = _check_layers(calls)
    rng = np.random.default_rng(SEED)
    for m in (25, 200):
        fire = np.sort(rng.choice(WIDTH, m, replace=False))
        out[f"event_reads_us_m{m}"] = _median_us(_event_round(simulate, fire), calls)
    case2 = load_scenario("case2-stable")
    z = np.asarray(case2.nu.quantile_above(case2.sim.eps, rng.random(25)))
    u = np.minimum(rng.random(25), case2.sim.kappa)
    out["rho_rows_us"] = _median_us(lambda: case2.nu.rho_pair(u, z), calls)
    for metric, run in _kernel_runs("nlbranch", paths, steps).items():
        for _ in range(KERNEL_WARMUPS):
            run()
        # path-steps per microsecond are Mpath-steps per second
        out[metric] = paths * steps / _median_us(run, KERNEL_RUNS)
    out.update(_generator_layers(calls))
    return out


def twin(paths, steps, repeats):
    """label -> the kernel samples of nlbranch ("change") and of TWIN
    ("parent"), both imported into this interpreter, in run order."""
    runs = {"change": _kernel_runs("nlbranch", paths, steps),
            "parent": _kernel_runs(TWIN, paths, steps)}
    for tree in runs.values():
        for run in tree.values():
            for _ in range(KERNEL_WARMUPS):
                run()
    samples = {label: [] for label in runs}
    for r in range(repeats):
        order = list(runs) if r % 2 else list(runs)[::-1]
        times = {label: {} for label in runs}
        for metric in runs["change"]:
            for label in order:
                times[label][metric] = paths * steps / _median_us(runs[label][metric], 1)
        for label in runs:
            samples[label].append(times[label])
    return samples


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu, "cpu_count": os.cpu_count(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def _sample_tree(tree, args):
    """One sample from a fresh interpreter on tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--sample",
           "--paths", str(args.paths), "--steps", str(args.steps),
           "--calls", str(args.calls)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _twin_samples(parent, args):
    """twin() from a fresh interpreter on this tree's src/ and a copy of the
    parent's src/nlbranch named TWIN."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(parent) / "src" / "nlbranch", Path(tmp) / TWIN,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), tmp)))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--twin",
               "--paths", str(args.paths), "--steps", str(args.steps),
               "--repeats", str(args.repeats)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _stats(values):
    """Median, quartiles, and the values in run order."""
    q1, med, q3 = (np.percentile(values, [25, 50, 75]).tolist()
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "samples": values}


def _summary(samples):
    """Per metric: the stats of its samples, in run order, so that sample i
    of two trees is the pair that ran together."""
    return {key: _stats([s[key] for s in samples]) for key in samples[0]}


def _paired(change, parent):
    """Per metric: the stats of the ratio change / parent of each pair."""
    return {key: _stats([c[key] / p[key] for c, p in zip(change, parent)])
            for key in change[0]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="a second source checkout to sample alongside")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--out", help="write the JSON here as well as to stdout")
    p.add_argument("--sample", action="store_true",
                   help="print one sample of the nlbranch on the path and exit")
    p.add_argument("--twin", action="store_true",
                   help=f"print the kernel samples of the nlbranch and {TWIN} on the "
                        "path, in one interpreter, and exit")
    args = p.parse_args(argv)
    if args.sample:
        print(json.dumps(sample(args.paths, args.steps, args.calls)))
        return 0
    if args.twin:
        print(json.dumps(twin(args.paths, args.steps, args.repeats)))
        return 0
    trees = {"change": ROOT}
    if args.parent:
        trees["parent"] = Path(args.parent).resolve()
    samples = {label: [] for label in trees}
    for r in range(args.repeats):
        order = list(trees) if r % 2 else list(trees)[::-1]
        for label in order:
            samples[label].append(_sample_tree(trees[label], args))
    result = {"machine": machine(),
              "settings": {"repeats": args.repeats, "paths": args.paths,
                           "steps": args.steps, "calls": args.calls, "seed": SEED,
                           "width": WIDTH, "presets": list(PRESETS)},
              "trees": {label: _summary(samples[label]) for label in trees}}
    if args.parent:
        result["paired"] = _paired(samples["change"], samples["parent"])
        pairs = _twin_samples(trees["parent"], args)
        result["one_interpreter"] = {
            "trees": {label: _summary(pairs[label]) for label in pairs},
            "paired": _paired(pairs["change"], pairs["parent"])}
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
