"""Benchmark of the nlbranch CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload verify --seed 20240811 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout; it imports ``nlbranch`` from
``src/`` and nowhere else, and exits non-zero when that is missing.

One closed-loop client in one single-threaded process calls
``nlbranch.cli.main`` in-process, each command starting after the previous one
returned, with the workload seed passed as ``--seed``.  A pass runs every
command of the workload once; passes repeat until ``--seconds`` have elapsed
(a started pass always finishes), and at least twice.  Every command's exit
code and output files are checked (see checks.py), and the outputs of each
pass are hashed and must equal the first pass's byte for byte.  A command that
fails any of this is a failed operation.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median over
fresh interpreters, three before each pass and three after the last, of
``import nlbranch`` plus ``load_scenario`` of the workload's scenarios, in
seconds at a fixed reference speed (``REF_NOMINAL_S``); ``run_ref`` and
``cpu_ref`` are the medians over passes of the commands' wall and process CPU
time, each pass's divided by the median of the reference loops timed in that
pass (see ``reference``); ``peak_rss_mb`` is the process's peak resident
memory.  The plain medians ``run_s`` and ``cpu_s`` are printed and recorded as
well.  ``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of tracer.py.

The last line of standard output is the JSON result; a record with machine
facts goes to ``.perfbench/results/``, and the traced run's spans to
``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

# fresh interpreters timed before each pass and after the last one
SETUP_PER_ROUND = 3
# every run reruns the workload once at the same seed, for the byte-identity
# check and for a median; past MAX_MEASURE_S no pass starts, so a run ends well
# inside 180 s
MIN_PASSES = 2
MAX_MEASURE_S = 120.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_ref": ("ref", "lower"),
    "cpu_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

DERIVED_UNITS = {"run_s": "s", "cpu_s": "s", "ref_s": "s", "setup_wall_s": "s",
                 "error_rate": "ratio", "passes": "count",
                 "mpath_steps_per_s": "Mpath-steps/s", "grid_points_per_s": "points/s"}

# The reference loop: interpreter work on small numpy arrays (the quadrature
# callbacks of `check`) and counter-based draws with vector operations on
# 1e4-element arrays (the path kernels), about equal time each, and nothing
# from nlbranch.  On a shared host the same command's time swings by up to 70%
# between runs minutes apart (other tenants), and a run's seconds cannot tell
# that apart from a change in the program; divided by the loop's time in the
# same run, much of the swing cancels while a change in nlbranch does not.
# One loop swings by up to 2x from one second to the next, and the host's
# speed drifts over tens of seconds, so REF_REPEATS loops are timed before the
# first command and after every command, and each pass is divided by the
# median of the loops timed in it.  Either half alone tracks one kind of
# command and not the other; a 23-minute interleaved test on a 2-vCPU shared
# x86-64 host gave, over one-minute blocks, an IQR/median of 0.19-0.29 raw and 0.05-0.10
# divided by this loop, for couple, invariant and check alike.
REF_ROUNDS = 15000
REF_DRAWS = 400
REF_REPEATS = 3
# Set-up time swings with the host as well: over three sets of ten runs its
# plain median moved by up to 25% from set to set, and by up to 13% divided by
# the run's median loop time.  setup_s is therefore reported in seconds of a
# host on which one loop takes REF_NOMINAL_S, about its median on the 2-vCPU
# host the baseline was measured on; the plain seconds are recorded as
# setup_wall_s.
REF_NOMINAL_S = 0.14
_REF_SMALL = np.linspace(0.1, 1.0, 64)
_REF_LARGE = np.linspace(0.1, 1.0, 10000)

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nlbranch
from nlbranch.config import load_scenario
for name in sys.argv[2:]:
    load_scenario(name)
print(repr(time.perf_counter() - t0))
"""


def import_program():
    """``nlbranch`` from this checkout's src/, or exit non-zero."""
    if not (SRC / "nlbranch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nlbranch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlbranch
    import nlbranch.cli
    if Path(nlbranch.__file__).resolve().parent != (SRC / "nlbranch").resolve():
        sys.exit(f"perfbench: imported nlbranch from {nlbranch.__file__}, "
                 f"not from {SRC}")
    return nlbranch


def measure_setup(scenarios):
    """Seconds of import + scenario loading in SETUP_PER_ROUND fresh
    interpreters."""
    times = []
    for _ in range(SETUP_PER_ROUND):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *scenarios],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def reference():
    """(wall, cpu) seconds of one reference loop."""
    c0, w0 = time.process_time(), time.perf_counter()
    acc = 0.0
    for i in range(REF_ROUNDS):
        y = np.where(_REF_SMALL > 0.5, np.sqrt(_REF_SMALL), _REF_SMALL * _REF_SMALL)
        acc += float(y[3]) * 0.5 + i % 7
        if i % 10 == 0:
            acc += float(np.maximum(_REF_LARGE * 0.5 - 0.1, 0.0)[i % 100])
    for i in range(REF_DRAWS):
        u = np.random.Generator(np.random.Philox(key=i, counter=0)).random(_REF_LARGE.size)
        y = np.where(u < 0.1, _REF_LARGE + u, _REF_LARGE)
        acc += float(np.maximum(y * 0.5 - 0.1, 0.0)[i % 100]) + float(np.sqrt(y)[7])
    return time.perf_counter() - w0, time.process_time() - c0


@dataclass
class Pass:
    wall: float       # seconds in the CLI calls
    cpu: float
    refs: list        # (wall, cpu) of the reference loops timed in the pass
    results: list     # (op, failures, digest) per command

    @property
    def ref_wall(self):
        return statistics.median(r[0] for r in self.refs)

    @property
    def ref_cpu(self):
        return statistics.median(r[1] for r in self.refs)


def digest(out: Path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def run_pass(cli, workload, seed, out_dir: Path) -> Pass:
    """Each op once, with reference loops before the first and after every
    op."""
    wall = cpu = 0.0
    refs = [reference() for _ in range(REF_REPEATS)]
    results = []
    for i, op in enumerate(workload.ops):
        out = out_dir / f"op{i}"
        out.mkdir(parents=True)
        argv = [*op.argv, "--seed", str(seed), "--out", str(out)]
        sink = io.StringIO()
        crash = None
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception:   # a crash is a failed operation, not a benchmark error
            rc, crash = None, traceback.format_exc(limit=3)
        op_wall, op_cpu = time.perf_counter() - w0, time.process_time() - c0
        refs += [reference() for _ in range(REF_REPEATS)]
        wall += op_wall
        cpu += op_cpu
        if rc != 0:
            failures = [f"exit code {rc}: {(crash or sink.getvalue())[-400:]}"]
        else:
            try:
                failures = op.check(out)
            except Exception as exc:   # unreadable output fails the op
                failures = [f"output not as expected: {exc!r}"]
        results.append((op, failures, digest(out)))
    return Pass(wall, cpu, refs, results)


def compare_with_first(passes):
    """Outputs of every later pass must equal the first pass's bytes."""
    first = passes[0].results
    for p in passes[1:]:
        for (op, failures, dig), (_, _, dig0) in zip(p.results, first):
            if dig != dig0:
                changed = sorted(k for k in dig.keys() | dig0.keys()
                                 if dig.get(k) != dig0.get(k))
                failures.append("output differs from the first pass at the same "
                                f"seed: {', '.join(changed)}")


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


def bench(workload_name, seed, seconds, trace):
    nlbranch = import_program()
    import tracer
    import workloads
    from nlbranch import cli
    from nlbranch.config import load_scenario

    known = workloads.build(load_scenario)
    if workload_name not in known:
        sys.exit(f"perfbench: unknown workload {workload_name!r}; "
                 f"known: {', '.join(known)}")
    workload = known[workload_name]
    out_root = WORK_DIR / "out" / workload_name
    shutil.rmtree(out_root, ignore_errors=True)

    if trace:
        passes = [run_pass(cli, workload, seed, out_root / "untraced")]
        tr = tracer.Tracer()
        tr.install(nlbranch)
        try:
            passes.append(run_pass(cli, workload, seed, out_root / "traced"))
        finally:
            tr.uninstall()
        # the traced pass's extra time, with both passes at the untraced
        # pass's reference speed, so a host swing between them cancels
        untraced, traced = passes
        overhead_s = (traced.wall / traced.ref_wall
                      - untraced.wall / untraced.ref_wall) * untraced.ref_wall
        values = tr.per_layer_metrics(traced.wall, overhead_s)
        units = {k: unit for k, (unit, _) in tracer.PER_LAYER.items()}
        tr.write(WORK_DIR / "trace" / f"{workload_name}-seed{seed}.json")
    else:
        setup_times = []
        passes = []
        start = time.perf_counter()
        while True:
            setup_times += measure_setup(workload.scenarios)
            passes.append(run_pass(cli, workload, seed,
                                   out_root / f"pass{len(passes)}"))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall > MAX_MEASURE_S or (
                    len(passes) >= MIN_PASSES and elapsed >= seconds):
                break
        setup_times += measure_setup(workload.scenarios)
        run_ref_wall = statistics.median(r[0] for p in passes for r in p.refs)
        values = {
            "setup_s": statistics.median(setup_times) / run_ref_wall * REF_NOMINAL_S,
            "run_ref": statistics.median(p.wall / p.ref_wall for p in passes),
            "cpu_ref": statistics.median(p.cpu / p.ref_cpu for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
    compare_with_first(passes)

    ops = [(op, failures) for p in passes for op, failures, _ in p.results]
    failed = [(op, f) for op, f in ops if f]
    # plain times and throughput of the untraced passes; a throughput applies
    # to some workloads only, so it is not a metric of every workload
    untraced = passes[:1] if trace else passes
    run_s = statistics.median(p.wall for p in untraced)
    derived = {"run_s": run_s, "cpu_s": statistics.median(p.cpu for p in untraced),
               "ref_s": statistics.median(p.ref_wall for p in untraced),
               "error_rate": len(failed) / len(ops), "passes": len(passes)}
    if not trace:
        derived["setup_wall_s"] = statistics.median(setup_times)
    if workload.path_steps:
        derived["mpath_steps_per_s"] = workload.path_steps / 1e6 / run_s
    if workload.grid_points:
        derived["grid_points_per_s"] = workload.grid_points / run_s

    for op, failures in failed:
        print(f"FAILED {' '.join(op.argv)}: " + " | ".join(failures))
    for name, value in {**values, **derived}.items():
        unit = units.get(name) or DERIVED_UNITS[name]
        print(f"{workload_name} {name} = {value:.6g} {unit}")

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": trace, "facts": machine_facts(), **result, "derived": derived,
              "path_steps": workload.path_steps, "grid_points": workload.grid_points,
              "pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes],
              "pass_ref_s": [p.ref_wall for p in passes],
              **({} if trace else {"setup_times_s": setup_times}),
              "failures": [{"argv": list(op.argv), "failures": f} for op, f in failed]}
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload_name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def selftest():
    """The checker must fail a flipped verdict and a CIR mean moved by 10 se,
    and BENCHMARK.json must name exactly the metrics this code reports."""
    import checks
    import tracer

    fixtures = HERE / "fixtures"
    check_txt = (fixtures / "case2-stable.check.txt").read_text()
    inv_txt = (fixtures / "cir.invariant.txt").read_text()
    line = next(ln for ln in inv_txt.splitlines() if ln.startswith("start_2.0:"))
    mean, var, n = checks.invariant_rows(line)[2.0]
    shifted = line.replace(f"mean = {mean!r}",
                           f"mean = {mean + 10.0 * (var / n) ** 0.5!r}")
    flipped = check_txt.replace("condition lyapunov: holds-on-grid",
                                "condition lyapunov: fails-at")
    verify = checks.check_verify("case2-stable")
    # the fixture is `invariant --scenario cir` at the bundled 20000 paths
    invariant = checks.check_invariant("cir", 20000, 2.0, checks.cir_mean)
    cases = {"clean": ((verify, "case2-stable.check.txt", check_txt),
                       (invariant, "cir.invariant.txt", inv_txt)),
             "corrupted": ((verify, "case2-stable.check.txt", flipped),
                           (invariant, "cir.invariant.txt", inv_txt.replace(line, shifted)))}
    ok = True
    for case, ops in cases.items():
        failed = 0
        for i, (check, fname, text) in enumerate(ops):
            out = WORK_DIR / "selftest" / case / f"op{i}"
            out.mkdir(parents=True, exist_ok=True)
            (out / fname).write_text(text)
            failures = check(out)
            failed += bool(failures)
            print(f"selftest {case} {fname}: " + ("; ".join(failures) or "pass"))
        print(f"selftest {case}: error_rate = {failed}/{len(ops)}")
        ok &= failed == (0 if case == "clean" else len(ops))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    for what, got, want in (("end_to_end", declared, END_TO_END),
                            ("per_layer", layers, tracer.PER_LAYER)):
        if got != want:
            ok = False
            print(f"selftest BENCHMARK.json {what} differs from the code: "
                  f"{sorted(set(got.items()) ^ set(want.items()))}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check the output checker and BENCHMARK.json, then exit")
    args = p.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    bench(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
