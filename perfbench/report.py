"""Every workload in both modes, the conformance run and the checker
self-test, with every metric printed by name and unit.

    python3 perfbench/report.py [--seed 20240811] [--write perfbench/baseline.json]

Each run is a separate ``run.py`` process, so peak memory is per workload.
Two workloads of workloads.py are run here but not by the benchmark:
`couple-dyadic`, left out of BENCHMARK.json so that repeated benchmark runs
fit their time budget, and `simulate-csv`, whose command fails its check at the
commit that introduced the benchmark and is reported here so the defect stays
visible.  ``--write`` stores the results with machine facts as a baseline.
Exits 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
EXTRA = ("couple-dyadic", "simulate-csv")


def run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):   # the JSON result is read from the record
            print(line)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--write", type=Path, default=None,
                   help="write the results as JSON to this file")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    rc = run("--selftest")
    ok = rc == 0
    report = {"seed": args.seed, "run_seconds": spec["run_seconds"],
              "selftest": "passed" if ok else "failed", "workloads": {}}
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA)
    for name in names:
        entry = {}
        for trace in (0, 1):
            rc = run("--workload", name, "--seed", str(args.seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", str(trace))
            if rc != 0:
                ok = False
                entry[f"trace{trace}"] = {"exit_code": rc}
                continue
            record = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{trace}.json")
                                .read_text())
            ok &= record["correct"]
            report.setdefault("facts", record["facts"])
            entry[f"trace{trace}"] = {k: record[k] for k in (
                "attempted", "failed", "metrics", "derived", "failures",
                "path_steps", "grid_points", "pass_wall_s", "pass_cpu_s",
                "pass_ref_s")}
        report["workloads"][name] = entry

    if args.write is not None:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    print("report: " + ("all checks passed" if ok else "some checks FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
