"""Output checks for the benchmark's CLI commands.

Every check reads the files a command wrote and returns a list of failure
strings; an empty list means the command's output is correct.  No check
depends on the seed: each compares against a seed-free reference (a verdict,
a closed-form mean, a statistical tolerance of 4 standard errors) or against
a value the command computes without randomness.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

HOLDS = "holds-on-grid"

# `nlbranch check` involves no randomness; these are its outputs at the commit
# that introduced the benchmark.  A change that moves them changes a verdict.
CHECK_EXPECTED = {
    "case2-stable": {"max_margin": -0.003927175847040058,
                     "lambda": 0.008386346400629128, "strong": None},
    "logistic": {"max_margin": -0.0234729275943238,
                 "lambda": 0.014415748878943823, "strong": "accepted"},
}
MARGIN_TOL = 1e-9

# certified W1 contraction rate of case2-stable, as `check` reports it above
CASE2_CERTIFIED_LAMBDA = CHECK_EXPECTED["case2-stable"]["lambda"]

MAX_FLAGGED_SHARE = 0.01
N_SE = 4.0


def _read(out: Path, name: str) -> str:
    return (out / name).read_text()


def parse_check_report(text: str) -> dict:
    """`<scenario>.check.txt` -> {"conditions": {id: {...}}, "strong", "verdict"}.

    Each condition holds its verdict, its `key = value` fields and its other
    indented lines (notes on skipped grid points, witness lines).
    """
    rep = {"conditions": {}, "strong": None, "verdict": None, "constants": None}
    section = None
    for line in text.splitlines():
        if line.startswith("condition "):
            cid, verdict = line[len("condition "):].split(": ", 1)
            section = {"verdict": verdict, "fields": {}, "notes": []}
            rep["conditions"][cid] = section
        elif line.startswith("constants: "):
            rep["constants"] = line[len("constants: "):]
            section = None
        elif line.startswith("strong-ergodicity branch: "):
            rep["strong"] = line[len("strong-ergodicity branch: "):].split(" ", 1)[0]
            section = None
        elif line.startswith("verdict = "):
            rep["verdict"] = line[len("verdict = "):]
            section = None
        elif line.startswith("  ") and section is not None:
            body = line.strip()
            if " = " in body:
                key, val = body.split(" = ", 1)
                section["fields"][key] = val
            else:
                section["notes"].append(body)
    return rep


def parse_keyvalues(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key.strip()] = val.strip()
    return out


def parse_numeric_csv(text: str, failures: list, name: str):
    """Header plus rows of floats.  A cell that is not a plain number is a
    failure, named with its row and column."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            failures.append(f"{name} row {i}: {len(cells)} cells, header has "
                            f"{len(header)}")
            continue
        row = {}
        for col, cell in zip(header, cells):
            try:
                row[col] = float(cell)
            except ValueError:
                failures.append(f"{name} row {i} column {col}: not a number: "
                                f"{cell!r}")
                row[col] = math.nan
        rows.append(row)
    return rows


def check_verify(scenario: str):
    exp = CHECK_EXPECTED[scenario]

    def check(out: Path) -> list:
        failures = []
        rep = parse_check_report(_read(out, f"{scenario}.check.txt"))
        for cid in ("drift", "A2", "lyapunov"):
            cond = rep["conditions"].get(cid)
            if cond is None:
                failures.append(f"condition {cid} missing")
            elif cond["verdict"] != HOLDS:
                failures.append(f"condition {cid}: {cond['verdict']}")
        if rep["constants"] != "derived":
            failures.append(f"constants: {rep['constants']}")
        lyap = rep["conditions"].get("lyapunov")
        if lyap is not None:
            fields = lyap["fields"]
            margin = float(fields.get("max_margin", "nan"))
            if not abs(margin - exp["max_margin"]) <= MARGIN_TOL:
                failures.append(f"max_margin {margin!r} != {exp['max_margin']!r}")
            lam = float(fields.get("lambda", "nan"))
            if not abs(lam - exp["lambda"]) <= 1e-12 * exp["lambda"]:
                failures.append(f"lambda {lam!r} != {exp['lambda']!r}")
            skipped = [n for n in lyap["notes"] if not n.startswith("witness")]
            if skipped:
                failures.append("lyapunov skipped grid points: " + "; ".join(skipped))
        if rep["strong"] != exp["strong"]:
            failures.append(f"strong-ergodicity branch: {rep['strong']}, "
                            f"expected {exp['strong']}")
        if rep["verdict"] != "all-hold":
            failures.append(f"verdict = {rep['verdict']}")
        return failures

    return check


def _check_ensemble_file(path: Path, n_paths: int, failures: list):
    """Magic, header and total size of a `write_ensemble` file."""
    data = path.read_bytes()
    if data[:4] != b"NLBE":
        failures.append(f"{path.name}: bad magic")
        return
    _version, hlen = struct.unpack("<II", data[4:12])
    header = json.loads(data[12:12 + hlen])
    k = len(header["times"])
    expected = 12 + hlen + n_paths * (24 + 24 * k)
    if header["n_paths"] != n_paths or len(data) != expected:
        failures.append(f"{path.name}: {len(data)} bytes for {header['n_paths']} "
                        f"paths, expected {expected} for {n_paths}")


def check_couple(scenario: str, n_paths: int, certified_lambda=None):
    def check(out: Path) -> list:
        failures = []
        fit = parse_keyvalues(_read(out, f"{scenario}.fit.txt"))
        flagged, total = (int(v) for v in fit["flagged"].split("/"))
        if total != n_paths or flagged > MAX_FLAGGED_SHARE * total:
            failures.append(f"flagged = {flagged}/{total}")
        if int(fit["order_violations"]) != 0:
            failures.append(f"order_violations = {fit['order_violations']}")
        rows = parse_numeric_csv(_read(out, f"{scenario}.curve.csv"), failures,
                                 f"{scenario}.curve.csv")
        for col in ("w1_est", "tv_frac"):
            vals = [r[col] for r in rows]
            if not all(a > b for a, b in zip(vals, vals[1:])):
                failures.append(f"{col} does not strictly decrease: {vals}")
        if certified_lambda is not None:
            if "w1.lambda_hat" not in fit:
                failures.append("no W1 rate fit")
            else:
                lo = float(fit["w1.lambda_hat"]) - N_SE * float(fit["w1.lambda_se"])
                if not lo >= certified_lambda:
                    failures.append(f"fitted W1 rate - {N_SE:g} se = {lo!r} is below "
                                    f"the certified lambda {certified_lambda!r}")
        _check_ensemble_file(out / f"{scenario}.ensemble.bin", n_paths, failures)
        return failures

    return check


def invariant_rows(text: str) -> dict:
    """`start_<x0>: mean = m, var = v, n = k` lines -> {x0: (m, v, k)}."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("start_"):
            head, body = line.split(": ", 1)
            vals = dict(part.split(" = ") for part in body.split(", "))
            rows[float(head[len("start_"):])] = (float(vals["mean"]),
                                                 float(vals["var"]), int(vals["n"]))
    return rows


def check_invariant(scenario: str, n_paths: int, horizon: float, exact_mean=None):
    """Both starting points kept at least 99% of their paths; with
    ``exact_mean(x0, t)`` given, each sample mean lies within 4 standard
    errors of it."""

    def check(out: Path) -> list:
        failures = []
        text = _read(out, f"{scenario}.invariant.txt")
        kv = parse_keyvalues(text)
        if float(kv.get("horizon", "nan")) != horizon:
            failures.append(f"horizon = {kv.get('horizon')}, expected {horizon!r}")
        w1 = float(kv.get("tail_w1", "nan"))
        if not (math.isfinite(w1) and w1 >= 0):
            failures.append(f"tail_w1 = {w1!r}")
        rows = invariant_rows(text)
        if len(rows) != 2:
            failures.append(f"expected two starting points, found {len(rows)}")
        for x0, (mean, var, n) in sorted(rows.items()):
            if n < (1.0 - MAX_FLAGGED_SHARE) * n_paths:
                failures.append(f"start {x0}: only {n}/{n_paths} paths kept")
            if not (math.isfinite(mean) and mean >= 0 and math.isfinite(var)
                    and var >= 0):
                failures.append(f"start {x0}: mean {mean!r}, var {var!r}")
            elif exact_mean is not None:
                want = exact_mean(x0, horizon)
                se = math.sqrt(var / n)
                if not abs(mean - want) <= N_SE * se:
                    failures.append(f"start {x0}: mean {mean!r} is "
                                    f"{abs(mean - want) / se:.1f} se from {want!r}")
        return failures

    return check


def cir_mean(x0, t):
    """E X_t of the bundled CIR preset (drift 1 - x)."""
    return 1.0 + (x0 - 1.0) * math.exp(-t)


def case2_mean(x0, t):
    """E X_t of case2-stable (drift -x, compensated jumps)."""
    return x0 * math.exp(-t)


def check_single_csv(scenario: str, n_paths: int, x0: float, exact_mean,
                     t_max: float):
    """`simulate` CSV: every cell a number, no flagged paths beyond 1%, and
    the mean within 4 se of ``exact_mean`` at checkpoints t <= t_max.  Later
    checkpoints are tail-dominated (see BENCHMARK.json) and are not tested."""

    def check(out: Path) -> list:
        failures = []
        name = f"{scenario}.single.csv"
        for row in parse_numeric_csv(_read(out, name), failures, name):
            t, mean, var, n = row["t"], row["mean"], row["var"], row["n"]
            if n < (1.0 - MAX_FLAGGED_SHARE) * n_paths:
                failures.append(f"t = {t}: only {n:g}/{n_paths} paths kept")
            if t <= t_max:
                want = exact_mean(x0, t)
                if not abs(mean - want) <= N_SE * math.sqrt(var / n):
                    failures.append(f"t = {t}: mean {mean!r} is not within "
                                    f"{N_SE:g} se of {want!r}")
        return failures

    return check
