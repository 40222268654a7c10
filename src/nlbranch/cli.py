"""Command-line experiment driver.

Subcommands:

* ``check``     -- drift/noise conditions, constants, Lyapunov grid.
* ``testfn``    -- dump the test-function table and constants report.
* ``couple``    -- run the coupled ensemble, estimate W1/TV decay, fit rates.
* ``simulate``  -- run the marginal ensemble and summarize checkpoints.
* ``invariant`` -- long-run summaries from two starting points.

Exit codes: 0 all verdicts hold, 1 a verdict failed, 2 usage/config error.
Outputs are deterministic for a fixed seed: rerunning overwrites files with
identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import PRESETS, Scenario, load_scenario
from .errors import DomainError, NLBranchError, ValidationError
from .estimate import decay_curve, invariant_summary, tail_distance
from .generator import (HOLDS, INAPPLICABLE, check_drift_condition,
                        check_noise_conditions, verify_lyapunov)
from .simulate import simulate_coupled, simulate_single, write_ensemble
from .testfn import assemble, psi_table


def _out_dir(args):
    out = args.out or os.environ.get("NLBRANCH_OUT", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario, config_path=args.config)
    return sc.with_overrides(seed=args.seed, n_paths=args.paths, h=args.step)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def cmd_check(args):
    sc = _load(args)
    out = _out_dir(args)
    lines = [f"scenario = {sc.name}"]
    ok = True

    if "drift" in sc.checks and sc.modulus is not None:
        rep = check_drift_condition(sc.coeffs, sc.modulus)
        lines.append(rep.to_text())
        ok &= rep.holds

    if "noise" in sc.checks and sc.case:
        rep = check_noise_conditions(sc.coeffs, sc.nu, sc.case,
                                     beta=sc.params.get("beta"),
                                     alpha=sc.params.get("alpha"),
                                     kappa=sc.params.get("kappa", 0.5))
        lines.append(rep.to_text())
        ok &= rep.holds

    constants, fn = None, None
    if "constants" in sc.checks and sc.case:
        try:
            constants, fn = assemble(sc.case, sc.modulus, sc.params,
                                     variant=sc.variant)
            lines.append("constants: derived")
            for key, val in sorted(constants.as_dict().items()):
                lines.append(f"  {key} = {val}")
        except NLBranchError as exc:
            lines.append(f"constants: failed ({exc})")
            ok = False

    if "lyapunov" in sc.checks and constants is not None:
        rep = verify_lyapunov(fn, constants, sc.coeffs, sc.nu,
                              sc.params.get("kappa", sc.sim.kappa),
                              r_grid=np.logspace(-3, 1, 60))
        lines.append(rep.to_text())
        ok &= rep.holds

    if sc.try_strong:
        phi2 = sc.modulus.phi2 if sc.modulus is not None else None
        if phi2 is None or not phi2.tail_convergent:
            lines.append("strong-ergodicity branch: rejected "
                         "(divergent tail integral of 1/Phi2)")
        elif sc.case != "A2":
            lines.append("strong-ergodicity branch: rejected "
                         "(requires the jump route)")
        else:
            try:
                sconst, sfn = assemble(sc.case, sc.modulus, sc.params,
                                       variant="strong")
                lines.append("strong-ergodicity branch: accepted "
                             f"(lambda = {sconst.lam!r}, "
                             f"sup psi = {sfn.psi.sup()!r})")
            except NLBranchError as exc:
                lines.append(f"strong-ergodicity branch: rejected ({exc})")

    lines.append("verdict = " + ("all-hold" if ok else "failed"))
    report = "\n".join(lines)
    _write(os.path.join(out, f"{sc.name}.check.txt"), report)
    print(report)
    return 0 if ok else 1


def cmd_testfn(args):
    sc = _load(args)
    out = _out_dir(args)
    if not sc.case:
        print(f"scenario {sc.name} carries no case descriptor; nothing to build",
              file=sys.stderr)
        return 2
    try:
        constants, fn = assemble(sc.case, sc.modulus, sc.params,
                                 variant=sc.variant)
    except NLBranchError as exc:
        print(f"test-function construction failed: {exc}", file=sys.stderr)
        return 1
    grid = np.concatenate(([0.0], np.logspace(-3, 2, 400)))
    table = psi_table(fn, grid)
    path = os.path.join(out, f"{sc.name}.testfn.csv")
    with open(path, "w") as fh:
        fh.write("r,psi,dpsi,d2psi\n")
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    report = "\n".join(f"{k} = {v!r}" for k, v in sorted(constants.as_dict().items()))
    _write(os.path.join(out, f"{sc.name}.constants.txt"), report)
    print(report)
    return 0


def _warn_thinning(ens):
    """Say on stderr when jump thinning hit its round cap or clipped a
    probability: the jump part is then under-sampled."""
    if ens.capped_steps or ens.clipped_jumps:
        print(f"warning: jump thinning is approximate: capped_steps = "
              f"{ens.capped_steps} path-steps hit the round cap, clipped_jumps = "
              f"{ens.clipped_jumps} jump probabilities were clipped to 1; "
              "a smaller --step avoids both", file=sys.stderr)


def cmd_couple(args):
    sc = _load(args)
    out = _out_dir(args)
    ens = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, sc.sim)
    n_bad = int(np.count_nonzero(ens.flagged))
    write_ensemble(os.path.join(out, f"{sc.name}.ensemble.bin"), ens)
    curve = decay_curve(ens, sc.checkpoints)
    curve.to_csv(os.path.join(out, f"{sc.name}.curve.csv"))
    summary = curve.fit_summary() + (
        f"\nflagged = {n_bad}/{ens.n_paths}"
        f"\norder_violations = {ens.order_violations}"
        f"\norder_repairs = {ens.order_repairs}"
        f"\nmax_jump_prob = {ens.max_jump_prob!r}"
        f"\ncapped_steps = {ens.capped_steps}"
        f"\nclipped_jumps = {ens.clipped_jumps}")
    _write(os.path.join(out, f"{sc.name}.fit.txt"), summary)
    print(summary)
    _warn_thinning(ens)
    if n_bad > 0.01 * ens.n_paths:
        print(f"too many flagged paths ({n_bad})", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args):
    sc = _load(args)
    out = _out_dir(args)
    ens = simulate_single(sc.coeffs, sc.nu, sc.x0, sc.sim)
    path = os.path.join(out, f"{sc.name}.single.csv")
    with open(path, "w") as fh:
        fh.write("t,mean,var,q05,q50,q95,n\n")
        for i, t in enumerate(ens.times):
            x = ens.X[i][~ens.flagged]
            qs = np.quantile(x, [0.05, 0.5, 0.95])
            cells = (t, np.mean(x), np.var(x), *qs)
            fh.write(",".join(repr(float(v)) for v in cells) + f",{x.size}\n")
    n_bad = int(np.count_nonzero(ens.flagged))
    print(f"wrote {path} (flagged {n_bad}/{ens.n_paths})")
    _warn_thinning(ens)
    return 0 if n_bad <= 0.01 * ens.n_paths else 1


def cmd_invariant(args):
    sc = _load(args)
    out = _out_dir(args)
    ens_a = simulate_single(sc.coeffs, sc.nu, sc.x0, sc.sim)
    ens_b = simulate_single(sc.coeffs, sc.nu, sc.y0, sc.sim)
    t_end = float(ens_a.times[-1])
    sa = invariant_summary(ens_a.X[-1][~ens_a.flagged])
    sb = invariant_summary(ens_b.X[-1][~ens_b.flagged])
    w1 = tail_distance(ens_a, ens_b, t_end)
    lines = [
        f"scenario = {sc.name}",
        f"horizon = {t_end!r}",
        f"start_{sc.x0}: mean = {sa.mean!r}, var = {sa.var!r}, n = {sa.n}",
        f"start_{sc.y0}: mean = {sb.mean!r}, var = {sb.var!r}, n = {sb.n}",
        f"tail_w1 = {w1!r}",
    ]
    report = "\n".join(lines)
    _write(os.path.join(out, f"{sc.name}.invariant.txt"), report)
    print(report)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="nlbranch",
        description="Simulation and verification for nonlinear branching SDEs")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("check", cmd_check), ("testfn", cmd_testfn),
                     ("couple", cmd_couple), ("simulate", cmd_simulate),
                     ("invariant", cmd_invariant)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--scenario", required=True,
                        help="scenario name (preset or config section)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--step", type=float, default=None)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValidationError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NLBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
