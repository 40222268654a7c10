#!/usr/bin/env python3
"""Print one SHA-256 per distinct simulator ensemble, to compare kernels bit for bit.

Runs ``simulate_coupled`` from (x0, y0) and ``simulate_single`` from x0 and
from y0 (simulator ``single-y0``) on every bundled preset, on the partial
blow-up models of ``BLOW_UPS`` and on ``MANY_EVENTS``, whose steps take
several jumps each and whose paths from x0 sometimes meet the event bound,
with 400 paths and t_end = min(t_end, 0.5).  Each output line is

    <case> <coupling> <small-jump policy> <simulator> <sha256>

and each ensemble the kernel computes differently is run and printed once:
the coupled run under both couplings and both small-jump policies, the
single runs once per policy, since a run without a partner reads no
coupling.  A ``-`` stands in a field the kernel does not read: the coupling
of a single run, and the policy of a case without a Levy measure, whose
small jumps are none.  The ``cir-rate`` preset is left out: it is ``cir``
with more paths, which the 400-path override makes ``cir`` line for line.
``blowup-zero-gamma1`` prints the lines of ``blowup-jumps`` on purpose, as
the witness that a zero gamma1 adds only +-0.

The hash covers what the kernel computes: the raw bytes of every array of
the ensemble (paths, coalescence times, flags) and the values of its
counters and starts.  The ``config`` echo is not hashed, so an edit that
only adds, drops or renames a ``SimConfig`` field moves no line.  Two source
trees give the same ensembles exactly when their outputs are equal, so
`diff` of two runs names every ensemble a kernel change moved:

    PYTHONPATH=src python3 scripts/kernel_fingerprint.py > after.txt

``scripts/kernel_fingerprint.txt`` holds this tree's output, and CI diffs a
fresh run against it; the tests check the lines of a short run against it
and take their coupled-ensemble pins from it.  A change that moves ensembles
on purpose regenerates it:

    PYTHONPATH=src python3 scripts/kernel_fingerprint.py > scripts/kernel_fingerprint.txt

It also runs ``simulate_starts`` from (x0, y0) in one pass next to the
single runs, and writes each coupled ensemble with ``write_ensemble`` and
reads it back; it exits 1 (after a message on stderr) where the stacked run
does not reproduce both single digests, or where the file does not give
back every field of the coupled ensemble.
"""

import hashlib
import os
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np

from nlbranch.config import PRESETS, load_scenario
from nlbranch.model import CoefficientSet, StableTruncatedMeasure
from nlbranch.simulate import (SimConfig, read_ensemble, simulate_coupled,
                               simulate_single, simulate_starts, write_ensemble)

N_PATHS = 400
T_END = 0.5
COUPLINGS = ("refined-basic", "synchronous")
POLICIES = ("drop-with-compensator", "gaussian-compensation")


def _x(x):
    return np.asarray(x, dtype=float)


# gamma0 = 4x(x - 1) sends a path that jumps above 1 to infinity within the
# horizon: from x0 = 0.9 about a fifth of the paths are flagged.  The last
# model's gamma2 maps NaN to a number, so only the kernel keeps flagged paths
# off their jump clocks
BLOW_UPS = {
    "blowup-jumps": dict(gamma1=None, gamma2=_x),
    "blowup-jumps-diffusion": dict(gamma1=_x, gamma2=_x),
    "blowup-zero-gamma1": dict(gamma1=lambda x: 0.0 * _x(x), gamma2=_x),
    "blowup-fmin-gamma2": dict(gamma1=None,
                               gamma2=lambda x: np.fmin(_x(x), 50.0)),
}


# gamma2 = 80x gives the paths from x0 = 50 a hazard of about 50 jumps per
# step at first, so that some meet the event bound and are flagged (30 and 34
# of the 400 single-run paths under the two small-jump policies), until
# gamma0 = -8x pulls them down; the paths from y0 = 0.45 take up to two to
# five jumps per step
MANY_EVENTS = dict(gamma0=lambda x: -8.0 * _x(x), gamma1=None,
                   gamma2=lambda x: 80.0 * _x(x))


def _cases():
    """(name, coeffs, nu, x0, y0, cfg) for every preset but ``cir-rate``,
    blow-up model and the many-events model, in that order."""
    for name in sorted(PRESETS):
        if name == "cir-rate":
            continue
        sc = load_scenario(name)
        cfg = replace(sc.sim, n_paths=N_PATHS, t_end=min(sc.sim.t_end, T_END),
                      record_times=None)
        yield name, sc.coeffs, sc.nu, sc.x0, sc.y0, cfg
    nu = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)
    cfg = SimConfig(h=1e-3, eps=0.1, t_end=T_END, n_paths=N_PATHS, seed=20240811)
    for name, gammas in BLOW_UPS.items():
        coeffs = CoefficientSet(gamma0=lambda x: 4.0 * _x(x) * (_x(x) - 1.0),
                                name=name, **gammas)
        yield name, coeffs, nu, 0.9, 0.45, cfg
    yield ("many-events", CoefficientSet(name="many-events", **MANY_EVENTS),
           nu, 50.0, 0.45, cfg)


def _digest(ens):
    sha = hashlib.sha256()
    for name in sorted(f.name for f in fields(ens) if f.name != "config"):
        val = getattr(ens, name)
        if isinstance(val, np.ndarray):
            sha.update(np.ascontiguousarray(val).tobytes())
        else:
            sha.update(repr(val).encode())
    return sha.hexdigest()


def _file_changes(ens):
    """The names of the fields of ens that a write_ensemble / read_ensemble
    round trip does not give back: arrays bit for bit, other values by
    equality."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pair.nlbe")
        write_ensemble(path, ens)
        back = read_ensemble(path)
    changed = []
    for f in fields(ens):
        a, b = getattr(ens, f.name), getattr(back, f.name)
        if isinstance(a, np.ndarray):
            same = (a.dtype == b.dtype and a.shape == b.shape
                    and a.tobytes() == b.tobytes())
        else:
            same = a == b
        if not same:
            changed.append(f.name)
    return changed


def run():
    code = 0
    for name, coeffs, nu, x0, y0, base in _cases():
        # without nu the kernel has no small jumps to drop or compensate
        for policy in POLICIES if nu is not None else ("-",):
            cfg = base if policy == "-" else replace(base, small_jump_policy=policy)
            for coupling in COUPLINGS:
                tag = f"{name} {coupling} {policy}"
                pair = simulate_coupled(coeffs, nu, x0, y0,
                                        replace(cfg, coupling=coupling))
                print(tag, "coupled", _digest(pair), flush=True)
                changed = _file_changes(pair)
                if changed:
                    print(f"{tag}: the ensemble file changes {', '.join(changed)}",
                          file=sys.stderr)
                    code = 1
            # a run without a partner reads no coupling
            tag = f"{name} - {policy}"
            singles = [_digest(simulate_single(coeffs, nu, start, cfg))
                       for start in (x0, y0)]
            print(tag, "single", singles[0], flush=True)
            print(tag, "single-y0", singles[1], flush=True)
            stacked = [_digest(ens) for ens in
                       simulate_starts(coeffs, nu, (x0, y0), cfg)]
            if stacked != singles:
                print(f"{tag}: simulate_starts differs from the single runs",
                      file=sys.stderr)
                code = 1
    return code


if __name__ == "__main__":
    sys.exit(run())
