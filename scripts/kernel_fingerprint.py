#!/usr/bin/env python3
"""Print one SHA-256 per simulator configuration, to compare kernels bit for bit.

Runs ``simulate_coupled`` from (x0, y0) and ``simulate_single`` from x0 and
from y0 (simulator ``single-y0``) on every bundled preset, on the partial
blow-up models of ``BLOW_UPS`` and on ``MANY_EVENTS``, whose steps take
several jumps each and whose paths from x0 sometimes meet the event bound,
under both couplings and both small-jump policies, with 400 paths and
t_end = min(t_end, 0.5).  Each output line is

    <case> <coupling> <small-jump policy> <simulator> <sha256>

where the hash covers every field of the ensemble: the raw bytes of its
arrays (paths, coalescence times, flags) and the values of its counters.  Two
source trees give the same ensembles exactly when their outputs are equal, so
`diff` of two runs names every configuration a kernel change moved:

    PYTHONPATH=src python3 scripts/kernel_fingerprint.py > after.txt

``scripts/kernel_fingerprint.txt`` holds this tree's output, and CI diffs a
fresh run against it; the tests check the lines of a short run against it
and take their coupled-ensemble pins from it.  A change that moves ensembles
on purpose regenerates it:

    PYTHONPATH=src python3 scripts/kernel_fingerprint.py > scripts/kernel_fingerprint.txt

It also runs ``simulate_starts`` from (x0, y0) in one pass, and exits 1 (after
a message on stderr) where that does not reproduce both single digests.
"""

import hashlib
import sys
from dataclasses import fields, replace

import numpy as np

from nlbranch.config import PRESETS, load_scenario
from nlbranch.model import CoefficientSet, StableTruncatedMeasure
from nlbranch.simulate import (SimConfig, simulate_coupled, simulate_single,
                               simulate_starts)

N_PATHS = 400
T_END = 0.5


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
    """(name, coeffs, nu, x0, y0, cfg) for every preset, blow-up model and
    the many-events model, in that order."""
    for name in sorted(PRESETS):
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
    for name in sorted(f.name for f in fields(ens)):
        val = getattr(ens, name)
        if isinstance(val, np.ndarray):
            sha.update(np.ascontiguousarray(val).tobytes())
        else:
            sha.update(repr(val).encode())
    return sha.hexdigest()


def run():
    code = 0
    for name, coeffs, nu, x0, y0, base in _cases():
        for coupling in ("refined-basic", "synchronous"):
            for policy in ("drop-with-compensator", "gaussian-compensation"):
                cfg = replace(base, coupling=coupling, small_jump_policy=policy)
                tag = f"{name} {coupling} {policy}"
                pair = simulate_coupled(coeffs, nu, x0, y0, cfg)
                print(tag, "coupled", _digest(pair), flush=True)
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
