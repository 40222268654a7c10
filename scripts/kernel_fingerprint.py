#!/usr/bin/env python3
"""Print one SHA-256 per simulator configuration, to compare kernels bit for bit.

Runs ``simulate_coupled`` and ``simulate_single`` on every bundled preset,
under both couplings and both small-jump policies, with 400 paths and
t_end = min(t_end, 0.5).  Each output line is

    <preset> <coupling> <small-jump policy> <simulator> <sha256>

where the hash covers the raw bytes of X, Y, coalescence and flagged and the
values of order_violations, order_repairs and max_jump_prob (the fields a
simulator has).  Two source trees give the same ensembles exactly when their
outputs are equal, so `diff` of two runs names every configuration a kernel
change moved:

    PYTHONPATH=src python3 scripts/kernel_fingerprint.py > after.txt
"""

import hashlib
import sys
from dataclasses import replace

import numpy as np

from nlbranch.config import PRESETS, load_scenario
from nlbranch.simulate import simulate_coupled, simulate_single

N_PATHS = 400
T_END = 0.5


def _digest(ens, fields):
    sha = hashlib.sha256()
    for name in fields:
        val = getattr(ens, name)
        if isinstance(val, np.ndarray):
            sha.update(np.ascontiguousarray(val).tobytes())
        else:
            sha.update(repr(val).encode())
    return sha.hexdigest()


def run():
    for name in sorted(PRESETS):
        sc = load_scenario(name)
        for coupling in ("refined-basic", "synchronous"):
            for policy in ("drop-with-compensator", "gaussian-compensation"):
                cfg = replace(sc.sim, n_paths=N_PATHS,
                              t_end=min(sc.sim.t_end, T_END), record_times=None,
                              coupling=coupling, small_jump_policy=policy)
                pair = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
                single = simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)
                tag = f"{name} {coupling} {policy}"
                print(tag, "coupled", _digest(pair, (
                    "X", "Y", "coalescence", "flagged", "order_violations",
                    "order_repairs", "max_jump_prob")), flush=True)
                print(tag, "single", _digest(single, (
                    "X", "flagged", "max_jump_prob")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
