"""The benchmark's workloads: which CLI commands run, and how each is checked.

Every workload runs its presets at their bundled sizes; work counts
(path-steps, Lyapunov grid points) are read from the loaded scenarios, so a
preset that changes size changes the reported throughput, not the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

# `cmd_check` scans np.logspace(-3, 1, 60) x the three default y values
LYAPUNOV_GRID_POINTS = 60 * 3


@dataclass(frozen=True)
class Op:
    """One CLI command (without --seed/--out) and the check of its outputs."""

    argv: tuple
    check: Callable
    path_steps: int = 0
    grid_points: int = 0

    @property
    def scenario(self):
        return self.argv[self.argv.index("--scenario") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple

    @property
    def scenarios(self):
        return tuple(dict.fromkeys(op.scenario for op in self.ops))

    @property
    def path_steps(self):
        return sum(op.path_steps for op in self.ops)

    @property
    def grid_points(self):
        return sum(op.grid_points for op in self.ops)


def build(load_scenario):
    """name -> Workload.  BENCHMARK.json times verify and couple-marginal.
    couple-marginal is the coupled kernel on the truncated-stable measure
    (`couple`) followed by the single kernel with and without jumps
    (`invariant`): one workload rather than two, so that repeated benchmark
    runs fit their time budget with at least two passes each, and three or
    more of the short verify pass.  couple-dyadic (one pass
    takes about 20 s) is left out of the timed set for the same reason; every
    layer it exercises is timed on couple-marginal.  simulate-csv is a
    conformance run: its command fails its check at the commit that
    introduced the benchmark (`simulate` writes ``np.float64(...)`` into its
    quantile columns), and the timed workloads must be ones on which no
    operation fails."""

    def path_steps(name):
        sim = load_scenario(name).sim
        return sim.n_paths * int(round(sim.t_end / sim.h))

    def n_paths(name):
        return load_scenario(name).sim.n_paths

    def horizon(name):
        return float(load_scenario(name).sim.t_end)

    def check_op(name):
        grid = LYAPUNOV_GRID_POINTS if "lyapunov" in load_scenario(name).checks else 0
        return Op(("check", "--scenario", name), checks.check_verify(name),
                  grid_points=grid)

    case2 = load_scenario("case2-stable")
    return {
        "verify": Workload("verify", (check_op("case2-stable"), check_op("logistic"))),
        "couple-marginal": Workload("couple-marginal", (
            Op(("couple", "--scenario", "case2-stable"),
               checks.check_couple("case2-stable", n_paths("case2-stable"),
                                   checks.CASE2_CERTIFIED_LAMBDA),
               path_steps=path_steps("case2-stable")),
            # the horizon t = 8 of case2 is tail-dominated: its mean is not
            # compared with x0 e^-t (see BENCHMARK.json)
            Op(("invariant", "--scenario", "case2-stable"),
               checks.check_invariant("case2-stable", n_paths("case2-stable"),
                                      horizon("case2-stable")),
               path_steps=2 * path_steps("case2-stable")),
            Op(("invariant", "--scenario", "cir"),
               checks.check_invariant("cir", n_paths("cir"), horizon("cir"),
                                      checks.cir_mean),
               path_steps=2 * path_steps("cir")))),
        "couple-dyadic": Workload("couple-dyadic", (
            Op(("couple", "--scenario", "case3-dyadic"),
               checks.check_couple("case3-dyadic", n_paths("case3-dyadic")),
               path_steps=path_steps("case3-dyadic")),)),
        "simulate-csv": Workload("simulate-csv", (
            Op(("simulate", "--scenario", "case2-stable"),
               checks.check_single_csv("case2-stable", case2.sim.n_paths, case2.x0,
                                       checks.case2_mean, t_max=2.0),
               path_steps=path_steps("case2-stable")),)),
    }
