"""Scenario definitions: bundled presets plus an INI-style config reader.

A scenario bundles everything one experiment needs: the coefficient triple,
the jump measure, the drift modulus, the case descriptor with its fitted
parameters, initial points, a simulation config and the checkpoint list.

Config files use configparser syntax with one section group per scenario:

    [scenario mine]
    x0 = 2.0
    y0 = 1.0
    case = A2
    ...
    [coefficients mine]
    type = logistic
    b1 = 1.0
    ...

Parametric forms are selected by ``type``; ``type = custom`` accepts
expression strings in ``x`` evaluated in a restricted numpy namespace.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .model import (AtomicMeasure, CoefficientSet, LevyMeasure, MixtureMeasure,
                    StableTruncatedMeasure, AbsolutelyContinuousMeasure,
                    cir_coefficients, dyadic_atoms, logistic_coefficients)
from .simulate import SimConfig
from .testfn import (DriftModulus, phi1_linear, phi1_log1p, phi1_xlog,
                     phi1_zero, phi2_linear, phi2_power)

_ALL_CHECKS = ("drift", "noise", "constants", "lyapunov")


@dataclass(frozen=True)
class Scenario:
    name: str
    coeffs: CoefficientSet
    nu: Optional[LevyMeasure]
    modulus: Optional[DriftModulus]
    case: Optional[str]                 # 'A1' or 'A2'
    params: dict
    x0: float
    y0: float
    sim: SimConfig
    checkpoints: Sequence[float]
    variant: str = "w1"
    checks: Sequence[str] = _ALL_CHECKS
    try_strong: bool = False
    expect_drift_failure: bool = False

    def with_overrides(self, seed=None, n_paths=None, h=None, kappa=None):
        sim = self.sim
        if seed is not None:
            sim = replace(sim, seed=int(seed))
        if n_paths is not None:
            sim = replace(sim, n_paths=int(n_paths))
        if h is not None:
            sim = replace(sim, h=float(h))
        if kappa is not None:
            sim = replace(sim, kappa=float(kappa))
        return replace(self, sim=sim)


# ---------------------------------------------------------------------------
# restricted expression evaluation for custom coefficient forms

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "log1p": np.log1p, "sqrt": np.sqrt,
    "abs": np.abs, "minimum": np.minimum, "maximum": np.maximum,
    "where": np.where, "pi": math.pi, "e": math.e, "power": np.power,
}


def compile_expression(expr: str):
    """Vectorized x -> expr with a restricted numeric namespace."""
    code = compile(expr, "<coefficient>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name != "x":
            raise ValidationError(f"name {name!r} is not allowed in coefficient "
                                  "expressions")

    def fn(x):
        ns = dict(_EXPR_NAMES)
        ns["x"] = np.asarray(x, dtype=float)
        out = eval(code, {"__builtins__": {}}, ns)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(ns["x"])).copy()

    return fn


# ---------------------------------------------------------------------------
# parametric builders

def _stable_overlap_cstar(alpha, kappa, c0=1.0, zmax=1.0):
    """inf over (0, kappa] of z^alpha mu_z(R+) for the truncated stable
    density: the infimum sits at z = kappa."""
    if kappa >= zmax:
        raise DomainError("kappa must lie inside the support")
    return c0 * (1.0 - (kappa / zmax) ** alpha) / (alpha * zmax ** alpha)


def build_measure(spec: dict) -> Optional[LevyMeasure]:
    kind = spec.get("type", "none")
    if kind in ("none", ""):
        return None
    if kind == "stable_truncated":
        return StableTruncatedMeasure(alpha=float(spec.get("alpha", 1.5)),
                                      c0=float(spec.get("c0", 1.0)),
                                      zmax=float(spec.get("zmax", 1.0)))
    if kind == "dyadic_atoms":
        return dyadic_atoms(alpha=float(spec.get("alpha", 1.5)),
                            jmax=int(spec.get("jmax", 40)))
    if kind == "atomic":
        locs = [float(v) for v in spec["locations"].split(",")]
        masses = [float(v) for v in spec["masses"].split(",")]
        return AtomicMeasure(locs, masses)
    if kind == "custom":
        dens = compile_expression(spec["density"].replace("z", "x"))
        return AbsolutelyContinuousMeasure(
            dens, upper=float(spec.get("upper", math.inf)),
            decreasing=spec.get("decreasing", "false").lower() == "true")
    raise ValidationError(f"unknown measure type {kind!r}")


def build_coefficients(spec: dict) -> CoefficientSet:
    kind = spec["type"]
    if kind == "cir":
        return cir_coefficients(float(spec.get("b", 1.0)), float(spec.get("c", 1.0)),
                                float(spec.get("d", 1.0)),
                                diffusion=spec.get("diffusion", "sqrt2c"))
    if kind == "logistic":
        return logistic_coefficients(float(spec.get("b1", 1.0)),
                                     float(spec.get("b2", 1.0)),
                                     c1=float(spec.get("c1", 0.0)),
                                     c2=float(spec.get("c2", 1.0)))
    if kind == "custom":
        return CoefficientSet(
            gamma0=compile_expression(spec.get("gamma0", "0*x")),
            gamma1=compile_expression(spec["gamma1"]) if "gamma1" in spec else None,
            gamma2=compile_expression(spec.get("gamma2", "0*x")),
            gamma2_nondecreasing=spec.get("gamma2_nondecreasing",
                                          "true").lower() == "true",
            name=spec.get("name", "custom"))
    raise ValidationError(f"unknown coefficient type {kind!r}")


def build_modulus(spec: dict) -> Optional[DriftModulus]:
    if not spec or spec.get("type", "") == "none":
        return None
    l0 = float(spec.get("l0", 1.0))
    p1kind = spec.get("phi1", "zero")
    if p1kind == "zero":
        phi1 = phi1_zero()
    elif p1kind == "linear":
        phi1 = phi1_linear(float(spec.get("k1", 1.0)))
    elif p1kind == "xlog":
        phi1 = phi1_xlog(float(spec.get("k1", 1.0)), l0)
    elif p1kind == "log1p":
        phi1 = phi1_log1p(float(spec.get("b1", 1.0)))
    else:
        raise ValidationError(f"unknown phi1 form {p1kind!r}")
    phi2 = None
    p2kind = spec.get("phi2", "none")
    if p2kind == "linear":
        phi2 = phi2_linear(float(spec.get("k2", 1.0)))
    elif p2kind == "power":
        phi2 = phi2_power(float(spec.get("coef", 0.5)),
                          float(spec.get("exponent", 2.0)))
    elif p2kind != "none":
        raise ValidationError(f"unknown phi2 form {p2kind!r}")
    k2 = float(spec["k2"]) if "k2" in spec else None
    return DriftModulus(phi1=phi1, l0=l0, k2=k2, phi2=phi2)


# ---------------------------------------------------------------------------
# bundled presets


def _preset_cir(name="cir"):
    return Scenario(
        name=name,
        coeffs=cir_coefficients(1.0, 1.0, 1.0),
        nu=None,
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0, phi2=phi2_linear(1.0)),
        case="A1", params={"beta": 1.0, "k3": math.sqrt(2.0), "k2": 1.0},
        x0=2.0, y0=1.0,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=2.0, n_paths=20000, seed=20240811,
                      coupling="synchronous", record_times=(0.0, 0.5, 1.0, 1.5, 2.0)),
        checkpoints=(0.5, 1.0, 1.5, 2.0),
        checks=("drift", "noise", "constants"),
        try_strong=True)   # attempted and expected to be rejected


def _preset_case2(name="case2-stable"):
    alpha, kappa = 1.5, 0.5
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: -np.asarray(x, dtype=float),
            gamma1=None,
            gamma2=lambda x: np.asarray(x, dtype=float),
            name="linear-branching"),
        nu=StableTruncatedMeasure(alpha=alpha, c0=1.0, zmax=1.0),
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0),
        case="A2",
        params={"alpha": alpha, "beta": 1.0, "k3": 1.0, "k2": 1.0,
                "kappa": kappa,
                "C_star": _stable_overlap_cstar(alpha, kappa)},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=8.0, n_paths=10000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0)),
        checkpoints=(0.5, 1.0, 2.0, 4.0, 8.0))


def _preset_case1(name="case1-diffusion"):
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: -np.asarray(x, dtype=float),
            gamma1=lambda x: np.asarray(x, dtype=float),
            gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="sqrt-diffusion"),
        nu=None,
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0),
        case="A1", params={"beta": 1.0, "k3": 1.0, "k2": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=4.0, n_paths=10000, seed=20240811,
                      coupling="refined-basic",
                      record_times=(0.0, 0.5, 1.0, 2.0, 4.0)),
        checkpoints=(0.5, 1.0, 2.0, 4.0),
        checks=("drift", "noise", "constants"))


def _preset_case3(name="case3-dyadic"):
    alpha = 1.5
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: -np.asarray(x, dtype=float),
            gamma1=None,
            gamma2=lambda x: np.asarray(x, dtype=float),
            name="linear-branching"),
        nu=dyadic_atoms(alpha=alpha, jmax=40),
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0),
        case="A2",
        # the overlap route degenerates for the singular measure; C_star here
        # comes from the second-moment lower bound on the dyadic grid
        params={"alpha": alpha, "beta": 1.0, "k3": 1.0, "k2": 1.0,
                "kappa": 0.5, "C_star": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.05, t_end=4.0, n_paths=5000, seed=20240811,
                      kappa=0.5, coupling="refined-basic",
                      record_times=(0.0, 1.0, 2.0, 4.0)),
        checkpoints=(1.0, 2.0, 4.0))


def _preset_logistic(name="logistic"):
    # b1 = 0.01, b2 = 1, gamma2 = 2x: the jump activity must dominate the
    # linear drift bump Phi1(r) = b1 r for the contraction constants (and in
    # particular the strong-ergodicity branch) to assemble, while staying
    # small enough that coupled pairs do not all coalesce within the first
    # few time units (the empirical TV curve should resolve its tail);
    # l0 = 2 b1 / b2.
    alpha, kappa = 1.5, 0.5
    return Scenario(
        name=name,
        coeffs=logistic_coefficients(0.01, 1.0, c1=0.0, c2=2.0),
        nu=StableTruncatedMeasure(alpha=alpha, c0=1.0, zmax=1.0),
        modulus=DriftModulus(phi1_linear(0.01), l0=0.02, k2=0.05,
                             phi2=phi2_power(0.5, 2.0)),
        case="A2",
        params={"alpha": alpha, "beta": 1.0, "k3": 2.0, "k2": 0.05,
                "kappa": kappa, "C_star": _stable_overlap_cstar(alpha, kappa)},
        x0=1.5, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=8.0, n_paths=10000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 1.0, 2.0, 4.0, 8.0)),
        checkpoints=(1.0, 2.0, 4.0, 8.0),
        try_strong=True)


def _preset_xlog_drift(name="xlog-drift"):
    alpha, kappa = 1.5, 0.5

    def gamma0(x):
        x = np.asarray(x, dtype=float)
        return 0.1 * np.where(x > 0, x * np.log1p(1.0 / np.maximum(x, 1e-300)),
                              0.0) - x

    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=gamma0,
            gamma1=None,
            gamma2=lambda x: 4.0 * np.asarray(x, dtype=float),
            name="xlog-drift"),
        nu=StableTruncatedMeasure(alpha=alpha, c0=1.0, zmax=1.0),
        modulus=DriftModulus(phi1_log1p(0.1), l0=0.01, k2=0.5),
        case="A2",
        params={"alpha": alpha, "beta": 1.0, "k3": 4.0, "k2": 0.5,
                "kappa": kappa, "C_star": _stable_overlap_cstar(alpha, kappa)},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=4.0, n_paths=5000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 1.0, 2.0, 4.0)),
        checkpoints=(1.0, 2.0, 4.0))


def _preset_superexp(name="superexp"):
    alpha, kappa = 1.5, 0.5

    def gamma0(x):
        x = np.asarray(x, dtype=float)
        # b1 x - b2 (e^x - 1): the constant shift keeps gamma0(0) = 0 and
        # leaves every drift difference gamma0(x) - gamma0(y) unchanged.
        # Since e^r - 1 >= r + r^2/2, differences obey
        # gamma0(x) - gamma0(y) <= -(x-y)^2/2 for all x > y >= 0: Phi1 = 0.
        return x - np.expm1(x)

    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=gamma0,
            gamma1=None,
            gamma2=lambda x: np.asarray(x, dtype=float),
            name="superexp-dissipation"),
        nu=StableTruncatedMeasure(alpha=alpha, c0=1.0, zmax=1.0),
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=0.5,
                             phi2=phi2_power(0.5, 2.0)),
        case="A2",
        params={"alpha": alpha, "beta": 1.0, "k3": 1.0, "k2": 0.5,
                "kappa": kappa, "C_star": _stable_overlap_cstar(alpha, kappa)},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-4, eps=0.1, t_end=2.0, n_paths=2000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 0.5, 1.0, 2.0)),
        checkpoints=(0.5, 1.0, 2.0),
        try_strong=True)


def _preset_nonergodic(name="nonergodic-diffusion"):
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: -np.asarray(x, dtype=float) ** 2,
            gamma1=lambda x: 2.0 * np.asarray(x, dtype=float) ** 2,
            gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="non-ergodic-diffusion"),
        nu=None, modulus=None, case=None, params={},
        x0=10.0, y0=0.1,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=20.0, n_paths=5000, seed=20240811,
                      coupling="synchronous",
                      record_times=(0.0, 5.0, 10.0, 20.0)),
        checkpoints=(5.0, 10.0, 20.0),
        checks=())


def _preset_pure_growth(name="pure-growth"):
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: np.asarray(x, dtype=float),
            gamma1=lambda x: np.asarray(x, dtype=float),
            gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="pure-growth"),
        nu=None,
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0),
        case="A1", params={"beta": 1.0, "k3": 1.0, "k2": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=1.0, n_paths=100, seed=20240811),
        checkpoints=(0.5, 1.0),
        checks=("drift",),
        expect_drift_failure=True)


PRESETS = {
    "cir": _preset_cir,
    "cir-rate": lambda: replace(_preset_cir("cir-rate"),
                                sim=replace(_preset_cir().sim, n_paths=100000)),
    "case1-diffusion": _preset_case1,
    "case2-stable": _preset_case2,
    "case3-dyadic": _preset_case3,
    "logistic": _preset_logistic,
    "xlog-drift": _preset_xlog_drift,
    "superexp": _preset_superexp,
    "nonergodic-diffusion": _preset_nonergodic,
    "pure-growth": _preset_pure_growth,
}


def load_scenario(name: str, config_path=None) -> Scenario:
    """A named scenario: from the config file when it defines one, else the
    bundled preset of the same name."""
    if config_path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ValidationError(f"could not read config file {config_path}")
        if parser.has_section(f"scenario {name}"):
            return _scenario_from_parser(parser, name)
    if name in PRESETS:
        return PRESETS[name]()
    raise ValidationError(f"unknown scenario {name!r}; presets: "
                          + ", ".join(sorted(PRESETS)))


def _section(parser, kind, name):
    sec = f"{kind} {name}"
    return dict(parser.items(sec)) if parser.has_section(sec) else {}


def _scenario_from_parser(parser, name) -> Scenario:
    sc = _section(parser, "scenario", name)
    coeffs = build_coefficients(_section(parser, "coefficients", name))
    nu = build_measure(_section(parser, "measure", name))
    modulus = build_modulus(_section(parser, "modulus", name))
    simspec = _section(parser, "sim", name)
    rec = simspec.get("record_times")
    sim = SimConfig(
        h=float(simspec.get("h", 1e-3)),
        eps=float(simspec.get("eps", 0.1)),
        t_end=float(simspec.get("t_end", 1.0)),
        n_paths=int(simspec.get("n_paths", 1000)),
        seed=int(simspec.get("seed", 0)),
        small_jump_policy=simspec.get("small_jump_policy", "drop-with-compensator"),
        kappa=float(simspec.get("kappa", 0.5)),
        coupling=simspec.get("coupling", "refined-basic"),
        record_times=[float(v) for v in rec.split(",")] if rec else None)
    params = {}
    for key in ("alpha", "beta", "k2", "k3", "kappa", "C_star"):
        if key in sc:
            params[key] = float(sc[key])
    checks = tuple(v.strip() for v in sc.get("checks", ",".join(_ALL_CHECKS)).split(",")
                   if v.strip())
    cps = sc.get("checkpoints")
    return Scenario(
        name=name, coeffs=coeffs, nu=nu, modulus=modulus,
        case=sc.get("case") or None, params=params,
        x0=float(sc.get("x0", 1.0)), y0=float(sc.get("y0", 0.0)),
        sim=sim,
        checkpoints=[float(v) for v in cps.split(",")] if cps
        else [t for t in sim.resolved_record_times() if t > 0],
        variant=sc.get("variant", "w1"),
        checks=checks,
        try_strong=sc.get("try_strong", "false").lower() == "true")
