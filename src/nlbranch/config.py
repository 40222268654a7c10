"""Scenario definitions: bundled presets plus an INI-style config reader.

A scenario bundles everything one experiment needs: the coefficient triple,
the jump measure, the drift modulus, the case descriptor with its exponents
(alpha, beta), initial points and a simulation config, whose record times are
also the points of the decay curve and whose kappa is also the coupling
radius the constants are derived for.  The constants' k3 and C_star are not
part of a scenario: the noise check certifies them.

A config file (configparser syntax; README has a complete one) describes a
scenario ``mine`` in the sections [scenario mine], [coefficients mine],
[measure mine], [modulus mine] and [sim mine].  ``type`` selects a section's
form (``phi1`` and ``phi2`` the modulus's), whose keys are in a table below;
``type = custom`` takes expressions in ``x`` in a restricted numpy namespace.
A key the file leaves out keeps its constructor's default (SimConfig's for
[sim]); a parameter without one is required.  An unknown key, form, check
name or boolean word is a config error naming the key and the section.
"""

from __future__ import annotations

import configparser
import inspect
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .model import (AtomicMeasure, CoefficientSet, LevyMeasure,
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
    params: dict
    x0: float
    y0: float
    sim: SimConfig
    case: Optional[str] = None          # 'A1' or 'A2'
    variant: str = "w1"
    checks: Sequence[str] = _ALL_CHECKS
    expect_drift_failure: bool = False

    def __post_init__(self):
        if self.case not in ("A1", "A2", None):
            raise ValidationError(f"'case' must be A1, A2 or absent, not {self.case!r}")
        unknown = [check for check in self.checks if check not in _ALL_CHECKS]
        if unknown:
            raise ValidationError(f"'checks' names unknown check {unknown[0]!r}; "
                                  "known checks: " + ", ".join(_ALL_CHECKS))

    def with_overrides(self, seed=None, n_paths=None, h=None):
        sim = self.sim
        if seed is not None:
            sim = replace(sim, seed=int(seed))
        if n_paths is not None:
            sim = replace(sim, n_paths=int(n_paths))
        if h is not None:
            sim = replace(sim, h=float(h))
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
# bundled presets


def _preset_cir(name="cir"):
    return Scenario(
        name=name,
        coeffs=cir_coefficients(1.0, 1.0, 1.0),
        nu=None,
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0, phi2=phi2_linear(1.0)),
        case="A1", params={"beta": 1.0},
        x0=2.0, y0=1.0,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=2.0, n_paths=20000, seed=20240811,
                      coupling="synchronous", record_times=(0.0, 0.5, 1.0, 1.5, 2.0)),
        checks=("drift", "noise", "constants"))


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
        params={"alpha": alpha, "beta": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=8.0, n_paths=10000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0)))


def _preset_case1(name="case1-diffusion"):
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: -np.asarray(x, dtype=float),
            gamma1=lambda x: np.asarray(x, dtype=float),
            gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="sqrt-diffusion",
            gamma1_prime=1.0),
        nu=None,
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0),
        case="A1", params={"beta": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=4.0, n_paths=10000, seed=20240811,
                      coupling="refined-basic",
                      record_times=(0.0, 0.5, 1.0, 2.0, 4.0)),
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
        params={"alpha": alpha, "beta": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.05, t_end=4.0, n_paths=5000, seed=20240811,
                      kappa=0.5, coupling="refined-basic",
                      record_times=(0.0, 1.0, 2.0, 4.0)))


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
        params={"alpha": alpha, "beta": 1.0},
        x0=1.5, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=8.0, n_paths=10000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 1.0, 2.0, 4.0, 8.0)))


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
        params={"alpha": alpha, "beta": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=4.0, n_paths=5000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 1.0, 2.0, 4.0)))


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
        params={"alpha": alpha, "beta": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-4, eps=0.1, t_end=2.0, n_paths=2000, seed=20240811,
                      kappa=kappa, coupling="refined-basic",
                      record_times=(0.0, 0.5, 1.0, 2.0)))


def _preset_nonergodic(name="nonergodic-diffusion"):
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: -np.asarray(x, dtype=float) ** 2,
            gamma1=lambda x: 2.0 * np.asarray(x, dtype=float) ** 2,
            gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="non-ergodic-diffusion",
            gamma1_prime=lambda x: 4.0 * np.asarray(x, dtype=float)),
        nu=None, modulus=None, case=None, params={},
        x0=10.0, y0=0.1,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=20.0, n_paths=5000, seed=20240811,
                      coupling="synchronous",
                      record_times=(0.0, 5.0, 10.0, 20.0)),
        checks=())


def _preset_pure_growth(name="pure-growth"):
    return Scenario(
        name=name,
        coeffs=CoefficientSet(
            gamma0=lambda x: np.asarray(x, dtype=float),
            gamma1=lambda x: np.asarray(x, dtype=float),
            gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="pure-growth",
            gamma1_prime=1.0),
        nu=None,
        modulus=DriftModulus(phi1_zero(), l0=1.0, k2=1.0),
        case="A1", params={"beta": 1.0},
        x0=1.0, y0=0.5,
        sim=SimConfig(h=1e-3, eps=0.1, t_end=1.0, n_paths=100, seed=20240811,
                      record_times=(0.0, 0.5, 1.0)),
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
        # values are numbers, names and expressions, where '%' is the modulo
        parser = configparser.ConfigParser(interpolation=None)
        try:
            found = parser.read(config_path)
        except configparser.Error as exc:
            # a duplicate key or section, a key before any section header, or
            # a line without '='; the message names the file and the line
            raise ValidationError(" ".join(str(exc).split())) from exc
        if not found:
            raise ValidationError(f"could not read config file {config_path}")
        if parser.has_section(f"scenario {name}"):
            return _scenario_from_parser(parser, name)
    if name in PRESETS:
        return PRESETS[name]()
    raise ValidationError(f"unknown scenario {name!r}; presets: "
                          + ", ".join(sorted(PRESETS)))


# ---------------------------------------------------------------------------
# INI reader: per section kind, each form's constructor and the keys it takes,
# each with its converter; only the keys a file sets reach the constructor


def _names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _floats(text):
    return [float(v) for v in text.split(",")]


def _boolean(text):
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError("not a boolean (yes/no, true/false, on/off, 1/0)")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _custom_coefficients(gamma0, gamma2, gamma1=None, name="custom"):
    """Expression coefficients; without a gamma1 the model has no diffusion."""
    return CoefficientSet(gamma0, gamma1, gamma2, name=name)


_NONE = (lambda: None, {})
_MEASURES = {
    "none": _NONE,
    "stable_truncated": (StableTruncatedMeasure,
                         {"alpha": float, "c0": float, "zmax": float}),
    "dyadic_atoms": (dyadic_atoms, {"alpha": float, "jmax": int}),
    "atomic": (AtomicMeasure, {"locations": _floats, "masses": _floats}),
    "custom": (AbsolutelyContinuousMeasure,
               {"density": lambda text: compile_expression(text.replace("z", "x")),
                "upper": float, "decreasing": _boolean}),
}
_COEFFICIENTS = {
    "cir": (cir_coefficients, {"b": float, "c": float, "d": float, "diffusion": str}),
    "logistic": (logistic_coefficients,
                 {"b1": float, "b2": float, "c1": float, "c2": float}),
    "custom": (_custom_coefficients,
               {"gamma0": compile_expression, "gamma1": compile_expression,
                "gamma2": compile_expression, "name": str}),
}
_PHI1 = {"zero": (phi1_zero, {}), "linear": (phi1_linear, {"k1": float}),
         "xlog": (phi1_xlog, {"k1": float, "l0": float}),
         "log1p": (phi1_log1p, {"b1": float})}
_PHI2 = {"none": _NONE, "linear": (phi2_linear, {"k2": float}),
         "power": (phi2_power, {"coef": float, "exponent": float})}
_MODULUS = {"l0": float, "k2": float}
_SIM = {"h": float, "eps": float, "t_end": float, "n_paths": int, "seed": int,
        "small_jump_policy": str, "kappa": float, "coupling": str,
        "record_times": _floats}
_SCENARIO = {"x0": float, "y0": float, "case": str, "variant": str,
             "checks": _names}
# the case exponents; the noise check certifies the constants' k3 and C_star
_PARAMS = {"alpha": float, "beta": float}


def _form(table, selector, spec, where, default=None):
    """(constructor, keys) of the form the section's selector key names."""
    kind = spec.get(selector, default)
    if kind not in table:
        raise ValidationError(f"{selector!r} in [{where}] must be one of "
                              f"{', '.join(table)}, not {kind!r}")
    return table[kind]


def _read(spec, keys, where):
    """The section's values, each converted once.  A key outside keys (a
    misspelling, or a key that is gone) is a config error, not a default."""
    values = {}
    for key, text in spec.items():
        if key not in keys:
            raise ValidationError(f"unknown key {key!r} in [{where}]; "
                                  "known keys: " + ", ".join(sorted(keys)))
        try:
            values[key] = keys[key](text)
        except (ValueError, SyntaxError) as exc:
            raise ValidationError(f"bad value {text!r} of {key!r} in [{where}]: "
                                  f"{exc}") from None
    return values


def _call(make, keys, values, where, **given):
    """make(**given) plus the values of keys the section sets; a parameter
    without a default that the section leaves out is a config error."""
    args = {key: values[key] for key in keys if key in values} | given
    for param in inspect.signature(make).parameters.values():
        if param.default is param.empty and param.kind is param.POSITIONAL_OR_KEYWORD \
                and param.name not in args:
            raise ValidationError(f"[{where}] needs key {param.name!r}")
    try:
        return make(**args)
    except (DomainError, ValidationError) as exc:
        raise ValidationError(f"in [{where}]: {exc}") from None


def _build(table, spec, where, default=None):
    make, keys = _form(table, "type", spec, where, default)
    return _call(make, keys, _read(spec, {"type": str, **keys}, where), where)


def _modulus(spec, where):
    """(Phi1, l0) with k2 and Phi2 where set; None for no section or type none."""
    if not spec or "type" in spec:
        return _build({"none": _NONE}, spec, where, "none")
    make1, keys1 = _form(_PHI1, "phi1", spec, where, "zero")
    make2, keys2 = _form(_PHI2, "phi2", spec, where, "none")
    values = _read(spec, {"phi1": str, "phi2": str, **_MODULUS, **keys1, **keys2},
                   where)
    return _call(DriftModulus, _MODULUS, values, where,
                 phi1=_call(make1, keys1, values, where),
                 phi2=_call(make2, keys2, values, where))


def _scenario_from_parser(parser, name) -> Scenario:
    spec = {kind: dict(parser[f"{kind} {name}"]) if f"{kind} {name}" in parser else {}
            for kind in ("scenario", "coefficients", "measure", "modulus", "sim")}
    if "kappa" in spec["scenario"]:
        raise ValidationError(f"kappa belongs in [sim {name}], not in "
                              f"[scenario {name}]: the constants are derived "
                              "for the radius the coupling simulates")
    values = _read(spec["scenario"], {**_SCENARIO, **_PARAMS}, f"scenario {name}")
    return _call(
        Scenario, _SCENARIO, values, f"scenario {name}", name=name,
        coeffs=_build(_COEFFICIENTS, spec["coefficients"], f"coefficients {name}"),
        nu=_build(_MEASURES, spec["measure"], f"measure {name}", "none"),
        modulus=_modulus(spec["modulus"], f"modulus {name}"),
        params={key: values[key] for key in _PARAMS if key in values},
        sim=_call(SimConfig, _SIM, _read(spec["sim"], _SIM, f"sim {name}"),
                  f"sim {name}"))
