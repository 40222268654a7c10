"""Per-layer tracing of nlbranch from outside the package.

The traced run replaces the public entry points of each module with timing
wrappers (and restores them afterwards); nothing under ``src/`` changes.  A
layer is a package module.  Every wrapped call pushes a frame; on return its
duration, minus the part its wrapped children covered, is the layer's self
time, so the self times of all layers add up to the time spent inside the
outermost wrapped call (``cli.main``).

Calls at a coarse boundary (a CLI command, a scenario load, a Lyapunov scan,
one generator evaluation, one quadrature) are kept as spans
``{id, name, start, end, parent}``.  Calls made hundreds of thousands of times
per command (density, psi and integrand evaluations, counter-based draws,
overlap ratios, jump quantiles) are aggregated per enclosing span as
``{name: [calls, seconds]}`` instead, so the trace stays small and its overhead
bounded.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("config", "model", "quad", "testfn", "generator", "simulate",
          "estimate", "cli")

# module -> public functions wrapped wherever the package binds them by name
FUNCTIONS = {
    "config": ("load_scenario",),
    "testfn": ("assemble", "psi_table"),
    "generator": ("apply_L", "apply_coupling_L", "apply_coupling_L_sum",
                  "apply_synchronous_L", "check_drift_condition",
                  "check_noise_conditions", "verify_lyapunov"),
    "simulate": ("simulate_single", "simulate_coupled", "write_ensemble"),
    "estimate": ("decay_curve", "invariant_summary", "tail_distance"),
    "cli": ("main",),
}
# (module, class) -> methods wrapped on the class that defines them
METHODS = {
    ("model", "CoefficientSet"): ("sigma",),
    ("model", "LevyMeasure"): ("density", "rho", "tail_mass", "trunc_second_moment",
                               "mean_above", "overlap_mass"),
    ("model", "AbsolutelyContinuousMeasure"): ("density", "quantile_above"),
    ("model", "StableTruncatedMeasure"): ("tail_mass", "trunc_second_moment",
                                          "mean_above", "quantile_above"),
    ("model", "AtomicMeasure"): ("quantile_above",),
    ("model", "MixtureMeasure"): ("density", "tail_mass", "trunc_second_moment",
                                  "mean_above", "quantile_above"),
    ("testfn", "PsiFunction"): ("value", "d1", "d2"),
    ("testfn", "TVTestFunction"): ("value", "d1", "d2"),
    ("estimate", "DecayCurve"): ("to_csv", "fit_summary"),
}
# aggregated rather than kept as spans; psi evaluations share one name
HOT = {"model.sigma", "model.density", "model.rho", "model.quantile_above",
       "simulate._draws", "testfn.value", "testfn.d1", "testfn.d2",
       "generator.integrand", "model.integrand"}

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "config.load_scenario_s": ("s", "lower"),
    "generator.verify_lyapunov_s": ("s", "lower"),
    "generator.apply_coupling_L_calls": ("count", "lower"),
    "generator.apply_coupling_L_p50_ms": ("ms", "lower"),
    "generator.apply_coupling_L_p95_ms": ("ms", "lower"),
    "generator.lyapunov_skipped": ("count", "lower"),
    "generator.check_noise_s": ("s", "lower"),
    "generator.check_drift_s": ("s", "lower"),
    "quad.integrate_interval_calls": ("count", "lower"),
    "quad.integrate_interval_self_s": ("s", "lower"),
    "quad.integrand_evals": ("count", "lower"),
    "quad.errors": ("count", "lower"),
    "testfn.assemble_s": ("s", "lower"),
    "testfn.fn_evals": ("count", "lower"),
    "model.density_calls": ("count", "lower"),
    "model.density_s": ("s", "lower"),
    "model.rho_calls": ("count", "lower"),
    "model.rho_elems": ("count", "lower"),
    "model.rho_s": ("s", "lower"),
    "model.quantile_above_calls": ("count", "lower"),
    "model.quantile_above_elems": ("count", "lower"),
    "model.quantile_above_s": ("s", "lower"),
    "simulate.draws_calls": ("count", "lower"),
    "simulate.draws_variates": ("count", "lower"),
    "simulate.draws_s": ("s", "lower"),
    "simulate.draws_p50_us": ("us", "lower"),
    "simulate.coupled_s": ("s", "lower"),
    "simulate.coupled_mpath_steps_per_s": ("Mpath-steps/s", "higher"),
    "simulate.single_s": ("s", "lower"),
    "simulate.single_mpath_steps_per_s": ("Mpath-steps/s", "higher"),
    "simulate.thinning_rounds_per_step": ("count", "lower"),
    "simulate.jump_size_useful_ratio": ("ratio", "higher"),
    "simulate.write_ensemble_s": ("s", "lower"),
    "simulate.write_ensemble_bytes": ("bytes", "lower"),
    "estimate.decay_curve_s": ("s", "lower"),
    "estimate.invariant_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
}


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "elems", "errors", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.elems = 0
        self.errors = defaultdict(int)   # exception class name -> count
        self.durations = []


class Tracer:
    """Installs timing wrappers on an imported ``nlbranch`` and collects
    spans, per-name statistics and per-layer self time."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.layer_self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self._stack = []      # open frames: [layer, child seconds]
        self._open = []       # indices into self.spans of open spans
        self._patches = []    # (owner, attribute, original value)
        self._t0 = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, keep_durations=False, note=None):
        """``fn`` timed as ``name`` ('<layer>.<what>').  ``note(args, kwargs,
        result, caller_layer)`` updates counters after a successful call."""
        layer = name.split(".", 1)[0]
        stat = self.stats[name]
        is_span = name not in HOT
        stack, open_spans, spans = self._stack, self._open, self.spans
        layer_self = self.layer_self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            if is_span:
                span = {"id": len(spans), "name": name,
                        "parent": open_spans[-1] if open_spans else None}
                spans.append(span)
                open_spans.append(span["id"])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                layer_self[layer] += own
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += own
                if keep_durations:
                    stat.durations.append(dur)
                if stack:
                    stack[-1][1] += dur
                if is_span:
                    open_spans.pop()
                    span["start"] = t0 - self._t0
                    span["end"] = t1 - self._t0
                elif open_spans:
                    agg = spans[open_spans[-1]].setdefault("hot", {})
                    entry = agg.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += dur
            if note is not None:
                note(args, kwargs, result, caller)
            return result

        return wrapper

    def _patch_everywhere(self, modules, orig, wrapped):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def install(self, pkg):
        """Wrap the entry points of every layer of the imported package."""
        mods = {layer: importlib.import_module(f"{pkg.__name__}.{layer}")
                for layer in LAYERS}
        everywhere = [pkg, *mods.values()]
        notes = self._notes(mods["simulate"])

        for layer, names in FUNCTIONS.items():
            for fname in names:
                name = f"{layer}.{fname}"
                orig = getattr(mods[layer], fname)
                wrapped = self.wrap(orig, name,
                                    keep_durations=name == "generator.apply_coupling_L",
                                    note=notes.get(name))
                self._patch_everywhere(everywhere, orig, wrapped)

        # simulate looks _draws up as a module global on every call
        sim = mods["simulate"]
        self._patches.append((sim, "_draws", sim._draws))
        sim._draws = self.wrap(sim._draws, "simulate._draws", keep_durations=True,
                               note=notes["simulate._draws"])

        # quadrature: `integrate_interval` is imported by name into generator and
        # model; each copy counts the integrand evaluations as its caller's layer
        quad_orig = mods["quad"].integrate_interval
        for caller in ("generator", "model"):
            wrapped = self.wrap(self._counting_quad(quad_orig, f"{caller}.integrand"),
                                "quad.integrate_interval")
            self._patch_everywhere([mods[caller]], quad_orig, wrapped)

        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                if meth not in vars(cls):
                    continue
                name = f"{layer}.{meth}"
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, note=notes.get(name)))

    def uninstall(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches.clear()

    def _counting_quad(self, integrate_interval, integrand_name):
        wrap = self.wrap

        def traced_integrate_interval(fn, *args, **kwargs):
            return integrate_interval(wrap(fn, integrand_name), *args, **kwargs)

        return traced_integrate_interval

    def _notes(self, simulate):
        c = self.counters
        st = self.stats
        occur, size = simulate._SLOT_JUMP_OCCUR, simulate._SLOT_JUMP_SIZE

        def draws(args, kwargs, result, caller):
            slot, n = args[1], args[3]
            st["simulate._draws"].elems += n
            if slot == occur:
                c["jump_occur_draws"] += 1
            elif slot == size:
                c["jump_size_variates"] += n

        def kernel(kind):
            def note(args, kwargs, result, caller):
                cfg = kwargs["cfg"] if "cfg" in kwargs else args[-1]
                nu = kwargs["nu"] if "nu" in kwargs else args[1]
                steps = int(round(cfg.t_end / cfg.h))
                if nu is not None:   # steps without jumps draw no thinning rounds
                    c["jump_steps"] += steps
                c[f"{kind}_path_steps"] += steps * cfg.n_paths
            return note

        def outer_elems(name, arg_index):
            # calls from inside the model layer (a mixture delegating to its
            # components) would count the same elements twice
            def note(args, kwargs, result, caller):
                if caller != "model":
                    st[name].elems += int(np.size(args[arg_index]))
            return note

        def psi_eval(args, kwargs, result, caller):
            if caller != "testfn":
                c["fn_evals"] += 1

        def ensemble_bytes(args, kwargs, result, caller):
            c["write_ensemble_bytes"] += os.path.getsize(args[0])

        return {
            "simulate._draws": draws,
            "simulate.simulate_single": kernel("single"),
            "simulate.simulate_coupled": kernel("coupled"),
            "simulate.write_ensemble": ensemble_bytes,
            "model.rho": outer_elems("model.rho", 2),
            "model.quantile_above": outer_elems("model.quantile_above", 2),
            "testfn.value": psi_eval, "testfn.d1": psi_eval, "testfn.d2": psi_eval,
        }

    # -- results ----------------------------------------------------------

    def per_layer_metrics(self, traced_run_s, overhead_s):
        """Every PER_LAYER metric; a layer the workload never calls reads 0.
        ``overhead_s`` is the traced pass's time less the untraced pass's."""
        st, c = self.stats, self.counters

        def get(name):
            return st[name] if name in st else _Stat()

        def pct(durations, q):
            return float(np.percentile(durations, q)) if durations else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        acl = get("generator.apply_coupling_L")
        quad = get("quad.integrate_interval")
        draws = get("simulate._draws")
        coupled, single = get("simulate.simulate_coupled"), get("simulate.simulate_single")
        qa = get("model.quantile_above")
        rho = get("model.rho")
        covered = get("cli.main").total_s
        m = {
            "config.load_scenario_s": get("config.load_scenario").total_s,
            "generator.verify_lyapunov_s": get("generator.verify_lyapunov").total_s,
            "generator.apply_coupling_L_calls": acl.calls,
            "generator.apply_coupling_L_p50_ms": 1e3 * pct(acl.durations, 50),
            "generator.apply_coupling_L_p95_ms": 1e3 * pct(acl.durations, 95),
            # verify_lyapunov catches QuadratureError and skips the point
            "generator.lyapunov_skipped": acl.errors.get("QuadratureError", 0),
            "generator.check_noise_s": get("generator.check_noise_conditions").total_s,
            "generator.check_drift_s": get("generator.check_drift_condition").total_s,
            "quad.integrate_interval_calls": quad.calls,
            "quad.integrate_interval_self_s": quad.self_s,
            "quad.integrand_evals": get("generator.integrand").calls
            + get("model.integrand").calls,
            "quad.errors": quad.errors.get("QuadratureError", 0),
            "testfn.assemble_s": get("testfn.assemble").total_s,
            "testfn.fn_evals": c["fn_evals"],
            "model.density_calls": get("model.density").calls,
            "model.density_s": get("model.density").total_s,
            "model.rho_calls": rho.calls,
            "model.rho_elems": rho.elems,
            "model.rho_s": rho.total_s,
            "model.quantile_above_calls": qa.calls,
            "model.quantile_above_elems": qa.elems,
            "model.quantile_above_s": qa.total_s,
            "simulate.draws_calls": draws.calls,
            "simulate.draws_variates": draws.elems,
            "simulate.draws_s": draws.total_s,
            "simulate.draws_p50_us": 1e6 * pct(draws.durations, 50),
            "simulate.coupled_s": coupled.total_s,
            "simulate.coupled_mpath_steps_per_s":
                ratio(c["coupled_path_steps"] / 1e6, coupled.total_s),
            "simulate.single_s": single.total_s,
            "simulate.single_mpath_steps_per_s":
                ratio(c["single_path_steps"] / 1e6, single.total_s),
            "simulate.thinning_rounds_per_step":
                ratio(c["jump_occur_draws"], c["jump_steps"]),
            "simulate.jump_size_useful_ratio": ratio(qa.elems, c["jump_size_variates"]),
            "simulate.write_ensemble_s": get("simulate.write_ensemble").total_s,
            "simulate.write_ensemble_bytes": c["write_ensemble_bytes"],
            "estimate.decay_curve_s": get("estimate.decay_curve").total_s,
            "estimate.invariant_s": get("estimate.invariant_summary").total_s
            + get("estimate.tail_distance").total_s,
            **{f"{layer}.self_s": self.layer_self_s.get(layer, 0.0) for layer in LAYERS},
            "trace.overhead_s": overhead_s,
            "trace.unaccounted_share": ratio(traced_run_s - covered, traced_run_s),
        }
        return m

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        stats = {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                        "elems": s.elems, "errors": dict(s.errors)}
                 for name, s in sorted(self.stats.items()) if s.calls}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "stats": stats,
                       "layer_self_s": dict(self.layer_self_s),
                       "counters": dict(self.counters)}, fh)
