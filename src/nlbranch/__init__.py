"""Simulation and numerical verification of exponential ergodicity for
continuous-state nonlinear branching SDEs."""

from .errors import (DomainError, NLBranchError, NoJumpError, QuadratureError,
                     ValidationError)
from .model import (AbsolutelyContinuousMeasure, AtomicMeasure, CoefficientSet,
                    LevyMeasure, MixtureMeasure,
                    StableTruncatedMeasure, cir_coefficients, dyadic_atoms,
                    logistic_coefficients)
from .quad import DEFAULT_QUAD, QuadratureSpec, integrate_interval
from .testfn import (ContractionConstants, DriftModulus, GFunction, PsiFunction,
                     TVTestFunction, assemble, build_g, build_psi,
                     build_strong_psi, build_tv_fn, phi1_linear, phi1_log1p,
                     phi1_xlog, phi1_zero, phi2_linear, phi2_power)
from .generator import (ConditionReport, apply_L, apply_coupling_L,
                        apply_coupling_L_sum, apply_synchronous_L,
                        check_drift_condition, check_noise_conditions,
                        cir_expected_hitting_time, invariant_density_residual,
                        invariant_measure_mass, verify_lyapunov)
from .simulate import (CoupledEnsemble, SimConfig, SingleEnsemble,
                       read_ensemble, simulate_coupled, simulate_single,
                       simulate_starts, write_ensemble)
from .estimate import (DecayCurve, FitResult, decay_curve, empirical_w1,
                       fit_rate, invariant_summary, tail_distance, tv_upper,
                       w1_upper)
from .config import PRESETS, Scenario, load_scenario

__version__ = "0.1.0"
