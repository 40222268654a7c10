import math

import numpy as np
import pytest

from nlbranch.errors import QuadratureError
from nlbranch.quad import QuadratureSpec, integrate_interval, integrate_segments


def counting(fn):
    """Wrap a vectorized integrand; ``calls`` counts calls, ``nodes`` points."""

    def wrapped(z):
        wrapped.calls += 1
        wrapped.nodes += np.size(z)
        return fn(z)

    wrapped.calls = wrapped.nodes = 0
    return wrapped


def test_kronrod_rule_is_exact_to_degree_31():
    # (0.5, 2) is a single panel: any error comes from the node/weight table
    for k in (0, 1, 7, 20, 31):
        exact = (2.0 ** (k + 1) - 0.5 ** (k + 1)) / (k + 1)
        assert integrate_interval(lambda z: z ** k, 0.5, 2.0) \
            == pytest.approx(exact, rel=1e-13)


def test_origin_singularity():
    # int_0^1 z^(-1/2) dz = 2: the origin ladder absorbs the singularity
    assert integrate_interval(lambda z: z ** -0.5, 0.0, 1.0) \
        == pytest.approx(2.0, rel=1e-8)


def test_infinite_range():
    assert integrate_interval(lambda z: np.exp(-z), 0.0, math.inf) \
        == pytest.approx(1.0, rel=1e-12)
    assert integrate_interval(lambda z: np.exp(-z), 2.0, math.inf) \
        == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_kink_at_interior_breakpoint():
    # |z - 0.3| on (0, 1): 0.3^2/2 + 0.7^2/2, exact once 0.3 is a panel edge
    fn = counting(lambda z: np.abs(z - 0.3))
    val = integrate_interval(fn, 0.0, 1.0, points=(0.3, 2.0, -1.0))
    assert val == pytest.approx(0.29, rel=1e-14)
    assert fn.calls == 1


def test_segments_match_closed_forms_and_sum_to_the_interval():
    spec = QuadratureSpec(atol=1e-14, rtol=1e-12)
    edges = np.array([0.0, 1e-4, 0.01, 0.3, 1.0, 2.5, 6.0])
    lo, hi = edges[:-1], edges[1:]
    for fn, exact in ((lambda z: z ** -0.5, 2.0 * (np.sqrt(hi) - np.sqrt(lo))),
                      (lambda z: np.exp(-z), -np.exp(-lo) * np.expm1(lo - hi))):
        segs = integrate_segments(fn, edges, spec)
        assert segs.shape == exact.shape
        assert np.allclose(segs, exact, rtol=1e-14, atol=0.0)
        total = integrate_interval(fn, edges[0], edges[-1], spec, points=edges[1:-1])
        assert math.fsum(segs) == pytest.approx(total, rel=1e-15)


def test_divergent_integrand_raises_with_achieved_error():
    with pytest.raises(QuadratureError) as info:
        integrate_interval(lambda z: z ** -1.5, 0.0, 1.0)
    assert info.value.achieved is not None and info.value.achieved > 0


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_interval(lambda z: np.where(z > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_smooth_integrand_takes_few_array_calls():
    # the integrand is evaluated on arrays of nodes, one call per round
    fn = counting(lambda z: np.cos(3.0 * z) * np.exp(-z))
    val = integrate_interval(fn, 0.0, 5.0, QuadratureSpec(atol=1e-12, rtol=1e-12))
    exact = (1.0 + math.exp(-5.0) * (3.0 * math.sin(15.0) - math.cos(15.0))) / 10.0
    assert val == pytest.approx(exact, rel=1e-11)
    assert fn.calls <= 30
    assert fn.nodes > 10 * fn.calls


def test_empty_interval_is_zero():
    assert integrate_interval(lambda z: np.ones_like(z), 1.0, 1.0) == 0.0
