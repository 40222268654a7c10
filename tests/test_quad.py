import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlbranch import quad
from nlbranch.errors import QuadratureError
from nlbranch.quad import (QuadratureSpec, integrate_interval, integrate_intervals,
                           integrate_segments)


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


def test_refinement_splits_when_no_panel_exceeds_its_share(monkeypatch):
    # three panels each hold exactly their share tol/3 of the tolerance, yet
    # the rounded sum of the errors exceeds tol: no panel is above its share,
    # and the round must still split one, the largest
    atol = 1.01003e-10
    share = atol / 3.0
    assert share + share + share > atol
    rounds = []

    def stub(fn, lo, hi, mapped, z0, gid):
        rounds.append(lo.size)
        if len(rounds) > 5:
            raise AssertionError("the refinement loop makes no progress")
        return np.zeros(lo.size), np.full(lo.size, share if len(rounds) == 1 else 0.0)

    monkeypatch.setattr(quad, "_gauss_kronrod", stub)
    spec = QuadratureSpec(atol=atol, rtol=1e-8)
    assert integrate_interval(lambda z: z, 1.0, 3.0, spec, points=(2.0, 2.5)) == 0.0
    # the first round's three panels, then the two halves of one of them
    assert rounds == [3, 2]


def power_law(s, c):
    """(z, g) -> z^-s_g e^(-c_g z), for groups with exponents s and rates c."""
    s, c = np.asarray(s), np.asarray(c)
    return lambda z, g: z ** -s[g] * np.exp(-c[g] * z)


def solo(fn, g, a, b, spec, points):
    """integrate_interval of group g's integrand, or the error it raises."""
    try:
        return integrate_interval(lambda z: fn(z, np.full(z.shape, g)), a, b, spec, points)
    except QuadratureError as exc:
        return exc


@settings(max_examples=40, deadline=None)
@given(groups=st.lists(
    st.tuples(st.floats(0.1, 0.9), st.floats(0.2, 5.0), st.booleans(),
              st.lists(st.floats(0.01, 0.99), max_size=3)),
    min_size=1, max_size=6))
def test_each_group_equals_its_solo_run_bit_for_bit(groups):
    # z^-s on [0, b] with interior breakpoints, and z^-s e^-z on [0, oo),
    # which adds the mapped tail
    spec = QuadratureSpec(atol=1e-12, rtol=1e-10)
    fn = power_law([s for s, *_ in groups], [1.0 if tail else 0.0 for _, _, tail, _ in groups])
    intervals = [(0.0, math.inf if tail else b, [u * b for u in cuts])
                 for _, b, tail, cuts in groups]
    values, errors = integrate_intervals(fn, intervals, spec)
    for g, (a, b, points) in enumerate(intervals):
        alone = solo(fn, g, a, b, spec, points)
        if isinstance(alone, QuadratureError):
            assert str(errors[g]) == str(alone) and math.isnan(values[g])
        else:
            assert errors[g] is None and values[g] == alone


def test_a_failed_group_leaves_the_others_unchanged():
    smooth = power_law([0.5, 0.3, 0.7], [0.0, 1.0, 0.0])

    def fn(z, g):
        return np.where((g == 1) & (z > 0.5), np.nan, smooth(z, g))

    intervals = [(0.0, 1.0, ()), (0.0, math.inf, (2.0,)), (0.0, 3.0, (0.4,))]
    values, errors = integrate_intervals(fn, intervals)
    assert isinstance(errors[1], QuadratureError) and math.isnan(values[1])
    assert "non-finite" in str(errors[1])
    for g in (0, 2):
        a, b, points = intervals[g]
        assert errors[g] is None
        assert values[g] == solo(smooth, g, a, b, quad.DEFAULT_QUAD, points)


def test_grouped_intervals_must_be_nonempty():
    with pytest.raises(ValueError):
        integrate_intervals(power_law([0.5, 0.5], [0.0, 0.0]),
                            [(1.0, 1.0, ()), (0.0, 1.0, ())])


def test_batches_bound_the_nodes_of_an_integrand_call():
    # forty groups of 25 first-round panels (525 nodes) each exceed one
    # batch's budget
    calls = []

    def fn(z, g):
        calls.append(z.size)
        return np.cos(z) + g

    spec = QuadratureSpec(atol=1e-12, rtol=1e-12)
    values, _ = integrate_intervals(fn, [(0.0, 1.0, ())] * 40, spec)
    assert max(calls) <= quad._BATCH_NODES < sum(calls)
    for g in range(40):
        assert values[g] == integrate_interval(lambda z: np.cos(z) + g, 0.0, 1.0, spec)
        assert values[g] == pytest.approx(math.sin(1.0) + g, rel=1e-12)
