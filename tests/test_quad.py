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


def test_no_intervals_give_no_values_and_no_errors():
    fn = counting(np.ones_like)
    values, errors = integrate_intervals(lambda z, g: fn(z), [])
    assert values.shape == (0,) and values.dtype == float
    assert errors == [] and fn.calls == 0


@pytest.mark.parametrize("edges", [[], [0.5], np.array([2.0])])
def test_fewer_than_two_edges_give_no_segments(edges):
    fn = counting(np.ones_like)
    out = integrate_segments(fn, edges)
    assert out.shape == (0,) and out.dtype == float
    assert fn.calls == 0


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


def first_round_nodes(ranges):
    return quad._first_panels(ranges)[0].size * quad._X.size


def test_a_group_larger_than_a_batch_is_evaluated_in_slices(monkeypatch):
    # psi's cumulative-integral grid is one group whose first round holds
    # 25,683 nodes: no call sees more than a batch, and the nodal integrals
    # keep the bits of a run that takes each round in one call
    edges = 0.04 * np.sin(np.linspace(0.0, np.pi / 2, 1200)) ** 2
    assert first_round_nodes([(edges.tolist(), False)]) > quad._BATCH_NODES
    spec = QuadratureSpec(atol=1e-14, rtol=1e-12)
    sizes = []

    def fn(z):
        sizes.append(z.size)
        return np.exp(-30.0 * z) * z ** -0.5

    sliced = integrate_segments(fn, edges, spec)
    assert max(sizes) <= quad._BATCH_NODES < sizes[0] + sizes[1]
    monkeypatch.setattr(quad, "_BATCH_NODES", 10 ** 9)
    sizes.clear()
    whole = integrate_segments(fn, edges, spec)
    assert sizes[0] == first_round_nodes([(edges.tolist(), False)])
    assert sliced.tobytes() == whole.tobytes()


def test_a_mapped_group_larger_than_a_batch_keeps_its_bits(monkeypatch):
    # a tail group whose first round exceeds a batch: its mapped panel sits
    # in the last slice, the only one scaled by the Jacobian
    interval = (0.0, math.inf, tuple(np.geomspace(1e-3, 50.0, 600)))
    assert first_round_nodes([quad._range(*interval)]) > quad._BATCH_NODES
    sizes = []

    def fn(z, g):
        sizes.append(z.size)
        return np.exp(-z) * z ** -0.5

    sliced = integrate_intervals(fn, [interval])
    assert max(sizes) <= quad._BATCH_NODES < sizes[0] + sizes[1]
    monkeypatch.setattr(quad, "_BATCH_NODES", 10 ** 9)
    whole = integrate_intervals(fn, [interval])
    assert sliced[0].tobytes() == whole[0].tobytes() and sliced[1] == whole[1] == [None]
    assert sliced[0][0] == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_every_slice_maps_its_panels_from_their_own_start(monkeypatch):
    # a round of 100 groups, 1,000 panels in three slices, each group with
    # a mapped tail from its own start z0
    rng = np.random.default_rng(7)
    gid = np.repeat(np.arange(100), 10)
    lo = rng.random(gid.size)
    hi = lo + rng.random(gid.size)
    mapped = np.arange(gid.size) % 10 == 9
    lo[mapped], hi[mapped] = 0.0, 1.0
    z0 = np.repeat(10.0 * rng.random(100), 10)

    def fn(z, g):
        return np.exp(-z) * (1.0 + g)

    sliced = quad._gauss_kronrod(fn, lo, hi, mapped, z0, gid)
    monkeypatch.setattr(quad, "_BATCH_NODES", 10 ** 9)
    whole = quad._gauss_kronrod(fn, lo, hi, mapped, z0, gid)
    for a, b in zip(sliced, whole, strict=True):
        assert a.tobytes() == b.tobytes()
    # a mapped panel holds int_z0^oo e^-z (1 + g) dz
    assert sliced[0][mapped] == pytest.approx(np.exp(-z0[mapped]) * (1.0 + gid[mapped]),
                                              rel=1e-6)


# ---------------------------------------------------------------------------
# first panels: one vectorized build for every group, against the scalar
# per-segment builder it replaced


def graded(edges):
    """The scalar builder of one finite group's first panels that
    ``quad._first_panels`` replaced, kept as the oracle of its bits."""
    cuts = list(edges[1] * quad._LADDER[:-1]) if edges[0] == 0.0 else [edges[0]]
    seg = [0] * (len(cuts) - 1)
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        n = 1
        if lo > 0.0:
            n = max(1, math.ceil(math.log(hi / lo) / -math.log(quad._RUNG_RATIO) - 1e-9))
            cuts += [lo * (hi / lo) ** (j / n) for j in range(1, n)]
        cuts.append(hi)
        seg += [k] * n
    return np.array(cuts[:-1]), np.array(cuts[1:]), np.array(seg, dtype=np.intp)


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_first_panels_match_the_oracle(edges):
    lo, hi, mapped, seg, gid = quad._first_panels([(edges, False)])
    assert_same_arrays((lo, hi, seg), graded(edges))
    assert not mapped.any() and not gid.any()


# a step to the next edge: a factor, or a factor of exactly 4 (0), one ulp
# below it (-1) or one ulp above it (1)
STEPS = st.one_of(st.floats(1.0 + 1e-9, 40.0), st.sampled_from((-1, 0, 1)))


@settings(max_examples=300, deadline=None)
@given(zero=st.booleans(), start=st.floats(1e-3, 10.0), steps=st.lists(STEPS, max_size=10))
def test_first_panels_match_the_scalar_builder(zero, start, steps):
    edges = [start]
    for step in steps:
        if isinstance(step, int):
            four = 4.0 * edges[-1]
            nxt = four if step == 0 else math.nextafter(four, step * math.inf)
        else:
            nxt = edges[-1] * step
        if nxt > 1e6 * start:   # spans up to 1e6
            break
        edges.append(nxt)
    edges = [0.0] * zero + edges
    if len(edges) >= 2:
        assert_first_panels_match_the_oracle(edges)


@pytest.mark.parametrize("edges", [
    2.0 * np.sin(np.linspace(0.0, np.pi / 2, 2400)) ** 2,    # testfn's g grid
    0.04 * np.sin(np.linspace(0.0, np.pi / 2, 1200)) ** 2,   # testfn's psi grid
    np.geomspace(1e-2, 10.0, 4097),                          # quantile_above's grid
    [1.0, 4.0, np.nextafter(16.0, 0.0), np.nextafter(64.0, np.inf), 1e6],
], ids=["g-2400", "psi-1200", "quantile-4097", "fours"])
def test_first_panels_of_the_package_grids(edges):
    assert_first_panels_match_the_oracle(np.asarray(edges, dtype=float).tolist())


def test_first_panels_of_many_groups_are_their_solo_builds():
    # Lyapunov-like ranges from 0 with a switch point and a kink, tails,
    # a tail alone, and ranges not from 0
    ranges = [quad._range(*interval) for interval in [
        (0.0, 1.0, (1e-4, 0.039)), (0.0, 1.0, (math.nextafter(1e-4, 1.0),)),
        (0.0, math.inf, (2.0,)), (0.5, math.inf, ()), (0.0, math.inf, ()),
        (1e-3, 30.0, (0.2, 5.0)), (-1.0, 2.0, (0.0,))]]
    lo, hi, mapped, seg, gid = quad._first_panels(ranges)
    assert np.all(np.diff(gid) >= 0)
    for g, (edges, infinite) in enumerate(ranges):
        mine = tuple(p[gid == g] for p in (lo, hi, mapped, seg))
        assert_same_arrays(mine, quad._first_panels([(edges, infinite)])[:4])
        # the finite panels, then the mapped tail [0, 1) past the last edge
        n = mine[0].size - infinite
        if len(edges) > 1:
            assert_same_arrays((mine[0][:n], mine[1][:n], mine[3][:n]), graded(edges))
        assert mine[2].sum() == infinite and not mine[2][:n].any()
        if infinite:
            assert (mine[0][-1], mine[1][-1], mine[3][-1]) == (0.0, 1.0, len(edges) - 1)
