import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from d2dpc import bounds
from d2dpc.combinat import (
    Line,
    TradeoffCurve,
    binom,
    binom_capped,
    binom_load_row,
    curve_max,
    even_grid,
    lower_convex_envelope,
    shared_domain,
    upper_envelope_of_lines,
)
from d2dpc import scheme_a, verify
from d2dpc.core import SeededSource, draw_key, seeded_rng
from oracles import _lower_hull as fraction_lower_hull, recorded_points


def test_binom_basic():
    assert binom(4, 2) == 6


def test_binom_zero_convention():
    # out-of-range binomials are zero by convention, the load formulas
    # rely on this at the edges
    assert binom(2, 3) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


def test_binom_capped_is_min_of_binom_and_cap():
    for n in range(-1, 25):
        for k in range(-1, 27):
            for cap in (1, 7, 100, 10**5, 10**18):
                assert binom_capped(n, k, cap) == min(binom(n, k), cap)
    # stops after a few dozen factors, long before binom(n, k) is built
    assert binom_capped(2 * 10**6, 10**6, 10**18) == 10**18


def test_binom_load_row_matches_binom():
    # N > U puts U - N below zero, where every binom(U - N, t) is 0
    for U in range(0, 30):
        for N in range(0, U + 4):
            expected = [Fraction(binom(U, t) - binom(U - N, t), binom(U, t - 1)) for t in range(1, U + 2)]
            assert binom_load_row(U, N) == expected, (U, N)
    assert binom_capped(2 * 10**6, 2 * 10**6 - 1, 10**18) == 2 * 10**6


def test_uniform_permutation_chi_square():
    # 6*10^4 samples of S_3 from the shuffle every scheme's placement and
    # delivery draw with, one label per sample: every permutation within
    # 3 sigma of 1/6
    source = SeededSource(12)
    counts = Counter(
        tuple(source.permutation(("chi", n), [1, 2, 3])) for n in range(60_000)
    )
    assert len(counts) == 6
    sigma = (60_000 * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts.values():
        assert abs(c - 10_000) <= 3 * sigma


def test_sampled_points_uniform_chi_square():
    # 96,000 points of transmitter 1 of A(3,2,2), drawn the way a Monte
    # Carlo trial draws them (int keys off one stream):
    # every one of the 4! * 2 * 2 = 96 points appears, and the chi-square
    # statistic stays below the 99.9 % quantile of chi2(95), 143.34
    p = scheme_a.params_for(3, 2, 2)
    own = verify._setup(p, [], False)[3][(1, 1, 2)][0]
    assert own.size() == 96
    rng = seeded_rng(5, "chi")
    plan = own.plan()
    counts = Counter(own.point(draw_key(plan, rng.getrandbits)) for _ in range(96_000))
    assert set(counts) == set(recorded_points(own))
    chi2 = sum((n - 1000) ** 2 / 1000 for n in counts.values())
    assert chi2 < 143.34


def test_envelope_drops_point_above_chord():
    env = lower_convex_envelope([(1, 2), (2, 0), (Fraction(3, 2), 3)])
    assert env.corners == ((1, 2), (2, 0))


def test_envelope_single_point():
    env = lower_convex_envelope([(Fraction(3, 2), Fraction(1, 2))])
    assert env(Fraction(3, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        env(2)


def test_envelope_memory_sharing_value():
    # two-user, three-file instance: chord between (2, 1) and (5/2, 1/3)
    # evaluates to 2/3 at M = 9/4
    from d2dpc.scheme_a import scheme_a_curve

    curve = scheme_a_curve(2, 3)
    assert curve(Fraction(9, 4)) == Fraction(2, 3)


def test_envelope_below_inputs_and_convex():
    rng = random.Random(7)
    for _ in range(30):
        pts = [
            (Fraction(rng.randint(0, 40), rng.randint(1, 8)),
             Fraction(rng.randint(0, 40), rng.randint(1, 8)))
            for _ in range(rng.randint(1, 12))
        ]
        # make the cloud non-increasing-feasible by sorting loads downward
        pts = sorted(pts)
        ms = [m for m, _ in pts]
        rs = sorted((r for _, r in pts), reverse=True)
        pts = list(zip(ms, rs))
        env = lower_convex_envelope(pts)
        for m, r in pts:
            assert env(m) <= r
        slopes = [
            (r1 - r0) / (m1 - m0)
            for (m0, r0), (m1, r1) in zip(env.corners, env.corners[1:])
        ]
        assert all(s0 <= s1 for s0, s1 in zip(slopes, slopes[1:]))


def test_envelope_merges_collinear():
    env = lower_convex_envelope([(0, 4), (1, 3), (2, 2), (4, 0)])
    assert env.corners == ((0, 4), (4, 0))


# denominators of every size the curves meet: a small grid, where repeated
# x and collinear runs are common, and binomials like those of scheme A's
# loads at (40, 10)
_HULL_DENOMINATORS = st.one_of(st.integers(1, 3), st.builds(binom, st.integers(20, 60), st.integers(2, 12)))
_HULL_COORDS = _HULL_DENOMINATORS.flatmap(
    lambda d: st.builds(Fraction, st.integers(-6 * d, 6 * d), st.just(d)))


@st.composite
def rational_point_sets(draw):
    """One or more rational points with repeated x, equal points, and
    collinear runs through two of them, in a random input order."""
    points = draw(st.lists(st.tuples(_HULL_COORDS, _HULL_COORDS), min_size=1, max_size=8))
    same_x = [(x, y) for (x, _), y in draw(st.lists(st.tuples(st.sampled_from(points), _HULL_COORDS),
                                                    max_size=3))]
    equal = draw(st.lists(st.sampled_from(points), max_size=3))
    runs = []
    for (x0, y0), (x1, y1) in draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                                            max_size=2)):
        runs += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
                 for t in draw(st.lists(st.fractions(-1, 2, max_denominator=4), max_size=3))]
    return draw(st.permutations(points + same_x + equal + runs))


def _descending(points):
    """The points shifted to M >= 0 and sheared, (x, y) -> (x, y - c x),
    with c above every slope between them; a shear keeps the hull's
    corners and makes it non-increasing, so it is a memory-load curve."""
    x_min = min(x for x, _ in points)
    c = 1 + max([(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in itertools.combinations(points, 2)
                 if x1 != x0] + [0])
    return [(x - x_min, y - c * (x - x_min)) for x, y in points]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rational_point_sets())
def test_integer_hull_matches_fraction_oracle(points):
    tags = [f"p{i}" for i in range(len(points))]
    # through lower_convex_envelope: the same corners, each tagged by the
    # first of its equal points
    pts = _descending(points)
    hull = fraction_lower_hull((x, y, tag) for (x, y), tag in zip(pts, tags))
    env = lower_convex_envelope(pts, provenance=tags)
    assert env.corners == tuple((x, y) for x, y, _ in hull)
    assert env.provenance == tuple(tag for _, _, tag in hull)
    # through upper_envelope_of_lines: the points are the duals (s, -c) of
    # lines R = c + s M with s <= 0; consecutive hull lines cross at the
    # corners of their max, each tagged by the first line that reaches it
    x_max = max(x for x, _ in points)
    lines = [Line(x - x_max, -y, tag) for (x, y), tag in zip(points, tags)]
    hull = fraction_lower_hull((x - x_max, y, None) for x, y in points)
    crossings = [(y1 - y0) / (x1 - x0) for (x0, y0, _), (x1, y1, _) in zip(hull, hull[1:])]
    lo, hi = (crossings[0] - 1, crossings[-1] + 1) if crossings else (Fraction(0), Fraction(1))
    curve = upper_envelope_of_lines(lines, lo, hi)
    assert curve.corner_ms() == [lo] + crossings + [hi]
    for (m, r), tag in zip(curve.corners, curve.provenance):
        assert r == max(ln(m) for ln in lines)
        assert tag == next(ln.tag for ln in lines if ln(m) == r)


def test_upper_envelope_of_lines():
    lines = [Line(Fraction(0), Fraction(1), "flat"), Line(Fraction(-1), Fraction(3), "steep")]
    curve = upper_envelope_of_lines(lines, 0, 4)
    assert curve(0) == 3
    assert curve(2) == 1
    assert curve(4) == 1
    assert (Fraction(2), Fraction(1)) in curve.corners


def _all_pairs_envelope(lines, lo, hi):
    """Brute-force oracle: evaluate the max at lo, hi and every pairwise
    crossing inside (lo, hi), then merge collinear points."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lines:
        raise ValueError("no lines")
    breaks = {lo, hi}
    for a, b in itertools.combinations(lines, 2):
        if a.slope == b.slope:
            continue
        x = (b.intercept - a.intercept) / (a.slope - b.slope)
        if lo < x < hi:
            breaks.add(x)

    def best_at(m):
        return max(lines, key=lambda ln: ln(m))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    corners, tags = [], []
    for m in sorted(breaks):
        r = best_at(m)(m)
        while len(corners) >= 2 and cross(corners[-2], corners[-1], (m, r)) == 0:
            corners.pop()
            tags.pop()
        corners.append((m, r))
        tags.append(best_at(m).tag)
    return TradeoffCurve(corners=tuple(corners), provenance=tuple(tags))


def _envelope_outcome(envelope, lines, lo, hi):
    try:
        curve = envelope(lines, lo, hi)
    except ValueError as err:
        return ("ValueError", str(err))
    return curve.corners, curve.provenance


def _assert_matches_oracle(lines, lo, hi):
    assert _envelope_outcome(upper_envelope_of_lines, lines, lo, hi) == _envelope_outcome(
        _all_pairs_envelope, lines, lo, hi
    )


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-2, 12), st.integers(1, 3))


@st.composite
def non_increasing_line_sets(draw):
    """Lines with non-positive slopes from a small grid of rationals, so
    parallel lines, duplicates and several lines through one point are
    common; tags record input order."""
    lines = draw(st.lists(
        st.builds(Fraction, st.integers(-4, 0), st.integers(1, 3)).flatmap(
            lambda slope: _SMALL_RATIONALS.map(lambda icpt: (slope, icpt))),
        min_size=1, max_size=10,
    ))
    lines += draw(st.lists(st.sampled_from(lines), max_size=2))
    return [Line(slope, icpt, f"l{i}") for i, (slope, icpt) in enumerate(lines)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(non_increasing_line_sets(), _SMALL_RATIONALS, _SMALL_RATIONALS)
def test_upper_envelope_matches_all_pairs_oracle(lines, lo, hi):
    _assert_matches_oracle(lines, lo, hi)


@pytest.mark.parametrize(
    "lines,lo,hi",
    [
        # parallel lines and an exact duplicate (the later copy never tags)
        ([Line(Fraction(-1), Fraction(4), "a"), Line(Fraction(-1), Fraction(3), "b"),
          Line(Fraction(-1), Fraction(4), "c"), Line(Fraction(0), Fraction(1), "d")], 0, 4),
        # three lines through (2, 2); the middle one leads only at that point
        ([Line(Fraction(0), Fraction(2), "flat"), Line(Fraction(-1), Fraction(4), "mid"),
          Line(Fraction(-2), Fraction(6), "steep")], 0, 4),
        ([Line(Fraction(-1), Fraction(4), "mid"), Line(Fraction(-2), Fraction(6), "steep"),
          Line(Fraction(0), Fraction(2), "flat")], 0, 4),
        # lines that never lead
        ([Line(Fraction(-1), Fraction(5), "top"), Line(Fraction(-3), Fraction(1), "low"),
          Line(Fraction(0), Fraction(-1), "below")], 0, 3),
        # one line leads on the whole window, another touches it at hi
        ([Line(Fraction(-1), Fraction(10), "lead"), Line(Fraction(0), Fraction(8), "touch"),
          Line(Fraction(-5), Fraction(3), "under")], 0, 2),
        # degenerate windows: a single point, and lo above hi
        ([Line(Fraction(-1), Fraction(4), "a"), Line(Fraction(0), Fraction(2), "b")], 2, 2),
        ([Line(Fraction(-1), Fraction(4), "a"), Line(Fraction(0), Fraction(2), "b")], 3, 1),
    ],
)
def test_upper_envelope_edge_cases_match_oracle(lines, lo, hi):
    _assert_matches_oracle(lines, lo, hi)


@pytest.mark.parametrize(
    "lines",
    [
        [],
        # a rising max is not a memory-load curve
        [Line(Fraction(1), Fraction(0), "up"), Line(Fraction(-1), Fraction(3), "down")],
    ],
)
def test_upper_envelope_raises_where_oracle_raises(lines):
    outcome = _envelope_outcome(upper_envelope_of_lines, lines, 0, 4)
    assert outcome[0] == "ValueError"
    assert outcome == _envelope_outcome(_all_pairs_envelope, lines, 0, 4)


def test_upper_envelope_two_user_lines_match_oracle():
    for N in range(2, 25):
        lines = bounds._converse_lines(2, N, bounds._TWO_USER_TAGS)
        _assert_matches_oracle(lines, Fraction(N, 2), N)


def test_shared_domain():
    a = lower_convex_envelope([(0, 4), (4, 0)])
    assert shared_domain(a, lower_convex_envelope([(1, 2), (6, 0)])) == (1, 4)
    for b in (lower_convex_envelope([(4, 1), (5, 0)]), lower_convex_envelope([(5, 1), (6, 0)])):
        with pytest.raises(ValueError, match="do not overlap"):
            shared_domain(a, b)
        with pytest.raises(ValueError, match="do not overlap"):
            curve_max(a, b)


def test_curve_max():
    a = lower_convex_envelope([(0, 4), (4, 0)])
    b = lower_convex_envelope([(0, 2), (4, 2)])
    m = curve_max(a, b)
    assert m(0) == 4
    assert m(2) == 2
    assert m(3) == 2
    assert m(1) == 3
    assert (Fraction(2), Fraction(2)) in m.corners


def test_envelope_rejects_provenance_of_another_length():
    # a short tag list used to drop points silently: this gave ((0, 2),)
    with pytest.raises(ValueError, match="1 provenance tags for 3 points"):
        lower_convex_envelope([(0, 2), (1, 1), (4, 0)], provenance=["a"])


def test_curve_rejects_provenance_of_another_length():
    with pytest.raises(ValueError, match="1 provenance tags for 2 corners"):
        TradeoffCurve(corners=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
                      provenance=("a",))


@pytest.mark.parametrize("scale_m,scale_r", [(1, 1), (Fraction(1, 3), Fraction(2, 7))])
@pytest.mark.parametrize(
    "corners,message",
    [
        ([], "curve needs at least one corner"),
        ([(0, 2), (0, 1)], "corner M values must be strictly increasing"),
        ([(0, 3), (2, 1), (1, 0)], "corner M values must be strictly increasing"),
        ([(0, 1), (1, 2)], "curve must be non-increasing"),
        ([(0, 4), (1, 3), (2, 3), (3, 4)], "curve must be non-increasing"),
        ([(0, 4), (1, 3), (2, 0)], "corner sequence is not convex"),
        ([(0, 5), (2, 3), (3, 1)], "corner sequence is not convex"),
        ([(0, 6), (1, 3), (3, 1), (7, 0)], None),
        # a collinear run of corners is a convex curve too
        ([(0, 6), (1, 3), (2, 1), (3, 0), (4, 0), (5, 0)], None),
        ([(0, 6), (1, 4), (2, 2), (3, 0)], None),
        ([(0, 3), (1, 1), (2, 0), (4, 0)], None),
    ],
)
def test_curve_checks_its_corners(corners, message, scale_m, scale_r):
    scaled = tuple((m * scale_m, r * scale_r) for m, r in corners)
    if message is not None:
        with pytest.raises(ValueError, match=message):
            TradeoffCurve(corners=scaled)
        return
    curve = TradeoffCurve(corners=scaled)
    assert curve.corners == scaled
    pairs = list(zip(scaled, scaled[1:]))
    assert list(curve.slopes) == [Fraction(r1 - r0) / (m1 - m0) for (m0, r0), (m1, r1) in pairs]
    mids = curve.values([Fraction(m0 + m1, 2) for (m0, _), (m1, _) in pairs])
    assert mids == [Fraction(r0 + r1, 2) for (_, r0), (_, r1) in pairs]


@st.composite
def convex_curves(draw, min_points=2):
    """Lower envelopes of ``min_points`` to 6 points on a small rational
    grid in [0, 8], loads sorted downward against M so that the envelope
    is non-increasing."""
    pts = draw(st.lists(
        st.tuples(st.builds(Fraction, st.integers(0, 16), st.integers(1, 2)),
                  st.builds(Fraction, st.integers(0, 12), st.integers(1, 3))),
        min_size=min_points, max_size=6, unique_by=lambda p: p[0],
    ))
    ms = sorted(m for m, _ in pts)
    rs = sorted((r for _, r in pts), reverse=True)
    return lower_convex_envelope(zip(ms, rs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(convex_curves(), convex_curves())
def test_curve_max_matches_pointwise_max(a, b):
    assume(max(a.min_m, b.min_m) < min(a.max_m, b.max_m))
    lo, hi = shared_domain(a, b)
    top = curve_max(a, b)
    assert (top.min_m, top.max_m) == (lo, hi)
    mids = [(m0 + m1) / 2 for m0, m1 in zip(top.corner_ms(), top.corner_ms()[1:])]
    for m in [m for m in a.corner_ms() + b.corner_ms() if lo <= m <= hi] + mids:
        assert top(m) == max(a(m), b(m)), m
    for p, q, r in zip(top.corners, top.corners[1:], top.corners[2:]):
        assert (q[1] - p[1]) * (r[0] - p[0]) != (r[1] - p[1]) * (q[0] - p[0]), (p, q, r)


@st.composite
def curves_with_grids(draw):
    """A convex curve of one or more corners and an ascending grid in its
    domain: corner Ms, rationals between them, and repeats of both."""
    curve = draw(convex_curves(min_points=1))
    point = st.one_of(
        st.sampled_from(curve.corner_ms()),
        st.fractions(curve.min_m, curve.max_m, max_denominator=12),
    )
    return curve, sorted(draw(st.lists(point, max_size=12)))


def _max_of_segment_lines(curve, m):
    """A convex curve is the max of its segment lines (a one-corner curve
    is its single load)."""
    values = [r0 + (r1 - r0) / (m1 - m0) * (m - m0)
              for (m0, r0), (m1, r1) in zip(curve.corners, curve.corners[1:])]
    return max(values, default=curve.corners[0][1])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(curves_with_grids())
def test_values_walk_matches_max_of_segment_lines(case):
    curve, grid = case
    expected = [_max_of_segment_lines(curve, m) for m in grid]
    assert curve.values(grid) == expected
    assert [curve(m) for m in grid] == expected


_ZIGZAG = lower_convex_envelope([(0, 6), (1, 3), (2, 1), (4, 0)])


@pytest.mark.parametrize(
    "grid,message",
    [
        ([Fraction(3), Fraction(1)], "must ascend"),
        ([1, 2, 2, Fraction(3, 2), 4], "must ascend"),
        # past the last corner in the middle, then back inside: refused,
        # never extrapolated
        ([0, 5, 4], "must ascend"),
        ([Fraction(-1, 2), 1], r"M=-1/2 outside curve domain \[0, 4\]"),
        ([1, 3, Fraction(9, 2)], r"M=9/2 outside curve domain \[0, 4\]"),
    ],
)
def test_values_refuses_descending_or_outside_grids(grid, message):
    with pytest.raises(ValueError, match=message):
        _ZIGZAG.values(grid)


def test_call_refuses_points_outside_the_domain():
    with pytest.raises(ValueError, match=r"M=5 outside curve domain \[0, 4\]"):
        _ZIGZAG(5)
    with pytest.raises(ValueError, match=r"M=-1 outside curve domain"):
        _ZIGZAG(-1)
    assert _ZIGZAG.values([]) == []


def test_float_m_reads_exactly_and_gives_fractions():
    # the envelope of (0, 2), (1, 1/2), (2, 0) is 5/4 at M = 1/2
    curve = lower_convex_envelope([(0, 2), (1, Fraction(1, 2)), (2, 0)])
    assert curve(0.5) == curve(Fraction(1, 2)) == Fraction(5, 4)
    assert type(curve(0.5)) is Fraction
    assert curve.values([0.5, 1, 1.75]) == [Fraction(5, 4), Fraction(1, 2), Fraction(1, 8)]
    assert all(type(r) is Fraction for r in curve.values([0.5, 1, 1.75]))
    b = bounds.named_curve("schemeB", 2, 4)
    assert b(2.5) == b(Fraction(5, 2)) and type(b(2.5)) is Fraction
    with pytest.raises(ValueError, match="outside curve domain"):
        curve(float("nan"))


def test_float_line_coefficients_give_the_fraction_envelope():
    twins = [(Fraction(-3, 2), Fraction(3)), (Fraction(-1, 4), Fraction(7, 4)),
             (Fraction(-1, 16), Fraction(9, 8)), (Fraction(0), Fraction(1, 8))]
    exact = [Line(s, c, f"l{i}") for i, (s, c) in enumerate(twins)]
    floats = [Line(float(s), float(c), f"l{i}") for i, (s, c) in enumerate(twins)]
    for lo, hi in ((0, 4), (Fraction(1, 2), Fraction(7, 2))):
        assert upper_envelope_of_lines(floats, float(lo), float(hi)) == upper_envelope_of_lines(exact, lo, hi)
    for line, twin in zip(floats, exact):
        assert line(Fraction(1, 3)) == twin(Fraction(1, 3)) and type(line(Fraction(1, 3))) is Fraction


_GRID_ENDS = st.one_of(st.integers(-20, 40), st.fractions(-20, 40, max_denominator=60))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_GRID_ENDS, _GRID_ENDS, st.integers(0, 300))
def test_even_grid_matches_fraction_arithmetic(lo, hi, count):
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    expected = [lo_f + (hi_f - lo_f) * Fraction(j, count + 1) for j in range(1, count + 1)]
    grid = even_grid(lo, hi, count)
    assert grid == expected
    assert all(type(m) is Fraction for m in grid)
