import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d2dpc import bounds
from d2dpc.combinat import (
    Line,
    TradeoffCurve,
    binom,
    curve_max,
    lex_subsets,
    lower_convex_envelope,
    upper_envelope_of_lines,
)
from d2dpc.core import SeededSource


def test_binom_basic():
    assert binom(4, 2) == 6


def test_binom_zero_convention():
    # out-of-range binomials are zero by convention, the load formulas
    # rely on this at the edges
    assert binom(2, 3) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


def test_lex_subsets():
    assert lex_subsets([1, 2, 3], 2) == [(1, 2), (1, 3), (2, 3)]
    assert lex_subsets([2, 3, 4, 5], 1) == [(2,), (3,), (4,), (5,)]
    assert lex_subsets([1, 2, 3, 4], 0) == [()]
    assert lex_subsets([3, 1, 2], 2) == [(1, 2), (1, 3), (2, 3)]  # ground sorted


def test_lex_subsets_count_matches_binom():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(0, 12)
        ground = rng.sample(range(1, 40), n)
        k = rng.randint(0, n)
        assert len(lex_subsets(ground, k)) == binom(n, k)


def test_uniform_permutation_chi_square():
    # 6*10^4 samples of S_3 from the shuffle every scheme's placement and
    # delivery draw with, one label per sample: every permutation within
    # 3 sigma of 1/6
    from collections import Counter

    source = SeededSource(12)
    counts = Counter(
        tuple(source.permutation(("chi", n), [1, 2, 3])) for n in range(60_000)
    )
    assert len(counts) == 6
    sigma = (60_000 * (1 / 6) * (5 / 6)) ** 0.5
    for c in counts.values():
        assert abs(c - 10_000) <= 3 * sigma


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


def test_curve_max():
    a = lower_convex_envelope([(0, 4), (4, 0)])
    b = lower_convex_envelope([(0, 2), (4, 2)])
    m = curve_max(a, b)
    assert m(0) == 4
    assert m(2) == 2
    assert m(3) == 2
    assert m(1) == 3
    assert (Fraction(2), Fraction(2)) in m.corners
