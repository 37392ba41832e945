import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from d2dpc import bounds, scheme_a, scheme_b
from d2dpc.bounds import (
    _K_USER_TAGS,
    _TWO_USER_TAGS,
    _converse_lines,
    converse_k_user_curve,
    converse_two_user_curve,
    default_gap_grid,
    gap,
    gap_grid,
    load_c_points,
    man_points,
    scheme_c_curve,
    shared_link_nonprivate_envelope,
)
from d2dpc.combinat import Line, binom, curve_max, even_grid, lower_convex_envelope, shared_domain
from d2dpc.scheme_a import scheme_a_curve
from d2dpc.scheme_b import SchemeBParams, scheme_b_curve
from oracles import (
    _converse_terms,
    _eq6_rhs,
    _eq7_rhs,
    converse_k_user,
    converse_two_user,
    converse_two_user_corners,
    gap_by_division,
    scheme_a_within_three_of_shared_link,
)


def test_two_user_at_half_library():
    assert converse_two_user(8, 4) == 8


def test_two_user_at_three_quarters():
    for N in (2, 3, 5, 8, 13):
        assert converse_two_user(N, Fraction(3 * N, 4)) == Fraction(1, 2)


def test_two_user_example_point():
    assert converse_two_user(2, Fraction(6, 5)) == Fraction(7, 5)


def test_two_user_domain():
    with pytest.raises(ValueError):
        converse_two_user(4, 1)
    with pytest.raises(ValueError):
        converse_two_user(4, 5)


def test_corner_formulas():
    for N in (2, 3, 4, 8, 11):
        curve = converse_two_user_corners(N)
        assert curve.corners[0] == (Fraction(N, 2), Fraction(N))
        assert curve.corners[-1] == (Fraction(N), 0)
        assert (Fraction(3 * N, 4), Fraction(1, 2)) in curve.corners
        if N >= 3:
            assert (Fraction(N + 1, 2), Fraction(N - 1, 2)) in curve.corners
            assert (Fraction(2 * N, 3), Fraction(1)) in curve.corners


def test_two_user_paths_agree():
    # three independent constructions: direct max, line envelope, corners
    rng = random.Random(13)
    for N in range(2, 13):
        corners = converse_two_user_corners(N)
        lines = converse_two_user_curve(N)
        for _ in range(100):
            M = Fraction(N, 2) + Fraction(rng.randrange(1001), 1000) * Fraction(N, 2)
            v = converse_two_user(N, M)
            assert corners(M) == v
            assert lines(M) == v


def test_two_user_curve_corners_match_corner_formula():
    # the line envelope and the closed-form corner list give the same
    # corners; their provenance tags follow different naming conventions
    for N in range(2, 65):
        assert converse_two_user_curve(N).corners == converse_two_user_corners(N).corners


@pytest.mark.parametrize(
    "build", [converse_two_user_curve, converse_two_user_corners, scheme_b_curve]
)
def test_two_user_curves_need_two_files(build):
    for N in (1, 0):
        with pytest.raises(ValueError, match="need N >= 2"):
            build(N)


def test_two_user_non_increasing():
    for N in (2, 5, 9):
        vals = [converse_two_user(N, m) for m in even_grid(Fraction(N, 2), N, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_k_user_values():
    assert converse_k_user(4, 8, 2) == 8
    assert converse_k_user(3, 6, 2) == 3
    # y = N/2 boundary: the bound vanishes
    assert converse_k_user(4, 8, 4) == 0
    # beyond the parametrised range the bound is trivially zero
    assert converse_k_user(3, 6, 5) == 0
    with pytest.raises(ValueError):
        converse_k_user(2, 8, 4)
    with pytest.raises(ValueError):
        converse_k_user(3, 6, 7)


def test_k_user_reduces_to_two_user_at_k2():
    # with the floor/ceiling prefactors equal to one, the general-K
    # expressions specialise exactly to the two-user ones
    for N in (2, 4, 7):
        for y_num in range(0, 2 * N + 1):
            y = Fraction(y_num, 4)
            if y > Fraction(N, 2):
                continue
            assert _eq6_rhs(N, y, 2) == 2 * (1 - 3 * y / N)
            assert _eq7_rhs(N, y, 2) == 2 * (Fraction(1, 2) - y / N)
    # the K = 2 family's lines pass through the closed-form two-user
    # corners: eq. (5)(h) through corners h and h + 1, eq. (6) through
    # N - 2 and N - 1, eq. (7) through N - 1 and N
    for N in range(2, 41):
        corners = converse_two_user_corners(N).corners
        lines = {line.tag: line for line in _converse_lines(2, N, _TWO_USER_TAGS)}
        through = {f"two-user-eq5(h={h})": (h, h + 1) for h in range(N - 2)}
        through.update({"two-user-eq6": (N - 2, N - 1), "two-user-eq7": (N - 1, N)})
        assert set(lines) == set(through) | {"clamp-zero"}
        for tag, ends in through.items():
            for j in ends:
                m, r = corners[j]
                assert lines[tag](m) == r, (N, tag, j)


def _line_through(m0: Fraction, r0: Fraction, m1: Fraction, r1: Fraction, tag: str) -> Line:
    slope = (r1 - r0) / (m1 - m0)
    return Line(slope, r0 - slope * m0, tag)


def test_converse_lines_match_paper_form():
    # each closed-form line runs through its paper-form term at both ends
    # of y in [0, N/2], that is M = N/K and M = 2N/K: same slope, intercept,
    # tag and order, at K = 2..12, N <= 70, and at the piece cap's largest
    # instances, conv2u at N = 999 and convKu at (3, 1498)
    box = [(K, N) for K in range(2, 13) for N in range(max(2, K), 71)]
    for K, N in box + [(2, 999), (3, 1498)]:
        tags = _TWO_USER_TAGS if K == 2 else _K_USER_TAGS
        lo, hi = Fraction(N, K), Fraction(2 * N, K)
        expected = [Line(Fraction(0), Fraction(0), "clamp-zero")] + [
            _line_through(lo, f(Fraction(0)), hi, f(Fraction(N, 2)), tag)
            for tag, f in _converse_terms(K, N, tags)
        ]
        assert _converse_lines(K, N, tags) == expected, (K, N)


def test_k_user_curve_matches_pointwise():
    for K, N in [(3, 6), (4, 8), (5, 25)]:
        curve = converse_k_user_curve(K, N)
        for M in even_grid(Fraction(N, K), Fraction(N), 60):
            assert curve(M) == converse_k_user(K, N, M)


def test_shared_link_points():
    assert (4, Fraction(1, 2)) in man_points(2, 8)  # t = 1
    assert man_points(3, 5)[-1] == (5, 0)  # t = K
    env = shared_link_nonprivate_envelope(2, 8, Fraction(1, 2))
    assert env(4) == Fraction(1, 4)


def t2_first_segment(K: int, N: int) -> int:
    """Largest corner index governing the first envelope segment, N < K."""
    return (2 * K - N + 1) // (N + 1)


def test_shared_link_low_memory_anchor_when_n_small():
    env = shared_link_nonprivate_envelope(8, 4, Fraction(1))
    assert env(0) == 4  # (0, N) joins the envelope for N < K
    # corner t=1 lies above the first chord, consistent with t2 = 2
    assert t2_first_segment(8, 4) == 2
    assert env(Fraction(1, 2)) < Fraction(8 - 1, 2)


def test_t2_value():
    assert t2_first_segment(4, 2) == 2


def test_scheme_c_points():
    pts = load_c_points(2, 8)
    assert pts[0] == (4, 8)  # corrected low-memory anchor (N/K, N)
    assert (Fraction(9, 2), 1) in pts  # t = 1 for K = 2
    assert pts[-1] == (8, 0)  # t = K


def test_scheme_c_general_t2_point():
    for N in (3, 6, 10):
        pts = load_c_points(2, N)
        assert (Fraction(N + 1, 2), 1) in pts


def test_scheme_c_points_match_the_closed_form():
    # the one-walk loads against the per-t formula, N > K - 1 included,
    # where every binom(K - 1 - N, t) is 0
    for K in range(2, 41):
        for N in range(1, 61):
            expected = [(Fraction(N, K), Fraction(N))] + [
                (Fraction(t * (N - 1), K) + 1,
                 Fraction(binom(K - 1, t) - binom(K - 1 - N, t), binom(K - 1, t - 1)))
                for t in range(1, K + 1)
            ]
            assert load_c_points(K, N) == expected, (K, N)


def test_gap_identical_curves():
    c = scheme_b_curve(4)
    report = gap(c, c)
    assert report.max_ratio == 1
    assert report.skipped == [Fraction(4)]  # the zero-load endpoint


@pytest.mark.parametrize("density", [16, 64, 256])
def test_gap_unbounded_where_converse_vanishes_first(density):
    # the K-user converse reaches zero at 2N/K = 2 while scheme A is still
    # at 3/4: the ratio grows without bound as M approaches 2, so no grid
    # may report a finite maximum (it used to grow with the grid)
    achievable, converse = scheme_a_curve(3, 3), converse_k_user_curve(3, 3)
    lo, hi = converse.min_m, Fraction(3)
    report = gap(achievable, converse, gap_grid(achievable, converse, lo, hi, density))
    assert report.max_ratio is None
    assert report.argmax_m == 2 and achievable(2) == Fraction(3, 4)
    assert report.skipped == [Fraction(3)]  # both loads zero at M = N


def test_gap_grid_holds_corners_even_points_and_ends():
    achievable, converse = scheme_b_curve(8), converse_two_user_curve(8)
    lo, hi = Fraction(5), Fraction(7)
    grid = gap_grid(achievable, converse, lo, hi, 4)
    corners = {m for m in achievable.corner_ms() + converse.corner_ms() if lo <= m <= hi}
    assert grid == sorted(corners | set(even_grid(lo, hi, 4)) | {lo, hi})
    assert default_gap_grid(achievable, converse) == gap_grid(
        achievable, converse, Fraction(4), Fraction(8), 64
    )


def test_gap_two_user_optimal_cases():
    for N in (2, 3):
        report = gap(scheme_b_curve(N), converse_two_user_curve(N))
        assert report.max_ratio == 1


def test_gap_n8_value():
    report = gap(scheme_b_curve(8), converse_two_user_curve(8))
    assert report.max_ratio <= 3
    assert report.max_ratio == Fraction(6, 5)
    assert Fraction(9, 2) < report.argmax_m < 6


def _gap_or_error(gap_fn, achievable, converse, grid):
    try:
        return gap_fn(achievable, converse, grid)
    except ValueError as err:
        return str(err)


_M_POINTS = st.builds(Fraction, st.integers(0, 16), st.integers(1, 2))
_LOADS = st.builds(Fraction, st.integers(-4, 12).map(lambda n: max(n, 0)), st.integers(1, 3))


@st.composite
def _convex_curves(draw):
    """The lower envelope of 1 to 6 points on a small rational grid, loads
    sorted downward against M, 0 drawn often."""
    pts = draw(st.lists(st.tuples(_M_POINTS, _LOADS), min_size=1, max_size=6, unique_by=lambda p: p[0]))
    ms = sorted(m for m, _ in pts)
    rs = sorted((r for _, r in pts), reverse=True)
    return lower_convex_envelope(zip(ms, rs))


@st.composite
def _gap_cases(draw):
    """An achievable curve; a converse drawn on its own or the achievable
    one scaled (a tie at every point where both are positive); and an
    ascending grid in both domains, corners, rationals between and
    repeats."""
    achievable = draw(_convex_curves())
    if draw(st.booleans()):
        converse = draw(_convex_curves())
    else:
        scale = draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 4)))
        converse = lower_convex_envelope([(m, r * scale) for m, r in achievable.corners])
    lo, hi = max(achievable.min_m, converse.min_m), min(achievable.max_m, converse.max_m)
    assume(lo <= hi)
    corners = [m for m in achievable.corner_ms() + converse.corner_ms() if lo <= m <= hi]  # lo among them
    point = st.one_of(st.sampled_from(corners), st.fractions(lo, hi, max_denominator=12))
    return achievable, converse, sorted(draw(st.lists(point, min_size=1, max_size=12)))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_gap_cases())
def test_gap_matches_division_oracle(case):
    # max_ratio, argmax_m (the first maximum), skipped and grid_size, or
    # the same refusal when no point has a positive finite ratio
    assert _gap_or_error(gap, *case) == _gap_or_error(gap_by_division, *case)


@pytest.mark.parametrize(
    "achievable,converse,grid,expected",
    [
        # ties at the maximum 2 everywhere; M = 2 is 0/0, so skipped
        (lower_convex_envelope([(0, 4), (2, 0)]), lower_convex_envelope([(0, 2), (2, 0)]),
         [0, 1, 2], (2, 0, [2])),
        # the converse reaches 0 at M = 2 first: unbounded there, the 0/0
        # point after it still skipped
        (lower_convex_envelope([(0, 6), (4, 0)]), lower_convex_envelope([(0, 2), (2, 0), (4, 0)]),
         [0, 1, 2, 3, 4], (None, 2, [4])),
        # ratios 1 then 3/2: the later, larger one wins
        (lower_convex_envelope([(0, 2), (4, 1)]), lower_convex_envelope([(0, 2), (4, 0)]),
         [0, 2], (Fraction(3, 2), 2, [])),
    ],
)
def test_gap_cases_match_division_oracle(achievable, converse, grid, expected):
    grid = [Fraction(m) for m in grid]
    report = gap(achievable, converse, grid)
    assert report == gap_by_division(achievable, converse, grid)
    assert (report.max_ratio, report.argmax_m, report.skipped) == expected
    assert report.grid_size == len(grid)


def test_gap_refuses_where_no_ratio_is_positive():
    # an achievable load of 0 over a positive converse, and an empty grid
    zero, one = lower_convex_envelope([(0, 0), (2, 0)]), lower_convex_envelope([(0, 1), (2, 1)])
    for grid in ([Fraction(0), Fraction(1)], []):
        for gap_fn in (gap, gap_by_division):
            with pytest.raises(ValueError, match="converse was zero on the whole grid"):
                gap_fn(zero, one, grid)


def test_two_user_worst_gap_closed_form():
    # on the corner-only grid the worst ratio of scheme B to the two-user
    # converse is 4(N'+1)/(3(N'+2)) with N' = 2*floor(N/2): it rises with
    # N, below 4/3 and tending to it, so 14/11 (N = 20, 21) is no bound
    for N in range(2, 61):
        achievable, converse = scheme_b_curve(N), converse_two_user_curve(N)
        lo, hi = Fraction(N, 2), Fraction(N)
        assert shared_domain(achievable, converse) == (lo, hi)
        report = gap(achievable, converse, gap_grid(achievable, converse, lo, hi, 0))
        even = 2 * (N // 2)
        assert report.max_ratio == Fraction(4 * (even + 1), 3 * (even + 2)), N


def test_shared_link_gap_at_most_twelve_for_every_n_below_k():
    # scheme A against the factor-4 shared-link reference from M = N/K, on
    # the gap grid, for all 105 pairs K = 3..16, N = 2..K-1: the worst
    # ratio is exactly 8, reached at M = N/K when N = K - 1 and only there
    worst = {}
    for K in range(3, 17):
        for N in range(2, K):
            ach = scheme_a_curve(K, N)
            conv = shared_link_nonprivate_envelope(K, N, Fraction(1, 4))
            report = gap(ach, conv, gap_grid(ach, conv, Fraction(N, K), Fraction(N), 64))
            assert report.max_ratio <= 12, (K, N, report.max_ratio)
            worst[K, N] = report.max_ratio, report.argmax_m
    assert len(worst) == 105
    assert max(ratio for ratio, _ in worst.values()) == 8
    assert {key: m for key, (ratio, m) in worst.items() if ratio == 8} == {
        (K, K - 1): Fraction(K - 1, K) for K in range(3, 17)
    }


def test_shared_link_gap_within_six_from_twice_the_memory_floor():
    # scheme A against the factor-4 shared-link reference from M = 2N/K, on
    # the gap grid at density 64, for the same 105 pairs K = 3..16,
    # N = 2..K-1: the ratio stays within 6 at exactly 55 pairs, for each K
    # every N up to a largest one (none at K = 3, 4), and the worst ratio
    # is exactly 8, at (3, 2) with M = 4/3 and only there
    within, worst = {}, {}
    for K in range(3, 17):
        for N in range(2, K):
            ach = scheme_a_curve(K, N)
            conv = shared_link_nonprivate_envelope(K, N, Fraction(1, 4))
            report = gap(ach, conv, gap_grid(ach, conv, Fraction(2 * N, K), Fraction(N), 64))
            worst[K, N] = report.max_ratio, report.argmax_m
            if report.max_ratio <= 6:
                within.setdefault(K, []).append(N)
    largest = dict(zip(range(5, 17), [2, 2, 3, 4, 5, 5, 6, 7, 7, 8, 9, 9]))
    assert within == {K: list(range(2, n + 1)) for K, n in largest.items()}
    assert sum(map(len, within.values())) == 55 and len(worst) == 105
    top = max(ratio for ratio, _ in worst.values())
    assert top == 8
    assert {key: m for key, (ratio, m) in worst.items() if ratio == top} == {(3, 2): Fraction(4, 3)}


def test_scheme_a_within_three_of_shared_link():
    assert scheme_a_within_three_of_shared_link(3, 2)
    assert scheme_a_within_three_of_shared_link(10, 40)
    assert scheme_a_within_three_of_shared_link(2, 5) and scheme_a_within_three_of_shared_link(2, 17)
    assert scheme_a_within_three_of_shared_link(7, 13)


def test_coded_placement_gain_unbounded():
    # at M = (N+1)/2 the uncoded converse sits at (N-1)/2 while the
    # coded-placement curve reaches 1: the ratio grows linearly in N
    for N in (4, 8, 16, 32):
        M = Fraction(N + 1, 2)
        assert converse_two_user(N, M) == Fraction(N - 1, 2)
        assert scheme_c_curve(2, N)(M) == 1


def _enveloped_counts(monkeypatch, build, K, N) -> list[int]:
    """How many points or lines each envelope call of ``build(K, N)`` takes."""
    counts = []
    for module, name in ((bounds, "upper_envelope_of_lines"), (bounds, "lower_convex_envelope"),
                         (scheme_a, "lower_convex_envelope"), (scheme_b, "lower_convex_envelope")):
        def counted(items, *args, _envelope=getattr(module, name), **kwargs):
            counts.append(len(items))
            return _envelope(items, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    try:
        build(K, N)
    finally:
        monkeypatch.undo()
    return counts


def test_curve_pieces_count_what_is_built(monkeypatch):
    # each table entry's closed-form count is the length of what its
    # builder envelopes, wherever the curve is defined
    defined = {}
    for which, curve in bounds.CURVES.items():
        for K, N in itertools.product(range(1, 9), range(1, 13)):
            if curve.fixed_K not in (None, K):
                continue
            try:
                counts = _enveloped_counts(monkeypatch, curve.build, K, N)
            except ValueError:
                continue
            assert counts == [curve.pieces(K, N)], (which, K, N)
            defined[which] = defined.get(which, 0) + 1
    assert defined == {"schemeA": 96, "schemeB": 11, "schemeC": 96, "conv2u": 11, "convKu": 45,
                       "sharedlink": 96, "sharedlink-uncoded": 96}


def test_named_curve_refuses_too_many_pieces():
    assert bounds.CURVES["conv2u"].pieces(2, 999) == bounds.MAX_CURVE_PIECES
    with pytest.raises(ValueError, match="1001 pieces"):
        bounds.named_curve("conv2u", 2, 1000)


def test_named_curve_registry():
    assert bounds.named_curve("schemeA", 3, 5).min_m == Fraction(5, 3)
    assert bounds.named_curve("conv2u", 2, 4)(2) == 4
    with pytest.raises(ValueError):
        bounds.named_curve("convKu", 4, 3)  # needs N >= K
    with pytest.raises(ValueError, match="schemeB is defined for K = 2"):
        bounds.named_curve("schemeB", 3, 4)
    with pytest.raises(ValueError, match="conv2u is defined for K = 2"):
        bounds.named_curve("conv2u", 3, 4)
    with pytest.raises(ValueError, match="unknown curve 'nope'"):
        bounds.named_curve("nope", 2, 4)


def test_curve_table_names_and_achievable_subset():
    # the order is the command line's
    assert list(bounds.CURVES) == ["schemeA", "schemeB", "schemeC", "conv2u", "convKu",
                                   "sharedlink", "sharedlink-uncoded"]
    assert [name for name, c in bounds.CURVES.items() if c.achievable] == ["schemeA", "schemeB", "schemeC"]
    assert bounds.CURVES["schemeB"].fixed_K == SchemeBParams.fixed_K == 2


def test_k_user_tighter_than_shared_link_at_small_memory():
    # at M = N/K the colluding converse reaches the full library size
    # while the uncoded shared-link curve starts much lower
    K, N = 10, 40
    ku = converse_k_user_curve(K, N)
    sl = shared_link_nonprivate_envelope(K, N, Fraction(1))
    assert ku(Fraction(N, K)) == N
    assert ku(Fraction(N, K)) > sl(Fraction(N, K))
    assert ku(5) > sl(5)


def test_curve_max_combines_converses():
    K, N = 4, 8
    combo = curve_max(
        converse_k_user_curve(K, N),
        shared_link_nonprivate_envelope(K, N, Fraction(1, 2)),
    )
    for M in even_grid(Fraction(N, K), N, 40):
        assert combo(M) == max(
            converse_k_user(K, N, M),
            shared_link_nonprivate_envelope(K, N, Fraction(1, 2))(M),
        )


def _converse_against(converse, achievable):
    """(points checked, the points (M, R) where the converse meets a
    positive achievable load), both over the corners of either curve in their
    shared domain and its ends; a converse above the achievable load at
    any of them fails.  Both curves are piecewise linear, so these points
    decide the order on the whole shared domain."""
    lo, hi = shared_domain(converse, achievable)
    ms = {m for m in converse.corner_ms() + achievable.corner_ms() if lo <= m <= hi} | {lo, hi}
    meets = set()
    for m in ms:
        c, a = converse(m), achievable(m)
        assert c <= a, (m, c, a)
        if c == a > 0:
            meets.add((m, a))
    return len(ms), meets


def test_converses_never_exceed_an_uncoded_achievable_load():
    # a converse transcribed too strong would show here: at every corner
    # in the shared domain it stays at or below schemes A and B (scheme C
    # uses coded placement, which an uncoded converse does not bound)
    checked, tight = 0, set()
    for N in range(2, 41):
        for achievable in (scheme_a_curve(2, N), scheme_b_curve(N)):
            checked += _converse_against(converse_two_user_curve(N), achievable)[0]
    for K in range(3, 9):
        for N in range(K, 3 * K + 1):
            n, meets = _converse_against(converse_k_user_curve(K, N), scheme_a_curve(K, N))
            checked += n
            tight |= {(K, N, m, r) for m, r in meets}
    assert checked == 7_939
    # besides M = N, where both vanish, scheme A meets the K-user
    # converse only at its t = 1 corner (N/K, N), and there only for
    # even K with 2N/K an integer
    assert tight == {(K, N, Fraction(N, K), N) for K in (4, 6, 8)
                     for N in (K, 3 * K // 2, 2 * K, 5 * K // 2, 3 * K)}


# max ratio and its M of scheme A against max(convKu, sharedlink / 2)
# on the default gap grid, for K = 3..8 and N = K..3K; the worst is
# about 7.18, at (7, 21)
K_USER_GAPS = {
    (3, 3): ("212/45", "8/5"),
    (3, 4): ("75/14", "32/15"),
    (3, 5): ("205/36", "8/3"),
    (3, 6): ("1004/165", "16/5"),
    (3, 7): ("2692/429", "56/15"),
    (3, 8): ("1258/195", "64/15"),
    (3, 9): ("30616/4641", "24/5"),
    (4, 4): ("736/165", "2"),
    (4, 5): ("2523/520", "85/38"),
    (4, 6): ("353/68", "51/19"),
    (4, 7): ("98281/18088", "119/38"),
    (4, 8): ("548791/97888", "68/19"),
    (4, 9): ("12377/2160", "153/38"),
    (4, 10): ("16818229/2881440", "85/19"),
    (4, 11): ("249461153/42073200", "187/38"),
    (4, 12): ("830261/138446", "102/19"),
    (5, 5): ("833/190", "11/7"),
    (5, 6): ("6207/1265", "66/35"),
    (5, 7): ("8659/1625", "11/5"),
    (5, 8): ("256939/44950", "88/35"),
    (5, 9): ("26143/4340", "99/35"),
    (5, 10): ("371977/59052", "22/7"),
    (5, 11): ("398004427/60964540", "121/35"),
    (5, 12): ("6248031/929660", "132/35"),
    (5, 13): ("39139223/5675250", "143/35"),
    (5, 14): ("921794/131175", "22/5"),
    (5, 15): ("29243449/4080735", "33/7"),
    (6, 6): ("281616/65975", "2"),
    (6, 7): ("8967383/1947792", "175/87"),
    (6, 8): ("37834481/7676760", "200/87"),
    (6, 9): ("3816757/733408", "75/29"),
    (6, 10): ("5092064371/937097280", "250/87"),
    (6, 11): ("574920299/102173400", "275/87"),
    (6, 12): ("359891627/62027172", "100/29"),
    (6, 13): ("29249119281/4917961520", "325/87"),
    (6, 14): ("1217627891/200688048", "350/87"),
    (6, 15): ("1445010585035/234051135912", "125/29"),
    (6, 16): ("17038341807379/2717893674600", "400/87"),
    (6, 17): ("11323352254882/1784098306809", "425/87"),
    (6, 18): ("3408256698876049/531683521259220", "150/29"),
    (7, 7): ("18898873/4496388", "2"),
    (7, 8): ("85917914/18728325", "592/329"),
    (7, 9): ("806699/163611", "666/329"),
    (7, 10): ("3579308/682689", "740/329"),
    (7, 11): ("8188993/1482544", "814/329"),
    (7, 12): ("526150538/91139363", "888/329"),
    (7, 13): ("909679067653/151502925420", "962/329"),
    (7, 14): ("4278146146/689566905", "148/47"),
    (7, 15): ("13946320561736/2181073985475", "1110/329"),
    (7, 16): ("3276156329951/499490670525", "1184/329"),
    (7, 17): ("921960922802/137389454125", "1258/329"),
    (7, 18): ("891674886738044/130214970550665", "1332/329"),
    (7, 19): ("10482067639998281/1504453723237080", "1406/329"),
    (7, 20): ("128156465592448/18094152562395", "1480/329"),
    (7, 21): ("371319451865741/51723144297825", "222/47"),
    (8, 8): ("107252032/25827165", "2"),
    (8, 9): ("30433107813/6885146128", "99/52"),
    (8, 10): ("168467825/35899136", "55/26"),
    (8, 11): ("1657560983/335415360", "121/52"),
    (8, 12): ("13290674429/2574383112", "33/13"),
    (8, 13): ("16781110541/3131940260", "11/4"),
    (8, 14): ("448794093049/81004129640", "77/26"),
    (8, 15): ("147063037691231/25793915923776", "165/52"),
    (8, 16): ("6072878066154727/1039271690747472", "44/13"),
    (8, 17): ("969139797129/162188482352", "187/52"),
    (8, 18): ("7444350957429681/1221651408177200", "99/26"),
    (8, 19): ("1397505689146379369/225498421147137600", "209/52"),
    (8, 20): ("25731780059831659/4089136954430080", "55/13"),
    (8, 21): ("29745586151203/4662088312215", "231/52"),
    (8, 22): ("10692419304644221129501/1656019234280799299968", "121/26"),
    (8, 23): ("27793455244824963269/4259370162252870784", "253/52"),
    (8, 24): ("3016910883745094011/457746654681542268", "66/13"),
}


def test_k_user_gap_sweep_pinned():
    found = {}
    for K in range(3, 9):
        for N in range(K, 3 * K + 1):
            conv = curve_max(
                converse_k_user_curve(K, N),
                shared_link_nonprivate_envelope(K, N, Fraction(1, 2)),
            )
            report = gap(scheme_a_curve(K, N), conv)
            found[(K, N)] = (str(report.max_ratio), str(report.argmax_m))
    assert found == K_USER_GAPS
