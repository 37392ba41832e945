"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line printed per criterion (run with ``pytest -s`` to see them,
or read the captured output on failure)."""

import itertools
from fractions import Fraction

from d2dpc import scheme_a, scheme_b, sim, verify
from d2dpc.bounds import (
    converse_k_user_curve,
    converse_two_user,
    converse_two_user_curve,
    gap,
    gap_grid,
    load_c_points,
    scheme_c_curve,
    shared_link_nonprivate_envelope,
)
from d2dpc.combinat import curve_max, even_grid
from d2dpc.scheme_a import load_a_point, scheme_a_curve
from d2dpc.scheme_b import load_b_point, scheme_b_curve
from oracles import converse_two_user_corners


def _ok(n, text):
    print(f"ACCEPT-{n:02d} PASS: {text}")


def test_accept_01_example_optimum():
    M = Fraction(6, 5)
    a = scheme_a_curve(2, 2)(M)
    b = scheme_b_curve(2)(M)
    c = converse_two_user(2, M)
    assert a == b == c == Fraction(7, 5)
    _ok(1, "at (K,N,M)=(2,2,6/5) both schemes and the converse equal 7/5 exactly")


def test_accept_02_two_user_three_file_example():
    assert load_b_point(3, 2) == (Fraction(9, 4), Fraction(1, 2))
    assert load_a_point(2, 3, 2) == (Fraction(2), Fraction(1))
    assert load_a_point(2, 3, 3) == (Fraction(5, 2), Fraction(1, 3))
    assert scheme_a_curve(2, 3)(Fraction(9, 4)) == Fraction(2, 3)
    _ok(2, "scheme B hits (9/4,1/2); scheme A hits (2,1),(5/2,1/3) and memory-shares to 2/3")


def test_accept_03_two_user_optimality_small_n():
    for N in (2, 3):
        curve_b = scheme_b_curve(N)
        conv = converse_two_user_curve(N)
        for m, r in curve_b.corners:
            assert conv(m) == r
        lo, hi = Fraction(N, 2), Fraction(N)
        for j in range(200):
            M = lo + (hi - lo) * Fraction(j, 199)
            assert curve_b(M) == conv(M), (N, M)
    _ok(3, "K=2, N in {2,3}: scheme B equals the converse at corners and on 200-point grids")


def test_accept_04_two_user_optimal_segments_and_gap():
    worst = Fraction(0)
    for N in range(4, 21):
        curve_b = scheme_b_curve(N)
        conv = converse_two_user_curve(N)
        seg1 = (Fraction(N, 2), Fraction(N + 1, 2))
        seg2 = (Fraction(N * (3 * N - 5), 2 * (2 * N - 3)), Fraction(N))
        for lo, hi in (seg1, seg2):
            for M in [lo, hi] + even_grid(lo, hi, 20):
                assert curve_b(M) == conv(M), (N, M)
        report = gap(curve_b, conv)
        assert report.max_ratio <= 3
        worst = max(worst, report.max_ratio)
    assert worst <= Fraction(4, 3)  # the numerically suggested constant
    _ok(4, f"N=4..20: scheme B optimal on both stated segments; max gap {worst} <= 4/3 <= 3")


def test_accept_05_scheme_b_dominates():
    for N in range(2, 31):
        curve_a = scheme_a_curve(2, N)
        curve_b = scheme_b_curve(N)
        for M in sorted(set(curve_a.corner_ms()) | set(curve_b.corner_ms())):
            assert curve_b(M) <= curve_a(M), (N, M)
        for t in range(1, N + 1):
            tp = t - 1
            alpha = Fraction((N + tp - 1) * (N - tp), N * (N - 1))
            Mb, Rb = load_b_point(N, tp)
            assert alpha * Mb + (1 - alpha) * N == load_a_point(2, N, t)[0]
            assert alpha * Rb == load_a_point(2, N, t)[1]
    _ok(5, "N<=30: scheme B envelope dominates scheme A and the chord identity is exact")


def test_accept_06_k_user_gap():
    results = []
    for K, N in [(3, 6), (4, 8), (5, 25), (10, 40)]:
        conv = curve_max(
            converse_k_user_curve(K, N),
            shared_link_nonprivate_envelope(K, N, Fraction(1, 2)),
        )
        report = gap(scheme_a_curve(K, N), conv)
        assert report.max_ratio <= 18, (K, N, report.max_ratio)
        results.append(f"({K},{N})={float(report.max_ratio):.2f}")
    _ok(6, "colluding-converse gap <= 18: " + " ".join(results))


def test_accept_07_shared_link_gap():
    # N < K for both pairs, so the shared-link reference is scaled by
    # its factor-4 constant and anchored at (0, N); ratio <= 6 above
    # 2N/K and <= 12 from N/K up
    results = []
    for K, N, lo, bound in [
        (40, 10, Fraction(2 * 10, 40), 6),
        (8, 4, Fraction(4, 8), 12),
    ]:
        ach = scheme_a_curve(K, N)
        conv = shared_link_nonprivate_envelope(K, N, Fraction(1, 4))
        report = gap(ach, conv, gap_grid(ach, conv, lo, Fraction(N), 64))
        assert report.max_ratio <= bound, (K, N, report.max_ratio)
        results.append(f"({K},{N})={float(report.max_ratio):.2f}<={bound}")
    _ok(7, "shared-link-scaled gap: " + " ".join(results))


def test_accept_08_bit_exact_decodability():
    checked = 0
    for K, N, ts in [(2, 2, range(1, 4)), (2, 3, range(1, 5)), (3, 2, range(1, 4))]:
        for t in ts:
            p = scheme_a.params_for(K, N, t, seed=K * 31 + N * 7 + t)
            expected = load_a_point(K, N, t)[1]
            for d in itertools.product(range(1, N + 1), repeat=K):
                tr = sim.run_protocol("A", p, d)
                assert sim.measure_load(tr) == expected
                assert all(verify.check_decodability(tr).values()), ("A", K, N, t, d)
                checked += 1
    for N in (2, 3, 4):
        for tp in range(N):
            p = scheme_b.params_for(N, tp, seed=N * 13 + tp)
            expected = load_b_point(N, tp)[1]
            for d in itertools.product(range(1, N + 1), repeat=2):
                tr = sim.run_protocol("B", p, d)
                assert sim.measure_load(tr) == expected
                assert all(verify.check_decodability(tr).values()), ("B", N, tp, d)
                checked += 1
    _ok(8, f"{checked} exhaustive runs: 100% decode, measured load = closed form exactly")


def test_accept_09_exact_privacy():
    for t in (1, 2):
        p = scheme_a.params_for(2, 2, t)
        reports = verify.check_privacy_exact_all("A", p, [[1], [2]])
        assert all(r.private for r in reports.values()), ("A", t)
    for N in (2, 3):
        for tp in (0, 1):
            p = scheme_b.params_for(N, tp)
            reports = verify.check_privacy_exact_all("B", p, [[1], [2]])
            assert all(r.private for r in reports.values()), ("B", N, tp)
    # the derandomized baseline leaks (it does so at both t=1 and t=2)
    baseline_fails = [
        not verify.check_privacy_exact_all(
            "A", scheme_a.params_for(2, 2, t), [[1]], derandomized=True
        )[(1,)].private
        for t in (1, 2)
    ]
    assert any(baseline_fails)
    assert all(baseline_fails)
    _ok(9, "exact privacy holds on all small instances; the non-private baseline fails")


def test_accept_10_monte_carlo_privacy():
    p = scheme_a.params_for(3, 2, 2)
    coalitions = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    reports = verify.check_privacy_mc_all("A", p, coalitions, trials=10_000, base_seed=0)
    worst = max(r.max_tv_debiased for r in reports.values())
    assert all(r.private for r in reports.values())
    assert worst <= 0.05
    _ok(10, f"(K,N,t)=(3,2,2), 10^4 trials, all coalitions: max TV {worst:.4f} <= 0.05")


def test_accept_11_figure_facts():
    # K=2, N=8: scheme B meets the converse except on 4.5 <= M <= 6
    conv = converse_two_user_curve(8)
    curve_b = scheme_b_curve(8)
    for M in sorted(set(conv.corner_ms()) | set(curve_b.corner_ms())):
        if not Fraction(9, 2) < M < 6:
            assert curve_b(M) == conv(M), M
    assert curve_b(5) > conv(5)
    # coded placement beats the uncoded converse for 4 < M <= 5.8
    curve_c = scheme_c_curve(2, 8)
    assert curve_c(4) == conv(4)
    for k in range(1, 19):
        M = 4 + Fraction(k, 10)
        assert curve_c(M) < conv(M), M
    # K=40, N=10: the virtual-user scheme is at or below the coded one
    curve_a = scheme_a_curve(40, 10)
    curve_c = scheme_c_curve(40, 10)
    lo = Fraction(10, 40)
    for M in sorted(m for m in set(curve_a.corner_ms()) | set(curve_c.corner_ms()) if lo <= m <= 10):
        assert curve_a(M) <= curve_c(M), M
    _ok(11, "figure facts hold: B=converse off (4.5,6); C beats the converse on (4,5.8]; A<=C at (40,10)")


def test_accept_12_coded_placement_gain():
    for N in (4, 8, 16):
        M = Fraction(N + 1, 2)
        conv = converse_two_user(N, M)
        assert conv == Fraction(N - 1, 2)
        assert (M, Fraction(1)) in load_c_points(2, N)
        assert conv / Fraction(1) == Fraction(N - 1, 2)
    _ok(12, "at M=(N+1)/2 the uncoded converse is (N-1)/2 vs coded load 1, ratio (N-1)/2 exact")


def test_accept_13_converse_cross_path():
    import random

    rng = random.Random(99)
    for N in range(2, 13):
        corners = converse_two_user_corners(N)
        for _ in range(100):
            M = Fraction(N, 2) + Fraction(rng.randrange(1001), 1000) * Fraction(N, 2)
            assert corners(M) == converse_two_user(N, M), (N, M)
    _ok(13, "corner-formula converse equals the direct evaluator on 100 random points per N<=12")
