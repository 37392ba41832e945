#!/usr/bin/env python3
"""Optimality-gap reports against every converse, all in exact rationals.

Every ratio below is a Fraction comparison; the decimal is only printed
for reading comfort.
"""

from fractions import Fraction

from d2dpc import bounds
from d2dpc.combinat import curve_max, even_grid
from d2dpc.scheme_a import scheme_a_curve
from d2dpc.scheme_b import scheme_b_curve

print("=== two users: scheme B vs the uncoded-placement converse ===")
for N in (2, 3, 4, 8, 12, 16, 20):
    report = bounds.gap(scheme_b_curve(N), bounds.converse_two_user_curve(N))
    note = "optimal everywhere" if report.max_ratio == 1 else f"worst at M={report.argmax_m}"
    print(f"  N={N:>2}: max ratio {str(report.max_ratio):>6} "
          f"({float(report.max_ratio):.4f})  {note}")

print()
print("=== K users, collusion-robust: scheme A vs max(colluding, shared-link/2) ===")
for K, N in [(3, 6), (4, 8), (5, 25), (10, 40)]:
    conv = curve_max(
        bounds.converse_k_user_curve(K, N),
        bounds.shared_link_nonprivate_envelope(K, N, Fraction(1, 2)),
    )
    report = bounds.gap(scheme_a_curve(K, N), conv)
    print(f"  K={K:>2}, N={N:>2}: max ratio {float(report.max_ratio):.3f} "
          f"at M={report.argmax_m}  (guarantee: 18)")

print()
print("=== more users than files: scheme A vs shared-link converse / 4 ===")
for K, N in [(8, 4), (40, 10)]:
    ach = scheme_a_curve(K, N)
    conv = bounds.shared_link_nonprivate_envelope(K, N, Fraction(1, 4))
    lo, hi = Fraction(N, K), Fraction(N)
    grid = sorted(
        {m for m in ach.corner_ms() + conv.corner_ms() if lo <= m <= hi}
        | set(even_grid(lo, hi, 64)) | {lo, hi}
    )
    report = bounds.gap(ach, conv, grid)
    print(f"  K={K:>2}, N={N:>2}: max ratio {float(report.max_ratio):.3f} "
          f"at M={report.argmax_m}  (guarantee: 12)")

print()
print("=== where coded placement escapes the uncoded converse ===")
for N in (4, 8, 16):
    M = Fraction(N + 1, 2)
    conv = bounds.converse_two_user(N, M)
    coded = bounds.scheme_c_curve(2, N)(M)
    print(f"  N={N:>2}, M={M}: uncoded converse {conv} vs coded load {coded} "
          f"-> gain {conv / coded} (grows with N)")
