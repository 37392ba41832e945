#!/usr/bin/env python3
"""Reproduce the memory-load tradeoff figures as CSV data.

Emits one CSV per configuration into ./curves/ and prints the headline
facts each figure shows: where the two-user scheme meets its converse,
where coded placement beats the uncoded-placement converse, and how the
virtual-user scheme compares against the shared-link reference curves.
"""

import os
from fractions import Fraction

from d2dpc import bounds
from d2dpc.cli import main as cli_main
from d2dpc.combinat import even_grid

OUT = os.path.join(os.path.dirname(__file__), "curves")
os.makedirs(OUT, exist_ok=True)

CONFIGS = {
    (2, 8): ["schemeA", "schemeB", "schemeC", "conv2u", "sharedlink", "sharedlink-uncoded"],
    (10, 40): ["schemeA", "schemeC", "convKu", "sharedlink", "sharedlink-uncoded"],
    (40, 10): ["schemeA", "schemeC", "sharedlink", "sharedlink-uncoded"],
}

for (K, N), curves in CONFIGS.items():
    for which in curves:
        path = os.path.join(OUT, f"{which}_K{K}_N{N}.csv")
        cli_main(["curve", "--which", which, "--K", str(K), "--N", str(N), "--out", path])
    print(f"K={K}, N={N}: wrote {len(curves)} curves to demos/curves")

print()
print("--- headline facts ---")

conv = bounds.converse_two_user_curve(8)
b = bounds.named_curve("schemeB", 2, 8)
meet = [m for m in even_grid(4, 8, 40) if b(m) == conv(m)]
apart = [m for m in even_grid(4, 8, 40) if b(m) != conv(m)]
print(f"(K=2, N=8) scheme B equals its converse outside "
      f"[{float(min(apart)):.3f}, {float(max(apart)):.3f}]"
      f" and is strictly above it inside")

c = bounds.scheme_c_curve(2, 8)
beats = [m for m in even_grid(4, 8, 80) if c(m) < conv(m)]
print(f"(K=2, N=8) coded placement beats the uncoded-placement converse for "
      f"M in ({float(min(beats)):.3f} .. {float(max(beats)):.3f})")

ku = bounds.converse_k_user_curve(10, 40)
sl = bounds.shared_link_nonprivate_envelope(10, 40, Fraction(1))
print(f"(K=10, N=40) at M=N/K the colluding converse gives {ku(4)} "
      f"vs {sl(4)} from the uncoded shared-link curve")

a = bounds.named_curve("schemeA", 40, 10)
c = bounds.named_curve("schemeC", 40, 10)
ok = all(a(m) <= c(m) for m in even_grid(Fraction(1, 4), 10, 100))
print(f"(K=40, N=10) virtual-user scheme at or below the coded-placement curve "
      f"on the whole range: {ok}")
