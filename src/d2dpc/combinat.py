"""Binomials, lexicographic subsets, exact envelopes.

The binomial follows the zero convention binom(x, y) = 0 whenever x < 0,
y < 0 or x < y, which the load formulas rely on at the range edges.
All envelope geometry is done on exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Rat


def binom(n: int, k: int) -> int:
    if n < 0 or k < 0 or n < k:
        return 0
    return math.comb(n, k)


def lex_subsets(ground: Sequence[int], size: int) -> list[tuple[int, ...]]:
    """All size-subsets of ``ground`` in lexicographic order.

    The ground set is taken in ascending order, so the j-th subset is
    well defined no matter how the caller ordered its elements.
    """
    if not 0 <= size <= len(ground):
        raise ValueError(f"size {size} out of range for ground of {len(ground)}")
    return list(itertools.combinations(sorted(ground), size))


# ---------------------------------------------------------------------------
# memory-load curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear memory-load function over exact rational corners.

    Corners have strictly increasing M; the function is convex and
    non-increasing.  Evaluation outside [min M, max M] is an error.
    Corner provenance tags (when known) say which formula produced each
    corner.
    """

    corners: tuple[tuple[Rat, Rat], ...]
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        ms = [m for m, _ in self.corners]
        if not ms:
            raise ValueError("curve needs at least one corner")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("corner M values must be strictly increasing")
        for (m0, r0), (m1, r1) in zip(self.corners, self.corners[1:]):
            if r1 > r0:
                raise ValueError("curve must be non-increasing")
        slopes = [
            (r1 - r0) / (m1 - m0)
            for (m0, r0), (m1, r1) in zip(self.corners, self.corners[1:])
        ]
        if any(s1 < s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise ValueError("corner sequence is not convex")

    @property
    def min_m(self) -> Rat:
        return self.corners[0][0]

    @property
    def max_m(self) -> Rat:
        return self.corners[-1][0]

    def __call__(self, M) -> Rat:
        M = Fraction(M)
        if not self.min_m <= M <= self.max_m:
            raise ValueError(f"M={M} outside curve domain [{self.min_m}, {self.max_m}]")
        lo, hi = 0, len(self.corners) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.corners[mid][0] <= M:
                lo = mid
            else:
                hi = mid
        m0, r0 = self.corners[lo]
        if M == m0 or lo == hi:
            return r0
        m1, r1 = self.corners[hi]
        return r0 + (r1 - r0) * (M - m0) / (m1 - m0)

    def corner_ms(self) -> list[Rat]:
        return [m for m, _ in self.corners]


def _cross(o, a, b) -> Rat:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lower_convex_envelope(points, provenance: Optional[Sequence[str]] = None) -> TradeoffCurve:
    """Lower boundary of the convex hull of (M, R) points.

    Dominated points, interior points and collinear intermediate corners
    are removed; only genuine corners survive, so two equal envelopes
    compare equal corner-by-corner.
    """
    pts = [(Fraction(m), Fraction(r)) for m, r in points]
    if not pts:
        raise ValueError("no points to envelope")
    if any(m < 0 for m, _ in pts):
        raise ValueError("memory values must be nonnegative")
    tags = list(provenance) if provenance is not None else [""] * len(pts)
    best: dict[Rat, tuple[Rat, str]] = {}
    for (m, r), tag in zip(pts, tags):
        if m not in best or r < best[m][0]:
            best[m] = (r, tag)
    ordered = sorted((m, r, tag) for m, (r, tag) in best.items())
    hull: list[tuple[Rat, Rat, str]] = []
    for m, r, tag in ordered:
        while len(hull) >= 2 and _cross(hull[-2][:2], hull[-1][:2], (m, r)) <= 0:
            hull.pop()
        hull.append((m, r, tag))
    return TradeoffCurve(
        corners=tuple((m, r) for m, r, _ in hull),
        provenance=tuple(tag for _, _, tag in hull),
    )


@dataclass(frozen=True)
class Line:
    """R = intercept + slope * M, with a provenance tag."""

    slope: Rat
    intercept: Rat
    tag: str = ""

    def __call__(self, M) -> Rat:
        return self.intercept + self.slope * Fraction(M)


def line_through(m0, r0, m1, r1, tag: str = "") -> Line:
    m0, r0, m1, r1 = map(Fraction, (m0, r0, m1, r1))
    slope = (r1 - r0) / (m1 - m0)
    return Line(slope, r0 - slope * m0, tag)


def upper_envelope_of_lines(lines: Sequence[Line], lo, hi) -> TradeoffCurve:
    """Pointwise max of lines over [lo, hi] as an exact piecewise curve.

    Used for the converse bounds, which are maxima of finitely many
    linear-in-M expressions; the result is convex by construction.

    The max is swept from ``lo`` to ``hi`` leader by leader.  The first
    leader is the line highest at ``lo`` (ties: the larger slope).  A
    leader loses the lead only to a steeper line, so the next corner is
    the nearest point where a steeper line crosses it, and the line
    leading past that point is the steepest one crossing there.  Every
    such crossing is a genuine slope change, so the corners are ``lo``,
    the crossings strictly inside (lo, hi), and ``hi``; collinear points
    never arise.  Each corner's value and tag come from one evaluation
    of all lines; the tag is the first line in input order that reaches
    the max.  Cost: O(n) per corner, O(n * corners) in all.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lines:
        raise ValueError("no lines")
    leader = max(lines, key=lambda ln: (ln(lo), ln.slope))
    breaks = {lo, hi}
    while True:
        crossings = [
            ((ln.intercept - leader.intercept) / (leader.slope - ln.slope), -ln.slope, i)
            for i, ln in enumerate(lines)
            if ln.slope > leader.slope
        ]
        if not crossings:
            break
        x, _, i = min(crossings)
        if x >= hi:
            break
        breaks.add(x)
        leader = lines[i]

    corners: list[tuple[Rat, Rat]] = []
    tags: list[str] = []
    for m in sorted(breaks):
        best = max(lines, key=lambda ln: ln(m))
        corners.append((m, best(m)))
        tags.append(best.tag)
    return TradeoffCurve(corners=tuple(corners), provenance=tuple(tags))


def shared_domain(a: TradeoffCurve, b: TradeoffCurve) -> tuple[Rat, Rat]:
    """(lo, hi), the curves' domains intersected; ValueError unless lo < hi."""
    lo, hi = max(a.min_m, b.min_m), min(a.max_m, b.max_m)
    if lo >= hi:
        raise ValueError(f"domains [{a.min_m}, {a.max_m}] and [{b.min_m}, {b.max_m}] do not overlap")
    return lo, hi


def curve_max(a: TradeoffCurve, b: TradeoffCurve) -> TradeoffCurve:
    """Pointwise max of two curves on their ``shared_domain``."""
    lo, hi = shared_domain(a, b)
    ms = sorted({m for m in a.corner_ms() + b.corner_ms() if lo <= m <= hi} | {lo, hi})
    corners: list[tuple[Rat, Rat]] = []

    def push(m, r):
        if corners and corners[-1][0] == m:
            return
        while len(corners) >= 2 and _cross(corners[-2], corners[-1], (m, r)) == 0:
            corners.pop()
        corners.append((m, r))

    for m0, m1 in zip(ms, ms[1:]):
        fa0, fb0 = a(m0), b(m0)
        fa1, fb1 = a(m1), b(m1)
        push(m0, max(fa0, fb0))
        if (fa0 - fb0) * (fa1 - fb1) < 0:  # the leader changes inside the segment
            la = line_through(m0, fa0, m1, fa1)
            lb = line_through(m0, fb0, m1, fb1)
            x = (lb.intercept - la.intercept) / (la.slope - lb.slope)
            push(x, la(x))
    m_end = ms[-1]
    push(m_end, max(a(m_end), b(m_end)))
    return TradeoffCurve(corners=tuple(corners))


def even_grid(lo, hi, count: int) -> list[Rat]:
    """count evenly spaced rationals strictly inside [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + (hi - lo) * Fraction(j, count + 1) for j in range(1, count + 1)]
