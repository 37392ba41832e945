"""Binomials, lexicographic subsets, exact envelopes.

The binomial follows the zero convention binom(x, y) = 0 whenever x < 0,
y < 0 or x < y, which the load formulas rely on at the range edges.
All envelope geometry is done on exact rationals, and one lower-hull
routine does all of it: the lower envelope of points directly, the
upper envelope of lines through its dual, and the max of two curves as
the upper envelope of their segment lines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import Rat


def binom(n: int, k: int) -> int:
    if n < 0 or k < 0 or n < k:
        return 0
    return math.comb(n, k)


def binom_capped(n: int, k: int, cap: int) -> int:
    """min(binom(n, k), cap), built up one factor at a time and stopped
    at ``cap``.  For k <= n/2, binom(n, k) >= 2**k, so this takes about
    log2(cap) steps however large n and k are."""
    if n < 0 or k < 0 or n < k:
        return 0
    value = 1
    for i in range(min(k, n - k)):
        value = value * (n - i) // (i + 1)
        if value >= cap:
            return cap
    return value


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
    non-increasing.  ``slopes[i]`` is the slope of the segment from corner
    i to corner i + 1.  ``values(ms)`` evaluates an ascending sequence of
    M in one walk over the corners, and a call is its one-point case;
    evaluation outside [min M, max M] is an error.  Corner provenance tags
    (when known, one per corner) say which formula produced each corner.
    """

    corners: tuple[tuple[Rat, Rat], ...]
    provenance: tuple[str, ...] = ()
    slopes: tuple[Rat, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ms = [m for m, _ in self.corners]
        if not ms:
            raise ValueError("curve needs at least one corner")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("corner M values must be strictly increasing")
        for (m0, r0), (m1, r1) in zip(self.corners, self.corners[1:]):
            if r1 > r0:
                raise ValueError("curve must be non-increasing")
        slopes = tuple(
            Fraction(r1 - r0, m1 - m0)
            for (m0, r0), (m1, r1) in zip(self.corners, self.corners[1:])
        )
        if any(s1 < s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise ValueError("corner sequence is not convex")
        if self.provenance and len(self.provenance) != len(self.corners):
            raise ValueError(f"{len(self.provenance)} provenance tags for {len(self.corners)} corners")
        object.__setattr__(self, "slopes", slopes)

    @property
    def min_m(self) -> Rat:
        return self.corners[0][0]

    @property
    def max_m(self) -> Rat:
        return self.corners[-1][0]

    def values(self, ms: Sequence) -> list[Rat]:
        """The curve at each M of the ascending sequence ``ms``.

        The domain is checked at the two ends only; the walk moves to the
        next corner once M reaches it, so a point past the last corner
        can only come before a descent, which raises.
        """
        if not ms:
            return []
        for M in (ms[0], ms[-1]):
            if not self.min_m <= M <= self.max_m:
                raise ValueError(f"M={M} outside curve domain [{self.min_m}, {self.max_m}]")
        corners, slopes = self.corners, self.slopes + (0,)  # no segment starts at the last corner
        last, i = len(corners) - 1, 0
        m0, r0 = corners[0]
        prev, out = ms[0], []
        for M in ms:
            if M < prev:
                raise ValueError(f"M values must ascend: {M} after {prev}")
            prev = M
            while i < last and corners[i + 1][0] <= M:
                i += 1
                m0, r0 = corners[i]
            out.append(r0 if M == m0 else r0 + slopes[i] * (M - m0))
        return out

    def __call__(self, M) -> Rat:
        return self.values((M,))[0]

    def corner_ms(self) -> list[Rat]:
        return [m for m, _ in self.corners]


def _cross(o, a, b) -> Rat:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_hull(triples) -> list[tuple[Rat, Rat, object]]:
    """Corners of the lower convex hull of (x, y, payload) triples, by
    increasing x (Andrew's monotone chain).

    Of the triples at one x only the lowest counts (ties: the first in
    input order); points on or above a chord, collinear middle points
    included, are dropped.
    """
    best: dict[Rat, tuple[Rat, object]] = {}
    for x, y, payload in triples:
        if x not in best or y < best[x][0]:
            best[x] = (y, payload)
    hull: list[tuple[Rat, Rat, object]] = []
    for x in sorted(best):
        y, payload = best[x]
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], (x, y)) <= 0:
            hull.pop()
        hull.append((x, y, payload))
    return hull


def lower_convex_envelope(points, provenance: Optional[Sequence[str]] = None) -> TradeoffCurve:
    """Lower boundary of the convex hull of (M, R) points.

    Dominated points, interior points and collinear intermediate corners
    are removed; only genuine corners survive, so two equal envelopes
    compare equal corner-by-corner.  ``provenance``, when given, holds
    one tag per point.
    """
    pts = [(Fraction(m), Fraction(r)) for m, r in points]
    if not pts:
        raise ValueError("no points to envelope")
    if any(m < 0 for m, _ in pts):
        raise ValueError("memory values must be nonnegative")
    tags = list(provenance) if provenance is not None else [""] * len(pts)
    if len(tags) != len(pts):
        raise ValueError(f"{len(tags)} provenance tags for {len(pts)} points")
    hull = _lower_hull((m, r, tag) for (m, r), tag in zip(pts, tags))
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


def _envelope_corners(lines: Sequence[Line], lo: Rat, hi: Rat) -> list[tuple[Rat, Line]]:
    """The corners of the pointwise max of ``lines`` over [lo, hi], each
    with a line that reaches the max there, in increasing M.

    By point-line duality the line R = c + s M leads somewhere exactly
    when (s, -c) is a corner of the lower hull of all such points, and
    consecutive hull lines cross at the corners of the max, in
    increasing M.  So the corners are ``lo``, those crossings strictly
    inside (lo, hi), and ``hi``; collinear points never arise.  One walk
    along the hull names the leading line at each corner.
    """
    if not lines:
        raise ValueError("no lines")
    hull = [ln for _, _, ln in _lower_hull((ln.slope, -ln.intercept, ln) for ln in lines)]
    crossings = [(p.intercept - q.intercept) / (q.slope - p.slope) for p, q in zip(hull, hull[1:])]
    corners = []
    i = 0
    for m in sorted({lo, hi}.union(x for x in crossings if lo < x < hi)):
        while i < len(crossings) and crossings[i] < m:  # hull[i] leads up to crossings[i]
            i += 1
        corners.append((m, hull[i]))
    return corners


def upper_envelope_of_lines(lines: Sequence[Line], lo, hi) -> TradeoffCurve:
    """Pointwise max of lines over [lo, hi] as an exact piecewise curve.

    Used for the converse bounds, which are maxima of finitely many
    linear-in-M expressions; the result is convex by construction.  The
    corners are those of ``_envelope_corners``; each corner's tag is the
    first line in input order that reaches the max, found by evaluating
    every line there.
    """
    corners: list[tuple[Rat, Rat]] = []
    tags: list[str] = []
    for m, leading in _envelope_corners(lines, Fraction(lo), Fraction(hi)):
        value = leading(m)
        corners.append((m, value))
        tags.append(next(ln.tag for ln in lines if ln(m) == value))
    return TradeoffCurve(corners=tuple(corners), provenance=tuple(tags))


def shared_domain(a: TradeoffCurve, b: TradeoffCurve) -> tuple[Rat, Rat]:
    """(lo, hi), the curves' domains intersected; ValueError unless lo < hi."""
    lo, hi = max(a.min_m, b.min_m), min(a.max_m, b.max_m)
    if lo >= hi:
        raise ValueError(f"domains [{a.min_m}, {a.max_m}] and [{b.min_m}, {b.max_m}] do not overlap")
    return lo, hi


def curve_max(a: TradeoffCurve, b: TradeoffCurve) -> TradeoffCurve:
    """Pointwise max of two curves on their ``shared_domain``, corners only.

    A convex curve is the max of its segment lines, so this is the upper
    envelope of both curves' segment lines there; each line runs through
    a segment's first corner at that segment's slope.
    """
    lines = [Line(s, r0 - s * m0)
             for curve in (a, b) for (m0, r0), s in zip(curve.corners, curve.slopes)]
    corners = _envelope_corners(lines, *shared_domain(a, b))
    return TradeoffCurve(corners=tuple((m, leading(m)) for m, leading in corners))


def even_grid(lo, hi, count: int) -> list[Rat]:
    """count evenly spaced rationals strictly inside [lo, hi]: with
    lo = a/d and hi = b/d, the j-th is (a (count+1-j) + b j) / (d (count+1))."""
    lo, hi = Fraction(lo), Fraction(hi)
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    den = lo.denominator * hi.denominator * (count + 1)
    return [Fraction(a * (count + 1 - j) + b * j, den) for j in range(1, count + 1)]
