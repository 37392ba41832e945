"""Binomials and exact envelopes.

The binomial follows the zero convention binom(x, y) = 0 whenever x < 0,
y < 0 or x < y, which the load formulas rely on at the range edges.
All envelope geometry is exact and runs on integers, with fractions
made only for what a caller sees, and one lower-hull routine does all
of it: the lower envelope of points directly, the upper envelope of
lines through its dual, and the max of two curves as the upper envelope
of their segment lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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


def binom_load_row(U: int, N: int) -> list[Rat]:
    """(binom(U, t) - binom(U - N, t)) / binom(U, t - 1) for t = 1..U+1,
    with ``binom``'s zero convention, in one walk along the row.

    Each step takes binom(x, t - 1) to binom(x, t) by one exact multiply
    by x - t + 1 and one exact divide by t, for x = U and x = U - N.  The
    factor reaches 0 at t = x + 1 and keeps the binomial at 0 past it;
    for U - N < 0 the walk starts at binom(U - N, 0) = 0.
    """
    V = U - N
    full, cut = 1, int(V >= 0)  # binom(U, t - 1), binom(V, t - 1)
    row = []
    for t in range(1, U + 2):
        prev, full, cut = full, full * (U - t + 1) // t, cut * (V - t + 1) // t
        row.append(Fraction(full - cut, prev))
    return row


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

    The corners are checked, and the curve walked, on the integer
    numerators and denominators of each corner and step, so no number
    grows past a few corners' worth of digits; each segment is one row
    (u, w, z) with R = (u + w M) / z there.
    """

    corners: tuple[tuple[Rat, Rat], ...]
    provenance: tuple[str, ...] = ()
    _walk: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.corners:
            raise ValueError("curve needs at least one corner")
        pts = [(m.numerator, m.denominator, r.numerator, r.denominator) for m, r in self.corners]
        # the slope s/t to the next corner is dy/dx for dx = a/b, dy = c/d
        # and b, d > 0: t has the sign of dx and s that of dy
        slopes = [((c1 * d0 - c0 * d1) * b0 * b1, (a1 * b0 - a0 * b1) * d0 * d1)
                  for (a0, b0, c0, d0), (a1, b1, c1, d1) in zip(pts, pts[1:])]
        if any(t <= 0 for _, t in slopes):
            raise ValueError("corner M values must be strictly increasing")
        if any(s > 0 for s, _ in slopes):
            raise ValueError("curve must be non-increasing")
        if any(s1 * t0 < s0 * t1 for (s0, t0), (s1, t1) in zip(slopes, slopes[1:])):
            raise ValueError("corner sequence is not convex")
        if self.provenance and len(self.provenance) != len(self.corners):
            raise ValueError(f"{len(self.provenance)} provenance tags for {len(self.corners)} corners")
        # segment i runs through corner i, (a/b, c/d), at slope s/t; the
        # last corner's row holds its load
        rows = [(c * t * b - d * s * a, d * s * b, d * t * b) for (a, b, c, d), (s, t) in zip(pts, slopes)]
        object.__setattr__(self, "_walk", (pts, rows + [(pts[-1][2], 0, pts[-1][3])]))

    @cached_property
    def slopes(self) -> tuple[Rat, ...]:
        return tuple(Fraction(w, z) for _, w, z in self._walk[1][:-1])

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
        can only come before a descent, which raises.  With M = p/q, the
        comparisons are cross-multiplications and the load one fraction.
        p/q is M's exact ratio, so a float M gives the exact ``Fraction``.
        """
        if not ms:
            return []
        for M in (ms[0], ms[-1]):
            if not self.min_m <= M <= self.max_m:
                raise ValueError(f"M={M} outside curve domain [{self.min_m}, {self.max_m}]")
        pts, rows = self._walk
        last, i = len(rows) - 1, 0
        prev, out = ms[0], []
        prev_p, prev_q = prev.as_integer_ratio()
        for M in ms:
            p, q = M.as_integer_ratio()
            if p * prev_q < prev_p * q:
                raise ValueError(f"M values must ascend: {M} after {prev}")
            prev, prev_p, prev_q = M, p, q
            while i < last and pts[i + 1][0] * q <= p * pts[i + 1][1]:
                i += 1
            u, w, z = rows[i]
            out.append(Fraction(u * q + w * p, z * q))
        return out

    def __call__(self, M) -> Rat:
        return self.values((M,))[0]

    def corner_ms(self) -> list[Rat]:
        return [m for m, _ in self.corners]


def _scaled(values) -> tuple[list[int], int]:
    """The numbers ``values``, floats read exactly, as integers over their
    least common denominator, and that denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{q for _, q in pairs})
    return [p * (den // q) for p, q in pairs], den


def _lower_hull(xs: Sequence[int], ys: Sequence[int]) -> list[tuple[int, int]]:
    """The lower convex hull of the integer points (xs[i], ys[i]) by
    increasing x (Andrew's monotone chain), one (i, first) per corner: i
    indexes the corner's point, and first is the least index of a point
    on the hull after the previous corner, up to and including this one.

    Of the points at one x only the lowest counts, and of equal points
    the first in input order; points on or above a chord are no corners,
    and a collinear middle point counts only towards ``first``.
    """
    lowest: dict[int, int] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        j = lowest.setdefault(x, i)
        if y < ys[j]:
            lowest[x] = i
    hull: list[tuple[int, int, int, int]] = []  # (x, y, i, first)
    for x in sorted(lowest):
        i = lowest[x]
        y, first = ys[i], i
        while len(hull) >= 2:
            x0, y0, _, _ = hull[-2]
            x1, y1, _, first1 = hull[-1]
            turn = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
            if turn > 0:
                break
            hull.pop()
            # a popped point on the new chord stays on the hull, one above it does not
            first = min(first, first1) if turn == 0 else i
        hull.append((x, y, i, first))
    return [(i, first) for _, _, i, first in hull]


def lower_convex_envelope(points, provenance: Optional[Sequence[str]] = None) -> TradeoffCurve:
    """Lower boundary of the convex hull of (M, R) points.

    Dominated points, interior points and collinear intermediate corners
    are removed; only genuine corners survive, so two equal envelopes
    compare equal corner-by-corner.  ``provenance``, when given, holds
    one tag per point.
    """
    # the caller's own Fractions where it gave them
    pts = [(m, r) if type(m) is type(r) is Fraction else (Fraction(m), Fraction(r)) for m, r in points]
    if not pts:
        raise ValueError("no points to envelope")
    xs, _ = _scaled([m for m, _ in pts])
    if any(x < 0 for x in xs):
        raise ValueError("memory values must be nonnegative")
    tags = list(provenance) if provenance is not None else [""] * len(pts)
    if len(tags) != len(pts):
        raise ValueError(f"{len(tags)} provenance tags for {len(pts)} points")
    hull = _lower_hull(xs, _scaled([r for _, r in pts])[0])
    return TradeoffCurve(
        corners=tuple(pts[i] for i, _ in hull),
        provenance=tuple(tags[i] for i, _ in hull),
    )


@dataclass(frozen=True)
class Line:
    """R = intercept + slope * M, with a provenance tag."""

    slope: Rat
    intercept: Rat
    tag: str = ""

    def __call__(self, M) -> Rat:
        return Fraction(self.intercept) + Fraction(self.slope) * Fraction(M)


def _envelope_corners(lines: Sequence[Line], lo: Rat, hi: Rat) -> list[tuple[Rat, Rat, int]]:
    """The corners (M, R, j) of the pointwise max of ``lines`` over
    [lo, hi], in increasing M; line j is the first in input order that
    reaches the max there.

    By point-line duality the line R = c + s M leads somewhere exactly
    when (s, -c) is a corner of the lower hull of all such points, and
    consecutive hull lines cross at the corners of the max, in
    increasing M; the lines that reach the max at a crossing are the
    points of that hull edge.  So the corners are ``lo``, those crossings
    strictly inside (lo, hi), and ``hi``, and one walk along the hull,
    on the slopes S and intercepts C over their common denominators ds
    and dc, names each corner's leading line.
    """
    if not lines:
        raise ValueError("no lines")
    S, ds = _scaled([ln.slope for ln in lines])
    C, dc = _scaled([ln.intercept for ln in lines])
    hull = _lower_hull(S, [-c for c in C])
    # hull lines i and j cross at M = (C_i - C_j) ds / ((S_j - S_i) dc)
    cross = [((C[i] - C[j]) * ds, (S[j] - S[i]) * dc) for (i, _), (j, _) in zip(hull, hull[1:])]
    ends = sorted({lo, hi})
    inside = [Fraction(p, q) for p, q in cross
              if lo.numerator * q < p * lo.denominator and p * hi.denominator < hi.numerator * q]
    corners, k = [], 0
    for m in ends[:1] + inside + ends[1:]:
        p, q = m.numerator, m.denominator
        while k < len(cross) and cross[k][0] * q < p * cross[k][1]:
            k += 1
        i = hull[k][0]  # leads from crossing k - 1 up to crossing k
        tied = k < len(cross) and cross[k][0] * q == p * cross[k][1]
        corners.append((m, Fraction(C[i] * ds * q + S[i] * p * dc, ds * dc * q),
                        min(i, hull[k + 1][1]) if tied else i))
    return corners


def upper_envelope_of_lines(lines: Sequence[Line], lo, hi) -> TradeoffCurve:
    """Pointwise max of lines over [lo, hi] as an exact piecewise curve.

    Used for the converse bounds, which are maxima of finitely many
    linear-in-M expressions; the result is convex by construction.  The
    corners are those of ``_envelope_corners``, each tagged by the first
    line in input order that reaches the max there.
    """
    corners = _envelope_corners(lines, Fraction(lo), Fraction(hi))
    return TradeoffCurve(corners=tuple((m, r) for m, r, _ in corners),
                         provenance=tuple(lines[j].tag for _, _, j in corners))


def shared_domain(a: TradeoffCurve, b: TradeoffCurve) -> tuple[Rat, Rat]:
    """(lo, hi), the curves' domains intersected; ValueError unless lo < hi."""
    lo, hi = max(a.min_m, b.min_m), min(a.max_m, b.max_m)
    if lo >= hi:
        raise ValueError(f"domains [{a.min_m}, {a.max_m}] and [{b.min_m}, {b.max_m}] do not overlap")
    return lo, hi


def curve_max(a: TradeoffCurve, b: TradeoffCurve) -> TradeoffCurve:
    """Pointwise max of two curves on their ``shared_domain``, corners only.

    A convex curve is the max of its segment lines, so this is the upper
    envelope of both curves' segment lines there, read off each curve's
    rows: R = (u + w M) / z has slope w/z and intercept u/z.
    """
    lines = [Line(s, Fraction(u, z))
             for curve in (a, b) for s, (u, _, z) in zip(curve.slopes, curve._walk[1])]
    corners = _envelope_corners(lines, *shared_domain(a, b))
    return TradeoffCurve(corners=tuple((m, r) for m, r, _ in corners))


def even_grid(lo, hi, count: int) -> list[Rat]:
    """count evenly spaced rationals strictly inside [lo, hi]: with
    lo = a/d and hi = b/d, the j-th is (a (count+1-j) + b j) / (d (count+1))."""
    lo, hi = Fraction(lo), Fraction(hi)
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    den = lo.denominator * hi.denominator * (count + 1)
    return [Fraction(a * (count + 1 - j) + b * j, den) for j in range(1, count + 1)]
