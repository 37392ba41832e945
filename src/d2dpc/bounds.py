"""Closed-form converse and reference-achievability evaluators.

Every bound here is a maximum of finitely many expressions that are
linear in the memory M, so the piecewise curves are assembled exactly as
upper envelopes of rational lines.  Loads are clamped at zero: the
formulas go negative where a segment stops being active.

The two-user and K-user converses are built from one line family,
which at K = 2 is the two-user one.  Two independent code paths exist
for the two-user converse (that family's envelope, and the closed-form
corner list); they are checked against each other rather than trusting
either alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinat import (
    Line,
    TradeoffCurve,
    binom,
    curve_max,  # noqa: F401  (re-exported: combined-converse assembly)
    even_grid,
    line_through,
    lower_convex_envelope,
    upper_envelope_of_lines,
)
from .core import Rat
from .scheme_a import load_a_upper, scheme_a_curve, scheme_a_points  # noqa: F401
from .scheme_b import scheme_b_curve, scheme_b_points  # noqa: F401


@dataclass(frozen=True)
class BoundPoint:
    M: Rat
    R_lower: Rat
    provenance: str


def curve_bound_points(curve: TradeoffCurve) -> list[BoundPoint]:
    tags = curve.provenance or ("",) * len(curve.corners)
    return [BoundPoint(m, r, tag) for (m, r), tag in zip(curve.corners, tags)]


# ---------------------------------------------------------------------------
# converse line family (uncoded placement)
# ---------------------------------------------------------------------------


def _eq5_rhs(N: int, y: Rat, h: int, K: int) -> Rat:
    """First converse family, general-K form; active for 2N/K >= 3."""
    Kh = Fraction(K, 2)
    return (
        N
        - 2 * y
        - Fraction(4 * y + (N - Kh) * h, h + 2)
        + (h * h * (N - Kh) - N * (Fraction(2 * N, K) - 3) + h * (N + Kh))
        * 2
        * y
        / ((h + 1) * (h + 2) * N)
    )


def _eq6_rhs(N: int, y: Rat, K: int) -> Rat:
    return K * (1 - Fraction(3, 1) * y / N)


def _eq7_rhs(N: int, y: Rat, K: int) -> Rat:
    return K * (Fraction(1, 2) - y / N)


_TWO_USER_TAGS = ("two-user-eq5", "two-user-eq6", "two-user-eq7")
_K_USER_TAGS = ("k-user-eq9", "k-user-eq10", "k-user-eq11")


def _converse_terms(K: int, N: int, tags: tuple[str, str, str]) -> list:
    """The one converse line family: eq. (6), eq. (7) and eq. (5), scaled
    for K colluding users, as ``(tag, y -> load)`` pairs linear in y on
    [0, N/2].  ``tags`` names the eq. (5), (6) and (7) terms.  At K = 2
    both scale factors are 1, which gives the two-user family."""
    eq5, eq6, eq7 = tags
    pre = Fraction(K // 2, (K + 1) // 2)
    pre2 = Fraction((2 * N) // K) / Fraction(2 * N, K)
    terms = [
        (eq6, lambda y: pre * _eq6_rhs(N, y, K)),
        (eq7, lambda y: pre * _eq7_rhs(N, y, K)),
    ]
    if Fraction(N, K) >= Fraction(3, 2):
        terms.extend(
            (f"{eq5}(h={h})", lambda y, h=h: pre * pre2 * _eq5_rhs(N, y, h, K))
            for h in range((2 * N) // K - 2)
        )
    return terms


def _converse_max(terms: list, y: Rat) -> Rat:
    return max(Fraction(0), *(f(y) for _, f in terms))


def _converse_lines(K: int, N: int, tags: tuple[str, str, str]) -> list[Line]:
    """The family and the zero clamp as lines in M on [N/K, 2N/K], where
    y runs over [0, N/2]."""
    lo, hi = Fraction(N, K), Fraction(2 * N, K)
    return [Line(Fraction(0), Fraction(0), "clamp-zero")] + [
        line_through(lo, f(Fraction(0)), hi, f(Fraction(N, 2)), tag)
        for tag, f in _converse_terms(K, N, tags)
    ]


# ---------------------------------------------------------------------------
# two-user converse
# ---------------------------------------------------------------------------


def converse_two_user(N: int, M) -> Rat:
    """Lower bound on the two-user optimal load at memory M, exact."""
    if N < 2:
        raise ValueError("need N >= 2")
    y = Fraction(M) - Fraction(N, 2)
    if not 0 <= y <= Fraction(N, 2):
        raise ValueError(f"M={M} outside [{Fraction(N, 2)}, {N}] for N={N}")
    return _converse_max(_converse_terms(2, N, _TWO_USER_TAGS), y)


def converse_two_user_curve(N: int) -> TradeoffCurve:
    """The two-user converse as a piecewise curve on [N/2, N]."""
    if N < 2:
        raise ValueError("need N >= 2")
    lines = _converse_lines(2, N, _TWO_USER_TAGS)
    return upper_envelope_of_lines(lines, Fraction(N, 2), Fraction(N))


def converse_two_user_corners(N: int) -> TradeoffCurve:
    """Independent corner-formula construction of the same curve."""
    if N < 2:
        raise ValueError("need N >= 2")
    corners: list[tuple[Rat, Rat]] = [(Fraction(N, 2), Fraction(N))]
    tags = ["two-user-eq5(h=0)" if N >= 3 else "two-user-eq6"]
    for hp in range(1, N - 1):
        M = Fraction(N, 2) + Fraction(N * hp, 2 * (N + 2 * hp - 2))
        R = Fraction((hp - 1) * (N + hp) + (N - 1) * N, (hp + 1) * (N + 2 * hp - 2))
        corners.append((M, R))
        tags.append(f"two-user-eq5(h={hp})")
    corners.append((Fraction(3 * N, 4), Fraction(1, 2)))
    tags.append("two-user-eq7")
    corners.append((Fraction(N), Fraction(0)))
    tags.append("two-user-eq7")
    return TradeoffCurve(corners=tuple(corners), provenance=tuple(tags))


# ---------------------------------------------------------------------------
# K-user converse (colluding users)
# ---------------------------------------------------------------------------


def converse_k_user(K: int, N: int, M) -> Rat:
    """K-user colluding converse at memory M.

    The bound's parametrisation covers M in [N/K, 2N/K] (where it reaches
    exactly zero); for larger M up to N it returns the trivial 0.
    """
    if not N >= K >= 3:
        raise ValueError("need N >= K >= 3")
    y = (K * Fraction(M) - N) / 2
    if y < 0 or Fraction(M) > N:
        raise ValueError(f"M={M} outside [{Fraction(N, K)}, {N}]")
    if y > Fraction(N, 2):
        return Fraction(0)
    return _converse_max(_converse_terms(K, N, _K_USER_TAGS), y)


def converse_k_user_curve(K: int, N: int) -> TradeoffCurve:
    """Piecewise K-user converse on [N/K, N] (flat zero past 2N/K)."""
    if not N >= K >= 3:
        raise ValueError("need N >= K >= 3")
    lines = _converse_lines(K, N, _K_USER_TAGS)
    curve = upper_envelope_of_lines(lines, Fraction(N, K), Fraction(2 * N, K))
    if curve.corners[-1][1] != 0:
        raise AssertionError("K-user converse should vanish at M = 2N/K")
    return TradeoffCurve(  # flat zero on [2N/K, N]; 2N/K < N since K >= 3
        corners=curve.corners + ((Fraction(N), Fraction(0)),),
        provenance=curve.provenance + ("clamp-zero",),
    )


# ---------------------------------------------------------------------------
# non-private shared-link reference curves
# ---------------------------------------------------------------------------


def man_points(K: int, N: int) -> list[tuple[Rat, Rat]]:
    return [(Fraction(N * t, K), Fraction(K - t, t + 1)) for t in range(K + 1)]


def shared_link_nonprivate_envelope(K: int, N: int, factor: Rat = Fraction(1)) -> TradeoffCurve:
    """Envelope of the shared-link corner points, loads scaled by ``factor``.

    factor 1 is the uncoded-placement converse; 1/2 (N >= K) and 1/4
    (N < K, where the point (0, N) joins the envelope) are the
    order-optimality scalings that make it a valid general converse.
    """
    factor = Fraction(factor)
    pts = man_points(K, N)
    tags = [f"shared-link-nonprivate(t={t})" for t in range(K + 1)]
    if N < K:
        pts.append((Fraction(0), Fraction(N)))
        tags.append("shared-link-nonprivate(M=0)")
    if factor != 1:
        pts = [(m, r * factor) for m, r in pts]
        tags = ["scaled-by-factor:" + tg for tg in tags]
    return lower_convex_envelope(pts, provenance=tags)


def t2_first_segment(K: int, N: int) -> int:
    """Largest corner index governing the first envelope segment, N < K."""
    return (2 * K - N + 1) // (N + 1)


# ---------------------------------------------------------------------------
# coded-placement reference points ("scheme C")
# ---------------------------------------------------------------------------


def load_c_points(K: int, N: int, low_memory_anchor: str = "n-over-k") -> list[tuple[Rat, Rat]]:
    """Corner points of the low-subpacketization coded-placement scheme.

    The printed low-memory anchor reads (K/N, N); dimensional consistency
    with every other curve says (N/K, N).  Both readings are available;
    the default is (N/K, N), flagged as the suspected-typo correction.
    """
    if low_memory_anchor == "n-over-k":
        anchor = (Fraction(N, K), Fraction(N))
    elif low_memory_anchor == "k-over-n":
        anchor = (Fraction(K, N), Fraction(N))
    else:
        raise ValueError("anchor must be 'n-over-k' or 'k-over-n'")
    pts = [anchor]
    for t in range(1, K + 1):
        M = Fraction(t * (N - 1), K) + 1
        R = Fraction(binom(K - 1, t) - binom(K - 1 - N, t), binom(K - 1, t - 1))
        pts.append((M, R))
    return pts


def scheme_c_curve(K: int, N: int, low_memory_anchor: str = "n-over-k") -> TradeoffCurve:
    pts = load_c_points(K, N, low_memory_anchor)
    tags = ["schemeC(anchor)"] + [f"schemeC(t={t})" for t in range(1, K + 1)]
    return lower_convex_envelope(pts, provenance=tags)


# ---------------------------------------------------------------------------
# multiplicative gap
# ---------------------------------------------------------------------------


@dataclass
class GapReport:
    max_ratio: Rat
    argmax_m: Rat
    skipped: list[Rat]
    grid_size: int


def default_gap_grid(achievable: TradeoffCurve, converse: TradeoffCurve) -> list[Rat]:
    """Corner M values of both curves plus 64 evenly spaced fill-in points.

    Ratio extrema of two piecewise-linear curves sit at corner points of
    one of them; the even grid is pure cross-checking redundancy.
    """
    lo = max(achievable.min_m, converse.min_m)
    hi = min(achievable.max_m, converse.max_m)
    if lo >= hi:
        raise ValueError("curve domains do not overlap")
    ms = {m for m in achievable.corner_ms() + converse.corner_ms() if lo <= m <= hi}
    ms.update(even_grid(lo, hi, 64))
    ms.update((lo, hi))
    return sorted(ms)


def gap(achievable: TradeoffCurve, converse: TradeoffCurve, grid=None) -> GapReport:
    """Max of achievable(M)/converse(M) over the grid, exact rationals.

    Grid points where the converse is zero are left out and listed in
    ``GapReport.skipped``.
    """
    if grid is None:
        grid = default_gap_grid(achievable, converse)
    best: Rat = Fraction(0)
    argmax = None
    skipped = []
    for M in grid:
        c = converse(M)
        if c == 0:
            skipped.append(Fraction(M))
            continue
        ratio = achievable(M) / c
        if ratio > best:
            best, argmax = ratio, Fraction(M)
    if argmax is None:
        raise ValueError("converse was zero on the whole grid")
    return GapReport(max_ratio=best, argmax_m=argmax, skipped=skipped, grid_size=len(grid))


CURVE_NAMES = (
    "schemeA",
    "schemeB",
    "schemeC",
    "conv2u",
    "convKu",
    "sharedlink",
    "sharedlink-uncoded",
)


def named_curve(which: str, K: int, N: int) -> TradeoffCurve:
    """Curve registry behind the command-line surface."""
    if which == "schemeA":
        return scheme_a_curve(K, N)
    if which == "schemeB":
        if K != 2:
            raise ValueError("schemeB curve is defined for K = 2")
        return scheme_b_curve(N)
    if which == "schemeC":
        return scheme_c_curve(K, N)
    if which == "conv2u":
        if K != 2:
            raise ValueError("conv2u is defined for K = 2")
        return converse_two_user_curve(N)
    if which == "convKu":
        if not N >= K >= 3:
            raise ValueError("convKu needs N >= K >= 3")
        return converse_k_user_curve(K, N)
    if which == "sharedlink":
        factor = Fraction(1, 2) if N >= K else Fraction(1, 4)
        return shared_link_nonprivate_envelope(K, N, factor)
    if which == "sharedlink-uncoded":
        return shared_link_nonprivate_envelope(K, N, Fraction(1))
    raise ValueError(f"unknown curve {which!r}; choose from {CURVE_NAMES}")


def scheme_a_within_three_of_shared_link(K: int, N: int) -> bool:
    """The envelope of the simple per-point upper bound (U-t+1)/t stays
    within 3x the shared-link corner loads at every M = N t / K,
    t in [2..K]; this is the bridge behind the constant-factor claims."""
    U = (K - 1) * N
    pts = [(Fraction(N + t1 - 1, K), load_a_upper(K, N, t1)) for t1 in range(1, U + 2)]
    env = lower_convex_envelope(pts)
    for t in range(2, K + 1):
        M = Fraction(N * t, K)
        if env(M) > 3 * Fraction(K - t, t + 1):
            return False
    return True
