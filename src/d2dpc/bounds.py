"""Closed-form converse and reference-achievability evaluators.

Every bound here is a maximum of finitely many expressions that are
linear in the memory M, so the piecewise curves are assembled exactly as
upper envelopes of rational lines.  Loads are clamped at zero: the
formulas go negative where a segment stops being active.

The two-user and K-user converses are one envelope call over [N/K, N]
of one line family, which at K = 2 is the two-user one; past 2N/K,
where the family vanishes, the zero clamp gives the flat part.  The
tests check that envelope against independent oracles in
``tests/oracles.py``: the closed-form corner list of the two-user
converse and a pointwise K-user evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .combinat import (
    Line,
    TradeoffCurve,
    binom,
    even_grid,
    line_through,
    lower_convex_envelope,
    shared_domain,
    upper_envelope_of_lines,
)
from .core import Rat
from .scheme_a import scheme_a_curve
from .scheme_b import scheme_b_curve


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
    """The family and the zero clamp as lines in M; y runs over [0, N/2]
    as M runs over [N/K, 2N/K]."""
    lo, hi = Fraction(N, K), Fraction(2 * N, K)
    return [Line(Fraction(0), Fraction(0), "clamp-zero")] + [
        line_through(lo, f(Fraction(0)), hi, f(Fraction(N, 2)), tag)
        for tag, f in _converse_terms(K, N, tags)
    ]


def _converse_curve(K: int, N: int, tags: tuple[str, str, str]) -> TradeoffCurve:
    """The envelope of ``_converse_lines`` on [N/K, N].  The family
    vanishes at 2N/K, so past it (K >= 3) the clamp-zero line holds the
    curve at 0."""
    curve = upper_envelope_of_lines(_converse_lines(K, N, tags), Fraction(N, K), Fraction(N))
    if curve(Fraction(2 * N, K)) != 0:
        raise AssertionError("the converse should vanish at M = 2N/K")
    return curve


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
    return _converse_curve(2, N, _TWO_USER_TAGS)


# ---------------------------------------------------------------------------
# K-user converse (colluding users)
# ---------------------------------------------------------------------------


def converse_k_user_curve(K: int, N: int) -> TradeoffCurve:
    """Piecewise K-user converse on [N/K, N] (flat zero past 2N/K)."""
    if not N >= K >= 3:
        raise ValueError("need N >= K >= 3")
    return _converse_curve(K, N, _K_USER_TAGS)


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


# ---------------------------------------------------------------------------
# coded-placement reference points ("scheme C")
# ---------------------------------------------------------------------------


def load_c_points(K: int, N: int) -> list[tuple[Rat, Rat]]:
    """Corner points of the low-subpacketization coded-placement scheme.

    The printed low-memory anchor reads (K/N, N); dimensional consistency
    with every other curve says (N/K, N), which is used here as the
    suspected-typo correction.
    """
    pts = [(Fraction(N, K), Fraction(N))]
    for t in range(1, K + 1):
        M = Fraction(t * (N - 1), K) + 1
        R = Fraction(binom(K - 1, t) - binom(K - 1 - N, t), binom(K - 1, t - 1))
        pts.append((M, R))
    return pts


def scheme_c_curve(K: int, N: int) -> TradeoffCurve:
    pts = load_c_points(K, N)
    tags = ["schemeC(anchor)"] + [f"schemeC(t={t})" for t in range(1, K + 1)]
    return lower_convex_envelope(pts, provenance=tags)


# ---------------------------------------------------------------------------
# multiplicative gap
# ---------------------------------------------------------------------------


@dataclass
class GapReport:
    max_ratio: Optional[Rat]  # None: the gap is unbounded at argmax_m
    argmax_m: Rat
    skipped: list[Rat]
    grid_size: int


def gap_grid(achievable: TradeoffCurve, converse: TradeoffCurve, lo: Rat, hi: Rat,
             density: int) -> list[Rat]:
    """The corner M values of both curves in [lo, hi], ``density`` evenly
    spaced points and lo, hi, ascending and without repeats.  Each input is
    ascending already, so the sort merges runs and hashes nothing."""
    corners = [m for curve in (achievable, converse) for m in curve.corner_ms() if lo <= m <= hi]
    merged = sorted(corners + even_grid(lo, hi, density) + [lo, hi])
    return [m for m, _ in itertools.groupby(merged)]


def default_gap_grid(achievable: TradeoffCurve, converse: TradeoffCurve) -> list[Rat]:
    """``gap_grid`` over the curves' shared domain at density 64.

    Between corners the ratio of the curves is a ratio of two linear
    functions, monotone where the converse is positive, so its extrema
    sit at corners.  Where the converse falls to zero (at one of its
    corners) with the achievable load positive, the ratio grows without
    bound; where both fall to zero together it tends to the ratio of
    their slopes, which the skipped 0/0 point does not show.
    """
    return gap_grid(achievable, converse, *shared_domain(achievable, converse), 64)


def gap(achievable: TradeoffCurve, converse: TradeoffCurve, grid=None) -> GapReport:
    """Max of achievable(M)/converse(M) over the grid, exact rationals.

    The grid must be ascending, as ``gap_grid``'s output is: each curve
    is evaluated over it in one walk.  Grid points where both loads are
    zero are left out and listed in ``GapReport.skipped``.  Where only the
    converse is zero the gap is unbounded: ``max_ratio`` is None and
    ``argmax_m`` the first such M.
    """
    if grid is None:
        grid = default_gap_grid(achievable, converse)
    best: Optional[Rat] = Fraction(0)
    argmax, skipped = None, []
    for M, c, a in zip(grid, converse.values(grid), achievable.values(grid)):
        if c == 0 and a == 0:
            skipped.append(Fraction(M))
        elif best is None:
            continue
        elif c == 0:
            best, argmax = None, Fraction(M)
        elif a / c > best:
            best, argmax = a / c, Fraction(M)
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
