"""Closed-form converse and reference-achievability evaluators.

Every bound here is a maximum of finitely many expressions that are
linear in the memory M, so the piecewise curves are assembled exactly as
upper envelopes of rational lines.  Loads are clamped at zero: the
formulas go negative where a segment stops being active.

The two-user and K-user converses are one envelope call over [N/K, N]
of one line family, which at K = 2 is the two-user one; past 2N/K,
where the family vanishes, the zero clamp gives the flat part.  Each
line is built once, from its closed-form slope and intercept.  The
tests check the lines against the paper-form equations in y, and the
envelopes against the closed-form two-user corners and pointwise
evaluators, all in ``tests/oracles.py``, which shares no code with this
module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .combinat import (
    Line,
    TradeoffCurve,
    binom_load_row,
    even_grid,
    lower_convex_envelope,
    shared_domain,
    upper_envelope_of_lines,
)
from .core import Rat
from .scheme_a import scheme_a_curve
from .scheme_b import SchemeBParams, scheme_b_curve


# ---------------------------------------------------------------------------
# converse line family (uncoded placement)
# ---------------------------------------------------------------------------


_TWO_USER_TAGS = ("two-user-eq5", "two-user-eq6", "two-user-eq7")
_K_USER_TAGS = ("k-user-eq9", "k-user-eq10", "k-user-eq11")


def _converse_lines(K: int, N: int, tags: tuple[str, str, str]) -> list[Line]:
    """The zero clamp and the one converse line family, eq. (6), eq. (7)
    and eq. (5)(h), as lines in M; ``tags`` names the eq. (5), (6) and (7)
    terms.

    Each term is a + b y in y = (K M - N)/2, which runs over [0, N/2] as
    M runs over [N/K, 2N/K], scaled by f/g = floor(K/2)/ceil(K/2) for K
    colluding users; eq. (5) is scaled by L K/(2N), L = floor(2N/K), as
    well and is present only when 2N >= 3K.  At K = 2 both scales are 1,
    which gives the two-user family.  The term's line in M has slope
    b K/2 and intercept a - b N/2, each built here as one fraction of
    integers, the scales multiplied in: eq. (6) (a = K, b = -3K/N) gives
    -3K^2/(2N) and 5K/2, eq. (7) (a = K/2, b = -K/N) gives -K^2/(2N) and
    K, and eq. (5)(h) gives -P/(2N n) and Q/(K n), with n = (h + 1)(h + 2)
    and P, Q the quadratics in h below.
    """
    eq5, eq6, eq7 = tags
    f, g = K // 2, (K + 1) // 2
    lines = [
        Line(Fraction(0), Fraction(0), "clamp-zero"),
        Line(Fraction(-3 * K * K * f, 2 * N * g), Fraction(5 * K * f, 2 * g), eq6),
        Line(Fraction(-K * K * f, 2 * N * g), Fraction(K * f, g), eq7),
    ]
    if 2 * N >= 3 * K:
        L = (2 * N) // K
        for h in range(L - 2):
            n = (h + 1) * (h + 2)
            P = K * K * h * h + K * (8 * N - K) * h + 2 * N * (2 * N + K)
            Q = K * K * h * h + 6 * N * K * h + 2 * N * N + 3 * N * K
            lines.append(Line(Fraction(-f * L * K * P, 4 * g * N * N * n),
                              Fraction(f * L * Q, 2 * g * N * n), f"{eq5}(h={h})"))
    return lines


def _converse_curve(K: int, N: int, tags: tuple[str, str, str]) -> TradeoffCurve:
    """The envelope of ``_converse_lines`` on [N/K, N].  The family
    vanishes at 2N/K, so past it (K >= 3) the clamp-zero line holds the
    curve at 0."""
    curve = upper_envelope_of_lines(_converse_lines(K, N, tags), Fraction(N, K), Fraction(N))
    if curve(Fraction(2 * N, K)) != 0:
        raise AssertionError("the converse should vanish at M = 2N/K")
    return curve


# ---------------------------------------------------------------------------
# two-user and K-user (colluding users) converses
# ---------------------------------------------------------------------------


def converse_two_user_curve(N: int) -> TradeoffCurve:
    """The two-user converse as a piecewise curve on [N/2, N]."""
    if N < 2:
        raise ValueError("need N >= 2")
    return _converse_curve(2, N, _TWO_USER_TAGS)


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

    At factor 1 the points are the MAN loads ``man_points``, plus (0, N)
    when N < K.  For N >= K these are the exact uncoded-placement optimum
    of Yu, Maddah-Ali and Avestimehr.  For N < K the curve lies above
    that optimum at some corners (the first at K = 4, N = 2, M = 1/2:
    4/3 against 5/4), so there it is not a converse.  1/2 (N >= K) and
    1/4 (N < K) are the order-optimality scalings that make it a valid
    general converse.
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
    return [(Fraction(N, K), Fraction(N))] + [
        (Fraction(t * (N - 1) + K, K), R) for t, R in enumerate(binom_load_row(K - 1, N), start=1)]


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
    # the best ratio so far as num/den with den > 0, None once unbounded;
    # a/c = (p/q)/(r/s) = p s/(q r), compared by cross-multiplying
    best: Optional[tuple[int, int]] = (0, 1)
    argmax, skipped = None, []
    for M, c, a in zip(grid, converse.values(grid), achievable.values(grid)):
        if c == 0 and a == 0:
            skipped.append(Fraction(M))
        elif best is None:
            continue
        elif c == 0:
            best, argmax = None, M
        else:
            num, den = a.numerator * c.denominator, a.denominator * c.numerator
            if den < 0:
                num, den = -num, -den
            if num * best[1] > best[0] * den:
                best, argmax = (num, den), M
    if argmax is None:
        raise ValueError("converse was zero on the whole grid")
    return GapReport(max_ratio=None if best is None else Fraction(*best),
                     argmax_m=Fraction(argmax), skipped=skipped, grid_size=len(grid))


# The most pieces, corner points or lines, that ``named_curve`` builds a
# curve from.  Median builds on one Intel Xeon core, Python 3.11: the
# slowest curves this admits, conv2u at N = 999 and convKu at (3, 1498),
# take 32-36 ms (60-78 ms while each line took some 15 ``Fraction`` steps,
# 2.4-4.0 s while each envelope corner was tagged by evaluating every
# line), most of it the envelope's arithmetic on the lines' common
# denominators; scheme A at (19, 55), (10, 111) and (3, 499) takes 9-13 ms
# and scheme C at K = 999 6-10 ms (52-88 ms while each point took three
# ``math.comb`` calls); others less.
MAX_CURVE_PIECES = 1000


class NamedCurve(NamedTuple):
    """A curve of the command line, built from ``pieces(K, N)`` corner
    points or lines, a closed form that takes no time for any K, N >= 1."""

    pieces: Callable[[int, int], int]
    build: Callable[[int, int], TradeoffCurve]
    achievable: bool = False  # a scheme's curve, not a converse or a reference
    fixed_K: Optional[int] = None  # the one K the curve is defined at, if it has one


def _converse_pieces(K: int, N: int) -> int:
    return 3 + ((2 * N) // K - 2 if 2 * N >= 3 * K else 0)


def _shared_link_pieces(K: int, N: int) -> int:
    return K + 1 + (N < K)  # the point (0, N) joins when N < K


CURVES = {
    "schemeA": NamedCurve(lambda K, N: (K - 1) * N + 1, scheme_a_curve, achievable=True),
    "schemeB": NamedCurve(lambda K, N: N + 1, lambda K, N: scheme_b_curve(N), achievable=True,
                          fixed_K=SchemeBParams.fixed_K),
    "schemeC": NamedCurve(lambda K, N: K + 1, scheme_c_curve, achievable=True),
    "conv2u": NamedCurve(_converse_pieces, lambda K, N: converse_two_user_curve(N), fixed_K=2),
    "convKu": NamedCurve(_converse_pieces, converse_k_user_curve),
    "sharedlink": NamedCurve(_shared_link_pieces, lambda K, N: shared_link_nonprivate_envelope(
        K, N, Fraction(1, 2 if N >= K else 4))),
    "sharedlink-uncoded": NamedCurve(_shared_link_pieces, shared_link_nonprivate_envelope),
}


def named_curve(which: str, K: int, N: int) -> TradeoffCurve:
    """``CURVES[which]`` built at (K, N), the registry behind the command
    line.  A curve of more than ``MAX_CURVE_PIECES`` pieces is refused
    before it is built."""
    if which not in CURVES:
        raise ValueError(f"unknown curve {which!r}; choose from {tuple(CURVES)}")
    curve = CURVES[which]
    pieces = curve.pieces(K, N)
    if pieces > MAX_CURVE_PIECES:
        raise ValueError(f"{which} at K={K}, N={N} is built from {pieces} pieces, "
                         f"more than the {MAX_CURVE_PIECES} admitted")
    if curve.fixed_K not in (None, K):
        raise ValueError(f"{which} is defined for K = {curve.fixed_K}")
    return curve.build(K, N)
