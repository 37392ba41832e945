"""Test oracles: independent slow or closed-form versions of what
``d2dpc`` computes, which the tests check the library against.  No caller
of the library needs them, so they live with the tests.

* ``_eliminate``: full GF(2) elimination, the oracle of
  ``gf2.solve_xor_system``.
* ``_lower_hull``: the monotone chain on exact rationals, the oracle of
  the integer hull behind ``combinat.lower_convex_envelope`` and
  ``combinat.upper_envelope_of_lines``.
* ``converse_two_user_corners``: the two-user converse from its
  closed-form corners, the oracle of ``bounds.converse_two_user_curve``.
* ``_converse_terms``: the converse line family in the paper's form, as
  functions of y, the oracle of ``bounds._converse_lines``; with it
  ``converse_two_user`` and ``converse_k_user`` evaluate the two-user and
  K-user converses at one point, the oracles of
  ``bounds.converse_two_user_curve`` and ``bounds.converse_k_user_curve``.
* ``scheme_a_within_three_of_shared_link`` with ``load_a_upper``: the
  factor-3 bridge between scheme A and the shared-link loads behind the
  constant-factor claims.
* ``virtual_demands_by_blocks``: the virtual users' files from block
  index arithmetic, the oracle of ``scheme_a._virtual_demands``.
* ``gap_by_division``: the gap with each ratio one ``Fraction`` division,
  the oracle of ``bounds.gap``'s cross-multiplied ratios.
* ``recorded_points``: a ``RecordingSource``'s space as the product of
  its draws' outcomes, the oracle of the keys ``RecordingSource.point``
  names.
"""

import itertools
from fractions import Fraction

from d2dpc.bounds import _K_USER_TAGS, _TWO_USER_TAGS, GapReport
from d2dpc.combinat import TradeoffCurve, lower_convex_envelope
from d2dpc.core import Rat
from d2dpc.gf2 import _INCONSISTENT


def _eliminate(equations: list[tuple[set, int]]) -> dict:
    """Full GF(2) elimination over every equation at once.

    Each variable is one bit of a row mask.  This is the test oracle
    ``solve_xor_system`` must agree with: the same forward reduction,
    but a back-substitution that tests every lower pivot against every
    pivot row.
    """
    var_ids: dict = {}
    for vars_, _ in equations:
        for v in vars_:
            if v not in var_ids:
                var_ids[v] = len(var_ids)
    names = list(var_ids)

    rows: list[tuple[int, int]] = []
    for vars_, rhs in equations:
        mask = 0
        for v in vars_:
            mask |= 1 << var_ids[v]
        rows.append((mask, rhs))

    # row-reduce with pivot = highest set bit
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, rhs)
                break
            pmask, prhs = pivots[top]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs:
                raise ValueError(_INCONSISTENT)

    # back-substitute bottom-up: once a lower pivot row is fully reduced,
    # XORing it into a higher row removes that pivot bit for good (reduced
    # rows only carry their own pivot plus free variables)
    tops = sorted(pivots)
    for idx, top in enumerate(tops):
        mask, rhs = pivots[top]
        for lower in tops[:idx]:
            if (mask >> lower) & 1:
                lmask, lrhs = pivots[lower]
                mask ^= lmask
                rhs ^= lrhs
        pivots[top] = (mask, rhs)

    solved = {}
    for top, (mask, rhs) in pivots.items():
        if mask == (1 << top):
            solved[names[top]] = rhs
    return solved


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


def converse_two_user(N: int, M) -> Rat:
    """Lower bound on the two-user optimal load at memory M, exact."""
    if N < 2:
        raise ValueError("need N >= 2")
    y = Fraction(M) - Fraction(N, 2)
    if not 0 <= y <= Fraction(N, 2):
        raise ValueError(f"M={M} outside [{Fraction(N, 2)}, {N}] for N={N}")
    return _converse_max(_converse_terms(2, N, _TWO_USER_TAGS), y)


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


def load_a_upper(K: int, N: int, t: int) -> Rat:
    """Simple upper bound (U - t + 1)/t on the load at the same memory."""
    U = (K - 1) * N
    return Fraction(U - t + 1, t)


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


def virtual_demands_by_blocks(K: int, N: int, k: int, demands) -> tuple[dict, tuple]:
    """Sub-system k's effective demand map and per-file sorted demanders,
    file i's virtual users placed as the contiguous block that starts
    after the K-1 slots of each earlier file, less the earlier files'
    real demanders."""
    d_eff = {u: demands[u - 1] for u in range(1, K + 1) if u != k}
    counts = [0] * (N + 1)
    for f in d_eff.values():
        counts[f] += 1
    prefix = 0
    for i in range(1, N + 1):
        start = 1 + K + (i - 1) * (K - 1) - prefix
        prefix += counts[i]
        end = K + i * (K - 1) - prefix
        for u in range(start, end + 1):
            d_eff[u] = i
    demanders = tuple(tuple(sorted(u for u, f in d_eff.items() if f == i)) for i in range(N + 1))
    return d_eff, demanders


def gap_by_division(achievable: TradeoffCurve, converse: TradeoffCurve, grid) -> GapReport:
    """The max of achievable(M)/converse(M) over the ascending ``grid``,
    each ratio divided out as a ``Fraction``: 0/0 points skipped, the
    first M where only the converse is 0 unbounded, else the first M of
    the largest ratio above 0."""
    best = Fraction(0)
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


def recorded_points(recorder):
    """Every point of ``recorder``'s space: the tuple of drawn values, one
    per recorded draw in order, a permutation as a tuple.  The first
    point is the first outcome of every draw."""
    return itertools.product(*(
        itertools.permutations(xs) if kind == "permutation" else xs
        for _, xs, kind in recorder.draws
    ))
