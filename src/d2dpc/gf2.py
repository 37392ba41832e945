"""Exact XOR-system solving for multicast decoding.

A receiver knows its cached subfiles and sees every broadcast message as
(composition header, payload).  Each message is one linear equation over
GF(2): the XOR of its unknown components equals the payload XOR the known
components.  ``solve_xor_system`` solves a system by one elimination, each
unknown one bit of a row mask.  A variable is determined iff its unit
vector lies in the row space, that is, iff its fully reduced pivot row is
that unit vector.  This recovers the combinations that only cancel across
several messages, which is exactly how the leader-filtered messages are
reconstructed.  A subfile the receiver needs but that the system does not
determine is reported, never guessed.

The solver is told which unknowns are wanted, and they take the lowest
bits.  Pivots sit at a row's highest bit, so a pivot row at a wanted bit
holds wanted bits only, and fully reducing it needs only the pivot rows
below it: back-substitution stops at the last wanted bit and never
reduces the pivot rows of the other unknowns.  The forward reduction
still takes every row, so a corrupted payload that no wanted value
depends on still makes the system inconsistent.  Back-substitution walks
each pivot row's own set bits; testing every lower pivot against every
pivot row, as the oracle ``_eliminate`` does, is quadratic in the pivot
count.
"""

from __future__ import annotations

from typing import Iterable

_INCONSISTENT = "inconsistent XOR system (corrupted payload?)"


def solve_xor_system(equations: list[tuple[Iterable, int]], wanted: Iterable) -> dict:
    """Solve XOR equations; return the wanted variables they determine.

    ``equations`` holds (iterable of variable keys, rhs payload int) pairs
    and is left unchanged; a key listed twice in one equation cancels, as
    in any XOR.  ``wanted`` holds keys, which may be absent from the
    system.  The wanted keys take the lowest bits, every other unknown
    gets the next bit on first sight, and each row is reduced on arrival
    with the pivot at its highest set bit.  Raises ValueError on an
    inconsistent system (some payload was corrupted), since 0 = nonzero
    has no solution.
    """
    var_ids = {v: i for i, v in enumerate(dict.fromkeys(wanted))}
    n_wanted = len(var_ids)
    pivots: dict[int, tuple[int, int]] = {}
    for vars_, rhs in equations:
        mask = 0
        for v in vars_:
            mask ^= 1 << var_ids.setdefault(v, len(var_ids))
        while mask:
            top = mask.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (mask, rhs)
                break
            mask ^= pivot[0]
            rhs ^= pivot[1]
        else:
            if rhs:
                raise ValueError(_INCONSISTENT)

    # bottom-up over the wanted bits: a reduced pivot row holds its pivot
    # plus free variables below it, so XORing it in clears that pivot bit
    # and sets no other
    names = list(var_ids)
    solved = {}
    for top in range(n_wanted):
        pivot = pivots.get(top)
        if pivot is None:
            continue
        mask, rhs = pivot
        rest = mask ^ (1 << top)
        while rest:
            low = rest & -rest
            rest ^= low
            lower = pivots.get(low.bit_length() - 1)
            if lower is not None:
                mask ^= lower[0]
                rhs ^= lower[1]
        pivots[top] = (mask, rhs)
        if mask == 1 << top:
            solved[names[top]] = rhs
    return solved


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
