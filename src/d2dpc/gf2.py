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
pivot row, as the test oracle ``_eliminate`` in ``tests/oracles.py``
does, is quadratic in the pivot count.
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
