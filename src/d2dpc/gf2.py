"""Exact XOR-system solving for multicast decoding.

A receiver knows its cached subfiles and sees every broadcast message as
(composition header, payload).  Each message is one linear equation over
GF(2): the XOR of its unknown components equals the payload XOR the known
components.  The solver works in three steps:

1. Peeling (the LT-code decoder): every single-unknown equation -- a
   directly useful message -- fixes its variable, which is substituted
   into every equation containing it, until no single-unknown equation
   is left.
2. The residual equations are split into connected components: two
   equations belong together when a chain of shared variables links them.
3. Each component is row-reduced and back-substituted on its own.  This
   recovers the combinations that only cancel across several messages,
   which is exactly how the leader-filtered messages are reconstructed.

A variable is determined iff its unit vector lies in the row space.
Peeled unit vectors split off that space, and the rest is a direct sum
over components, so the three steps return exactly what a full
elimination of the whole system returns.  A subfile the receiver needs
but that the system does not determine is reported, never guessed.
"""

from __future__ import annotations

_INCONSISTENT = "inconsistent XOR system (corrupted payload?)"


def solve_xor_system(equations: list[tuple[set, int]]) -> dict:
    """Solve XOR equations; return the uniquely determined variables.

    ``equations`` holds (set of variable keys, rhs payload int) pairs and
    is left unchanged.  Raises ValueError on an inconsistent system (some
    payload was corrupted), since 0 = nonzero has no solution.
    """
    rows = [[set(vars_), rhs] for vars_, rhs in equations]
    solved = _peel(rows)
    solved.update(_solve_components([(v, rhs) for v, rhs in rows if v]))
    return solved


def _peel(rows: list[list]) -> dict:
    """Resolve single-unknown rows to a fixpoint, reducing ``rows`` in place.

    Afterwards every row has no variable or at least two, and none of
    them holds a peeled variable.
    """
    occurs: dict = {}
    queue = []
    for i, (vars_, rhs) in enumerate(rows):
        if not vars_ and rhs:
            raise ValueError(_INCONSISTENT)
        for v in vars_:
            occurs.setdefault(v, []).append(i)
        if len(vars_) == 1:
            queue.append(i)

    solved = {}
    while queue:
        vars_, value = rows[queue.pop()]
        if len(vars_) != 1:  # emptied by an earlier substitution
            continue
        (var,) = vars_
        solved[var] = value
        for j in occurs.pop(var):  # includes the row just popped
            row = rows[j]
            row[0].discard(var)
            row[1] ^= value
            if len(row[0]) == 1:
                queue.append(j)
            elif not row[0] and row[1]:
                raise ValueError(_INCONSISTENT)
    return solved


def _solve_components(equations: list[tuple[set, int]]) -> dict:
    """Eliminate each connected component of ``equations`` separately."""
    var_ids: dict = {}
    for vars_, _ in equations:
        for v in vars_:
            if v not in var_ids:
                var_ids[v] = len(var_ids)
    parent = list(range(len(var_ids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for vars_, _ in equations:
        ids = [var_ids[v] for v in vars_]
        root = find(ids[0])
        for i in ids[1:]:
            other = find(i)
            if other != root:
                parent[other] = root

    components: dict[int, list] = {}
    for eq in equations:
        components.setdefault(find(var_ids[next(iter(eq[0]))]), []).append(eq)
    solved = {}
    for component in components.values():
        solved.update(_eliminate(component))
    return solved


def _eliminate(equations: list[tuple[set, int]]) -> dict:
    """Full GF(2) elimination over every equation at once.

    Each variable is one bit of a row mask.  This is the reference the
    peel-and-split path must agree with, and the step it runs per
    component.
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
