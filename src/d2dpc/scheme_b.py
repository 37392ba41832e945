"""Two-user redundancy-free private scheme ("scheme B").

Each file is split into two halves, one per transmitter; half k is cut
into binom(N-1,t') + binom(N-2,t'-1) subfiles.  User k keeps all of half
k plus the first binom(N-2,t'-1) permuted subfiles of the other half
(the cross-cached block).  Delivery sends one XOR per (t'+1)-subset of
files; the pick rule places the receiver's demanded file outside its
cross-cached block and everything else inside it, so exactly one summand
per useful message is unknown to the receiver.  Corner points:

    M = N (N + 2t' - 1) / (2 (N + t' - 1))
    R = N (N - 1) / ((t' + 1) (N + t' - 1)),    t' in [0 .. N-1],

plus the full-memory point (N, 0).

Placement is ``core.place``; this module supplies the block shape, the
corner formula, the held pairs (the other half's cross block) and the
pick rule.  None of these use randomness: ``structure_b(N, t')`` builds
the held pairs and the message plans in permuted-index space once per
size, and ``plan_messages_b`` reads them through one placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .combinat import binom, binom_capped, lower_convex_envelope, TradeoffCurve
from .core import STRUCTURE_COUNT_CAP, Placement, Rat, SchemeParams, SubfileId, place
from .scheme_a import decode_from_messages  # noqa: F401  (scheme B's decoder too)


@dataclass(frozen=True)
class SchemeBParams(SchemeParams):
    """Scheme B at one (N, t')."""

    scheme = "B"
    fixed_K = 2
    tprime: Optional[int]  # None = full-memory degenerate run

    @property
    def param(self) -> Optional[int]:
        return self.tprime

    @staticmethod
    def count_structure(K: int, N: int, tprime: Optional[int]) -> int:
        """Check K and t', then count the compositions in ``structure_b``'s
        plan table, N * binom(N, t'+1), the binomial capped at
        ``STRUCTURE_COUNT_CAP``."""
        if K != 2:
            raise ValueError("scheme B is defined for K = 2 only")
        if tprime is None:
            return 0
        if not 0 <= tprime <= N - 1:
            raise ValueError(f"t' must lie in 0..{N - 1}, got {tprime}")
        return N * binom_capped(N, tprime + 1, STRUCTURE_COUNT_CAP)

    @staticmethod
    def shape(K: int, N: int, tprime: Optional[int]) -> tuple[int, int]:
        """Two halves of binom(N-1,t') + binom(N-2,t'-1) slots (one slot
        at full memory; K and t' admitted)."""
        if tprime is None:
            return 2, 1
        return 2, binom(N - 1, tprime) + binom(N - 2, tprime - 1)

    @staticmethod
    def corner(K: int, N: int, tprime: Optional[int]) -> tuple[Rat, Rat]:
        return (Fraction(N), Fraction(0)) if tprime is None else load_b_point(N, tprime)

    def label(self) -> str:
        tp = self.tprime
        return f"B(N={self.base.N},t'={'full' if tp is None else tp})"

    def place(self, source) -> Placement:
        return place_b(self, source)

    def query_plans(self, placement: Placement, demands, source):
        """Each transmitter's (None, composition) list, transmitters 1 and 2;
        the pick rule draws nothing, so B is its own non-private baseline."""
        return [plan_messages_b(k, placement, demands) for k in (1, 2)]


def params_for(N: int, tprime: Optional[int], seed: int = 0, b_target: Optional[int] = None) -> SchemeBParams:
    return SchemeBParams.sized(2, N, tprime, seed, b_target)


# ---------------------------------------------------------------------------
# randomness-free structure
# ---------------------------------------------------------------------------


class PickExhausted(AssertionError):
    """The pick rule ran out of fresh subfiles; construction bug if ever raised."""


@dataclass(frozen=True)
class StructureB:
    """The part of scheme B that uses no randomness, built once per
    (N, t') and shared by every placement and delivery of that size."""

    # user -> the (other half, permuted index) pairs it caches of every file
    held: Mapping[int, tuple[tuple[int, int], ...]]
    # demand of the receiving user -> the transmitter's compositions, file
    # subsets in lex order, each summand a (file, permuted index) pair
    plans: Mapping[int, tuple[tuple[tuple[int, int], ...], ...]]


@lru_cache(maxsize=32)
def structure_b(N: int, tprime: Optional[int]) -> StructureB:
    """Scheme B's randomness-free structure at (N, t'), one shared copy
    per size.

    The first binom(N-2, t'-1) permuted entries of each half form its
    cross block, which the other user also caches (at full memory the
    other half's one slot).  The pick rule consumes each half in permuted
    order: the receiver's demanded file draws from the non-cross block
    and every other file of the subset from the cross block.
    """
    full = tprime is None
    half = SchemeBParams.shape(2, N, tprime)[1]
    cross = half if full else binom(N - 2, tprime - 1)
    held = {k: tuple((3 - k, j) for j in range(cross)) for k in (1, 2)}
    subsets = [] if full else list(itertools.combinations(range(1, N + 1), tprime + 1))
    plans = {}
    for d in range(1, N + 1):
        next_cross, next_noncross = [0] * (N + 1), [cross] * (N + 1)
        plan = []
        for S in subsets:
            comp = []
            for i in S:
                in_cross = d in S and i != d
                counter, end = (next_cross, cross) if in_cross else (next_noncross, half)
                j = counter[i]
                if j >= end:
                    raise PickExhausted(f"file {i} {'cross' if in_cross else 'non-cross'}")
                counter[i] = j + 1
                comp.append((i, j))
            plan.append(tuple(comp))
        if len(plan) != (0 if full else binom(N, tprime + 1)):
            raise AssertionError("message count off")
        plans[d] = tuple(plan)
    return StructureB(MappingProxyType(held), MappingProxyType(plans))


# ---------------------------------------------------------------------------
# placement and delivery
# ---------------------------------------------------------------------------


def place_b(params: SchemeBParams, source) -> Placement:
    return place(params, source, structure_b(params.base.N, params.tprime).held)


def plan_messages_b(k: int, placement: Placement, demands) -> list[tuple[None, tuple[SubfileId, ...]]]:
    """Compositions of transmitter k's messages, file subsets in lex order:
    the other user's plan in ``structure_b``, each (file, permuted index)
    read as the placement's own ``SubfileId`` there."""
    params, perms = placement.params, placement.perms
    plan = structure_b(params.base.N, params.tprime).plans[demands[2 - k]]
    return [(None, tuple([perms[(i, k)][j] for i, j in comp])) for comp in plan]


# ---------------------------------------------------------------------------
# load formulas
# ---------------------------------------------------------------------------


def load_b_point(N: int, tprime: int) -> tuple[Rat, Rat]:
    if not 0 <= tprime <= N - 1:
        raise ValueError(f"t' must lie in 0..{N - 1}")
    M = Fraction(N * (N + 2 * tprime - 1), 2 * (N + tprime - 1))
    R = Fraction(N * (N - 1), (tprime + 1) * (N + tprime - 1))
    return M, R


def scheme_b_curve(N: int) -> TradeoffCurve:
    if N < 2:
        raise ValueError("need N >= 2")
    pts = [load_b_point(N, tp) for tp in range(N)] + [SchemeBParams.corner(2, N, None)]
    tags = [f"schemeB(t'={tp})" for tp in range(N)] + ["schemeB(full)"]
    return lower_convex_envelope(pts, provenance=tags)
