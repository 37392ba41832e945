"""Two-user redundancy-free private scheme ("scheme B").

Each file is split into two halves, one per transmitter; half k is cut
into binom(N-1,t') + binom(N-2,t'-1) subfiles.  User k keeps all of half
k plus the first binom(N-2,t'-1) permuted subfiles of the other half
(the cross-cached block).  Delivery sends one XOR per (t'+1)-subset of
files; the pick rule places the receiver's demanded file outside its
cross-cached block and everything else inside it, so exactly one summand
per useful message is unknown to the receiver.  Corner points:

    M = N/2 + N t' / (2 (N + t' - 1))
    R = N (N - 1) / ((t' + 1) (N + t' - 1)),    t' in [0 .. N-1],

plus the full-memory point (N, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .combinat import binom, lex_subsets, lower_convex_envelope, TradeoffCurve
from .core import (
    CacheState,
    Rat,
    SlotLayout,
    SubfileId,
    SystemParams,
    block_permutation_atoms,
    block_permutations,
    random_library,
    resolve_file_size,
    subfile_value,
)
from .scheme_a import decode_from_messages  # noqa: F401  (scheme B's decoder too)

FULL_MEMORY = None  # sentinel accepted for tprime: degenerate (N, 0) run


@dataclass(frozen=True)
class SchemeBParams:
    """Scheme B at one (N, t'); also the scheme's interface to the
    protocol engine and the privacy checker."""

    scheme = "B"
    base: SystemParams
    tprime: Optional[int]  # None = full-memory degenerate run

    def __post_init__(self):
        if self.base.K != 2:
            raise ValueError("scheme B is defined for K = 2 only")
        N, tp = self.base.N, self.tprime
        if tp is not None and not 0 <= tp <= N - 1:
            raise ValueError(f"t' must lie in 0..{N - 1}, got {tp}")
        cross = 0 if tp is None else binom(N - 2, tp - 1)
        half = 1 if tp is None else binom(N - 1, tp) + cross
        object.__setattr__(self, "cross_size", cross)
        object.__setattr__(self, "half_size", half)
        object.__setattr__(self, "subpacketization", 2 * half)
        if self.base.B % self.subpacketization:
            raise ValueError(
                f"B={self.base.B} not divisible by the subpacketization "
                f"{self.subpacketization}"
            )
        object.__setattr__(
            self,
            "_layout",
            SlotLayout(
                N=N,
                blocks=2,
                slots_per_block=half,
                subfile_bits=self.base.B // (2 * half),
            ),
        )
        mem = Fraction(N) if tp is None else Fraction(N, 2) + Fraction(
            N * tp, 2 * (N + tp - 1)
        )
        object.__setattr__(self, "_memory_point", mem)

    def layout(self) -> SlotLayout:
        return self._layout

    def memory_point(self) -> Rat:
        return self._memory_point

    @property
    def param(self) -> Optional[int]:
        return self.tprime

    def label(self) -> str:
        tp = self.tprime
        return f"B(N={self.base.N},t'={'full' if tp is None else tp})"

    def place(self, source, structure_only: bool = False) -> PlacementB:
        return place_b(self, source, structure_only)

    def query_plans(self, placement: PlacementB, demands, source, derandomized: bool = False):
        """Each transmitter's (None, composition) list, transmitters 1 and 2."""
        return [plan_messages_b(k, placement, demands) for k in (1, 2)]

    def placement_atoms(self) -> list:
        """Placement randomness as (label, options) atoms; demand-independent."""
        return block_permutation_atoms("B", self._layout)

    def delivery_atoms(self, demands, derandomized: bool = False) -> list:
        return []  # the pick rule is deterministic given the placement

    @staticmethod
    def corner_load(K: int, N: int, tprime: Optional[int]) -> Rat:
        return Fraction(0) if tprime is None else load_b_point(N, tprime)[1]


def params_for(N: int, tprime: Optional[int], seed: int = 0, b_target: Optional[int] = None) -> SchemeBParams:
    if tprime is not None and not 0 <= tprime <= N - 1:
        raise ValueError(f"t' must lie in 0..{N - 1}, got {tprime}")
    half = 1 if tprime is None else binom(N - 1, tprime) + binom(N - 2, tprime - 1)
    base = SystemParams(K=2, N=N, B=resolve_file_size(2 * half, b_target), seed=seed)
    return SchemeBParams(base=base, tprime=tprime)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass
class PlacementB:
    params: SchemeBParams
    layout: SlotLayout
    # (file, half) -> permuted tuple of that half's slot ids; the first
    # cross_size entries are also cached by the other user
    perms: dict[tuple[int, int], tuple[int, ...]]
    caches: list[CacheState]
    library: Optional[dict[int, int]]

    def cross_block(self, file: int, half: int) -> tuple[int, ...]:
        return self.perms[(file, half)][: self.params.cross_size]

    def noncross_block(self, file: int, half: int) -> tuple[int, ...]:
        return self.perms[(file, half)][self.params.cross_size :]


def place_b(params: SchemeBParams, source, structure_only: bool = False) -> PlacementB:
    base = params.base
    N = base.N
    layout = params.layout()
    library = None if structure_only else random_library(base)
    perms = block_permutations("B", layout, source)
    full = params.tprime is None

    caches = []
    for k in (1, 2):
        other = 3 - k
        slots: list[SubfileId] = []
        for i in range(1, N + 1):
            slots.extend(SubfileId(i, s) for s in layout.block_slots(k))
            if full:
                slots.extend(SubfileId(i, s) for s in layout.block_slots(other))
            else:
                slots.extend(
                    SubfileId(i, s) for s in perms[(i, other)][: params.cross_size]
                )
        slots = tuple(sorted(slots))
        content = None
        if library is not None:
            content = {sid: subfile_value(library, layout, sid) for sid in slots}
        cache = CacheState(owner=k, slots=slots, content=content)
        cache.check(layout.subfile_bits, budget_bits=params.memory_point() * base.B)
        caches.append(cache)

    return PlacementB(params, layout, perms, caches, library)


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------


class PickExhausted(AssertionError):
    """The pick rule ran out of fresh subfiles; construction bug if ever raised."""


def plan_messages_b(k: int, placement: PlacementB, demands) -> list[tuple[None, tuple[SubfileId, ...]]]:
    """Compositions of transmitter k's messages, file subsets in lex order.

    Picks consume each block in permuted-index order; the receiver's
    demanded file draws from the non-cross block and every other file in
    the subset from the cross block.
    """
    params = placement.params
    if params.tprime is None:
        return []
    N = params.base.N
    d_other = demands[(3 - k) - 1]
    ncross = params.cross_size
    blocks = {i: placement.perms[(i, k)] for i in range(1, N + 1)}
    next_cross = dict.fromkeys(blocks, 0)  # consumed within permuted order
    next_noncross = dict.fromkeys(blocks, ncross)

    def pick(file: int, cross: bool) -> SubfileId:
        block = blocks[file]
        counter = next_cross if cross else next_noncross
        idx = counter[file]
        if idx >= (ncross if cross else len(block)):
            raise PickExhausted(f"file {file} {'cross' if cross else 'non-cross'}")
        counter[file] = idx + 1
        return SubfileId(file, block[idx])

    out = []
    for S in lex_subsets(range(1, N + 1), params.tprime + 1):
        contains_other = d_other in S
        comp = tuple(
            pick(i, cross=(contains_other and i != d_other)) for i in S
        )
        out.append((None, comp))
    if len(out) != binom(N, params.tprime + 1):
        raise AssertionError("message count off")
    return out


# ---------------------------------------------------------------------------
# load formulas
# ---------------------------------------------------------------------------


def load_b_point(N: int, tprime: int) -> tuple[Rat, Rat]:
    if not 0 <= tprime <= N - 1:
        raise ValueError(f"t' must lie in 0..{N - 1}")
    M = Fraction(N, 2) + Fraction(N * tprime, 2 * (N + tprime - 1))
    R = Fraction(N * (N - 1), (tprime + 1) * (N + tprime - 1))
    return M, R


def scheme_b_points(N: int) -> list[tuple[Rat, Rat]]:
    pts = [load_b_point(N, tp) for tp in range(N)]
    pts.append((Fraction(N), Fraction(0)))
    return pts


def scheme_b_curve(N: int) -> TradeoffCurve:
    tags = [f"schemeB(t'={tp})" for tp in range(N)] + ["schemeB(full)"]
    return lower_convex_envelope(scheme_b_points(N), provenance=tags)
