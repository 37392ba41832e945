"""Virtual-user private D2D caching scheme ("scheme A").

The network is split into K shared-link sub-systems, one per transmitter.
Sub-system k serves U = (K-1)*N effective users: the K-1 other real users
plus (K-1)(N-1) virtual users whose demands are assigned so that every
file is wanted by exactly K-1 effective users.  Placement permutes the
role of every subfile inside its per-transmitter block, delivery shuffles
the effective-user positions, and only multicast messages touching a
leader are transmitted.  Memory-load corner points:

    M = (N + t - 1) / K
    R = (binom(U, t) - binom(U - N, t)) / binom(U, t - 1),   t in [1 .. U+1].

Placement is ``core.place``; this module supplies the block shape, the
corner formula, the held pairs and the delivery plans.  The held pairs,
subset ranks and position sets use no randomness: ``structure_a(K, N,
t)`` builds them once per size.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .combinat import binom, binom_capped, binom_load_row, lower_convex_envelope, TradeoffCurve
from .core import (
    STRUCTURE_COUNT_CAP,
    CacheState,
    Placement,
    Rat,
    SchemeParams,
    SlotLayout,
    SubfileId,
    place,
)
from . import gf2


@dataclass(frozen=True)
class SchemeAParams(SchemeParams):
    """Scheme A at one (K, N, t)."""

    scheme = "A"
    t: int

    @property
    def param(self) -> int:
        return self.t

    @property
    def U(self) -> int:
        return (self.base.K - 1) * self.base.N

    @staticmethod
    def count_structure(K: int, N: int, t: int) -> int:
        """Check t, then count the subset ranks and position sets
        ``structure_a`` builds, K * binom(U, t-1) + binom(U, t), with each
        binomial capped at ``STRUCTURE_COUNT_CAP``."""
        U = (K - 1) * N
        if t is None or not 1 <= t <= U + 1:
            raise ValueError(f"t must lie in 1..{U + 1}, got {t}")
        return K * binom_capped(U, t - 1, STRUCTURE_COUNT_CAP) + binom_capped(U, t, STRUCTURE_COUNT_CAP)

    @staticmethod
    def shape(K: int, N: int, t: int) -> tuple[int, int]:
        """K blocks of binom(U, t-1) slots, one slot per (t-1)-subset of
        the transmitter's effective users (t admitted)."""
        return K, binom((K - 1) * N, t - 1)

    @staticmethod
    def corner(K: int, N: int, t: int) -> tuple[Rat, Rat]:
        return load_a_point(K, N, t)

    def label(self) -> str:
        return f"A(K={self.base.K},N={self.base.N},t={self.t})"

    def place(self, source) -> Placement:
        return place_a(self, source)

    def query_plans(self, placement: Placement, demands, source):
        """Each transmitter's (position set, composition) list, transmitters 1..K."""
        plan = plan_delivery_a(self, demands, source)
        return [plan_messages_a(k, placement, plan) for k in range(1, self.base.K + 1)]


def params_for(K: int, N: int, t: int, seed: int = 0, b_target: Optional[int] = None) -> SchemeAParams:
    """Build params with B auto-sized to the subpacketization."""
    return SchemeAParams.sized(K, N, t, seed, b_target)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureA:
    """The part of scheme A that uses no randomness, built once per
    (K, N, t) and shared by every placement and delivery of that size."""

    # transmitter -> bitmask of a (t-1)-subset of its effective users ->
    # 0-based lex rank of that subset
    rank: Mapping[int, Mapping[int, int]]
    # user -> the (transmitter, rank) pairs whose (t-1)-subset holds the user
    held: Mapping[int, tuple[tuple[int, int], ...]]
    # the lex t-subsets of positions 1..U
    position_sets: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)
def structure_a(K: int, N: int, t: int) -> StructureA:
    """Scheme A's randomness-free structure at (K, N, t), one shared copy
    per size (placements of any seed reuse it)."""
    users = range(1, (K - 1) * (N - 1) + K + 1)  # the effective-user universe
    rank = {}
    held: dict[int, list[tuple[int, int]]] = {u: [] for u in range(1, K + 1)}
    for k in range(1, K + 1):
        subsets = list(itertools.combinations([u for u in users if u != k], t - 1))
        rank[k] = MappingProxyType({_mask(w): j for j, w in enumerate(subsets)})
        for j, w in enumerate(subsets):
            for u in w:
                if u <= K:
                    held[u].append((k, j))
    U = (K - 1) * N
    position_sets = tuple(itertools.combinations(range(1, U + 1), t))
    return StructureA(
        MappingProxyType(rank),
        MappingProxyType({u: tuple(pairs) for u, pairs in held.items()}),
        position_sets,
    )


def _mask(users) -> int:
    mask = 0
    for u in users:
        mask |= 1 << u
    return mask


def place_a(params: SchemeAParams, source) -> Placement:
    base = params.base
    return place(params, source, structure_a(base.K, base.N, params.t).held)


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _virtual_demands(K: int, N: int, k: int, demands: tuple[int, ...]):
    """(effective demand map, read-only, and per-file sorted demander
    tuples indexed by file) for sub-system k.  Real users keep their
    demands; virtual users K+1, K+2, ... are handed out in order, file 1
    first, each file taking as many as make it demanded by exactly K-1
    effective users.  The map's keys ascend: real users, then virtual
    ones.  The per-file count is checked whenever a map is built."""
    d_eff = {u: demands[u - 1] for u in range(1, K + 1) if u != k}
    counts = [0] * (N + 1)
    for f in d_eff.values():
        counts[f] += 1
    virtual = []  # the file of virtual user K+1, K+2, ...
    for i in range(1, N + 1):
        virtual += [i] * (K - 1 - counts[i])
    d_eff.update(enumerate(virtual, K + 1))

    by_file: list[list[int]] = [[] for _ in range(N + 1)]
    for u, f in d_eff.items():  # ascending: real users, then virtual ones
        by_file[f].append(u)
    demanders = tuple(map(tuple, by_file))
    if any(len(us) != K - 1 for us in demanders[1:]):
        raise AssertionError(f"virtual demand assignment broken: {[len(us) for us in demanders[1:]]}")
    return MappingProxyType(d_eff), demanders


@dataclass
class TransmitterPlanA:
    d_eff: Mapping[int, int]
    leaders: frozenset[int]
    q: tuple[int, ...]  # position j (1-based) -> effective user


def plan_delivery_a(params: SchemeAParams, demands, source) -> dict[int, TransmitterPlanA]:
    """Per-transmitter virtual demands, leaders, and position shuffle,
    keyed by transmitter 1..K.  The first outcome of every draw is the
    non-private baseline: the identity shuffle (the effective users are
    ascending) and each file's lowest-index demander as leader."""
    K, N = params.base.K, params.base.N
    per = {}
    for k in range(1, K + 1):
        d_eff, demanders = _virtual_demands(K, N, k, tuple(demands))
        leaders = frozenset(source.choice(("A", "leader", k, i), demanders[i])
                            for i in range(1, N + 1))
        q = source.permutation(("A", "q", k), list(d_eff))
        per[k] = TransmitterPlanA(d_eff, leaders, tuple(q))
    return per


def plan_messages_a(
    k: int, placement: Placement, plan: dict[int, TransmitterPlanA]
) -> list[tuple[tuple[int, ...], tuple[SubfileId, ...]]]:
    """Compositions of transmitter k's messages, in position-set lex order.

    For every t-subset S of positions, the message XORs, for each j in S,
    the placement's id of user q[j]'s file indexed by the other chosen
    users; only messages whose user set meets the leader set are kept.
    """
    params = placement.params
    tp = plan[k]
    t = params.t
    structure = structure_a(params.base.K, params.base.N, t)
    rank = structure.rank[k]
    # position j -> the bit of user q[j] and block k of its file's ids
    bits = [0, *[1 << u for u in tp.q]]
    ids = [(), *[placement.perms[(tp.d_eff[u], k)] for u in tp.q]]
    leader_mask = _mask(tp.leaders)
    out = []
    for S in structure.position_sets:
        mask = 0
        for j in S:
            mask |= bits[j]
        if mask & leader_mask:
            out.append((S, tuple([ids[j][rank[mask ^ bits[j]]] for j in S])))
    expected = binom(params.U, t) - binom(params.U - params.base.N, t)
    if len(out) != expected:
        raise AssertionError(f"kept {len(out)} messages, expected {expected}")
    return out


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


class DecodingFailure(Exception):
    def __init__(self, user: int, sid: SubfileId):
        self.user = user
        self.sid = sid
        super().__init__(f"user {user} could not recover subfile {sid.file}:{sid.slot}")


@dataclass(frozen=True)
class MessageIndex:
    """The messages of one transcript, keyed once and read by every
    receiver.  Subfile (f, s) is the int key f * slots_per_file + s.
    ``systems`` holds one (sender, rows, present) entry per sender,
    in order of first appearance: ``rows`` lists its messages as (keys of
    the composition, payload), and ``present`` is the sorted distinct
    keys the rows name."""

    layout: SlotLayout
    systems: tuple[tuple[int, list[tuple[list[int], int]], list[int]], ...]


def index_messages(messages, layout: SlotLayout) -> MessageIndex:
    """Key every message's composition for ``decode_from_messages``.
    Raises ValueError for a subfile outside the layout."""
    N, S = layout.N, layout.slots_per_file
    by_sender: dict[int, list[tuple[list[int], int]]] = {}
    for m in messages:
        keys = []
        for f, s in m.composition:
            if not (0 < f <= N and 0 < s <= S):
                raise ValueError(f"message from {m.sender} names subfile {f}:{s} outside the layout")
            keys.append(f * S + s)
        by_sender.setdefault(m.sender, []).append((keys, m.payload))
    return MessageIndex(layout, tuple(
        (sender, rows, sorted({k for keys, _ in rows for k in keys}))
        for sender, rows in by_sender.items()
    ))


def decode_from_messages(
    user, index: MessageIndex, cache: CacheState, demand: int, layout: SlotLayout
) -> int:
    """Recover the demanded file from broadcasts plus the local cache.

    Works for both schemes: every message of ``index`` (built by
    ``index_messages`` over ``layout``) is an XOR equation over the
    receiver's unknown subfiles.  The equations of each transmitter form
    one system, which ``gf2.solve_xor_system`` solves by one GF(2)
    elimination for the demanded file's unknowns in it, and the file is
    assembled from cache plus solutions.  Every message is checked against
    the cache before any system is solved.  Raises DecodingFailure naming
    the first slot the broadcasts do not determine, and ValueError when a
    payload contradicts the cache or the other payloads, or two senders
    solve a subfile to different values.
    """
    if index.layout != layout:
        raise ValueError("message index built for another slot layout")
    S = layout.slots_per_file
    values: list[Optional[int]] = [None] * ((layout.N + 1) * S + 1)
    for (f, s), value in cache.content.items():
        values[f * S + s] = value
    base = demand * S  # slot s of the demanded file is key base + s

    systems = []
    for sender, rows, present in index.systems:
        eqs = []
        for keys, rhs in rows:
            unknowns = []
            for k in keys:
                value = values[k]
                if value is None:
                    unknowns.append(k)
                else:
                    rhs ^= value
            if unknowns:
                eqs.append((unknowns, rhs))
            elif rhs:
                raise ValueError(f"message from {sender} inconsistent with cache")
        if eqs:
            wanted = present[bisect_right(present, base):bisect_right(present, base + S)]
            systems.append((eqs, [k for k in wanted if values[k] is None]))

    solved: dict[int, int] = {}
    for eqs, wanted in systems:
        for k, value in gf2.solve_xor_system(eqs, wanted).items():
            if solved.setdefault(k, value) != value:
                raise ValueError(f"senders disagree on subfile {demand}:{k - base}")

    slots = {}
    for s in range(1, S + 1):
        value = values[base + s]
        if value is None:
            value = solved.get(base + s)
            if value is None:
                raise DecodingFailure(user, SubfileId(demand, s))
        slots[s] = value
    from .core import assemble_file

    return assemble_file(layout, slots)


# ---------------------------------------------------------------------------
# load formulas
# ---------------------------------------------------------------------------


def load_a_point(K: int, N: int, t: int) -> tuple[Rat, Rat]:
    """Memory-load corner of the virtual-user scheme at parameter t."""
    U = (K - 1) * N
    if not 1 <= t <= U + 1:
        raise ValueError(f"t must lie in 1..{U + 1}")
    M = Fraction(N + t - 1, K)
    R = Fraction(binom(U, t) - binom(U - N, t), binom(U, t - 1))
    return M, R


def scheme_a_curve(K: int, N: int) -> TradeoffCurve:
    """The envelope of every ``load_a_point``, its loads from one walk
    along the binomial row."""
    loads = enumerate(binom_load_row((K - 1) * N, N), start=1)
    return lower_convex_envelope([(Fraction(N + t - 1, K), R) for t, R in loads],
                                 provenance=[f"schemeA(t={t})" for t in range(1, (K - 1) * N + 2)])
