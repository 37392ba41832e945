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
    random_library,
    resolve_file_size,
    subfile_value,
)
from . import gf2


@dataclass(frozen=True)
class SchemeAParams:
    base: SystemParams
    t: int

    def __post_init__(self):
        K, N = self.base.K, self.base.N
        U = (K - 1) * N
        object.__setattr__(self, "U", U)
        if not 1 <= self.t <= U + 1:
            raise ValueError(f"t must lie in 1..{U + 1}, got {self.t}")
        block = binom(U, self.t - 1)
        object.__setattr__(self, "block_size", block)
        object.__setattr__(self, "subpacketization", K * block)
        object.__setattr__(self, "effective_universe", (K - 1) * (N - 1) + K)
        if self.base.B % self.subpacketization:
            raise ValueError(
                f"B={self.base.B} not divisible by the subpacketization "
                f"K*binom(U, t-1) = {self.subpacketization}"
            )
        object.__setattr__(
            self,
            "_layout",
            SlotLayout(
                N=N,
                blocks=K,
                slots_per_block=block,
                subfile_bits=self.base.B // (K * block),
            ),
        )
        object.__setattr__(self, "_memory_point", Fraction(N + self.t - 1, K))

    def effective_users(self, k: int) -> list[int]:
        return [u for u in range(1, self.effective_universe + 1) if u != k]

    def layout(self) -> SlotLayout:
        return self._layout

    def memory_point(self) -> Rat:
        return self._memory_point


def params_for(K: int, N: int, t: int, seed: int = 0, b_target: Optional[int] = None) -> SchemeAParams:
    """Build params with B auto-sized to the subpacketization."""
    U = (K - 1) * N
    if not 1 <= t <= U + 1:
        raise ValueError(f"t must lie in 1..{U + 1}, got {t}")
    sub = K * binom(U, t - 1)
    base = SystemParams(K=K, N=N, B=resolve_file_size(sub, b_target), seed=seed)
    return SchemeAParams(base=base, t=t)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass
class PlacementA:
    params: SchemeAParams
    layout: SlotLayout
    # (file, transmitter) -> permuted tuple of that block's slot ids; entry
    # j-1 is the physical slot playing the role of the j-th lex (t-1)-subset
    perms: dict[tuple[int, int], tuple[int, ...]]
    wsets: dict[int, list[tuple[int, ...]]]  # transmitter -> lex (t-1)-subsets
    wrank: dict[int, dict[tuple[int, ...], int]]
    caches: list[CacheState]
    library: Optional[dict[int, int]]

    def slot_of(self, transmitter: int, file: int, wset) -> SubfileId:
        j = self.wrank[transmitter][tuple(sorted(wset))]
        return SubfileId(file, self.perms[(file, transmitter)][j - 1])


def place_a(params: SchemeAParams, source, structure_only: bool = False) -> PlacementA:
    base = params.base
    K, N = base.K, base.N
    layout = params.layout()
    library = None if structure_only else random_library(base)

    perms: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(1, N + 1):
        for k in range(1, K + 1):
            block = list(layout.block_slots(k))
            perms[(i, k)] = tuple(source.permutation(("A", "p", i, k), block))

    wsets = {}
    wrank = {}
    for k in range(1, K + 1):
        subsets = lex_subsets(params.effective_users(k), params.t - 1)
        wsets[k] = subsets
        wrank[k] = {w: j + 1 for j, w in enumerate(subsets)}

    caches = []
    for k in range(1, K + 1):
        slots: list[SubfileId] = []
        for i in range(1, N + 1):
            slots.extend(SubfileId(i, s) for s in layout.block_slots(k))
            for other in range(1, K + 1):
                if other == k:
                    continue
                for j, w in enumerate(wsets[other]):
                    if k in w:
                        slots.append(SubfileId(i, perms[(i, other)][j]))
        slots = tuple(sorted(slots))
        content = None
        if library is not None:
            content = {sid: subfile_value(library, layout, sid) for sid in slots}
        cache = CacheState(owner=k, slots=slots, content=content)
        cache.check(layout.subfile_bits, budget_bits=params.memory_point() * base.B)
        caches.append(cache)

    return PlacementA(params, layout, perms, wsets, wrank, caches, library)


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------


def assign_virtual_demands(k: int, demands, params: SchemeAParams) -> dict[int, int]:
    """Effective demand map for sub-system k.

    Real users keep their demands; virtual users receive files in
    contiguous blocks sized so every file ends up demanded by exactly
    K-1 effective users.  That count is re-checked on every call because
    the block index arithmetic is easy to get wrong silently.
    """
    K, N = params.base.K, params.base.N
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

    per_file = [0] * (N + 1)
    for f in d_eff.values():
        per_file[f] += 1
    if any(c != K - 1 for c in per_file[1:]):
        raise AssertionError(f"virtual demand assignment broken: {per_file[1:]}")
    if len(d_eff) != params.U:
        raise AssertionError("effective user set mistiled")
    return d_eff


@dataclass
class TransmitterPlanA:
    transmitter: int
    d_eff: dict[int, int]
    leaders: frozenset[int]
    q: tuple[int, ...]  # position j (1-based) -> effective user


@dataclass
class DeliveryPlanA:
    params: SchemeAParams
    demands: tuple[int, ...]
    per_transmitter: dict[int, TransmitterPlanA]


def plan_delivery_a(
    params: SchemeAParams, demands, source, derandomized: bool = False
) -> DeliveryPlanA:
    """Per-transmitter virtual demands, leaders, and position shuffle.

    ``derandomized`` gives the intentionally non-private baseline: the
    position shuffle becomes the identity and the per-file leader is the
    lowest-index demander.
    """
    K, N = params.base.K, params.base.N
    per = {}
    for k in range(1, K + 1):
        d_eff = assign_virtual_demands(k, demands, params)
        leaders = set()
        for i in range(1, N + 1):
            demanders = sorted(u for u, f in d_eff.items() if f == i)
            if derandomized:
                leaders.add(demanders[0])
            else:
                leaders.add(source.choice(("A", "leader", k, i), demanders))
        users = params.effective_users(k)
        q = users if derandomized else source.permutation(("A", "q", k), users)
        per[k] = TransmitterPlanA(k, d_eff, frozenset(leaders), tuple(q))
    return DeliveryPlanA(params, tuple(demands), per)


def plan_messages_a(
    k: int, placement: PlacementA, plan: DeliveryPlanA
) -> list[tuple[tuple[int, ...], tuple[SubfileId, ...]]]:
    """Compositions of transmitter k's messages, in position-set lex order.

    For every t-subset S of positions, the message XORs, for each j in S,
    the subfile of user q[j]'s file indexed by the other chosen users;
    only messages whose user set meets the leader set are kept.
    """
    params = placement.params
    tp = plan.per_transmitter[k]
    t = params.t
    if t > params.U:  # full-memory point: every user holds everything
        return []
    out = []
    for S in lex_subsets(range(1, params.U + 1), t):
        users = tuple(tp.q[j - 1] for j in S)
        if not (set(users) & tp.leaders):
            continue
        comp = []
        uset = set(users)
        for u in users:
            wset = uset - {u}
            comp.append(placement.slot_of(k, tp.d_eff[u], wset))
        out.append((S, tuple(comp)))
    expected = binom(params.U, t) - binom(params.U - params.base.N, t)
    if len(out) != expected:
        raise AssertionError(f"kept {len(out)} messages, expected {expected}")
    return out


def placement_randomness_a(params: SchemeAParams):
    """Placement atoms (demand-independent): one block permutation per
    (file, transmitter).  The exhaustive checker products the options."""
    from itertools import permutations

    K, N = params.base.K, params.base.N
    layout = params.layout()
    atoms = []
    for i in range(1, N + 1):
        for k in range(1, K + 1):
            block = tuple(layout.block_slots(k))
            atoms.append((("A", "p", i, k), [tuple(p) for p in permutations(block)]))
    return atoms


def delivery_randomness_a(params: SchemeAParams, demands, derandomized: bool = False):
    """Delivery atoms: position shuffle and per-file leader choice."""
    from itertools import permutations

    K, N = params.base.K, params.base.N
    atoms = []
    if derandomized:
        return atoms
    for k in range(1, K + 1):
        users = params.effective_users(k)
        atoms.append((("A", "q", k), [tuple(p) for p in permutations(users)]))
        d_eff = assign_virtual_demands(k, demands, params)
        for i in range(1, N + 1):
            demanders = sorted(u for u, f in d_eff.items() if f == i)
            atoms.append((("A", "leader", k, i), demanders))
    return atoms


def randomness_space_a(params: SchemeAParams, demands, derandomized: bool = False):
    return placement_randomness_a(params) + delivery_randomness_a(
        params, demands, derandomized
    )


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


class DecodingFailure(Exception):
    def __init__(self, user: int, sid: SubfileId):
        self.user = user
        self.sid = sid
        super().__init__(f"user {user} could not recover subfile {sid.file}:{sid.slot}")


def decode_from_messages(user, messages, cache: CacheState, demand: int, layout: SlotLayout) -> int:
    """Recover the demanded file from broadcasts plus the local cache.

    Works for both schemes: every message is an XOR equation over the
    receiver's unknown subfiles.  The equations of each transmitter are
    solved on their own by ``gf2.solve_xor_system`` (peel single-unknown
    equations, split the rest into connected components, eliminate each
    component), and the file is assembled from cache plus solutions.
    Raises DecodingFailure naming the first slot the broadcasts do not
    determine, and ValueError when a payload contradicts the cache or the
    other payloads.
    """
    known = cache.content
    if known is None:
        raise ValueError("decoding needs cache content (not a structure-only run)")
    by_sender: dict[int, list[tuple[set, int]]] = {}
    for m in messages:
        rhs = m.payload
        unknowns = set()
        for sid in m.composition:
            if sid in known:
                rhs ^= known[sid]
            else:
                unknowns.add(sid)
        if unknowns:
            by_sender.setdefault(m.sender, []).append((unknowns, rhs))
        elif rhs:
            raise ValueError(f"message from {m.sender} inconsistent with cache")

    solved: dict[SubfileId, int] = {}
    for eqs in by_sender.values():
        solved.update(gf2.solve_xor_system(eqs))

    slots = {}
    for s in range(1, layout.slots_per_file + 1):
        sid = SubfileId(demand, s)
        if sid in known:
            slots[s] = known[sid]
        elif sid in solved:
            slots[s] = solved[sid]
        else:
            raise DecodingFailure(user, sid)
    from .core import assemble_file

    return assemble_file(layout, slots)


def decode_a(user: int, messages, cache: CacheState, demand: int, layout: SlotLayout) -> int:
    return decode_from_messages(user, messages, cache, demand, layout)


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


def load_a_upper(K: int, N: int, t: int) -> Rat:
    """Simple upper bound (U - t + 1)/t on the load at the same memory."""
    U = (K - 1) * N
    return Fraction(U - t + 1, t)


def scheme_a_points(K: int, N: int) -> list[tuple[Rat, Rat]]:
    U = (K - 1) * N
    return [load_a_point(K, N, t) for t in range(1, U + 2)]


def scheme_a_curve(K: int, N: int) -> TradeoffCurve:
    U = (K - 1) * N
    pts = scheme_a_points(K, N)
    return lower_convex_envelope(
        pts, provenance=[f"schemeA(t={t})" for t in range(1, U + 2)]
    )
