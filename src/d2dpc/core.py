"""Shared domain types for the D2D private-caching toolkit.

Everything downstream (scheme engines, protocol simulator, bound
evaluators, privacy checks) builds on the types in this module:

* exact rationals for every memory/load quantity (``fractions.Fraction``
  behind the ``Rat`` alias -- envelope intersections and gap ratios must
  be compared exactly, never in floating point),
* bit buffers held as Python ints (bit i of a file is ``(buf >> i) & 1``),
* a labelled deterministic randomness source, so that every "randomly
  generate" step of a scheme can be replayed or exhaustively enumerated.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

Rat = Fraction


def rat(num, den=1) -> Rat:
    """Exact rational; Fraction already normalises sign and lowest terms."""
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------


class RandomStream:
    """Deterministic random stream derived from a (seed, label) pair.

    Identical (seed, label) pairs give identical streams; distinct labels
    give streams that behave independently.  Backed by ``random.Random``
    keyed with SHA-256 of the pair, so streams are stable across runs.
    """

    def __init__(self, seed: int, label):
        if isinstance(label, str):
            label = label.encode()
        digest = hashlib.sha256(
            seed.to_bytes(8, "big", signed=True) + b"|" + bytes(label)
        ).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))

    def bytes(self, n: int) -> bytes:
        return self._rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def bits(self, n: int) -> int:
        """n i.i.d. uniform bits packed into an int (0 <= result < 2**n)."""
        return self._rng.getrandbits(n) if n else 0

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def choice(self, seq):
        return seq[self._rng.randrange(len(seq))]


def seeded_rng(seed: int, stream_label) -> RandomStream:
    return RandomStream(seed, stream_label)


def derive_seed(seed: int, label) -> int:
    """A fresh 63-bit seed for an independent child context (e.g. MC trials)."""
    if isinstance(label, str):
        label = label.encode()
    digest = hashlib.sha256(
        seed.to_bytes(8, "big", signed=True) + b"#" + bytes(label)
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class SeededSource:
    """Labelled randomness for scheme runs: every draw gets its own stream.

    A permutation request with the same (seed, label) always returns the
    same arrangement, and per-label streams are what the exhaustive
    privacy checker replaces with explicit assignments.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def _stream(self, label) -> RandomStream:
        return seeded_rng(self.seed, str(label))

    def permutation(self, label, items: list) -> list:
        stream = self._stream(label)
        out = list(items)
        for i in range(len(out) - 1, 0, -1):  # Fisher-Yates
            j = stream.randrange(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, label, options: list):
        return options[self._stream(label).randrange(len(options))]


class FixedSource:
    """Replays an explicit assignment label -> drawn value (enumeration)."""

    def __init__(self, assignment: dict):
        self.assignment = assignment

    def permutation(self, label, items: list) -> list:
        value = list(self.assignment[label])
        if sorted(value) != sorted(items):
            raise ValueError(f"assignment for {label} is not a permutation of items")
        return value

    def choice(self, label, options: list):
        value = self.assignment[label]
        if value not in options:
            raise ValueError(f"assignment for {label} not among options")
        return value


def block_permutations(scheme: str, layout: SlotLayout, source) -> dict[tuple[int, int], tuple[int, ...]]:
    """Placement draw shared by the schemes: one shuffle of the slots of
    every (file, block), labelled (scheme, "p", file, block)."""
    return {
        (i, k): tuple(source.permutation((scheme, "p", i, k), list(layout.block_slots(k))))
        for i in range(1, layout.N + 1)
        for k in range(1, layout.blocks + 1)
    }


def block_permutation_atoms(scheme: str, layout: SlotLayout) -> list:
    """Every value ``block_permutations`` can draw, as (label, options)
    atoms for exhaustive enumeration."""
    return [
        ((scheme, "p", i, k), list(itertools.permutations(layout.block_slots(k))))
        for i in range(1, layout.N + 1)
        for k in range(1, layout.blocks + 1)
    ]


# ---------------------------------------------------------------------------
# problem instance
# ---------------------------------------------------------------------------


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` fits the signed 64 bits that
    every random stream is keyed with."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed}")


@dataclass(frozen=True)
class SystemParams:
    """A (K, N) caching instance: K users, N files of B bits each."""

    K: int
    N: int
    B: int
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        if min(self.K, self.N) < 2:
            raise ValueError(f"need min(K, N) >= 2, got K={self.K}, N={self.N}")
        if self.B < 1:
            raise ValueError(f"file size must be positive, got B={self.B}")


def resolve_file_size(subpacketization: int, target_bits: Optional[int] = None) -> int:
    """Smallest multiple of the subpacketization >= the requested size.

    The default target is one bit per subfile, which is enough for the
    bit-exact checks because all operations are per-subfile XORs.
    """
    if target_bits is None or target_bits < subpacketization:
        target_bits = subpacketization
    q, r = divmod(target_bits, subpacketization)
    return subpacketization * (q + (1 if r else 0))


def random_library(params: SystemParams) -> dict[int, int]:
    """N files of B i.i.d. uniform bits each, keyed by file index 1..N."""
    stream = seeded_rng(params.seed, "library")
    return {i: stream.bits(params.B) for i in range(1, params.N + 1)}


# ---------------------------------------------------------------------------
# subfiles, caches, messages, transcripts
# ---------------------------------------------------------------------------


class SubfileId(NamedTuple):
    file: int  # 1..N
    slot: int  # 1..slots_per_file, scheme-specific slot space


@dataclass(frozen=True)
class SlotLayout:
    """Public structure of a scheme's slot space.

    Slots of every file are grouped into ``blocks`` equal blocks of
    ``slots_per_block`` slots; block membership is public (it is implied
    by the slot index), while the role of a slot inside its block is
    hidden by the placement permutations.
    """

    N: int
    blocks: int
    slots_per_block: int
    subfile_bits: int

    @property
    def slots_per_file(self) -> int:
        return self.blocks * self.slots_per_block

    def block_of(self, slot: int) -> int:
        return (slot - 1) // self.slots_per_block + 1

    def block_slots(self, block: int) -> range:
        lo = (block - 1) * self.slots_per_block + 1
        return range(lo, lo + self.slots_per_block)


@dataclass
class CacheState:
    """One user's cache: slot metadata plus (optionally) the cached bits."""

    owner: int
    slots: tuple[SubfileId, ...]
    content: Optional[dict[SubfileId, int]] = None

    def check(self, subfile_bits: int, budget_bits: Optional[Rat] = None):
        if self.content is not None:
            if set(self.content) != set(self.slots):
                raise ValueError("cache metadata and content disagree")
        total = len(self.slots) * subfile_bits
        if budget_bits is not None and total > budget_bits:
            raise ValueError(
                f"user {self.owner} caches {total} bits > budget {budget_bits}"
            )
        return total


@dataclass
class MulticastMessage:
    """One XOR broadcast: revealed composition header plus the payload.

    ``composition`` orders the XORed subfiles the way the transmission
    header lists them; for the virtual-user scheme that order follows the
    revealed position set, which is also kept here.  ``payload`` is None
    in structure-only runs (privacy checks never look at payload bits).
    """

    sender: int
    composition: tuple[SubfileId, ...]
    payload: Optional[int]
    nbits: int
    position_set: Optional[tuple[int, ...]] = None


def demand_vector(demands: Iterable[int], params: SystemParams) -> tuple[int, ...]:
    d = tuple(int(x) for x in demands)
    if len(d) != params.K:
        raise ValueError(f"demand vector must have length K={params.K}, got {len(d)}")
    if any(not 1 <= x <= params.N for x in d):
        raise ValueError(f"demands must lie in 1..{params.N}: {d}")
    return d


@dataclass
class Transcript:
    """Everything one protocol run produced."""

    params: SystemParams
    scheme: str  # "A" or "B"
    scheme_param: Optional[int]  # t for scheme A, t' for scheme B (None = full memory)
    memory_point: Rat
    library: Optional[dict[int, int]]
    caches: list[CacheState]
    demands: tuple[int, ...]
    broadcasts: list[list[MulticastMessage]]
    layout: SlotLayout
    payload_bits: int = 0
    metadata_bytes: int = 0
    queries: list = field(default_factory=list, repr=False, compare=False)

    def all_messages(self) -> list[MulticastMessage]:
        return [m for per_user in self.broadcasts for m in per_user]


def subfile_value(library: dict[int, int], layout: SlotLayout, sid: SubfileId) -> int:
    """Bits of one subfile, extracted from the file buffer."""
    ell = layout.subfile_bits
    return (library[sid.file] >> ((sid.slot - 1) * ell)) & ((1 << ell) - 1)


def assemble_file(layout: SlotLayout, slots: dict[int, int]) -> int:
    """Inverse of subfile extraction: slot index -> value, for all slots."""
    ell = layout.subfile_bits
    out = 0
    for s in range(1, layout.slots_per_file + 1):
        out |= slots[s] << ((s - 1) * ell)
    return out


# ---------------------------------------------------------------------------
# line-oriented transcript text format (golden-file tests)
# ---------------------------------------------------------------------------


def _hex(value: int, nbits: int) -> str:
    width = max(1, (nbits + 3) // 4)
    return format(value, f"0{width}x")


def _composition_str(comp: tuple[SubfileId, ...]) -> str:
    return ",".join(f"{sid.file}:{sid.slot}" for sid in comp)


def message_header_text(msg: MulticastMessage) -> str:
    pos = ",".join(map(str, msg.position_set)) if msg.position_set else "-"
    return f"pos={pos} comp={_composition_str(msg.composition)}"


def transcript_to_text(tr: Transcript) -> str:
    """Serialise a full transcript, one message per line."""
    if tr.library is None:
        raise ValueError("cannot serialise a structure-only transcript")
    p = tr.params
    lines = [
        "d2d-transcript 1",
        f"scheme={tr.scheme} K={p.K} N={p.N} B={p.B} seed={p.seed} "
        f"param={'-' if tr.scheme_param is None else tr.scheme_param} "
        f"M={tr.memory_point} demands={','.join(map(str, tr.demands))} "
        f"subfile_bits={tr.layout.subfile_bits} blocks={tr.layout.blocks} "
        f"slots_per_block={tr.layout.slots_per_block}",
    ]
    for i in sorted(tr.library):
        lines.append(f"library {i} {_hex(tr.library[i], p.B)}")
    for cache in tr.caches:
        body = " ".join(
            f"{sid.file}:{sid.slot}={_hex(cache.content[sid], tr.layout.subfile_bits)}"
            for sid in cache.slots
        )
        lines.append(f"cache {cache.owner} {body}")
    for per_user in tr.broadcasts:
        for m in per_user:
            lines.append(
                f"message {m.sender} {message_header_text(m)} "
                f"payload={_hex(m.payload, m.nbits)}"
            )
    lines.append(f"payload_bits={tr.payload_bits}")
    return "\n".join(lines) + "\n"


def _parse_sid(token: str) -> SubfileId:
    f, s = token.split(":")
    return SubfileId(int(f), int(s))


_HEADER_KEYS = (
    "scheme", "K", "N", "B", "seed", "param", "M", "demands",
    "subfile_bits", "blocks", "slots_per_block",
)


def transcript_from_text(text: str) -> Transcript:
    """Inverse of ``transcript_to_text``; malformed or truncated text
    raises ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "d2d-transcript 1":
        raise ValueError("not a transcript file")
    if len(lines) < 3 or not lines[-1].startswith("payload_bits="):
        raise ValueError("truncated transcript: it does not end with its payload_bits= line")
    head = dict(kv.split("=", 1) for kv in lines[1].split())
    missing = [key for key in _HEADER_KEYS if key not in head]
    if missing:
        raise ValueError(f"transcript header lacks {', '.join(missing)}")
    params = SystemParams(
        K=int(head["K"]), N=int(head["N"]), B=int(head["B"]), seed=int(head["seed"])
    )
    layout = SlotLayout(
        N=params.N,
        blocks=int(head["blocks"]),
        slots_per_block=int(head["slots_per_block"]),
        subfile_bits=int(head["subfile_bits"]),
    )
    library: dict[int, int] = {}
    caches: list[CacheState] = []
    broadcasts: list[list[MulticastMessage]] = [[] for _ in range(params.K)]
    payload_bits = 0
    for ln in lines[2:]:
        kind, _, rest = ln.partition(" ")
        if kind == "library":
            idx, buf = rest.split()
            library[int(idx)] = int(buf, 16)
        elif kind == "cache":
            owner_s, _, body = rest.partition(" ")
            content = {}
            for item in body.split():
                sid_s, val = item.split("=")
                content[_parse_sid(sid_s)] = int(val, 16)
            slots = tuple(sorted(content))
            caches.append(CacheState(int(owner_s), slots, content))
        elif kind == "message":
            sender_s, pos_s, comp_s, pay_s = rest.split()
            sender = int(sender_s)
            if not 1 <= sender <= params.K:
                raise ValueError(f"message sender {sender} outside 1..{params.K}")
            pos_v = pos_s.split("=", 1)[1]
            pos = None if pos_v == "-" else tuple(int(x) for x in pos_v.split(","))
            comp = tuple(_parse_sid(t) for t in comp_s.split("=", 1)[1].split(","))
            payload = int(pay_s.split("=", 1)[1], 16)
            broadcasts[sender - 1].append(
                MulticastMessage(sender, comp, payload, layout.subfile_bits, pos)
            )
        elif kind.startswith("payload_bits"):
            payload_bits = int(kind.split("=", 1)[1])
    if payload_bits != sum(m.nbits for per in broadcasts for m in per):
        raise ValueError(f"payload_bits={payload_bits} disagrees with the messages")
    param_s = head["param"]
    return Transcript(
        params=params,
        scheme=head["scheme"],
        scheme_param=None if param_s == "-" else int(param_s),
        memory_point=Fraction(head["M"]),
        library=library,
        caches=caches,
        demands=tuple(int(x) for x in head["demands"].split(",")),
        broadcasts=broadcasts,
        layout=layout,
        payload_bits=payload_bits,
    )
