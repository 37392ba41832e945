"""Shared domain types for the D2D private-caching toolkit.

Everything downstream (scheme engines, protocol simulator, bound
evaluators, privacy checks) builds on the types in this module:

* exact rationals for every memory/load quantity (``fractions.Fraction``
  behind the ``Rat`` alias -- envelope intersections and gap ratios must
  be compared exactly, never in floating point),
* bit buffers held as Python ints (bit i of a file is ``(buf >> i) & 1``;
  slot s of a file is its bits [(s-1)l, sl), l the subfile size),
* labelled deterministic randomness sources, each answering every draw
  with its one ``draw(label, kind, outcomes)``, a permutation of the
  outcomes or a choice among them, so that every "randomly generate"
  step of a scheme can be replayed or exhaustively enumerated,
* the skeleton both schemes share: the ``SchemeParams`` base,
  ``scheme_class(letter)``, the one letter -> class lookup that ``sim``,
  ``cli`` and the transcript parser share, and the uncoded placement
  ``place``, whose ``SubfileId`` objects are the one id per (file, slot)
  of a run that caches and message compositions hold (a lint in
  ``tests/test_lint.py`` allows ``SubfileId(...)`` only in ``place``,
  the parser's ``_parse_sid`` and the decoder's ``DecodingFailure``),
* the transcript wire format: ``transcript_to_text`` and its inverse
  ``transcript_from_text`` (README, *Transcript format*).
"""

from __future__ import annotations

import binascii
import functools
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

Rat = Fraction


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------


def seeded_rng(seed: int, stream_label: str) -> random.Random:
    """Deterministic random stream derived from a (seed, label) pair.

    Identical (seed, label) pairs give identical streams; distinct labels
    give streams that behave independently.  The ``random.Random`` is
    keyed with SHA-256 of the pair, so streams are stable across runs.
    The label is a ``str``: no other type may alias a string's stream.
    """
    if not isinstance(stream_label, str):
        raise TypeError(f"stream label must be a str, got {type(stream_label).__name__}")
    key = hashlib.sha256(seed.to_bytes(8, "big", signed=True) + b"|" + stream_label.encode())
    return random.Random(int.from_bytes(key.digest(), "big"))


def _bounds(kind: str, xs):
    """The bound n of every ``_randbelow(n)`` that the stdlib's ``shuffle``
    (m items: m, m - 1, ..., 2) or ``choice`` (one, also of 1) of ``xs``
    makes, in order."""
    if kind == "permutation":
        return range(len(xs), 1, -1)
    if not xs:
        raise IndexError("cannot choose from an empty sequence")
    return (len(xs),)


def draw_indices(bounds, getrandbits) -> list[int]:
    """``_randbelow(n)`` for each bound n in turn, inlined as CPython draws
    it: ``getrandbits(n.bit_length())`` again until below n."""
    out = []
    append = out.append
    for n in bounds:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r)
    return out


def _replay(kind: str, xs, indices):
    """The library's one shuffle and one choice: a permutation of ``xs``
    swaps position i with each index in turn, i from the last down to 1,
    as ``random.shuffle`` does; a choice is ``xs[index]``."""
    if kind == "choice":
        return xs[indices[0]]
    out = list(xs)
    i = len(out) - 1
    for j in indices:
        out[i], out[j] = out[j], out[i]
        i -= 1
    return out


class SeededSource:
    """Labelled randomness for scheme runs: every draw gets its own stream.

    A permutation request with the same (seed, label) always returns the
    same arrangement, and per-label streams are what the exhaustive
    privacy checker replaces with explicit assignments.  A draw is the
    stdlib's ``shuffle`` or ``choice`` on its stream, drawn inline.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def draw(self, label, kind: str, outcomes):
        getrandbits = seeded_rng(self.seed, str(label)).getrandbits
        return _replay(kind, outcomes, draw_indices(_bounds(kind, outcomes), getrandbits))


class FixedSource:
    """Replays an explicit assignment label -> drawn value (enumeration).

    Strict: a draw with no assigned value raises KeyError, and one whose
    value is not among its outcomes ValueError.
    """

    def __init__(self, assignment: dict):
        self.assignment = assignment

    def draw(self, label, kind: str, outcomes):
        value = self.assignment[label]
        if kind == "permutation":
            value = list(value)
            if sorted(value) != sorted(outcomes):
                raise ValueError(f"assignment for {label} is not a permutation of items")
        elif value not in outcomes:
            raise ValueError(f"assignment for {label} not among options")
        return value


class RecordingSource:
    """Records the draws a scheme makes, so a check draws exactly those:
    each is kept as ``delivery_draws`` declares it, (label, kind, outcomes
    as a tuple), and answered with its first outcome.

    Replaying the recorded draws is sound because no draw's label or
    outcomes depend on the values drawn before it, and that holds by
    construction: the placement draws one permutation of each (file,
    block)'s fixed slots, and a query lists every draw of its delivery
    (``SchemeParams.delivery_draws``) before it draws any.

    ``point`` maps the int keys ``range(size())`` one-to-one onto the
    recorded space: a key is the draws' ``_randbelow`` indices read as one
    mixed-radix int over ``plan``, the first index most significant.
    Exact mode walks every key; a Monte Carlo trial draws one index per
    entry of ``plan`` with the ``getrandbits`` calls of the stdlib's
    ``shuffle`` and ``choice``, so ``point`` gives the point that they
    draw.
    """

    def __init__(self):
        self.draws: list[tuple] = []
        self._decoder: tuple = (0, [], [])  # (draws it was built for, radices, spans)

    def draw(self, label, kind: str, outcomes):
        self.draws.append((label, kind, tuple(outcomes)))
        return list(outcomes) if kind == "permutation" else outcomes[0]

    def size(self) -> int:
        """The number of points of the recorded space, counted without
        building it."""
        return math.prod(n for n, _ in self.plan())

    def plan(self) -> list[tuple[int, int]]:
        """(n, n.bit_length()) of every ``_randbelow(n)`` that the stdlib
        makes to draw the recorded draws, in recorded order."""
        return [(n, n.bit_length()) for _, kind, xs in self.draws for n in _bounds(kind, xs)]

    def point(self, key: int) -> tuple:
        """The point that ``key`` names, the tuple of drawn values in
        recorded order (a permutation as a tuple): the key's indices
        replayed.  The radices and each draw's index count are worked
        out once for the draws recorded so far, not per key."""
        if self._decoder[0] != len(self.draws):
            self._decoder = (len(self.draws), [n for n, _ in reversed(self.plan())],
                             [(xs, kind, len(_bounds(kind, xs))) for _, kind, xs in self.draws])
        _, radices, spans = self._decoder
        indices = []
        for n in radices:
            key, r = divmod(key, n)
            indices.append(r)
        indices.reverse()
        point = []
        i = 0
        for xs, kind, m in spans:
            value = _replay(kind, xs, indices[i:i + m])
            point.append(tuple(value) if kind == "permutation" else value)
            i += m
        return tuple(point)


# ---------------------------------------------------------------------------
# problem instance
# ---------------------------------------------------------------------------


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` fits the signed 64 bits that
    every random stream is keyed with."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed}")


# files are drawn with ``random.getrandbits``, whose bit count is a C int
MAX_FILE_BITS = 2**31 - 1

# the most bits a library may hold, N * B: 2**33 bits is 1 GiB, which every
# placement then holds again as slot values, so a larger library is refused
# before ``random_library`` draws it
MAX_LIBRARY_BITS = 2**33

# the most entries an instance's randomness-free structure may hold (scheme
# A's subset ranks and position sets, scheme B's plan table), counted from
# closed forms before anything is built; each entry is a Python object of
# about 100 bytes, so the structure stays near 100 MB
MAX_STRUCTURE_ENTRIES = 1_000_000

# structures are counted only up to this cap (``combinat.binom_capped``), so
# an absurd instance is rejected at once: binom(2 * 10**6, 10**6) alone has
# 600,000 digits and takes seconds to build
STRUCTURE_COUNT_CAP = 10**18


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
        if not 1 <= self.B <= MAX_FILE_BITS:
            raise ValueError(f"file size must lie in 1..{MAX_FILE_BITS} bits, got B={self.B}")
        if self.N * self.B > MAX_LIBRARY_BITS:
            raise ValueError(f"instance too large: its library holds N*B = {self.N * self.B} bits "
                             f"> {MAX_LIBRARY_BITS}")


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
    return {i: stream.getrandbits(params.B) for i in range(1, params.N + 1)}


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
    """One user's cache: each cached subfile's bits, in slot order; its
    slots are the keys of ``content``."""

    owner: int
    content: dict[SubfileId, int]

    @property
    def slots(self) -> tuple[SubfileId, ...]:
        return tuple(self.content)

    def check(self, subfile_bits: int, budget_bits: Rat) -> None:
        total = len(self.content) * subfile_bits
        if total > budget_bits:
            raise ValueError(f"user {self.owner} caches {total} bits > budget {budget_bits}")


@dataclass
class MulticastMessage:
    """One XOR broadcast: revealed composition header plus the payload,
    the XOR of the composition's subfiles (``layout.subfile_bits`` bits).

    ``composition`` orders the XORed subfiles the way the transmission
    header lists them; for the virtual-user scheme that order follows the
    revealed position set, which is also kept here.
    """

    sender: int
    composition: tuple[SubfileId, ...]
    payload: int
    position_set: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# the scheme skeleton: params base and uncoded placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeParams:
    """A scheme at one instance: ``base`` plus the scheme's ``param``;
    also the scheme's interface to the protocol engine and the privacy
    checker.  A scheme states its block shape (``shape``), its corner
    (M, R) (``corner``), its held pairs for ``place``, and its delivery
    as data plus one planner, both per transmitter k and reading only
    the demands ``others`` of the users other than k:
    ``delivery_draws(k, others)`` lists k's draws as (label, kind,
    outcomes), and ``compose(placement, k, others, values)`` plans k's
    (position set, composition) list from their values, in that order,
    over ``placement.tables[k]``.  This base derives everything else
    from them: the server's ``query`` draws each declared draw from its
    source, then composes.  ``admit`` checks the parameter and rejects
    an instance whose structure would exceed ``MAX_STRUCTURE_ENTRIES``
    before ``shape`` builds anything."""

    scheme = ""
    fixed_K = None  # the one K the scheme runs at, if it has one
    base: SystemParams

    def __post_init__(self):
        self.admit(self.base.K, self.base.N, self.param)
        subpacketization = self.subpacketization
        if self.base.B % subpacketization:
            raise ValueError(
                f"B={self.base.B} not divisible by the subpacketization {subpacketization}"
            )

    @classmethod
    def admit(cls, K: int, N: int, param) -> None:
        """Raise ValueError for a bad parameter (``count_structure``
        checks it) or a structure over ``MAX_STRUCTURE_ENTRIES``."""
        entries = cls.count_structure(K, N, param)
        if entries > MAX_STRUCTURE_ENTRIES:
            held = entries if entries < STRUCTURE_COUNT_CAP else f"at least {STRUCTURE_COUNT_CAP}"
            raise ValueError(
                f"instance too large: its structure holds {held} entries "
                f"> {MAX_STRUCTURE_ENTRIES}"
            )

    @classmethod
    def sized(cls, K: int, N: int, param, seed: int = 0, b_target: Optional[int] = None):
        """The instance with B auto-sized to the subpacketization."""
        cls.admit(K, N, param)
        blocks, per_block = cls.shape(K, N, param)
        B = resolve_file_size(blocks * per_block, b_target)
        return cls(SystemParams(K=K, N=N, B=B, seed=seed), param)

    @cached_property
    def layout(self) -> SlotLayout:
        blocks, per_block = self.shape(self.base.K, self.base.N, self.param)
        return SlotLayout(self.base.N, blocks, per_block, self.base.B // (blocks * per_block))

    @property
    def subpacketization(self) -> int:
        return self.layout.slots_per_file

    def memory_point(self) -> Rat:
        return self.corner(self.base.K, self.base.N, self.param)[0]

    def query(self, placement: Placement, k: int, others, source) -> list:
        """Transmitter k's (position set, composition) list: each of its
        ``delivery_draws`` drawn from ``source`` in turn, then composed."""
        values = [source.draw(*d) for d in self.delivery_draws(k, others)]
        return self.compose(placement, k, others, values)


def scheme_class(letter: str) -> type[SchemeParams]:
    """The scheme class the letter names: the one letter -> class map,
    read off the subclasses of ``SchemeParams`` (importing ``d2dpc``
    imports every scheme).  An unknown letter raises ValueError."""
    for cls in SchemeParams.__subclasses__():
        if cls.scheme == letter:
            return cls
    raise ValueError(f"unknown scheme {letter!r}")


@dataclass
class Placement:
    """One placement of ``params``; its slot layout is ``params.layout``."""

    params: SchemeParams
    # tables[k][f]: block k of file f's subfile ids in role order (entry j plays
    # permuted index j), one object per slot that caches and compositions share
    tables: list
    caches: list[CacheState]
    library: dict[int, int]


def place(params: SchemeParams, source, held) -> Placement:
    """Uncoded placement shared by the schemes.

    The slots of every (file, block) are shuffled into the ``SubfileId``s
    of ``tables``, each by its own draw labelled (scheme, "p", file, block).
    User k caches those ids of its own block k of every file plus, for each
    (other block, permuted index j) pair in ``held[k]``, entry j of that
    block, in slot order.  The library is keyed by the instance seed, so it
    takes no draw from ``source``.
    """
    base, layout = params.base, params.layout
    library = random_library(base)
    tables = [None, *[[()] for _ in range(layout.blocks)]]
    for i in range(1, base.N + 1):
        for k in range(1, layout.blocks + 1):
            slots = source.draw((params.scheme, "p", i, k), "permutation", list(layout.block_slots(k)))
            tables[k].append(tuple([SubfileId(i, s) for s in slots]))
    budget = params.memory_point() * base.B
    # each file is split once; the caches share its slot values
    pieces = {i: split_file(layout, buf) for i, buf in library.items()}
    caches = []
    for k in range(1, base.K + 1):
        content = {}
        for i, values in pieces.items():
            ids = [*tables[k][i], *[tables[other][i][j] for other, j in held[k]]]
            ids.sort(key=attrgetter("slot"))
            content.update(zip(ids, [values[s - 1] for _, s in ids]))
        cache = CacheState(k, content)
        cache.check(layout.subfile_bits, budget)
        caches.append(cache)
    return Placement(params, tables, caches, library)


def other_demands(demands: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The demands of every user but k, in user order: all that
    transmitter k's query may read."""
    return demands[:k - 1] + demands[k:]


def demand_vector(demands: Iterable[int], params: SystemParams) -> tuple[int, ...]:
    d = tuple(int(x) for x in demands)
    if len(d) != params.K:
        raise ValueError(f"demand vector must have length K={params.K}, got {len(d)}")
    if any(not 1 <= x <= params.N for x in d):
        raise ValueError(f"demands must lie in 1..{params.N}: {d}")
    return d


@dataclass
class Transcript:
    """Everything one protocol run produced.  ``scheme_params`` is the one
    record of the instance: K, N, B and the seed (``.base``), the scheme
    letter and its parameter, the memory point and the slot layout are
    all read from it."""

    scheme_params: SchemeParams
    library: dict[int, int]
    caches: list[CacheState]
    demands: tuple[int, ...]
    broadcasts: list[list[MulticastMessage]]

    def all_messages(self) -> list[MulticastMessage]:
        return [m for per_user in self.broadcasts for m in per_user]

    @property
    def payload_bits(self) -> int:
        """Bits broadcast: every message carries one subfile's bits."""
        return sum(map(len, self.broadcasts)) * self.scheme_params.layout.subfile_bits

    @property
    def metadata_bytes(self) -> int:
        """Bytes of the message headers as ``message_header_text``
        writes them; never counted in the load."""
        return sum(len(message_header_text(m).encode()) for m in self.all_messages())


def split_file(layout: SlotLayout, buf: int) -> list[int]:
    """Every slot value of one file buffer, slot s at index s - 1.  Slot
    s is bits [(s-1)l, sl) of ``buf``, l = ``layout.subfile_bits``; each
    is read off the buffer's little-endian bytes, so splitting a file
    costs O(B) and not O(B) per slot."""
    ell = layout.subfile_bits
    mask = (1 << ell) - 1
    nbits = layout.slots_per_file * ell
    data = buf.to_bytes((nbits + 7) // 8, "little")
    return [(int.from_bytes(data[lo >> 3:(lo + ell + 7) >> 3], "little") >> (lo & 7)) & mask
            for lo in range(0, nbits, ell)]


def subfile_value(library: dict[int, int], layout: SlotLayout, sid: SubfileId) -> int:
    """Bits of one subfile, extracted from the file buffer."""
    return split_file(layout, library[sid.file])[sid.slot - 1]


def assemble_file(layout: SlotLayout, slots: dict[int, int]) -> int:
    """Inverse of ``split_file``: slot index -> value, for all slots.
    Eight slots of l bits are l whole bytes, so the file is packed eight
    slots at a time and converted to an int once."""
    ell = layout.subfile_bits
    values = [slots[s] for s in range(1, layout.slots_per_file + 1)]
    chunks = []
    for lo in range(0, len(values), 8):
        group = 0
        for j, value in enumerate(values[lo:lo + 8]):
            group |= value << (j * ell)
        chunks.append(group.to_bytes(ell, "little"))
    return int.from_bytes(b"".join(chunks), "little")


# ---------------------------------------------------------------------------
# line-oriented transcript text format (golden-file tests)
# ---------------------------------------------------------------------------


def _hex_width(nbits: int) -> int:
    """Hex digits of an ``nbits``-bit field: the one width rule that the
    writer and the parser share."""
    return max(1, (nbits + 3) // 4)


def _hex(value: int, nbits: int, what: str) -> str:
    """``value`` as exactly ``_hex_width(nbits)`` lowercase hex digits;
    a negative value or one wider than ``nbits`` raises ValueError."""
    if value < 0 or value >> nbits:
        raise ValueError(f"{what} does not fit its {nbits} bits: {value}")
    width = _hex_width(nbits)
    digits = value.to_bytes((width + 1) // 2, "big").hex()
    # an odd width drops the pad nibble of the leading byte, which is 0
    return digits[1:] if width % 2 else digits


def message_header_text(msg: MulticastMessage) -> str:
    pos = ",".join(map(str, msg.position_set)) if msg.position_set else "-"
    comp = ",".join(f"{sid.file}:{sid.slot}" for sid in msg.composition)
    return f"pos={pos} comp={comp}"


def _header(sp: SchemeParams, demands) -> dict:
    """The header line's fields in order; all but the demands derive
    from the instance ``sp``."""
    base, layout = sp.base, sp.layout
    return dict(
        scheme=sp.scheme, K=base.K, N=base.N, B=base.B, seed=base.seed,
        param="-" if sp.param is None else sp.param, M=sp.memory_point(),
        demands=",".join(map(str, demands)), subfile_bits=layout.subfile_bits,
        blocks=layout.blocks, slots_per_block=layout.slots_per_block,
    )


def _header_text(fields: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in fields.items())


def transcript_to_text(tr: Transcript) -> str:
    """Serialise a full transcript, one message per line, each cache's
    items in slot order.  The text is one join of a flat list of parts,
    and each distinct (subfile, value) cache item is formatted once,
    however many caches hold it.  A value that does not fit its field
    raises ValueError naming the field."""
    sp = tr.scheme_params
    ell = sp.layout.subfile_bits
    parts = ["d2d-transcript 1\n", _header_text(_header(sp, tr.demands)), "\n"]
    for i in sorted(tr.library):
        parts += ("library ", str(i), " ", _hex(tr.library[i], sp.base.B, f"library file {i}"), "\n")
    items: dict[tuple[SubfileId, int], tuple[str, str]] = {}
    for cache in tr.caches:
        parts += ("cache ", str(cache.owner))
        for sid, value in sorted(cache.content.items()):
            item = items.get((sid, value))
            if item is None:
                item = items[sid, value] = (
                    f" {sid.file}:{sid.slot}=",
                    _hex(value, ell, f"cache {cache.owner} subfile {sid.file}:{sid.slot}"),
                )
            parts += item
        parts.append("\n")
    for per_user in tr.broadcasts:
        for m in per_user:
            parts += ("message ", str(m.sender), " ", message_header_text(m),
                      " payload=", _hex(m.payload, ell, f"message {m.sender} payload"), "\n")
    parts += ("payload_bits=", str(tr.payload_bits), "\n")
    return "".join(parts)


def _decimal(token: str, what: str) -> int:
    """A non-negative int as ``str`` writes it: ASCII digits with no
    sign, underscore or leading zero; anything else raises ValueError."""
    if not (token.isascii() and token.isdigit()) or token.startswith("0") and token != "0":
        raise ValueError(f"{what} is not a plain decimal: {token!r}")
    return int(token)


def _parse_hex(token: str, nbits: int, what: str) -> int:
    """A hex field as ``_hex`` writes it: exactly ``_hex_width(nbits)``
    lowercase digits of a value below 2**nbits; anything else raises
    ValueError."""
    width = _hex_width(nbits)
    try:
        # unhexlify takes uppercase digits too, which the writer never writes
        if len(token) != width or ("A" in token or "B" in token or "C" in token
                                   or "D" in token or "E" in token or "F" in token):
            raise ValueError
        # and nothing else: no sign, prefix or whitespace
        value = int.from_bytes(binascii.unhexlify("0" + token if width % 2 else token), "big")
    except ValueError:
        raise ValueError(f"{what} is not {width} lowercase hex digits") from None
    if value >> nbits:
        raise ValueError(f"{what} is wider than its {nbits} bits")
    return value


def _field(token: str, key: str) -> str:
    """The value of a ``key=value`` token; any other token raises ValueError."""
    name, sep, value = token.partition("=")
    if name != key or not sep:
        raise ValueError(f"expected {key}=..., got {token!r}")
    return value


def _parse_sid(layout: SlotLayout, token: str) -> SubfileId:
    f, _, s = token.partition(":")
    sid = SubfileId(_decimal(f, "subfile file"), _decimal(s, "subfile slot"))
    if not (1 <= sid.file <= layout.N and 1 <= sid.slot <= layout.slots_per_file):
        raise ValueError(
            f"subfile {token} outside 1..{layout.N} x 1..{layout.slots_per_file}"
        )
    return sid


def _parse_header(line: str) -> tuple[SchemeParams, tuple[int, ...]]:
    """The instance and demands of a header line.  The instance is
    rebuilt from the scheme letter, K, N, B, the seed and the param, and
    the line must be the one ``transcript_to_text`` writes for it, so the
    fields it derives (M and the slot layout) must match."""
    head = dict(kv.partition("=")[::2] for kv in line.split(" "))
    try:
        base = SystemParams(*(int(head[key]) for key in ("K", "N", "B", "seed")))
        param = None if head["param"] == "-" else int(head["param"])
        sp = scheme_class(head["scheme"])(base, param)
        demands = demand_vector(head["demands"].split(","), base)
    except KeyError as err:
        raise ValueError(f"transcript header lacks {err.args[0]}") from None
    expected = _header_text(_header(sp, demands))
    if line != expected:
        raise ValueError(f"transcript header {line!r} disagrees with {sp.label()}: {expected!r}")
    return sp, demands


def _lines(text: str, start: int):
    """The newline-ended lines of ``text`` from offset ``start`` on, one
    at a time."""
    while start < len(text):
        end = text.index("\n", start)
        yield text[start:end]
        start = end + 1


def _fields(line: Optional[str], kind: str, count: Optional[int] = None) -> list:
    """The fields after the kind of ``line``, where the writer's order
    puts a ``kind`` line: the end of the text (``line`` None), a line of
    another kind, or other than ``count`` fields raises ValueError."""
    if line is None:
        raise ValueError(f"truncated transcript: it ends where a {kind} line is due")
    got, *tokens = line.split(" ")
    if got != kind:
        raise ValueError(f"expected a {kind} line, got a {got!r} line")
    if count is not None and len(tokens) != count:
        raise ValueError(f"a {kind} line has {count} fields after its kind, got {len(tokens)}")
    return tokens


def transcript_from_text(text: str) -> Transcript:
    """Inverse of ``transcript_to_text``, which accepts only the text that
    it writes: lines in its order, single spaces, plain decimals and
    exact-width lowercase hex.  Anything else, truncated text, or a
    header that does not state one instance consistently raises
    ValueError.  The lines are read in the writer's order: the header,
    library lines 1..N, cache lines 1..K, the messages by sender, then
    ``payload_bits=``.  Each line is split once, and each distinct
    ``file:slot`` token and cache item is parsed once."""
    magic = "d2d-transcript 1\n"
    if not text.startswith(magic):
        raise ValueError("not a transcript file")
    if not text.endswith("\n"):
        raise ValueError("truncated transcript: its last line has no newline")
    lines = _lines(text, len(magic))
    sp, demands = _parse_header(next(lines, ""))
    base, layout = sp.base, sp.layout
    ell = layout.subfile_bits
    sid_of = functools.cache(functools.partial(_parse_sid, layout))
    library: dict[int, int] = {}
    for i in range(1, base.N + 1):
        idx_s, buf = _fields(next(lines, None), "library", 2)
        if idx_s != str(i):
            raise ValueError(f"expected library line {i}, got {idx_s!r}")
        library[i] = _parse_hex(buf, base.B, f"library file {i}")
    # "file:slot=hex" cache item -> (subfile, value), each distinct item parsed once
    entries: dict[str, tuple[SubfileId, int]] = {}
    caches: list[CacheState] = []
    for owner in range(1, base.K + 1):
        owner_s, *items = _fields(next(lines, None), "cache") or [""]
        if owner_s != str(owner):
            raise ValueError(f"expected cache line {owner}, got {owner_s!r}")
        content = {}
        last = (0, 0)
        for item in items:
            entry = entries.get(item)
            if entry is None:
                sid_s, _, digits = item.partition("=")
                entry = entries[item] = (
                    sid_of(sid_s), _parse_hex(digits, ell, f"cache {owner} subfile {sid_s}"))
            sid, value = entry
            if sid <= last:
                raise ValueError(f"cache {owner} lists subfile {sid.file}:{sid.slot} out of order or twice")
            content[sid] = value
            last = sid
        caches.append(CacheState(owner, content))
        caches[-1].check(ell, sp.memory_point() * base.B)
    broadcasts: list[list[MulticastMessage]] = [[] for _ in range(base.K)]
    latest = 1
    for line in lines:
        if line.startswith("payload_bits="):
            break
        sender_s, pos_s, comp_s, pay_s = _fields(line, "message", 4)
        sender = _decimal(sender_s, "message sender")
        if not 1 <= sender <= base.K:
            raise ValueError(f"message sender {sender} outside 1..{base.K}")
        if sender < latest:
            raise ValueError(f"a message of sender {sender} after one of sender {latest}")
        latest = sender
        pos_v = _field(pos_s, "pos")
        pos = None if pos_v == "-" else tuple(_decimal(x, "position") for x in pos_v.split(","))
        comp = tuple(map(sid_of, _field(comp_s, "comp").split(",")))
        payload = _parse_hex(_field(pay_s, "payload"), ell, f"message {sender} payload")
        broadcasts[sender - 1].append(MulticastMessage(sender, comp, payload, pos))
    else:
        raise ValueError("truncated transcript: it does not end with its payload_bits= line")
    if next(lines, None) is not None:
        raise ValueError("transcript continues after its payload_bits= line")
    tr = Transcript(sp, library, caches, demands, broadcasts)
    if line != f"payload_bits={tr.payload_bits}":
        raise ValueError(f"{line} disagrees with the messages' payload_bits={tr.payload_bits}")
    return tr
