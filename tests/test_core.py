import hashlib
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d2dpc.core import (
    MAX_STRUCTURE_ENTRIES,
    FixedSource,
    RecordingSource,
    SeededSource,
    SlotLayout,
    SubfileId,
    SystemParams,
    assemble_file,
    draw_indices,
    other_demands,
    random_library,
    resolve_file_size,
    seeded_rng,
    split_file,
    subfile_value,
    transcript_from_text,
    transcript_to_text,
)
from d2dpc import scheme_a, scheme_b, sim, verify
from oracles import draw_key, recorded_points

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_transcript.txt"
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_seeded_rng_deterministic():
    a = seeded_rng(0, "p/1/1").getrandbits(256)
    b = seeded_rng(0, "p/1/1").getrandbits(256)
    assert a == b


def test_seeded_rng_labels_independent():
    assert seeded_rng(0, "a").getrandbits(128) != seeded_rng(0, "b").getrandbits(128)


def test_seeded_rng_refuses_labels_that_are_not_str():
    # bytes(5) and bytes([104, 105]) would alias the labels "\0" * 5 and "hi"
    for label in (5, b"\0" * 5, [104, 105], b"hi"):
        with pytest.raises(TypeError, match="stream label must be a str"):
            seeded_rng(0, label)


def _stdlib_sample(draws, rng) -> tuple:
    """The oracle of a point drawn as an int key: ``rng.shuffle`` of a
    copy of each permutation's items, ``rng.choice`` of each choice's
    options."""
    point = []
    for _, kind, xs in draws:
        if kind == "permutation":
            xs = list(xs)
            rng.shuffle(xs)
            point.append(tuple(xs))
        else:
            point.append(rng.choice(xs))
    return tuple(point)


def _draw_sequences() -> list:
    """One permutation of 0..9 items, one choice of 1..9 options, a hand
    mix, and the delivery draws of scheme A at A(3,2,2) and A(3,3,2)."""
    out = [[("p", "permutation", tuple(range(m)))] for m in range(10)]
    out += [[("c", "choice", tuple("abcdefghi"[:n]))] for n in range(1, 10)]
    out.append([("c", "choice", ("x",)), ("p", "permutation", (3, 1, 2)),
                ("c", "choice", (5, 6, 7, 8, 9)), ("p", "permutation", ()), ("c", "choice", (0, 1))])
    for params in (scheme_a.params_for(3, 2, 2), scheme_a.params_for(3, 3, 2)):
        out.append([draw for k in range(1, 4)
                    for draw in scheme_a.plan_delivery_a(params, k, other_demands((1, 2, 2), k))])
    return out


@pytest.mark.parametrize("draws", _draw_sequences())
def test_sampled_points_are_the_stdlib_draws(draws):
    # the Monte Carlo sampler rests on this premise: a point drawn as an
    # int key makes CPython's getrandbits rejection draws, the calls of
    # shuffle and choice, so it is their point and leaves the same state
    source = RecordingSource()
    source.draws = list(draws)
    for seed in range(200):
        rng, ref = seeded_rng(seed, "oracle"), seeded_rng(seed, "oracle")
        for _ in range(3):
            assert source.point(draw_key(source.plan(), rng.getrandbits)) == _stdlib_sample(draws, ref), seed
        assert rng.getstate() == ref.getstate(), seed


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params,demand_vectors",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), None, id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), None, id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 1), None, id="A(3,2,1)"),
        pytest.param(scheme_a.params_for(3, 2, 2), None, id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(4, 2, 2), [(1, 1, 2, 2)], id="A(4,2,2)"),
        pytest.param(scheme_b.params_for(4, 3), None, id="B(4,3)"),
    ],
)
def test_keys_name_every_point_once(params, demand_vectors, derandomized):
    # exact mode walks the keys range(size()) through RecordingSource.point,
    # so they must name every point of each transmitter's space exactly
    # once; an empty space (no draws) has one point, the empty tuple
    transmitters = verify._setup(params, [], derandomized)[3]
    for d in demand_vectors or transmitters:
        for own in (t.space for t in transmitters[d]):
            keyed = Counter(map(own.point, range(own.size())))
            assert keyed == Counter(recorded_points(own)), d
            assert set(keyed.values()) == {1}, d
            if derandomized or params.scheme == "B":
                assert own.draws == [] and list(keyed) == [()]


def test_fixed_source_is_strict():
    # an unassigned label raises KeyError, a value outside the draw's
    # outcomes ValueError, and an assigned outcome is returned as given
    source = FixedSource({"p": (2, 1, 3), "c": "b", "bad_p": (1, 1, 3), "bad_c": "z"})
    assert source.draw("p", "permutation", [1, 2, 3]) == [2, 1, 3]
    assert source.draw("c", "choice", ["a", "b"]) == "b"
    for kind, outcomes in (("permutation", [1, 2]), ("choice", [1])):
        with pytest.raises(KeyError):
            source.draw("q", kind, outcomes)
    with pytest.raises(ValueError, match="not a permutation of items"):
        source.draw("bad_p", "permutation", [1, 2, 3])
    with pytest.raises(ValueError, match="not among options"):
        source.draw("bad_c", "choice", ["a", "b"])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 9, 220])
def test_seeded_source_draws_are_the_stdlib_draws(m):
    items = [f"s{i}" for i in range(m)]
    for seed in range(200):
        ref = list(items)
        seeded_rng(seed, "('A', 'p', 1, 1)").shuffle(ref)
        assert SeededSource(seed).draw(("A", "p", 1, 1), "permutation", items) == ref
        rng, ref_rng = seeded_rng(seed, "x"), seeded_rng(seed, "x")
        draw_indices(range(m, 1, -1), rng.getrandbits)
        ref_rng.shuffle(list(items))
        assert rng.getstate() == ref_rng.getstate()
        if items:
            assert SeededSource(seed).draw("c", "choice", items) == seeded_rng(seed, "c").choice(items)


def test_seeded_rng_seeds_independent():
    assert seeded_rng(1, "a").getrandbits(128) != seeded_rng(0, "a").getrandbits(128)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(K=1, N=5, B=8)
    with pytest.raises(ValueError):
        SystemParams(K=3, N=1, B=8)
    with pytest.raises(ValueError):
        SystemParams(K=2, N=2, B=0)
    with pytest.raises(ValueError, match="file size"):
        SystemParams(K=2, N=2, B=2**31)  # beyond what random.getrandbits draws
    with pytest.raises(ValueError, match="instance too large: its library holds"):
        SystemParams(K=2, N=5, B=2**31 - 1)  # N * B over MAX_LIBRARY_BITS


@pytest.mark.parametrize(
    "build,entries",
    [
        # K * binom(U, t-1) subset ranks + binom(U, t) position sets, U = (K-1) N
        (lambda: scheme_a.params_for(3, 14, 14), 3 * 37_442_160 + 40_116_600),
        # N * binom(N, t'+1) compositions in the plan table
        (lambda: scheme_b.params_for(130, 1), 130 * 8_385),
    ],
)
def test_too_large_structure_is_rejected_before_it_is_built(build, entries):
    assert entries > MAX_STRUCTURE_ENTRIES
    with pytest.raises(ValueError, match=f"instance too large: its structure holds {entries} entries"):
        build()


_PARSE_HEADER = """
import sys
from d2dpc.core import transcript_from_text
try:
    transcript_from_text("d2d-transcript 1\\n" + sys.argv[1] + "\\n")
except ValueError as err:
    print(err)
"""


@pytest.mark.parametrize(
    "header",
    [
        "scheme=A K=3000000 N=2 B=8 seed=0 param=3000000 M=1 demands=1,2",
        "scheme=B K=2 N=3000000 B=8 seed=0 param=1500000 M=1 demands=1,2",
    ],
)
def test_absurd_transcript_header_is_rejected_at_once(header):
    # the instance is admitted from a capped count before the parser
    # derives its slot layout, whose binomial alone would take minutes
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parents[2] / "src"))
    proc = subprocess.run([sys.executable, "-c", _PARSE_HEADER, header], env=env,
                          capture_output=True, text=True, timeout=20, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("instance too large: its structure holds at least ")


def _structure_entries(p) -> int:
    return p.count_structure(p.base.K, p.base.N, p.param)


def test_largest_instance_in_use_is_admitted():
    assert _structure_entries(scheme_a.params_for(4, 5, 8)) == 4 * 6_435 + 6_435
    assert _structure_entries(scheme_b.params_for(120, 1)) < MAX_STRUCTURE_ENTRIES
    assert _structure_entries(scheme_b.params_for(5, None)) == 0


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 10**20])
def test_out_of_range_seed_is_rejected(seed):
    # random streams key on the seed's signed 64-bit encoding
    with pytest.raises(ValueError, match="seed"):
        SystemParams(K=2, N=2, B=8, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        scheme_a.params_for(2, 2, 1, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        scheme_b.params_for(2, 1, seed=seed)


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_extreme_seeds_run(seed):
    p = scheme_a.params_for(2, 2, 1, seed=seed)
    tr = sim.run_protocol("A", p, (1, 2))
    assert sim.measure_load(tr) == sim.theoretical_load(tr)


def test_resolve_file_size():
    assert resolve_file_size(6) == 6  # default: one bit per subfile
    assert resolve_file_size(6, 6) == 6
    assert resolve_file_size(6, 7) == 12
    assert resolve_file_size(6, 100) == 102


def test_random_library_reproducible():
    p = SystemParams(K=2, N=2, B=8, seed=5)
    lib1 = random_library(p)
    lib2 = random_library(p)
    assert lib1 == lib2
    assert all(0 <= lib1[i] < 2**8 for i in (1, 2))


def test_random_library_bit_mean():
    # Monte Carlo: empirical bit mean over 2*10^5 bits within 0.01 of 1/2
    p = SystemParams(K=2, N=2, B=100_000, seed=9)
    lib = random_library(p)
    ones = sum(bin(lib[i]).count("1") for i in (1, 2))
    assert abs(ones / 200_000 - 0.5) < 0.01


def test_random_library_seed_sensitivity():
    a = random_library(SystemParams(K=2, N=2, B=64, seed=1))
    b = random_library(SystemParams(K=2, N=2, B=64, seed=2))
    assert a != b


def test_rational_arithmetic_exact():
    rng = random.Random(3)
    for _ in range(200):
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        assert (Fraction(a, b) + Fraction(c, d)) * (b * d) == a * d + c * b


def test_transcript_roundtrip():
    params = scheme_a.params_for(2, 2, 2, seed=17)
    tr = sim.run_protocol("A", params, (1, 2))
    text = transcript_to_text(tr)
    back = transcript_from_text(text)
    assert back.scheme_params == tr.scheme_params
    assert back.demands == tr.demands
    assert back.library == tr.library
    # caches round-trip bit-exactly
    for orig, parsed in zip(tr.caches, back.caches):
        assert parsed.owner == orig.owner
        assert parsed.slots == orig.slots
        assert parsed.content == orig.content
    for orig_per, parsed_per in zip(tr.broadcasts, back.broadcasts):
        for o, p in zip(orig_per, parsed_per):
            assert (o.sender, o.composition, o.payload, o.position_set) == (
                p.sender,
                p.composition,
                p.payload,
                p.position_set,
            )
    # and the text itself is stable under a second pass
    assert transcript_to_text(back) == text


@st.composite
def files_by_slot(draw):
    """A slot layout of 1..40 slots of 1..80 bits, and one value per slot;
    values are drawn at full width, the last slot's with its top bit set."""
    ell, count = draw(st.integers(1, 80)), draw(st.integers(1, 40))
    full = st.integers(1 << (ell - 1), (1 << ell) - 1)
    values = draw(st.lists(full | st.integers(0, (1 << ell) - 1), min_size=count - 1, max_size=count - 1))
    return SlotLayout(N=1, blocks=1, slots_per_block=count, subfile_bits=ell), values + [draw(full)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(files_by_slot())
def test_split_and_assemble_invert_the_shift_layout(case):
    layout, values = case
    ell = layout.subfile_bits
    # the layout as a formula: slot s is bits [(s-1)l, sl) of the file
    buf = sum(v << (s * ell) for s, v in enumerate(values))
    assert buf.bit_length() == len(values) * ell
    assert split_file(layout, buf) == [(buf >> ((s - 1) * ell)) & ((1 << ell) - 1)
                                       for s in range(1, len(values) + 1)] == values
    assert assemble_file(layout, dict(enumerate(values, 1))) == buf
    assert subfile_value({1: buf}, layout, SubfileId(1, len(values))) == values[-1]


def test_metadata_bytes_survive_the_text_round_trip():
    tr = sim.run_protocol("A", scheme_a.params_for(3, 2, 2, seed=1), (1, 2, 2))
    assert tr.metadata_bytes == 308
    assert transcript_from_text(transcript_to_text(tr)).metadata_bytes == 308


def test_golden_transcript(tmp_path):
    # frozen serialization of a fixed-seed run; guards the wire format and
    # the deterministic randomness plumbing at the same time
    params = scheme_a.params_for(2, 2, 2, seed=42)
    tr = sim.run_protocol("A", params, (1, 2))
    assert transcript_to_text(tr) == GOLDEN.read_text()


@st.composite
def small_runs(draw):
    """A seeded scheme A run at K, N <= 3 or scheme B run at N <= 5, with
    subfiles of 1..12 bits, so hex fields of odd and even widths."""
    seed = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        K, N = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        build, args = scheme_a.params_for, (K, N, draw(st.integers(1, (K - 1) * N + 1)))
    else:
        K, N = 2, draw(st.integers(2, 5))
        build, args = scheme_b.params_for, (N, draw(st.none() | st.integers(0, N - 1)))
    slots = build(*args).subpacketization
    params = build(*args, seed=seed, b_target=draw(st.integers(1, 12 * slots)))
    demands = tuple(draw(st.integers(1, N)) for _ in range(K))
    return sim.run_protocol(params.scheme, params, demands)


@_SETTINGS
@given(small_runs())
def test_transcript_text_round_trip(tr):
    text = transcript_to_text(tr)
    back = transcript_from_text(text)
    assert back.scheme_params == tr.scheme_params
    assert transcript_to_text(back) == text


# edits of one token that int(), int(x, 16), str.split() or a line list
# would forgive: signs, prefixes, padding, case, underscores, non-ASCII
# digits, stray whitespace, and tokens moved, doubled or dropped
_TOKEN_EDITS = [
    lambda t: "0" + t,
    lambda t: "+" + t,
    lambda t: "-" + t,
    lambda t: "0x" + t,
    lambda t: t.upper(),
    lambda t: t[:1] + "_" + t[1:],
    lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda t: " " + t,
    lambda t: t + " ",
    lambda t: "\t" + t,
    lambda t: t + "\r",
    lambda t: t + "\n",
    lambda t: t + t,
    lambda t: "",
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(small_runs(), st.data())
def test_edited_transcript_raises_or_round_trips(tr, data):
    # the parser accepts only text that the writer writes: after any
    # edit, parsing raises ValueError or gives back exactly the edited text
    pieces = re.split(r"([ \n=,:])", transcript_to_text(tr))
    i = data.draw(st.integers(0, len(pieces) - 1))
    if data.draw(st.booleans()):
        pieces[i] = data.draw(st.sampled_from(_TOKEN_EDITS))(pieces[i])
    else:
        pieces[i] = pieces[data.draw(st.integers(0, len(pieces) - 1))]
    text = "".join(pieces)
    try:
        back = transcript_from_text(text)
    except ValueError:
        return
    assert transcript_to_text(back) == text


@pytest.mark.parametrize(
    "params",
    [
        scheme_a.params_for(2, 2, 1, seed=3),
        scheme_a.params_for(3, 2, 5, seed=3),
        scheme_b.params_for(3, 0, seed=3),
        scheme_b.params_for(3, 2, seed=3),
        scheme_b.params_for(3, None, seed=3),
    ],
    ids=lambda p: p.label(),
)
def test_round_trip_rebuilds_the_scheme_params(params):
    tr = sim.run_protocol(params.scheme, params, (1,) * params.base.K)
    assert transcript_from_text(transcript_to_text(tr)).scheme_params == tr.scheme_params


@_SETTINGS
@given(st.data())
def test_truncated_transcript_round_trips_or_raises(data):
    # a prefix cut at a line boundary (or anywhere) parses back to the
    # whole transcript or raises ValueError, never another exception
    text = GOLDEN.read_text()
    line_ends = [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    cut = data.draw(st.sampled_from([0, *line_ends]) | st.integers(0, len(text)))
    try:
        back = transcript_from_text(text[:cut])
    except ValueError:
        return
    assert transcript_to_text(back) == text


def _swap_lines(text, first, second):
    lines = text.splitlines(keepends=True)
    i, j = (next(k for k, ln in enumerate(lines) if ln.startswith(p)) for p in (first, second))
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def _drop_line(text, prefix):
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith(prefix))


def _scheme_b_text_with_three_users():
    """A scheme B transcript whose header says K=3, with a third cache
    line and demand so that the line counts agree with the header."""
    tr = sim.run_protocol("B", scheme_b.params_for(2, 1, seed=3), (1, 2))
    text = transcript_to_text(tr).replace(" K=2 ", " K=3 ").replace("demands=1,2 ", "demands=1,2,1 ")
    return text.replace("\nmessage 1 ", "\ncache 3 1:1=0\nmessage 1 ", 1)


@pytest.mark.parametrize(
    "text",
    [
        "d2d-transcript 1\nscheme=A K=2 N=2 B=4\npayload_bits=0\n",  # header lacks keys
        GOLDEN.read_text().replace("payload_bits=2", "payload_bits=3"),
        GOLDEN.read_text().replace("message 2 ", "message 0 "),
        GOLDEN.read_text().replace("message 2 ", "message 3 "),
        # cache and library lines: one per owner 1..K and per file 1..N, in order
        _drop_line(GOLDEN.read_text(), "cache 2 "),
        _drop_line(GOLDEN.read_text(), "library 1 "),
        GOLDEN.read_text().replace("cache 2 ", "cache 1 "),
        GOLDEN.read_text().replace("cache 2 ", "cache 9 "),
        GOLDEN.read_text().replace("library 2 ", "library 1 "),
        GOLDEN.read_text().replace("demands=1,2", "demands=9,1,2"),
        GOLDEN.read_text().replace("demands=1,2", "demands=1,3"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 a\nnote hello\n"),
        # the slot layout must cover the file size
        GOLDEN.read_text().replace("blocks=2", "blocks=3"),
        GOLDEN.read_text().replace("slots_per_block=2", "slots_per_block=0"),
        # subfile ids must lie in 1..N x 1..slots_per_file, once per cache line
        GOLDEN.read_text().replace("comp=2:2,1:2", "comp=9:2,1:2"),
        GOLDEN.read_text().replace("cache 1 ", "cache 1 9:1=0 "),
        GOLDEN.read_text().replace("cache 1 ", "cache 1 1:99=0 "),
        GOLDEN.read_text().replace("cache 1 ", "cache 1 1:1=0 "),
        # the header states one instance: the params rebuilt from scheme,
        # K, N, B, seed and param must exist and derive its M and layout
        GOLDEN.read_text().replace("scheme=A", "scheme=Z"),
        GOLDEN.read_text().replace("scheme=A", "scheme=B"),
        GOLDEN.read_text().replace("param=2", "param=9"),
        GOLDEN.read_text().replace("param=2", "param=-"),
        GOLDEN.read_text().replace("M=3/2", "M=7/3"),
        GOLDEN.read_text().replace("blocks=2 slots_per_block=2", "blocks=1 slots_per_block=4"),
        _scheme_b_text_with_three_users(),
        # hex values no wider than their field: B bits for a file, l for a subfile
        GOLDEN.read_text().replace("library 1 a\n", "library 1 ffff\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 1a\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 -a\n"),
        GOLDEN.read_text().replace("cache 1 1:1=0 ", "cache 1 1:1=2 "),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2 payload=ff"),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2 payload=-1"),
        # a line has its kind's fields, no fewer and no more
        GOLDEN.read_text().replace("library 1 a\n", "library 1\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 a a\n"),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2"),
        GOLDEN.read_text().replace("cache 1 1:1=0 1:2=1 1:4=1 2:1=1 2:2=0 2:4=1\n", "cache\n"),
        # a message line is pos=, comp= and payload=, each key named, in that order
        GOLDEN.read_text().replace("message 1 pos=1,2 ", "message 1 pos "),
        GOLDEN.read_text().replace("comp=2:2,1:2 ", "comp "),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2 payload"),
        GOLDEN.read_text().replace("message 1 pos=1,2 ", "message 1 xyz=1 "),
        GOLDEN.read_text().replace("comp=2:2,1:2 ", "cmp=2:2,1:2 "),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2 pay=1"),
        GOLDEN.read_text().replace("message 1 pos=1,2 comp=2:2,1:2 ", "message 1 comp=2:2,1:2 pos=1,2 "),
        # a cache holds at most M*B bits: 8 > 3/2 * 4, and 7 in slot order
        GOLDEN.read_text().replace("cache 1 ", "cache 1 1:3=0 2:3=0 "),
        GOLDEN.read_text().replace("cache 1 1:1=0 1:2=1 ", "cache 1 1:1=0 1:2=1 1:3=0 "),
        # decimals and hex only as the writer writes them: no prefix, sign,
        # leading zero or uppercase digit
        GOLDEN.read_text().replace("library 1 a\n", "library 1 0xa\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 +a\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 00a\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 A\n"),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2 payload=0x1"),
        GOLDEN.read_text().replace("comp=2:2,1:2 payload=1", "comp=2:2,1:2 payload=01"),
        GOLDEN.read_text().replace("cache 1 1:1=0", "cache 1 01:1=0"),
        GOLDEN.read_text().replace("cache 1 1:1=0", "cache 1 1:+1=0"),
        GOLDEN.read_text().replace("message 1 pos=1,2 ", "message 1 pos=+1,2 "),
        GOLDEN.read_text().replace("message 1 ", "message +1 "),
        GOLDEN.read_text().replace("payload_bits=2", "payload_bits=02"),
        GOLDEN.read_text().replace("library 2 9\n", "library 2 ٩\n"),
        # single spaces, newline-ended lines, no blank lines
        GOLDEN.read_text().replace("library 1 a\n", "library 1  a\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 a \n"),
        GOLDEN.read_text().replace("\n", "\r\n"),
        GOLDEN.read_text().replace("library 1 a\n", "library 1 a\n\n"),
        GOLDEN.read_text()[:-1],
        GOLDEN.read_text() + "\n",
        # the header as the writer writes it: no extra, repeated or moved key
        GOLDEN.read_text().replace(" seed=42 ", " seed=42 seed=42 "),
        GOLDEN.read_text().replace(" seed=42 ", " seed=42 note=1 "),
        GOLDEN.read_text().replace("K=2 N=2", "N=2 K=2"),
        # library, cache and message lines in order; a cache in slot order
        GOLDEN.read_text().replace("library 2 9\n", "").replace("message 1 ", "library 2 9\nmessage 1 "),
        GOLDEN.read_text().replace("cache 1 1:1=0 1:2=1 ", "cache 1 1:2=1 1:1=0 "),
        _swap_lines(GOLDEN.read_text(), "message 1 ", "message 2 "),
    ],
)
def test_malformed_transcript_raises_value_error(text):
    with pytest.raises(ValueError):
        transcript_from_text(text)


@pytest.mark.parametrize(
    "old, new, message",
    [("library 1 a\n", "library 1\n", "a library line has 2 fields after its kind, got 1"),
     ("comp=2:2,1:2 payload=1", "comp=2:2,1:2", "a message line has 4 fields after its kind, got 3"),
     ("comp=2:2,1:2 payload=1", "comp=2:2,1:2 payload=1 x", "a message line has 4 fields after its kind, got 5")],
)
def test_a_line_with_a_missing_or_extra_field_is_named(old, new, message):
    with pytest.raises(ValueError, match=message):
        transcript_from_text(GOLDEN.read_text().replace(old, new))


def test_a_cache_out_of_slot_order_is_written_in_slot_order():
    # only core.place sorts a cache's slots; the writer must not rely on it
    tr = sim.run_protocol("A", scheme_a.params_for(2, 2, 2, seed=42), (1, 2))
    tr.caches[0].content = dict(reversed(tr.caches[0].content.items()))
    text = transcript_to_text(tr)
    assert text == GOLDEN.read_text()
    assert transcript_to_text(transcript_from_text(text)) == text


@pytest.mark.parametrize(
    "field, value",
    [("library file 1", -1), ("library file 1", 16), ("cache 1 subfile 1:1", -1),
     ("cache 1 subfile 1:1", 2), ("message 2 payload", -1), ("message 2 payload", 2)],
)
def test_writer_rejects_a_value_that_does_not_fit_its_field(field, value):
    # the golden run has 4-bit files and 1-bit subfiles; a negative or a
    # wider value would be written as a field that the parser rejects
    tr = sim.run_protocol("A", scheme_a.params_for(2, 2, 2, seed=42), (1, 2))
    if field.startswith("library"):
        tr.library[1] = value
    elif field.startswith("cache"):
        tr.caches[0].content[SubfileId(1, 1)] = value
    else:
        tr.broadcasts[1][0].payload = value
    with pytest.raises(ValueError, match=field):
        transcript_to_text(tr)


def _one_mib_runs():
    """The two 1 MiB runs of the benchmark's ``bulk_payload`` shape, at
    fixed seeds and demands: A(4,3,4) has l = 3,121, an odd hex width of
    781, and B(8,3) l = 10,486."""
    return [
        sim.run_protocol("A", scheme_a.params_for(4, 3, 4, seed=7, b_target=2**20), (1, 2, 3, 1)),
        sim.run_protocol("B", scheme_b.params_for(8, 3, seed=7, b_target=2**20), (8, 3)),
    ]


PINNED_ONE_MIB_DIGESTS = [
    "fcc32bc0642d96f8b0d41a57e7110e9dc672462fac9321fa1fbd9c675b156632",
    "f9892721172827a623c6105129f3d9e94469ed66beaed39915dcbde117258add",
]


def test_one_mib_transcripts_pinned():
    runs = _one_mib_runs()
    assert [tr.scheme_params.layout.subfile_bits for tr in runs] == [3121, 10486]
    for tr, digest in zip(runs, PINNED_ONE_MIB_DIGESTS):
        text = transcript_to_text(tr)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        back = transcript_from_text(text)
        assert back.library == tr.library
        assert transcript_to_text(back) == text
        # each distinct cache item is parsed once, so caches share its value
        shared = set(back.caches[0].slots) & set(back.caches[1].slots)
        assert shared and all(back.caches[0].content[s] is back.caches[1].content[s] for s in shared)


def test_writer_peak_memory_stays_near_the_text_size():
    # the writer keeps one copy of each distinct field and joins them once
    tr = _one_mib_runs()[1]
    tracemalloc.start()
    try:
        text = transcript_to_text(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)
