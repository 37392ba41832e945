import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from d2dpc.core import (
    SystemParams,
    random_library,
    resolve_file_size,
    seeded_rng,
    transcript_from_text,
    transcript_to_text,
)
from d2dpc import scheme_a, scheme_b, sim

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_transcript.txt"
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_seeded_rng_deterministic():
    a = seeded_rng(0, "p/1/1").bytes(32)
    b = seeded_rng(0, "p/1/1").bytes(32)
    assert a == b


def test_seeded_rng_labels_independent():
    assert seeded_rng(0, "a").bytes(16) != seeded_rng(0, "b").bytes(16)


def test_seeded_rng_seeds_independent():
    assert seeded_rng(1, "a").bytes(16) != seeded_rng(0, "a").bytes(16)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(K=1, N=5, B=8)
    with pytest.raises(ValueError):
        SystemParams(K=3, N=1, B=8)
    with pytest.raises(ValueError):
        SystemParams(K=2, N=2, B=0)


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
    assert back.params == tr.params
    assert back.demands == tr.demands
    assert back.memory_point == tr.memory_point
    assert back.library == tr.library
    assert back.layout == tr.layout
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


def test_golden_transcript(tmp_path):
    # frozen serialization of a fixed-seed run; guards the wire format and
    # the deterministic randomness plumbing at the same time
    params = scheme_a.params_for(2, 2, 2, seed=42)
    tr = sim.run_protocol("A", params, (1, 2))
    assert transcript_to_text(tr) == GOLDEN.read_text()


@st.composite
def small_runs(draw):
    """A seeded scheme A run at K, N <= 3 or scheme B run at N <= 5."""
    seed = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        K, N = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        params = scheme_a.params_for(K, N, draw(st.integers(1, (K - 1) * N + 1)), seed=seed)
    else:
        K, N = 2, draw(st.integers(2, 5))
        params = scheme_b.params_for(N, draw(st.none() | st.integers(0, N - 1)), seed=seed)
    demands = tuple(draw(st.integers(1, N)) for _ in range(K))
    return sim.run_protocol(params.scheme, params, demands)


@_SETTINGS
@given(small_runs())
def test_transcript_text_round_trip(tr):
    text = transcript_to_text(tr)
    assert transcript_to_text(transcript_from_text(text)) == text


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


@pytest.mark.parametrize(
    "text",
    [
        "d2d-transcript 1\nscheme=A K=2 N=2 B=4\npayload_bits=0\n",  # header lacks keys
        GOLDEN.read_text().replace("payload_bits=2", "payload_bits=3"),
        GOLDEN.read_text().replace("message 2 ", "message 0 "),
        GOLDEN.read_text().replace("message 2 ", "message 3 "),
    ],
)
def test_malformed_transcript_raises_value_error(text):
    with pytest.raises(ValueError):
        transcript_from_text(text)
