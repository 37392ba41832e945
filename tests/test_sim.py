import itertools
import random
from fractions import Fraction

import pytest

from d2dpc import scheme_a, scheme_b
from d2dpc.core import RecordingSource, SeededSource, SubfileId, other_demands, transcript_to_text
from d2dpc.sim import measure_load, run_protocol, theoretical_load, user_broadcast


def test_run_scheme_a_load():
    p = scheme_a.params_for(2, 2, 2, seed=1)
    tr = run_protocol("A", p, (1, 2))
    assert measure_load(tr) == Fraction(1, 2)
    assert measure_load(tr) == theoretical_load(tr)
    # every message carries one subfile's bits
    ell = tr.scheme_params.layout.subfile_bits
    assert tr.payload_bits == len(tr.all_messages()) * ell
    assert all(0 <= m.payload < 1 << ell for m in tr.all_messages())


def test_run_scheme_b_load():
    p = scheme_b.params_for(3, 1, seed=2)
    tr = run_protocol("B", p, (1, 1))
    assert [len(per) for per in tr.broadcasts] == [3, 3]
    assert measure_load(tr) == 1
    assert tr.scheme_params.layout.subfile_bits * 6 == p.base.B  # messages of B/6 bits


def test_full_memory_zero_load():
    pa = scheme_a.params_for(2, 2, 3, seed=3)
    assert measure_load(run_protocol("A", pa, (1, 1))) == 0
    pb = scheme_b.params_for(2, None, seed=3)
    assert measure_load(run_protocol("B", pb, (2, 1))) == 0


def test_measure_load_examples():
    assert measure_load(run_protocol("A", scheme_a.params_for(3, 2, 2, seed=4), (1, 2, 1))) == Fraction(5, 4)
    assert measure_load(run_protocol("B", scheme_b.params_for(2, 0, seed=4), (1, 2))) == 2


def test_encoding_constraint_reexecution():
    # replaying each user's query against only its cache reproduces the
    # broadcast messages bit-exactly
    p = scheme_a.params_for(3, 2, 2, seed=5)
    placement = p.place(SeededSource(5))
    tr = run_protocol("A", p, (2, 1, 2), placement=placement)
    queries = [p.query(placement, k, other_demands(tr.demands, k), SeededSource(5)) for k in (1, 2, 3)]
    for cache, query, per in zip(tr.caches, queries, tr.broadcasts):
        redone = user_broadcast(cache, query)
        assert [(m.sender, m.composition, m.payload) for m in redone] == [
            (m.sender, m.composition, m.payload) for m in per
        ]


@pytest.mark.parametrize("other", [
    # another seed: the header would say seed=5 over seed 0's library
    scheme_a.params_for(2, 2, 1, seed=0),
    # another t: the run ended in the decoder's "outside the layout" error
    scheme_a.params_for(2, 2, 2, seed=5),
])
def test_placement_of_another_instance_is_refused(other):
    p = scheme_a.params_for(2, 2, 1, seed=5)
    with pytest.raises(ValueError, match="placement built for"):
        run_protocol("A", p, (1, 2), placement=other.place(SeededSource(0)))


def test_transmitters_never_need_foreign_subfiles():
    # a query naming a subfile outside the user's cache would fail loudly
    p = scheme_b.params_for(4, 2, seed=6)
    placement = p.place(SeededSource(6))
    victim, other = [p.query(placement, k, others, SeededSource(6)) for k, others in ((1, (4,)), (2, (3,)))]
    foreign = next(
        sid for _, comp in other for sid in comp
        if sid not in placement.caches[0].content
    )
    victim[0] = (victim[0][0], victim[0][1] + (foreign,))
    with pytest.raises(KeyError):
        user_broadcast(placement.caches[0], victim)


@pytest.mark.parametrize("scheme,size,b_target", [
    (scheme_a, (2, 2, 1), None), (scheme_a, (4, 4, 5), None), (scheme_a, (5, 3, 4), None),
    (scheme_a, (4, 3, 4), 2**20), (scheme_b, (4, 3), None), (scheme_b, (8, 3), None),
    (scheme_b, (4, None), None),
], ids=["A221", "A445", "A534", "A434-1MiB", "B43", "B83", "B4full"])
def test_caches_and_messages_hold_the_placement_ids(scheme, size, b_target):
    # the placement makes one SubfileId per (file, slot); every cache key
    # and every composition entry is that object, not an equal copy
    p = scheme.params_for(*size, seed=3, b_target=b_target)
    placement = p.place(SeededSource(3))
    drawn = {}
    for i, k in itertools.product(range(1, p.base.N + 1), range(1, p.layout.blocks + 1)):
        ids = placement.tables[k][i]
        assert all(type(sid) is SubfileId for sid in ids)
        assert sorted(ids) == [SubfileId(i, s) for s in p.layout.block_slots(k)]
        drawn.update(zip(ids, ids))
    assert len(drawn) == p.base.N * p.subpacketization
    for cache in placement.caches:
        assert list(cache.content) == sorted(cache.content)
        assert all(drawn[sid] is sid for sid in cache.content)
    rng = random.Random(3)
    for demands in [(1,) * p.base.K, tuple(rng.randint(1, p.base.N) for _ in range(p.base.K))]:
        queries = [p.query(placement, k, other_demands(demands, k), SeededSource(3))
                   for k in range(1, p.base.K + 1)]
        assert all(queries) or size[-1] is None  # no messages only at full memory
        assert all(drawn[sid] is sid for query in queries for _, comp in query for sid in comp)


def test_seed_determinism():
    p = scheme_a.params_for(2, 3, 2, seed=9)
    t1 = run_protocol("A", p, (3, 1))
    t2 = run_protocol("A", p, (3, 1))
    assert [m.payload for m in t1.all_messages()] == [m.payload for m in t2.all_messages()]
    assert [m.composition for m in t1.all_messages()] == [
        m.composition for m in t2.all_messages()
    ]


def test_run_on_a_passed_placement_makes_the_seeded_draws():
    p = scheme_a.params_for(2, 2, 2, seed=10)
    tr = run_protocol("A", p, (1, 1), placement=p.place(SeededSource(10)))
    # the same draws as the full run, whose placement the seed gives
    full = run_protocol("A", p, (1, 1))
    assert [c.slots for c in tr.caches] == [c.slots for c in full.caches]
    assert [m.composition for m in tr.all_messages()] == [m.composition for m in full.all_messages()]
    # the library is keyed by the seed and takes no draw from the source
    assert p.place(RecordingSource()).library == full.library


def test_unknown_scheme():
    p = scheme_a.params_for(2, 2, 2)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_protocol("C", p, (1, 1))
    with pytest.raises(ValueError, match="unknown scheme"):
        run_protocol("B", p, (1, 1))  # a letter that does not match the params
    tr = run_protocol("a", p, (1, 1))
    assert tr.scheme_params.scheme == "A"


PINNED_TRANSCRIPT_DIGEST = "b56cd16fb6b44fdd9262ac0380484833ba5ea98e2ecfadca5aca97a6ab6af28d"


def test_transcripts_pinned():
    # full-run transcripts of both schemes, byte for byte: placement,
    # queries and payloads of every demand vector at two seeds
    import hashlib
    import itertools

    runs = [
        (scheme_b.params_for, (N, tp), False)
        for N in range(2, 6)
        for tp in [*range(N), None]
    ]
    runs += [
        (scheme_a.params_for, size, derandomized)
        for size in [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3)]
        for derandomized in (False, True)
    ]
    h = hashlib.sha256()
    for build, size, derandomized in runs:
        for seed in range(2):
            p = build(*size, seed=seed)
            K, N = p.base.K, p.base.N
            for d in itertools.product(range(1, N + 1), repeat=K):
                # the baseline delivers at the first outcome of every draw
                source = RecordingSource() if derandomized else SeededSource(seed)
                tr = run_protocol(p.scheme, p, d, source=source, placement=p.place(SeededSource(seed)))
                h.update(transcript_to_text(tr).encode())
    assert h.hexdigest() == PINNED_TRANSCRIPT_DIGEST


# transcripts of multi-bit subfiles: slot counts 12 (A(3,2,2)), 6 (A(2,3,3)),
# 10 (B(4,2)) and 2 (B(3,-)), none a multiple of 8, at three subfile widths
PINNED_MULTIBIT_DIGEST = "ec5b2a0dff1b3291c266653837625bbf52982b91d4ba3ad0ab813cc506d13dac"


def test_multibit_transcripts_pinned():
    import hashlib
    import itertools

    sizes = [
        (scheme_a.params_for, (3, 2, 2)),
        (scheme_a.params_for, (2, 3, 3)),
        (scheme_b.params_for, (4, 2)),
        (scheme_b.params_for, (3, None)),
    ]
    h = hashlib.sha256()
    for ell in (3, 13, 64):
        for build, size in sizes:
            for seed in range(2):
                slots = build(*size).subpacketization
                p = build(*size, seed=seed, b_target=slots * ell)
                assert p.layout.subfile_bits == ell and slots % 8
                K, N = p.base.K, p.base.N
                for d in itertools.product(range(1, N + 1), repeat=K):
                    h.update(transcript_to_text(run_protocol(p.scheme, p, d)).encode())
    assert h.hexdigest() == PINNED_MULTIBIT_DIGEST
