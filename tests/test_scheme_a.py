import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from d2dpc import scheme_a, scheme_b, sim, verify
from d2dpc.bounds import MAX_CURVE_PIECES
from d2dpc.combinat import binom, lower_convex_envelope
from d2dpc.core import (
    MulticastMessage,
    RecordingSource,
    SeededSource,
    SubfileId,
    SystemParams,
    other_demands,
    subfile_value,
    transcript_from_text,
    transcript_to_text,
)
from d2dpc.scheme_a import (
    _virtual_demands,
    decode_from_messages,
    index_messages,
    load_a_point,
    params_for,
    place_a,
    plan_delivery_a,
    plan_messages_a,
    scheme_a_curve,
)
from oracles import load_a_upper, virtual_demands_by_blocks


def test_subpacketization_divisibility_error():
    base = SystemParams(K=2, N=3, B=7, seed=0)
    with pytest.raises(ValueError, match="subpacketization"):
        scheme_a.SchemeAParams(base=base, t=3)


def test_t_range():
    with pytest.raises(ValueError):
        params_for(2, 2, 4)  # U + 1 = 3


def test_place_small_example():
    # two users, three files, t = 3: six subfiles per file, each user holds
    # five of them, M = 5/2
    p = params_for(2, 3, 3, seed=1)
    assert p.subpacketization == 6
    placement = place_a(p, SeededSource(1))
    for i in (1, 2, 3):
        assert sum(1 for s in placement.caches[0].slots if s.file == i) == 5
    assert p.memory_point() == Fraction(5, 2)


def test_place_cache_size_exact():
    # K=2, N=2, t=2: M = 3/2, cache holds exactly 3B/2 bits
    p = params_for(2, 2, 2, seed=2)
    placement = place_a(p, SeededSource(2))
    bits_per_slot = placement.params.layout.subfile_bits
    for cache in placement.caches:
        assert len(cache.slots) * bits_per_slot == Fraction(3, 2) * p.base.B
    # independent count: (binom(2,1) + binom(1,0)) slots per file, 2 files
    assert len(placement.caches[0].slots) == (binom(2, 1) + binom(1, 0)) * 2


def test_place_t1_own_block_only():
    p = params_for(3, 2, 1, seed=3)
    placement = place_a(p, SeededSource(3))
    layout = placement.params.layout
    for k, cache in enumerate(placement.caches, start=1):
        assert all(layout.block_of(s.slot) == k for s in cache.slots)
    assert p.memory_point() == Fraction(p.base.N, p.base.K)


def test_assign_virtual_demands_two_users():
    # K=2, N=2, transmitter 1, d=(1,1): the other user demands file 1,
    # so the single virtual user takes file 2
    d_eff = _virtual_demands(2, 2, 1, (1,))[0]
    assert d_eff[2] == 1
    assert d_eff[3] == 2
    counts = [list(d_eff.values()).count(i) for i in (1, 2)]
    assert counts == [1, 1]


def test_assign_virtual_demands_three_users():
    # K=3, N=2, transmitter 3, d=(1,1,*): both virtual users take file 2
    d_eff = _virtual_demands(3, 2, 3, (1, 1))[0]
    assert d_eff[4] == 2 and d_eff[5] == 2
    counts = [list(d_eff.values()).count(i) for i in (1, 2)]
    assert counts == [2, 2]


def test_assign_virtual_demands_partitions_universe():
    rng = random.Random(5)
    for K, N in [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)]:
        p = params_for(K, N, 1)
        for _ in range(10):
            d = tuple(rng.randint(1, N) for _ in range(K))
            for k in range(1, K + 1):
                d_eff = _virtual_demands(K, N, k, other_demands(d, k))[0]
                assert len(d_eff) == p.U
                per_file = [list(d_eff.values()).count(i) for i in range(1, N + 1)]
                assert per_file == [K - 1] * N


def test_demander_tuples_match_a_scan_per_file():
    # one pass over the map groups its users by file; that equals the old
    # definition, one sorted scan of the whole map per file
    for K, N in itertools.product(range(2, 6), repeat=2):
        for d in itertools.product(range(1, N + 1), repeat=K):
            for k in range(1, K + 1):
                d_eff, demanders = _virtual_demands(K, N, k, other_demands(d, k))
                assert demanders == tuple(
                    tuple(sorted(u for u, f in d_eff.items() if f == i)) for i in range(N + 1)
                ), (K, N, k, d)


def test_virtual_demands_match_the_block_index_assignment():
    # handing virtual users out in order, file by file, gives the map (and
    # its key order) and the demanders of the contiguous-block arithmetic
    for K in range(2, 6):
        for N in range(2, 5):
            for d in itertools.product(range(1, N + 1), repeat=K):
                for k in range(1, K + 1):
                    d_eff, demanders = _virtual_demands(K, N, k, other_demands(d, k))
                    want_map, want_demanders = virtual_demands_by_blocks(K, N, k, d)
                    assert list(d_eff.items()) == list(want_map.items()), (K, N, k, d)
                    assert demanders == want_demanders, (K, N, k, d)


def test_virtual_demand_maps_are_read_only():
    d_eff = _virtual_demands(2, 2, 1, (2,))[0]
    with pytest.raises(TypeError):
        d_eff[2] = 2


def _sorted_tuple_placement(placement):
    """Caches and a ``slot_of`` built the old way: each transmitter's lex
    (t-1)-subsets ranked by sorted tuple, cache membership by scanning them."""
    params = placement.params
    K, N = params.base.K, params.base.N
    users = range(1, (K - 1) * (N - 1) + K + 1)
    wsets = {k: list(itertools.combinations([u for u in users if u != k], params.t - 1))
             for k in range(1, K + 1)}
    wrank = {k: {w: j for j, w in enumerate(ws)} for k, ws in wsets.items()}
    caches = []
    for k in range(1, K + 1):
        slots = []
        for i in range(1, N + 1):
            slots.extend(SubfileId(i, s) for s in placement.params.layout.block_slots(k))
            for other in range(1, K + 1):
                if other != k:
                    slots.extend(
                        SubfileId(i, placement.tables[other][i][j].slot)
                        for j, w in enumerate(wsets[other])
                        if k in w
                    )
        caches.append(tuple(sorted(slots)))

    def slot_of(transmitter, file, wset):
        j = wrank[transmitter][tuple(sorted(wset))]
        return SubfileId(file, placement.tables[transmitter][file][j].slot)

    return caches, slot_of


def _drawn(params, k, others, source) -> SimpleNamespace:
    """Transmitter k's delivery drawn from ``source`` as a query draws it:
    its effective demands, leader set and shuffle q, and the draw values
    ``plan_messages_a`` reads."""
    values = [source.draw(*draw) for draw in plan_delivery_a(params, k, others)]
    d_eff = _virtual_demands(params.base.K, params.base.N, k, others)[0]
    return SimpleNamespace(d_eff=d_eff, leaders=frozenset(values[:-1]), q=tuple(values[-1]), values=values)


def _sorted_tuple_messages(k, tp, params, slot_of):
    out = []
    for S in itertools.combinations(range(1, params.U + 1), params.t):
        users = tuple(tp.q[j - 1] for j in S)
        if set(users) & tp.leaders:
            out.append((S, tuple(slot_of(k, tp.d_eff[u], set(users) - {u}) for u in users)))
    return out


@pytest.mark.parametrize("K,N,t", [(2, 2, 1), (2, 3, 3), (3, 2, 2), (3, 3, 4), (4, 2, 3), (3, 2, 5)])
def test_shared_structure_matches_sorted_tuple_ranks(K, N, t):
    # the bitmask ranks and held pairs shared per (K, N, t) give the same
    # caches and message compositions as ranking each subset by its
    # sorted tuple, placement by placement
    p = params_for(K, N, t)
    rng = random.Random(K * 100 + N * 10 + t)
    for seed in range(4):
        placement = place_a(p, SeededSource(seed))
        caches, slot_of = _sorted_tuple_placement(placement)
        assert [c.slots for c in placement.caches] == caches
        demands = tuple(rng.randint(1, N) for _ in range(K))
        for source in (SeededSource(seed), RecordingSource()):  # RecordingSource: the baseline
            for k in range(1, K + 1):
                others = other_demands(demands, k)
                tp = _drawn(p, k, others, source)
                assert plan_messages_a(placement, k, others, tp.values) == _sorted_tuple_messages(
                    k, tp, p, slot_of)
    # one structure per size: a placement at another seed builds none
    misses = scheme_a.structure_a.cache_info().misses
    place_a(params_for(K, N, t, seed=99), SeededSource(99))
    assert scheme_a.structure_a.cache_info().misses == misses


def test_message_count():
    for K, N, t in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 4)]:
        p = params_for(K, N, t, seed=7)
        tr = sim.run_protocol("A", p, tuple(1 for _ in range(K)))
        expected = binom(p.U, t) - binom(p.U - N, t)
        for per in tr.broadcasts:
            assert len(per) == expected


def test_example_broadcast_structure():
    # two users, three files, t=3, d=(1,1): each transmitter sends a single
    # XOR of one subfile per file; the receiver caches every component
    # except the one from the demanded file
    p = params_for(2, 3, 3, seed=11)
    tr = sim.run_protocol("A", p, (1, 1))
    (msg,) = tr.broadcasts[0]
    files = sorted(sid.file for sid in msg.composition)
    assert files == [1, 2, 3]
    cache2 = set(tr.caches[1].slots)
    for sid in msg.composition:
        if sid.file == 1:
            assert sid not in cache2  # the fresh subfile for the receiver
        else:
            assert sid in cache2  # cancellable side information


def test_full_memory_no_messages():
    p = params_for(2, 2, 3, seed=4)  # t = U + 1
    tr = sim.run_protocol("A", p, (2, 1))
    assert tr.payload_bits == 0
    assert all(not per for per in tr.broadcasts)
    results = verify.check_decodability(tr)
    assert all(results.values())


def test_load_point_values():
    assert load_a_point(2, 3, 1) == (Fraction(3, 2), Fraction(3))
    assert load_a_point(2, 3, 2) == (Fraction(2), Fraction(1))
    assert load_a_point(2, 3, 3) == (Fraction(5, 2), Fraction(1, 3))
    assert load_a_point(3, 2, 2) == (Fraction(1), Fraction(5, 4))
    assert load_a_point(2, 2, 3) == (Fraction(2), Fraction(0))
    with pytest.raises(ValueError):
        load_a_point(2, 2, 0)


def test_envelope_example_point():
    assert scheme_a_curve(2, 2)(Fraction(6, 5)) == Fraction(7, 5)


def test_curve_is_the_envelope_of_its_closed_form_points():
    # the one-walk loads against ``load_a_point``'s per-t closed form, at
    # K = 2..12 and N <= 40 under the piece cap and at three instances of
    # the cap's size: the same corners and provenance tags
    box = [(K, N) for K in range(2, 13) for N in range(1, 41) if (K - 1) * N + 1 <= MAX_CURVE_PIECES]
    for K, N in box + [(19, 55), (10, 111), (3, 499)]:
        ts = range(1, (K - 1) * N + 2)
        expected = lower_convex_envelope([load_a_point(K, N, t) for t in ts],
                                         provenance=[f"schemeA(t={t})" for t in ts])
        curve = scheme_a_curve(K, N)
        assert (curve.corners, curve.provenance) == (expected.corners, expected.provenance), (K, N)


def test_curve_makes_no_binomial_call_per_point(monkeypatch):
    # 991 points at (19, 55): a closed form per point would make about
    # 3,000 math.comb calls, the walk makes none
    calls, comb = [], math.comb

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counted)
    assert len(scheme_a_curve(19, 55).corners) > 1
    assert len(calls) <= 3


def test_load_upper_bound():
    assert load_a_upper(2, 3, 3) == Fraction(1, 3)
    assert load_a_upper(2, 3, 4) == 0  # t = U + 1
    assert load_a_upper(3, 2, 2) == Fraction(3, 2)
    U = (3 - 1) * 2
    for t in range(1, U + 2):
        assert load_a_point(3, 2, t)[1] <= load_a_upper(3, 2, t)


def _grid_instances():
    # K, N <= 4 with subpacketization <= 1000
    out = []
    for K in (2, 3, 4):
        for N in (2, 3, 4):
            U = (K - 1) * N
            for t in range(1, U + 2):
                if K * binom(U, t - 1) <= 1000:
                    out.append((K, N, t))
    return out


def _decode(tr, messages, user=1):
    layout = tr.scheme_params.layout
    return decode_from_messages(user, index_messages(messages, layout), tr.caches[user - 1],
                                tr.demands[user - 1], layout)


@pytest.mark.parametrize("K,N,t", _grid_instances())
def test_simulated_load_and_decode_match_formula(K, N, t):
    # measured load equals the closed form and every user decodes,
    # exhaustively over demand vectors on small instances and on a seeded
    # sample elsewhere
    p = params_for(K, N, t, seed=K * 100 + N * 10 + t)
    all_demands = list(itertools.product(range(1, N + 1), repeat=K))
    if len(all_demands) > 16:
        rng = random.Random(42)
        demands = [tuple(1 for _ in range(K)), tuple((i % N) + 1 for i in range(K))]
        demands += [tuple(rng.randint(1, N) for _ in range(K)) for _ in range(10)]
    else:
        demands = all_demands
    expected = load_a_point(K, N, t)[1]
    for d in demands:
        tr = sim.run_protocol("A", p, d)
        assert sim.measure_load(tr) == expected
        for c in tr.caches:  # cache budget is met with equality
            assert len(c.slots) * tr.scheme_params.layout.subfile_bits == tr.scheme_params.memory_point() * p.base.B
        for u in range(1, K + 1):
            got = _decode(tr, tr.all_messages(), u)
            assert got == tr.library[d[u - 1]], f"user {u} demand {d}"


def test_per_file_demand_symmetry_after_planning():
    p = params_for(3, 3, 2, seed=6)
    for k in range(1, 4):
        tp = _drawn(p, k, other_demands((1, 1, 3), k), SeededSource(6))
        for i in range(1, 4):
            assert sum(1 for f in tp.d_eff.values() if f == i) == 2
        assert len(tp.leaders) == 3
        demanded = {tp.d_eff[u] for u in tp.leaders}
        assert demanded == {1, 2, 3}  # one leader per file


def test_decoding_failure_reported_with_slot():
    p = params_for(2, 2, 2, seed=8)
    tr = sim.run_protocol("A", p, (1, 2))
    # drop every message: user 1 cannot finish file 1
    with pytest.raises(scheme_a.DecodingFailure) as err:
        _decode(tr, [])
    assert err.value.sid.file == 1


# ---------------------------------------------------------------------------
# fault injection on a real A(3,2,3) transcript
# ---------------------------------------------------------------------------


def _faulty_setup():
    """Transcript plus, for user 1, the indices of its messages by the
    number of components it does not cache."""
    p = params_for(3, 2, 3, seed=5)
    tr = sim.run_protocol("A", p, (1, 2, 1))
    known = tr.caches[0].content
    by_unknowns = {}
    for i, m in enumerate(tr.all_messages()):
        n = sum(1 for sid in m.composition if sid not in known)
        by_unknowns.setdefault(n, []).append(i)
    return tr, by_unknowns


def _flip_bit(m):
    return dataclasses.replace(m, payload=m.payload ^ 1)


def test_dropped_single_unknown_message_is_a_decoding_failure():
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    i = by_unknowns[1][0]
    (lost,) = [sid for sid in msgs[i].composition if sid not in tr.caches[0].content]
    assert lost.file == tr.demands[0]  # the message was useful to user 1
    with pytest.raises(scheme_a.DecodingFailure) as err:
        _decode(tr, msgs[:i] + msgs[i + 1:])
    assert err.value.sid == lost


def test_conflicting_duplicate_message_is_inconsistent():
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    twin = _flip_bit(msgs[by_unknowns[1][0]])
    with pytest.raises(ValueError, match="inconsistent XOR system"):
        _decode(tr, msgs + [twin])


def test_flipped_fully_cached_message_is_inconsistent_with_cache():
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    i = by_unknowns[0][0]
    msgs[i] = _flip_bit(msgs[i])
    with pytest.raises(ValueError, match="inconsistent with cache"):
        _decode(tr, msgs)


def test_flipped_lone_single_unknown_message_is_caught_only_bit_exactly():
    # A bit flipped in a message whose one unknown appears in no other
    # equation leaves the receiver's system consistent: the receiver
    # decodes a wrong file and cannot tell.  Only the bit-exact
    # comparison against the library in check_decodability catches it.
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    known = tr.caches[0].content
    unknowns = [
        [sid for sid in m.composition if sid not in known] for m in msgs
    ]
    seen = [sid for u in unknowns for sid in u]
    i = next(i for i in by_unknowns[1] if seen.count(unknowns[i][0]) == 1)
    sender = msgs[i].sender
    j = tr.broadcasts[sender - 1].index(msgs[i])
    broadcasts = [list(per) for per in tr.broadcasts]
    broadcasts[sender - 1][j] = _flip_bit(msgs[i])
    bad = dataclasses.replace(tr, broadcasts=broadcasts)

    got = _decode(bad, bad.all_messages())  # no error raised
    assert got != tr.library[tr.demands[0]]
    assert verify.check_decodability(bad)[1] is False
    assert verify.check_decodability(tr)[1] is True


def _fault_outcome(tr, messages, user):
    """What ``user`` makes of ``messages``: its file decoded right or
    wrong, a ``DecodingFailure``, or the ValueError of an inconsistent
    system or of a message inconsistent with its cache."""
    try:
        got = _decode(tr, messages, user)
    except scheme_a.DecodingFailure:
        return "failure"
    except ValueError as err:
        return "system" if "inconsistent XOR system" in str(err) else "cache"
    return "ok" if got == tr.library[tr.demands[user - 1]] else "wrong"


# (scheme, params at seed 5, demands) -> receiver outcomes summed over
# every message of one flipped payload bit, and of a flipped copy appended
FAULT_VERDICTS = {
    ("A", (3, 2, 2), (1, 2, 1)): ({"ok": 10, "wrong": 20, "cache": 15}, {"system": 30, "cache": 15}),
    ("A", (3, 2, 3), (1, 2, 1)): ({"ok": 6, "wrong": 18, "cache": 12}, {"system": 24, "cache": 12}),
    ("A", (4, 2, 3), (1, 2, 2, 1)): ({"ok": 57, "wrong": 135, "cache": 64}, {"system": 192, "cache": 64}),
    ("A", (3, 3, 3), (1, 2, 3)): ({"ok": 45, "wrong": 69, "cache": 57}, {"system": 114, "cache": 57}),
    ("B", (4, 2), (3, 1)): ({"ok": 2, "wrong": 6, "cache": 8}, {"system": 8, "cache": 8}),
}


@pytest.mark.parametrize("scheme,size,demands", list(FAULT_VERDICTS))
def test_fault_verdicts_pinned(scheme, size, demands):
    # A flipped copy contradicts its original in the sender's system, or
    # the cache of a receiver that knows every summand, whether or not
    # any receiver needs the message: a decoder that drops the rows it
    # does not need changes the second counts.
    p = (scheme_a if scheme == "A" else scheme_b).params_for(*size, seed=5)
    tr = sim.run_protocol(scheme, p, demands)
    msgs = tr.all_messages()
    flipped, copied = Counter(), Counter()
    for i, m in enumerate(msgs):
        bad = _flip_bit(m)
        for u in range(1, len(demands) + 1):
            flipped[_fault_outcome(tr, msgs[:i] + [bad] + msgs[i + 1:], u)] += 1
            copied[_fault_outcome(tr, msgs + [bad], u)] += 1
    assert (flipped, copied) == FAULT_VERDICTS[scheme, size, demands]


def test_senders_must_agree():
    # sender 2's system determines subfile 1:6 for users 1 and 3; a
    # one-summand message of sender 3 giving it another value must be
    # refused, not merged over the first solution
    p = params_for(3, 2, 2, seed=3)
    tr = sim.run_protocol("A", p, (1, 2, 1))
    sid = SubfileId(1, 6)
    assert [sid in c.content for c in tr.caches] == [False, True, False]
    lie = MulticastMessage(3, (sid,), subfile_value(tr.library, p.layout, sid) ^ 1)
    messages = tr.all_messages() + [lie]
    for u in (1, 3):
        with pytest.raises(ValueError, match="senders disagree on subfile 1:6"):
            _decode(tr, messages, u)
    with pytest.raises(ValueError, match="inconsistent with cache"):
        _decode(tr, messages, 2)


def _with_first_message(tr, composition, payload):
    """``tr`` with sender 1's first message replaced, read back from its
    text form (the parser accepts the message)."""
    broadcasts = [list(per) for per in tr.broadcasts]
    broadcasts[0][0] = dataclasses.replace(broadcasts[0][0], composition=composition, payload=payload)
    return transcript_from_text(transcript_to_text(dataclasses.replace(tr, broadcasts=broadcasts)))


def test_composition_is_an_xor_a_subfile_listed_twice_cancels():
    p = params_for(3, 2, 2, seed=3)
    tr = sim.run_protocol("A", p, (1, 2, 1))
    first, second = tr.broadcasts[0][:2]
    # an uncached pair of one subfile adds nothing: everyone still decodes
    y = next(sid for sid in second.composition if sid not in first.composition)
    assert [y in c.content for c in tr.caches] == [True, False, False]
    pair = _with_first_message(tr, (y,) + first.composition + (y,), first.payload)
    assert verify.check_decodability(pair) == {1: True, 2: True, 3: True}
    # a repeated summand cancels, and with it what users 2 and 3 needed:
    # they name an undetermined subfile instead of decoding a wrong file
    sid = first.composition[0]
    value = subfile_value(tr.library, p.layout, sid)
    twice = _with_first_message(tr, (sid,) + first.composition, first.payload ^ value)
    assert verify.check_decodability(twice) == {1: True, 2: False, 3: False}
    for u in (2, 3):
        with pytest.raises(scheme_a.DecodingFailure):
            _decode(twice, twice.all_messages(), u)


@pytest.mark.parametrize("sid", [SubfileId(3, 1), SubfileId(0, 1), SubfileId(2, 0), SubfileId(1, 10**6)])
def test_subfile_outside_the_layout_is_refused(sid):
    # keys are f * slots_per_file + s, so (2, 0) would alias (1, slots_per_file)
    tr = sim.run_protocol("A", params_for(3, 2, 2, seed=3), (1, 2, 1))
    broadcasts = [list(per) for per in tr.broadcasts]
    first = broadcasts[0][0]
    broadcasts[0][0] = dataclasses.replace(first, composition=first.composition + (sid,))
    with pytest.raises(ValueError, match=f"names subfile {sid.file}:{sid.slot} outside the layout"):
        verify.check_decodability(dataclasses.replace(tr, broadcasts=broadcasts))


def test_index_of_another_layout_is_refused():
    tr = sim.run_protocol("A", params_for(3, 2, 2, seed=3), (1, 2, 1))
    other = params_for(3, 2, 3, seed=3).layout
    index = index_messages(tr.all_messages(), tr.scheme_params.layout)
    with pytest.raises(ValueError, match="another slot layout"):
        decode_from_messages(1, index, tr.caches[0], 1, other)


def test_large_instance_decodes_bit_exactly():
    # A(4,5,8): B = 25,740 bits and 25,560 messages.  Users 1, 3 and 4
    # recover some demanded subfiles only through combinations of messages,
    # since leader filtering drops their own.  Each receiver's systems hold
    # about 47,500 unknowns, about 10,300 of them wanted: the forward
    # reduction takes every row, and back-substitution reduces only the
    # wanted pivot rows, walking each one's set bits.  All four receivers
    # decode in about a second; testing every pair of pivots in a
    # back-substitution over every unknown took over a minute.
    p = params_for(4, 5, 8, seed=0)
    tr = sim.run_protocol("A", p, (1, 2, 3, 4))
    assert len(tr.all_messages()) == 25560
    assert sim.measure_load(tr) == load_a_point(4, 5, 8)[1]
    assert verify.check_decodability(tr) == {1: True, 2: True, 3: True, 4: True}
