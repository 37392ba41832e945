import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from d2dpc import scheme_a, sim, verify
from d2dpc.combinat import binom
from d2dpc.core import SeededSource
from d2dpc.scheme_a import (
    assign_virtual_demands,
    decode_from_messages,
    load_a_point,
    load_a_upper,
    params_for,
    place_a,
    plan_delivery_a,
    scheme_a_curve,
)


def test_subpacketization_divisibility_error():
    base = scheme_a.SystemParams(K=2, N=3, B=7, seed=0)
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
    bits_per_slot = placement.layout.subfile_bits
    for cache in placement.caches:
        assert len(cache.slots) * bits_per_slot == Fraction(3, 2) * p.base.B
    # independent count: (binom(2,1) + binom(1,0)) slots per file, 2 files
    assert len(placement.caches[0].slots) == (binom(2, 1) + binom(1, 0)) * 2


def test_place_t1_own_block_only():
    p = params_for(3, 2, 1, seed=3)
    placement = place_a(p, SeededSource(3))
    layout = placement.layout
    for k, cache in enumerate(placement.caches, start=1):
        assert all(layout.block_of(s.slot) == k for s in cache.slots)
    assert p.memory_point() == Fraction(p.base.N, p.base.K)


def test_assign_virtual_demands_two_users():
    # K=2, N=2, transmitter 1, d=(1,1): file 1 already has one real
    # demander, so the single virtual user takes file 2
    p = params_for(2, 2, 1)
    d_eff = assign_virtual_demands(1, (1, 1), p)
    assert d_eff[2] == 1
    assert d_eff[3] == 2
    counts = [list(d_eff.values()).count(i) for i in (1, 2)]
    assert counts == [1, 1]


def test_assign_virtual_demands_three_users():
    # K=3, N=2, transmitter 3, d=(1,1,*): both virtual users take file 2
    p = params_for(3, 2, 1)
    d_eff = assign_virtual_demands(3, (1, 1, 2), p)
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
                d_eff = assign_virtual_demands(k, d, p)
                assert len(d_eff) == p.U
                per_file = [list(d_eff.values()).count(i) for i in range(1, N + 1)]
                assert per_file == [K - 1] * N


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
            assert len(c.slots) * tr.layout.subfile_bits == tr.memory_point * p.base.B
        for u in range(1, K + 1):
            got = decode_from_messages(
                u, tr.all_messages(), tr.caches[u - 1], d[u - 1], tr.layout
            )
            assert got == tr.library[d[u - 1]], f"user {u} demand {d}"


def test_per_file_demand_symmetry_after_planning():
    p = params_for(3, 3, 2, seed=6)
    plan = plan_delivery_a(p, (1, 1, 3), SeededSource(6))
    for k, tp in plan.per_transmitter.items():
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
        decode_from_messages(1, [], tr.caches[0], 1, tr.layout)
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


def _decode_user1(tr, messages):
    return decode_from_messages(1, messages, tr.caches[0], tr.demands[0], tr.layout)


def test_dropped_single_unknown_message_is_a_decoding_failure():
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    i = by_unknowns[1][0]
    (lost,) = [sid for sid in msgs[i].composition if sid not in tr.caches[0].content]
    assert lost.file == tr.demands[0]  # the message was useful to user 1
    with pytest.raises(scheme_a.DecodingFailure) as err:
        _decode_user1(tr, msgs[:i] + msgs[i + 1:])
    assert err.value.sid == lost


def test_conflicting_duplicate_message_is_inconsistent():
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    twin = _flip_bit(msgs[by_unknowns[1][0]])
    with pytest.raises(ValueError, match="inconsistent XOR system"):
        _decode_user1(tr, msgs + [twin])


def test_flipped_fully_cached_message_is_inconsistent_with_cache():
    tr, by_unknowns = _faulty_setup()
    msgs = tr.all_messages()
    i = by_unknowns[0][0]
    msgs[i] = _flip_bit(msgs[i])
    with pytest.raises(ValueError, match="inconsistent with cache"):
        _decode_user1(tr, msgs)


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

    got = _decode_user1(bad, bad.all_messages())  # no error raised
    assert got != tr.library[tr.demands[0]]
    assert verify.check_decodability(bad)[1] is False
    assert verify.check_decodability(tr)[1] is True


def test_large_instance_decodes_bit_exactly():
    # A(4,5,8): B = 25,740 bits and 25,560 messages.  Users 1, 3 and 4
    # recover some demanded subfiles only through combinations of messages,
    # since leader filtering drops their own.  Full elimination of every
    # per-sender system took over a minute; peeling plus per-component
    # elimination takes seconds.
    p = params_for(4, 5, 8, seed=0)
    tr = sim.run_protocol("A", p, (1, 2, 3, 4))
    assert len(tr.all_messages()) == 25560
    assert sim.measure_load(tr) == load_a_point(4, 5, 8)[1]
    assert verify.check_decodability(tr) == {1: True, 2: True, 3: True, 4: True}
