import itertools
from fractions import Fraction

import pytest

from d2dpc import sim, verify
from d2dpc.combinat import binom
from d2dpc.core import SeededSource, SubfileId
from d2dpc.scheme_a import decode_from_messages, index_messages, load_a_point
from d2dpc.scheme_b import (
    PickExhausted,
    SchemeBParams,
    load_b_point,
    params_for,
    place_b,
    plan_messages_b,
    scheme_b_curve,
)


def test_k_must_be_two():
    from d2dpc.core import SystemParams

    with pytest.raises(ValueError, match="K = 2"):
        SchemeBParams(base=SystemParams(K=3, N=3, B=12), tprime=1)


def test_place_small_instance_pattern():
    # N=3, t'=2: four subfiles per file (two per half); each user holds all
    # of its own half plus one cross-cached subfile of the other half
    p = params_for(3, 2, seed=1)
    assert p.subpacketization == 4
    assert p.memory_point() == Fraction(9, 4)
    placement = place_b(p, SeededSource(1))
    for i in (1, 2, 3):
        own = [s for s in placement.caches[0].slots if s.file == i and s.slot <= 2]
        cross = [s for s in placement.caches[0].slots if s.file == i and s.slot > 2]
        assert len(own) == 2 and len(cross) == 1


def test_place_tprime0_own_half_only():
    p = params_for(4, 0, seed=2)
    placement = place_b(p, SeededSource(2))
    layout = placement.params.layout
    for k, cache in enumerate(placement.caches, start=1):
        assert all(layout.block_of(s.slot) == k for s in cache.slots)
    assert p.memory_point() == Fraction(4, 2)


def test_place_n2_tprime1_slot_count():
    # N=2, t'=1: M = 3/2; (binom(1,1) + 2*binom(0,0)) * N = 6 slots of B/4
    p = params_for(2, 1, seed=3)
    placement = place_b(p, SeededSource(3))
    for cache in placement.caches:
        assert len(cache.slots) == 6
        assert len(cache.slots) * placement.params.layout.subfile_bits == Fraction(3, 2) * p.base.B


def test_single_message_at_max_tprime():
    p = params_for(4, 3, seed=4)  # t' = N - 1: one subset, one message
    tr = sim.run_protocol("B", p, (2, 3))
    assert [len(per) for per in tr.broadcasts] == [1, 1]


def test_message_count_and_structure():
    # every message XORs one subfile of each file in its (t'+1)-subset
    p = params_for(3, 1, seed=5)
    tr = sim.run_protocol("B", p, (1, 1))
    for per in tr.broadcasts:
        assert len(per) == binom(3, 2)
        for m in per:
            files = sorted(s.file for s in m.composition)
            assert len(files) == len(set(files)) == 2
    assert sim.measure_load(tr) == 1  # 3 messages/user at B/6 each


def test_example_broadcast_components():
    # N=3, t'=2, d=(1,1): the one message of user 1 takes the file-1
    # subfile outside user 2's cross cache and cross-cached subfiles of
    # files 2 and 3
    p = params_for(3, 2, seed=6)
    tr = sim.run_protocol("B", p, (1, 1))
    (msg,) = tr.broadcasts[0]
    cache2 = set(tr.caches[1].slots)
    for sid in msg.composition:
        assert (sid in cache2) == (sid.file != 1)


def test_pick_rule_feasible_exhaustive():
    # DERIVED feasibility check for the pick rule: N <= 6, all t', all demands
    for N in range(2, 7):
        for tp in range(N):
            p = params_for(N, tp, seed=N * 10 + tp)
            for d in itertools.product(range(1, N + 1), repeat=2):
                tr = sim.run_protocol("B", p, d)  # PickExhausted would raise
                assert [len(per) for per in tr.broadcasts] == [binom(N, tp + 1)] * 2


def _pick_loop_messages(k, placement, d_other):
    """Transmitter k's compositions from a per-call pick loop, the
    reference for ``structure_b``: per-file counters consume each permuted
    block, the other user's demanded file from the non-cross part and
    every other file of the subset from the cross part."""
    params = placement.params
    N, ncross = params.base.N, binom(params.base.N - 2, params.tprime - 1)
    blocks = {i: placement.tables[k][i] for i in range(1, N + 1)}
    next_cross = dict.fromkeys(blocks, 0)
    next_noncross = dict.fromkeys(blocks, ncross)

    def pick(file, cross):
        block = blocks[file]
        counter = next_cross if cross else next_noncross
        idx = counter[file]
        if idx >= (ncross if cross else len(block)):
            raise PickExhausted(f"file {file}")
        counter[file] = idx + 1
        return SubfileId(file, block[idx].slot)

    out = []
    for S in itertools.combinations(range(1, N + 1), params.tprime + 1):
        contains_other = d_other in S
        out.append((None, tuple(pick(i, contains_other and i != d_other) for i in S)))
    return out


def test_shared_structure_matches_pick_loop():
    # the plans built once per (N, t') in permuted-index space give the
    # compositions the per-call pick loop gives, placement by placement
    for N in range(2, 8):
        for tp in range(N):
            p = params_for(N, tp)
            for seed in range(2):
                placement = place_b(p, SeededSource(seed))
                for d_other in range(1, N + 1):
                    for k in (1, 2):
                        assert plan_messages_b(placement, k, (d_other,), ()) == _pick_loop_messages(
                            k, placement, d_other
                        )


def test_decode_and_load_exhaustive():
    for N in range(2, 7):
        for tp in range(N):
            p = params_for(N, tp, seed=N * 7 + tp)
            expected = load_b_point(N, tp)[1]
            for d in itertools.product(range(1, N + 1), repeat=2):
                tr = sim.run_protocol("B", p, d)
                assert sim.measure_load(tr) == expected
                for u in (1, 2):
                    layout = tr.scheme_params.layout
                    got = decode_from_messages(
                        u, index_messages(tr.all_messages(), layout), tr.caches[u - 1], d[u - 1], layout
                    )
                    assert got == tr.library[d[u - 1]], (N, tp, d, u)


def test_full_memory_run():
    p = params_for(3, None, seed=8)
    tr = sim.run_protocol("B", p, (2, 3))
    assert tr.payload_bits == 0
    assert all(verify.check_decodability(tr).values())
    assert tr.scheme_params.memory_point() == 3


def test_load_points():
    assert load_b_point(3, 2) == (Fraction(9, 4), Fraction(1, 2))
    assert load_b_point(2, 1) == (Fraction(3, 2), Fraction(1, 2))
    assert load_b_point(4, 0) == (Fraction(2), Fraction(4))  # (N/2, N)
    with pytest.raises(ValueError):
        load_b_point(3, 3)
    assert scheme_b_curve(3).corners[-1] == (3, 0)


def test_memory_closed_form_is_the_sum():
    # M = N(N + 2t' - 1) / (2(N + t' - 1)), one Fraction, is the paper's
    # N/2 + N t' / (2(N + t' - 1)) at every corner of N = 2..399
    for N in range(2, 400):
        for tp in range(N):
            assert load_b_point(N, tp)[0] == Fraction(N, 2) + Fraction(N * tp, 2 * (N + tp - 1)), (N, tp)


def test_envelope_example_point():
    assert scheme_b_curve(2)(Fraction(6, 5)) == Fraction(7, 5)


def test_dominates_virtual_user_scheme():
    # memory-sharing the t'-point with (N, 0) at weight
    # (N+t'-1)(N-t')/(N(N-1)) lands exactly on the other scheme's corner
    for N in range(2, 31):
        for t in range(1, N + 1):
            tp = t - 1
            alpha = Fraction((N + tp - 1) * (N - tp), N * (N - 1))
            Mb, Rb = load_b_point(N, tp)
            Ma, Ra = load_a_point(2, N, t)
            assert alpha * Mb + (1 - alpha) * N == Ma
            assert alpha * Rb == Ra
