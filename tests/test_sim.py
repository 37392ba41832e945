from fractions import Fraction

import pytest

from d2dpc import scheme_a, scheme_b, sim
from d2dpc.sim import measure_load, run_protocol, theoretical_load, user_broadcast


def test_run_scheme_a_load():
    p = scheme_a.params_for(2, 2, 2, seed=1)
    tr = run_protocol("A", p, (1, 2))
    assert measure_load(tr) == Fraction(1, 2)
    assert measure_load(tr) == theoretical_load(tr)
    assert tr.payload_bits == sum(m.nbits for m in tr.all_messages())


def test_run_scheme_b_load():
    p = scheme_b.params_for(3, 1, seed=2)
    tr = run_protocol("B", p, (1, 1))
    assert [len(per) for per in tr.broadcasts] == [3, 3]
    assert measure_load(tr) == 1
    assert tr.layout.subfile_bits * 6 == p.base.B  # messages of B/6 bits


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
    tr = run_protocol("A", p, (2, 1, 2))
    for query, per in zip(tr.queries, tr.broadcasts):
        redone = user_broadcast(tr.caches[query.recipient - 1], query, tr.layout.subfile_bits)
        assert [(m.sender, m.composition, m.payload) for m in redone] == [
            (m.sender, m.composition, m.payload) for m in per
        ]


def test_transmitters_never_need_foreign_subfiles():
    # a query naming a subfile outside the user's cache would fail loudly
    p = scheme_b.params_for(4, 2, seed=6)
    tr = run_protocol("B", p, (3, 4))
    victim = tr.queries[0]
    foreign = next(
        sid for _, comp in tr.queries[1].plan for sid in comp
        if sid not in tr.caches[0].content
    )
    victim.plan[0] = (victim.plan[0][0], victim.plan[0][1] + (foreign,))
    with pytest.raises(KeyError):
        user_broadcast(tr.caches[0], victim, tr.layout.subfile_bits)


def test_seed_determinism():
    p = scheme_a.params_for(2, 3, 2, seed=9)
    t1 = run_protocol("A", p, (3, 1))
    t2 = run_protocol("A", p, (3, 1))
    assert [m.payload for m in t1.all_messages()] == [m.payload for m in t2.all_messages()]
    assert [m.composition for m in t1.all_messages()] == [
        m.composition for m in t2.all_messages()
    ]


def test_structure_only_run_has_no_bits():
    p = scheme_a.params_for(2, 2, 2, seed=10)
    tr = run_protocol("A", p, (1, 1), structure_only=True)
    assert tr.library is None
    assert all(m.payload is None for m in tr.all_messages())
    assert all(c.content is None for c in tr.caches)


def test_unknown_scheme():
    p = scheme_a.params_for(2, 2, 2)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_protocol("C", p, (1, 1))
    with pytest.raises(ValueError, match="unknown scheme"):
        run_protocol("B", p, (1, 1))  # a letter that does not match the params
    tr = run_protocol("a", p, (1, 1))
    assert tr.scheme == "A"
    tr.scheme = "C"
    with pytest.raises(ValueError, match="unknown scheme"):
        theoretical_load(tr)
