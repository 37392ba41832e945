import dataclasses

import pytest

from d2dpc import scheme_a, scheme_b, sim, verify
from d2dpc.core import MulticastMessage, SubfileId, subfile_value
from d2dpc.verify import (
    ExactModeTooLarge,
    canonical_view,
    check_decodability,
    check_privacy_exact_all,
    check_privacy_mc_all,
    debiased_total_variation,
)


def _exact(scheme, params, coalition, **kwargs):
    (report,) = check_privacy_exact_all(scheme, params, [coalition], **kwargs).values()
    return report


def _mc(scheme, params, coalition, **kwargs):
    (report,) = check_privacy_mc_all(scheme, params, [coalition], **kwargs).values()
    return report


def _swap_slots(tr, file, s1, s2):
    """Relabel two physical slots of one file everywhere in a transcript."""
    mapping = {s1: s2, s2: s1}

    def map_sid(sid):
        if sid.file == file and sid.slot in mapping:
            return SubfileId(file, mapping[sid.slot])
        return sid

    ell = tr.layout.subfile_bits
    v1 = subfile_value(tr.library, tr.layout, SubfileId(file, s1))
    v2 = subfile_value(tr.library, tr.layout, SubfileId(file, s2))
    buf = tr.library[file]
    for slot, val in ((s1, v2), (s2, v1)):
        shift = (slot - 1) * ell
        buf = (buf & ~(((1 << ell) - 1) << shift)) | (val << shift)
    library = dict(tr.library)
    library[file] = buf
    caches = [
        dataclasses.replace(
            c,
            slots=tuple(sorted(map_sid(s) for s in c.slots)),
            content={map_sid(s): v for s, v in c.content.items()},
        )
        for c in tr.caches
    ]
    broadcasts = [
        [
            MulticastMessage(
                m.sender,
                tuple(map_sid(s) for s in m.composition),
                m.payload,
                m.nbits,
                m.position_set,
            )
            for m in per
        ]
        for per in tr.broadcasts
    ]
    return dataclasses.replace(tr, library=library, caches=caches, broadcasts=broadcasts)


def test_view_invariant_under_hidden_relabeling():
    # swapping two same-class slots the coalition does not cache is
    # invisible: the canonical views coincide
    p = scheme_a.params_for(3, 2, 2, seed=21)
    tr = sim.run_protocol("A", p, (1, 2, 2))
    cached1 = {s.slot for s in tr.caches[0].slots if s.file == 1}
    block2 = [s for s in tr.layout.block_slots(2) if s not in cached1]
    assert len(block2) >= 2
    relabeled = _swap_slots(tr, 1, block2[0], block2[1])
    for paranoid in (False, True):
        assert canonical_view(tr, [1], paranoid).key() == canonical_view(
            relabeled, [1], paranoid
        ).key()
    assert verify.canonical_view_blocks(tr, (1,)) == verify.canonical_view_blocks(
        relabeled, (1,)
    )


def test_consistent_relabeling_of_cached_slots_also_invisible():
    # a relabeling applied everywhere moves the cache-membership function
    # along with it, so even cached slots may be swapped: this is exactly
    # the symmetry the placement permutations randomise over
    p = scheme_a.params_for(3, 2, 2, seed=22)
    tr = sim.run_protocol("A", p, (1, 2, 2))
    cached1 = {s.slot for s in tr.caches[0].slots if s.file == 1}
    cross = next(s for s in tr.layout.block_slots(2) if s in cached1)
    free = next(s for s in tr.layout.block_slots(2) if s not in cached1)
    relabeled = _swap_slots(tr, 1, cross, free)
    assert canonical_view(tr, [1]).key() == canonical_view(relabeled, [1]).key()


def test_composition_edit_is_visible():
    # rewriting a message component from a cached slot to an uncached one
    # (without touching the caches) changes what the coalition sees
    p = scheme_a.params_for(3, 2, 2, seed=22)
    tr = sim.run_protocol("A", p, (1, 2, 2))
    cached1 = {s for s in tr.caches[0].slots}
    before = canonical_view(tr, [1]).key()
    target = None
    for m in tr.broadcasts[1]:
        for idx, sid in enumerate(m.composition):
            if sid in cached1:
                target = (m, idx, sid)
    assert target is not None
    m, idx, sid = target
    free = next(
        SubfileId(sid.file, s)
        for s in tr.layout.block_slots(tr.layout.block_of(sid.slot))
        if SubfileId(sid.file, s) not in cached1
    )
    comp = list(m.composition)
    comp[idx] = free
    m.composition = tuple(comp)
    assert canonical_view(tr, [1]).key() != before


def test_full_coalition_view_determines_demands():
    # with everyone colluding the transcript pins the demand vector; used
    # as the sanity negative for the canonicalisation
    p = scheme_a.params_for(2, 2, 2, seed=23)
    views = {}
    for d in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        tr = sim.run_protocol("A", p, d, structure_only=True)
        views[d] = canonical_view(tr, [1, 2]).key()
    assert len(set(views.values())) == 4


def test_coalition_validation():
    p = scheme_a.params_for(2, 2, 2, seed=1)
    tr = sim.run_protocol("A", p, (1, 1), structure_only=True)
    with pytest.raises(ValueError):
        canonical_view(tr, [])
    with pytest.raises(ValueError):
        canonical_view(tr, [5])


def test_exact_privacy_small_instances():
    rep = _exact("A", scheme_a.params_for(2, 2, 1), [2], paranoid=True)
    assert rep.private and rep.mode == "exact"
    rep = _exact("B", scheme_b.params_for(2, 0), [1], paranoid=True)
    assert rep.private


def test_exact_privacy_baseline_fails():
    rep = _exact("A", scheme_a.params_for(2, 2, 1), [1], derandomized=True)
    assert not rep.private
    assert rep.witness is not None
    assert "FAIL" in rep.text()


def test_exact_enumeration_order_invariance(monkeypatch):
    # the verdict cannot depend on the order the randomness is enumerated
    p = scheme_b.params_for(2, 1)
    original = scheme_b.SchemeBParams.placement_atoms

    def reversed_atoms(params):
        return [(lab, list(reversed(opts))) for lab, opts in original(params)]

    ref = verify.enumerate_view_distributions("B", p, [(1,)])
    monkeypatch.setattr(scheme_b.SchemeBParams, "placement_atoms", reversed_atoms)
    flipped = verify.enumerate_view_distributions("B", p, [(1,)])
    assert ref == flipped


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(check_privacy_exact_all, id="check_privacy_exact"),
        pytest.param(check_privacy_mc_all, id="check_privacy_mc"),
    ],
)
@pytest.mark.parametrize("coalition", [(0,), (3,), ()])
def test_out_of_range_coalition_is_rejected(check, coalition):
    # K = 2: user 0 and user 3 do not exist, and an empty coalition sees nothing
    with pytest.raises(ValueError, match="coalition"):
        check("A", scheme_a.params_for(2, 2, 2), [coalition])


def test_exact_cap_error():
    with pytest.raises(ExactModeTooLarge, match="Monte Carlo"):
        check_privacy_exact_all("A", scheme_a.params_for(3, 2, 2), [[1]])


def test_mc_agrees_with_exact_on_small_instance():
    # where exact mode certifies privacy, the Monte Carlo surrogate at
    # 10^4 trials stays inside the default tolerance
    rep = _mc("A", scheme_a.params_for(2, 2, 2), [1], trials=10_000, base_seed=5)
    assert rep.private
    assert rep.max_tv_debiased <= rep.tolerance


def test_mc_baseline_fails():
    rep = _mc("A", scheme_a.params_for(2, 2, 1), [1], trials=400, base_seed=5, derandomized=True)
    assert not rep.private
    assert rep.max_tv_debiased > 0.5  # bounded away from zero


def test_mc_single_trial_degenerate():
    rep = _mc("A", scheme_a.params_for(2, 2, 1), [1], trials=1, base_seed=5)
    assert rep.max_tv in (0.0, 1.0)
    assert rep.low_confidence
    with pytest.raises(ValueError):
        _mc("A", scheme_a.params_for(2, 2, 1), [1], trials=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_mc_rejects_nonpositive_trials(trials):
    # zero trials used to end in a ZeroDivisionError inside the TV estimate
    with pytest.raises(ValueError, match="trials"):
        check_privacy_mc_all("A", scheme_a.params_for(2, 2, 1), [[1], [2]], trials=trials)


def test_total_variation():
    from collections import Counter

    a = Counter({"x": 2, "y": 2})
    b = Counter({"x": 4})
    assert debiased_total_variation(a, b)[0] == 0.5
    assert debiased_total_variation(a, a) == (0, 0)


# sha256 over the canonical views below, computed before the two view
# functions shared one relabelling; any change to what a view holds moves it
PINNED_VIEW_DIGEST = "996fb2d07cde8e2ff364e798dccdbbe61cfb83ad0746becea234df6a7373e089"


def test_canonical_views_pinned():
    import hashlib
    import itertools

    from d2dpc.core import SeededSource

    h = hashlib.sha256()
    for p in (scheme_a.params_for(2, 2, 1), scheme_a.params_for(3, 2, 2), scheme_b.params_for(3, 1)):
        K, N = p.base.K, p.base.N
        users = range(1, K + 1)
        coalitions = [c for r in users for c in itertools.combinations(users, r)]
        for derandomized in (False, True):
            for d in itertools.product(range(1, N + 1), repeat=K):
                for seed in range(3):
                    tr = sim.run_protocol(p.scheme, p, d, source=SeededSource(seed),
                                          derandomized=derandomized, structure_only=True)
                    for c in coalitions:
                        for paranoid in (False, True):
                            h.update(repr(canonical_view(tr, c, paranoid).key()).encode())
                        h.update(repr(verify.canonical_view_blocks(tr, c)).encode())
    assert h.hexdigest() == PINNED_VIEW_DIGEST


def test_decodability_and_fault_injection():
    p = scheme_a.params_for(2, 2, 2, seed=31)
    tr = sim.run_protocol("A", p, (1, 2))
    assert all(check_decodability(tr).values())
    tr.broadcasts[0][0].payload ^= 1  # flip one payload bit
    assert not all(check_decodability(tr).values())


def test_decodability_needs_bits():
    p = scheme_a.params_for(2, 2, 2, seed=32)
    tr = sim.run_protocol("A", p, (1, 2), structure_only=True)
    with pytest.raises(ValueError):
        check_decodability(tr)


def test_decodability_over_enumerated_randomness():
    # zero-error decoding for every demand vector under every point of
    # the randomness space, not just the seeded draw
    import itertools

    from d2dpc.core import FixedSource

    for p in (scheme_a.params_for(2, 2, 2, seed=0), scheme_b.params_for(2, 1, seed=0)):
        for d in itertools.product((1, 2), repeat=2):
            atoms = p.placement_atoms() + p.delivery_atoms(d)
            labels = [lab for lab, _ in atoms]
            for combo in itertools.product(*[opts for _, opts in atoms]):
                source = FixedSource(dict(zip(labels, combo)))
                tr = sim.run_protocol(p.scheme, p, d, source=source)
                assert all(check_decodability(tr).values()), (p.label(), d, combo)
