import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from d2dpc import core, scheme_a, scheme_b, sim, verify
from d2dpc.core import (
    FixedSource,
    MulticastMessage,
    RecordingSource,
    SeededSource,
    SubfileId,
    Transcript,
    other_demands,
    seeded_rng,
    subfile_value,
)
from d2dpc.verify import (
    ExactModeTooLarge,
    canonical_view,
    check_decodability,
    check_privacy_exact_all,
    check_privacy_mc_all,
    debiased_total_variation,
)
from oracles import count_then_project_direct, count_then_project_tuples, decoded, draw_key, recorded_points


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

    ell = tr.scheme_params.layout.subfile_bits
    v1 = subfile_value(tr.library, tr.scheme_params.layout, SubfileId(file, s1))
    v2 = subfile_value(tr.library, tr.scheme_params.layout, SubfileId(file, s2))
    buf = tr.library[file]
    for slot, val in ((s1, v2), (s2, v1)):
        shift = (slot - 1) * ell
        buf = (buf & ~(((1 << ell) - 1) << shift)) | (val << shift)
    library = dict(tr.library)
    library[file] = buf
    caches = [
        dataclasses.replace(
            c,
            content=dict(sorted((map_sid(s), v) for s, v in c.content.items())),
        )
        for c in tr.caches
    ]
    broadcasts = [
        [
            MulticastMessage(
                m.sender,
                tuple(map_sid(s) for s in m.composition),
                m.payload,
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
    block2 = [s for s in tr.scheme_params.layout.block_slots(2) if s not in cached1]
    assert len(block2) >= 2
    relabeled = _swap_slots(tr, 1, block2[0], block2[1])
    assert canonical_view(tr, [1]).key() == canonical_view(relabeled, [1]).key()
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
    cross = next(s for s in tr.scheme_params.layout.block_slots(2) if s in cached1)
    free = next(s for s in tr.scheme_params.layout.block_slots(2) if s not in cached1)
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
        for s in tr.scheme_params.layout.block_slots(tr.scheme_params.layout.block_of(sid.slot))
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
        tr = sim.run_protocol("A", p, d, placement=p.place(SeededSource(23)))
        views[d] = canonical_view(tr, [1, 2]).key()
    assert len(set(views.values())) == 4


def test_coalition_validation():
    p = scheme_a.params_for(2, 2, 2, seed=1)
    tr = sim.run_protocol("A", p, (1, 1), placement=p.place(SeededSource(1)))
    with pytest.raises(ValueError):
        canonical_view(tr, [])
    with pytest.raises(ValueError):
        canonical_view(tr, [5])


def test_exact_privacy_small_instances():
    rep = _exact("A", scheme_a.params_for(2, 2, 1), [2])
    assert rep.private and rep.mode == "exact"
    rep = _exact("B", scheme_b.params_for(2, 0), [1])
    assert rep.private


def test_exact_privacy_baseline_fails():
    rep = _exact("A", scheme_a.params_for(2, 2, 1), [1], derandomized=True)
    assert not rep.private
    assert rep.witness is not None
    assert "FAIL" in rep.text()


def test_exact_enumeration_order_invariance(monkeypatch):
    # the verdict cannot depend on the order the randomness is enumerated,
    # nor on which placement the recorded first outcomes make
    instances = [scheme_b.params_for(2, 1), scheme_a.params_for(2, 2, 1)]
    refs = [decoded(*verify.enumerate_view_distributions(p, [(1,)])) for p in instances]
    draw = RecordingSource.draw
    monkeypatch.setattr(RecordingSource, "draw",
                        lambda self, label, kind, outcomes: draw(self, label, kind, outcomes[::-1]))
    flipped = [decoded(*verify.enumerate_view_distributions(p, [(1,)])) for p in instances]
    assert refs == flipped


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


def _all_coalitions(K):
    users = range(1, K + 1)
    return [c for r in users for c in itertools.combinations(users, r)]


def _direct_view(tr, coalition, messages):
    """A coalition's view relabelled straight from the transcript, slot
    by slot, with no everyone-view in between: the relabelling
    ``canonical_view`` did before it became a projection."""
    spb = tr.scheme_params.layout.slots_per_block
    pattern = {}
    for u in coalition:
        for sid in tr.caches[u - 1].slots:
            pattern[sid] = pattern.get(sid, ()) + (u,)
    cache_counts = Counter((sid.file, tr.scheme_params.layout.block_of(sid.slot), pat) for sid, pat in pattern.items())
    ordinals, next_in_class, rows = {}, Counter(), []
    for m in messages:
        refs = []
        for sid in m.composition:
            if sid not in ordinals:
                cls = (sid.file, tr.scheme_params.layout.block_of(sid.slot), pattern.get(sid, ()))
                next_in_class[cls] += 1
                ordinals[sid] = (cls, next_in_class[cls])
            refs.append(ordinals[sid])
        rows.append((m.sender, m.position_set, tuple(refs)))
    rows = tuple(rows)
    head = (coalition, tuple(tr.demands[u - 1] for u in coalition), tuple(sorted(cache_counts.items())))
    return head, rows


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(4, 2, 2), id="A(4,2,2)"),
        pytest.param(scheme_a.params_for(3, 3, 3), id="A(3,3,3)"),
        pytest.param(scheme_b.params_for(4, 2), id="B(4,2)"),
        pytest.param(scheme_b.params_for(5, None), id="B(5,full)"),
    ],
)
def test_projected_views_match_direct_relabelling(params):
    # canonical_view is the concatenation of the per-transmitter blocks;
    # that is sound because transmitter k XORs only block-k subfiles and
    # a slot's class holds its block, so no class spans two transmitters
    K, N = params.base.K, params.base.N
    for seed, derandomized in itertools.product(range(3), (False, True)):
        d = tuple((seed + u) % N + 1 for u in range(K))
        source = SeededSource(seed)
        tr = sim.run_protocol(params.scheme, params, d, source=_delivery_source(source, derandomized),
                              placement=params.place(source))
        for k, per_user in enumerate(tr.broadcasts, 1):
            assert all(tr.scheme_params.layout.block_of(sid.slot) == k for m in per_user for sid in m.composition)
        for c in _all_coalitions(K):
            head, rows = _direct_view(tr, c, tr.all_messages())
            assert canonical_view(tr, c).key() == head + (rows,)
            blocks = verify.canonical_view_blocks(tr, c)
            assert blocks[0] == head
            for blk, per_user in zip(blocks[1:], tr.broadcasts):
                assert blk == _direct_view(tr, c, per_user)[1]


@pytest.mark.parametrize(
    "scheme,params",
    [
        pytest.param("A", scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param("B", scheme_b.params_for(3, 1), id="B(3,1)"),
    ],
)
def test_everyone_view_built_once_per_placement(scheme, params, monkeypatch):
    # the placement fixes every cache, and a check runs on one placement
    # (views do not depend on it), so it builds the everyone view once
    class Counting(verify._Everyone):
        built = 0

        def __init__(self, caches, layout):
            Counting.built += 1
            super().__init__(caches, layout)

    monkeypatch.setattr(verify, "_Everyone", Counting)
    reports = check_privacy_exact_all(scheme, params, [(1,), (2,)])
    assert all(r.private for r in reports.values())
    assert Counting.built == 1


def _placement_atoms(p) -> list:
    """Every permutation ``place`` draws, listed by hand as (label,
    outcomes): the oracle of the recorded placement draws."""
    return [
        ((p.scheme, "p", i, k), list(itertools.permutations(p.layout.block_slots(k))))
        for i in range(1, p.base.N + 1)
        for k in range(1, p.layout.blocks + 1)
    ]


def _delivery_atoms(p, demands, derandomized) -> list:
    """Every draw of a delivery, listed by hand: scheme A's position
    shuffle and per-file leader choice per transmitter; none for scheme
    B's pick rule.  The derandomized baseline holds each draw at one
    outcome: the identity shuffle and the lowest-index demander."""
    if p.scheme == "B":
        return []
    K, N = p.base.K, p.base.N
    atoms = []
    for k in range(1, K + 1):
        users = [u for u in range(1, (K - 1) * (N - 1) + K + 1) if u != k]
        shuffles = [tuple(users)] if derandomized else list(itertools.permutations(users))
        atoms.append((("A", "q", k), shuffles))
        demanders = scheme_a._virtual_demands(K, N, k, other_demands(tuple(demands), k))[1]
        for i in range(1, N + 1):
            leaders = [min(demanders[i])] if derandomized else list(demanders[i])
            atoms.append((("A", "leader", k, i), leaders))
    return atoms


def _labels(recorder) -> list:
    """The labels of a ``RecordingSource``'s draws, in recorded order."""
    return [label for label, _, _ in recorder.draws]


def _delivery_source(source, derandomized):
    """``source``, or for the derandomized baseline a ``RecordingSource``,
    which answers every draw with its first outcome."""
    return RecordingSource() if derandomized else source


def _outcomes(draws) -> dict:
    """Recorded draws as label -> sorted outcomes."""
    return {
        label: sorted(itertools.permutations(xs) if kind == "permutation" else xs)
        for label, kind, xs in draws
    }


def _first(draws) -> dict:
    """Label -> first outcome of every (label, kind, outcomes) draw, as
    ``RecordingSource`` answers it (a permutation as a tuple)."""
    return {label: xs if kind == "permutation" else xs[0] for label, kind, xs in draws}


def _demand_vectors(p):
    return list(itertools.product(range(1, p.base.N + 1), repeat=p.base.K))


def _shares(p):
    """Every (k, d₋ₖ): a transmitter and the demands of the other users."""
    return [(k, others) for k in range(1, p.base.K + 1)
            for others in itertools.product(range(1, p.base.N + 1), repeat=p.base.K - 1)]


def _queries(p, placement, d, source) -> list:
    """Every transmitter's query at demand vector d, transmitters 1..K."""
    return [p.query(placement, k, other_demands(d, k), source) for k in range(1, p.base.K + 1)]


RECORDED_INSTANCES = [
    pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
    pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
    pytest.param(scheme_a.params_for(3, 2, 1), id="A(3,2,1)"),
    pytest.param(scheme_b.params_for(2, 1), id="B(2,1)"),
    pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
]


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize("params", RECORDED_INSTANCES)
def test_recorded_draws_match_hand_listed_atoms(params, derandomized):
    placement_draws = RecordingSource()
    placement = params.place(placement_draws)
    p_atoms = _placement_atoms(params)
    assert len(placement_draws.draws) == len(p_atoms)  # no label drawn twice
    assert _outcomes(placement_draws.draws) == {lab: sorted(opts) for lab, opts in p_atoms}
    # one shuffle of each block's slots, in (file, block) order
    assert placement_draws.draws == [
        ((params.scheme, "p", i, k), "permutation", tuple(params.layout.block_slots(k)))
        for i in range(1, params.base.N + 1) for k in range(1, params.layout.blocks + 1)
    ]
    transmitters = verify._setup(params, [], derandomized)[3]
    for d in _demand_vectors(params):
        delivery_draws = RecordingSource()
        _queries(params, placement, d, delivery_draws)
        d_atoms = _delivery_atoms(params, d, derandomized)
        assert len(delivery_draws.draws) == len(d_atoms)
        # what a check runs: each transmitter's enumerated draws, every
        # other one at its first outcome
        ran = {}
        for t in transmitters[d]:
            first = _first(params.delivery_draws(t.k, other_demands(d, t.k)))
            ran |= {label: [value] for label, value in first.items()} | _outcomes(t.space.draws)
        assert ran == {lab: sorted(opts) for lab, opts in d_atoms}
        assert placement_draws.size() * math.prod(t.space.size() for t in transmitters[d]) == math.prod(
            len(opts) for _, opts in p_atoms + d_atoms
        )


class _SeededRecorder(RecordingSource):
    """Records every draw like ``RecordingSource`` but answers it from a
    seeded source, so later draws see random earlier values."""

    def __init__(self, seed):
        super().__init__()
        self.seeded = SeededSource(seed)

    def draw(self, label, kind, outcomes):
        super().draw(label, kind, outcomes)
        return self.seeded.draw(label, kind, outcomes)


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize("params", RECORDED_INSTANCES)
def test_recorded_draws_do_not_depend_on_drawn_values(params, derandomized):
    # exact mode replays the draws recorded on one placement for every
    # placement; that is sound only because no draw's label or options
    # depend on values drawn before it
    recordings = []
    for source in (RecordingSource(), *(_SeededRecorder(seed) for seed in range(3))):
        placement = params.place(source)
        delivery = _delivery_source(source, derandomized)
        for d in _demand_vectors(params):
            _queries(params, placement, d, delivery)
        recordings.append((source.draws, delivery.draws))
    assert all(draws == recordings[0] for draws in recordings[1:])


def _libraries(p) -> list:
    """Every library of ``p``, which must have 1-bit subfiles: each of
    the N files any of the 2**B buffers, B the subpacketization."""
    assert p.base.B == p.subpacketization
    return [dict(enumerate(files, 1)) for files in itertools.product(range(1 << p.base.B), repeat=p.base.N)]


def _with_library(placement, library):
    """``placement`` holding ``library``: every cached value split from it."""
    pieces = {i: core.split_file(placement.params.layout, buf) for i, buf in library.items()}
    caches = [dataclasses.replace(c, content={sid: pieces[sid.file][sid.slot - 1] for sid in c.content})
              for c in placement.caches]
    return dataclasses.replace(placement, caches=caches, library=library)


def _joint_runs(p, derandomized, libraries=False):
    """Every run of the joint placement x delivery space, enumerated from
    the hand-listed atoms, as (demand vector, transcript); with
    ``libraries``, every run once per library of ``_libraries``."""
    p_atoms = _placement_atoms(p)
    for p_combo in itertools.product(*(opts for _, opts in p_atoms)):
        p_assign = dict(zip((lab for lab, _ in p_atoms), p_combo))
        placement = p.place(FixedSource(p_assign))
        placements = [_with_library(placement, lib) for lib in _libraries(p)] if libraries else [placement]
        for d in _demand_vectors(p):
            d_atoms = _delivery_atoms(p, d, derandomized)
            for d_combo in itertools.product(*(opts for _, opts in d_atoms)):
                source = FixedSource({**p_assign, **dict(zip((lab for lab, _ in d_atoms), d_combo))})
                for placement in placements:
                    yield d, sim.run_protocol(p.scheme, p, d, source=source, placement=placement)


def _joint_counts(p, coalitions, derandomized, view):
    """dists[coalition][demand vector]: a Counter of ``view(tr, c)`` over
    every joint run."""
    dists = {c: {d: Counter() for d in _demand_vectors(p)} for c in coalitions}
    for d, tr in _joint_runs(p, derandomized):
        for c in coalitions:
            dists[c][d][view(tr, c)] += 1
    return dists


def _private(coalition, counts) -> bool:
    """Whether every demand vector agreeing on the coalition's demands
    has the same view Counter in ``counts`` (demand vector -> Counter)."""
    groups: dict = {}
    for d, counter in counts.items():
        groups.setdefault(tuple(d[u - 1] for u in coalition), []).append(counter)
    return all(counter == group[0] for group in groups.values() for counter in group)


def _joint_exact(p, coalitions, derandomized):
    """The oracle of ``enumerate_view_distributions``: every run of the
    joint randomness space, every coalition's joint view counted on its
    own."""
    return _joint_counts(p, coalitions, derandomized, lambda tr, c: canonical_view(tr, c).key())


class _StreamSource:
    """Answers every draw from one ``random.Random`` in call order: a
    permutation is a shuffled copy of its items, a choice ``choice``."""

    def __init__(self, rng):
        self.rng = rng

    def draw(self, label, kind, outcomes):
        if kind == "choice":
            return self.rng.choice(outcomes)
        out = list(outcomes)
        self.rng.shuffle(out)
        return out


def _joint_mc(p, coalitions, trials, base_seed, derandomized):
    """The oracle of ``sample_view_distributions``: per demand vector d,
    ``trials`` consecutive protocol runs on the check's one placement,
    every draw answered from the one stream of d, and every coalition's
    view blocks counted on their own."""
    K, N = p.base.K, p.base.N
    placement = p.place(RecordingSource())
    dists = {}
    for d in itertools.product(range(1, N + 1), repeat=K):
        source = _StreamSource(seeded_rng(base_seed, f"mc|{d}"))
        runs = [
            sim.run_protocol(p.scheme, p, d, source=_delivery_source(source, derandomized),
                             placement=placement)
            for _ in range(trials)
        ]
        for c in coalitions:
            dists.setdefault(c, {})[d] = [
                Counter(blocks) for blocks in zip(*(verify.canonical_view_blocks(tr, c) for tr in runs))
            ]
    return dists


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1, seed=3), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2, seed=4), id="A(2,2,2)"),
        pytest.param(scheme_b.params_for(4, 3, seed=5), id="B(4,3)"),
    ],
)
def test_projected_exact_distributions_match_joint_oracle(params, derandomized):
    # per demand vector, the joint view distribution over the whole
    # placement x delivery space is the product of the per-block
    # distributions exact mode counts on one placement
    coalitions = _all_coalitions(params.base.K)
    got = decoded(*verify.enumerate_view_distributions(params, coalitions, derandomized=derandomized))
    joint = _joint_exact(params, coalitions, derandomized)
    for c in coalitions:
        for d, counter in joint[c].items():
            total = sum(counter.values())
            assert _product(got[c][d]) == {v: Fraction(n, total) for v, n in counter.items()}


def _product(counters) -> dict:
    """The joint view distribution whose per-block factors are
    ``counters``, keyed like ``canonical_view(...).key()``, as exact
    Fractions."""
    totals = [sum(counter.values()) for counter in counters]
    dist: dict = {}
    for combo in itertools.product(*(counter.items() for counter in counters)):
        (head, _), *blocks = combo
        key = head + (tuple(itertools.chain.from_iterable(b for b, _ in blocks)),)
        p = math.prod(Fraction(n, total) for (_, n), total in zip(combo, totals))
        dist[key] = dist.get(key, 0) + p
    return dist


def _placements(p, samples):
    """Every placement point of ``p`` when ``samples`` is None; else the
    first-outcome placement exact mode uses and ``samples`` seeded ones."""
    recorder = RecordingSource()
    first = p.place(recorder)
    if samples is None:
        return [p.place(FixedSource(dict(zip(_labels(recorder), point))))
                for point in recorded_points(recorder)]
    return [first] + [p.place(SeededSource(seed)) for seed in range(samples)]


@pytest.mark.parametrize(
    "params,samples,count",
    [
        pytest.param(scheme_a.params_for(2, 2, 2), None, 16, id="A(2,2,2)"),
        pytest.param(scheme_b.params_for(4, 3), None, 256, id="B(4,3)"),
        pytest.param(scheme_a.params_for(3, 2, 2), 8, 9, id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(3, 3, 3), 4, 5, id="A(3,3,3)"),
        pytest.param(scheme_b.params_for(3, 1), 8, 9, id="B(3,1)"),
    ],
)
def test_views_do_not_depend_on_the_placement_draw(params, samples, count):
    # with the delivery draws fixed, every placement gives the same
    # everyone-view blocks: the fact that lets a check run on one placement
    placements = _placements(params, samples)
    assert len(placements) == count
    for d in _demand_vectors(params):
        for seed, derandomized in itertools.product(range(2), (False, True)):
            views = set()
            for placement in placements:
                tr = sim.run_protocol(params.scheme, params, d,
                                      source=_delivery_source(SeededSource(seed), derandomized),
                                      placement=placement)
                views.add(verify._Everyone(placement.caches, params.layout).blocks(d, tr.broadcasts))
            assert len(views) == 1, (d, seed, derandomized)


@pytest.mark.parametrize(
    "params,demand_vectors",
    [
        pytest.param(scheme_a.params_for(2, 2, 2), None, id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 2), None, id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(4, 2, 2), [(1, 1, 2, 2), (2, 1, 1, 1)], id="A(4,2,2)"),
    ],
)
def test_block_k_depends_only_on_transmitter_k_draws(params, demand_vectors):
    # vary each recorded delivery draw over all its outcomes, the others
    # at their first outcome: only the block of the transmitter the label
    # names may change, and a position shuffle does change it
    placement = params.place(RecordingSource())
    everyone = verify._Everyone(placement.caches, params.layout)
    for d in demand_vectors or _demand_vectors(params):
        recorder = RecordingSource()
        _queries(params, placement, d, recorder)
        first = dict(zip(_labels(recorder), next(recorded_points(recorder))))

        def blocks(assignment):
            tr = sim.run_protocol(params.scheme, params, d, source=FixedSource(assignment),
                                  placement=placement)
            return everyone.blocks(d, tr.broadcasts)

        base = blocks(first)
        for draw in recorder.draws:
            single = RecordingSource()
            single.draws.append(draw)
            changed = set()
            for (value,) in recorded_points(single):
                got = blocks({**first, draw[0]: value})
                changed |= {i for i, (a, b) in enumerate(zip(base, got)) if a != b}
            assert changed <= {draw[0][2]}, (d, draw[0])
            if draw[0][1] == "q":
                assert changed == {draw[0][2]}, (d, draw[0])


def _raw_view(tr, coalition):
    """What a coalition sees with no canonicalisation: physical slot ids,
    each member's cache slots, every (sender, position set, composition)."""
    return (
        coalition,
        tuple(tr.demands[u - 1] for u in coalition),
        tuple(tr.caches[u - 1].slots for u in coalition),
        tuple((m.sender, m.position_set, m.composition) for m in tr.all_messages()),
    )


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param(scheme_b.params_for(2, 1), id="B(2,1)"),
        pytest.param(scheme_b.params_for(3, 0), id="B(3,0)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
    ],
)
def test_raw_view_verdicts_match_exact_mode(params, derandomized):
    # raw views over the whole joint placement x delivery space trust
    # neither the canonicaliser nor the one-placement, per-block counting
    coalitions = _all_coalitions(params.base.K)
    raw = _joint_counts(params, coalitions, derandomized, _raw_view)
    exact = check_privacy_exact_all(params.scheme, params, coalitions, derandomized=derandomized)
    for c in coalitions:
        assert exact[c].private is _private(c, raw[c]), c


def _full_information_verdicts(p, coalitions, derandomized) -> dict:
    """The oracle of the payload premise: coalition -> private, where a
    coalition's view is everything it holds, with physical slot ids: its
    demands, each member's cache as sorted (subfile, value) items and
    every broadcast as (sender, position set, composition, payload) in
    emission order, counted over every placement, delivery and library
    point of ``p``."""
    full = {c: {d: Counter() for d in _demand_vectors(p)} for c in coalitions}
    for d, tr in _joint_runs(p, derandomized, libraries=True):
        caches = [tuple(sorted(cache.content.items())) for cache in tr.caches]
        broadcasts = tuple((m.sender, m.position_set, m.composition, m.payload) for m in tr.all_messages())
        for c in coalitions:
            full[c][d][tuple(d[u - 1] for u in c), tuple(caches[u - 1] for u in c), broadcasts] += 1
    return {c: _private(c, full[c]) for c in coalitions}


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params,baseline_leaks",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), [(1,), (2,)], id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), [(1,), (2,)], id="A(2,2,2)"),
        # the full-memory point: nothing is sent
        pytest.param(scheme_a.params_for(2, 2, 3), [], id="A(2,2,3)"),
        # scheme B draws nothing at delivery, so its baseline is B itself
        pytest.param(scheme_b.params_for(2, 1), [], id="B(2,1)"),
        pytest.param(scheme_b.params_for(3, 0), [], id="B(3,0)"),
    ],
)
def test_full_information_verdicts_match_exact_mode(params, baseline_leaks, derandomized):
    # the payload premise: adding every cached value and payload, over
    # every library, to the raw view changes no verdict of exact mode
    coalitions = [(1,), (2,), (1, 2)]
    full = _full_information_verdicts(params, coalitions, derandomized)
    exact = check_privacy_exact_all(params.scheme, params, coalitions, derandomized=derandomized)
    assert full == {c: r.private for c, r in exact.items()}
    assert [c for c in coalitions if not full[c]] == (baseline_leaks if derandomized else [])


def _leak_through_a_payload(monkeypatch):
    """Mutant: transmitter 1's first payload XORs in [d_2 == 2]; every
    composition stays as it was."""
    run = sim.run_protocol

    def leaky(*args, **kwargs):
        tr = run(*args, **kwargs)
        tr.broadcasts[0][0].payload ^= int(tr.demands[1] == 2)
        return tr

    monkeypatch.setattr(sim, "run_protocol", leaky)


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
    ],
)
def test_payload_only_leak_fails_full_information_and_passes_exact_mode(params, monkeypatch):
    # user 1 knows what its first message should XOR to, so the flip
    # tells it user 2's demand; exact mode drops payloads by design (the
    # payload premise) and PASSes, with the ignored paranoid keyword too
    _leak_through_a_payload(monkeypatch)
    assert _full_information_verdicts(params, [(1,)], False) == {(1,): False}
    for paranoid in (False, True):
        assert _exact(params.scheme, params, (1,), paranoid=paranoid).private


def test_paranoid_keyword_is_accepted_and_ignored():
    # the keyword stays for callers that still pass it; it changes no report
    for params in (scheme_a.params_for(2, 2, 2), scheme_b.params_for(2, 1)):
        coalitions = _all_coalitions(params.base.K)
        for derandomized in (False, True):
            reports = check_privacy_exact_all(params.scheme, params, coalitions, derandomized=derandomized)
            assert check_privacy_exact_all(params.scheme, params, coalitions, derandomized=derandomized,
                                           paranoid=True) == reports


def _patch_placement(monkeypatch, rewrite):
    """Scheme A's placement with every draw of ``core.place`` made by
    ``rewrite(params, source, label, items)`` instead."""

    def place(params, source, held):
        draws = SimpleNamespace(draw=lambda label, kind, items: rewrite(params, source, label, list(items)))
        return core.place(params, draws, held)

    monkeypatch.setattr(scheme_a, "place", place)


def _shuffled(p, source, label, items):
    return source.draw(label, "permutation", items)


def _unshuffled(p, source, label, items):
    return items


def _part_shuffled(p, source, label, items):
    return items[:1] + source.draw(label, "permutation", items[1:])


def _file_shuffled(p, source, label, items):
    # one draw per file over all its slots, block k taking its k-th run
    scheme, _, i, k = label
    n = p.layout.slots_per_block
    whole = source.draw((scheme, "p", i), "permutation", list(range(1, p.layout.slots_per_file + 1)))
    return whole[(k - 1) * n:k * n]


def _extra_draw(p, source, label, items):
    source.draw(label + ("extra",), "choice", [1, 2])
    return source.draw(label, "permutation", items)


@pytest.mark.parametrize("check", [_exact, lambda *args: _mc(*args, trials=10)], ids=["exact", "mc"])
@pytest.mark.parametrize("rewrite", [_unshuffled, _part_shuffled, _file_shuffled, _extra_draw])
def test_placement_draws_other_than_one_shuffle_per_block_are_rejected(rewrite, check, monkeypatch):
    # the canonicaliser quotients out exactly one uniform shuffle of each
    # (file, block) and a check runs on its first outcome, so any other
    # placement draw would be checked as if it were that shuffle
    _patch_placement(monkeypatch, rewrite)
    with pytest.raises(ValueError, match="placement must draw one permutation"):
        check("A", scheme_a.params_for(2, 2, 2), (1,))


def test_placement_rewrite_that_shuffles_each_block_is_accepted(monkeypatch):
    # the control of the rejection test: its patch alone changes nothing
    p = scheme_a.params_for(3, 2, 2)
    coalitions = _all_coalitions(3)
    want = check_privacy_exact_all("A", p, coalitions)
    _patch_placement(monkeypatch, _shuffled)
    assert check_privacy_exact_all("A", p, coalitions) == want


def test_unshuffled_placement_leaks_in_raw_views(monkeypatch):
    # why the placement draws are checked: A(2,2,2) with no placement
    # shuffle leaks to coalition {1} in raw views over its whole delivery
    # space, while its identity placement is the one a check runs on
    p = scheme_a.params_for(2, 2, 2)

    def leaks(rewrite):
        _patch_placement(monkeypatch, rewrite)
        raw = _joint_counts(p, [(1,)], False, _raw_view)[(1,)]
        return [d1 for d1 in (1, 2) if raw[(d1, 1)] != raw[(d1, 2)]]

    assert leaks(_unshuffled) == [1, 2]
    assert leaks(_shuffled) == []


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize("K,N,t,trials", [(3, 2, 1, 12), (3, 2, 2, 12), (4, 2, 2, 4)])
def test_projected_mc_distributions_match_joint_oracle(K, N, t, trials, derandomized):
    p = scheme_a.params_for(K, N, t, seed=6)
    coalitions = _all_coalitions(K)
    got = decoded(*verify.sample_view_distributions(
        p, coalitions, trials, base_seed=17, derandomized=derandomized
    ))
    assert got == _joint_mc(p, coalitions, trials, 17, derandomized)


def test_mc_oracle_case_reuses_shared_blocks():
    # in the A(3,2,2) case above, 11 of the 12 (k, d₋ₖ) draw a key under
    # both demand vectors that agree off k, 26 such keys in all, so the
    # oracle, which runs every trial, checks blocks built for one demand
    # vector and counted for the other
    shared = Counter()
    for d, own in verify._setup(scheme_a.params_for(3, 2, 2, seed=6), [], False)[3].items():
        rng = seeded_rng(17, f"mc|{d}")
        drawn = [set() for _ in own]
        for _ in range(12):
            for keys, t in zip(drawn, own):
                keys.add(draw_key(t.space.plan(), rng.getrandbits))
        for k, keys in enumerate(drawn, 1):
            shared.update(((k, other_demands(d, k)), key) for key in keys)
    reused = [share for (share, _), n in shared.items() if n == 2]
    assert (len(set(reused)), len(reused)) == (11, 26)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda p, cs: verify.enumerate_view_distributions(p, cs), id="exact"),
        pytest.param(lambda p, cs: verify.sample_view_distributions(p, cs, 2), id="mc"),
    ],
)
def test_coalitions_are_checked_before_any_run(entry, monkeypatch):
    # Monte Carlo trials draw their points before any run, so no draw
    # from a stream may come first either; trials take their draws from
    # getrandbits, not through shuffle or choice
    def no_runs(*args, **kwargs):
        raise AssertionError("protocol ran or drew before the coalitions were checked")

    monkeypatch.setattr(sim, "run_protocol", no_runs)
    for method in ("shuffle", "choice", "getrandbits"):
        monkeypatch.setattr(random.Random, method, no_runs)
    with pytest.raises(ValueError, match="coalition"):
        entry(scheme_a.params_for(2, 2, 1), [(1,), (1, 2), (3,)])


class _Spy:
    """Answers every draw from ``source`` and keeps label -> value."""

    def __init__(self, source):
        self.source, self.values = source, {}

    def draw(self, label, kind, outcomes):
        value = self.source.draw(label, kind, outcomes)
        self.values[label] = tuple(value) if kind == "permutation" else value
        return value


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(3, 3, 2), id="A(3,3,2)"),
    ],
)
def test_recorded_draws_replay_seeded_values(params, derandomized):
    # Monte Carlo trials draw only the recorded labels, never a run: the
    # points of consecutive trials, every transmitter's draws in turn
    # from the demand vector's one stream, are the values that the
    # queries of transmitters 1..K in turn draw when that stream answers
    # each draw
    K = params.base.K
    _, placement, _, transmitters = verify._setup(params, [], derandomized)
    for d, own in transmitters.items():
        assert sum(len(t.space.draws) for t in own) == (0 if derandomized else K * (params.base.N + 1))
        for seed in (0, 1, 7, 2**62 + 3, -5):
            rng = seeded_rng(seed, f"mc|{d}")
            source = _delivery_source(_StreamSource(seeded_rng(seed, f"mc|{d}")), derandomized)
            for _ in range(3):
                replay = {}
                for k, t in enumerate(own, 1):
                    o = t.space
                    replay |= _first(params.delivery_draws(k, other_demands(d, k))) | dict(
                        zip(_labels(o), o.point(draw_key(o.plan(), rng.getrandbits))))
                spy = _Spy(source)
                queries = _queries(params, placement, d, spy)
                assert replay == spy.values, (d, seed)
                assert _queries(params, placement, d, FixedSource(replay)) == queries


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(3, 3, 2), id="A(3,3,2)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
    ],
)
def test_one_pass_key_draws_are_the_per_transmitter_draws(params, derandomized):
    # the sampler draws all K keys of a trial in one pass over the plans
    # laid end to end; that makes the getrandbits calls of drawing each
    # transmitter's key in turn, so it draws the same keys and leaves the
    # stream in the same state
    for d, own in verify._setup(params, [], derandomized)[3].items():
        plans = [t.space.plan() for t in own]
        for seed in (0, 3):
            rng, oracle = seeded_rng(seed, f"mc|{d}"), seeded_rng(seed, f"mc|{d}")
            want = [Counter() for _ in own]
            for _ in range(40):
                for counts, plan in zip(want, plans):
                    counts[draw_key(plan, oracle.getrandbits)] += 1
            assert [Counter(c) for c in verify._trial_keys(plans, 40, rng.getrandbits)] == want, (d, seed)
            assert rng.getstate() == oracle.getstate()


# check_privacy_mc_all reports, (coalition, verdict, max_tv, max_tv_debiased,
# witness) per coalition of fewer than K users, taken from the sampler that
# draws every trial of a demand vector from its one keyed stream; floats are
# compared with ==, and were last taken when debiased_total_variation began
# to sum in an order-free way.  The private A(3,2,2) case FAILs coalitions {1} and
# {1,2}: exact mode certifies this instance private, so these are false
# alarms of the debiased-TV gate at 300 trials (see the false-alarm table in
# the README), pinned as they come rather than hidden by another seed
PINNED_MC_REPORTS = {
    "A(3,2,2)": (scheme_a.params_for(3, 2, 2), 300, 11, False, [
        ((1,), 'FAIL', 0.28, 0.05839809347029695, ((1,), (1, 1, 1), (1, 2, 2))),
        ((1, 2), 'FAIL', 0.36333333333333334, 0.05517239607163346, ((2, 1), (2, 1, 1), (2, 1, 2))),
        ((1, 3), 'PASS', 0.32, 0.04574259708825085, None),
        ((2,), 'PASS', 0.27, 0.0496826160449218, None),
        ((2, 3), 'PASS', 0.30666666666666664, 0.04625772451550603, None),
        ((3,), 'PASS', 0.25333333333333335, 0.044788466412649525, None),
    ]),
    "A(3,2,2) baseline": (scheme_a.params_for(3, 2, 2), 50, 12, True, [
        ((1,), 'FAIL', 1.0, 0.9202115439197135, ((1,), (1, 1, 1), (1, 1, 2))),
        ((1, 2), 'FAIL', 1.0, 0.9202115439197135, ((1, 1), (1, 1, 1), (1, 1, 2))),
        ((1, 3), 'FAIL', 1.0, 0.9202115439197135, ((1, 1), (1, 1, 1), (1, 2, 1))),
        ((2,), 'FAIL', 1.0, 0.9202115439197135, ((1,), (1, 1, 1), (1, 1, 2))),
        ((2, 3), 'FAIL', 1.0, 0.9202115439197135, ((1, 1), (1, 1, 1), (2, 1, 1))),
        ((3,), 'FAIL', 1.0, 0.9202115439197135, ((1,), (1, 1, 1), (1, 2, 1))),
    ]),
    "A(2,2,2)": (scheme_a.params_for(2, 2, 2), 1000, 13, False, [
        ((1,), 'PASS', 0.04, 0.022159329767324466, None),
        ((2,), 'PASS', 0.034, 0.016160507365788158, None),
    ]),
}


@pytest.mark.parametrize("case", list(PINNED_MC_REPORTS))
def test_mc_reports_pinned(case):
    params, trials, base_seed, derandomized, pinned = PINNED_MC_REPORTS[case]
    K = params.base.K
    coalitions = [c for c in _all_coalitions(K) if len(c) < K]
    reports = check_privacy_mc_all("A", params, coalitions, trials=trials, base_seed=base_seed,
                                   derandomized=derandomized)
    got = [(c, r.verdict(), r.max_tv, r.max_tv_debiased, r.witness) for c, r in sorted(reports.items())]
    assert got == pinned


def _runs_and_blocks(monkeypatch, params) -> tuple[Counter, Counter]:
    """(protocol runs by demand vector, composes by (k, d₋ₖ)) from now
    on: the calls of ``sim.run_protocol``, and the calls of the scheme's
    ``compose``.  Every query composes once: a check asks each (k, d₋ₖ)'s
    query once, and each of the N demand vectors that agree off k asks it
    again in its protocol run; and the block builder composes once per
    block it builds at a key."""
    runs, blocks = Counter(), Counter()
    run, compose = sim.run_protocol, type(params).compose

    def counting_run(scheme, scheme_params, demands, *args, **kwargs):
        runs[tuple(demands)] += 1
        return run(scheme, scheme_params, demands, *args, **kwargs)

    def counting_compose(self, placement, k, others, values):
        blocks[k, tuple(others)] += 1
        return compose(self, placement, k, others, values)

    monkeypatch.setattr(sim, "run_protocol", counting_run)
    monkeypatch.setattr(type(params), "compose", counting_compose)
    return runs, blocks


@pytest.mark.parametrize("K,N", [(K, N) for K in (2, 3, 4) for N in (2, 3)])
def test_baseline_is_the_first_outcome_of_every_delivery_draw(K, N):
    # the baseline delivers from RecordingSource, whose first outcomes are
    # the identity position shuffle and each file's lowest-index demander
    for t in range(1, (K - 1) * N + 2):
        p = scheme_a.params_for(K, N, t)
        for d in _demand_vectors(p):
            for k in range(1, K + 1):
                others, recorder = other_demands(d, k), RecordingSource()
                *leaders, q = [recorder.draw(*draw) for draw in scheme_a.plan_delivery_a(p, k, others)]
                d_eff = scheme_a._virtual_demands(K, N, k, others)[0]
                assert tuple(q) == tuple(u for u in range(1, (K - 1) * (N - 1) + K + 1) if u != k)
                assert set(leaders) == {min(u for u, f in d_eff.items() if f == i) for i in range(1, N + 1)}


# derandomized check_privacy_exact_all and check_privacy_mc_all (40 trials,
# base seed 9) reports per coalition of fewer than K users, taken when
# plan_delivery_a still had a branch of its own for the baseline: exact
# (coalition, verdict, witness), mc (coalition, verdict, max_tv,
# max_tv_debiased, witness)
PINNED_BASELINE_REPORTS = {
    "A(2,2,2)": (scheme_a.params_for(2, 2, 2), [
        ((1,), 'FAIL', ((1,), (1, 1), (1, 2))),
        ((2,), 'FAIL', ((1,), (1, 1), (2, 1))),
    ], [
        ((1,), 'FAIL', 1.0, 0.9107937941923614, ((1,), (1, 1), (1, 2))),
        ((2,), 'FAIL', 1.0, 0.9107937941923614, ((1,), (1, 1), (2, 1))),
    ]),
    "A(3,2,2)": (scheme_a.params_for(3, 2, 2), [
        ((1,), 'FAIL', ((1,), (1, 1, 1), (1, 1, 2))),
        ((1, 2), 'FAIL', ((1, 1), (1, 1, 1), (1, 1, 2))),
        ((1, 3), 'FAIL', ((1, 1), (1, 1, 1), (1, 2, 1))),
        ((2,), 'FAIL', ((1,), (1, 1, 1), (1, 1, 2))),
        ((2, 3), 'FAIL', ((1, 1), (1, 1, 1), (2, 1, 1))),
        ((3,), 'FAIL', ((1,), (1, 1, 1), (1, 2, 1))),
    ], [
        ((1,), 'FAIL', 1.0, 0.9107937941923614, ((1,), (1, 1, 1), (1, 1, 2))),
        ((1, 2), 'FAIL', 1.0, 0.9107937941923614, ((1, 1), (1, 1, 1), (1, 1, 2))),
        ((1, 3), 'FAIL', 1.0, 0.9107937941923614, ((1, 1), (1, 1, 1), (1, 2, 1))),
        ((2,), 'FAIL', 1.0, 0.9107937941923614, ((1,), (1, 1, 1), (1, 1, 2))),
        ((2, 3), 'FAIL', 1.0, 0.9107937941923614, ((1, 1), (1, 1, 1), (2, 1, 1))),
        ((3,), 'FAIL', 1.0, 0.9107937941923614, ((1,), (1, 1, 1), (1, 2, 1))),
    ]),
    # scheme B draws nothing at delivery: its baseline is B, which is private
    "B(4,3)": (scheme_b.params_for(4, 3), [
        ((1,), 'PASS', None),
        ((2,), 'PASS', None),
    ], [
        ((1,), 'PASS', 0.0, 0.0, None),
        ((2,), 'PASS', 0.0, 0.0, None),
    ]),
}


@pytest.mark.parametrize("case", list(PINNED_BASELINE_REPORTS))
def test_baseline_reports_pinned(case):
    params, exact, mc = PINNED_BASELINE_REPORTS[case]
    coalitions = [c for c in _all_coalitions(params.base.K) if len(c) < params.base.K]
    reports = check_privacy_exact_all(params.scheme, params, coalitions, derandomized=True)
    assert [(c, r.verdict(), r.witness) for c, r in sorted(reports.items())] == exact
    reports = check_privacy_mc_all(params.scheme, params, coalitions, trials=40, base_seed=9,
                                   derandomized=True)
    assert [(c, r.verdict(), r.max_tv, r.max_tv_debiased, r.witness)
            for c, r in sorted(reports.items())] == mc


@pytest.mark.parametrize("trials", [10, 1000])
def test_mc_baseline_runs_once_per_demand_vector(trials, monkeypatch):
    # the derandomized baseline samples no draw, so every trial has the
    # same point, the first outcome: one block per (k, d₋ₖ), the rows of
    # its query there, fills every trial, so no trial composes; each
    # (k, d₋ₖ) composes for its query and for the runs of the 2 demand
    # vectors that share it, and each demand vector makes one run
    p = scheme_a.params_for(3, 2, 2)
    runs, blocks = _runs_and_blocks(monkeypatch, p)
    check_privacy_mc_all("A", p, [(1,), (2, 3)], trials=trials, base_seed=3, derandomized=True)
    assert runs == Counter(dict.fromkeys(_demand_vectors(p), 1))
    assert blocks == Counter(dict.fromkeys(_shares(p), 1 + 2))


def _mc_distinct_points(p, trials, base_seed) -> Counter:
    """Per (k, d₋ₖ), how many distinct points transmitter k's Monte Carlo
    trials draw over every demand vector that agrees off k, each demand
    vector's trials from its own stream."""
    seen: dict = {}
    for d, own in verify._setup(p, [], False)[3].items():
        rng = seeded_rng(base_seed, f"mc|{d}")
        for _ in range(trials):
            for k, t in enumerate(own, 1):
                seen.setdefault((k, other_demands(d, k)), set()).add(
                    t.space.point(draw_key(t.space.plan(), rng.getrandbits)))
    return Counter({share: len(points) for share, points in seen.items()})


@pytest.mark.parametrize(
    "params,trials,base_seed,most",
    [
        # each transmitter's point is its shuffle of 2 positions (one
        # demander per file, so the leaders are fixed)
        pytest.param(scheme_a.params_for(2, 2, 1), 5000, 8, 2, id="A(2,2,1)"),
        # 4! * 2 * 2 = 96 points per transmitter, all met in 3,000 trials
        pytest.param(scheme_a.params_for(3, 2, 2), 3000, 1, 96, id="A(3,2,2)"),
    ],
)
def test_mc_runs_only_for_new_points(params, trials, base_seed, most, monkeypatch):
    # a (k, d₋ₖ) builds one block per distinct point that transmitter k
    # drew over every demand vector agreeing off k, and composes besides
    # for its query and for the runs of the 2 demand vectors that share
    # it; each demand vector makes one protocol run
    distinct = _mc_distinct_points(params, trials, base_seed)
    assert set(distinct.values()) == {most}
    transmitters = verify._setup(params, [], False)[3]
    assert {t.space.size() for own in transmitters.values() for t in own} == {most}
    runs, blocks = _runs_and_blocks(monkeypatch, params)
    reports = check_privacy_mc_all("A", params, [(1,), (2,)], trials=trials, base_seed=base_seed)
    assert all(r.private for r in reports.values())
    assert blocks == distinct + Counter(dict.fromkeys(distinct, 1 + 2))
    assert runs == Counter(dict.fromkeys(_demand_vectors(params), 1))


def test_exact_runs_in_lockstep(monkeypatch):
    # A(3,2,2): every transmitter has 4! * 2 * 2 = 96 points, and its block
    # reads d only through d₋ₖ, so each of the 3 * 4 (k, d₋ₖ) builds 96
    # blocks, shared by the 2 demand vectors that agree off k (3 * 4 * 96
    # blocks, not 8 * 3 * 96), and composes besides for its query and for
    # the runs of those 2 demand vectors; each demand vector makes one run
    p = scheme_a.params_for(3, 2, 2)
    runs, blocks = _runs_and_blocks(monkeypatch, p)
    reports = check_privacy_exact_all("A", p, [(1,), (2, 3)])
    assert all(r.private for r in reports.values())
    assert blocks == Counter(dict.fromkeys(_shares(p), 96 + 1 + 2))
    assert runs == Counter(dict.fromkeys(_demand_vectors(p), 1))


def _first_outcomes(params, placement, d) -> dict:
    """Label -> first outcome of every delivery draw of a run at d."""
    recorder = RecordingSource()
    sim.run_protocol(params.scheme, params, d, source=recorder, placement=placement)
    return _first(recorder.draws)


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 1), id="A(3,2,1)"),
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
    ],
)
def test_block_k_depends_only_on_the_other_users_demands(params, derandomized):
    # against brute force: for every pair of demand vectors that agree off
    # k, the draws a protocol run records for transmitter k are equal, and
    # the check shares one transmitter between them; and at every point of
    # that transmitter's space, block k of a protocol run at the full d
    # equals the block the check shares
    K = params.base.K
    _, placement, everyone, transmitters = verify._setup(params, [], derandomized)
    recorded = {}
    for d in _demand_vectors(params):
        recorder = RecordingSource()
        sim.run_protocol(params.scheme, params, d, source=recorder, placement=placement)
        recorded[d] = [[draw for draw in recorder.draws if draw[0][2] == k] for k in range(1, K + 1)]
    for d, d2 in itertools.combinations(_demand_vectors(params), 2):
        for k in range(1, K + 1):
            if other_demands(d, k) == other_demands(d2, k):
                assert recorded[d][k - 1] == recorded[d2][k - 1], (d, d2, k)
                assert transmitters[d][k - 1] is transmitters[d2][k - 1], (d, d2, k)
    for d, own in transmitters.items():
        first = _first_outcomes(params, placement, d)
        for k, t in enumerate(own, 1):
            assert t.space.draws == ([] if derandomized else recorded[d][k - 1])
            run = sim.run_protocol(params.scheme, params, d, source=FixedSource(first), placement=placement)
            assert t.first_triples == [(k, m.position_set, m.composition) for m in run.broadcasts[k - 1]]
            for key in range(t.space.size()):
                source = FixedSource(first | dict(zip(_labels(t.space), t.space.point(key))))
                tr = sim.run_protocol(params.scheme, params, d, source=source, placement=placement)
                assert everyone.blocks(d, tr.broadcasts)[k] == t.block(key), (d, k, key)


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 1), id="A(3,2,1)"),
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(2, 3, 2), id="A(2,3,2)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
        pytest.param(scheme_b.params_for(5, 4), id="B(5,4)"),
    ],
)
def test_a_run_draws_each_transmitters_declared_draws_in_order(params, derandomized):
    # a protocol run records exactly each transmitter's declared
    # delivery_draws, transmitters 1..K in turn, each in its order
    K = params.base.K
    placement = verify._setup(params, [], derandomized)[1]
    for d in _demand_vectors(params):
        recorder = RecordingSource()
        sim.run_protocol(params.scheme, params, d, source=recorder, placement=placement)
        assert recorder.draws == [draw for k in range(1, K + 1)
                                  for draw in params.delivery_draws(k, other_demands(d, k))], d


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 1), id="A(3,2,1)"),
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_a.params_for(2, 3, 2), id="A(2,3,2)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
        pytest.param(scheme_b.params_for(5, 4), id="B(5,4)"),
    ],
)
def test_queries_compose_their_drawn_values(params, derandomized):
    # at every key of every transmitter's space the server's query, asked
    # of a FixedSource of that point, is compose at the point's values,
    # whose rows the check's block builder relabels
    _, placement, everyone, transmitters = verify._setup(params, [], derandomized)
    shares = {(k, other_demands(d, k)): t for d, own in transmitters.items() for k, t in enumerate(own, 1)}
    for (k, others), t in shares.items():
        first = _first(params.delivery_draws(k, others))
        for key in range(t.space.size()):
            values = t.space.point(key) if t.space.draws else tuple(first.values())
            rows = params.compose(placement, k, others, values)
            assert params.query(placement, k, others, FixedSource(dict(zip(first, values)))) == rows, \
                (k, others, key)
            assert t.block(key) == everyone.rows(k, [(k, pos, comp) for pos, comp in rows]), (k, others, key)


def test_exact_mode_relabels_one_block_per_key(monkeypatch):
    # exact A(2,2,1): each of the 2 * 2 (k, d₋ₖ) has 2 keys, the shuffles
    # of its 2 positions (each file has one demander, so the leaders are
    # fixed), and the check relabels one block per key and none besides
    p = scheme_a.params_for(2, 2, 1)
    rows, relabelled = verify._Everyone.rows, Counter()

    def counting_rows(self, k, triples):
        relabelled[k] += 1
        return rows(self, k, triples)

    monkeypatch.setattr(verify._Everyone, "rows", counting_rows)
    assert all(r.private for r in check_privacy_exact_all("A", p, [(1,), (2,)]).values())
    assert relabelled == Counter({1: 4, 2: 4})


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_a_compose_mutant_reaches_the_run_and_the_blocks_alike(mode, monkeypatch):
    # mutant: scheme A's compose lists its messages in reverse; the run's
    # query and the block builder both plan through compose, so the run
    # broadcasts the reversed messages, the run fence does not raise, and
    # the report (one reordering for every demand vector) is unchanged
    p = scheme_a.params_for(3, 2, 2)
    check = (lambda: check_privacy_exact_all("A", p, [(1,)])) if mode == "exact" else \
        (lambda: check_privacy_mc_all("A", p, [(1,)], trials=50))
    want, run = check(), sim.run_protocol("A", p, (1, 2, 1), source=SeededSource(3))
    compose = type(p).compose
    monkeypatch.setattr(type(p), "compose", lambda *args: compose(*args)[::-1])
    reversed_run = sim.run_protocol("A", p, (1, 2, 1), source=SeededSource(3))
    assert reversed_run.broadcasts == [b[::-1] for b in run.broadcasts] != run.broadcasts
    assert check() == want


def _projection_inputs(params, trials, monkeypatch) -> tuple:
    """The (counts, ids) that an exact check, or a Monte Carlo check of
    ``trials`` trials, hands ``_count_then_project``."""
    seen = []
    project = verify._count_then_project

    def spy(counts, ids, coalitions):
        seen.append((counts, ids))
        return project(counts, ids, coalitions)

    monkeypatch.setattr(verify, "_count_then_project", spy)
    if trials is None:
        verify.enumerate_view_distributions(params, [(1,)])
    else:
        verify.sample_view_distributions(params, [(1,)], trials, 5)
    monkeypatch.undo()
    (inputs,) = seen
    return inputs


@pytest.mark.parametrize(
    "params,trials",
    [
        pytest.param(scheme_a.params_for(3, 2, 2), None, id="A(3,2,2)-exact"),
        pytest.param(scheme_a.params_for(3, 2, 1), 40, id="A(3,2,1)-mc"),
        pytest.param(scheme_a.params_for(4, 2, 1), 40, id="A(4,2,1)-mc"),
        pytest.param(scheme_a.params_for(4, 2, 2), 4, id="A(4,2,2)-mc"),
    ],
)
def test_projection_down_the_lattice_matches_direct_projection(params, trials, monkeypatch):
    # against the direct oracle, which projects every coalition from every
    # everyone block: for every pair C ⊂ P, C projected from P's images has
    # the same images and ids, and so has every coalition of all of them
    # at once, each from its smallest checked superset
    counts, ids = _projection_inputs(params, trials, monkeypatch)
    coalitions = _all_coalitions(params.base.K)
    for P in coalitions:
        for C in coalitions:
            if set(C) < set(P):
                assert verify._count_then_project(counts, ids, [P, C]) == \
                    count_then_project_direct(counts, ids, [P, C]), (C, P)
    every = list(reversed(coalitions))
    got = verify._count_then_project(counts, ids, every)
    assert got == count_then_project_direct(counts, ids, every)
    assert list(got[0]) == list(got[1]) == every


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
    ],
)
def test_a_run_whose_query_reads_its_own_demand_fails_loudly(params, mode, monkeypatch):
    # mutant: in a protocol run, transmitter k's query reads d_k, taking it
    # for the demand of the first of the other users; the check builds
    # block k from d₋ₖ alone, so each demand vector's one protocol run
    # differs from it and the check raises
    def leaky_run(scheme, scheme_params, demands, source=None, placement=None):
        d = tuple(demands)
        broadcasts = [sim.user_broadcast(cache, scheme_params.query(
            placement, k, (d[k - 1],) + other_demands(d, k)[1:], source))
            for k, cache in enumerate(placement.caches, 1)]
        return Transcript(scheme_params, placement.library, placement.caches, d, broadcasts)

    monkeypatch.setattr(sim, "run_protocol", leaky_run)
    coalitions = [(1,), (2,)]
    with pytest.raises(AssertionError, match="protocol run"):
        if mode == "exact":
            check_privacy_exact_all(params.scheme, params, coalitions)
        else:
            check_privacy_mc_all(params.scheme, params, coalitions, trials=50)


def test_block_naming_a_slot_outside_the_class_table_raises(monkeypatch):
    # mutant: scheme A's planner for transmitter 1 names, last in its first
    # message, a subfile that user 2 caches and user 1 does not; the block
    # builder looks classes up among the slots transmitter 1 caches, so its
    # block raises KeyError, and so does the check, whose protocol run's
    # user_broadcast meets the subfile first
    p = scheme_a.params_for(3, 2, 2)
    compose = type(p).compose
    placement = p.place(RecordingSource())
    alien = next(sid for sid in placement.caches[1].slots if sid not in placement.caches[0].content)

    def mutant(self, placement, k, others, values):
        out = list(compose(self, placement, k, others, values))
        if k == 1:
            pos, comp = out[0]
            out[0] = (pos, comp[:-1] + (alien,))
        return out

    monkeypatch.setattr(type(p), "compose", mutant)
    transmitters = verify._setup(p, [], False)[3]
    with pytest.raises(KeyError):
        transmitters[1, 1, 1][0].block(0)
    with pytest.raises(KeyError):
        check_privacy_exact_all("A", p, [(1,)])
    with pytest.raises(KeyError):
        check_privacy_mc_all("A", p, [(1,)], trials=50)


def _run_blocks(params, mode, derandomized, trials, base_seed) -> list:
    """The everyone-view blocks a check counts, as (demand vector, block
    index, block, multiplicity), each block k from a protocol run at the
    full demand vector: exact mode's every key of transmitter k's space
    once, or the keys of ``trials`` Monte Carlo trials, drawn one
    transmitter after another from the demand vector's stream with the
    ``draw_key`` oracle."""
    _, placement, everyone, transmitters = verify._setup(params, [], derandomized)
    runs = []
    for d, own in transmitters.items():
        own = [t.space for t in own]
        first = _first_outcomes(params, placement, d)
        if mode == "exact":
            keyed = [Counter(range(o.size())) for o in own]
        else:
            rng, keyed = seeded_rng(base_seed, f"mc|{d}"), [Counter() for _ in own]
            for _ in range(trials):
                for counts, o in zip(keyed, own):
                    counts[draw_key(o.plan(), rng.getrandbits)] += 1
        runs.append((d, 0, everyone.head(d), 1 if mode == "exact" else trials))
        for k, (o, counts) in enumerate(zip(own, keyed), 1):
            for key, n in counts.items():
                source = FixedSource(first | dict(zip(_labels(o), o.point(key))))
                tr = sim.run_protocol(params.scheme, params, d, source=source, placement=placement)
                runs.append((d, k, everyone.blocks(d, tr.broadcasts)[k], n))
    return runs


@pytest.mark.parametrize("derandomized", [False, True])
@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(scheme_a.params_for(2, 2, 1), id="A(2,2,1)"),
        pytest.param(scheme_a.params_for(2, 2, 2), id="A(2,2,2)"),
        pytest.param(scheme_a.params_for(3, 2, 2), id="A(3,2,2)"),
        pytest.param(scheme_b.params_for(4, 3), id="B(4,3)"),
    ],
)
def test_interned_counts_match_tuple_oracle(params, mode, derandomized):
    # the id-keyed counts, decoded, are the counts keyed by the blocks
    # themselves, each block built from a protocol run at its point and
    # demand vector; and the reports are those the block-keyed counts give
    coalitions = _all_coalitions(params.base.K)
    oracle = count_then_project_tuples(_run_blocks(params, mode, derandomized, 300, 4),
                                       _demand_vectors(params), coalitions, params.base.K)
    if mode == "exact":
        got = verify.enumerate_view_distributions(params, coalitions, derandomized)
        reports = check_privacy_exact_all(params.scheme, params, coalitions, derandomized=derandomized)
        want = {c: verify._exact_report(params, c, oracle[c]) for c in coalitions}
    else:
        got = verify.sample_view_distributions(params, coalitions, 300, 4, derandomized)
        reports = check_privacy_mc_all(params.scheme, params, coalitions, trials=300, base_seed=4,
                                       derandomized=derandomized)
        want = {c: verify._max_tv_report(params, c, oracle[c], 300, verify.DEFAULT_TOLERANCE)
                for c in coalitions}
    assert decoded(*got) == oracle
    assert reports == want


@pytest.mark.parametrize("base_seed", [2**63, -(2**63) - 1])
def test_mc_rejects_out_of_range_base_seed(base_seed):
    # a seed the random streams cannot be keyed with used to end in an
    # OverflowError from the stream keying
    with pytest.raises(ValueError, match="seed"):
        check_privacy_mc_all("A", scheme_a.params_for(2, 2, 1), [[1]], trials=2, base_seed=base_seed)


def test_exact_cap_error():
    # A(4,3,2): each transmitter shuffles 9 positions, 9! * 3^3 runs apiece
    with pytest.raises(ExactModeTooLarge, match="Monte Carlo"):
        check_privacy_exact_all("A", scheme_a.params_for(4, 3, 2), [[1]])


def test_exact_cap_is_read_at_each_call(monkeypatch):
    # A(2,2,2)'s space is checked against verify.EXACT_ENUMERATION_CAP as
    # it stands when the check is called: a cap one below refuses it
    p = scheme_a.params_for(2, 2, 2)
    monkeypatch.setattr(verify, "EXACT_ENUMERATION_CAP", 0)
    with pytest.raises(ExactModeTooLarge) as exc:
        check_privacy_exact_all("A", p, [[1]])
    total = exc.value.total
    assert total > 1
    monkeypatch.setattr(verify, "EXACT_ENUMERATION_CAP", total - 1)
    with pytest.raises(ExactModeTooLarge, match=f"{total} outcomes > cap {total - 1}"):
        check_privacy_exact_all("A", p, [[1]])
    monkeypatch.setattr(verify, "EXACT_ENUMERATION_CAP", total)
    assert _exact("A", p, [1]).private


@pytest.mark.parametrize("t", [1, 2])
def test_exact_privacy_three_users_all_coalitions(t):
    # every coalition of one or two users, checked off one enumeration
    p = scheme_a.params_for(3, 2, t)
    coalitions = [c for c in _all_coalitions(3) if len(c) < 3]
    assert len(coalitions) == 6
    reports = check_privacy_exact_all("A", p, coalitions)
    assert all(r.private for r in reports.values())
    baseline = check_privacy_exact_all("A", p, coalitions, derandomized=True)
    assert not any(r.private for r in baseline.values())
    assert all(r.witness is not None for r in baseline.values())


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=40)
       .filter(lambda cells: any(x for x, _ in cells) and any(y for _, y in cells)),
       st.data())
def test_total_variation_ignores_key_names_and_order(cells, data):
    # two empiricals over the same cells, one (a, b) count pair per cell:
    # the plug-in TV is the exact rational rounded once, and permuting or
    # renaming the keys changes neither float by a bit
    a = Counter({k: x for k, (x, _) in enumerate(cells) if x})
    b = Counter({k: y for k, (_, y) in enumerate(cells) if y})
    raw, corrected = debiased_total_variation(a, b)
    na, nb = sum(a.values()), sum(b.values())
    assert raw == float(sum(abs(Fraction(x, na) - Fraction(y, nb)) for x, y in cells) / 2)
    order = data.draw(st.permutations(range(len(cells))))
    names = [("block", data.draw(st.integers(-2**70, 2**70)), k) for k in range(len(cells))]
    renamed = [Counter({names[k]: c[k] for k in order if c[k]}) for c in (a, b)]
    got = debiased_total_variation(*renamed)
    assert [v.hex() for v in got] == [raw.hex(), corrected.hex()]


# sha256 over the canonical views below, taken on the code before the
# payload fingerprint was deleted, each key cut to its four view fields;
# any change to what a view holds moves it
PINNED_VIEW_DIGEST = "5e4f8727db7ea1c1761f01669dccf4d909ef2bafa893cf93b763be4ae7073f5c"


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
                    source = SeededSource(seed)
                    tr = sim.run_protocol(p.scheme, p, d, source=_delivery_source(source, derandomized),
                                          placement=p.place(source))
                    for c in coalitions:
                        h.update(repr(canonical_view(tr, c).key()).encode())
                        h.update(repr(verify.canonical_view_blocks(tr, c)).encode())
    assert h.hexdigest() == PINNED_VIEW_DIGEST


def test_decodability_and_fault_injection():
    p = scheme_a.params_for(2, 2, 2, seed=31)
    tr = sim.run_protocol("A", p, (1, 2))
    assert all(check_decodability(tr).values())
    tr.broadcasts[0][0].payload ^= 1  # flip one payload bit
    assert not all(check_decodability(tr).values())


def test_decodability_over_enumerated_randomness():
    # zero-error decoding for every demand vector under every point of
    # the randomness space, not just the seeded draw
    for p in (scheme_a.params_for(2, 2, 2, seed=0), scheme_b.params_for(2, 1, seed=0)):
        for d in itertools.product((1, 2), repeat=2):
            atoms = _placement_atoms(p) + _delivery_atoms(p, d, False)
            labels = [lab for lab, _ in atoms]
            for combo in itertools.product(*[opts for _, opts in atoms]):
                source = FixedSource(dict(zip(labels, combo)))
                tr = sim.run_protocol(p.scheme, p, d, source=source)
                assert all(check_decodability(tr).values()), (p.label(), d, combo)
