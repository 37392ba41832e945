"""Executable decodability and demand-privacy checks.

Privacy is tested as distribution equality: fix the demands of an
observing coalition, vary the demands of everyone else, and compare the
distributions of what the coalition sees.  Views are canonicalised
before counting: slot indices are relabelled by first occurrence within
their (file, block, who-caches-it) class, which quotients out exactly
the within-block permutations that are provably exchangeable, and
nothing else.  Cached values and payloads are dropped, on the payload
premise: given the composition structure, the bits a coalition holds
are the image of the library's i.i.d. uniform subfiles under a linear
map that the structure fixes, so they say nothing more about the
demands.  Each check tests the premise's map on every demand vector's
one protocol run (``_check_run``): every payload must be the XOR of
its composition's library values, else AssertionError.  Only that run,
at the first outcome of every draw, is checked; over every draw,
``tests/test_verify.py`` covers the premise with an oracle over a
coalition's full information (every placement, delivery and library
of 1-bit subfiles; cached values and payloads; physical slot ids)
whose verdicts equal exact mode's on the smallest instances.

Every check rests on one premise about the placement draws, which
``_setup`` checks before anything runs, on what ``place`` draws from a
``RecordingSource``: the placement draws exactly one permutation per
(file, block), labelled ``(scheme, "p", i, k)`` and drawn over exactly
that block's slots (``layout.block_slots(k)``, in any order), and
nothing else.  Those are the permutations the canonicaliser quotients
out, and a check runs on their first outcome; a scheme that skipped,
narrowed or widened the shuffle would be checked as if it had
shuffled, so it is rejected with ValueError instead.

Two facts shrink what a check has to run; tests check both against a
brute-force enumeration and against raw, uncanonicalised views.
* A canonical view does not depend on the placement draw, not even one
  draw at a time: a slot's class and its first-occurrence ordinal are
  functions of the role the slot plays, which a placement permutation
  only moves to another physical slot.  So each check builds one
  placement, the first outcome of every placement draw, and one view
  builder ``_Everyone`` for its caches.
* Block k of a view, transmitter k's messages relabelled on their own,
  is a function of transmitter k's query, and that query reads the
  demand vector d only through d₋ₖ, the demands of the users other
  than k: ``scheme_params.query(placement, k, others, source)`` is given
  nothing else, as transmitter k's sub-system of the virtual-user scheme
  serves only the other K - 1 real users.  The draws of distinct
  transmitters are independent.  So a view's distribution is the
  product of its per-block distributions, two products are equal
  exactly when every factor is, and block k's distribution is the same
  for every demand vector that agrees with d off k.  Each check builds
  transmitter k's share once per (k, d₋ₖ) (``_Transmitter``): the draws
  its query makes, recorded by a ``RecordingSource`` as the (label, kind,
  outcomes) tuples that ``delivery_draws`` declares, and its blocks
  counted as ids, which the N demand vectors sharing d₋ₖ reuse.  A
  transmitter's point is the values of its own draws, named by an int
  key (``RecordingSource.point``).
  Exact mode counts every key of a transmitter's space once and shares
  the whole block-k count.  A Monte Carlo check first draws all its
  trials' keys, every recorded draw taken in turn from one keyed stream
  per demand vector, so the trials of a demand vector are consecutive
  runs whose source answers each draw from that stream; it maps each
  distinct key through its transmitter's shared ids.

Blocks come from transmitter k's draw values, not from protocol runs:
a view drops payloads, and block k is a function of transmitter k's
(position set, composition) pairs, which its query lists and its
broadcasts repeat.  A query is ``SchemeParams.query``, written once: it
draws the scheme's declared ``delivery_draws(k, others)`` in order and
composes their values with the scheme's one planner, ``compose``.  So a
block is built straight from a point, ``RecordingSource.point(key)``,
as the rows of ``compose(placement, k, others, values)`` over the
check's placement, relabelled by ``_Everyone.rows``: no source replays
the point.  ``_Everyone.rows`` looks classes up among the slots
transmitter k caches, so a slot that k does not hold raises KeyError,
as ``sim.user_broadcast`` does.  Each demand vector still makes one
protocol run (``sim.run_protocol``) at the first outcome of every draw,
and the check raises AssertionError unless each transmitter's messages
in that run carry exactly the rows of its shared query at that point,
with the payloads the premise above gives them (``_check_run``): a run
whose transmitter k reads more of d than d₋ₖ fails loudly.

The joint view needs no pass of its own: transmitter k XORs only
block-k subfiles and a slot's class holds its block, so no class spans
two transmitters and ``canonical_view`` is ``canonical_view_blocks``
laid end to end.

A check counts the transmitters' blocks only, so block k of its counts
is transmitter k.  Block 0 of a view, the coalition C, its demands d_C
and the counts of its cache classes, is what C knows of itself, and
privacy is about what C learns beyond it: the checks build one
placement and compare only demand vectors that agree on C
(``_grouped_by_fixing``), so block 0 is the same on both sides of
every comparison, and counting it would add equal factors to both.

A coalition's view is a function of the everyone-view, the view of all
K users: a slot's pattern for the coalition is its everyone-pattern
intersected with the coalition, ordinals are renumbered within the
coarser classes (the everyone-refs already name each physical slot),
and the cache-class counts are summed onto the coarser classes.  So
each block is canonicalised once, as an everyone-view block, and a
coalition's counts are the pushforward of the everyone counts.  Blocks
are counted as ids (``_Everyone.id``): each distinct block of a
transmitter gets an int id when first met, and so does each coalition's
image of it (``_count_then_project``), so the counts, the pushforward
and the comparisons handle small ints, not nested tuples.  Projection
composes, because a coarser ref still names one physical slot of its
block: the coalitions are projected largest first, each one's blocks
from the distinct images of its smallest already projected superset,
not from every everyone block, and the images come out with the ids
direct projection gives them.  Each mode has one entry point,
which checks a list of coalitions off one shared pass:
``check_privacy_exact_all`` compares exact block counts of a small
instance, ``check_privacy_mc_all`` samples a larger one and gates on
``debiased_total_variation``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import scheme_a, sim
from .core import RecordingSource, Transcript, check_seed, other_demands, seeded_rng, split_file

EXACT_ENUMERATION_CAP = 1_000_000
DEFAULT_TRIALS = 10_000
DEFAULT_TOLERANCE = 0.05
LOW_CONFIDENCE_TRIALS = 3_000
"""A Monte Carlo report below this many trials is flagged low-confidence.
It is the smallest trial count at which ``demos/mc_false_alarms.py`` saw
no false alarm of the gate at ``DEFAULT_TOLERANCE`` on the private
A(3,2,2) instance (six coalitions, base seeds 0..199; 84 % of checks
FAILed at 300 trials and 3.5 % at 1,000, see the README table)."""


class ExactModeTooLarge(Exception):
    def __init__(self, total: int, cap: int):
        super().__init__(
            f"randomness space has {total} outcomes > cap {cap}; "
            "instance too large for exact mode, use the Monte Carlo check"
        )
        self.total = total
        self.cap = cap


# ---------------------------------------------------------------------------
# canonical observer views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObserverView:
    observer: tuple[int, ...]
    own_demands: tuple[int, ...]
    canonical_caches: tuple
    canonical_broadcasts: tuple

    def key(self):
        return (self.observer, self.own_demands, self.canonical_caches, self.canonical_broadcasts)


def _coalition(coalition, K: int) -> tuple[int, ...]:
    """The coalition sorted, checked to be a nonempty subset of 1..K."""
    coalition = tuple(sorted(set(coalition)))
    if not coalition or coalition[0] < 1 or coalition[-1] > K:
        raise ValueError(f"coalition must be a nonempty subset of 1..{K}")
    return coalition


def _relabelled(rows, classes) -> tuple:
    """The one slot relabelling: ``(sender, position_set, refs)`` per
    row, where an item's ref is its class, ``classes[item]``, plus its
    first-occurrence ordinal within that class over ``rows``.  Items are
    physical slot ids for the everyone-view, and a finer view's refs for
    a projection."""
    ordinals: dict = {}
    next_in_class: dict = {}
    out = []
    for sender, position_set, items in rows:
        refs = []
        for item in items:
            ref = ordinals.get(item)
            if ref is None:
                cls = classes[item]
                nxt = next_in_class.get(cls, 0) + 1
                next_in_class[cls] = nxt
                ref = ordinals[item] = (cls, nxt)
            refs.append(ref)
        out.append((sender, position_set, tuple(refs)))
    return tuple(out)


class _Everyone:
    """The one view builder: each slot's class (file, block, the users
    caching it), the counts of slots per class, and for each user the
    classes of the slots it caches.  User k caches all of block k of
    every file, so every slot is cached by someone.  It also numbers the
    blocks a check meets: ``ids[k - 1]`` maps each distinct block of
    transmitter k to its int id, in the order first met (``id``)."""

    def __init__(self, caches, layout):
        pattern: dict = {}  # sid -> tuple of users caching it
        for u, cache in enumerate(caches, 1):
            for sid in cache.slots:
                pattern[sid] = pattern.get(sid, ()) + (u,)
        classes = {sid: (sid.file, layout.block_of(sid.slot), pat) for sid, pat in pattern.items()}
        self._held = [{sid: classes[sid] for sid in cache.slots} for cache in caches]
        self.cache_classes = tuple(sorted(Counter(classes.values()).items()))
        self.ids: list[dict] = [{} for _ in caches]

    def rows(self, k: int, triples) -> tuple:
        """Block k: transmitter k's (sender, position set, composition)
        triples relabelled on their own.  A slot's class is looked up
        among the slots k caches, so one that k does not hold raises
        KeyError, as ``sim.user_broadcast`` does."""
        return _relabelled(triples, self._held[k - 1])

    def id(self, k: int, block) -> int:
        """The int id of ``block`` among transmitter k's blocks: the next
        one when it is first met."""
        seen = self.ids[k - 1]
        j = seen.get(block)
        if j is None:
            j = seen[block] = len(seen)
        return j


def _triples(broadcasts) -> list:
    """Each transmitter's messages as (sender, position set, composition)
    triples, the payloads dropped."""
    return [[(m.sender, m.position_set, m.composition) for m in per_user] for per_user in broadcasts]


class _Projection(dict):
    """Everyone-view blocks, or a superset's images of them, projected
    onto one coalition: a slot's pattern is intersected with the
    coalition, ordinals are renumbered within the coarser classes (the
    refs already name each physical slot).  Projecting onto the
    everyone coalition changes nothing, so it is skipped.  The dict is
    the one memo: it maps each ref met, and each finer class, to the
    coalition's class, filled on first use, so a relabelling reads each
    later ref in one lookup."""

    def __init__(self, coalition: tuple[int, ...], K: int):
        super().__init__()
        self._identity = len(coalition) == K
        self._members = frozenset(coalition)

    def __missing__(self, key):
        if len(key) == 2:  # a ref, (class, ordinal): its class's image
            out = self[key[0]]
        else:
            f, b, pat = key
            out = (f, b, tuple(u for u in pat if u in self._members))
        self[key] = out
        return out

    def __call__(self, block) -> tuple:
        """An everyone-view block, or a superset's image of it, projected."""
        return block if self._identity else _relabelled(block, self)


def _count_then_project(counts, ids, coalitions):
    """The one counter of both samplers, on ids.  ``counts[d][k - 1]`` is
    a Counter of the ids of demand vector d's blocks of transmitter k,
    and ``ids[k - 1]`` maps every everyone-view block of transmitter k to
    its id (``_Everyone.ids``), so everything here counts, projects and
    compares small ints, not nested tuples.  A coalition's counts are
    their pushforward under its ``_Projection``, run once per distinct
    block, its images given ids the same way, in the order first met.

    Coalitions are projected largest first, and a coalition's blocks are
    projected from the distinct images of its already projected strict
    superset with the fewest of them, else from the everyone-view
    blocks; its counts are pushed forward from that superset's.
    Projection composes: an everyone-ref, and so a coarser
    ref, names one physical slot of its block, so relabelling a
    superset's image gives what relabelling the everyone block gives.
    Images are numbered in the order first met, and a superset's images
    are met in the order of their first everyone block, so the ids are
    those of projecting every everyone block.

    Returns (dists, blocks), keyed in the order of ``coalitions``:
    dists[coalition][demand vector][k - 1] is a Counter of transmitter
    k's block ids, and blocks[coalition][k - 1] lists transmitter k's
    blocks by id."""
    dists, blocks = {}, {}
    for c in sorted(dict.fromkeys(coalitions), key=len, reverse=True):
        proj = _Projection(c, len(ids))
        base = min((p for p in dists if set(c) < set(p)), default=None,
                   key=lambda p: sum(map(len, blocks[p])))
        images: list[dict] = [{} for _ in ids]
        to_image = [[image.setdefault(proj(block), len(image)) for block in source]
                    for source, image in zip(ids if base is None else blocks[base], images)]
        dists[c] = {}
        for d, counters in (counts if base is None else dists[base]).items():
            pushed = [Counter() for _ in counters]
            for out, counter, to in zip(pushed, counters, to_image):
                for j, n in counter.items():
                    out[to[j]] += n
            dists[c][d] = pushed
        blocks[c] = [list(image) for image in images]
    return {c: dists[c] for c in coalitions}, {c: blocks[c] for c in coalitions}


def canonical_view(transcript: Transcript, coalition) -> ObserverView:
    """What a coalition observes, canonicalised for distribution counting.

    Inputs are exactly the coalition's knowledge: its caches (metadata),
    its demands, and every broadcast header in emission order.  Hidden
    quantities (position shuffles, placement permutations of others)
    never enter.  Its rows are the blocks of ``canonical_view_blocks``
    laid end to end (see the module docstring).
    """
    head, *blocks = canonical_view_blocks(transcript, coalition)
    rows = tuple(itertools.chain.from_iterable(blocks))
    return ObserverView(*head, rows)


def canonical_view_blocks(transcript: Transcript, coalition) -> tuple:
    """The canonical view split into per-transmitter marginal blocks.

    Block 0 holds the coalition, its demands and the counts of its cache
    classes (each everyone class projected onto it); block k holds
    transmitter k's canonicalised messages with slot ordinals that
    restart per transmitter.  The joint view distribution is the product
    of the block marginals (see the module docstring), so comparing
    marginals loses nothing.  Block k of a coalition is block k of the
    everyone-view projected onto it.  The checks count blocks 1..K only:
    block 0 is the coalition's own knowledge, fixed by its demands on the
    one placement a check builds.
    """
    K = transcript.scheme_params.base.K
    coalition = _coalition(coalition, K)
    proj = _Projection(coalition, K)
    everyone = _Everyone(transcript.caches, transcript.scheme_params.layout)
    cache_counts: dict = {}
    for cls, n in everyone.cache_classes:
        cls = proj[cls]
        if cls[2]:
            cache_counts[cls] = cache_counts.get(cls, 0) + n
    own_demands = tuple(transcript.demands[u - 1] for u in coalition)
    head = (coalition, own_demands, tuple(sorted(cache_counts.items())))
    return (head, *(proj(everyone.rows(k, triples))
                    for k, triples in enumerate(_triples(transcript.broadcasts), 1)))


# ---------------------------------------------------------------------------
# per-transmitter blocks and exact enumeration
# ---------------------------------------------------------------------------


class _Transmitter:
    """Transmitter k's share of a check at one d₋ₖ, the demands
    ``others`` of the users other than k, which is all its query reads;
    built once and reused by the N demand vectors that agree off k.

    It asks its query once of a ``RecordingSource``: ``first_triples``
    are the (sender, position set, composition) rows there, at the first
    outcome of every draw.  ``space`` holds the draws a check enumerates:
    all of them, or none for the non-private baseline, which keeps every
    draw at its first outcome.  Its block at a key is counted as an id
    of the check's ``_Everyone``."""

    def __init__(self, scheme_params, placement, everyone: _Everyone, k: int, others, derandomized: bool):
        self.k = k
        self._everyone = everyone
        recorder = RecordingSource()
        query = scheme_params.query(placement, k, others, recorder)
        self.first_triples = [(k, pos, comp) for pos, comp in query]
        self.space = RecordingSource() if derandomized else recorder
        self._compose = functools.partial(scheme_params.compose, placement, k, others)
        self._ids: dict = {}  # sampled key -> block id

    def block(self, key: int) -> tuple:
        """The everyone-view block of ``compose``'s rows at the point
        ``key`` names, read straight off ``space.point``; the baseline's
        one point is the first outcome, whose rows are ``first_triples``."""
        k = self.k
        rows = ([(k, pos, comp) for pos, comp in self._compose(self.space.point(key))]
                if self.space.draws else self.first_triples)
        return self._everyone.rows(k, rows)

    def _id(self, key: int) -> int:
        return self._everyone.id(self.k, self.block(key))

    @functools.cached_property
    def exact(self) -> Counter:
        """Block ids over every key of the space, each weighted 1."""
        return Counter(map(self._id, range(self.space.size())))

    def tally(self, key_counts: dict) -> Counter:
        """Block ids weighted by sampled key counts; each key's block is
        built once for every demand vector that shares this transmitter."""
        ids, out = self._ids, Counter()
        for key, n in key_counts.items():
            j = ids.get(key)
            if j is None:
                j = ids[key] = self._id(key)
            out[j] += n
        return out


def _setup(scheme_params, coalitions, derandomized: bool):
    """A check's checked coalitions, its one placement (the first outcome
    of every placement draw), the view builder for that placement's
    caches, and every demand vector's transmitters:
    ``transmitters[d][k - 1]`` is transmitter k's ``_Transmitter`` at
    d's d₋ₖ, one object for every demand vector that agrees with d off
    k.  The non-private baseline is chosen here alone: ``derandomized``
    enumerates no draw, so every query takes each draw's first outcome.
    Coalitions are checked before anything is drawn, the placement draws
    (see the module docstring) before any delivery."""
    base, layout = scheme_params.base, scheme_params.layout
    coalitions = [_coalition(c, base.K) for c in coalitions]
    recorder = RecordingSource()
    placement = scheme_params.place(recorder)
    shuffles = [((scheme_params.scheme, "p", i, k), "permutation", tuple(layout.block_slots(k)))
                for i in range(1, base.N + 1) for k in range(1, layout.blocks + 1)]
    drawn = Counter((label, kind, tuple(sorted(xs))) for label, kind, xs in recorder.draws)
    if drawn != Counter(shuffles):
        raise ValueError(f"{scheme_params.label()}: the placement must draw one permutation of each "
                         "(file, block)'s slots, labelled (scheme, 'p', file, block), and nothing else")
    everyone = _Everyone(placement.caches, layout)
    shared: dict = {}
    transmitters = {}
    for d in itertools.product(range(1, base.N + 1), repeat=base.K):
        own = transmitters[d] = []
        for k in range(1, base.K + 1):
            others = other_demands(d, k)
            t = shared.get((k, others))
            if t is None:
                t = shared[k, others] = _Transmitter(scheme_params, placement, everyone, k, others,
                                                     derandomized)
            own.append(t)
    return coalitions, placement, everyone, transmitters


def _check_run(scheme_params, placement, pieces, d, own) -> None:
    """Demand vector d's one protocol run, at the first outcome of every
    draw: transmitter k's messages must carry exactly the (sender,
    position set, composition) rows of the query that d's transmitter
    ``own[k - 1]``, shared by every demand vector agreeing with d off k,
    was asked at that point (``first_triples``), and each payload must be
    the XOR of its composition's values in ``pieces``, the placement's
    library split by file (the payload premise); else AssertionError."""
    run = sim.run_protocol(scheme_params.scheme, scheme_params, d, source=RecordingSource(),
                           placement=placement)
    for k, (t, triples) in enumerate(zip(own, _triples(run.broadcasts)), 1):
        if triples != t.first_triples:
            raise AssertionError(
                f"{scheme_params.label()}: transmitter {k}'s messages in the protocol run at d={d} differ "
                f"from its query from the other users' demands {other_demands(d, k)}")
    for k, per_user in enumerate(run.broadcasts, 1):
        for j, m in enumerate(per_user, 1):
            payload = 0
            for sid in m.composition:
                payload ^= pieces[sid.file][sid.slot - 1]
            if m.payload != payload:
                raise AssertionError(
                    f"{scheme_params.label()}: transmitter {k}'s message {j} in the protocol run at d={d} "
                    f"carries a payload other than the XOR of its composition")


def _distributions(scheme_params, setup, blocks):
    """(dists, blocks) of ``_count_then_project`` over every demand
    vector of ``setup``: d's counts are the Counters of block ids
    ``blocks(d, own)`` of its transmitters ``own``, one per transmitter.
    Each demand vector makes its one protocol run (``_check_run``) before
    it is counted; the library is split once for all of them."""
    coalitions, placement, everyone, transmitters = setup
    pieces = {i: split_file(scheme_params.layout, buf) for i, buf in placement.library.items()}
    counts = {}
    for d, own in transmitters.items():
        _check_run(scheme_params, placement, pieces, d, own)
        counts[d] = blocks(d, own)
    return _count_then_project(counts, everyone.ids, coalitions)


def enumerate_view_distributions(scheme_params, coalitions, derandomized: bool = False):
    """Exact per-block view distributions per (coalition, demand vector).

    The sum of the transmitters' spaces over every demand vector is
    checked against ``EXACT_ENUMERATION_CAP``, read at the call, before
    any run.  Block k is counted once per (k, d₋ₖ) over every point of
    transmitter k's draws: every key in ``range(size())``, weighted 1, is
    turned into its point by ``RecordingSource.point``, the path a Monte
    Carlo trial's key takes (see the module docstring and
    ``_Transmitter``).  Block k's counters all have the same total, so
    distribution equality is plain counter equality.  Returns (dists,
    blocks) of ``_count_then_project``: dists[coalition][demand vector]
    holds one Counter of block ids per transmitter, and
    blocks[coalition][k - 1] lists transmitter k's blocks by id.
    """
    setup = _setup(scheme_params, coalitions, derandomized)
    total = sum(t.space.size() for own in setup[3].values() for t in own)
    if total > EXACT_ENUMERATION_CAP:
        raise ExactModeTooLarge(total, EXACT_ENUMERATION_CAP)
    return _distributions(scheme_params, setup, lambda d, own: [t.exact for t in own])


def _grouped_by_fixing(distributions: dict, coalition):
    groups: dict = {}
    for d, counter in distributions.items():
        fixing = tuple(d[u - 1] for u in coalition)
        groups.setdefault(fixing, []).append((d, counter))
    return groups


@dataclass
class PrivacyReport:
    instance: str  # the checked instance's ``label()``
    coalition: tuple[int, ...]
    mode: str
    private: bool
    max_tv: float = 0.0  # plug-in estimate (carries the finite-sample bias)
    max_tv_debiased: float = 0.0  # bias-corrected estimate; the pass gate
    trials: Optional[int] = None
    tolerance: Optional[float] = None
    low_confidence: bool = False
    witness: Optional[tuple] = None  # (fixing, demand vector a, demand vector b)

    def verdict(self) -> str:
        return "PASS" if self.private else "FAIL"

    def text(self) -> str:
        parts = [
            f"instance={self.instance}",
            f"coalition={{{','.join(map(str, self.coalition))}}}",
            f"mode={self.mode}",
            f"verdict={self.verdict()}",
        ]
        if self.mode == "mc":
            parts.append(
                f"max_tv={self.max_tv_debiased:.4f} (plug-in {self.max_tv:.4f}) "
                f"trials={self.trials} tol={self.tolerance}"
            )
            if self.low_confidence:
                parts.append("low-confidence")
        if self.witness and not self.private:
            parts.append(f"witness={self.witness}")
        return " ".join(parts)


def _exact_report(scheme_params, coalition, dists) -> PrivacyReport:
    witness = None
    for fixing, group in _grouped_by_fixing(dists, coalition).items():
        (d0, ref), rest = group[0], group[1:]
        for d, counters in rest:
            if counters != ref:
                witness = (fixing, d0, d)
                break
        if witness:
            break
    return PrivacyReport(
        instance=scheme_params.label(),
        coalition=coalition,
        mode="exact",
        private=witness is None,
        witness=witness,
    )


def check_privacy_exact_all(
    scheme: str,
    scheme_params,
    coalitions,
    derandomized: bool = False,
    paranoid: bool = False,
) -> dict[tuple[int, ...], PrivacyReport]:
    """Exact demand privacy for each coalition, off one shared
    enumeration (see module docstring).  ``paranoid`` is accepted and
    ignored: the payload fingerprint it once added was a function of
    the view block, so it changed no report.  The keyword stays until
    the benchmark, which passes ``paranoid=True``, may change (ROADMAP
    item 1)."""
    sim.check_scheme(scheme, scheme_params)
    dists, _ = enumerate_view_distributions(scheme_params, coalitions, derandomized)
    return {c: _exact_report(scheme_params, c, by_d) for c, by_d in dists.items()}


# ---------------------------------------------------------------------------
# Monte Carlo total-variation check
# ---------------------------------------------------------------------------


def debiased_total_variation(a: Counter, b: Counter) -> tuple[float, float]:
    """(plug-in TV, bias-corrected TV) between two empirical counters.

    The plug-in TV of two n-sample empiricals of the SAME distribution
    concentrates near (1/2) * sum_v sqrt(p_v (1-p_v) (1/n_a + 1/n_b)) *
    sqrt(2/pi)  (each cell difference is approximately centred normal),
    which for view supports of a few dozen cells sits right at the 0.05
    tolerance even when the true TV is zero.  Subtracting that null bias,
    estimated from the pooled empirical, gives a consistent estimate of
    the true TV that vanishes for genuinely private schemes and stays
    near 1 for broken ones.

    Neither value depends on the order the keys are met in, so renaming
    or reordering them leaves both bit-identical: the plug-in TV is the
    one integer sum_v |a_v n_b - b_v n_a| divided once by 2 n_a n_b, and
    the bias sums its terms with ``math.fsum``.
    """
    na, nb = sum(a.values()), sum(b.values())
    keys = a.keys() | b.keys()
    raw = sum(abs(a[k] * nb - b[k] * na) for k in keys) / (2 * na * nb)
    n_tot = na + nb
    scale = math.sqrt((1 / na + 1 / nb) * 2 / math.pi)
    bias = 0.5 * scale * math.fsum(math.sqrt(p * (1 - p)) for p in ((a[k] + b[k]) / n_tot for k in keys))
    return raw, max(0.0, raw - bias)


def _trial_keys(plans, trials: int, getrandbits) -> list[dict]:
    """Each transmitter's key counts over ``trials`` trials off one
    stream.  A trial walks the entries (n, n.bit_length()) of ``plans``
    laid end to end, drawing ``_randbelow(n)`` as CPython does
    (``getrandbits`` again until below n), and folds each transmitter's
    indices into its key, the first most significant, starting again at
    each transmitter's boundary.  A transmitter with an empty plan draws
    nothing: its key is 0 in every trial."""
    counts: list[dict] = [{} for _ in plans]
    flat = []  # (n, bits, the transmitter's counts at its last entry, else None)
    for plan, c in zip(plans, counts):
        if plan:
            flat += [(n, bits, None) for n, bits in plan[:-1]]
            flat.append((*plan[-1], c))
        else:
            c[0] = trials
    for _ in range(trials):
        key = 0
        for n, bits, c in flat:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            key = key * n + r
            if c is not None:
                c[key] = c.get(key, 0) + 1
                key = 0
    return counts


def sample_view_distributions(scheme_params, coalitions, trials: int, base_seed: int = 0,
                              derandomized: bool = False):
    """trials independent deliveries per demand vector on the check's one
    placement, shared across coalitions.

    A trial draws a point, not a protocol run: every trial takes all of
    the demand vector's recorded delivery draws from its one keyed
    stream, ``seeded_rng(base_seed, f"mc|{d}")``: transmitters 1..K,
    each one's draws in recorded order.  That is the order a protocol run
    makes them in, so trial j is the j-th of consecutive runs on that
    placement whose source answers every draw from the same stream in
    call order.  A transmitter's point is drawn as its int key
    (``_trial_keys`` over ``RecordingSource.plan``), which makes the same
    ``getrandbits`` calls as the stdlib's ``shuffle`` and ``choice`` of
    those draws, so its point is theirs.  All trials are drawn first,
    into one key count per transmitter; then each distinct key is mapped
    to its block's id through its transmitter's shared ids
    (``_Transmitter.tally``).  A coalition's block counts are their
    projection (see ``_Projection``).

    Returns (dists, blocks), as ``enumerate_view_distributions`` does.
    """
    check_seed(base_seed)

    def blocks(d, own):
        getrandbits = seeded_rng(base_seed, f"mc|{d}").getrandbits
        keys = _trial_keys([t.space.plan() for t in own], trials, getrandbits)
        return [t.tally(key_counts) for t, key_counts in zip(own, keys)]

    return _distributions(scheme_params, _setup(scheme_params, coalitions, derandomized), blocks)


def _max_tv_report(scheme_params, coalition, dists, trials, tolerance) -> PrivacyReport:
    max_raw = 0.0
    max_tv = 0.0
    witness = None
    for fixing, group in _grouped_by_fixing(dists, coalition).items():
        for (da, blocks_a), (db, blocks_b) in itertools.combinations(group, 2):
            for ca, cb in zip(blocks_a, blocks_b):
                raw, corrected = debiased_total_variation(ca, cb)
                max_raw = max(max_raw, raw)
                if corrected > max_tv:
                    max_tv = corrected
                    witness = (fixing, da, db)
    passed = max_tv <= tolerance
    return PrivacyReport(
        instance=scheme_params.label(),
        coalition=coalition,
        mode="mc",
        private=passed,
        max_tv=max_raw,
        max_tv_debiased=max_tv,
        trials=trials,
        tolerance=tolerance,
        low_confidence=trials < LOW_CONFIDENCE_TRIALS,
        witness=None if passed else witness,
    )


def check_privacy_mc_all(
    scheme: str,
    scheme_params,
    coalitions,
    trials: int = DEFAULT_TRIALS,
    tolerance: float = DEFAULT_TOLERANCE,
    base_seed: int = 0,
    derandomized: bool = False,
) -> dict[tuple[int, ...], PrivacyReport]:
    """Statistical surrogate for the exact check at larger instances, for
    each coalition off one shared set of runs.

    max_tv is the largest empirical total variation over all pairs of
    demand completions and all transmitter blocks, blocks 1..K of
    ``canonical_view_blocks``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sim.check_scheme(scheme, scheme_params)
    dists, _ = sample_view_distributions(scheme_params, coalitions, trials, base_seed, derandomized)
    return {
        c: _max_tv_report(scheme_params, c, by_d, trials, tolerance)
        for c, by_d in dists.items()
    }


# ---------------------------------------------------------------------------
# decodability
# ---------------------------------------------------------------------------


def check_decodability(transcript: Transcript) -> dict[int, bool]:
    """Run every user's decoder against the transcript, bit-exact, all
    of them reading one ``scheme_a.index_messages`` of its messages.
    Raises ValueError for a message naming a subfile outside the layout."""
    layout = transcript.scheme_params.layout
    index = scheme_a.index_messages(transcript.all_messages(), layout)
    results = {}
    for u in range(1, transcript.scheme_params.base.K + 1):
        want = transcript.library[transcript.demands[u - 1]]
        try:
            got = scheme_a.decode_from_messages(
                u, index, transcript.caches[u - 1], transcript.demands[u - 1], layout
            )
            results[u] = got == want
        except (scheme_a.DecodingFailure, ValueError):
            results[u] = False
    return results
