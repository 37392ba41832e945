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
demands.  No check here tests that; ``tests/test_verify.py`` does, with
an oracle over a coalition's full information (every placement,
delivery and library of 1-bit subfiles; cached values and payloads;
physical slot ids) whose verdicts equal exact mode's on the smallest
instances, and which FAILs a payload-only leak that exact mode PASSes.

Every check rests on one premise about the placement draws, which
``_setup`` checks before anything runs: the placement draws exactly one
permutation per (file, block), labelled ``(scheme, "p", i, k)`` and
drawn over exactly that block's slots (``layout.block_slots(k)``, in
any order), and nothing else.  Those are the permutations the
canonicaliser quotients out, and a check runs on their first outcome;
a scheme that skipped, narrowed or widened the shuffle would be checked
as if it had shuffled, so it is rejected with ValueError instead.

Two facts shrink what a check has to run; tests check both against a
brute-force enumeration and against raw, uncanonicalised views.
* A canonical view does not depend on the placement draw, not even one
  draw at a time: a slot's class and its first-occurrence ordinal are
  functions of the role the slot plays, which a placement permutation
  only moves to another physical slot.  So each check builds one
  placement, the first outcome of every placement draw, and one view
  builder ``_Everyone`` for its caches.
* Block k of a view, transmitter k's messages relabelled on their own,
  depends only on the delivery draws labelled for transmitter k
  (``label[2] == k``: its position shuffle and its leader choices), and
  the draws of distinct transmitters are independent.  So a view's
  distribution is the product of its per-block distributions, and two
  products are equal exactly when every factor is.  Both modes count
  block by block in one lockstep pass per demand vector
  (``_block_pass``): a transmitter's point is the values of its own
  draws, named by an int key (``RecordingSource.point``), and run j
  gives every transmitter the point of its j-th distinct key, weighted
  by its multiplicity.  Exact mode passes every key of the space once;
  a Monte Carlo check first draws all its trials' keys, every recorded
  draw taken in turn from one keyed stream per demand vector, so the
  trials of a demand vector are consecutive runs whose source answers
  each draw from that stream, and passes each distinct key with its
  count.

The joint view needs no pass of its own: transmitter k XORs only
block-k subfiles and a slot's class holds its block, so no class spans
two transmitters and ``canonical_view`` is ``canonical_view_blocks``
laid end to end.

A coalition's view is a function of the everyone-view, the view of all
K users: a slot's pattern for the coalition is its everyone-pattern
intersected with the coalition, ordinals are renumbered within the
coarser classes (the everyone-refs already name each physical slot),
and the cache-class counts are summed onto the coarser classes.  So
each block is canonicalised once, as an everyone-view block, and a
coalition's counts are the pushforward of the everyone counts.  Each
mode has one entry point, which checks a list of coalitions off one
shared set of protocol runs: ``check_privacy_exact_all`` compares exact
block counts of a small instance, ``check_privacy_mc_all`` samples a
larger one and gates on ``debiased_total_variation``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import scheme_a, sim
from .core import FixedSource, RecordingSource, Transcript, check_seed, draw_key, seeded_rng

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


def _relabelled(rows, class_of) -> tuple:
    """The one slot relabelling: ``(sender, position_set, refs)`` per
    row, where an item's ref is its class plus its first-occurrence
    ordinal within that class over ``rows``.  Items are physical slot
    ids for the everyone-view and everyone-refs for a projection."""
    ordinals: dict = {}
    next_in_class: dict = {}
    out = []
    for sender, position_set, items in rows:
        refs = []
        for item in items:
            ref = ordinals.get(item)
            if ref is None:
                cls = class_of(item)
                nxt = next_in_class.get(cls, 0) + 1
                next_in_class[cls] = nxt
                ref = ordinals[item] = (cls, nxt)
            refs.append(ref)
        out.append((sender, position_set, tuple(refs)))
    return tuple(out)


class _Everyone:
    """The one view builder: each slot's class (file, block, the users
    caching it) and the counts of slots per class.  User k caches all of
    block k of every file, so every slot is cached by someone."""

    def __init__(self, caches, layout):
        pattern: dict = {}  # sid -> tuple of users caching it
        for u, cache in enumerate(caches, 1):
            for sid in cache.slots:
                pattern[sid] = pattern.get(sid, ()) + (u,)
        self._classes = {sid: (sid.file, layout.block_of(sid.slot), pat)
                         for sid, pat in pattern.items()}
        self._users = tuple(range(1, len(caches) + 1))
        self._cache_classes = tuple(sorted(Counter(self._classes.values()).items()))

    def head(self, demands) -> tuple:
        """Block 0: all users, all demands and the cache-class counts."""
        return (self._users, tuple(demands), self._cache_classes)

    def rows(self, per_user) -> tuple:
        """Block k: transmitter k's messages relabelled on their own."""
        return _relabelled(((m.sender, m.position_set, m.composition) for m in per_user),
                           self._classes.__getitem__)

    def blocks(self, demands, broadcasts) -> tuple:
        """A run's everyone-view ``(head, rows_1, ..., rows_K)``."""
        return (self.head(demands),) + tuple(self.rows(per_user) for per_user in broadcasts)


class _Projection:
    """Everyone-view blocks projected onto one coalition: a slot's
    pattern is intersected with the coalition, ordinals are renumbered
    within the coarser classes (everyone-refs already name each physical
    slot), and cache-class counts are summed onto the coarser classes.
    Projecting onto the everyone coalition changes nothing, so it is
    skipped."""

    def __init__(self, coalition: tuple[int, ...], K: int):
        self.coalition = coalition
        self._identity = len(coalition) == K
        self._members = frozenset(coalition)
        self._classes: dict = {}

    def _class(self, cls):
        out = self._classes.get(cls)
        if out is None:
            f, b, pat = cls
            out = self._classes[cls] = (f, b, tuple(u for u in pat if u in self._members))
        return out

    def __call__(self, block, i: int) -> tuple:
        """Everyone-view block ``i`` projected."""
        if self._identity:
            return block
        if i:
            return _relabelled(block, lambda ref: self._class(ref[0]))
        _, demands, cache_classes = block
        counts: dict = {}
        for cls, n in cache_classes:
            cls = self._class(cls)
            if cls[2]:
                counts[cls] = counts.get(cls, 0) + n
        own_demands = tuple(demands[u - 1] for u in self.coalition)
        return (self.coalition, own_demands, tuple(sorted(counts.items())))


def _count_then_project(runs, demand_vectors, coalitions, K: int):
    """The one counter of both samplers, block by block.  ``runs`` yields
    (demand vector, block index, everyone-view block, multiplicity),
    each block first in the order the sampler met it.  A coalition's
    counts are their pushforward under its ``_Projection``, run once per
    distinct block.  Returns dists[coalition][demand vector], a list of
    per-block Counters."""
    counts = {d: [Counter() for _ in range(K + 1)] for d in demand_vectors}
    for d, i, block, n in runs:
        counts[d][i][block] += n
    dists: dict = {}
    for c in coalitions:
        proj = _Projection(c, K)
        memos: list = [{} for _ in range(K + 1)]
        dists[c] = {}
        for d, counters in counts.items():
            pushed = [Counter() for _ in range(K + 1)]
            for i, (out, counter, memo) in enumerate(zip(pushed, counters, memos)):
                for block, n in counter.items():
                    image = memo.get(block)
                    if image is None:
                        image = memo[block] = proj(block, i)
                    out[image] += n
            dists[c][d] = pushed
    return dists


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

    Block 0 holds the coalition's demands and cache structure; block k
    holds transmitter k's canonicalised messages with slot ordinals that
    restart per transmitter.  The joint view distribution is the product
    of the block marginals (see the module docstring), so comparing
    marginals loses nothing.  Block k of a coalition is block k of the
    everyone-view projected onto it.
    """
    K = transcript.scheme_params.base.K
    proj = _Projection(_coalition(coalition, K), K)
    everyone = _Everyone(transcript.caches, transcript.scheme_params.layout)
    return tuple(proj(block, i) for i, block in
                 enumerate(everyone.blocks(transcript.demands, transcript.broadcasts)))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def _setup(scheme_params, coalitions, derandomized: bool):
    """A check's checked coalitions, its one placement (the first outcome
    of every placement draw), the view builder for that placement's
    caches, and every demand vector's delivery draws recorded on that
    placement, split by transmitter: ``spaces[d][k - 1]`` is a
    ``RecordingSource`` holding the draws enumerated for transmitter k
    (``label[2] == k``), and ``firsts[d]`` maps every draw's label to its
    first outcome.  The non-private baseline is chosen here alone:
    ``derandomized`` enumerates no draw, so every run takes ``firsts``.
    Coalitions are checked before anything is drawn, the placement draws
    (see the module docstring) before any delivery."""
    base, layout = scheme_params.base, scheme_params.layout
    coalitions = [_coalition(c, base.K) for c in coalitions]
    recorder = RecordingSource()
    placement = scheme_params.place(recorder)
    shuffles = [((scheme_params.scheme, "p", i, k), tuple(layout.block_slots(k)), "permutation")
                for i in range(1, base.N + 1) for k in range(1, layout.blocks + 1)]
    drawn = Counter((label, tuple(sorted(xs)), kind) for label, xs, kind in recorder.draws)
    if drawn != Counter(shuffles):
        raise ValueError(f"{scheme_params.label()}: the placement must draw one permutation of each "
                         "(file, block)'s slots, labelled (scheme, 'p', file, block), and nothing else")
    spaces, firsts = {}, {}
    for d in itertools.product(range(1, base.N + 1), repeat=base.K):
        recorder = RecordingSource()
        scheme_params.query_plans(placement, d, recorder)
        firsts[d] = {label: xs if kind == "permutation" else xs[0] for label, xs, kind in recorder.draws}
        own = spaces[d] = [RecordingSource() for _ in range(base.K)]
        if not derandomized:
            for draw in recorder.draws:
                own[draw[0][2] - 1].draws.append(draw)
    return coalitions, placement, _Everyone(placement.caches, layout), spaces, firsts


def _block_pass(scheme_params, placement, everyone, d, firsts, own, keyed, n_head):
    """Demand vector d's everyone-view blocks with their weights, as
    ``_count_then_project`` takes them: the head once, weighted
    ``n_head``, then one protocol run per column j on the check's one
    placement.  ``keyed[k - 1]`` yields transmitter k's distinct keys
    into ``own[k - 1]`` with their multiplicities; run j gives each
    transmitter the point of its j-th key and every other draw its value
    in ``firsts``, a transmitter with no keys left held at its first
    outcomes and its block not counted, so d takes as many runs as the
    most keys any transmitter has."""
    yield d, 0, everyone.head(d), n_head
    labels = [o.labels() for o in own]
    for column in itertools.zip_longest(*keyed):
        assignment = dict(firsts)
        for o, labs, entry in zip(own, labels, column):
            if entry is not None:
                assignment.update(zip(labs, o.point(entry[0])))
        tr = sim.run_protocol(scheme_params.scheme, scheme_params, d,
                              source=FixedSource(assignment), placement=placement)
        for k, (entry, per_user) in enumerate(zip(column, tr.broadcasts), 1):
            if entry is not None:
                yield d, k, everyone.rows(per_user), entry[1]


def enumerate_view_distributions(scheme_params, coalitions, derandomized: bool = False):
    """Exact per-block view distributions per (coalition, demand vector).

    The sum of the transmitters' spaces over every demand vector is
    checked against ``EXACT_ENUMERATION_CAP``, read at the call, before
    any run.  Block k is counted once over every point of transmitter
    k's draws: every key in ``range(size())``, weighted 1, is turned
    into its point by ``RecordingSource.point``, the path a Monte Carlo
    trial's key takes (see the module docstring and ``_block_pass``).
    So a demand vector takes as many runs as its largest space.  Block
    k's counters all have the same total, so distribution equality is
    plain counter equality.  Returns dists[coalition][demand vector] =
    list of per-block Counters.
    """
    coalitions, placement, everyone, spaces, firsts = _setup(scheme_params, coalitions, derandomized)
    total = sum(o.size() for own in spaces.values() for o in own)
    if total > EXACT_ENUMERATION_CAP:
        raise ExactModeTooLarge(total, EXACT_ENUMERATION_CAP)
    runs = itertools.chain.from_iterable(
        _block_pass(scheme_params, placement, everyone, d, firsts[d], own,
                    [zip(range(o.size()), itertools.repeat(1)) for o in own], 1)
        for d, own in spaces.items())
    return _count_then_project(runs, spaces, coalitions, scheme_params.base.K)


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
    dists = enumerate_view_distributions(scheme_params, coalitions, derandomized)
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
    """
    na, nb = sum(a.values()), sum(b.values())
    keys = set(a) | set(b)
    raw = 0.5 * sum(abs(a[k] / na - b[k] / nb) for k in keys)
    n_tot = na + nb
    scale = math.sqrt((1 / na + 1 / nb) * 2 / math.pi)
    bias = 0.0
    for k in keys:
        p = (a[k] + b[k]) / n_tot
        bias += 0.5 * math.sqrt(p * (1 - p)) * scale
    return raw, max(0.0, raw - bias)


def sample_view_distributions(scheme_params, coalitions, trials: int, base_seed: int = 0,
                              derandomized: bool = False):
    """trials independent deliveries per demand vector on the check's one
    placement, shared across coalitions.

    A trial draws a point, not a protocol run: every trial takes all of
    the demand vector's recorded delivery draws from its one keyed
    stream, ``seeded_rng(base_seed, f"mc|{d}")``: transmitters 1..K,
    each one's draws in recorded order.  That is the order a delivery
    plan makes them in, so trial j is the j-th of consecutive runs on
    that placement whose source answers every draw from the same stream
    in call order.  A transmitter's point is drawn as its int key
    (``draw_key`` over ``RecordingSource.plan``), which makes the same
    ``getrandbits`` calls as the stdlib's ``shuffle`` and ``choice`` of
    those draws, so its point is theirs.  All trials are drawn first,
    into one key count per transmitter; then each distinct key is run
    once on its point (``RecordingSource.point``), its block counted
    with its multiplicity (see ``_block_pass``), blocks in the order
    their first trial met them.  A coalition's block counts are
    their projection (see ``_Projection``).

    Returns dists[coalition][demand vector] = list of per-block Counters.
    """
    check_seed(base_seed)
    coalitions, placement, everyone, spaces, firsts = _setup(scheme_params, coalitions, derandomized)

    def runs():
        for d, own in spaces.items():
            getrandbits = seeded_rng(base_seed, f"mc|{d}").getrandbits
            plans = [o.plan() for o in own]
            seen: list[dict] = [{} for _ in own]
            for _ in range(trials):
                for plan, counts in zip(plans, seen):
                    key = draw_key(plan, getrandbits)
                    counts[key] = counts.get(key, 0) + 1
            yield from _block_pass(scheme_params, placement, everyone, d, firsts[d], own,
                                   [counts.items() for counts in seen], trials)

    return _count_then_project(runs(), spaces, coalitions, scheme_params.base.K)


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
    demand completions and all view blocks (see canonical_view_blocks).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sim.check_scheme(scheme, scheme_params)
    dists = sample_view_distributions(scheme_params, coalitions, trials, base_seed, derandomized)
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
