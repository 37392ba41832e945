"""Executable decodability and demand-privacy checks.

Privacy is tested as distribution equality: fix the demands of an
observing coalition, vary the demands of everyone else, and compare the
distributions of what the coalition sees across all placement/delivery
randomness.  Views are canonicalised before counting: slot indices are
relabelled by first occurrence within their (file, block, who-caches-it)
class, which quotients out exactly the within-block permutations that
are provably exchangeable, and nothing else.  Payload bits are dropped:
given the composition structure, the payloads are images of i.i.d.
uniform unknown subfiles under a structure-determined linear map, so
they carry no extra information about the demands.  Paranoid mode adds
a fingerprint of that linear map (which message payloads are explained
by cached bits, and which XOR combinations cancel) as a defence against
canonicalisation bugs.

One relabelling serves both modes: ``canonical_view`` runs it over all
broadcasts in emission order, ``canonical_view_blocks`` over each
transmitter's broadcasts on their own.  Each mode has one entry point,
which checks a list of coalitions off one shared set of protocol runs:
``check_privacy_exact_all`` enumerates the whole randomness space of a
small instance and compares exact view counts, ``check_privacy_mc_all``
samples a larger one and gates on ``debiased_total_variation``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import scheme_a, sim
from .core import FixedSource, SeededSource, Transcript, derive_seed

EXACT_ENUMERATION_CAP = 1_000_000
DEFAULT_TRIALS = 10_000
DEFAULT_TOLERANCE = 0.05


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
    fingerprint: tuple = ()

    def key(self):
        return (
            self.observer,
            self.own_demands,
            self.canonical_caches,
            self.canonical_broadcasts,
            self.fingerprint,
        )


def _observed_caches(transcript: Transcript, coalition):
    """What both view functions start from: the coalition (sorted,
    checked against 1..K), its demands, each slot's pattern (the members
    caching it) and the counts of cached slots per (file, block, pattern)
    class."""
    coalition = tuple(sorted(set(coalition)))
    K = transcript.params.K
    if not coalition or coalition[0] < 1 or coalition[-1] > K:
        raise ValueError(f"coalition must be a nonempty subset of 1..{K}")
    spb = transcript.layout.slots_per_block

    pattern: dict = {}  # sid -> tuple of coalition members caching it
    for u in coalition:
        for sid in transcript.caches[u - 1].slots:
            pattern[sid] = pattern.get(sid, ()) + (u,)

    cache_counts: dict = {}
    for sid, pat in pattern.items():
        cls = (sid[0], (sid[1] - 1) // spb + 1, pat)
        cache_counts[cls] = cache_counts.get(cls, 0) + 1
    own_demands = tuple(transcript.demands[u - 1] for u in coalition)
    return coalition, own_demands, pattern, tuple(sorted(cache_counts.items()))


def _relabelled(messages, pattern: dict, spb: int) -> tuple:
    """The one slot relabelling: ``(sender, position_set, refs)`` per
    message, where a slot's ref is its (file, block, pattern) class plus
    its first-occurrence ordinal within that class over ``messages``."""
    ordinals: dict = {}
    next_in_class: dict = {}
    rows = []
    for m in messages:
        refs = []
        for sid in m.composition:
            ref = ordinals.get(sid)
            if ref is None:
                cls = (sid[0], (sid[1] - 1) // spb + 1, pattern.get(sid, ()))
                nxt = next_in_class.get(cls, 0) + 1
                next_in_class[cls] = nxt
                ref = ordinals[sid] = (cls, nxt)
            refs.append(ref)
        rows.append((m.sender, m.position_set, tuple(refs)))
    return tuple(rows)


def _fingerprint(rows: tuple) -> tuple:
    """Each message's GF(2) row over the slots the coalition does not
    cache, reduced against the rows before it: zero rows are explained
    by the earlier messages and the caches."""
    cols: dict = {}
    pivots: dict[int, int] = {}
    reduced = []
    for _, _, refs in rows:
        mask = 0
        for ref in refs:
            if not ref[0][2]:  # uncached by the coalition
                mask ^= 1 << cols.setdefault(ref, len(cols))
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
        reduced.append(mask)
    return tuple(reduced)


def canonical_view(transcript: Transcript, coalition, paranoid: bool = False) -> ObserverView:
    """What a coalition observes, canonicalised for distribution counting.

    Inputs are exactly the coalition's knowledge: its caches (metadata),
    its demands, and every broadcast header in emission order.  Hidden
    quantities (position shuffles, placement permutations of others)
    never enter.
    """
    coalition, own_demands, pattern, canonical_caches = _observed_caches(
        transcript, coalition
    )
    rows = _relabelled(
        transcript.all_messages(), pattern, transcript.layout.slots_per_block
    )
    return ObserverView(
        observer=coalition,
        own_demands=own_demands,
        canonical_caches=canonical_caches,
        canonical_broadcasts=rows,
        fingerprint=_fingerprint(rows) if paranoid else (),
    )


def canonical_view_blocks(transcript: Transcript, coalition) -> tuple:
    """The canonical view split into per-transmitter marginal blocks.

    Block 0 holds the coalition's demands and cache structure; block k
    holds transmitter k's canonicalised messages with slot ordinals that
    restart per transmitter.  Each block is a function of a disjoint set
    of the scheme's randomness atoms, so the blocks are independent given
    the demands and the joint view distribution is the product of the
    block marginals; comparing marginals therefore loses nothing, and it
    is what the Monte Carlo total-variation estimate can resolve.
    """
    coalition, own_demands, pattern, cache_classes = _observed_caches(
        transcript, coalition
    )
    spb = transcript.layout.slots_per_block
    return ((coalition, own_demands, cache_classes),) + tuple(
        [_relabelled(per_user, pattern, spb) for per_user in transcript.broadcasts]
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def _all_demand_vectors(scheme_params):
    base = scheme_params.base
    return list(itertools.product(range(1, base.N + 1), repeat=base.K))


def enumerate_view_distributions(
    scheme: str,
    scheme_params,
    coalitions,
    cap: int = EXACT_ENUMERATION_CAP,
    derandomized: bool = False,
    paranoid: bool = False,
):
    """Exact view distribution per (coalition, demand vector).

    Every point of the randomness space (placement atoms x delivery
    atoms) is replayed for every demand vector; the returned counters
    all have identical totals, so distribution equality is plain counter
    equality.  Placements are built once per placement assignment and
    reused across demand vectors and coalitions.
    """
    sim.check_scheme(scheme, scheme_params)
    coalitions = [tuple(sorted(set(c))) for c in coalitions]
    demand_vectors = _all_demand_vectors(scheme_params)

    p_atoms = scheme_params.placement_atoms()
    p_labels = [lab for lab, _ in p_atoms]
    p_options = [opts for _, opts in p_atoms]
    d_atoms_by_d = {d: scheme_params.delivery_atoms(d, derandomized) for d in demand_vectors}
    p_total = math.prod(len(o) for o in p_options)
    for d, atoms in d_atoms_by_d.items():
        total = p_total * math.prod(len(o) for _, o in atoms)
        if total > cap:
            raise ExactModeTooLarge(total, cap)

    dists: dict = {c: {d: Counter() for d in demand_vectors} for c in coalitions}
    for p_combo in itertools.product(*p_options):
        placement = scheme_params.place(
            FixedSource(dict(zip(p_labels, p_combo))), structure_only=True
        )
        for d, atoms in d_atoms_by_d.items():
            labels = [lab for lab, _ in atoms]
            for combo in itertools.product(*(opts for _, opts in atoms)):
                tr = sim.run_protocol(
                    scheme,
                    scheme_params,
                    d,
                    source=FixedSource(dict(zip(labels, combo))),
                    derandomized=derandomized,
                    structure_only=True,
                    placement=placement,
                )
                for c in coalitions:
                    dists[c][d][canonical_view(tr, c, paranoid).key()] += 1
    return dists


def _grouped_by_fixing(distributions: dict, coalition):
    groups: dict = {}
    for d, counter in distributions.items():
        fixing = tuple(d[u - 1] for u in coalition)
        groups.setdefault(fixing, []).append((d, counter))
    return groups


@dataclass
class PrivacyReport:
    scheme: str
    coalition: tuple[int, ...]
    mode: str
    private: bool
    instance: str = ""
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
            f"instance={self.instance or self.scheme}",
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
        for d, counter in rest:
            if counter != ref:
                witness = (fixing, d0, d)
                break
        if witness:
            break
    return PrivacyReport(
        scheme=scheme_params.scheme,
        coalition=coalition,
        mode="exact",
        private=witness is None,
        instance=scheme_params.label(),
        witness=witness,
    )


def check_privacy_exact_all(
    scheme: str,
    scheme_params,
    coalitions,
    cap: int = EXACT_ENUMERATION_CAP,
    derandomized: bool = False,
    paranoid: bool = False,
) -> dict[tuple[int, ...], PrivacyReport]:
    """Exact demand privacy for each coalition, off one shared
    enumeration (see module docstring)."""
    dists = enumerate_view_distributions(
        scheme, scheme_params, coalitions, cap, derandomized, paranoid
    )
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


def sample_view_distributions(
    scheme: str,
    scheme_params,
    coalitions,
    trials: int,
    base_seed: int = 0,
    derandomized: bool = False,
):
    """trials independent seeded runs per demand vector, shared across
    coalitions (one protocol run yields every coalition's view blocks).

    Returns dists[coalition][demand vector] = list of per-block Counters.
    """
    sim.check_scheme(scheme, scheme_params)
    coalitions = [tuple(sorted(set(c))) for c in coalitions]
    demand_vectors = _all_demand_vectors(scheme_params)
    n_blocks = scheme_params.base.K + 1
    dists: dict = {
        c: {d: [Counter() for _ in range(n_blocks)] for d in demand_vectors} for c in coalitions
    }
    for d in demand_vectors:
        for trial in range(trials):
            seed = derive_seed(base_seed, f"mc|{d}|{trial}")
            tr = sim.run_protocol(
                scheme,
                scheme_params,
                d,
                source=SeededSource(seed),
                derandomized=derandomized,
                structure_only=True,
            )
            for c in coalitions:
                for counter, blk in zip(dists[c][d], canonical_view_blocks(tr, c)):
                    counter[blk] += 1
    return dists


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
        scheme=scheme_params.scheme,
        coalition=coalition,
        mode="mc",
        private=passed,
        instance=scheme_params.label(),
        max_tv=max_raw,
        max_tv_debiased=max_tv,
        trials=trials,
        tolerance=tolerance,
        low_confidence=trials < 100,
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
    dists = sample_view_distributions(
        scheme, scheme_params, coalitions, trials, base_seed, derandomized
    )
    return {
        c: _max_tv_report(scheme_params, c, by_d, trials, tolerance)
        for c, by_d in dists.items()
    }


# ---------------------------------------------------------------------------
# decodability
# ---------------------------------------------------------------------------


def check_decodability(transcript: Transcript) -> dict[int, bool]:
    """Run every user's decoder against the transcript, bit-exact."""
    if transcript.library is None:
        raise ValueError("decodability needs a full (not structure-only) transcript")
    messages = transcript.all_messages()
    results = {}
    for u in range(1, transcript.params.K + 1):
        want = transcript.library[transcript.demands[u - 1]]
        try:
            got = scheme_a.decode_from_messages(
                u,
                messages,
                transcript.caches[u - 1],
                transcript.demands[u - 1],
                transcript.layout,
            )
            results[u] = got == want
        except (scheme_a.DecodingFailure, ValueError):
            results[u] = False
    return results
