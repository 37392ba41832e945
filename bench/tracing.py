"""Span tracing of d2dpc from outside the library.

``Tracer.install`` replaces each traced function at every module
attribute that holds it, which is the name its callers look it up by:
``scheme_a`` calls ``gf2.solve_xor_system`` through the module, while
``bounds`` holds ``upper_envelope_of_lines`` under its own name.
``Tracer.remove`` puts every original back.  A wrapper records a span
(name, job id, parent span, start, end) only while ``Tracer.job`` is set,
so the benchmark's own checks are never traced.  Counters are updated by
hooks that run after the span closes; a hook's time is recorded as a
child span of the caller, so it is kept out of the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

HOOK = "trace.hook"


def _count_text(tracer, result, arguments):
    tracer.counts["core.transcript_bytes"] += len(result.encode())


def _count_planned(tracer, result, arguments):
    tracer.counts["scheme_a.messages_planned"] += len(result)


def _count_run(tracer, result, arguments):
    tracer.counts["sim.payload_bits"] += result.payload_bits


def _count_broadcast(tracer, result, arguments):
    tracer.counts["sim.messages"] += len(result)


def _count_solve(tracer, result, arguments):
    equations = arguments()["equations"]
    tracer.counts["gf2.equations"] += len(equations)
    tracer.counts["gf2.unknowns"] += len(set().union(*(v for v, _ in equations)))
    tracer.counts["gf2.solved"] += len(result)


def _count_demanded(tracer, result, arguments):
    a = arguments()
    known, demand = a["cache"].content, a["demand"]
    tracer.counts["gf2.demanded_uncached"] += sum(
        1 for s in range(1, a["layout"].slots_per_file + 1) if (demand, s) not in known
    )


def _count_view(tracer, result, arguments):
    tracer.view_keys.setdefault(tracer.job, set()).add(result.key())


def _count_envelope(tracer, result, arguments):
    a = arguments()
    lines, lo, hi = a["lines"], a["lo"], a["hi"]
    candidates = {lo, hi}
    for i, p in enumerate(lines):
        for q in lines[i + 1:]:
            if p.slope != q.slope:
                x = (q.intercept - p.intercept) / (p.slope - q.slope)
                if lo < x < hi:
                    candidates.add(x)
    tracer.counts["combinat.envelope_lines_in"] += len(lines)
    tracer.counts["combinat.envelope_candidates"] += len(candidates)
    tracer.counts["combinat.envelope_corners"] += len(result.corners)


def _count_gap(tracer, result, arguments):
    a = arguments()
    achievable, converse, grid = a["achievable"], a["converse"], a.get("grid")
    if grid is None:
        grid = tracer.lib.bounds.default_gap_grid(achievable, converse)
    corners = set(achievable.corner_ms()) | set(converse.corner_ms())
    tracer.counts["bounds.gap.grid_points"] += result.grid_size
    tracer.counts["bounds.gap.corner_points"] += sum(1 for m in grid if m in corners)


# (module, function, counting hook or None); the span is "module.function"
TRACED = (
    ("core", "random_library", None),
    ("core", "seeded_rng", None),
    ("core", "subfile_value", None),
    ("core", "assemble_file", None),
    ("core", "transcript_to_text", _count_text),
    ("core", "transcript_from_text", None),
    ("scheme_a", "place_a", None),
    ("scheme_a", "plan_delivery_a", None),
    ("scheme_a", "plan_messages_a", _count_planned),
    ("scheme_a", "decode_from_messages", _count_demanded),
    ("scheme_b", "place_b", None),
    ("scheme_b", "plan_messages_b", None),
    ("sim", "run_protocol", _count_run),
    ("sim", "user_broadcast", _count_broadcast),
    ("sim", "measure_load", None),
    ("gf2", "solve_xor_system", _count_solve),
    ("verify", "check_decodability", None),
    ("verify", "check_privacy_exact_all", None),
    ("verify", "check_privacy_mc_all", None),
    ("verify", "canonical_view", _count_view),
    ("verify", "canonical_view_blocks", None),
    ("verify", "debiased_total_variation", None),
    ("combinat", "upper_envelope_of_lines", _count_envelope),
    ("combinat", "lower_convex_envelope", None),
    ("combinat", "curve_max", None),
    ("bounds", "named_curve", None),
    ("bounds", "gap", _count_gap),
    ("cli", "main", None),
)

# name -> (unit, better); the per-layer metrics a traced run reports.
LAYER_METRICS = {
    "core.random_library.s": ("s", "lower"),
    "core.seeded_rng.calls": ("count", "lower"),
    "core.seeded_rng.s": ("s", "lower"),
    "core.subfile_value.s": ("s", "lower"),
    "core.assemble_file.s": ("s", "lower"),
    "core.transcript_to_text.s": ("s", "lower"),
    "core.transcript_from_text.s": ("s", "lower"),
    "core.transcript_bytes": ("bytes", "lower"),
    "scheme_a.place_a.s": ("s", "lower"),
    "scheme_a.place_a.calls": ("count", "lower"),
    "scheme_a.plan_delivery_a.s": ("s", "lower"),
    "scheme_a.plan_messages_a.s": ("s", "lower"),
    "scheme_a.messages_planned": ("count", "lower"),
    "scheme_a.decode_from_messages.self_s": ("s", "lower"),
    "scheme_b.place_b.s": ("s", "lower"),
    "scheme_b.place_b.calls": ("count", "lower"),
    "scheme_b.plan_messages_b.s": ("s", "lower"),
    "sim.run_protocol.self_s": ("s", "lower"),
    "sim.run_protocol.calls": ("count", "lower"),
    "sim.user_broadcast.s": ("s", "lower"),
    "sim.messages": ("count", "lower"),
    "sim.payload_bits": ("bits", "lower"),
    "gf2.solve_xor_system.s": ("s", "lower"),
    "gf2.solve_xor_system.calls": ("count", "lower"),
    "gf2.equations": ("count", "lower"),
    "gf2.unknowns": ("count", "lower"),
    "gf2.solved": ("count", "lower"),
    "gf2.useful_ratio": ("ratio", "higher"),
    "verify.check_decodability.self_s": ("s", "lower"),
    "verify.canonical_view.s": ("s", "lower"),
    "verify.canonical_view.calls": ("count", "lower"),
    "verify.canonical_view_blocks.s": ("s", "lower"),
    "verify.canonical_view_blocks.calls": ("count", "lower"),
    "verify.protocol_runs": ("count", "lower"),
    "verify.distinct_view_ratio": ("ratio", "higher"),
    "verify.debiased_total_variation.s": ("s", "lower"),
    "combinat.upper_envelope_of_lines.s": ("s", "lower"),
    "combinat.upper_envelope_of_lines.calls": ("count", "lower"),
    "combinat.envelope_lines_in": ("count", "lower"),
    "combinat.envelope_corner_yield": ("ratio", "higher"),
    "combinat.lower_convex_envelope.s": ("s", "lower"),
    "combinat.curve_max.s": ("s", "lower"),
    "bounds.named_curve.self_s": ("s", "lower"),
    "bounds.gap.s": ("s", "lower"),
    "bounds.gap.grid_points": ("count", "lower"),
    "bounds.gap.corner_share": ("ratio", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.job = None  # id of the job being traced; None records nothing
        self.spans: list = []  # (name, job, parent index or -1, start, end)
        self.stack: list[int] = []  # indices of the open spans
        self.counts: Counter = Counter()
        self.view_keys: dict = {}  # job -> distinct canonical view keys
        self._patched: list = []  # (module, attribute, original)

    def install(self) -> None:
        modules = list(vars(self.lib).values())
        for module_name, attr, hook in TRACED:
            original = getattr(getattr(self.lib, module_name), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.view_keys.clear()

    def _wrap(self, name, fn, hook):
        tracer, spans, stack = self, self.spans, self.stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, job, parent, start, end)
            if hook is not None:
                hook_index = len(spans)
                spans.append(None)
                tracer.job = None
                try:
                    hook(tracer, result, lambda: signature.bind(*args, **kwargs).arguments)
                finally:
                    tracer.job = job
                    spans[hook_index] = (HOOK, job, parent, end, perf_counter())
            return result

        return traced

    def batch_metrics(self) -> tuple[dict, dict]:
        """(span times, counts) of the spans recorded since the last reset.

        Times are inclusive (``.s``) and self (``.self_s``) seconds per
        span name; counts are exact and must repeat for the same inputs.
        """
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own, calls = Counter(), Counter(), Counter()
        protocol_runs = 0
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if name == "sim.run_protocol":
                while parent >= 0 and not self.spans[parent][0].startswith("verify."):
                    parent = self.spans[parent][2]
                protocol_runs += parent >= 0
        times = {f"{n}.s": v for n, v in inclusive.items() if n != HOOK}
        times.update({f"{n}.self_s": v for n, v in own.items() if n != HOOK})
        counts = {f"{n}.calls": c for n, c in calls.items() if n != HOOK}
        counts.update(self.counts)
        counts["verify.protocol_runs"] = protocol_runs
        counts["verify.distinct_views"] = sum(len(keys) for keys in self.view_keys.values())
        counts["trace.spans"] = len(self.spans) - calls[HOOK]
        return times, counts

    def kind_shares(self, kinds: dict, job_seconds: dict) -> dict:
        """kind -> span name -> share of that kind's job time (inclusive)."""
        spent: dict = {}
        for name, job, _, start, end in self.spans:
            if name != HOOK:
                per = spent.setdefault(kinds[job], Counter())
                per[name] += end - start
        totals = Counter()
        for job, seconds in job_seconds.items():
            totals[kinds[job]] += seconds
        return {k: {n: v / totals[k] for n, v in per.items()} for k, per in spent.items()}

    def write_spans(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((s[3] for s in self.spans), default=0.0)
        rows = [
            [index[n], job, parent, round((a - origin) * 1e9), round((b - origin) * 1e9)]
            for n, job, parent, a, b in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({**meta, "names": names, "fields": ["name", "job", "parent", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(times: list[dict], counts: dict, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of a traced run.

    Each time is the smallest over the traced batches, unscaled; counts
    come from one batch (they repeat exactly); the overhead compares the
    scaled batch times (as in ``wall_s``) of the traced and untraced
    batches of the same run.
    """

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "gf2.useful_ratio": ratio(counts.get("gf2.demanded_uncached", 0), counts.get("gf2.solved", 0)),
        "verify.distinct_view_ratio": ratio(counts["verify.distinct_views"],
                                            counts.get("verify.canonical_view.calls", 0)),
        "combinat.envelope_corner_yield": ratio(counts.get("combinat.envelope_corners", 0),
                                                counts.get("combinat.envelope_candidates", 0)),
        "bounds.gap.corner_share": ratio(counts.get("bounds.gap.corner_points", 0),
                                         counts.get("bounds.gap.grid_points", 0)),
        "trace.job_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in derived:
            value = derived[name]
        elif name.endswith(".s") or name.endswith(".self_s"):
            value = min(t.get(name, 0.0) for t in times)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
