"""Two-phase protocol engine for the trusted-server model.

The trusted server never touches file bits: it holds placement metadata
and the delivery randomness, collects the demands, and sends each user a
query spelling out which XOR compositions to emit.  Each user then builds
its broadcast payloads strictly from its own cache plus that query; the
engine has no code path that lets a transmitter read the library, which
is the encoding constraint made structural.

A run's instance is its ``SchemeParams``; the scheme letter callers pass
is checked against it through ``core.scheme_class``, the one place a
letter is resolved, and the transcript keeps the params as its only
record of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    CacheState,
    MulticastMessage,
    Rat,
    SeededSource,
    SubfileId,
    Transcript,
    demand_vector,
    scheme_class,
)


def check_scheme(scheme: str, scheme_params) -> None:
    """Raise ValueError unless the letter ``scheme`` names the scheme of
    ``scheme_params``."""
    if scheme_class(scheme.upper()) is not type(scheme_params):
        raise ValueError(f"unknown scheme {scheme!r} for {type(scheme_params).__name__}")


@dataclass
class Query:
    """Server -> user plan: the compositions user k must broadcast."""

    recipient: int
    plan: list[tuple[Optional[tuple[int, ...]], tuple[SubfileId, ...]]]


def user_broadcast(cache: CacheState, query: Query, subfile_bits: int) -> list[MulticastMessage]:
    """Execute a query against a cache.

    Raises KeyError if the plan names a subfile the user does not hold:
    a correct server never does, and the transmitter could not comply.
    """
    out = []
    for pos, comp in query.plan:
        payload = None
        if cache.content is not None:
            payload = 0
            for sid in comp:
                payload ^= cache.content[sid]
        out.append(MulticastMessage(cache.owner, comp, payload, subfile_bits, pos))
    return out


def run_protocol(
    scheme: str,
    scheme_params,
    demands,
    source=None,
    placement=None,
) -> Transcript:
    """One full placement + delivery run; returns the transcript.

    ``source`` defaults to the seeded stream family of the instance; a
    FixedSource replays an explicit assignment and a RecordingSource
    gives every draw its first outcome (the non-private baseline).  A
    pre-built ``placement`` may be passed to amortise it across demand
    vectors; one built with ``structure_only`` gives a run with no bit
    material (metadata only, enough for privacy views).
    """
    check_scheme(scheme, scheme_params)
    base = scheme_params.base
    d = demand_vector(demands, base)
    if source is None:
        source = SeededSource(base.seed)
    if placement is None:
        placement = scheme_params.place(source)
    plans = scheme_params.query_plans(placement, d, source)
    queries = [Query(k, plan) for k, plan in enumerate(plans, 1)]

    subfile_bits = scheme_params.layout.subfile_bits
    broadcasts = [
        user_broadcast(placement.caches[q.recipient - 1], q, subfile_bits)
        for q in queries
    ]
    payload_bits = sum(m.nbits for per in broadcasts for m in per)
    return Transcript(
        scheme_params=scheme_params,
        library=placement.library,
        caches=placement.caches,
        demands=d,
        broadcasts=broadcasts,
        payload_bits=payload_bits,
        queries=queries,
    )


def measure_load(transcript: Transcript) -> Rat:
    """Total payload bits over file size, exact; metadata never counts."""
    return Fraction(transcript.payload_bits, transcript.scheme_params.base.B)


def theoretical_load(transcript: Transcript) -> Rat:
    """The closed-form load of the transcript's scheme at its parameters."""
    sp = transcript.scheme_params
    return sp.corner(sp.base.K, sp.base.N, sp.param)[1]
