"""Two-phase protocol engine for the trusted-server model.

The trusted server never touches file bits: it holds placement metadata
and the delivery randomness, collects the demands, and sends each user a
query spelling out which XOR compositions to emit.  Each user then builds
its broadcast payloads strictly from its own cache plus that query; the
engine has no code path that lets a transmitter read the library, which
is the encoding constraint made structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import scheme_a, scheme_b
from .core import (
    CacheState,
    MulticastMessage,
    Rat,
    SeededSource,
    SubfileId,
    Transcript,
    demand_vector,
    message_header_text,
)


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
    derandomized: bool = False,
    structure_only: bool = False,
    placement=None,
) -> Transcript:
    """One full placement + delivery run; returns the transcript.

    ``source`` defaults to the seeded stream family of the instance; the
    privacy checker passes a FixedSource to replay an explicit randomness
    assignment.  ``structure_only`` skips all bit material (metadata-level
    run, enough for privacy views).  A pre-built ``placement`` may be
    passed to amortise it across demand vectors.
    """
    scheme = scheme.upper()
    base = scheme_params.base
    d = demand_vector(demands, base)
    if source is None:
        source = SeededSource(base.seed)

    if scheme == "A":
        if placement is None:
            placement = scheme_a.place_a(scheme_params, source, structure_only)
        plan = scheme_a.plan_delivery_a(scheme_params, d, source, derandomized)
        queries = [
            Query(k, scheme_a.plan_messages_a(k, placement, plan))
            for k in range(1, base.K + 1)
        ]
        param = scheme_params.t
    elif scheme == "B":
        if placement is None:
            placement = scheme_b.place_b(scheme_params, source, structure_only)
        queries = [
            Query(k, scheme_b.plan_messages_b(k, placement, d)) for k in (1, 2)
        ]
        param = scheme_params.tprime
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    layout = placement.layout
    broadcasts = [
        user_broadcast(placement.caches[q.recipient - 1], q, layout.subfile_bits)
        for q in queries
    ]
    payload_bits = sum(m.nbits for per in broadcasts for m in per)
    metadata_bytes = 0
    if not structure_only:
        metadata_bytes = sum(
            len(message_header_text(m).encode()) for per in broadcasts for m in per
        )
    return Transcript(
        params=base,
        scheme=scheme,
        scheme_param=param,
        memory_point=scheme_params.memory_point(),
        library=placement.library,
        caches=placement.caches,
        demands=d,
        broadcasts=broadcasts,
        layout=layout,
        payload_bits=payload_bits,
        metadata_bytes=metadata_bytes,
        queries=queries,
    )


def measure_load(transcript: Transcript) -> Rat:
    """Total payload bits over file size, exact; metadata never counts."""
    return Fraction(transcript.payload_bits, transcript.params.B)


def theoretical_load(transcript: Transcript) -> Rat:
    base = transcript.params
    if transcript.scheme == "A":
        return scheme_a.load_a_point(base.K, base.N, transcript.scheme_param)[1]
    if transcript.scheme_param is None:
        return Fraction(0)
    return scheme_b.load_b_point(base.N, transcript.scheme_param)[1]
