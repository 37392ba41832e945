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

# The one place a scheme letter is resolved; everything else goes through
# the params object's methods.
SCHEMES = {"A": scheme_a.SchemeAParams, "B": scheme_b.SchemeBParams}


def check_scheme(scheme: str, scheme_params) -> None:
    """Raise ValueError unless the letter ``scheme`` names the scheme of
    ``scheme_params``."""
    if SCHEMES.get(scheme.upper()) is not type(scheme_params):
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
    check_scheme(scheme, scheme_params)
    base = scheme_params.base
    d = demand_vector(demands, base)
    if source is None:
        source = SeededSource(base.seed)
    if placement is None:
        placement = scheme_params.place(source, structure_only)
    plans = scheme_params.query_plans(placement, d, source, derandomized)
    queries = [Query(k, plan) for k, plan in enumerate(plans, 1)]

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
        scheme=scheme_params.scheme,
        scheme_param=scheme_params.param,
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
    """The closed-form load of the transcript's scheme at its parameters."""
    scheme = SCHEMES.get(transcript.scheme)
    if scheme is None:
        raise ValueError(f"unknown scheme {transcript.scheme!r}")
    base = transcript.params
    return scheme.corner_load(base.K, base.N, transcript.scheme_param)
