"""Two-phase protocol engine for the trusted-server model.

The trusted server never touches file bits: it holds placement metadata
and the delivery randomness, collects the demands, and sends each user a
query, the (position set, composition) pairs it must emit.  Each user
then builds its broadcast payloads strictly from its own cache plus that
query; the engine has no code path that lets a transmitter read the
library, which is the encoding constraint made structural.

A run's instance is its ``SchemeParams``; the scheme letter callers pass
is checked against it through ``core.scheme_class``, the one place a
letter is resolved, and the transcript keeps the params as its only
record of the instance.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    CacheState,
    MulticastMessage,
    Rat,
    SeededSource,
    Transcript,
    demand_vector,
    other_demands,
    scheme_class,
)


def check_scheme(scheme: str, scheme_params) -> None:
    """Raise ValueError unless the letter ``scheme`` names the scheme of
    ``scheme_params``."""
    if scheme_class(scheme.upper()) is not type(scheme_params):
        raise ValueError(f"unknown scheme {scheme!r} for {type(scheme_params).__name__}")


def user_broadcast(cache: CacheState, query) -> list[MulticastMessage]:
    """Execute the server's query, its list of (position set, composition)
    pairs, against a cache: each message XORs the composition's cached
    subfiles.

    Raises KeyError if the query names a subfile the user does not hold:
    a correct server never does, and the transmitter could not comply.
    """
    content = cache.content
    out = []
    for pos, comp in query:
        payload = 0
        for sid in comp:
            payload ^= content[sid]
        out.append(MulticastMessage(cache.owner, comp, payload, pos))
    return out


def run_protocol(
    scheme: str,
    scheme_params,
    demands,
    source=None,
    placement=None,
) -> Transcript:
    """One full placement + delivery run; returns the transcript.

    ``source`` answers each draw with its ``draw(label, kind, outcomes)``
    and defaults to the seeded stream family of the instance; a
    FixedSource replays an explicit assignment and a RecordingSource
    records every draw and gives it its first outcome (the non-private
    baseline).  A pre-built ``placement`` of this instance may be passed
    to amortise it across demand vectors; one built for other params
    raises ValueError.  The server sends user k the query
    ``scheme_params.query(placement, k, others, source)``, which reads
    only the demands ``others`` of the users other than k; each user
    answers its own from its cache alone.
    """
    check_scheme(scheme, scheme_params)
    base = scheme_params.base
    d = demand_vector(demands, base)
    if source is None:
        source = SeededSource(base.seed)
    if placement is None:
        placement = scheme_params.place(source)
    elif placement.params != scheme_params:
        raise ValueError(f"placement built for {placement.params}, not {scheme_params}")
    broadcasts = [user_broadcast(cache, scheme_params.query(placement, k, other_demands(d, k), source))
                  for k, cache in enumerate(placement.caches, 1)]
    return Transcript(scheme_params, placement.library, placement.caches, d, broadcasts)


def measure_load(transcript: Transcript) -> Rat:
    """Total payload bits over file size, exact; metadata never counts."""
    return Fraction(transcript.payload_bits, transcript.scheme_params.base.B)


def theoretical_load(transcript: Transcript) -> Rat:
    """The closed-form load of the transcript's scheme at its parameters."""
    sp = transcript.scheme_params
    return sp.corner(sp.base.K, sp.base.N, sp.param)[1]
