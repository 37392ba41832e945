"""Bit-exact toolkit for device-to-device private coded caching with a
trusted server: scheme engines, a protocol simulator, exact converse and
achievability curves, and executable decodability/privacy checks."""

from .core import (  # noqa: F401
    CacheState,
    MulticastMessage,
    Rat,
    SlotLayout,
    SubfileId,
    SystemParams,
    Transcript,
    random_library,
    seeded_rng,
    transcript_from_text,
    transcript_to_text,
)
from .combinat import (  # noqa: F401
    TradeoffCurve,
    binom,
    lex_subsets,
    lower_convex_envelope,
)
from .scheme_a import SchemeAParams, load_a_point, load_a_upper, scheme_a_curve  # noqa: F401
from .scheme_b import SchemeBParams, load_b_point, scheme_b_curve  # noqa: F401
from .bounds import (  # noqa: F401
    converse_k_user,
    converse_k_user_curve,
    converse_two_user,
    converse_two_user_corners,
    converse_two_user_curve,
    gap,
    scheme_a_within_three_of_shared_link,
    load_c_points,
    named_curve,
    scheme_c_curve,
    shared_link_nonprivate_envelope,
)
from .sim import measure_load, run_protocol, theoretical_load  # noqa: F401
from .verify import (  # noqa: F401
    canonical_view,
    check_decodability,
    check_privacy_exact_all,
    check_privacy_mc_all,
)

__all__ = [name for name in dir() if not name.startswith("_")]
