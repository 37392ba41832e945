"""Bit-exact toolkit for device-to-device private coded caching with a
trusted server: scheme engines, a protocol simulator, exact converse and
achievability curves, and executable decodability/privacy checks.

The API is the submodules (``d2dpc.core``, ``d2dpc.bounds``, ...); this
package re-exports nothing.  Importing it imports every scheme, so that
``core.scheme_class`` finds each ``SchemeParams`` subclass.
"""

from . import scheme_a, scheme_b  # noqa: F401
