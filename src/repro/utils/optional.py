"""Optional dependencies, imported on first use.

numpy is an optional accelerator: only the position kernel (``n >= 4096``),
float exact solves and the vector engine's row-wise checks use it, so
``import repro`` never loads it.  Each of those code paths asks
:func:`numpy_module` at the point of use.
"""

from __future__ import annotations

from functools import cache


@cache
def numpy_module():
    """The numpy module, imported on the first call; None where it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised only on numpy-free installs
        return None
    return numpy
