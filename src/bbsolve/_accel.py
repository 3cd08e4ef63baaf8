"""Optional numba acceleration.

:func:`maybe_njit` compiles a loop kernel with numba when numba imports and
leaves the same Python function in place otherwise; there is no second
implementation. The decorated kernels are the Fock pattern enumeration
(``fock._fill_patterns``) and the SA/HC search loops, which are compiled on
a handle's cost table and run as their Python source (``py_func``) above
the table limit; the sequential sampler is numpy calls over a subset table
and is never compiled. No other module reads :data:`NUMBA_ENABLED`, which
is true exactly when numba imports.
"""

try:
    import numba as _numba
except ImportError:  # numba is optional: pip install -e ".[numba]"
    _numba = None

NUMBA_ENABLED = _numba is not None


def maybe_njit(func):
    """``numba.njit(cache=True)(func)`` when acceleration is on, else ``func``."""
    return _numba.njit(cache=True)(func) if NUMBA_ENABLED else func
