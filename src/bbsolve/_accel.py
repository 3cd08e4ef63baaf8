"""Numba acceleration toggle.

:func:`maybe_njit` compiles a loop kernel with numba when numba imports and
leaves the same Python function in place otherwise; there is no second
implementation. The decorated kernels are the Fock pattern enumeration
(``fock._fill_patterns``) and the SA/HC search loops, which are compiled on
a handle's cost table and run as their Python source (``py_func``) above
the table limit; the sequential sampler is numpy calls over a subset table
and is never compiled. No other module reads :data:`NUMBA_ENABLED`. Setting
``BBS_NO_NUMBA=1`` turns compilation off. The flag is read once at import
time.
"""

import os

try:
    import numba as _numba
except ImportError:  # numba is optional: pip install -e ".[numba]"
    _numba = None

_flag = os.environ.get("BBS_NO_NUMBA", "0").strip().lower()
NUMBA_ENABLED = _numba is not None and _flag in ("", "0", "false", "no")


def maybe_njit(func):
    """``numba.njit(cache=True)(func)`` when acceleration is on, else ``func``."""
    return _numba.njit(cache=True)(func) if NUMBA_ENABLED else func
