"""Small shared linear-algebra helpers.

``require_memory`` is the memory guard every route calls before it allocates.
``RESIDUAL_TOL`` is the one relative residual bound every certified
eigenpair or invariant subspace meets: ||A v - theta v|| (or ||H V - V A||)
at most RESIDUAL_TOL times a scale of A (each route names its own) times
||v||.
"""

import os

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError

RESIDUAL_TOL = 1e-9


def physical_memory_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes, what):
    """NumericalError when an allocation estimate exceeds physical memory."""
    limit = physical_memory_bytes()
    if nbytes > limit:
        raise NumericalError(
            f"{what} needs an estimated {nbytes / 2 ** 20:.0f} MB, more than "
            f"the {limit / 2 ** 20:.0f} MB of physical memory"
        )


def max_abs(m):
    if sp.issparse(m):
        return 0.0 if m.nnz == 0 else float(np.max(np.abs(m.data)))
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0
