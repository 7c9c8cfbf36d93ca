"""Small shared linear-algebra helpers.

``require_memory`` is the memory guard every route calls before it allocates.
"""

import os

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import NumericalError


def to_dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=float)


def physical_memory_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes, limit, what):
    """NumericalError when an allocation estimate exceeds ``limit`` bytes."""
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


# Rows of AB - BA formed at a time: a row of a sparse product depends on
# that row of the left factor only, so the value is the same for any chunk,
# and the products of a 2^16-state chain stay at a few MB.
COMMUTATOR_ROWS = 4096


def commutator_maxabs(a, b):
    """Largest entry of |AB - BA| (sparse-aware), COMMUTATOR_ROWS rows at a
    time; an ``a`` of at most that many rows is not sliced."""
    if a.shape[0] <= COMMUTATOR_ROWS:
        return max_abs(a @ b - b @ a)
    return max((max_abs(a[i:i + COMMUTATOR_ROWS] @ b - b[i:i + COMMUTATOR_ROWS] @ a)
                for i in range(0, a.shape[0], COMMUTATOR_ROWS)), default=0.0)


def eigvalsh_full(m):
    """All eigenvalues of a symmetric matrix (dense path)."""
    return la.eigvalsh(to_dense(m))
