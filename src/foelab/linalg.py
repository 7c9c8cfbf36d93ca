"""Small shared linear-algebra helpers.

Kernel extraction is by SVD with a relative singular-value threshold.
``require_memory`` is the memory guard every route calls before it allocates.
"""

import os

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import NumericalError

KERNEL_REL_TOL = 1e-8


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


def max_asymmetry(m):
    """Largest entry of |M - M^T|."""
    return max_abs(m - m.T)


def commutator_maxabs(a, b):
    """Largest entry of |AB - BA| (sparse-aware)."""
    return max_abs(a @ b - b @ a)


def eigvalsh_full(m):
    """All eigenvalues of a symmetric matrix (dense path)."""
    return la.eigvalsh(to_dense(m))


def kernel_basis(block):
    """Orthonormal basis (columns) of the kernel of a rectangular matrix.

    Singular values below KERNEL_REL_TOL times the largest count as zero.  An empty
    row space (0 rows) makes the whole column space the kernel.
    """
    block = to_dense(block)
    rows, cols = block.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or max_abs(block) == 0.0:
        return np.eye(cols)
    _, svals, vt = la.svd(block, full_matrices=True)
    cutoff = KERNEL_REL_TOL * svals[0]
    rank = int(np.sum(svals > cutoff))
    return vt[rank:].T.copy()

