"""The column-wise Kronecker (Khatri-Rao) product of the players' rules.

For A (m x n) and B (p x n), column j of khatri_rao(A, B) is
kron(A[:, j], B[:, j]); the product of all players' rules in player order is
the profile transition matrix.  The semi-tensor product algebra it comes
from (STP, canonical vectors, structure matrices, logical and stochastic
predicates) lives in tests/oracles.py as the reference the tests check
against.  DEFAULT_TOL is the shared tolerance for column sums.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

DEFAULT_TOL = 1e-9


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product; requires equal column counts."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    # einsum builds all column Kroneckers at once: out[i*t+k, j] = a[i,j]*b[k,j]
    s, t, n = a.shape[0], b.shape[0], a.shape[1]
    return np.einsum("ij,kj->ikj", a, b).reshape(s * t, n)
