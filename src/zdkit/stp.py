"""The column-wise Kronecker (Khatri-Rao) product of the players' rules.

For A (m x n) and B (p x n), column j of khatri_rao(A, B) is
kron(A[:, j], B[:, j]); the product of all players' rules in player order is
the profile transition matrix.  The semi-tensor product algebra it comes
from (STP, canonical vectors, structure matrices, logical and stochastic
predicates) lives in tests/oracles.py as the reference the tests check
against.
"""

from __future__ import annotations

import numpy as np


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product; build_pee checks the shapes first."""
    # einsum builds all column Kroneckers at once: out[i*t+k, j] = a[i,j]*b[k,j]
    s, t, n = a.shape[0], b.shape[0], a.shape[1]
    return np.einsum("ij,kj->ikj", a, b).reshape(s * t, n)
