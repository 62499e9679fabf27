"""Reference algebra the tests check the pipeline against.

None of this runs in the pipeline.  It holds the semi-tensor product (STP)
algebra that the Khatri-Rao construction comes from, canonical vectors and
structure matrices, logical and stochastic predicates, the closed-form
profile index sets, expected-payoff evaluation, and the float references for
the stationary vector (power iteration, the adjugate of L - I), for the
Khatri-Rao product of the rules (column by column with np.kron) and for the
row-sum identity.  The other float references (is_primitive, rank_defect,
nullspace_stationary, power_limit) stay in zdkit.markov.
"""

from functools import reduce
from math import lcm

import numpy as np

from zdkit.errors import AnalysisError, DimensionError, DomainError, ZDKitError
from zdkit.games import GameSpec, ProfileIndexer
from zdkit.markov import DEFAULT_TOL, _matrix_of, build_pee


class CapacityError(ZDKitError, RuntimeError):
    """A computation exceeds a configured size cap."""


class ConsistencyError(ZDKitError, RuntimeError):
    """An internal identity failed, indicating a profile-ordering bug."""


# ---------------------------------------------------------------------------
# semi-tensor product algebra


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def delta(k: int, i: int) -> np.ndarray:
    """Canonical basis column: the i-th column (1-based) of I_k."""
    if not 1 <= i <= k:
        raise DomainError(f"canonical index {i} out of range 1..{k}")
    v = np.zeros((k, 1))
    v[i - 1, 0] = 1.0
    return v


def logical_matrix(k: int, indices) -> np.ndarray:
    """Matrix whose j-th column is delta(k, indices[j])."""
    cols = [delta(k, i) for i in indices]
    return np.hstack(cols)


def stp(a, b) -> np.ndarray:
    """Semi-tensor product of two matrices (total on all shapes).

    For A (m x n) and B (p x q), with t = lcm(n, p),
    A |x| B = (A kron I_{t/n}) (B kron I_{t/p}), which is A @ B when n == p.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    n, p = a.shape[1], b.shape[0]
    t = lcm(n, p)
    if t == n == p:
        return a @ b
    left = np.kron(a, np.eye(t // n))
    right = np.kron(b, np.eye(t // p))
    return left @ right


def structure_matrix(images, codomain_size: int) -> np.ndarray:
    """Logical matrix of the map j -> images[j-1] from 1..m into 1..n.

    Column j of the result is delta(n, f(j)), so f(x) = M_f x in vector form.
    """
    images = list(images)
    if not images:
        raise DomainError("structure matrix of an empty map")
    for j, v in enumerate(images, start=1):
        if not 1 <= v <= codomain_size:
            raise DomainError(f"image f({j}) = {v} outside 1..{codomain_size}")
    return logical_matrix(codomain_size, images)


def is_column_stochastic(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff all entries >= -tol and every column sums to 1 within tol."""
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    a = _as_matrix(a)
    if np.any(a < -tol):
        return False
    return bool(np.all(np.abs(a.sum(axis=0) - 1.0) <= tol))


def is_logical(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff every column is some canonical basis vector."""
    a = _as_matrix(a)
    near_one = np.abs(a - 1.0) <= tol
    near_zero = np.abs(a) <= tol
    if not np.all(near_one | near_zero):
        return False
    return bool(np.all(near_one.sum(axis=0) == 1))


# ---------------------------------------------------------------------------
# profile indexing and payoffs


def kappa_params(k) -> ProfileIndexer:
    return ProfileIndexer(tuple(k))


def phi_arithmetic(ix: ProfileIndexer, i: int, j: int) -> tuple:
    """The profile set phi(i, j) by closed-form index arithmetic."""
    ix._check_pair(i, j)
    up = ix.kappa_upper[i]
    block = ix.k[i - 1] * up
    out = []
    for alpha in range(1, ix.kappa_lower[i - 1] + 1):
        base = (alpha - 1) * block + (j - 1) * up
        out.extend(base + beta for beta in range(1, up + 1))
    return tuple(sorted(out))


def payoff_eval(game: GameSpec, i: int, x, tol: float = DEFAULT_TOL) -> float:
    """Expected payoff V_i . x of player i under profile distribution x."""
    v = game.payoffs[i - 1]
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != game.kappa:
        raise DimensionError(
            f"distribution length {x.shape[0]} != kappa {game.kappa}"
        )
    if np.any(x < -tol) or abs(x.sum() - 1.0) > max(tol, 1e-6):
        raise DomainError("x is not a profile distribution")
    return float(v @ x)


# ---------------------------------------------------------------------------
# chain references


def power_iteration_stationary(L, tol: float = 1e-14, max_iter: int = 200000):
    """Fixed vector via repeated application of L (independent oracle)."""
    m = _matrix_of(L)
    x = np.full(m.shape[0], 1.0 / m.shape[0])
    for it in range(max_iter):
        y = m @ x
        y /= y.sum()
        if np.max(np.abs(y - x)) < tol:
            return y, it + 1
        x = y
    raise AnalysisError(f"power iteration did not converge in {max_iter} steps")


def kron_columns(rules) -> np.ndarray:
    """The transition matrix of rules in player order, built column by
    column: column c is kron(R_1[:, c], ..., R_n[:, c]).  Independent of
    zdkit.stp; it multiplies in the same left-to-right order."""
    rules = [np.asarray(r, dtype=float) for r in rules]
    return np.column_stack([reduce(np.kron, [r[:, c] for r in rules])
                            for c in range(rules[0].shape[1])])


def adjugate(M, cap: int = 64) -> np.ndarray:
    """Adjugate (transpose of the cofactor matrix) of a small dense matrix."""
    m = np.asarray(M, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"adjugate needs a square matrix, got {m.shape}")
    n = m.shape[0]
    if n > cap:
        raise CapacityError(
            f"adjugate cap is {cap} (got {n}); use rank_defect / "
            f"nullspace_stationary for large chains"
        )
    if n == 1:
        return np.array([[1.0]])
    cof = np.empty((n, n))
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = m[np.ix_(rows != i, rows != j)]
            cof[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return cof.T


def xi_sum_identity(rules, i: int, j: int, tol: float = 1e-9) -> np.ndarray:
    """Sum of rows of L - I over the profiles where player i plays j.

    Asserts the row-sum identity: the result equals row j of player i's rule
    minus the 0/1 indicator of those profiles.  A violation means the profile
    ordering is inconsistent somewhere upstream.
    """
    rules = list(rules)
    indexer = ProfileIndexer(tuple(r.shape[0] for r in rules))
    if not 1 <= i <= len(rules):
        raise DomainError(f"player {i} outside 1..{len(rules)}")
    L = build_pee(rules)
    M = L - np.eye(indexer.kappa)
    members = [s - 1 for s in indexer.phi(i, j)]
    xi_sum = M[members].sum(axis=0)
    expected = rules[i - 1][j - 1] - indexer.xi(i, j)
    err = float(np.max(np.abs(xi_sum - expected)))
    if err > tol:
        raise ConsistencyError(
            f"row-sum identity violated for player {i}, strategy {j} "
            f"(max error {err:.3e}); check the profile ordering"
        )
    return xi_sum
