"""Strategy update rules, the profile transition matrix, and its Markov analysis.

Each player's memory-one rule is a column-stochastic k_i x kappa matrix whose
column r is the distribution of the player's next strategy given that the
current joint profile is r.  Multiplying all rules together (column-wise
Kronecker / Khatri-Rao) yields the kappa x kappa transition matrix L of the
profile chain x(t+1) = L x(t).

The analysis decides chain structure exactly from the transition graph, the
positivity pattern of L: the closed communicating classes come from Boolean
reachability, each class's period from BFS levels, and a primitive chain's
least witness exponent from Boolean repeated squaring.  For a stochastic L,
rank(L - I) = kappa - 1 holds iff there is exactly one closed class, and the
power limit exists iff every closed class is aperiodic (Kemeny & Snell,
Finite Markov Chains, 1960).  The stationary vector is one LU solve of L - I
with a row replaced by ones, reported with its residual.  The float routes
(Wielandt primitivity loop, SVD rank defect and null space, power limit by
squaring, power iteration, adjugate) stay as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    AnalysisError,
    CapacityError,
    DimensionError,
    DomainError,
    ValidationError,
)
from .stp import DEFAULT_TOL, khatri_rao

# strict-positivity threshold for primitivity checks
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class StrategyRule:
    """Memory-one mixed rule of one player: k_i x kappa, column-stochastic."""

    player: int
    matrix: np.ndarray

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def kappa(self) -> int:
        return self.matrix.shape[1]


def build_rule(player: int, probs, tol: float = DEFAULT_TOL) -> StrategyRule:
    """Validate a probability table (rows = strategies, cols = profiles)."""
    m = np.asarray(probs, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2:
        raise DimensionError(f"rule must be a 2-D matrix with >= 2 rows, got {m.shape}")
    if np.any(m < -tol) or np.any(m > 1 + tol):
        bad = int(np.argwhere((m < -tol) | (m > 1 + tol))[0][1]) + 1
        raise ValidationError(
            f"player {player} rule has probabilities outside [0,1] at profile {bad}"
        )
    sums = m.sum(axis=0)
    off = np.abs(sums - 1.0) > tol
    if np.any(off):
        r = int(np.argwhere(off)[0][0]) + 1
        raise ValidationError(
            f"player {player} rule column for profile {r} sums to {sums[r - 1]:.6g}, not 1"
        )
    m = m.copy()
    m.setflags(write=False)
    return StrategyRule(player=player, matrix=m)


@dataclass(frozen=True)
class TransitionMatrix:
    """The profile-chain transition matrix and the rules it came from."""

    matrix: np.ndarray
    provenance: tuple = ()

    @property
    def kappa(self) -> int:
        return self.matrix.shape[0]


def build_pee(rules) -> TransitionMatrix:
    """Khatri-Rao product of all players' rules, in player order."""
    rules = list(rules)
    if not rules:
        raise DimensionError("need at least one rule")
    kappa = rules[0].matrix.shape[1]
    for r in rules:
        if r.matrix.shape[1] != kappa:
            raise DimensionError(
                f"rule of player {r.player} has {r.matrix.shape[1]} profile "
                f"columns, expected {kappa}"
            )
    L = reduce(khatri_rao, (r.matrix for r in rules))
    if L.shape != (kappa, kappa):
        raise DimensionError(
            f"rules yield a {L.shape} matrix; strategy counts do not multiply "
            f"to the shared profile count {kappa}"
        )
    return TransitionMatrix(matrix=L, provenance=tuple(r.player for r in rules))


def _matrix_of(L) -> np.ndarray:
    if isinstance(L, TransitionMatrix):
        return L.matrix
    m = np.asarray(L, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_primitive(L, tol: float = POSITIVITY_TOL):
    """Whether some power of L is strictly positive; returns (flag, witness).

    Checks powers up to the Wielandt bound (kappa-1)^2 + 1 on the positivity
    pattern only, which is exact for nonnegative matrices.
    """
    m = _matrix_of(L)
    if np.any(m < -tol):
        raise ValidationError(
            "primitivity by the Wielandt bound needs a nonnegative matrix")
    kappa = m.shape[0]
    pattern = m > tol
    bound = (kappa - 1) ** 2 + 1
    power = pattern.copy()
    for s in range(1, bound + 1):
        if power.all():
            return True, s
        power = (power.astype(np.int64) @ pattern.astype(np.int64)) > 0
    return False, None


def nullspace_stationary(L) -> np.ndarray:
    """Fixed vector of L from the SVD null space of L - I, normalized to sum 1."""
    m = _matrix_of(L)
    kappa = m.shape[0]
    _, _, vt = np.linalg.svd(m - np.eye(kappa))
    u = vt[-1]
    total = u.sum()
    if abs(total) < 1e-12:
        raise AnalysisError("null-space vector has zero mass; defect likely > 1")
    return u / total


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


def check_stochastic(L, source: str = "L") -> np.ndarray:
    """The matrix of L, or ValidationError naming its first bad column.

    Every entry must be >= -POSITIVITY_TOL and every column must sum to 1
    within DEFAULT_TOL; NaN fails both.  source names the matrix in the
    message, e.g. the file it was read from.
    """
    m = _matrix_of(L)
    sums = m.sum(axis=0)
    bad = ~(m >= -POSITIVITY_TOL).all(axis=0) | ~(np.abs(sums - 1.0) <= DEFAULT_TOL)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValidationError(
            f"{source}: column {c + 1} is not a probability distribution "
            f"(sum {sums[c]:.6g}, smallest entry {m[:, c].min():.6g})")
    return m


def _bool_product(a, b) -> np.ndarray:
    # 0/1 float32 operands keep BLAS; counts up to kappa are exact
    return (a @ b > 0).astype(np.float32)


def _period(step) -> int:
    """Period of a strongly connected pattern: gcd of BFS level differences.

    step[i, j] means one move goes from j to i (Denardo 1977).
    """
    n = step.shape[0]
    level = np.full(n, -1)
    level[0] = 0
    frontier = level == 0
    d = 0
    while frontier.any():
        d += 1
        frontier = step[:, frontier].any(axis=1) & (level < 0)
        level[frontier] = d
    dst, src = np.nonzero(step)
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def _least_positive_power(step) -> int:
    """Least s with step^s entrywise positive, for a primitive pattern.

    Squares until a power 2^m is positive, then lifts binary digits from the
    top.  Powers of a pattern with no empty column stay positive once they
    are (P^(s+1) = P^s P), so the search is valid.
    """
    powers = [step.astype(np.float32)]  # step^(2^i)
    while not powers[-1].all():
        powers.append(_bool_product(powers[-1], powers[-1]))
    if len(powers) == 1:
        return 1
    s, cur = 1 << (len(powers) - 2), powers[-2]
    for i in range(len(powers) - 3, -1, -1):
        cand = _bool_product(cur, powers[i])
        if not cand.all():
            s, cur = s + (1 << i), cand
    return s + 1


@dataclass(frozen=True)
class ChainStructure:
    """Exact pattern facts of a stochastic chain."""

    classes: tuple  # closed communicating classes, 0-based profile arrays
    periods: tuple  # one per closed class
    witness: int | None  # least s with L^s > 0; None when not primitive

    @property
    def primitive(self) -> bool:
        return self.witness is not None

    @property
    def rank_defect(self) -> int:
        """kappa - rank(L - I): the number of closed classes."""
        return len(self.classes)

    @property
    def aperiodic(self) -> bool:
        """Whether the power limit of L exists."""
        return all(p == 1 for p in self.periods)

    @property
    def limit_identical_columns(self) -> bool:
        """Whether the power limit exists with identical columns."""
        return self.rank_defect == 1 and self.aperiodic


def chain_structure(L) -> ChainStructure:
    """Closed classes, periods and primitivity of L from its positivity pattern.

    Exact: no float tolerance beyond POSITIVITY_TOL for the pattern itself.
    Raises ValidationError when L is not column-stochastic.
    """
    m = check_stochastic(L)
    kappa = m.shape[0]
    step = m > POSITIVITY_TOL  # step[i, j]: one move goes from j to i
    if step.all():
        return ChainStructure(classes=(np.arange(kappa),), periods=(1,),
                              witness=1)
    # reach[i, j]: j reaches i; squaring doubles the path length covered
    reach = (step | np.eye(kappa, dtype=bool)).astype(np.float32)
    while not ((wider := _bool_product(reach, reach)) == reach).all():
        reach = wider
    reach = reach > 0
    # j is in a closed class iff every state it reaches reaches it back
    closed = ~(reach & ~reach.T).any(axis=0)
    mutual = reach & reach.T
    classes, seen = [], np.zeros(kappa, dtype=bool)
    for j in np.flatnonzero(closed):
        if not seen[j]:
            members = np.flatnonzero(mutual[:, j])
            seen[members] = True
            classes.append(members)
    periods = tuple(_period(step[np.ix_(c, c)]) for c in classes)
    witness = None
    if len(classes) == 1 and len(classes[0]) == kappa and periods[0] == 1:
        witness = _least_positive_power(step)
    return ChainStructure(classes=tuple(classes), periods=periods,
                          witness=witness)


def solve_stationary(L):
    """Fixed vector of a chain with one closed class, and its residual.

    One LU solve of L - I with its last row replaced by ones (the mass
    condition); the residual is max |L u - u|.
    """
    m = _matrix_of(L)
    kappa = m.shape[0]
    a = m - np.eye(kappa)
    a[-1] = 1.0
    b = np.zeros(kappa)
    b[-1] = 1.0
    u = np.linalg.solve(a, b)
    return u, float(np.max(np.abs(m @ u - u)))


def _positive_stationary(m, tol: float):
    u, residual = solve_stationary(m)
    if np.min(u) <= 0 or residual > tol:
        raise AnalysisError(
            f"stationary solve failed the fixed-point check "
            f"(residual {residual:.3g}, smallest entry {np.min(u):.3g})")
    return u, residual


def stationary_distribution(L, tol: float = 1e-10) -> np.ndarray:
    """Unique positive stationary distribution of a primitive chain."""
    if not chain_structure(L).primitive:
        raise AnalysisError("chain is not primitive; stationary vector not unique")
    return _positive_stationary(_matrix_of(L), tol)[0]


def rank_defect(L) -> int:
    """kappa minus the numerical rank of L - I (singular-value threshold)."""
    m = _matrix_of(L)
    kappa = m.shape[0]
    sv = np.linalg.svd(m - np.eye(kappa), compute_uv=False)
    thresh = kappa * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    return kappa - int(np.sum(sv > thresh))


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


@dataclass(frozen=True)
class PowerLimit:
    converged: bool
    matrix: np.ndarray | None
    steps: int


def power_limit(L, max_t: int = 1 << 20, tol: float = 1e-12) -> PowerLimit:
    """Limit of L^t by repeated squaring, testing L^t ~ L^{t+1}.

    Comparing t against t+1 (rather than t against 2t) is what catches
    periodic chains, whose even powers alone can look convergent.
    """
    if max_t < 1:
        raise DomainError("max_t must be >= 1")
    m = _matrix_of(L)
    P = m.copy()
    t = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while t <= max_t:
            if not np.all(np.isfinite(P)):
                break  # powers blow up (columns not true distributions)
            if np.max(np.abs(P @ m - P)) < tol:
                return PowerLimit(converged=True, matrix=P, steps=t)
            P = P @ P
            t *= 2
    return PowerLimit(converged=False, matrix=None, steps=t)


@dataclass(frozen=True)
class MarkovReport:
    """Summary of the chain analysis used by the design-verification pipeline."""

    primitive: bool
    witness_s: int | None
    rank_defect: int  # number of closed classes
    stationary: np.ndarray | None
    limit_converged: bool  # every closed class aperiodic
    periods: tuple  # one per closed class
    stationary_residual: float | None

    def to_json(self) -> dict:
        return {
            "primitive": self.primitive,
            "witness_s": self.witness_s,
            "rank_defect": self.rank_defect,
            "stationary": None if self.stationary is None else list(self.stationary),
            "limit_converged": self.limit_converged,
            "periods": list(self.periods),
            "stationary_residual": self.stationary_residual,
        }


def analyze(L, tol: float = 1e-10) -> MarkovReport:
    """Exact chain structure of a stochastic L, plus its stationary vector
    when L is primitive."""
    chain = chain_structure(L)
    u = residual = None
    if chain.primitive:
        u, residual = _positive_stationary(_matrix_of(L), tol)
    return MarkovReport(
        primitive=chain.primitive,
        witness_s=chain.witness,
        rank_defect=chain.rank_defect,
        stationary=u,
        limit_converged=chain.aperiodic,
        periods=chain.periods,
        stationary_residual=residual,
    )
