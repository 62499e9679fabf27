"""Strategy update rules, the profile transition matrix, and its Markov analysis.

Each player's memory-one rule is a column-stochastic k_i x kappa array whose
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
squaring) stay here as independent references; power iteration and the
adjugate live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import AnalysisError, DimensionError, DomainError, ValidationError
from .stp import khatri_rao

# strict-positivity threshold for primitivity checks
POSITIVITY_TOL = 1e-12
# largest distance from 1 a probability column's sum may have
DEFAULT_TOL = 1e-9
# largest residual max |L u - u| analyze accepts from the stationary solve
STATIONARY_TOL = 1e-10


def build_rule(player: int, probs) -> np.ndarray:
    """A player's rule, read-only: rows = strategies, cols = profiles."""
    m = np.array(probs, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2:
        raise DimensionError(f"rule must be a 2-D matrix with >= 2 rows, got {m.shape}")
    check_stochastic(m, f"player {player} rule")
    m.setflags(write=False)
    return m


def build_pee(rules) -> np.ndarray:
    """The kappa x kappa Khatri-Rao product of the players' rules.

    rules are arrays in player order; an error names a rule by its position.
    """
    rules = list(rules)
    if not rules:
        raise DimensionError("need at least one rule")
    kappa = rules[0].shape[1]
    for p, r in enumerate(rules, start=1):
        if r.shape[1] != kappa:
            raise DimensionError(
                f"rule {p} has {r.shape[1]} profile columns, expected {kappa}")
    L = reduce(khatri_rao, rules)
    if L.shape != (kappa, kappa):
        raise DimensionError(
            f"rules yield a {L.shape} matrix; strategy counts do not multiply "
            f"to the shared profile count {kappa}"
        )
    return L


def _matrix_of(L) -> np.ndarray:
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


def check_stochastic(L, source: str = "L") -> np.ndarray:
    """The table L as floats, or ValidationError naming its first bad column.

    Every entry must be >= -POSITIVITY_TOL and every column must sum to 1
    within DEFAULT_TOL; NaN fails both.  source names the table in the
    message, e.g. "player 2 rule".
    """
    m = np.asarray(L, dtype=float)
    sums = m.sum(axis=0)
    bad = ~(m >= -POSITIVITY_TOL).all(axis=0) | ~(np.abs(sums - 1.0) <= DEFAULT_TOL)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValidationError(
            f"{source}: column {c + 1} (profile {c + 1}) is not a probability "
            f"distribution (sum {sums[c]:.6g}, smallest entry {m[:, c].min():.6g})")
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
    """Exact pattern facts of a stochastic chain, and its stationary vector.

    stationary and stationary_residual are set by analyze, and only when the
    chain is primitive; chain_structure leaves them None.
    """

    classes: tuple  # closed communicating classes, 0-based profile arrays
    periods: tuple  # one per closed class
    witness: int | None  # least s with L^s > 0; None when not primitive
    stationary: np.ndarray | None = None
    stationary_residual: float | None = None

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

    def to_json(self) -> dict:
        return {
            "primitive": self.primitive,
            "witness_s": self.witness,
            "rank_defect": self.rank_defect,
            "stationary": None if self.stationary is None else list(self.stationary),
            "limit_converged": self.aperiodic,
            "periods": list(self.periods),
            "stationary_residual": self.stationary_residual,
        }


def chain_structure(L) -> ChainStructure:
    """Closed classes, periods and primitivity of L from its positivity pattern.

    Exact: no float tolerance beyond POSITIVITY_TOL for the pattern itself.
    Raises ValidationError when L is not column-stochastic.
    """
    m = check_stochastic(_matrix_of(L))
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


def stationary_distribution(L) -> np.ndarray:
    """Unique positive stationary distribution of a primitive chain."""
    u = analyze(L).stationary
    if u is None:
        raise AnalysisError("chain is not primitive; stationary vector not unique")
    return u


def rank_defect(L) -> int:
    """kappa minus the numerical rank of L - I (singular-value threshold)."""
    m = _matrix_of(L)
    kappa = m.shape[0]
    sv = np.linalg.svd(m - np.eye(kappa), compute_uv=False)
    thresh = kappa * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    return kappa - int(np.sum(sv > thresh))


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


def analyze(L) -> ChainStructure:
    """Exact chain structure of a stochastic L, plus its stationary vector
    and that solve's residual when L is primitive.

    Raises AnalysisError when the primitive chain's solve gives a vector
    that is not positive or whose residual exceeds STATIONARY_TOL.
    """
    chain = chain_structure(L)
    if not chain.primitive:
        return chain
    u, residual = solve_stationary(L)
    if np.min(u) <= 0 or residual > STATIONARY_TOL:
        raise AnalysisError(
            f"stationary solve failed the fixed-point check "
            f"(residual {residual:.3g}, smallest entry {np.min(u):.3g})")
    return replace(chain, stationary=u, stationary_residual=residual)
