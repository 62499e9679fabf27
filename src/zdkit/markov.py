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
Finite Markov Chains, 1960).  solve_stationary takes the rules of a chain
(a square table is the chain of one rule) and is the one place that picks
the route to its stationary vector: from ITERATION_KAPPA profiles up, power
iteration accelerated by Aitken steps, certified by its residual and capped
at kappa // 3 products, over the Khatri-Rao product
(W @ (R_n * u).T).ravel() of two or more rules, W the product of all rules
but the last, so L is never formed; below that crossover, and as the
fallback, one LU solve of L - I (a row replaced by ones).  The vector is
reported with its residual max |L u - u|.

Some chains are decided from the rules alone: positive_product tells
exactly, from the rules' column minima, whether L is entrywise positive,
and such a chain is one aperiodic class with witness 1.  The float routes
(Wielandt primitivity loop, SVD rank defect and null space, power limit by
squaring) stay here as independent references; power iteration and the
adjugate live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import prod

import numpy as np

from .errors import AnalysisError, DimensionError, ValidationError
from .stp import khatri_rao

# the one sign tolerance: how far outside [0, 1] a probability or designed
# entry may lie, and how far above 0 an entry must be to count as positive
POSITIVITY_TOL = 1e-12
# largest distance from 1 a probability column's sum may have
DEFAULT_TOL = 1e-9
# largest residual max |L u - u| analyze accepts from the stationary solve
STATIONARY_TOL = 1e-10
# solve_stationary tries power iteration before the LU from this many
# profiles up (the grid it comes from is in its docstring)
ITERATION_KAPPA = 160


def build_rule(player: int, probs) -> np.ndarray:
    """A player's rule, read-only: rows = strategies, cols = profiles."""
    m = np.array(probs, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2:
        raise DimensionError(f"rule must be a 2-D matrix with >= 2 rows, got {m.shape}")
    check_stochastic(m, f"player {player} rule")
    m.setflags(write=False)
    return m


def _profile_count(rules) -> int:
    """kappa of rules that multiply to a kappa x kappa chain; DimensionError
    names a rule by its position, or the shape the rules would yield."""
    if not rules:
        raise DimensionError("need at least one rule")
    kappa = rules[0].shape[1]
    for p, r in enumerate(rules, start=1):
        if r.shape[1] != kappa:
            raise DimensionError(
                f"rule {p} has {r.shape[1]} profile columns, expected {kappa}")
    if (rows := prod(r.shape[0] for r in rules)) != kappa:
        raise DimensionError(
            f"rules yield a {(rows, kappa)} matrix; strategy counts do not "
            f"multiply to the shared profile count {kappa}"
        )
    return kappa


def build_pee(rules) -> np.ndarray:
    """The kappa x kappa Khatri-Rao product of the players' rules.

    rules are arrays in player order; an error names a rule by its position.
    """
    rules = list(rules)
    _profile_count(rules)
    return reduce(khatri_rao, rules)


def positive_product(rules) -> bool:
    """Whether build_pee(rules) > POSITIVITY_TOL entrywise, without forming it.

    Exact, not within a tolerance: for nonnegative factors rounding is
    monotone, so the smallest entry of a column of L is the product of the
    rules' column minima taken in build_pee's left-to-right order.  Raises
    build_pee's DimensionError on rules that do not multiply to a chain.
    """
    rules = list(rules)
    _profile_count(rules)
    mins = [r.min(axis=0) for r in rules]
    return (min(m.min() for m in mins) >= 0
            and bool((reduce(np.multiply, mins) > POSITIVITY_TOL).all()))


class _KhatriRao:
    """L = build_pee(rules) as an operator u -> L u that never forms L.

    With W the product of all rules but the last, R, entry (a, b) of L u
    reshaped to (kappa / k_n, k_n) is sum_c W[a, c] R[b, c] u_c.
    """

    def __init__(self, rules):
        *first, self.last = rules
        self.w = reduce(khatri_rao, first)
        self.shape = (self.last.shape[1],) * 2

    def __matmul__(self, u):
        return (self.w @ (self.last * u).T).ravel()


def _matrix_of(L) -> np.ndarray:
    m = np.asarray(L, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_primitive(L):
    """Whether some power of L is strictly positive; returns (flag, witness).

    Checks powers up to the Wielandt bound (kappa-1)^2 + 1 on the positivity
    pattern only, which is exact for nonnegative matrices.
    """
    m = _matrix_of(L)
    if np.any(m < -POSITIVITY_TOL):
        raise ValidationError(
            "primitivity by the Wielandt bound needs a nonnegative matrix")
    kappa = m.shape[0]
    pattern = m > POSITIVITY_TOL
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


def check_stochastic(L, source: str = "L") -> float:
    """Largest |column sum - 1| of table L; ValidationError on a bad column.

    Every entry must be >= -POSITIVITY_TOL and every column must sum to 1
    within DEFAULT_TOL; NaN fails both.  A square table is a chain, a
    product of at most log2 kappa rules (every k >= 2), so its sums may be
    off by DEFAULT_TOL per factor, and one more.  source names the table
    in the message, e.g. "player 2 rule".
    """
    m = np.asarray(L, dtype=float)
    sums = m.sum(axis=0)
    drift = np.abs(sums - 1.0)
    tol = DEFAULT_TOL * (len(m).bit_length() if m.shape == m.shape[::-1] else 1)
    bad = ~(m >= -POSITIVITY_TOL).all(axis=0) | ~(drift <= tol)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValidationError(
            f"{source}: column {c + 1} (profile {c + 1}) is not a probability "
            f"distribution (sum {sums[c]:.10g}, smallest entry {m[:, c].min():.6g})")
    return float(drift.max(initial=0.0))


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
    """Least s > 1 with step^s entrywise positive, for a primitive pattern.

    Squares until a power 2^m is positive, then lifts binary digits from the
    top.  Powers of a pattern with no empty column stay positive once they
    are (P^(s+1) = P^s P), so the search is valid.
    """
    powers = [step.astype(np.float32)]  # step^(2^i)
    while not powers[-1].all():
        powers.append(_bool_product(powers[-1], powers[-1]))
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
    drift: float = 0.0  # largest |column sum - 1| of L
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
    m = _matrix_of(L)
    drift = check_stochastic(m)
    kappa = m.shape[0]
    step = m > POSITIVITY_TOL  # step[i, j]: one move goes from j to i
    if step.all():
        return ChainStructure(classes=(np.arange(kappa),), periods=(1,),
                              witness=1, drift=drift)
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
                          witness=witness, drift=drift)


def _lu_stationary(m):
    """One LU solve of L - I with its last row replaced by ones (the mass
    condition), and the residual max |L u - u|."""
    kappa = m.shape[0]
    a = m.copy()
    a.flat[::kappa + 1] -= 1.0
    a[-1] = 1.0
    b = np.zeros(kappa)
    b[-1] = 1.0
    u = np.linalg.solve(a, b)
    return u, float(np.max(np.abs(m @ u - u)))


def _iterated_stationary(m):
    """(u, max |m @ u - u|) by u <- m @ u from the uniform vector, each iterate
    scaled to mass 1; None once the residual falls behind the geometric pace
    that would reach kappa * eps * max(u) within kappa // 3 products.

    m is L or an operator with L's shape and u -> L u (_KhatriRao).  After a
    residual check that follows a plain step, with d1 and d2 the last two
    differences m @ u - u, an Aitken step extrapolates along the slow mode:
    u <- (m @ u) + d2 lam / (1 - lam), lam = d2.d1 / d1.d1, when 0 < lam < 1
    (W. J. Stewart, Introduction to the Numerical Solution of Markov Chains,
    1994).  The next step is plain, since its difference is not one power
    step after the last.
    """
    kappa = m.shape[0]
    rounding, cap = kappa * np.finfo(float).eps, kappa // 3
    u, d1 = np.full(kappa, 1.0 / kappa), None
    for t in range(cap):
        v = m @ u
        d2 = v - u
        residual = float(abs(d2).max())
        target = rounding * u.max()
        if residual <= target:
            return u, residual
        if t == 0:
            first = residual
        elif residual > first * (target / first) ** (t / (cap - 1)):
            return None
        # d1 != 0: its residual missed a target of at least eps
        lam = 0.0 if d1 is None else d2 @ d1 / (d1 @ d1)
        if 0 < lam < 1:
            v, d2 = v + d2 * (lam / (1 - lam)), None
        u, d1 = v / v.sum(), d2
    return None


def solve_stationary(rules):
    """Fixed vector of the chain build_pee(rules), one closed class, and its
    residual; rules in player order, a square table being the chain of one.

    From ITERATION_KAPPA profiles up, power iteration runs first
    (_iterated_stationary) over _KhatriRao(rules), never forming L, or over
    the one table: u <- L u from the uniform vector, each iterate scaled to
    mass 1 and every other one extrapolated by an Aitken step, until
    max |L u - u| <= kappa * eps * max(u), the rounding bound of the product
    L u at its fixed point.  It is capped at kappa // 3 products, about the
    flops of one LU, and gives up sooner once the residual falls behind the
    geometric pace that would reach the target by the cap, so a slowly
    mixing chain pays two products more than the LU.  Below the crossover,
    and when the iteration gives up, u is one LU solve of L - I, L the
    rules' product, with its last row replaced by ones (the mass
    condition).  Either way the residual is max |L u - u| of the u
    returned, L u taken by the product that route used.

    The crossover comes from a grid on designed chains with interior
    opponents (the benchmark's verify-dense design at each size), three per
    kappa, one BLAS thread, 2-vCPU VM; median over 11 alternating rounds of
    the iteration route's time over the LU's, and the same for a slowly
    mixing chain (a kappa-cycle mixed with 1e-3 of a rank-one chain):

        kappa   products   route / LU   slow chain
           64        2 *    1.37-1.42         1.39
           96      20-21    2.16-2.29         1.24
          128      19-22    1.30-1.56         1.17
          144         19    1.10-1.14         1.17
          160      17-21    0.56-0.72         1.13
          192      18-22    0.62-0.89         1.08
          224      18-20    0.49-0.53         1.08
          256         19    0.46-0.53         1.08
          512      16-19    0.24-0.30         1.10
         1024      15-19    0.14-0.18         1.00

    * products taken before the residual fell behind the pace, after which
    the LU ran.  The slow chain gives up after 2 products at every kappa.
    """
    rules = list(rules)
    if _profile_count(rules) >= ITERATION_KAPPA and (found := _iterated_stationary(
            _KhatriRao(rules) if len(rules) > 1 else rules[0])):
        return found
    return _lu_stationary(reduce(khatri_rao, rules))


def stationary_distribution(L) -> np.ndarray:
    """Unique positive stationary distribution of a primitive chain."""
    u = analyze(L).stationary
    if u is None:
        raise AnalysisError("chain is not primitive; stationary vector not unique")
    return u


def rank_defect(L) -> int:
    """kappa minus the numerical rank of L - I (singular-value threshold)."""
    m = _matrix_of(L)
    return len(m) - int(np.linalg.matrix_rank(m - np.eye(len(m))))


@dataclass(frozen=True)
class PowerLimit:
    converged: bool
    matrix: np.ndarray | None
    steps: int


def power_limit(L) -> PowerLimit:
    """Limit of L^t by repeated squaring while t <= 2^20, testing
    max |L^{t+1} - L^t| < 1e-12.

    Comparing t against t+1 (rather than t against 2t) is what catches
    periodic chains, whose even powers alone can look convergent.
    """
    m = _matrix_of(L)
    P = m.copy()
    t = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while t <= 1 << 20:
            if not np.all(np.isfinite(P)):
                break  # powers blow up (columns not true distributions)
            if np.max(np.abs(P @ m - P)) < 1e-12:
                return PowerLimit(converged=True, matrix=P, steps=t)
            P = P @ P
            t *= 2
    return PowerLimit(converged=False, matrix=None, steps=t)


def analyze(L) -> ChainStructure:
    """Exact chain structure of a stochastic L, plus its stationary vector
    and that solve's residual when L is primitive.

    Raises AnalysisError when the primitive chain's solve gives a vector
    that is not positive, or a residual over STATIONARY_TOL + chain.drift.
    """
    chain = chain_structure(L)
    if not chain.primitive:
        return chain
    u, residual = solve_stationary([_matrix_of(L)])
    if np.min(u) <= 0 or residual > STATIONARY_TOL + chain.drift:
        raise AnalysisError(
            f"stationary solve failed the fixed-point check "
            f"(residual {residual:.3g}, smallest entry {np.min(u):.3g})")
    return replace(chain, stationary=u, stationary_residual=residual)
