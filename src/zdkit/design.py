"""Zero-determinant strategy design and verification.

A designer picks linear relations on the players' stationary expected payoffs,
sum_m a_m E[c_m] + a_0 = 0, and turns each into one row of their own update
rule:

    p_{i,j} = mu * (sum_m a_m V_m + a_0 * 1) + xi_{i,j},   mu != 0,

where xi_{i,j} is the 0/1 indicator of profiles in which player i plays j.
The mechanism: summing the rows of L - I over those profiles gives exactly
p_{i,j} - xi_{i,j} (the row-sum identity), and every row of L - I annihilates
the stationary vector, so the relation is forced to hold whenever the chain
settles.  Rationality asks the designed rows to be genuine probabilities;
effectiveness asks the chain to settle (power limit with identical columns,
and rank(L - I) = kappa - 1).  Both conditions are decided exactly from the
transition graph (markov.chain_structure); a design with negative entries
has no such graph, and its conditions are reported as not evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DimensionError, DomainError
from .games import GameSpec
from .markov import (
    POSITIVITY_TOL,
    StrategyRule,
    build_pee,
    build_rule,
    chain_structure,
    solve_stationary,
)

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LinearRelation:
    """Coefficients of sum_m a_m * E[c_m] + a_0 = 0."""

    coeffs: tuple
    constant: float = 0.0

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if not c or all(v == 0.0 for v in c):
            raise DomainError("relation needs at least one nonzero payoff coefficient")
        if not np.isfinite(c + (float(self.constant),)).all():
            raise DomainError("relation coefficients and constant must be finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "constant", float(self.constant))

    @classmethod
    def pinning(cls, n: int, target: int, value: float) -> "LinearRelation":
        """E[c_target] = value."""
        coeffs = [0.0] * n
        coeffs[target - 1] = 1.0
        return cls(tuple(coeffs), -float(value))

    @classmethod
    def extortion(cls, n: int, designer: int, target: int, factor: float,
                  reference: float) -> "LinearRelation":
        """E[c_designer] - r = factor * (E[c_target] - r)."""
        if designer == target:
            raise DomainError("extortion target must differ from the designer")
        coeffs = [0.0] * n
        coeffs[designer - 1] = 1.0
        coeffs[target - 1] = -float(factor)
        return cls(tuple(coeffs), float(reference) * (float(factor) - 1.0))

    def row(self, game: GameSpec) -> np.ndarray:
        """The kappa-length row sum_m a_m V_m + a_0 * 1."""
        if len(self.coeffs) != game.n:
            raise DimensionError(
                f"relation has {len(self.coeffs)} coefficients for {game.n} players"
            )
        return np.asarray(self.coeffs) @ game.payoffs + self.constant

    def evaluate(self, expected_payoffs) -> float:
        ec = np.asarray(expected_payoffs, dtype=float)
        return float(np.dot(self.coeffs, ec) + self.constant)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "constant": self.constant}


@dataclass(frozen=True)
class DesignedRow:
    strategy: int
    relation: LinearRelation
    mu: float
    row: np.ndarray


@dataclass(frozen=True)
class ZDAssignment:
    """A designer's rule rows: designed ones plus explicit or defaulted rest.

    Undesigned rows not supplied in `fixed` split the leftover column mass
    evenly, so the full rule is always column-stochastic by construction
    (though possibly with negative entries when the design is irrational).
    """

    designer: int
    k: int
    kappa: int
    designed: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("designer needs at least 2 strategies")
        if len(self.designed) > self.k - 1:
            raise DomainError(
                f"player {self.designer} can design at most {self.k - 1} rows "
                f"({len(self.designed)} requested); the last row is determined "
                f"by the others"
            )
        for j in list(self.designed) + list(self.fixed):
            if not 1 <= j <= self.k:
                raise DomainError(f"row index {j} outside 1..{self.k}")
        overlap = set(self.designed) & set(self.fixed)
        if overlap:
            raise DomainError(f"rows {sorted(overlap)} both designed and fixed")

    @property
    def designed_rows(self) -> list:
        return [self.designed[j] for j in sorted(self.designed)]

    def rule_matrix(self) -> np.ndarray:
        """Full k x kappa rule with defaulted rows filling the residual mass."""
        m = np.zeros((self.k, self.kappa))
        assigned = np.zeros(self.kappa)
        free = []
        for j in range(1, self.k + 1):
            if j in self.designed:
                m[j - 1] = self.designed[j].row
            elif j in self.fixed:
                m[j - 1] = self.fixed[j]
            else:
                free.append(j)
                continue
            assigned += m[j - 1]
        if free:
            share = (1.0 - assigned) / len(free)
            for j in free:
                m[j - 1] = share
        return m

    def as_rule(self) -> StrategyRule:
        # no [0,1] validation here: an irrational design still yields a
        # column-stochastic-by-sums matrix that verification must handle
        return StrategyRule(player=self.designer, matrix=self.rule_matrix())

    def to_json(self) -> dict:
        return {
            "designer": self.designer,
            "relations": [
                {
                    "coeffs": list(d.relation.coeffs),
                    "constant": d.relation.constant,
                    "mu": d.mu,
                    "row_index": d.strategy,
                }
                for d in self.designed_rows
            ],
            "rows": [list(row) for row in self.rule_matrix()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ZDAssignment":
        rows = np.array(doc["rows"], dtype=float)
        k, kappa = rows.shape
        designed = {}
        for rel in doc["relations"]:
            j = int(rel["row_index"])
            designed[j] = DesignedRow(
                strategy=j,
                relation=LinearRelation(tuple(rel["coeffs"]), rel["constant"]),
                mu=float(rel["mu"]),
                row=rows[j - 1],
            )
        fixed = {
            j: rows[j - 1] for j in range(1, k + 1) if j not in designed
        }
        return cls(designer=int(doc["designer"]), k=k, kappa=kappa,
                   designed=designed, fixed=fixed)


def design_row(game: GameSpec, i: int, j: int, relation: LinearRelation,
               mu: float) -> np.ndarray:
    """One designed rule row: mu * relation-row + indicator of (i, j)."""
    if mu == 0.0:
        raise DomainError("mu must be nonzero; mu = 0 degenerates the design")
    indexer = game.indexer
    indexer._check_pair(i, j)
    return mu * relation.row(game) + indexer.xi(i, j)


def _assemble(game: GameSpec, i: int, specs) -> ZDAssignment:
    designed = {}
    for j, relation, mu in specs:
        if j in designed:
            raise DomainError(f"row {j} designed twice")
        designed[j] = DesignedRow(
            strategy=j, relation=relation, mu=mu,
            row=design_row(game, i, j, relation, mu),
        )
    return ZDAssignment(designer=i, k=game.k[i - 1], kappa=game.kappa,
                        designed=designed)


def design_pinning(game: GameSpec, i: int, target: int, value: float,
                   mu: float, row: int = 1) -> ZDAssignment:
    """Pin E[c_target] to a constant via one designed row of player i."""
    if not 1 <= target <= game.n:
        raise DomainError(f"target player {target} outside 1..{game.n}")
    relation = LinearRelation.pinning(game.n, target, value)
    assignment = _assemble(game, i, [(row, relation, mu)])
    return assignment


def design_extortion(game: GameSpec, i: int, reference: float, targets: dict,
                     mus: dict, rows: dict | None = None) -> ZDAssignment:
    """Enforce E[c_i] - r = factor * (E[c_m] - r) for each target m.

    targets maps opponent -> extortion factor; mus maps opponent -> mu; rows
    (optional) maps opponent -> designed row index, defaulting to 1, 2, ...
    """
    if len(targets) > game.k[i - 1] - 1:
        raise DomainError(
            f"player {i} can design at most {game.k[i - 1] - 1} relations, "
            f"got {len(targets)}"
        )
    if rows is None:
        rows = {m: idx for idx, m in enumerate(sorted(targets), start=1)}
    specs = []
    for m, factor in targets.items():
        relation = LinearRelation.extortion(game.n, i, m, factor, reference)
        specs.append((rows[m], relation, mus[m]))
    return _assemble(game, i, specs)


@dataclass(frozen=True)
class RationalityReport:
    verdict: bool
    worst_margin: float
    row_violations: list  # (row j, profile s, value)
    sum_violations: list  # (profile s, value)

    def to_json(self) -> dict:
        return {
            "rational": self.verdict,
            "worst_margin": self.worst_margin,
            "row_violations": [list(v) for v in self.row_violations],
            "sum_violations": [list(v) for v in self.sum_violations],
        }


def rationality_check(assignment: ZDAssignment, tol: float = 1e-12) -> RationalityReport:
    """Designed rows must lie in [0,1] entrywise and sum entrywise into [0,1].

    Violations are listed row by row, each in profile order; worst_margin is
    the largest excess over [0, 1] among them (0.0 when there are none).
    """
    row_viol = []
    worst = 0.0
    total = np.zeros(assignment.kappa)
    for d in assignment.designed_rows:
        total += d.row
        excess = np.maximum(-d.row, d.row - 1.0)
        bad = np.flatnonzero(excess > tol)
        row_viol += [(d.strategy, s + 1, v) for s, v in
                     zip(bad.tolist(), d.row[bad].tolist())]
        worst = max(worst, excess[bad].max(initial=0.0))
    excess = np.maximum(-total, total - 1.0)
    bad = np.flatnonzero(excess > tol)
    sum_viol = [(s + 1, v) for s, v in zip(bad.tolist(), total[bad].tolist())]
    worst = max(worst, excess[bad].max(initial=0.0))
    return RationalityReport(
        verdict=not row_viol and not sum_viol,
        worst_margin=float(worst),
        row_violations=row_viol,
        sum_violations=sum_viol,
    )


def feasible_mu_interval(game: GameSpec, i: int, j: int,
                         relation: LinearRelation) -> tuple:
    """Closed interval of mu keeping the designed row entrywise in [0,1].

    Each profile s with w_s != 0 bounds mu by -xi_s / w_s and
    (1 - xi_s) / w_s; the interval is the intersection of those ranges.  It
    always contains 0, which is itself excluded from valid designs; an
    interval collapsing to [0, 0] means no admissible mu.
    """
    w = relation.row(game)
    xi = game.indexer.xi(i, j)
    nz = w != 0.0
    a, b = -xi[nz] / w[nz], (1.0 - xi[nz]) / w[nz]
    lo = np.minimum(a, b).max(initial=-np.inf)
    hi = np.maximum(a, b).min(initial=np.inf)
    return float(lo), float(hi)


def xi_sum_identity(rules, i: int, j: int, tol: float = 1e-9) -> np.ndarray:
    """Sum of rows of L - I over the profiles where player i plays j.

    Asserts the row-sum identity: the result equals row j of player i's rule
    minus the 0/1 indicator of those profiles.  A violation means the profile
    ordering is inconsistent somewhere upstream.
    """
    from .games import ProfileIndexer

    rules = list(rules)
    indexer = ProfileIndexer(tuple(r.k for r in rules))
    if not 1 <= i <= len(rules):
        raise DomainError(f"player {i} outside 1..{len(rules)}")
    L = build_pee(rules).matrix
    M = L - np.eye(indexer.kappa)
    members = [s - 1 for s in indexer.phi(i, j)]
    xi_sum = M[members].sum(axis=0)
    expected = rules[i - 1].matrix[j - 1] - indexer.xi(i, j)
    err = float(np.max(np.abs(xi_sum - expected)))
    if err > tol:
        raise ConsistencyError(
            f"row-sum identity violated for player {i}, strategy {j} "
            f"(max error {err:.3e}); check the profile ordering"
        )
    return xi_sum


@dataclass(frozen=True)
class EffectivenessReport:
    rational: bool
    effective: bool
    limit_ok: bool | None  # None: not evaluated (negative entries in L)
    rank_ok: bool | None
    expected_payoffs: list | None
    residuals: list | None
    stationary_residual: float | None

    def to_json(self) -> dict:
        return {
            "rational": self.rational,
            "effective": self.effective,
            "conditions": {"limit": self.limit_ok, "rank": self.rank_ok},
            "expected_payoffs": self.expected_payoffs,
            "residuals": self.residuals,
            "stationary_residual": self.stationary_residual,
        }


def verify_effectiveness(game: GameSpec, assignment: ZDAssignment,
                         opponent_rules: dict,
                         residual_tol: float = RESIDUAL_TOL) -> EffectivenessReport:
    """Check whether the designed payoff relations hold at stationarity.

    opponent_rules maps every player other than the designer to a
    StrategyRule (or raw k x kappa matrix).  The verdict requires the power
    limit of the full transition matrix to exist with identical columns and
    rank(L - I) = kappa - 1.  Both are decided exactly from the transition
    graph: the rank condition holds iff the chain has one closed class, the
    limit condition iff that class is also aperiodic.  When both hold the
    stationary payoffs, the per-relation residuals and the stationary
    solve's residual are reported.  A failed condition yields an
    "ineffective" report, never an exception: the designer cannot force
    these conditions alone.  An irrational design with negative entries
    makes L no chain at all: it is ineffective, with both conditions None
    (not evaluated).
    """
    rules = []
    for p in range(1, game.n + 1):
        if p == assignment.designer:
            rules.append(assignment.as_rule())
        else:
            r = opponent_rules[p]
            if not isinstance(r, StrategyRule):
                r = build_rule(p, r)
            if r.k != game.k[p - 1]:
                raise DimensionError(
                    f"player {p} rule has {r.k} strategies, expected {game.k[p - 1]}"
                )
            rules.append(r)
    L = build_pee(rules)
    rational = rationality_check(assignment).verdict
    if np.any(L.matrix < -POSITIVITY_TOL):
        return EffectivenessReport(
            rational=rational, effective=False, limit_ok=None, rank_ok=None,
            expected_payoffs=None, residuals=None, stationary_residual=None,
        )
    chain = chain_structure(L)
    rank_ok = chain.rank_defect == 1
    limit_ok = chain.limit_identical_columns
    payoffs = residuals = stationary_residual = None
    effective = limit_ok
    if effective:
        u, stationary_residual = solve_stationary(L)
        ec = game.payoffs @ u
        payoffs = [float(v) for v in ec]
        residuals = [
            abs(d.relation.evaluate(ec)) for d in assignment.designed_rows
        ]
        effective = all(r < residual_tol for r in residuals)
    return EffectivenessReport(
        rational=rational,
        effective=effective,
        limit_ok=limit_ok,
        rank_ok=rank_ok,
        expected_payoffs=payoffs,
        residuals=residuals,
        stationary_residual=stationary_residual,
    )
