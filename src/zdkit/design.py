"""Zero-determinant strategy design and verification.

A designer picks linear relations on the players' stationary expected payoffs,
sum_m a_m E[c_m] + a_0 = 0, and turns each into one row of their own update
rule:

    p_{i,j} = mu * (sum_m a_m V_m + a_0 * 1) + xi_{i,j},   mu != 0,

where xi_{i,j} is the 0/1 indicator of profiles in which player i plays j.
assemble is the one place that turns (row, relation, mu) triples into
designed rows; a relation comes from LinearRelation.pinning, .extortion or
the plain constructor, as the CLI's relation specs build it.
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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, ValidationError
from .games import GameSpec, json_fields, numeric_table
from .markov import (
    DEFAULT_TOL,
    POSITIVITY_TOL,
    build_pee,
    chain_structure,
    solve_stationary,
)

RESIDUAL_TOL = 1e-8
# largest excess over [0, 1] a rational design's entries and sums may have
RATIONALITY_TOL = 1e-12


def _check_player(n: int, p: int, role: str):
    if not 1 <= p <= n:
        raise DomainError(f"{role} player {p} outside 1..{n}")


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
        _check_player(n, target, "target")
        coeffs = [0.0] * n
        coeffs[target - 1] = 1.0
        return cls(tuple(coeffs), -float(value))

    @classmethod
    def extortion(cls, n: int, designer: int, target: int, factor: float,
                  reference: float) -> "LinearRelation":
        """E[c_designer] - r = factor * (E[c_target] - r)."""
        _check_player(n, designer, "designer")
        _check_player(n, target, "target")
        if designer == target:
            raise DomainError("extortion target must differ from the designer")
        coeffs = [0.0] * n
        coeffs[designer - 1] = 1.0
        coeffs[target - 1] = -float(factor)
        return cls(tuple(coeffs), float(reference) * (float(factor) - 1.0))

    def row(self, game: GameSpec) -> np.ndarray:
        """The kappa-length row sum_m a_m V_m + a_0 * 1, unchecked: _finite_row
        checks the coefficient count first."""
        return np.asarray(self.coeffs) @ game.payoffs + self.constant

    def evaluate(self, expected_payoffs) -> float:
        ec = np.asarray(expected_payoffs, dtype=float)
        return float(np.dot(self.coeffs, ec) + self.constant)


@dataclass(frozen=True)
class ZDAssignment:
    """A designer's full k x kappa rule and the relations it was designed for.

    rows is the rule, stored read-only; relations holds one
    (j, LinearRelation, mu) triple per designed row j, sorted by j.  The
    other rows are undesigned; assemble lets them split the leftover column
    mass evenly, so its rules are column-stochastic by construction (though
    possibly with negative entries when the design is irrational).
    """

    designer: int
    rows: np.ndarray
    relations: tuple = ()

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        relations = tuple(_checked_rows(self.designer, rows.shape[0], sorted(
            self.relations, key=lambda rel: rel[0])))
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "relations", relations)

    @property
    def kappa(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def rationality(self) -> "RationalityReport":
        """rationality_check of this assignment, run once: rows are read-only."""
        return rationality_check(self)

    def as_rule(self) -> np.ndarray:
        # unchecked: verify reports an irrational design, simulate refuses it
        return self.rows

    def to_json(self) -> dict:
        return {
            "designer": self.designer,
            "relations": [
                {
                    "coeffs": list(relation.coeffs),
                    "constant": relation.constant,
                    "mu": mu,
                    "row_index": j,
                }
                for j, relation, mu in self.relations
            ],
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, doc: dict, game: GameSpec) -> "ZDAssignment":
        """Assignment for game from a decoded assignment file.

        designer must be a player of game and rows a (k_designer, kappa)
        table of numbers whose columns each sum to 1 (negative entries are
        allowed: an irrational design has them).  Each relation needs an
        integer row_index and coeffs, constant and mu that are JSON numbers;
        _finite_row checks its coefficient count and that its row is finite.
        """
        designer, relations, rows = json_fields(
            doc, ("designer", "relations", "rows"), "assignment file")
        if type(designer) is not int or not 1 <= designer <= game.n:
            raise ValidationError(
                f"designer {designer!r} is not a player in 1..{game.n}")
        rows = numeric_table(rows, "rows")
        expected = (game.k[designer - 1], game.kappa)
        if rows.shape != expected:
            raise ValidationError(
                f"rows have shape {rows.shape}, expected {expected} "
                f"(the designer's strategies x profiles)")
        sums = rows.sum(axis=0)
        off = np.flatnonzero(np.abs(sums - 1.0) > DEFAULT_TOL)
        if off.size:
            raise ValidationError(
                f"rows: column {off[0] + 1} sums to {sums[off[0]]:.10g}, not 1")
        if not isinstance(relations, list):
            raise ValidationError(f"field 'relations' is {relations!r}, not a list")
        triples = []
        for e, rel in enumerate(relations, start=1):
            what = f"bad 'relations' entry {e}"
            j, coeffs, constant, mu = json_fields(
                rel, ("row_index", "coeffs", "constant", "mu"), what)
            if type(j) is not int:  # exact type, so 1.7 and true are refused
                raise ValidationError(f"{what}: row_index {j!r} is not an integer")
            coeffs = numeric_table([coeffs], f"{what}: coeffs")[0]
            constant, mu = numeric_table([[constant, mu]],
                                         f"{what}: constant and mu")[0]
            relation = LinearRelation(tuple(coeffs), constant)
            _finite_row(game, j, relation)
            triples.append((j, relation, float(mu)))
        return cls(designer=designer, rows=rows, relations=tuple(triples))


def _checked_rows(designer: int, k: int, triples):
    """The (j, relation, mu) triples, each checked as it is taken: j is one of
    the designer's k strategies, new, and one of at most k - 1 rows."""
    designed = set()
    for j, relation, mu in triples:
        if not 1 <= j <= k:
            raise DomainError(
                f"row {j} outside 1..{k}, the strategies of player {designer}")
        if j in designed:
            raise DomainError(f"row {j} designed twice")
        if len(designed) == k - 1:
            raise DomainError(f"player {designer} can design at most {k - 1} "
                              f"rows; the last row is determined by the others")
        designed.add(j)
        yield j, relation, mu


def _finite_row(game: GameSpec, j: int, relation: LinearRelation) -> np.ndarray:
    """relation.row(game), the one place a relation meets a game: DimensionError
    unless it has one coefficient per player, DomainError if an entry overflows."""
    if len(relation.coeffs) != game.n:
        raise DimensionError(f"relation of row {j} has {len(relation.coeffs)} "
                             f"coefficients for {game.n} players")
    with np.errstate(over="ignore", invalid="ignore"):
        w = relation.row(game)
    if not np.isfinite(w).all():
        raise DomainError(f"relation of row {j} overflows on this game")
    return w


def design_row(game: GameSpec, i: int, j: int, w: np.ndarray, mu: float) -> np.ndarray:
    """One designed rule row: mu * w + xi_{i,j}, for the row w _finite_row returns."""
    if mu == 0.0:
        raise DomainError("mu must be nonzero; mu = 0 degenerates the design")
    return mu * w + game.indexer.xi(i, j)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite row is refused
def assemble(game: GameSpec, designer: int, rows) -> ZDAssignment:
    """The designer's assignment from (j, relation, mu) triples, one per row.

    Every designed row is built here, in the order given, and an error about
    a row is raised before the next triple is taken; the designer is checked
    before the first.  mu=None takes the midpoint of the larger half of the
    feasible mu interval, away from the excluded 0.  The undesigned rows
    split the column mass the designed ones leave, summed in ascending j.
    """
    _check_player(game.n, designer, "designer")
    k = game.k[designer - 1]
    m, relations = np.zeros((k, game.kappa)), []
    for j, relation, mu in _checked_rows(designer, k, rows):
        w = _finite_row(game, j, relation)
        if not w.any():
            raise DomainError(
                f"relation of row {j} is identically zero on this game; it "
                f"holds whatever is played and designs nothing")
        if mu is None:
            lo, hi = feasible_mu_interval(game, designer, j, w)
            mu = hi / 2.0 if hi > -lo else lo / 2.0
            if mu == 0.0:
                raise DomainError(
                    f"feasible mu interval [{lo:.6g}, {hi:.6g}] for row {j} "
                    f"contains only the excluded point 0; no rational design "
                    f"exists")
        m[j - 1] = design_row(game, designer, j, w, mu)
        if not np.isfinite(m[j - 1]).all():
            raise DomainError(f"mu = {mu:g} makes row {j} overflow")
        relations.append((j, relation, mu))
    designed = [j for j, _, _ in relations]
    free = [j - 1 for j in range(1, k + 1) if j not in designed]  # never empty
    m[free] = (1.0 - sum(m)) / len(free)  # row by row, so in ascending j
    return ZDAssignment(designer=designer, rows=m, relations=tuple(relations))


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


def _excess(values) -> np.ndarray:
    """Distance of each value from [0, 1]; a NaN counts as infinitely far."""
    excess = np.maximum(-values, values - 1.0)
    return np.where(np.isnan(excess), np.inf, excess)


def rationality_check(assignment: ZDAssignment) -> RationalityReport:
    """Designed rows must lie in [0,1] entrywise and sum entrywise into [0,1].

    An excess over [0, 1] beyond RATIONALITY_TOL is a violation.  Violations
    are listed row by row, each in profile order; worst_margin is the
    largest excess among them (0.0 when there are none).
    A non-finite entry is a violation with an infinite excess.
    """
    row_viol = []
    worst = 0.0
    total = np.zeros(assignment.kappa)
    for j, _, _ in assignment.relations:
        row = assignment.rows[j - 1]
        total += row
        excess = _excess(row)
        bad = np.flatnonzero(excess > RATIONALITY_TOL)
        row_viol += [(j, s + 1, v) for s, v in
                     zip(bad.tolist(), row[bad].tolist())]
        worst = max(worst, excess[bad].max(initial=0.0))
    excess = _excess(total)
    bad = np.flatnonzero(excess > RATIONALITY_TOL)
    sum_viol = [(s + 1, v) for s, v in zip(bad.tolist(), total[bad].tolist())]
    worst = max(worst, excess[bad].max(initial=0.0))
    return RationalityReport(
        verdict=not row_viol and not sum_viol,
        worst_margin=float(worst),
        row_violations=row_viol,
        sum_violations=sum_viol,
    )


def feasible_mu_interval(game: GameSpec, i: int, j: int, w: np.ndarray) -> tuple:
    """Closed interval of mu keeping the designed row entrywise in [0,1].

    w is the relation row _finite_row returns.  Each profile s with w_s != 0
    bounds mu by -xi_s / w_s and (1 - xi_s) / w_s; the interval is the
    intersection of those ranges.  It always contains 0, which is itself
    excluded from valid designs; an interval collapsing to [0, 0] means no
    admissible mu.  A bound is never -0.0, so messages print it as 0.
    """
    xi = game.indexer.xi(i, j)
    nz = w != 0.0
    a, b = -xi[nz] / w[nz], (1.0 - xi[nz]) / w[nz]
    lo = np.minimum(a, b).max(initial=-np.inf)
    hi = np.maximum(a, b).min(initial=np.inf)
    return float(lo) + 0.0, float(hi) + 0.0  # -0.0 + 0.0 is +0.0


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

    opponent_rules maps every player other than the designer to a rule
    array (markov.build_rule).  The verdict requires the power limit of the
    full transition matrix to exist with identical columns and
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
        r = assignment.as_rule() if p == assignment.designer else opponent_rules[p]
        if r.shape[0] != game.k[p - 1]:
            raise DimensionError(
                f"player {p} rule has {r.shape[0]} strategies, expected {game.k[p - 1]}"
            )
        rules.append(r)
    L = build_pee(rules)
    rational = assignment.rationality.verdict
    limit_ok = rank_ok = payoffs = residuals = stationary_residual = None
    effective = False
    if not np.any(L < -POSITIVITY_TOL):
        chain = chain_structure(L)
        rank_ok = chain.rank_defect == 1
        limit_ok = effective = chain.limit_identical_columns
    if effective:
        u, stationary_residual = solve_stationary(L)
        ec = game.payoffs @ u
        payoffs = [float(v) for v in ec]
        residuals = [
            abs(relation.evaluate(ec)) for _, relation, _ in assignment.relations
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
