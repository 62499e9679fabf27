import itertools

import numpy as np
import pytest

from zdkit import (
    DimensionError,
    DomainError,
    GameSpec,
    LinearRelation,
    ZDAssignment,
    build_pee,
    assemble,
    build_rule,
    rationality_check,
    verify_effectiveness,
)
from zdkit.design import design_row, feasible_mu_interval
from zdkit.games import ProfileIndexer
from conftest import (
    EXTORTION_DESIGN,
    EXTORTION_ROW_1,
    EXTORTION_ROW_2,
    PINNING_ROW_1,
    PINNING_ROW_2,
    random_interior_rule,
)
from oracles import kappa_params, xi_sum_identity


def brute_force_pee(rules, indexer):
    """Transition matrix by explicit profile enumeration (oracle for the
    Khatri-Rao construction): entry (s', s) is the product over players of
    the probability of moving to their component of s' given profile s."""
    kappa = indexer.kappa
    L = np.ones((kappa, kappa))
    profiles = itertools.product(*(range(1, k + 1) for k in indexer.k))
    for s_next, tup in enumerate(profiles, start=1):
        for s in range(1, kappa + 1):
            prob = 1.0
            for i, j in enumerate(tup, start=1):
                prob *= rules[i - 1][j - 1, s - 1]
            L[s_next - 1, s - 1] = prob
    return L


def test_linear_relation_constructors():
    rel = LinearRelation.pinning(3, target=1, value=4)
    assert rel.coeffs == (1.0, 0.0, 0.0) and rel.constant == -4
    rel = LinearRelation.extortion(3, designer=2, target=1, factor=1.1, reference=1)
    assert rel.coeffs == (-1.1, 1.0, 0.0)
    assert rel.constant == pytest.approx(0.1)
    with pytest.raises(DomainError):
        LinearRelation((0.0, 0.0), 1.0)


def test_pinning_rows_reproduce_golden_vectors(pinning_game):
    a1 = assemble(pinning_game, 2, [(1, LinearRelation.pinning(3, 1, 4), 0.1)])
    np.testing.assert_allclose(a1.rows[0], PINNING_ROW_1, atol=1e-12)
    a2 = assemble(pinning_game, 2, [(2, LinearRelation.pinning(3, 3, 3), 0.1)])
    np.testing.assert_allclose(a2.rows[1], PINNING_ROW_2, atol=1e-12)
    assert rationality_check(a1).verdict
    assert rationality_check(a2).verdict


def test_extortion_rows_reproduce_golden_vectors(extortion_game):
    a = assemble(extortion_game, 2, EXTORTION_DESIGN)
    np.testing.assert_allclose(a.rows[0], EXTORTION_ROW_1, atol=1e-12)
    np.testing.assert_allclose(a.rows[1], EXTORTION_ROW_2, atol=1e-12)
    assert rationality_check(a).verdict


def test_design_row_zero_relation_passthrough():
    # identical payoff vectors make the relation row vanish: p = indicator
    payoffs = np.tile(np.arange(4.0), (2, 1))
    game = GameSpec(k=(2, 2), payoffs=payoffs)
    rel = LinearRelation((1.0, -1.0), 0.0)
    row = design_row(rel.row(game), game.indexer.xi(1, 1), mu=0.5)
    np.testing.assert_array_equal(row, game.indexer.xi(1, 1))


def test_design_row_rejects_zero_mu(pinning_game):
    rel = LinearRelation.pinning(3, 1, 4)
    with pytest.raises(DomainError):
        design_row(rel.row(pinning_game), pinning_game.indexer.xi(2, 1), mu=0.0)


def test_design_scale_covariance(pinning_game):
    rel = LinearRelation((2.0, 0.0, 0.0), -8.0)  # pinning relation scaled by 2
    row = design_row(rel.row(pinning_game), pinning_game.indexer.xi(2, 1), mu=0.05)
    np.testing.assert_allclose(row, PINNING_ROW_1, rtol=0, atol=1e-15)


def test_design_cap(extortion_game):
    with pytest.raises(DomainError):
        assemble(extortion_game, 1, [
            (1, LinearRelation.extortion(3, 1, 2, factor=1.1, reference=1), 0.05),
            (2, LinearRelation.extortion(3, 1, 3, factor=1.2, reference=1), 0.1)])


def test_rationality_flags_out_of_range(pinning_game):
    a = assemble(pinning_game, 2, [(1, LinearRelation.pinning(3, 1, 4), 0.5)])
    report = rationality_check(a)
    assert not report.verdict
    assert report.row_violations
    assert report.worst_margin > 0


def test_xi_sum_identity_pd():
    rng = np.random.default_rng(20)
    p = rng.uniform(0.1, 0.9, 4)
    q = rng.uniform(0.1, 0.9, 4)
    l1 = build_rule(1, np.vstack([p, 1 - p]))
    l2 = build_rule(2, np.vstack([q, 1 - q]))
    out = xi_sum_identity([l1, l2], 1, 1)
    np.testing.assert_allclose(out, [p[0] - 1, p[1] - 1, p[2], p[3]], atol=1e-12)


def test_all_rows_of_m_sum_to_zero():
    rng = np.random.default_rng(21)
    ix = kappa_params((2, 3, 2))
    rules = [random_interior_rule(rng, i + 1, ki, ix.kappa)
             for i, ki in enumerate(ix.k)]
    M = build_pee(rules) - np.eye(ix.kappa)
    assert np.max(np.abs(M.sum(axis=0))) < 1e-12


@pytest.mark.parametrize("k", [(2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2), (3, 3)])
def test_row_sum_identity_random_games(k):
    rng = np.random.default_rng(sum(k))
    ix = kappa_params(k)
    for _ in range(25):
        rules = [random_interior_rule(rng, i + 1, ki, ix.kappa)
                 for i, ki in enumerate(k)]
        L = brute_force_pee(rules, ix)
        np.testing.assert_allclose(L, build_pee(rules), atol=1e-14)
        M = L - np.eye(ix.kappa)
        for i in range(1, len(k) + 1):
            for j in range(1, k[i - 1] + 1):
                rows = [s - 1 for s in ix.phi(i, j)]
                brute = M[rows].sum(axis=0)
                expected = rules[i - 1][j - 1] - ix.xi(i, j)
                assert np.max(np.abs(brute - expected)) < 1e-10
                np.testing.assert_allclose(
                    xi_sum_identity(rules, i, j), brute, atol=1e-12)


def test_feasible_mu_interval_golden(pinning_game):
    rel = LinearRelation.pinning(3, 1, 4)
    lo, hi = feasible_mu_interval(rel.row(pinning_game), pinning_game.indexer.xi(2, 1))
    assert lo < 0.1 < hi  # the published choice lies inside


def test_feasible_mu_interval_zero_row():
    payoffs = np.tile(np.arange(4.0), (2, 1))
    game = GameSpec(k=(2, 2), payoffs=payoffs)
    lo, hi = feasible_mu_interval(LinearRelation((1.0, -1.0), 0.0).row(game),
                                  game.indexer.xi(1, 1))
    assert lo == -np.inf and hi == np.inf


def test_feasible_mu_interval_grid_oracle(pinning_game):
    """Every mu inside the interval passes the per-entry check, every mu
    outside fails (dense grid brute force)."""
    rel = LinearRelation((1.0, -0.7, 0.2), -2.0)
    lo, hi = feasible_mu_interval(rel.row(pinning_game), pinning_game.indexer.xi(2, 2))
    w = rel.row(pinning_game)
    xi = pinning_game.indexer.xi(2, 2)
    for mu in np.linspace(lo - 0.5, hi + 0.5, 401):
        row = mu * w + xi
        ok = np.all(row >= -1e-12) and np.all(row <= 1 + 1e-12)
        inside = lo - 1e-12 <= mu <= hi + 1e-12
        assert ok == inside or abs(mu - lo) < 2e-3 or abs(mu - hi) < 2e-3


def test_effectiveness_extortion_random_opponents(extortion_game):
    a = assemble(extortion_game, 2, EXTORTION_DESIGN)
    rng = np.random.default_rng(22)
    for _ in range(10):
        opponents = {
            1: random_interior_rule(rng, 1, 2, 12),
            3: random_interior_rule(rng, 3, 2, 12),
        }
        report = verify_effectiveness(extortion_game, a, opponents)
        assert report.effective and report.rational
        ec = report.expected_payoffs
        assert abs((ec[1] - 1) - 1.1 * (ec[0] - 1)) < 1e-8
        assert abs((ec[1] - 1) - 1.2 * (ec[2] - 1)) < 1e-8


def test_effectiveness_limit_failure_on_periodic_chain():
    # equal payoffs let the designer's row collapse to the pure indicator
    # ("repeat my move"); a switching opponent then makes the chain periodic
    payoffs = np.tile(np.arange(4.0), (2, 1))
    game = GameSpec(k=(2, 2), payoffs=payoffs)
    rel = LinearRelation((1.0, -1.0), 0.0)
    row = design_row(rel.row(game), game.indexer.xi(1, 1), 0.5)
    a = ZDAssignment(designer=1, rows=[row, 1.0 - row], relations=((1, rel, 0.5),))
    switch = build_rule(2, [[0, 1, 0, 1], [1, 0, 1, 0]])
    report = verify_effectiveness(game, a, {2: switch})
    assert not report.effective
    assert not report.limit_ok


def test_effectiveness_rank_failure_on_two_block_chain():
    payoffs = np.tile(np.arange(4.0), (2, 1))
    game = GameSpec(k=(2, 2), payoffs=payoffs)
    rel = LinearRelation((1.0, -1.0), 0.0)
    row = design_row(rel.row(game), game.indexer.xi(1, 1), 0.5)
    a = ZDAssignment(designer=1, rows=[row, 1.0 - row], relations=((1, rel, 0.5),))
    # opponent mixes uniformly regardless of state; the designer's own move
    # never changes, so the chain splits into two independent blocks
    uniform = build_rule(2, np.full((2, 4), 0.5))
    report = verify_effectiveness(game, a, {2: uniform})
    assert not report.effective
    assert not report.rank_ok


def test_multi_designer_compatibility():
    """Two players designing simultaneously both see their relations hold."""
    rng = np.random.default_rng(23)
    ix = kappa_params((2, 3, 2))
    payoffs = rng.uniform(0.5, 3.0, size=(3, 12))
    # pinning to 0 is feasible when the designer's first move hurts the
    # target: flip the target's sign on the designer's strategy-1 profiles
    payoffs[1, [s - 1 for s in ix.phi(1, 1)]] *= -1  # player 1 pins player 2
    payoffs[0, [s - 1 for s in ix.phi(3, 1)]] *= -1  # player 3 pins player 1
    game = GameSpec(k=(2, 3, 2), payoffs=payoffs)

    def pick_design(i, target):
        rel = LinearRelation.pinning(3, target, 0.0)
        lo, hi = feasible_mu_interval(rel.row(game), game.indexer.xi(i, 1))
        mu = hi / 2 if hi > -lo else lo / 2
        assert mu != 0.0
        return assemble(game, i, [(1, rel, mu)])

    a1 = pick_design(1, 2)
    a3 = pick_design(3, 1)
    assert rationality_check(a1).verdict and rationality_check(a3).verdict
    middle = random_interior_rule(rng, 2, 3, 12)
    report = verify_effectiveness(game, a1, {2: middle, 3: a3.as_rule()})
    assert report.effective
    report3 = verify_effectiveness(game, a3, {1: a1.as_rule(), 2: middle})
    assert report3.effective


def test_assignment_json_roundtrip(extortion_game):
    a = assemble(extortion_game, 2, EXTORTION_DESIGN)
    doc = a.to_json()
    b = ZDAssignment.from_json(doc, extortion_game)
    assert b.designer == 2 and [j for j, _, _ in b.relations] == [1, 2]
    np.testing.assert_array_equal(a.rows, b.rows)
    for (_, rel_b, mu_b), (_, rel_a, mu_a) in zip(b.relations, a.relations):
        assert rel_b == rel_a
        assert mu_b == mu_a


def test_undesigned_row_takes_residual_mass(extortion_game):
    a = assemble(extortion_game, 2, EXTORTION_DESIGN)
    m = a.rows
    np.testing.assert_allclose(m.sum(axis=0), np.ones(12), atol=1e-12)
    np.testing.assert_allclose(m[2], 1.0 - m[0] - m[1], atol=1e-12)


def test_assignment_rejects_too_many_designed_rows():
    rel = LinearRelation((1.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        ZDAssignment(designer=1, rows=np.zeros((2, 4)),
                     relations=tuple((j, rel, 0.1) for j in (1, 2)))


def test_rationality_counts_non_finite_entries():
    rows = np.array([[0.5, np.nan, 0.5, np.inf], [0.5, 0.5, 0.5, 0.5]])
    a = ZDAssignment(designer=1, rows=rows,
                     relations=((1, LinearRelation((1.0, 0.0)), 0.1),))
    report = rationality_check(a)
    assert not report.verdict
    assert [v[:2] for v in report.row_violations] == [(1, 2), (1, 4)]
    assert [s for s, _ in report.sum_violations] == [2, 4]
    assert report.worst_margin == np.inf


def test_assemble_rejects_zero_relation_row():
    game = GameSpec(k=(2, 2), payoffs=[[1, 2, 3, 4], [2, 2, 2, 2]])
    for mu in (None, 0.1):
        with pytest.raises(DomainError, match="row 1 is identically zero"):
            assemble(game, 1, [(1, LinearRelation.pinning(2, 2, 2.0), mu)])


def test_assemble_forms_each_relation_row_once(pinning_game, monkeypatch):
    # the relation row w is formed once per designed row and handed to
    # feasible_mu_interval and design_row, with mu auto or given
    calls = []
    row = LinearRelation.row
    monkeypatch.setattr(LinearRelation, "row",
                        lambda self, game: calls.append(self) or row(self, game))
    for mu in (None, 0.1):
        calls.clear()
        assemble(pinning_game, 2, [(1, LinearRelation.pinning(3, 1, 4.0), mu),
                                   (2, LinearRelation.pinning(3, 3, 3.0), mu)])
        assert len(calls) == 2


def test_assemble_forms_each_indicator_row_once(pinning_game, monkeypatch):
    # xi_{i,j} is formed once per designed row and handed to
    # feasible_mu_interval and design_row, with mu auto or given
    calls = []
    xi = ProfileIndexer.xi
    monkeypatch.setattr(ProfileIndexer, "xi",
                        lambda self, i, j: calls.append((i, j)) or xi(self, i, j))
    for mu in (None, 0.1):
        calls.clear()
        assemble(pinning_game, 2, [(1, LinearRelation.pinning(3, 1, 4.0), mu),
                                   (2, LinearRelation.pinning(3, 3, 3.0), mu)])
        assert calls == [(2, 1), (2, 2)]


def test_relation_with_the_wrong_count_is_refused_naming_its_row(pinning_game):
    message = "relation of row 2 has 2 coefficients for 3 players"
    with pytest.raises(DimensionError, match=message):
        assemble(pinning_game, 2, [(2, LinearRelation((1.0, 0.0), -4.0), 0.1)])
    doc = assemble(pinning_game, 2,
                   [(2, LinearRelation.pinning(3, 3, 3.0), 0.1)]).to_json()
    doc["relations"][0]["coeffs"] = [1.0, 0.0]
    with pytest.raises(DimensionError, match=message):
        ZDAssignment.from_json(doc, pinning_game)


def test_effectiveness_refuses_a_rule_with_the_wrong_strategy_count():
    game = GameSpec(k=(2, 2), payoffs=[[3, 0, 5, 1], [3, 5, 0, 1]])
    assignment = assemble(game, 1, [(1, LinearRelation.pinning(2, 2, 2.0), None)])
    opponent = build_rule(2, np.full((3, 4), 1 / 3))
    with pytest.raises(DimensionError,
                       match="player 2 rule has 3 strategies, expected 2"):
        verify_effectiveness(game, assignment, {2: opponent})


def test_effectiveness_irrational_design_not_evaluated(extortion_game):
    # mu far outside the feasible interval: the designed rows leave [0, 1]
    # and L gets negative entries, so it is no Markov chain to analyse
    a = assemble(extortion_game, 2, [
        (1, LinearRelation.extortion(3, 2, 1, factor=1.1, reference=1), 2.0),
        (2, LinearRelation.extortion(3, 2, 3, factor=1.2, reference=1), 3.0)])
    assert a.rows.min() < 0
    rng = np.random.default_rng(24)
    opponents = {1: random_interior_rule(rng, 1, 2, 12),
                 3: random_interior_rule(rng, 3, 2, 12)}
    report = verify_effectiveness(extortion_game, a, opponents)
    assert not report.rational and not report.effective
    assert report.limit_ok is None and report.rank_ok is None
    doc = report.to_json()
    assert doc["conditions"] == {"limit": None, "rank": None}
    assert doc["expected_payoffs"] is None and doc["stationary_residual"] is None


def test_effectiveness_reports_stationary_residual(extortion_game):
    a = assemble(extortion_game, 2, EXTORTION_DESIGN)
    rng = np.random.default_rng(25)
    opponents = {1: random_interior_rule(rng, 1, 2, 12),
                 3: random_interior_rule(rng, 3, 2, 12)}
    doc = verify_effectiveness(extortion_game, a, opponents).to_json()
    assert doc["effective"] and doc["stationary_residual"] < 1e-12


# ---------------------------------------------------------------------------
# Vectorised feasible_mu_interval and rationality_check against the per-entry
# loops they replaced, kept here as references.


def loop_feasible_mu_interval(game, i, j, relation):
    w = relation.row(game)
    xi = game.indexer.xi(i, j)
    lo, hi = -np.inf, np.inf
    for ws, xs in zip(w, xi):
        if ws == 0.0:
            continue
        a, b = -xs / ws, (1.0 - xs) / ws
        if a > b:
            a, b = b, a
        lo, hi = max(lo, a), min(hi, b)
    return lo + 0.0, hi + 0.0  # a zero bound is +0.0, never -0.0


def loop_rationality(assignment, tol=1e-12):
    row_viol = []
    worst = 0.0
    total = np.zeros(assignment.rows.shape[1])
    for j, _, _ in assignment.relations:
        row = assignment.rows[j - 1]
        total += row
        for s in range(assignment.rows.shape[1]):
            v = row[s]
            excess = max(-v, v - 1.0)
            if excess > tol:
                row_viol.append((j, s + 1, float(v)))
                worst = max(worst, excess)
    sum_viol = []
    for s in range(assignment.rows.shape[1]):
        excess = max(-total[s], total[s] - 1.0)
        if excess > tol:
            sum_viol.append((s + 1, float(total[s])))
            worst = max(worst, excess)
    return (not row_viol and not sum_viol, worst, row_viol, sum_viol)


def same_float(a, b):
    """Equal, and equal in the sign of zero too."""
    return a == b and np.copysign(1.0, a) == np.copysign(1.0, b)


# (seed, k, int_payoffs)
DESIGN_CORPUS = [(seed, *case) for seed, case in enumerate(itertools.product(
    [(2, 2), (3, 2), (2, 3, 2), (4, 3), (2, 2, 4), (3, 3, 3)], (True, False)))]


def check_against_loops(game, designer, specs):
    """Compare both checks with their loops for one designer's relations.

    specs lists (row, relation); each designed row gets mu from its interval
    scaled to land inside, at and past the bounds.
    """
    intervals = {}
    for j, rel in specs:
        lo, hi = feasible_mu_interval(rel.row(game), game.indexer.xi(designer, j))
        ref_lo, ref_hi = loop_feasible_mu_interval(game, designer, j, rel)
        assert same_float(lo, ref_lo) and same_float(hi, ref_hi)
        intervals[j] = (lo, hi)
    verdicts = set()
    for scale in (0.5, 1.0, 3.0, -2.0):
        designed = []
        for j, rel in specs:
            lo, hi = intervals[j]
            mu = scale * (hi if hi > -lo else lo)
            if not np.isfinite(mu) or mu == 0.0:
                mu = scale * 0.1
            designed.append((j, rel, mu))
        a = assemble(game, designer, designed)
        report = rationality_check(a)
        verdict, worst, row_viol, sum_viol = loop_rationality(a)
        assert report.verdict == verdict
        assert report.worst_margin == worst
        assert report.row_violations == row_viol
        assert report.sum_violations == sum_viol
        assert report.to_json() == {
            "rational": verdict, "worst_margin": worst,
            "row_violations": [list(v) for v in row_viol],
            "sum_violations": [list(v) for v in sum_viol]}
        verdicts.add(verdict)
    return verdicts


@pytest.mark.parametrize("seed,k,int_payoffs", DESIGN_CORPUS)
def test_vectorised_design_checks_match_loop_references(seed, k, int_payoffs):
    rng = np.random.default_rng([seed, 63])
    n, kappa = len(k), int(np.prod(k))

    def draw(size, low, high):
        return (rng.integers(low, high + 1, size=size).astype(float) if int_payoffs
                else rng.uniform(low, high, size=size))

    payoffs = draw((n, kappa), -4, 4)
    game = GameSpec(k=k, payoffs=payoffs)
    ix = game.indexer
    verdicts = set()
    for designer in range(1, n + 1):
        # every row but the last, each a pin at a payoff the target really
        # collects (zeros in w), then a general relation on the same rows
        rows = list(range(1, k[designer - 1]))
        specs = []
        for j in rows:
            target = int(rng.integers(1, n + 1))
            value = float(payoffs[target - 1, int(rng.integers(kappa))])
            specs.append((j, LinearRelation.pinning(n, target, value)))
        verdicts |= check_against_loops(game, designer, specs)
        coeffs = tuple(rng.integers(-2, 3, n) + 0.5)
        verdicts |= check_against_loops(
            game, designer, [(j, LinearRelation(coeffs, 1.0)) for j in rows])
        # a pin with a rational range: the target's payoff is below the pin
        # where the designer plays row 1 and above it elsewhere
        target = designer % n + 1
        shaped = payoffs.copy()
        own = ix.xi(designer, 1) == 1.0
        shaped[target - 1] = 2.0 + np.where(own, -draw(kappa, 1, 3),
                                            draw(kappa, 1, 3))
        verdicts |= check_against_loops(
            GameSpec(k=k, payoffs=shaped), designer,
            [(1, LinearRelation.pinning(n, target, 2.0))])
    assert verdicts == {True, False}


def test_relation_rejects_non_finite_values():
    with pytest.raises(DomainError):
        LinearRelation((1.0, float("nan")))
    with pytest.raises(DomainError):
        LinearRelation((1.0, 0.0), float("inf"))


def test_relation_constructors_reject_players_out_of_range():
    for target in (0, 4):
        with pytest.raises(DomainError, match=f"target player {target} outside"):
            LinearRelation.pinning(3, target, 1.0)
        with pytest.raises(DomainError, match=f"target player {target} outside"):
            LinearRelation.extortion(3, 1, target, 1.5, 1.0)
    with pytest.raises(DomainError, match="designer player 0 outside"):
        LinearRelation.extortion(3, 0, 2, 1.5, 1.0)


def test_assemble_auto_mu_and_row_checks(pinning_game):
    rel = LinearRelation.pinning(3, 1, 4)
    lo, hi = feasible_mu_interval(rel.row(pinning_game), pinning_game.indexer.xi(2, 1))
    auto = assemble(pinning_game, 2, [(1, rel, None)])
    assert auto.relations[0][2] == (hi / 2 if hi > -lo else lo / 2)
    np.testing.assert_array_equal(
        auto.rows[0],
        design_row(rel.row(pinning_game), pinning_game.indexer.xi(2, 1),
                   auto.relations[0][2]))
    with pytest.raises(DomainError, match="row 1 designed twice"):
        assemble(pinning_game, 2, [(1, rel, 0.1), (1, rel, 0.2)])

    # the k-th row is refused as it arrives, before another triple is taken
    def triples():
        yield from [(1, rel, 0.1), (3, rel, 0.1), (2, rel, 0.1)]
        raise AssertionError("a triple was taken after the refused row")

    with pytest.raises(DomainError, match="can design at most 2 rows"):
        assemble(pinning_game, 2, triples())
    # an assignment built directly is checked by the same rules and wording
    with pytest.raises(DomainError, match="row 3 outside 1..2, the strategies"):
        ZDAssignment(designer=1, rows=np.zeros((2, 4)), relations=((3, rel, 0.1),))
    # w = V_1 = (1, -1, 0, 0) changes sign inside phi(1, 1): only mu = 0 fits
    game = GameSpec(k=(2, 2), payoffs=[[1, -1, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(DomainError, match="only the excluded point 0"):
        assemble(game, 1, [(1, LinearRelation.pinning(2, 1, 0.0), None)])
