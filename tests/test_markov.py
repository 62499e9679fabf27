import json
import re
from math import prod

import numpy as np
import pytest

from zdkit import (
    AnalysisError,
    DimensionError,
    ValidationError,
    analyze,
    build_pee,
    build_rule,
    simulate,
)
from zdkit import markov
from zdkit.cli import main
from zdkit.markov import (
    DEFAULT_TOL,
    chain_structure,
    is_primitive,
    nullspace_stationary,
    power_limit,
    rank_defect,
    stationary_distribution,
)
from conftest import random_interior_rule, random_stochastic
from oracles import CapacityError, adjugate, power_iteration_stationary


def pd_rules(p, q):
    """Memory-one prisoner's dilemma rules from cooperation probabilities."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    l1 = build_rule(1, np.vstack([p, 1 - p]))
    l2 = build_rule(2, np.vstack([q, 1 - q]))
    return l1, l2


def pd_matrix_formula(p, q):
    """The 4x4 transition matrix written out entry by entry."""
    return np.array([
        [p[0] * q[0], p[1] * q[1], p[2] * q[2], p[3] * q[3]],
        [p[0] * (1 - q[0]), p[1] * (1 - q[1]), p[2] * (1 - q[2]), p[3] * (1 - q[3])],
        [(1 - p[0]) * q[0], (1 - p[1]) * q[1], (1 - p[2]) * q[2], (1 - p[3]) * q[3]],
        [(1 - p[0]) * (1 - q[0]), (1 - p[1]) * (1 - q[1]),
         (1 - p[2]) * (1 - q[2]), (1 - p[3]) * (1 - q[3])],
    ])


def test_build_rule_rejects_bad_columns():
    with pytest.raises(ValidationError) as exc:
        build_rule(1, [[0.5, 0.6], [0.4, 0.4]])
    assert "profile 1" in str(exc.value)
    with pytest.raises(ValidationError):
        build_rule(1, [[1.2, 0.5], [-0.2, 0.5]])


def test_build_rule_rejects_nan_naming_the_player():
    with pytest.raises(ValidationError, match="player 1 rule: column 1"):
        build_rule(1, [[np.nan, 0.5], [np.nan, 0.5]])


def test_build_rule_deterministic_and_uniform():
    r = build_rule(1, [[1, 1, 1, 1], [0, 0, 0, 0]])
    assert r.shape[0] == 2 and r.shape[1] == 4
    u = build_rule(2, np.full((3, 6), 1 / 3))
    assert np.all(u == 1 / 3)


# build_pee's refusals, which the CLI's rules reader makes first: (rules, message)
BAD_PRODUCTS = {
    "no_rules": ([], "need at least one rule"),
    "profile_columns": ([np.full((2, 4), 0.5), np.full((2, 2), 0.5)],
                        "rule 2 has 2 profile columns, expected 4"),
    "product_shape": ([np.full((2, 6), 0.5), np.full((2, 6), 0.5)],
                      "rules yield a (4, 6) matrix; strategy counts do not "
                      "multiply to the shared profile count 6"),
}


@pytest.mark.parametrize("case", list(BAD_PRODUCTS))
def test_build_pee_refuses_a_bad_product(case):
    rules, message = BAD_PRODUCTS[case]
    with pytest.raises(DimensionError, match=re.escape(message)):
        build_pee(rules)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [(2,), (2, 2), (2, 3, 2), (2,) * 5, (3, 4, 4)],
                         ids=str)
def test_product_of_accepted_rules_passes_the_chain_check(k, sign):
    # every rule's sums sit just inside DEFAULT_TOL, all off the same way
    kappa = prod(k)
    rules = []
    for p, kp in enumerate(k, start=1):
        rows = np.full((kp, kappa), 1 / kp)
        rows[0] += sign * 0.99 * DEFAULT_TOL
        rules.append(build_rule(p, rows))
    L = build_pee(rules)
    assert analyze(L).primitive
    assert simulate(L, x0=1, steps=50, seed=1).length == 50


def test_chain_check_shows_a_deviation_rounding_hides():
    # a 4-profile chain may be off by 3 DEFAULT_TOL: two rules plus rounding
    L = np.full((4, 4), 0.25)
    L[0, 1] += 2.9 * DEFAULT_TOL
    assert chain_structure(L).primitive
    L[0, 1] += 1.1 * DEFAULT_TOL
    with pytest.raises(ValidationError, match=re.escape(
            "column 2 (profile 2) is not a probability distribution "
            "(sum 1.000000004, smallest entry 0.25)")):
        chain_structure(L)


def test_build_pee_matches_pd_formula():
    rng = np.random.default_rng(4)
    p, q = rng.random(4), rng.random(4)
    L = build_pee(pd_rules(p, q))
    np.testing.assert_array_equal(L, pd_matrix_formula(p, q))


def test_build_pee_deterministic_rules_give_logical_matrix():
    from oracles import is_logical

    l1 = build_rule(1, [[1, 0, 0, 1], [0, 1, 1, 0]])
    l2 = build_rule(2, [[0, 1, 0, 1], [1, 0, 1, 0]])
    assert is_logical(build_pee([l1, l2]))


def test_pd_transpose_of_press_dyson_markov_matrix():
    """Our alphabetic-order matrix is the transposed memory-one Markov matrix
    once the middle two states (CD / DC) are swapped."""
    rng = np.random.default_rng(5)
    # sigma maps the classic state order CC, DC, CD, DD onto alphabetic order
    sigma = [0, 2, 1, 3]
    for _ in range(20):
        p, q = rng.random(4), rng.random(4)
        L = build_pee(pd_rules(p, q))
        markov = np.empty((4, 4))
        for r in range(4):
            for c in range(4):
                markov[r, c] = L[sigma[c], sigma[r]]
        perm = np.eye(4)[sigma]
        np.testing.assert_allclose(L, perm.T @ markov.T @ perm, atol=1e-15)


def test_primitive_positive_matrix_witness_one():
    rng = np.random.default_rng(6)
    flag, s = is_primitive(random_stochastic(rng, 5))
    assert flag and s == 1


def test_boundary_pd_not_primitive():
    # cooperate only after mutual cooperation, opponent never after DD
    p = [0.7, 0.0, 0.0, 0.0]
    q = [0.6, 0.5, 0.4, 0.0]
    L = build_pee(pd_rules(p, q))
    flag, s = is_primitive(L)
    assert not flag and s is None


def test_interior_pd_primitive():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(0.05, 0.95, 4)
        q = rng.uniform(0.05, 0.95, 4)
        flag, _ = is_primitive(build_pee(pd_rules(p, q)))
        assert flag


def test_permutation_needs_higher_power_or_fails():
    cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    flag, _ = is_primitive(cycle)
    assert not flag


def test_stationary_uniform_chain():
    L = np.full((6, 6), 1 / 6)
    np.testing.assert_allclose(stationary_distribution(L), np.full(6, 1 / 6),
                               atol=1e-12)


def test_stationary_two_state_chain_exact():
    # balance: 0.1 u1 = 0.5 u2, so u = (5/6, 1/6)
    L = np.array([[0.9, 0.5], [0.1, 0.5]])
    np.testing.assert_allclose(stationary_distribution(L), [5 / 6, 1 / 6],
                               atol=1e-12)


def test_stationary_half_half_pd_uniform():
    L = build_pee(pd_rules([0.5] * 4, [0.5] * 4))
    np.testing.assert_allclose(stationary_distribution(L), np.full(4, 0.25),
                               atol=1e-12)


def test_stationary_rejects_non_primitive():
    with pytest.raises(AnalysisError):
        stationary_distribution(np.eye(3))


def test_nullspace_and_power_iteration_agree():
    rng = np.random.default_rng(8)
    for _ in range(10):
        L = random_stochastic(rng, 6)
        u1 = nullspace_stationary(L)
        u2, _ = power_iteration_stationary(L)
        assert np.max(np.abs(u1 - u2)) < 1e-8


def test_rank_defect():
    rng = np.random.default_rng(9)
    assert rank_defect(random_stochastic(rng, 5)) == 1
    assert rank_defect(np.eye(7)) == 7
    a = random_stochastic(rng, 3)
    b = random_stochastic(rng, 4)
    block = np.block([[a, np.zeros((3, 4))], [np.zeros((4, 3)), b]])
    assert rank_defect(block) == 2


def test_adjugate_small_cases():
    np.testing.assert_allclose(adjugate(np.eye(2)), np.eye(2))
    m = np.array([[2.0, 3.0], [5.0, 7.0]])
    np.testing.assert_allclose(adjugate(m), [[7.0, -3.0], [-5.0, 2.0]])


def test_adjugate_fundamental_identity():
    rng = np.random.default_rng(10)
    for n in (3, 4, 5):
        m = rng.normal(size=(n, n))
        np.testing.assert_allclose(m @ adjugate(m), np.linalg.det(m) * np.eye(n),
                                   atol=1e-9 * max(1, abs(np.linalg.det(m))))


def test_adjugate_of_transition_defect_columns_proportional_to_u():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.uniform(0.1, 0.9, 4)
        q = rng.uniform(0.1, 0.9, 4)
        L = build_pee(pd_rules(p, q))
        u = nullspace_stationary(L)
        adj = adjugate(L - np.eye(4))
        for j in range(4):
            col = adj[:, j]
            mu = col @ u / (u @ u)
            assert abs(mu) > 1e-12
            assert np.max(np.abs(col - mu * u)) < 1e-8


def test_adjugate_cap():
    with pytest.raises(CapacityError):
        adjugate(np.eye(5), cap=4)


def test_power_limit_primitive_converges_to_stationary_columns():
    rng = np.random.default_rng(12)
    L = random_stochastic(rng, 5)
    lim = power_limit(L)
    assert lim.converged
    u = nullspace_stationary(L)
    for j in range(5):
        assert np.max(np.abs(lim.matrix[:, j] - u)) < 1e-10


def test_power_limit_periodic_diverges():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not power_limit(swap, max_t=2 ** 12).converged


def test_power_limit_identity_converges_with_unequal_columns():
    lim = power_limit(np.eye(3))
    assert lim.converged
    np.testing.assert_array_equal(lim.matrix, np.eye(3))
    spread = lim.matrix.max(axis=1) - lim.matrix.min(axis=1)
    assert np.max(spread) == 1.0  # effectiveness check must flag this shape


def test_row_annihilation_invariant():
    rng = np.random.default_rng(13)
    for _ in range(10):
        L = random_stochastic(rng, 6)
        M = L - np.eye(6)
        u = nullspace_stationary(L)
        assert np.max(np.abs(M @ u)) < 1e-12
        assert np.max(np.abs(M.sum(axis=0))) < 1e-12


def test_rule_marginalization_roundtrip():
    """Summing L's rows over the output-side profile groups of one player
    recovers that player's own rule rows."""
    from oracles import kappa_params

    rng = np.random.default_rng(14)
    k = (2, 3, 2)
    ix = kappa_params(k)
    rules = [random_interior_rule(rng, i + 1, ki, ix.kappa)
             for i, ki in enumerate(k)]
    L = build_pee(rules)
    for i in range(1, 4):
        for j in range(1, k[i - 1] + 1):
            rows = [s - 1 for s in ix.phi(i, j)]
            np.testing.assert_allclose(L[rows].sum(axis=0),
                                       rules[i - 1][j - 1], atol=1e-12)


def test_markov_report_json():
    rng = np.random.default_rng(15)
    report = analyze(random_stochastic(rng, 4))
    doc = report.to_json()
    assert doc["primitive"] and doc["witness_s"] == 1
    assert doc["rank_defect"] == 1 and doc["limit_converged"]
    assert abs(sum(doc["stationary"]) - 1.0) < 1e-12


def test_is_primitive_rejects_negative_entries():
    # columns sum to 1 but one entry is negative, as an irrational design
    # makes them; the Wielandt argument holds only for nonnegative matrices
    L = np.array([[1.2, 0.5], [-0.2, 0.5]])
    with pytest.raises(ValidationError):
        is_primitive(L)


def test_analyze_reports_periods_and_residual():
    rng = np.random.default_rng(16)
    doc = analyze(random_stochastic(rng, 5)).to_json()
    assert doc["periods"] == [1]
    assert doc["stationary_residual"] < 1e-12
    cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    doc = analyze(cycle).to_json()
    assert doc["periods"] == [3] and not doc["limit_converged"]
    assert doc["stationary"] is None and doc["stationary_residual"] is None
    doc = analyze(np.eye(3)).to_json()
    assert doc["periods"] == [1, 1, 1] and doc["rank_defect"] == 3


# a stationary solve whose answer is not a fixed point: a residual far over
# STATIONARY_TOL, or a vector with a zero entry (a primitive chain has none)
FAILED_SOLVES = {
    "residual": lambda u, residual: (u, 1e-6),
    "zero_entry": lambda u, residual: (np.r_[0.0, u[1:] / u[1:].sum()], 0.0),
}


@pytest.mark.parametrize("case", list(FAILED_SOLVES))
def test_analyze_refuses_a_solve_that_fails_the_fixed_point_check(
        tmp_path, capsys, monkeypatch, case):
    rules = [[[0.3] * 4, [0.7] * 4], [[0.6] * 4, [0.4] * 4]]
    solve = markov.solve_stationary
    monkeypatch.setattr(markov, "solve_stationary",
                        lambda L: FAILED_SOLVES[case](*solve(L)))
    with pytest.raises(AnalysisError, match="failed the fixed-point check"):
        analyze(build_pee([np.array(r) for r in rules]))
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {"1": rules[0], "2": rules[1]}}))
    capsys.readouterr()
    assert main(["analyze", "--rules", str(path)]) == 2
    assert "failed the fixed-point check" in capsys.readouterr().err
