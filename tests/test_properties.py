"""Property tests of design and verification on small random games, of the
stationary solve's residual on chains either side of its crossover, and of
network validation on small random networks.

Examples are derandomized, so every run checks the same games.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import random_interior_rule, random_stochastic  # noqa: E402
from oracles import xi_sum_identity  # noqa: E402
from zdkit import GameSpec, LinearRelation, assemble  # noqa: E402
from zdkit.design import (  # noqa: E402
    RESIDUAL_TOL,
    feasible_mu_interval,
    verify_effectiveness,
)
from zdkit.games import ProfileIndexer  # noqa: E402
from zdkit.markov import ITERATION_KAPPA, solve_stationary  # noqa: E402
from test_network import check_against_scan  # noqa: E402

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=50,
                             deadline=None)


@st.composite
def designs(draw, feasible=None):
    """A game with kappa <= 24, one pin or extort design on it, and a seed.

    A feasible game has payoffs that make the relation row negative on the
    designed row's profiles and positive elsewhere, so its mu is drawn from
    the feasible interval (or auto) and the design is rational; otherwise
    the payoffs are uniform and mu is any nonzero number in [-1, 1].
    """
    if feasible is None:
        feasible = draw(st.booleans())
    k = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3).filter(
        lambda k: np.prod(k) <= 24)))
    n, kappa = len(k), int(np.prod(k))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    payoffs = rng.uniform(-10, 10, (n, kappa))
    designer = draw(st.integers(1, n))
    target = draw(st.integers(1, n).filter(lambda m: m != designer))
    row = draw(st.integers(1, k[designer - 1]))
    pin = draw(st.booleans())
    value, factor = draw(st.floats(-10, 10)), draw(st.floats(1, 3))
    if feasible:
        xi = ProfileIndexer(k).xi(designer, row)
        w = (1 - 2 * xi) * rng.uniform(0.1, 10, kappa)
        if pin:
            payoffs[target - 1] = value + w
        else:
            payoffs[designer - 1] = value + factor * (payoffs[target - 1] - value) + w
    game = GameSpec(k=k, payoffs=payoffs)
    if pin:
        relation = LinearRelation.pinning(n, target, value)
    else:
        relation = LinearRelation.extortion(n, designer, target, factor, value)
    if feasible:
        _, hi = feasible_mu_interval(game, designer, row, relation.row(game))
        mu = draw(st.none() | st.floats(0.05, 1).map(lambda t: t * hi))
    else:
        mu = draw(st.floats(1e-3, 1)) * draw(st.sampled_from([-1, 1]))
    return game, assemble(game, designer, [(row, relation, mu)]), seed


def _opponents(game, assignment, seed):
    rng = np.random.default_rng(seed + 1)
    return {p: random_interior_rule(rng, p, game.k[p - 1], game.kappa)
            for p in range(1, game.n + 1) if p != assignment.designer}


@PROPERTY_SETTINGS
@given(designs())
def test_assembled_design_keeps_row_sum_identity(case):
    game, assignment, seed = case
    rules = _opponents(game, assignment, seed)
    rules[assignment.designer] = assignment.as_rule()
    rules = [rules[p] for p in range(1, game.n + 1)]
    for j in range(1, len(assignment.rows) + 1):
        xi_sum_identity(rules, assignment.designer, j)


@PROPERTY_SETTINGS
@given(designs(feasible=True))
def test_both_conditions_force_every_relation(case):
    game, assignment, seed = case
    report = verify_effectiveness(game, assignment,
                                  _opponents(game, assignment, seed))
    assert report.rational
    if report.limit_ok and report.rank_ok:
        assert all(r < RESIDUAL_TOL for r in report.residuals)
        assert report.effective


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(st.sampled_from([ITERATION_KAPPA - 1, ITERATION_KAPPA, 240]),
       st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 0.1, 1e-3]))
def test_stationary_residual_is_that_of_the_vector_returned(kappa, seed, mix):
    # a random permutation chain mixed with `mix` of a dense one: 1 mixes
    # fast and takes the iteration from ITERATION_KAPPA up, 1e-3 gives up
    # and takes the LU
    rng = np.random.default_rng(seed)
    m = (1 - mix) * np.eye(kappa)[rng.permutation(kappa)] + mix * random_stochastic(
        rng, kappa)
    u, residual = solve_stationary(m)
    assert residual == float(np.max(np.abs(m @ u - u)))
    assert abs(u.sum() - 1.0) <= 1e-12 and residual <= 1e-12


@st.composite
def faulty_networks(draw):
    """Nodes and edges of a small network, valid or with faults inserted.

    A fault is a repeated node id or a bad edge: a self-loop, a repeat in
    either orientation, an unknown or unhashable end, a tuple of one or
    three ends, or no sequence at all.
    """
    n = draw(st.integers(1, 7))
    ids = [f"v{i}" for i in range(n)] if draw(st.booleans()) else list(range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]
    edges = [(ids[a], ids[b]) if draw(st.booleans()) else (ids[b], ids[a])
             for a, b in pairs]
    nodes = list(ids)
    if draw(st.integers(0, 3)) == 0:  # so most examples reach the edges
        nodes.insert(draw(st.integers(0, len(nodes))), draw(st.sampled_from(ids)))
    known = st.sampled_from(ids)
    end = known | st.sampled_from(["ghost", n, [ids[0]]])
    bad_edge = (known.map(lambda u: (u, u))
                | st.sampled_from(edges or [(ids[0], ids[0])]).flatmap(
                    lambda e: st.sampled_from([e, e[::-1]]))
                | st.tuples(end, end) | st.tuples(end)
                | st.tuples(known, known, known) | st.sampled_from([7, None]))
    for fault in draw(st.lists(bad_edge, max_size=2)):
        edges.insert(draw(st.integers(0, len(edges))), fault)
    return tuple(nodes), tuple(edges)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(faulty_networks())
def test_network_validation_matches_scan_reference(case):
    check_against_scan(*case)
