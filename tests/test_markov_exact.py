"""Differential test: the exact chain-structure core against the float routes.

chain_structure decides closed classes, periods and primitivity from the
positivity pattern of L.  solve_stationary takes the stationary vector from
one LU solve below ITERATION_KAPPA profiles; from there up it runs power
iteration, certified by its residual and capped at kappa // 3 products, and
falls back to the LU when the iteration gives up.  Here both are compared
with the kept references on every chain the other test modules build and on
a seeded corpus at kappa = 4, 12 and 48 (all on the LU route); the
iteration is compared with the LU on designed chains at kappa = 256 and 512:

- is_primitive (Wielandt loop) for the flag and the least witness exponent;
- rank_defect (SVD) for the number of closed classes;
- power_limit plus the column spread for "every closed class aperiodic" and
  "one closed class, aperiodic";
- nullspace_stationary and power_iteration_stationary for the stationary
  vector, within STATIONARY_TOL.
"""

import itertools

import numpy as np
import pytest

from zdkit import (
    GameSpec,
    LinearRelation,
    ValidationError,
    ZDAssignment,
    analyze,
    assemble,
    build_pee,
    build_rule,
    reduce_to_fop,
)
from zdkit.cli import DEFAULT_SEED, _random_interior_rule, parse_relation_spec
from zdkit.design import (
    RESIDUAL_TOL,
    design_row,
    feasible_mu_interval,
    verify_effectiveness,
)
from zdkit.markov import (
    ITERATION_KAPPA,
    _iterated_stationary,
    _lu_stationary,
    chain_structure,
    is_primitive,
    nullspace_stationary,
    power_limit,
    rank_defect,
    solve_stationary,
)
from conftest import (
    EXTORTION_DESIGN,
    EXTORTION_PAYOFFS,
    random_interior_rule,
    random_stochastic,
)
from oracles import kappa_params, power_iteration_stationary
from test_acceptance import _sharp_interior_rule
from test_markov import pd_rules
from test_network import fig1_network

STATIONARY_TOL = 1e-12
COLUMN_TOL = 1e-8  # the column spread the float route judged limits by


def assert_matches_references(L):
    m = (build_pee(L) if isinstance(L, (list, tuple))
         else np.asarray(L, dtype=float))
    chain = chain_structure(m)

    flag, witness = is_primitive(m)
    assert chain.primitive == flag and chain.witness == witness

    assert chain.rank_defect == rank_defect(m)

    lim = power_limit(m)
    assert chain.aperiodic == lim.converged
    identical = False
    if lim.converged:
        spread = np.max(lim.matrix.max(axis=1) - lim.matrix.min(axis=1))
        identical = spread < COLUMN_TOL
    assert chain.limit_identical_columns == identical

    report = analyze(m)
    assert (report.primitive, report.witness, report.rank_defect,
            report.aperiodic, report.periods) == (
        chain.primitive, chain.witness, chain.rank_defect, chain.aperiodic,
        chain.periods)

    if chain.rank_defect == 1:
        u, residual = solve_stationary(m)
        assert residual <= STATIONARY_TOL
        assert np.max(np.abs(u - nullspace_stationary(m))) <= STATIONARY_TOL
        if chain.aperiodic:
            u_power, _ = power_iteration_stationary(m)
            assert np.max(np.abs(u - u_power)) <= STATIONARY_TOL
    if chain.primitive:
        assert np.max(np.abs(report.stationary - u)) == 0.0
    else:
        assert report.stationary is None
    return chain


# ---------------------------------------------------------------------------
# the chains the other test modules build, with their seeds


def _interior_chain(rng, k):
    kappa = kappa_params(k).kappa
    return [random_interior_rule(rng, i + 1, ki, kappa) for i, ki in enumerate(k)]


def _designed_chains(game, assignment, rng, opponents, trials):
    """Chains of one assignment against fresh interior opponents."""
    out = []
    for _ in range(trials):
        rules = {p: random_interior_rule(rng, p, game.k[p - 1], game.kappa)
                 for p in opponents}
        rules[assignment.designer] = assignment.as_rule()
        out.append([rules[p] for p in sorted(rules)])
    return out


def _repeat_designer():
    """test_design's "repeat my move" designer on the equal-payoff game."""
    game = GameSpec(k=(2, 2), payoffs=np.tile(np.arange(4.0), (2, 1)))
    rel = LinearRelation((1.0, -1.0), 0.0)
    row = design_row(game, 1, 1, rel.row(game), 0.5)
    return ZDAssignment(designer=1, rows=[row, 1.0 - row],
                        relations=((1, rel, 0.5),))


def existing_test_chains():
    chains = {}
    cycle3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)

    # test_markov
    rng = np.random.default_rng(4)
    chains["markov.pd_formula"] = [pd_rules(rng.random(4), rng.random(4))]
    rng = np.random.default_rng(5)
    chains["markov.press_dyson"] = [pd_rules(rng.random(4), rng.random(4))
                                    for _ in range(20)]
    chains["markov.positive"] = [random_stochastic(np.random.default_rng(6), 5)]
    chains["markov.boundary_pd"] = [pd_rules([0.7, 0, 0, 0], [0.6, 0.5, 0.4, 0])]
    rng = np.random.default_rng(7)
    chains["markov.interior_pd"] = [
        pd_rules(rng.uniform(0.05, 0.95, 4), rng.uniform(0.05, 0.95, 4))
        for _ in range(10)]
    chains["markov.small"] = [
        cycle3, np.full((6, 6), 1 / 6), np.array([[0.9, 0.5], [0.1, 0.5]]),
        pd_rules([0.5] * 4, [0.5] * 4), np.eye(3), np.eye(7),
        np.array([[0.0, 1.0], [1.0, 0.0]])]
    rng = np.random.default_rng(8)
    chains["markov.nullspace_vs_power"] = [random_stochastic(rng, 6)
                                           for _ in range(10)]
    rng = np.random.default_rng(9)
    positive = random_stochastic(rng, 5)
    a, b = random_stochastic(rng, 3), random_stochastic(rng, 4)
    chains["markov.rank_defect"] = [
        positive, np.block([[a, np.zeros((3, 4))], [np.zeros((4, 3)), b]])]
    rng = np.random.default_rng(11)
    chains["markov.adjugate_pd"] = [
        pd_rules(rng.uniform(0.1, 0.9, 4), rng.uniform(0.1, 0.9, 4))
        for _ in range(5)]
    chains["markov.power_limit"] = [random_stochastic(np.random.default_rng(12), 5)]
    rng = np.random.default_rng(13)
    chains["markov.annihilation"] = [random_stochastic(rng, 6) for _ in range(10)]
    chains["markov.marginalization"] = [
        _interior_chain(np.random.default_rng(14), (2, 3, 2))]
    chains["markov.report"] = [random_stochastic(np.random.default_rng(15), 4)]

    # test_design
    ext_game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    ext = assemble(ext_game, 2, EXTORTION_DESIGN)
    chains["design.extortion"] = _designed_chains(
        ext_game, ext, np.random.default_rng(22), (1, 3), 10)
    repeat = _repeat_designer()
    switch = build_rule(2, [[0, 1, 0, 1], [1, 0, 1, 0]])
    uniform = build_rule(2, np.full((2, 4), 0.5))
    chains["design.periodic_and_two_block"] = [
        [repeat.as_rule(), switch], [repeat.as_rule(), uniform]]
    chains["design.multi_designer"] = _multi_designer_chains()
    rng = np.random.default_rng(20)
    chains["design.xi_sum"] = [pd_rules(rng.uniform(0.1, 0.9, 4),
                                        rng.uniform(0.1, 0.9, 4))]
    chains["design.row_sums"] = [_interior_chain(np.random.default_rng(21),
                                                 (2, 3, 2))]
    chains["design.row_sum_identity"] = [
        _interior_chain(rng, k)
        for k in ((2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2), (3, 3))
        for rng in [np.random.default_rng(sum(k))] for _ in range(25)]

    # test_acceptance
    rng = np.random.default_rng(104)
    chains["acceptance.04"] = [_interior_chain(rng, k)
                               for k in ((2, 2), (2, 3, 2), (2, 2, 2))
                               for _ in range(100)]
    rng = np.random.default_rng(105)
    chains["acceptance.05"] = [pd_rules(rng.random(4), rng.random(4))
                               for _ in range(50)]
    chains["acceptance.06"] = _designed_chains(
        ext_game, ext, np.random.default_rng(106), (1, 3), 50)
    rng = np.random.default_rng(108)
    drawn = []
    for n in (4, 6):
        for _ in range(50):
            w = rng.uniform(0.05, 1.0, size=(n, n))
            drawn.append(w / w.sum(axis=0))
    chains["acceptance.08"] = drawn
    fop = reduce_to_fop(fig1_network(), "A")
    rel = LinearRelation.pinning(2, 2, 2.0)
    row = design_row(fop.game, 1, 1, rel.row(fop.game), -1 / 16)
    pin_a = ZDAssignment(designer=1, rows=[row, 1.0 - row],
                         relations=((1, rel, -1 / 16),))
    chains["acceptance.09"] = _designed_chains(
        fop.game, pin_a, np.random.default_rng(109), (2,), 20)
    rng = np.random.default_rng(288)
    chains["acceptance.10"] = [[_sharp_interior_rule(rng, 1, 2, 12),
                                ext.as_rule(),
                                _sharp_interior_rule(rng, 3, 2, 12)]]

    # test_montecarlo
    chains["montecarlo"] = [cycle3] + [
        random_stochastic(np.random.default_rng(seed), 5 if seed == 42 else 4)
        for seed in range(40, 46)]

    # test_network
    lo, hi = feasible_mu_interval(fop.game, 1, 1, rel.row(fop.game))
    fop_pin = assemble(fop.game, 1, [(1, rel, hi / 2 if hi > -lo else lo / 2)])
    chains["network.fop_pinning"] = _designed_chains(
        fop.game, fop_pin, np.random.default_rng(30), (2,), 5)

    # test_cli: verify --random-opponents 5 --seed 3 draws opponents this way
    rng = np.random.default_rng(3)
    chains["cli.verify"] = []
    for _ in range(5):
        opp = {p: _random_interior_rule(rng, p, ext_game.k[p - 1], 12)
               for p in (1, 3)}
        chains["cli.verify"].append([opp[1], ext.as_rule(), opp[3]])
    # neg --node A --seed 9 and --node E with the default seed
    for node, seed, trials in (("A", 9, 5), ("E", DEFAULT_SEED, 3)):
        game = reduce_to_fop(fig1_network(), node).game
        pin = assemble(game, 1, [parse_relation_spec(
            "pin:target=2,value=2,row=1,mu=auto", game, 1)])
        rng = np.random.default_rng(seed)
        chains[f"cli.neg_{node}"] = [
            [pin.as_rule(), _random_interior_rule(rng, 2, game.k[1], game.kappa)]
            for _ in range(trials)]
    rng = np.random.default_rng(50)
    chains["cli.simulate"] = [[build_rule(p + 1, w / w.sum(axis=0)) for p, w in
                               enumerate(rng.uniform(0.1, 1, size=(k, 12))
                                         for k in (2, 3, 2))]]
    return chains


def _multi_designer_chains():
    rng = np.random.default_rng(23)
    ix = kappa_params((2, 3, 2))
    payoffs = rng.uniform(0.5, 3.0, size=(3, 12))
    payoffs[1, [s - 1 for s in ix.phi(1, 1)]] *= -1
    payoffs[0, [s - 1 for s in ix.phi(3, 1)]] *= -1
    game = GameSpec(k=(2, 3, 2), payoffs=payoffs)

    def pick(i, target):
        rel = LinearRelation.pinning(3, target, 0.0)
        lo, hi = feasible_mu_interval(game, i, 1, rel.row(game))
        return assemble(game, i, [(1, rel, hi / 2 if hi > -lo else lo / 2)])

    a1, a3 = pick(1, 2), pick(3, 1)
    middle = random_interior_rule(rng, 2, 3, 12)
    return [[a1.as_rule(), middle, a3.as_rule()]]


EXISTING = existing_test_chains()


@pytest.mark.parametrize("family", sorted(EXISTING))
def test_existing_chains_match_references(family):
    for L in EXISTING[family]:
        assert_matches_references(L)


# ---------------------------------------------------------------------------
# seeded corpus

SIZES = {4: (2, 2), 12: (2, 3, 2), 48: (3, 4, 4)}
KINDS = ("interior", "boundary", "one_deterministic", "one_periodic",
         "transient", "cycle", "several_closed", "two_block")


def _profiles(k):
    return np.array(list(itertools.product(*(range(1, v + 1) for v in k))))


def _logical(nxt, k):
    m = np.zeros((k, len(nxt)))
    m[np.asarray(nxt) - 1, np.arange(len(nxt))] = 1.0
    return m


def corpus_chain(kind, kappa, seed):
    """Rule matrices of one corpus chain of the given kind."""
    rng = np.random.default_rng([kappa, KINDS.index(kind), seed])
    k = SIZES[kappa]
    P = _profiles(k)

    def interior(v):
        w = rng.uniform(0.1, 1.0, size=(v, kappa))
        return w / w.sum(axis=0)

    rules = [interior(v) for v in k]
    if kind == "boundary":
        # like the boundary PD chain: random zeros in every rule
        for r in rules:
            r *= rng.random(r.shape) > 0.4
            dead = r.sum(axis=0) == 0
            r[0, dead] = 1.0
            r /= r.sum(axis=0)
    elif kind == "one_deterministic":
        rules[0] = _logical(rng.integers(1, k[0] + 1, kappa), k[0])
    elif kind == "one_periodic":
        rules[0] = _logical(P[:, 0] % k[0] + 1, k[0])  # period k_1
    elif kind == "transient":
        # player 1 never moves to its last strategy
        rules[0] = _logical(rng.integers(1, k[0], kappa), k[0])
    elif kind == "two_block":
        rules[0] = _logical(P[:, 0], k[0])  # player 1 repeats its move
    elif kind in ("cycle", "several_closed"):
        order = rng.permutation(kappa)
        f = np.empty(kappa, dtype=int)
        if kind == "cycle":
            f[order] = np.roll(order, -1)
        else:
            # disjoint cycles first, then transient trees feeding them
            start = 0
            for length in rng.integers(1, max(2, kappa // 4) + 1,
                                       int(rng.integers(2, 4))):
                seg = order[start:start + length]
                f[seg] = np.roll(seg, -1)
                start += length
            for pos in range(start, kappa):
                f[order[pos]] = order[rng.integers(0, pos)]
        nxt = P[f]
        rules = [_logical(nxt[:, i], k[i]) for i in range(len(k))]
    return [build_rule(i + 1, r) for i, r in enumerate(rules)]


@pytest.mark.parametrize("kappa", sorted(SIZES))
@pytest.mark.parametrize("kind", KINDS)
def test_corpus_matches_references(kind, kappa):
    verdicts = set()
    for seed in range(3):
        chain = assert_matches_references(corpus_chain(kind, kappa, seed))
        verdicts.add((chain.primitive, chain.rank_defect, chain.aperiodic))
    if kind == "interior":
        assert verdicts == {(True, 1, True)}
    elif kind == "cycle":
        assert verdicts == {(False, 1, False)}
    elif kind == "several_closed":
        assert all(n >= 2 for _, n, _ in verdicts)
    elif kind in ("one_periodic", "transient", "two_block"):
        assert not any(p for p, _, _ in verdicts)


def test_cycle_period_and_known_witness():
    cycle = build_pee(corpus_chain("cycle", 48, 0))
    chain = chain_structure(cycle)
    assert chain.periods == (48,) and chain.rank_defect == 1
    # a lazy 3-cycle: witness 2 (one step reaches two states, two reach all)
    lazy = 0.5 * (np.eye(3) + np.roll(np.eye(3), 1, axis=0))
    assert chain_structure(lazy).witness == 2 == is_primitive(lazy)[1]


def test_irrational_chain_rejected_by_both_routes():
    game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    wild = assemble(game, 2, [
        (1, LinearRelation.extortion(3, 2, 1, factor=1.1, reference=1.0), 2.0),
        (2, LinearRelation.extortion(3, 2, 3, factor=1.2, reference=1.0), 3.0)])
    rng = np.random.default_rng(60)
    (rules,) = _designed_chains(game, wild, rng, (1, 3), 1)
    L = build_pee(rules)
    assert L.min() < 0
    with pytest.raises(ValidationError):
        chain_structure(L)
    with pytest.raises(ValidationError):
        is_primitive(L)


def test_stationary_solve_matches_the_eye_subtraction_bit_for_bit():
    # L - I is built on one copy of L, subtracting 1 from the diagonal in
    # place; the solve must equal the one from L - np.eye(kappa) exactly
    kappa = 256
    m = random_stochastic(np.random.default_rng(61), kappa)
    a = m - np.eye(kappa)
    a[-1] = 1.0
    b = np.zeros(kappa)
    b[-1] = 1.0
    want = np.linalg.solve(a, b)
    # the LU route itself: solve_stationary would iterate at this kappa
    u, residual = _lu_stationary(m)
    assert np.array_equal(u, want)
    assert residual == float(np.max(np.abs(m @ want - want)))


# ---------------------------------------------------------------------------
# the two routes of solve_stationary


def _pinning_chain(seed, k):
    """A rational design by player 2 pinning player 1's payoff (its row 1),
    the game, and the chain against interior opponents."""
    rng = np.random.default_rng(seed)
    kappa = int(np.prod(k))
    value = rng.uniform(1, 3)
    own = kappa_params(k).xi(2, 1) == 1
    w = rng.uniform(0.2, 1.5, kappa)
    w[own] = -rng.uniform(1.0, 1.5, own.sum())
    payoffs = rng.uniform(-1, 3, (3, kappa))
    payoffs[0] = value + w
    game = GameSpec(k=k, payoffs=payoffs)
    assignment = assemble(game, 2, [(1, LinearRelation.pinning(3, 1, value), None)])
    (rules,) = _designed_chains(game, assignment, rng, (1, 3), 1)
    return game, assignment, rules


class _Counting:
    """A matrix that counts the products taken with it."""

    def __init__(self, m):
        self.m, self.shape, self.products = m, m.shape, 0

    def __matmul__(self, u):
        self.products += 1
        return self.m @ u


@pytest.mark.parametrize("seed", [70, 71])
@pytest.mark.parametrize("k", [(4, 8, 8), (8, 8, 8)], ids=["kappa256", "kappa512"])
def test_iteration_matches_the_lu_on_designed_chains(k, seed):
    game, assignment, rules = _pinning_chain(seed, k)
    L = build_pee(rules)
    counting = _Counting(L)
    iterated = _iterated_stationary(counting)
    assert game.kappa >= ITERATION_KAPPA and iterated is not None
    assert counting.products <= 40  # 33-37 on such chains, of a cap of 85 or 170
    u, residual = solve_stationary(L)
    assert np.array_equal(u, iterated[0]) and residual == iterated[1]
    assert residual <= game.kappa * np.finfo(float).eps * u.max()
    lu, _ = _lu_stationary(L)
    assert np.max(np.abs(game.payoffs @ u - game.payoffs @ lu)) <= 1e-12
    report = verify_effectiveness(game, assignment, {1: rules[0], 3: rules[2]})
    assert report.effective and report.stationary_residual == residual
    assert max(report.residuals) < RESIDUAL_TOL


def _slow_chain(kappa, eps, pi0):
    """A kappa-cycle mixed with eps of the rank-one chain pi0 1^T: starting
    from the uniform vector, the error shrinks by 1 - eps per product."""
    return (1 - eps) * np.roll(np.eye(kappa), 1, axis=0) + eps * np.outer(
        pi0, np.ones(kappa))


@pytest.mark.parametrize("kappa", [ITERATION_KAPPA, 300])
def test_a_slowly_mixing_chain_takes_the_lu_bit_for_bit(kappa):
    pi0 = np.random.default_rng(72).uniform(0.5, 1.5, kappa)
    m = _slow_chain(kappa, 1e-3, pi0 / pi0.sum())
    counting = _Counting(m)
    assert _iterated_stationary(counting) is None
    # behind the pace at once: the fallback costs a few products, not the cap
    assert counting.products <= 3
    u, residual = solve_stationary(m)
    want, want_residual = _lu_stationary(m)
    assert np.array_equal(u, want) and residual == want_residual


def test_a_doubly_stochastic_chain_stops_at_the_uniform_start():
    # the cycle mixed with the uniform chain keeps the uniform vector fixed,
    # so it certifies at once however slowly the chain mixes
    kappa = ITERATION_KAPPA
    m = _slow_chain(kappa, 1e-3, np.full(kappa, 1.0 / kappa))
    counting = _Counting(m)
    u, residual = _iterated_stationary(counting)
    assert counting.products == 1 and np.array_equal(u, np.full(kappa, 1 / kappa))
    assert residual == float(np.max(np.abs(m @ u - u)))


@pytest.mark.parametrize("kappa", [48, 64, ITERATION_KAPPA - 1])
def test_stationary_solve_below_the_crossover_is_the_lu(kappa):
    # today's LU, spelt out: analyze-sparse (48) and simulate-mc (64) chains
    # keep their stationary vectors bit for bit
    m = random_stochastic(np.random.default_rng(73), kappa)
    a = m - np.eye(kappa)
    a[-1] = 1.0
    b = np.zeros(kappa)
    b[-1] = 1.0
    want = np.linalg.solve(a, b)
    u, residual = solve_stationary(m)
    assert np.array_equal(u, want)
    assert residual == float(np.max(np.abs(m @ want - want)))
