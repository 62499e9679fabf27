"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Each test exercises a published-value reproduction, a structural identity,
or an end-to-end pipeline at a stated tolerance and runtime budget.  Run
with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the verdict
lines while the suite runs).
"""

import time

import numpy as np

from zdkit import (
    GameSpec,
    LinearRelation,
    ZDAssignment,
    analyze,
    build_pee,
    assemble,
    build_rule,
    rationality_check,
    reduce_to_fop,
    verify_effectiveness,
    NetworkGame,
)
from zdkit.design import design_row
from zdkit.markov import is_primitive, nullspace_stationary, rank_defect
from zdkit.montecarlo import simulate
from zdkit.network import opponent_strategy_set
from conftest import (
    EXTORTION_DESIGN,
    EXTORTION_PAYOFFS,
    EXTORTION_ROW_1,
    EXTORTION_ROW_2,
    PINNING_PAYOFFS,
    PINNING_ROW_1,
    PINNING_ROW_2,
    random_interior_rule,
)
from oracles import (
    adjugate,
    kappa_params,
    phi_arithmetic,
    power_iteration_stationary,
)
from test_markov import pd_matrix_formula, pd_rules


def verdict(number, description, ok):
    print(f"acceptance {number:02d} [{'PASS' if ok else 'FAIL'}] {description}",
          flush=True)
    assert ok, f"acceptance criterion {number} failed: {description}"


# -- 1: profile index machinery for the (2, 3, 2) game ----------------------

PHI_232 = {
    (1, 1): (1, 2, 3, 4, 5, 6),
    (1, 2): (7, 8, 9, 10, 11, 12),
    (2, 1): (1, 2, 7, 8),
    (2, 2): (3, 4, 9, 10),
    (2, 3): (5, 6, 11, 12),
    (3, 1): (1, 3, 5, 7, 9, 11),
    (3, 2): (2, 4, 6, 8, 10, 12),
}

XI_232 = {
    (1, 1): [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    (1, 2): [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    (2, 1): [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
    (2, 2): [0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0],
    (2, 3): [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1],
    (3, 1): [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
    (3, 2): [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
}


def test_01_profile_index_sets_and_indicators():
    def run_once():
        ix = kappa_params((2, 3, 2))
        ok = (ix.kappa == 12
              and tuple(ix.kappa_lower) == (1, 2, 6)
              and tuple(ix.kappa_upper) == (0, 6, 2, 1))
        for (i, j), want in PHI_232.items():
            ok = ok and ix.phi(i, j) == want and phi_arithmetic(ix, i, j) == want
            ok = ok and np.array_equal(ix.xi(i, j), np.array(XI_232[i, j], float))
        return ok

    run_once()  # warm caches before timing
    t0 = time.perf_counter()
    ok = run_once()
    elapsed = time.perf_counter() - t0
    verdict(1, f"kappa parameters, 7 index sets, 7 indicator vectors exact "
               f"({elapsed * 1e6:.0f} us < 1 ms)", ok and elapsed < 1e-3)


# -- 2: pinning rows reproduce the published 12-entry vectors ---------------


def test_02_pinning_rows_golden():
    game = GameSpec(k=(2, 3, 2), payoffs=PINNING_PAYOFFS)

    def run_once():
        r1 = design_row(game, 2, 1, LinearRelation.pinning(3, 1, 4.0).row(game), 0.1)
        r2 = design_row(game, 2, 2, LinearRelation.pinning(3, 3, 3.0).row(game), 0.1)
        return r1, r2

    run_once()
    t0 = time.perf_counter()
    r1, r2 = run_once()
    elapsed = time.perf_counter() - t0
    err = max(np.max(np.abs(r1 - PINNING_ROW_1)),
              np.max(np.abs(r2 - PINNING_ROW_2)))
    verdict(2, f"both pinning rows match to 1e-12 (max err {err:.2e}, "
               f"{elapsed * 1e6:.0f} us < 1 ms)", err < 1e-12 and elapsed < 1e-3)


# -- 3: extortion rows reproduce the published vectors and are rational -----


def test_03_extortion_rows_golden_and_rational():
    game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    assignment = assemble(game, 2, EXTORTION_DESIGN)
    r1 = assignment.rows[0]
    r2 = assignment.rows[1]
    err = max(np.max(np.abs(r1 - EXTORTION_ROW_1)),
              np.max(np.abs(r2 - EXTORTION_ROW_2)))
    rational = rationality_check(assignment).verdict
    verdict(3, f"both extortion rows match to 1e-12 (max err {err:.2e}) "
               f"and the assignment is rational", err < 1e-12 and rational)


# -- 4: row-sum identity over random rule sets ------------------------------


def test_04_row_sum_identity_property_suite():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for k in ((2, 2), (2, 3, 2), (2, 2, 2)):
        ix = kappa_params(k)
        for _ in range(100):
            rules = [random_interior_rule(rng, i + 1, ki, ix.kappa)
                     for i, ki in enumerate(k)]
            M = build_pee(rules) - np.eye(ix.kappa)
            for i, ki in enumerate(k, start=1):
                for j in range(1, ki + 1):
                    lhs = M[[s - 1 for s in ix.phi(i, j)]].sum(axis=0)
                    rhs = rules[i - 1][j - 1] - ix.xi(i, j)
                    worst = max(worst, np.max(np.abs(lhs - rhs)))
    elapsed = time.perf_counter() - t0
    verdict(4, f"row-sum identity on 300 random rule sets, max err "
               f"{worst:.2e} < 1e-10 ({elapsed:.2f} s < 5 s)",
            worst < 1e-10 and elapsed < 5.0)


# -- 5: two-player memory-one chain equals the hand-written form ------------


def test_05_two_player_chain_equivalence():
    rng = np.random.default_rng(105)
    sigma = [0, 2, 1, 3]  # classic state order CC, DC, CD, DD -> alphabetic
    worst = 0.0
    for _ in range(50):
        p, q = rng.random(4), rng.random(4)
        L = build_pee(pd_rules(p, q))
        worst = max(worst, np.max(np.abs(L - pd_matrix_formula(p, q))))
        markov = np.empty((4, 4))
        for r in range(4):
            for c in range(4):
                markov[r, c] = L[sigma[c], sigma[r]]
        perm = np.eye(4)[sigma]
        worst = max(worst, np.max(np.abs(L - perm.T @ markov.T @ perm)))
    verdict(5, f"memory-one chain matches the entrywise product formula and "
               f"the transposed/state-swapped convention on 50 draws "
               f"(max err {worst:.2e} <= 1e-15)", worst <= 1e-15)


# -- 6: extortion assignment effective against 50 random opponents ----------


def test_06_extortion_effective_against_random_opponents():
    game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    assignment = assemble(game, 2, EXTORTION_DESIGN)
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    all_primitive, worst_residual, worst_agreement = True, 0.0, 0.0
    for _ in range(50):
        opponents = {1: random_interior_rule(rng, 1, 2, 12),
                     3: random_interior_rule(rng, 3, 2, 12)}
        L = build_pee([opponents[1], assignment.as_rule(), opponents[3]])
        primitive, _ = is_primitive(L)
        all_primitive = all_primitive and primitive
        report = verify_effectiveness(game, assignment, opponents)
        worst_residual = max(worst_residual, max(report.residuals))
        u_null = nullspace_stationary(L)
        u_power, _ = power_iteration_stationary(L)
        worst_agreement = max(worst_agreement, np.max(np.abs(u_null - u_power)))
    elapsed = time.perf_counter() - t0
    verdict(6, f"50/50 trials primitive, relation residuals "
               f"{worst_residual:.2e} < 1e-8, null-space vs power iteration "
               f"{worst_agreement:.2e} < 1e-8 ({elapsed:.2f} s < 10 s)",
            all_primitive and worst_residual < 1e-8
            and worst_agreement < 1e-8 and elapsed < 10.0)


# -- 7: negative controls are reported ineffective, not crashes -------------


def test_07_negative_controls():
    # (a) boundary memory-one chain: zero entries break primitivity
    La = build_pee(pd_rules([0.7, 0, 0, 0], [0.6, 0.5, 0.4, 0]))
    report_a = analyze(La)
    ok_a = not report_a.primitive and report_a.stationary is None

    # (b) a designed row that degenerates to "repeat my move" plus a
    # switching opponent: the chain is periodic, so the power limit fails
    game = GameSpec(k=(2, 2), payoffs=np.tile(np.arange(4.0), (2, 1)))
    rel = LinearRelation((1.0, -1.0), 0.0)
    row = design_row(game, 1, 1, rel.row(game), 0.5)
    a = ZDAssignment(designer=1, rows=[row, 1.0 - row], relations=((1, rel, 0.5),))
    report_b = verify_effectiveness(game, a, {2: build_rule(
        2, [[0, 1, 0, 1], [1, 0, 1, 0]])})
    ok_b = (not report_b.effective) and (not report_b.limit_ok)

    # (c) same designer against an always-uniform opponent: the chain splits
    # into two independent blocks, so the rank condition fails
    report_c = verify_effectiveness(game, a, {2: build_rule(
        2, np.full((2, 4), 0.5))})
    Lc = build_pee([a.as_rule(), build_rule(2, np.full((2, 4), 0.5))])
    ok_c = ((not report_c.effective) and (not report_c.rank_ok)
            and rank_defect(Lc) == 2)

    verdict(7, "non-primitive boundary chain, periodic chain (limit "
               "failure), and two-block chain (rank failure) all reported "
               "ineffective without crashing", ok_a and ok_b and ok_c)


# -- 8: adjugate of L - I is rank one with columns along u ------------------


def test_08_adjugate_rank_one_columns():
    rng = np.random.default_rng(108)
    ok = True
    for n in (4, 6):
        drawn = 0
        while drawn < 50:
            w = rng.uniform(0.05, 1.0, size=(n, n))
            L = w / w.sum(axis=0)
            if not is_primitive(L)[0]:
                continue
            drawn += 1
            adj = adjugate(L - np.eye(n))
            svals = np.linalg.svd(adj, compute_uv=False)
            ok = ok and svals[0] > 1e-12 and svals[1] < 1e-9 * svals[0]
            ok = ok and np.all(np.max(np.abs(adj), axis=0) > 1e-12)
            u = nullspace_stationary(L)
            for j in range(n):
                ratio = adj[:, j] / u
                ok = ok and abs(ratio[0]) > 1e-12
                ok = ok and (ratio.max() - ratio.min()) < 1e-6 * abs(ratio[0])
    verdict(8, "adjugate of L - I has rank 1, no zero column, and columns "
               "proportional to the stationary vector on 100 random chains", ok)


# -- 9: network reduction to a fictitious opponent --------------------------


def test_09_network_reduction_golden():
    T, R, P, S = 5.0, 3.0, 1.0, 0.0
    net = NetworkGame(
        nodes=("A", "B", "C", "D", "E"),
        edges=(("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
               ("C", "D"), ("C", "E")),
        base_payoff=np.array([[R, S], [T, P]]),
    )
    want = {
        "A": (3, [2 * R, R + S, 2 * S, 2 * T, T + P, 2 * P],
              [2 * R, R + T, 2 * T, 2 * S, S + P, 2 * P]),
        "B": (4, [3 * R, 2 * R + S, R + 2 * S, 3 * S,
                  3 * T, 2 * T + P, T + 2 * P, 3 * P],
              [3 * R, 2 * R + T, R + 2 * T, 3 * T,
               3 * S, 2 * S + P, S + 2 * P, 3 * P]),
        "C": (5, [4 * R, 3 * R + S, 2 * R + 2 * S, R + 3 * S, 4 * S,
                  4 * T, 3 * T + P, 2 * T + 2 * P, T + 3 * P, 4 * P],
              [4 * R, 3 * R + T, 2 * R + 2 * T, R + 3 * T, 4 * T,
               4 * S, 3 * S + P, 2 * S + 2 * P, S + 3 * P, 4 * P]),
    }
    ok = True
    for node, (size, v_focal, v_fop) in want.items():
        fop = reduce_to_fop(net, node)
        degree = net.degrees[net.position[node]]
        ok = ok and len(opponent_strategy_set(2, degree)) == size
        ok = ok and np.array_equal(fop.game.payoffs[0], v_focal)
        ok = ok and np.array_equal(fop.game.payoffs[1], v_fop)

    # end-to-end: pin the fictitious opponent of node A to payoff 2
    fop_a = reduce_to_fop(net, "A")
    row = design_row(fop_a.game, 1, 1, LinearRelation.pinning(2, 2, 2.0).row(fop_a.game),
                     -1 / 16)
    assignment = ZDAssignment(designer=1, rows=[row, 1.0 - row], relations=(
        (1, LinearRelation.pinning(2, 2, 2.0), -1 / 16),))
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        report = verify_effectiveness(
            fop_a.game, assignment, {2: random_interior_rule(rng, 2, 3, 6)})
        ok = ok and report.rational and report.effective
        worst = max(worst, max(report.residuals))
        ok = ok and abs(report.expected_payoffs[1] - 2.0) < 1e-8
    verdict(9, f"reduced payoff vectors for the three hub nodes exact, "
               f"opponent sizes 3/4/5, node-A pinning residual "
               f"{worst:.2e} < 1e-8 on 20 random behaviors", ok and worst < 1e-8)


# -- 10: million-step simulation reproduces the designed relations ----------


def _sharp_interior_rule(rng, player, k, kappa):
    # strongly peaked but strictly interior columns: keeps the stationary
    # payoffs far from the reference value, so the relative gap of the
    # relation check is well-conditioned against sampling noise
    w = rng.uniform(0.02, 1.0, size=(k, kappa)) ** 6
    w = np.maximum(w / w.sum(axis=0), 0.02)
    return build_rule(player, w / w.sum(axis=0))


def test_10_monte_carlo_extortion_relations():
    game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    assignment = assemble(game, 2, EXTORTION_DESIGN)
    rng = np.random.default_rng(288)
    opponents = {1: _sharp_interior_rule(rng, 1, 2, 12),
                 3: _sharp_interior_rule(rng, 3, 2, 12)}
    L = build_pee([opponents[1], assignment.as_rule(), opponents[3]])
    t0 = time.perf_counter()
    traj = simulate(L, x0=1, steps=1_000_000, seed=110, game=game)
    elapsed = time.perf_counter() - t0
    ec = traj.expected_payoffs
    gaps = []
    for target, factor in ((1, 1.1), (3, 1.2)):
        lhs = ec[1] - 1.0
        rhs = factor * (ec[target - 1] - 1.0)
        gaps.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    verdict(10, f"million-step simulation satisfies both extortion relations "
                f"(relative gaps {gaps[0]:.2%}, {gaps[1]:.2%} < 1%, "
                f"{elapsed:.1f} s < 30 s)",
            max(gaps) < 0.01 and elapsed < 30.0)
