import tracemalloc

import numpy as np
import pytest

from zdkit import (
    DomainError,
    GameSpec,
    ValidationError,
    build_pee,
    build_rule,
    compare_empirical_vs_exact,
    design_extortion,
    simulate,
)
from zdkit.markov import nullspace_stationary
from zdkit.montecarlo import DRAW_CHUNK
from conftest import EXTORTION_PAYOFFS, random_stochastic
from test_acceptance import _sharp_interior_rule


def test_same_seed_identical_trajectories():
    rng = np.random.default_rng(40)
    L = random_stochastic(rng, 4)
    a = simulate(L, x0=1, steps=5000, seed=99)
    b = simulate(L, x0=1, steps=5000, seed=99)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.empirical, b.empirical)


def test_deterministic_chain_follows_functional_orbit():
    # 1 -> 2 -> 3 -> 1 cycle as a logical transition matrix
    L = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    traj = simulate(L, x0=1, steps=9, seed=0, burn_in=0)
    np.testing.assert_array_equal(traj.states, [2, 3, 1, 2, 3, 1, 2, 3, 1])


def test_empirical_distribution_near_stationary():
    rng = np.random.default_rng(41)
    L = random_stochastic(rng, 4)
    u = nullspace_stationary(L)
    traj = simulate(L, x0=1, steps=200000, seed=7)
    report = compare_empirical_vs_exact(traj, u, z=4.0)
    assert report["pass"]


def test_deviation_decreases_with_horizon():
    rng = np.random.default_rng(42)
    L = random_stochastic(rng, 5)
    u = nullspace_stationary(L)
    errs = []
    for steps in (10 ** 4, 10 ** 5, 10 ** 6):
        traj = simulate(L, x0=1, steps=steps, seed=11)
        errs.append(float(np.max(np.abs(traj.empirical - u))))
    assert errs[0] > errs[1] > errs[2]


def test_expected_payoffs_from_game():
    payoffs = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
    game = GameSpec(k=(2, 2), payoffs=payoffs)
    rng = np.random.default_rng(43)
    L = random_stochastic(rng, 4)
    traj = simulate(L, x0=2, steps=20000, seed=3, game=game)
    expect = payoffs @ traj.empirical
    np.testing.assert_allclose(traj.expected_payoffs, expect, atol=1e-12)


def test_simulate_input_validation():
    L = np.eye(3)
    with pytest.raises(DomainError):
        simulate(L, x0=0, steps=10, seed=1)
    with pytest.raises(DomainError):
        simulate(L, x0=1, steps=0, seed=1)
    bad = np.eye(3).copy()
    bad[0, 0] = 0.7
    with pytest.raises(ValidationError):
        simulate(bad, x0=1, steps=10, seed=1)


def test_compare_flags_wrong_distribution():
    rng = np.random.default_rng(44)
    L = random_stochastic(rng, 4)
    traj = simulate(L, x0=1, steps=100000, seed=5)
    wrong = np.array([0.7, 0.1, 0.1, 0.1])
    assert not compare_empirical_vs_exact(traj, wrong, z=4.0)["pass"]


def test_compare_reports_payoff_gaps():
    rng = np.random.default_rng(45)
    L = random_stochastic(rng, 4)
    u = nullspace_stationary(L)
    traj = simulate(L, x0=1, steps=100000, seed=6)
    payoffs = np.array([[1.0, 2.0, 3.0, 4.0]])
    report = compare_empirical_vs_exact(traj, u, payoff_vectors=payoffs, z=4.0)
    assert "payoff_gaps" in report
    assert report["payoff_relative_gaps"][0] < 0.05


# -- the chunked bisect walk against the per-step searchsorted walk ---------


def _searchsorted_walk(L, x0, steps, seed):
    """Reference: one np.searchsorted per step on one column of the cumsum."""
    cum = np.cumsum(L, axis=0)
    cum[-1, :] = 1.0
    draws = np.random.default_rng(seed).random(steps)
    states = np.empty(steps, dtype=np.int64)
    s = x0 - 1
    for t in range(steps):
        s = int(np.searchsorted(cum[:, s], draws[t], side="right"))
        states[t] = s
    return states + 1


def _walk_chain(rng, kind, kappa):
    cols = np.arange(kappa)
    if kind == "interior":
        return random_stochastic(rng, kappa)
    if kind == "zeros":
        w = rng.uniform(0.05, 1.0, (kappa, kappa)) * (rng.random((kappa, kappa)) < 0.4)
        w[rng.integers(kappa, size=kappa), cols] += 0.5
        return w / w.sum(axis=0)
    if kind == "logical":
        L = np.zeros((kappa, kappa))
        L[rng.integers(kappa, size=kappa), cols] = 1.0
        return L
    if kind == "tiny_negative":
        # entries in [-1e-12, 0), balanced by each column's largest entry
        L = random_stochastic(rng, kappa)
        neg = rng.random((kappa, kappa)) < 0.3
        L[neg] = -rng.uniform(1e-14, 1e-12, size=int(neg.sum()))
        top = L.argmax(axis=0)
        L[top, cols] += 1.0 - L.sum(axis=0)
        return L
    if kind == "overshoot":
        # mass on the upper rows only and a negative last entry, so every
        # column's cumsum passes 1.0 before the last row
        L = np.zeros((kappa, kappa))
        h = kappa // 2 + 1
        L[:h] = random_stochastic(rng, kappa)[:h]
        L[:h] /= L[:h].sum(axis=0)
        L[-1] = -5e-13
        L[0] += 5e-13
        return L
    raise AssertionError(kind)


WALK_KINDS = ("interior", "zeros", "logical", "tiny_negative", "overshoot")


@pytest.mark.parametrize("kappa", [3, 12, 64, 256])
@pytest.mark.parametrize("kind", WALK_KINDS)
def test_walk_matches_searchsorted_reference(kind, kappa):
    rng = np.random.default_rng([kappa, WALK_KINDS.index(kind)])
    L = _walk_chain(rng, kind, kappa)
    if kind == "overshoot":
        assert (np.cumsum(L, axis=0)[-2] > 1.0).all()
    x0 = kappa // 2 + 1
    for steps in (1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
                  3 * DRAW_CHUNK + 7):
        seed = int(rng.integers(2 ** 32))
        traj = simulate(L, x0=x0, steps=steps, seed=seed, burn_in=0)
        np.testing.assert_array_equal(
            traj.states, _searchsorted_walk(L, x0, steps, seed))


def test_acceptance_chain_trajectory_digest():
    # the acceptance-10 run; digest taken from the per-step searchsorted walk,
    # so any change to the draw stream or to the walk fails here
    game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    assignment = design_extortion(game, i=2, reference=1.0,
                                  targets={1: 1.1, 3: 1.2},
                                  mus={1: 0.05, 3: 0.1}, rows={1: 1, 3: 2})
    rng = np.random.default_rng(288)
    opponents = {1: _sharp_interior_rule(rng, 1, 2, 12),
                 3: _sharp_interior_rule(rng, 3, 2, 12)}
    L = build_pee([opponents[1], assignment.as_rule(), opponents[3]])
    states = simulate(L, x0=1, steps=1_000_000, seed=110, game=game).states
    assert states.shape == (900_000,)
    assert int(states.sum()) == 8700229
    assert states[:5].tolist() == [10, 10, 12, 10, 12]
    assert states[-5:].tolist() == [12, 12, 12, 6, 4]
    assert np.bincount(states, minlength=13)[1:].tolist() == [
        14834, 9041, 11648, 20236, 19074, 10592, 6878, 176610, 8464,
        302606, 10963, 309054]


def test_walk_memory_per_step():
    # the int64 states array plus its post-burn-in copy is ~15 bytes per
    # step; holding every draw at once (as floats or a Python list) is more
    rng = np.random.default_rng(46)
    L = random_stochastic(rng, 12)
    steps = 200_000
    simulate(L, x0=1, steps=2 * DRAW_CHUNK, seed=1)  # warm up
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        simulate(L, x0=1, steps=steps, seed=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / steps <= 24
