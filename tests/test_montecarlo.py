import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from zdkit import (
    DomainError,
    GameSpec,
    ValidationError,
    build_pee,
    build_rule,
    assemble,
    compare_empirical_vs_exact,
    simulate,
)
from zdkit.markov import nullspace_stationary
from zdkit import montecarlo
from zdkit.montecarlo import DRAW_CHUNK, guide_table
from conftest import EXTORTION_DESIGN, EXTORTION_PAYOFFS, random_stochastic
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


def _buckets(kappa):
    return 1 << (4 * kappa - 1).bit_length()  # smallest power of two >= 4 kappa


@pytest.mark.parametrize("kappa", [3, 12, 64, 256])
@pytest.mark.parametrize("kind", WALK_KINDS)
def test_walk_matches_searchsorted_reference(kind, kappa, monkeypatch):
    rng = np.random.default_rng([kappa, WALK_KINDS.index(kind)])
    L = _walk_chain(rng, kind, kappa)
    if kind == "overshoot":
        assert (np.cumsum(L, axis=0)[-2] > 1.0).all()
    used = []
    monkeypatch.setattr(montecarlo, "guide_table",
                        lambda cum, G: used.append(G) or guide_table(cum, G))
    x0 = kappa // 2 + 1
    full = kappa * _buckets(kappa)  # the shortest run with the full table
    for steps in (1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
                  3 * DRAW_CHUNK + 7, full - 1, full):
        seed = int(rng.integers(2 ** 32))
        used.clear()
        traj = simulate(L, x0=x0, steps=steps, seed=seed, burn_in=0)
        # the finest power-of-two table with at most max(steps, kappa) entries
        [G] = used
        assert G & (G - 1) == 0 and G <= _buckets(kappa)
        assert kappa * G <= max(steps, kappa)
        assert G == _buckets(kappa) or 2 * kappa * G > steps
        np.testing.assert_array_equal(
            traj.states, _searchsorted_walk(L, x0, steps, seed))


def _dyadic_chain(rng, kappa):
    """Entries that are multiples of 1/G, so every cumulative sum is a bucket
    edge g/G of the full table."""
    G = _buckets(kappa)
    cuts = np.sort(rng.integers(0, G + 1, size=(kappa - 1, kappa)), axis=0)
    edges = np.vstack([np.zeros(kappa), cuts, np.full(kappa, G)])
    return np.diff(edges, axis=0) / G


@pytest.mark.parametrize("coarse", [1, 8, None])  # G = full / coarse, or 1
@pytest.mark.parametrize("kappa", [2, 12, 64])
@pytest.mark.parametrize("kind", WALK_KINDS + ("dyadic",))
def test_guide_table_entries_equal_bisect_across_each_bucket(kind, kappa, coarse):
    rng = np.random.default_rng([kappa, 7, len(kind)])
    L = _dyadic_chain(rng, kappa) if kind == "dyadic" else _walk_chain(rng, kind, kappa)
    cum = np.cumsum(L, axis=0)
    cum[-1, :] = 1.0
    G = _buckets(kappa) // coarse if coarse else 1
    guide = guide_table(cum, G)
    assert guide.shape == (kappa, G)
    lo = np.arange(G) / G
    hi = np.nextafter((np.arange(G) + 1) / G, 0)  # the last u in each bucket
    for s in range(kappa):
        column = cum[:, s].tolist()
        if (np.diff(cum[:, s]) < 0).any():
            assert (guide[s] == -1).all()
            continue
        for g in np.flatnonzero(guide[s] >= 0):
            assert guide[s, g] == bisect_right(column, lo[g]) == bisect_right(
                column, hi[g])
        # a bucket is left to bisect only when one of the kappa boundaries
        # lies inside it or on its upper edge
        assert (guide[s] == -1).sum() <= kappa
        assert guide[s, -1] == -1  # the boundary 1.0 ends the last bucket
    if kind == "dyadic" and coarse == 1:
        assert (cum * G == np.round(cum * G)).all()
        assert (guide >= 0).mean() > 0.5


def test_acceptance_chain_trajectory_digest():
    # the acceptance-10 run; digest taken from the per-step searchsorted walk,
    # so any change to the draw stream or to the walk fails here
    game = GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)
    assignment = assemble(game, 2, EXTORTION_DESIGN)
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


def _peaks(L, *steps):
    """Peak traced memory of one run of each length."""
    simulate(L, x0=1, steps=2 * DRAW_CHUNK, seed=1)  # warm up
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        peaks = []
        for n in steps:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate(L, x0=1, steps=n, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if started:
            tracemalloc.stop()
    return peaks


def test_walk_memory_per_step():
    # the int64 states array plus its post-burn-in copy is ~15 bytes per
    # step; holding every draw at once (as floats or a Python list) is more
    rng = np.random.default_rng(46)
    L = random_stochastic(rng, 12)
    steps = 200_000
    [peak] = _peaks(L, steps)
    assert peak / steps <= 24


def test_walk_memory_per_step_with_the_largest_table():
    # a table of exactly `steps` entries (G = 1024, the full one is 2048) is
    # 8 bytes per step beside the states, and is freed before their copy;
    # a table of its own int objects, one per entry above 256 (the ints
    # Python caches), is more.  The kappa^2 columns, the peak of a one-step
    # run, are left out.
    kappa = 300
    rng = np.random.default_rng(46)
    L = random_stochastic(rng, kappa)
    L[:256] = 0.0  # move to states 257.. only, so most entries are > 256
    L /= L.sum(axis=0)
    steps = kappa * 1024
    one, peak = _peaks(L, 1, steps)
    assert (peak - one) / steps <= 24
