"""Monte-Carlo simulation of the profile chain, independent of the eigen-solver.

The chain is sampled state by state from the columns of the transition
matrix with a seeded generator (numpy PCG64), so runs are reproducible from
(seed, inputs) alone.  Each step is one ``bisect_right`` of a uniform draw in
the current column of the cumulative matrix, kept as Python lists; it probes
the same midpoints with the same test as ``np.searchsorted(side="right")``,
so it returns the same state even on a column made non-monotone by entries in
[-POSITIVITY_TOL, 0).  Draws are taken DRAW_CHUNK at a time, which continues
the stream of a single ``rng.random(steps)`` call.  The first tenth of each
run is discarded as burn-in before empirical statistics are taken.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .games import GameSpec
from .markov import check_stochastic

# Draws are taken and walked this many at a time, which bounds the Python
# floats alive at once.
DRAW_CHUNK = 4096


@dataclass(frozen=True)
class Trajectory:
    seed: int
    length: int
    states: np.ndarray  # visited profile indices (1-based), post burn-in
    empirical: np.ndarray  # distribution over 1..kappa
    expected_payoffs: tuple | None  # per player, if a game was supplied

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "T": self.length,
            "empirical": list(self.empirical),
            "expected_payoffs": None if self.expected_payoffs is None
            else list(self.expected_payoffs),
        }


def simulate(L, x0: int, steps: int, seed: int,
             game: GameSpec | None = None,
             burn_in: int | None = None) -> Trajectory:
    """Sample a trajectory of the profile chain starting from profile x0."""
    m = check_stochastic(L)
    kappa = m.shape[0]
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not 1 <= x0 <= kappa:
        raise DomainError(f"initial profile {x0} outside 1..{kappa}")
    if burn_in is None:
        burn_in = steps // 10

    cum = np.cumsum(m, axis=0)
    cum[-1, :] = 1.0  # guard against rounding in the last bin
    columns = cum.T.tolist()
    rng = np.random.default_rng(seed)
    states = np.empty(steps, dtype=np.int64)
    s = x0 - 1
    for start in range(0, steps, DRAW_CHUNK):
        draws = rng.random(min(DRAW_CHUNK, steps - start)).tolist()
        chunk = []
        for u in draws:
            s = bisect_right(columns[s], u)
            chunk.append(s)
        states[start:start + len(chunk)] = chunk
    kept = states[burn_in:]
    counts = np.bincount(kept, minlength=kappa)
    empirical = counts / counts.sum()
    payoffs = None
    if game is not None:
        payoffs = tuple(float(v) for v in game.payoffs @ empirical)
    return Trajectory(seed=seed, length=steps, states=kept + 1,
                      empirical=empirical, expected_payoffs=payoffs)


def compare_empirical_vs_exact(traj: Trajectory, u, payoff_vectors=None,
                               z: float = 3.0) -> dict:
    """Per-profile and per-player deviations of a trajectory from the exact chain.

    Profile deviations are judged against z binomial standard errors at the
    effective sample size; payoff gaps are reported both absolute and
    relative to the exact value.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != traj.empirical.shape[0]:
        raise DomainError(
            f"exact distribution has {u.shape[0]} entries, trajectory has "
            f"{traj.empirical.shape[0]}"
        )
    n = traj.states.shape[0]
    dev = traj.empirical - u
    sigma = np.sqrt(np.maximum(u * (1.0 - u), 1e-300) / n)
    within = np.abs(dev) <= z * sigma
    report = {
        "T": traj.length,
        "seed": traj.seed,
        "empirical": list(traj.empirical),
        "exact": list(u),
        "profile_deviation": list(dev),
        "z_threshold": z,
        "pass": bool(within.all()),
    }
    if payoff_vectors is not None:
        V = np.asarray(payoff_vectors, dtype=float)
        exact_pay = V @ u
        emp_pay = V @ traj.empirical
        gaps = emp_pay - exact_pay
        report["payoff_gaps"] = list(gaps)
        report["payoff_relative_gaps"] = [
            float(abs(g) / max(abs(e), 1e-300)) for g, e in zip(gaps, exact_pay)
        ]
    return report
