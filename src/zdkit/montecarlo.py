"""Monte-Carlo simulation of the profile chain, independent of the eigen-solver.

The chain is sampled state by state from the columns of the transition
matrix with a seeded generator (numpy PCG64), so runs are reproducible from
(seed, inputs) alone.  Draws are taken DRAW_CHUNK at a time, which continues
the stream of a single ``rng.random(steps)`` call.  The first tenth of each
run is discarded as burn-in before empirical statistics are taken.

A step goes from state s to ``bisect_right(column_s, u)`` for a uniform draw
u, where column_s is column s of the cumulative matrix, kept as a Python
list.  bisect probes the same midpoints with the same test as
``np.searchsorted(side="right")``, so it returns the same state even on a
column made non-monotone by entries in [-POSITIVITY_TOL, 0).

Most steps skip the bisect through a guide table (Chen & Asau 1974; Devroye
1986, sec. III.2.4), built once per run by ``guide_table``.  G is a power of
two, so ``u * G`` is exact and its integer part g is the exact bucket
[g/G, (g+1)/G) of u.  On a non-decreasing column ``bisect_right`` is
non-decreasing in u, so where it takes the same value at both ends of a
bucket it takes it at every u inside, and the table holds that value;
everywhere else, and on every column that is not non-decreasing, it holds -1
and the step bisects.  So every step returns the state the bisect returns,
for every draw, whatever G is.

G is the smallest power of two >= 4 kappa, which leaves at most one bucket
in four to bisect (a column has kappa boundaries), halved until the table has at most
``steps`` entries (down to 1, where every step bisects), so neither building
nor holding the table outgrows the run.  kappa = 64 gets the full table
(G = 256) from 16,384 steps, kappa = 256 (G = 1024) from 262,144.  A coarse
table answers few steps and still costs its lookup on every step, so short
runs at large kappa are slower than a plain bisect walk would be.

Memory: the cumulative columns (kappa^2 Python floats) are fixed per run.
The table has at most max(steps, kappa) entries of 8 bytes, pointers to
kappa + 1 shared ints, and is freed before the post-burn-in copy is made, so
beyond the columns a run peaks at about 16 bytes per step: the int64 states
with the table, or the states with their copy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .games import GameSpec
from .markov import _matrix_of, check_stochastic

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


def guide_table(cum: np.ndarray, G: int) -> np.ndarray:
    """The kappa x G guide table of a cumulative matrix; G a power of two.

    Entry [s, g] is bisect_right(cum[:, s], u) for every u in [g/G, (g+1)/G),
    or -1 (see the module docstring).  On a non-decreasing column that count
    at g/G is the number of boundaries c with ceil(c * G) <= g.
    """
    kappa = cum.shape[0]
    # column s counts its boundaries in slots s * (G + 1) .. s * (G + 1) + G
    slots = np.clip(np.ceil(cum * G), 0, G).astype(np.intp)
    slots += np.arange(kappa) * (G + 1)
    below = np.bincount(slots.ravel(), minlength=kappa * (G + 1))
    below = below.reshape(kappa, G + 1).cumsum(axis=1)  # [s, g]: count at g/G
    guide = np.where(below[:, :-1] == below[:, 1:], below[:, :-1], -1)
    guide[(np.diff(cum, axis=0) < 0).any(axis=0)] = -1
    return guide


def simulate(L, x0: int, steps: int, seed: int,
             game: GameSpec | None = None) -> Trajectory:
    """Sample a trajectory of the profile chain starting from profile x0."""
    m = _matrix_of(L)
    check_stochastic(m)
    kappa = m.shape[0]
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not 1 <= x0 <= kappa:
        raise DomainError(f"initial profile {x0} outside 1..{kappa}")

    cum = np.cumsum(m, axis=0)
    cum[-1, :] = 1.0  # guard against rounding in the last bin
    columns = cum.T.tolist()
    G = 1 << (4 * kappa - 1).bit_length()
    while G > 1 and kappa * G > steps:
        G //= 2
    # values[-1] is -1; indexing it shares kappa + 1 int objects, where
    # tolist() would make a new one for every entry above 256
    values = np.array([*range(kappa), -1], dtype=object)
    guide = values[guide_table(cum, G)].tolist()
    rng = np.random.default_rng(seed)
    try:
        states = np.empty(steps, dtype=np.int64)
    except ValueError:  # numpy refuses the size before allocating
        raise DomainError(f"steps = {steps} is more than one array can hold") from None
    s = x0 - 1
    for start in range(0, steps, DRAW_CHUNK):
        u = rng.random(min(DRAW_CHUNK, steps - start))
        chunk = []
        for x, g in zip(u.tolist(), (u * G).astype(np.intp).tolist()):
            t = guide[s][g]
            s = t if t >= 0 else bisect_right(columns[s], x)
            chunk.append(s)
        states[start:start + u.size] = np.fromiter(chunk, np.int64, u.size)
    del guide  # before the post-burn-in copy, so the two never add up
    kept = states[steps // 10:]
    counts = np.bincount(kept, minlength=kappa)
    empirical = counts / counts.sum()
    payoffs = None
    if game is not None:
        payoffs = tuple(float(v) for v in game.payoffs @ empirical)
    return Trajectory(seed=seed, length=steps, states=kept + 1,
                      empirical=empirical, expected_payoffs=payoffs)


def compare_empirical_vs_exact(traj: Trajectory, u, payoff_vectors=None, *,
                               z: float) -> dict:
    """Per-profile and per-player deviations of a trajectory from the exact chain.

    Profile deviations are judged against z binomial standard errors at the
    raw post-burn-in step count (no autocorrelation correction); payoff
    gaps are reported both absolute and relative to the exact value.  The
    trajectory's own seed, length and distribution are Trajectory.to_json's.
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
        "exact": list(u),
        "profile_deviation": list(dev),
        "z_threshold": z,
        "pass": bool(within.all()),
    }
    if payoff_vectors is not None:
        V = np.asarray(payoff_vectors, dtype=float)
        # a gap that overflows is reported by name when the report is written
        with np.errstate(over="ignore", invalid="ignore"):
            exact_pay = V @ u
            emp_pay = V @ traj.empirical
            gaps = emp_pay - exact_pay
            report["payoff_gaps"] = list(gaps)
            report["payoff_relative_gaps"] = [
                float(abs(g) / max(abs(e), 1e-300)) for g, e in zip(gaps, exact_pay)
            ]
    return report
