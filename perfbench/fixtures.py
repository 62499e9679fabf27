"""Seeded fixture generators, one per workload.

Each generator takes the workload seed, a size ("full" or "tiny") and a
work directory.  It writes the inputs in the CLI's own game, assignment,
rules and network JSON formats and returns a Workload.  Workload.op(i) gives
the argv of the i-th `zdkit` call, the units of work it finishes, its output
files and the check of those outputs.  The same seed gives the same files
and the same op sequence; the program only ever sees these files.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

BASE_PD = np.array([[3.0, 0.0], [5.0, 1.0]])  # prisoner's dilemma R, S / T, P


@dataclass(frozen=True)
class Op:
    argv: list
    units: int
    outputs: list  # files the call writes
    check: Callable[[int], None]  # exit code -> raises checks.CheckFailed


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    dominant: str  # module expected to hold the largest self-time share
    op: Callable[[int], Op]


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def profiles(k) -> np.ndarray:
    """(kappa, n) array of 1-based strategies, last player's index fastest."""
    return np.array(list(itertools.product(*(range(1, v + 1) for v in k))))


def interior_rule(rng, k, kappa):
    w = rng.uniform(0.1, 1.0, size=(k, kappa))
    return w / w.sum(axis=0)


def logical_rule(nxt, k):
    """Deterministic rule: after profile s the player plays nxt[s] (1-based)."""
    m = np.zeros((k, len(nxt)))
    m[np.asarray(nxt) - 1, np.arange(len(nxt))] = 1.0
    return m


def _game_doc(k, payoffs):
    return {"players": len(k), "strategy_counts": list(k),
            "payoffs": payoffs.tolist()}


def _rules_doc(rules: dict):
    return {"rules": {str(p): m.tolist() for p, m in rules.items()}}


def pinned_design(rng, k, designer, pins):
    """Payoffs plus a rational designed rule that pins the given players.

    pins maps a target player to (designed row, pinned value).  The target's
    payoff minus the pin, w, is negative where the designer plays that row
    and positive elsewhere, small where another designed row is played.
    Then mu = 1 / (2 max|w|), the CLI's mu=auto choice for this sign
    pattern, keeps each designed row and their sum inside [0, 1].
    Returns (payoffs, assignment doc, full designer rule).
    """
    P = profiles(k)
    kappa = len(P)
    plays = P[:, designer - 1]
    payoffs = rng.uniform(-1.0, 3.0, size=(len(k), kappa))
    rows = np.zeros((k[designer - 1], kappa))
    relations = []
    used = [row for row, _ in pins.values()]
    for target, (row, value) in sorted(pins.items()):
        own = plays == row
        other = np.isin(plays, [r for r in used if r != row])
        w = rng.uniform(0.2, 1.5, kappa)
        w[own] = -rng.uniform(1.0, 1.5, own.sum())
        w[other] = rng.uniform(0.2, 0.5, other.sum())
        payoffs[target - 1] = value + w
        mu = 0.5 / np.abs(w).max()
        rows[row - 1] = mu * w + own
        coeffs = [0.0] * len(k)
        coeffs[target - 1] = 1.0
        relations.append({"coeffs": coeffs, "constant": -value, "mu": mu,
                          "row_index": row})
    free = [j for j in range(k[designer - 1]) if j + 1 not in used]
    rows[free] = (1.0 - rows.sum(axis=0)) / len(free)
    checks.check_rational_rows(rows, "fixture design")
    doc = {"designer": designer, "relations": relations, "rows": rows.tolist()}
    return payoffs, doc, rows


# ---------------------------------------------------------------------------
# verify-dense: a kappa=256 designed game verified against fresh interior
# opponents, so dense markov (power limit, two SVDs) does the work.

VERIFY_SIZES = {"full": (4, 8, 8), "tiny": (2, 3, 3)}


def verify_dense(seed, size, work) -> Workload:
    rng = np.random.default_rng([seed, 1])
    k = VERIFY_SIZES[size]
    pins = {1: (1, float(rng.uniform(1, 3))), 3: (2, float(rng.uniform(1, 3)))}
    payoffs, assignment, _ = pinned_design(rng, k, 2, pins)
    game = _write(os.path.join(work, "game.json"), _game_doc(k, payoffs))
    assign = _write(os.path.join(work, "assignment.json"), assignment)
    out = os.path.join(work, "verify.json")
    values = {p: v for p, (_, v) in pins.items()}

    def op(i):
        # blocks of five ops, four with one trial and one with two, in
        # seeded order: the median lands inside the one-trial ops and p90 in
        # the middle of the two-trial ones, away from either cluster's tail
        block = np.random.default_rng([seed, 2, i // 5]).permutation([1, 1, 1, 1, 2])
        trials = int(block[i % 5])
        argv = ["verify", "--game", game, "--assignment", assign,
                "--random-opponents", str(trials),
                "--seed", str(seed * 1_000_003 + i), "--out", out]
        return Op(argv, trials, [out],
                  lambda code: checks.check_verify(_read(out), code, trials,
                                                   values))

    return Workload("verify-dense", "trials", "markov", op)


# ---------------------------------------------------------------------------
# analyze-sparse: kappa=48 chains of every verdict kind, so the pattern side
# of markov (primitivity) runs on cheap primitive and costly other chains.

ANALYZE_SIZES = {"full": (3, 4, 4), "tiny": (2, 2, 3)}
# sixteen primitive chains and four that are not, at a fixed share: the
# median lands inside the primitive ones (their 62nd percentile) and p90 in
# the middle of the others, away from either cluster's tail
ANALYZE_KINDS = ["interior"] * 8 + ["one_logical"] * 8 + [
    "one_periodic", "two_transient", "cycle", "several_closed"]


def _chain_rules(rng, kind, k):
    P = profiles(k)
    kappa, n = P.shape
    rules = [interior_rule(rng, v, kappa) for v in k]
    if kind == "one_logical":
        # player 1's next move is a function that, for each current move of
        # player 1, hits every strategy: two steps reach every profile
        nxt = np.empty(kappa, dtype=int)
        for x in range(1, k[0] + 1):
            idx = rng.permutation(np.flatnonzero(P[:, 0] == x))
            nxt[idx] = rng.integers(1, k[0] + 1, len(idx))
            nxt[idx[:k[0]]] = np.arange(1, k[0] + 1)
        rules[0] = logical_rule(nxt, k[0])
    elif kind == "one_periodic":
        rules[0] = logical_rule(P[:, 0] % k[0] + 1, k[0])  # cycles, period k1
    elif kind == "two_transient":
        # player 1 never moves to its last strategy: profiles where it plays
        # that strategy are transient, so the chain is not irreducible
        rules[0] = logical_rule(rng.integers(1, k[0], kappa), k[0])
        rules[1] = logical_rule(rng.integers(1, k[1] + 1, kappa), k[1])
    elif kind in ("cycle", "several_closed"):
        order = rng.permutation(kappa)
        f = np.empty(kappa, dtype=int)
        if kind == "cycle":
            f[order] = np.roll(order, -1)  # one kappa-cycle, period kappa
        else:
            # two to four disjoint cycles on the first profiles of the order;
            # every later profile feeds into an earlier one (transient trees)
            top = max(2, kappa // 8)
            start = 0
            for length in rng.integers(1, top + 1, int(rng.integers(2, 5))):
                seg = order[start:start + length]
                f[seg] = np.roll(seg, -1)
                start += length
            for pos in range(start, kappa):
                f[order[pos]] = order[rng.integers(0, pos)]
        nxt = P[f]  # next profile's strategies, player by player
        rules = [logical_rule(nxt[:, i], k[i]) for i in range(n)]
    return rules


def analyze_sparse(seed, size, work) -> Workload:
    rng = np.random.default_rng([seed, 3])
    k = ANALYZE_SIZES[size]
    corpus = []
    for c, kind in enumerate(rng.permutation(ANALYZE_KINDS)):
        rules = _chain_rules(rng, kind, k)
        path = _write(os.path.join(work, f"rules_{c}.json"),
                      _rules_doc(dict(enumerate(rules, start=1))))
        L = checks.transition_matrix(rules)
        corpus.append((path, L, checks.chain_structure(L)))
    out = os.path.join(work, "analyze.json")

    def op(i):
        path, L, facts = corpus[i % len(corpus)]
        return Op(["analyze", "--rules", path, "--out", out], 1, [out],
                  lambda code: checks.check_analyze(_read(out), code, L, facts))

    return Workload("analyze-sparse", "chains", "markov", op)


# ---------------------------------------------------------------------------
# simulate-mc: Monte-Carlo runs of one kappa=64 designed chain, so the step
# loop does the work and markov runs once per op at a small size.

SIMULATE_SIZES = {"full": ((4, 4, 4), 20000), "tiny": ((2, 3, 2), 2000)}
SIGMAS = 8.0  # simulate-mc bounds, in asymptotic standard errors


def simulate_mc(seed, size, work) -> Workload:
    rng = np.random.default_rng([seed, 4])
    k, mean_steps = SIMULATE_SIZES[size]
    value = float(rng.uniform(1, 3))
    payoffs, assignment, designed = pinned_design(rng, k, 2, {1: (1, value)})
    kappa = designed.shape[1]
    rules = {1: interior_rule(rng, k[0], kappa), 3: interior_rule(rng, k[2], kappa)}
    game = _write(os.path.join(work, "game.json"), _game_doc(k, payoffs))
    assign = _write(os.path.join(work, "assignment.json"), assignment)
    rfile = _write(os.path.join(work, "rules.json"), _rules_doc(rules))
    L = checks.transition_matrix([rules[1], designed, rules[3]])
    pi = checks.stationary(L)
    if abs(payoffs[0] @ pi - value) > 1e-9:
        raise RuntimeError("simulate-mc fixture design does not pin player 1")
    # pinned payoff first, then every profile's frequency
    sd = checks.asymptotic_sd(L, pi, np.column_stack([payoffs[0], np.eye(kappa)]))
    out = os.path.join(work, "simulate.json")

    def op(i):
        # blocks of ten ops run 0.55x .. 1.45x the mean steps in seeded
        # order: with equal ops the median would jump between the machine's
        # fast and slow phases instead of moving with them
        block = np.random.default_rng([seed, 6, i // 10]).permutation(10)
        steps = mean_steps * (55 + 10 * int(block[i % 10])) // 100
        kept = steps - steps // 10  # the CLI drops a tenth as burn-in
        bounds = SIGMAS * sd / np.sqrt(kept)
        argv = ["simulate", "--game", game, "--rules", rfile,
                "--assignment", assign, "--steps", str(steps),
                "--seed", str(seed * 1_000_003 + i), "--out", out]
        return Op(argv, steps, [out],
                  lambda code: checks.check_simulate(
                      _read(out), code, steps, payoffs, 1, value, pi, bounds))

    return Workload("simulate-mc", "steps", "montecarlo", op)


# ---------------------------------------------------------------------------
# neg-sweep: one node of a heavy-tailed network per op, so network loading
# and reduction, design and games do the work and markov does none.

NEG_SIZES = {"full": (2000, 5, 45), "tiny": (60, 3, 7)}  # nodes, hubs, others


def preferential_attachment(rng, n, m=2):
    """Barabasi-Albert edges: each new node links to m degree-weighted nodes."""
    edges = [(a, b) for a in range(m + 1) for b in range(a + 1, m + 1)]
    ends = [v for e in edges for v in e]
    for v in range(m + 1, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(ends[rng.integers(len(ends))])
        for u in sorted(chosen):
            edges.append((u, v))
            ends += [u, v]
    return edges


def neg_sweep(seed, size, work) -> Workload:
    rng = np.random.default_rng([seed, 5])
    n, hubs, others = NEG_SIZES[size]
    edges = preferential_attachment(rng, n)
    name = [f"v{i}" for i in range(n)]
    degree = np.bincount(np.ravel(edges), minlength=n)
    net = _write(os.path.join(work, "network.json"), {
        "nodes": name, "edges": [[name[a], name[b]] for a, b in edges],
        "base_game": {"k": 2, "payoff_bimatrix": BASE_PD.tolist()}})
    by_degree = np.argsort(-degree, kind="stable")
    sample = list(by_degree[:hubs]) + list(
        rng.choice(by_degree[hubs:], others, replace=False))
    sample = [int(v) for v in rng.permutation(sample)]
    out = os.path.join(work, "neg")
    files = [os.path.join(out, f) for f in
             ("reduced_game.json", "assignment.json", "report.json")]

    def op(i):
        v = sample[i % len(sample)]
        d = int(degree[v])
        pin = 2.0 * d  # inside the feasible range [P d, R d] = [d, 3d]
        argv = ["neg", "--network", net, "--node", name[v],
                "--relation", f"pin:target=2,value={pin!r},row=1,mu=auto",
                "--random-opponents", "0", "--out", out]
        return Op(argv, 1, files,
                  lambda code: checks.check_neg(
                      *(_read(f) for f in files), code, name[v], d, BASE_PD,
                      pin))

    return Workload("neg-sweep", "nodes", "network", op)


WORKLOADS = {
    "verify-dense": verify_dense,
    "analyze-sparse": analyze_sparse,
    "simulate-mc": simulate_mc,
    "neg-sweep": neg_sweep,
}
