import gc
import itertools
from math import comb

import numpy as np
import pytest

from zdkit import (
    DomainError,
    NetworkGame,
    ValidationError,
    assemble,
    rationality_check,
    reduce_to_fop,
    verify_effectiveness,
)
from zdkit.design import LinearRelation, feasible_mu_interval
from zdkit.network import opponent_strategy_set
from conftest import random_interior_rule

T, R, P, S = 5.0, 3.0, 1.0, 0.0
PD = np.array([[R, S], [T, P]])  # payoff(self, other), C = 1, D = 2


def fig1_network():
    """deg(A) = 2, deg(B) = 3, deg(C) = 4, plus a degree-1 node E."""
    return NetworkGame(
        nodes=("A", "B", "C", "D", "E"),
        edges=(("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
               ("C", "D"), ("C", "E")),
        base_payoff=PD,
    )


def test_opponent_strategy_set_sizes_and_order():
    assert opponent_strategy_set(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert opponent_strategy_set(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert opponent_strategy_set(2, 1) == [(1, 0), (0, 1)]
    assert opponent_strategy_set(3, 0) == [(0, 0, 0)]
    with pytest.raises(DomainError, match="degree must be >= 0"):
        opponent_strategy_set(2, -1)
    with pytest.raises(DomainError, match="k >= 2"):
        opponent_strategy_set(1, 3)


def test_opponent_strategy_set_counting():
    # reduce_to_fop's payoff columns follow this order: every count vector,
    # strategy 1's count falling first, then strategy 2's, and so on
    for k in range(2, 5):
        for deg in range(7):
            out = opponent_strategy_set(k, deg)
            assert len(out) == comb(deg + k - 1, k - 1)
            assert out == sorted((c for c in itertools.product(
                range(deg + 1), repeat=k) if sum(c) == deg), reverse=True)


def test_opponent_strategy_set_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        opponent_strategy_set(3, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reduce_node_a_payoff_vectors():
    fop = reduce_to_fop(fig1_network(), "A")
    game = fop.game
    assert game.k == (2, 3) and game.kappa == 6
    np.testing.assert_array_equal(
        game.payoffs[0], [2 * R, R + S, 2 * S, 2 * T, T + P, 2 * P])
    np.testing.assert_array_equal(
        game.payoffs[1], [2 * R, R + T, 2 * T, 2 * S, S + P, 2 * P])
    # numeric values with T=5, R=3, P=1, S=0
    np.testing.assert_array_equal(game.payoffs[0], [6, 3, 0, 10, 6, 2])
    assert game.indexer.phi(1, 1) == (1, 2, 3)
    np.testing.assert_array_equal(game.indexer.xi(1, 1), [1, 1, 1, 0, 0, 0])


def test_reduce_node_b_payoff_vectors():
    fop = reduce_to_fop(fig1_network(), "B")
    game = fop.game
    assert game.k == (2, 4) and game.kappa == 8
    np.testing.assert_array_equal(
        game.payoffs[0],
        [3 * R, 2 * R + S, R + 2 * S, 3 * S, 3 * T, 2 * T + P, T + 2 * P, 3 * P])
    np.testing.assert_array_equal(
        game.payoffs[1],
        [3 * R, 2 * R + T, R + 2 * T, 3 * T, 3 * S, 2 * S + P, S + 2 * P, 3 * P])


def test_reduce_node_c_payoff_vectors():
    fop = reduce_to_fop(fig1_network(), "C")
    game = fop.game
    assert game.k == (2, 5) and game.kappa == 10
    np.testing.assert_array_equal(
        game.payoffs[0],
        [4 * R, 3 * R + S, 2 * R + 2 * S, R + 3 * S, 4 * S,
         4 * T, 3 * T + P, 2 * T + 2 * P, T + 3 * P, 4 * P])
    np.testing.assert_array_equal(
        game.payoffs[1],
        [4 * R, 3 * R + T, 2 * R + 2 * T, R + 3 * T, 4 * T,
         4 * S, 3 * S + P, 2 * S + 2 * P, S + 3 * P, 4 * P])


def test_degree_one_reduction_is_plain_bimatrix_game():
    fop = reduce_to_fop(fig1_network(), "E")
    game = fop.game
    assert game.k == (2, 2)
    np.testing.assert_array_equal(game.payoffs[0], PD.ravel())
    np.testing.assert_array_equal(game.payoffs[1], PD.T.ravel())


def test_payoff_linearity_in_counts():
    # doubling every neighbor count doubles both reduced payoffs
    net = fig1_network()
    a2 = reduce_to_fop(net, "A")  # degree 2
    c4 = reduce_to_fop(net, "C")  # degree 4
    for a in range(2):
        for idx2, d2 in enumerate(a2.aggregate_profiles):
            doubled = tuple(2 * d for d in d2)
            idx4 = c4.aggregate_profiles.index(doubled)
            for player in (1, 2):
                v2 = a2.game.payoffs[player - 1][a * 3 + idx2]
                v4 = c4.game.payoffs[player - 1][a * 5 + idx4]
                assert v4 == 2 * v2


def test_fop_pinning_rational_and_effective():
    fop = reduce_to_fop(fig1_network(), "A")
    rel = LinearRelation.pinning(2, target=2, value=2.0)
    lo, hi = feasible_mu_interval(rel.row(fop.game), fop.game.indexer.xi(1, 1))
    mu = hi / 2 if hi > -lo else lo / 2
    assert mu != 0.0
    assignment = assemble(fop.game, 1, [(1, rel, mu)])
    assert rationality_check(assignment).verdict
    rng = np.random.default_rng(30)
    for _ in range(5):
        opponent = {2: random_interior_rule(rng, 2, 3, fop.game.kappa)}
        report = verify_effectiveness(fop.game, assignment, opponent)
        assert report.effective
        assert abs(report.expected_payoffs[1] - 2.0) < 1e-8


def test_fop_extortion_design_shape():
    fop = reduce_to_fop(fig1_network(), "B")
    rel = LinearRelation.extortion(2, designer=1, target=2, factor=1.5,
                                   reference=P)
    assignment = assemble(fop.game, 1, [(1, rel, 0.01)])
    assert assignment.rows.shape[1] == 8
    assert assignment.relations[0][1].coeffs == (1.0, -1.5)


def test_fop_mu_outside_interval_fails_rationality():
    fop = reduce_to_fop(fig1_network(), "A")
    rel = LinearRelation.pinning(2, target=2, value=2.0)
    lo, hi = feasible_mu_interval(rel.row(fop.game), fop.game.indexer.xi(1, 1))
    mu = (hi if hi > -lo else lo) * 3  # well outside
    assignment = assemble(fop.game, 1, [(1, rel, mu)])
    assert not rationality_check(assignment).verdict


def test_network_validation():
    with pytest.raises(ValidationError):
        NetworkGame(nodes=("A",), edges=(("A", "A"),), base_payoff=PD)
    with pytest.raises(ValidationError):
        NetworkGame(nodes=("A", "B"), edges=(("A", "B"), ("B", "A")),
                    base_payoff=PD)
    with pytest.raises(ValidationError):
        NetworkGame(nodes=("A", "B"), edges=(("A", "C"),), base_payoff=PD)
    with pytest.raises(DomainError):
        reduce_to_fop(fig1_network(), "Z")


def test_network_json_roundtrip(tmp_path):
    net = fig1_network()
    path = tmp_path / "net.json"
    import json

    path.write_text(json.dumps({
        "nodes": list(net.nodes), "edges": [list(e) for e in net.edges],
        "base_game": {"k": net.k, "payoff_bimatrix": net.base_payoff.tolist()}}))
    loaded = NetworkGame.load(path)
    assert loaded.nodes == net.nodes
    assert loaded.edges == net.edges
    np.testing.assert_array_equal(loaded.base_payoff, net.base_payoff)


# ---------------------------------------------------------------------------
# The indexed network against the linear-scan and per-entry loop versions it
# replaced, kept here as references.


def scan_neighbors(net, node):
    out = []
    for u, v in net.edges:
        if u == node:
            out.append(v)
        elif v == node:
            out.append(u)
    return tuple(out)


def scan_validate(nodes, edges):
    """The old per-node and per-edge checks: the first failing message, or
    None."""
    for i, node in enumerate(nodes):
        if node in nodes[:i]:
            return f"duplicate node {node!r}"
    seen = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            return f"edge {edge!r} is not a pair of nodes"
        if u == v:
            return f"self-loop at node {u!r}"
        if u not in nodes or v not in nodes:
            return f"edge ({u!r}, {v!r}) references unknown node"
        key = frozenset((u, v))
        if key in seen:
            return f"duplicate edge ({u!r}, {v!r})"
        seen.add(key)
    return None


def loop_reduce_payoffs(net, node):
    deg = len(scan_neighbors(net, node))
    counts = opponent_strategy_set(net.k, deg)
    m = len(counts)
    pay = net.base_payoff
    v_focal = np.empty(net.k * m)
    v_fop = np.empty(net.k * m)
    for a in range(net.k):
        for t, d in enumerate(counts):
            d = np.asarray(d, dtype=float)
            v_focal[a * m + t] = d @ pay[a, :]
            v_fop[a * m + t] = d @ pay[:, a]
    return np.vstack([v_focal, v_fop])


def random_network(rng, n, p, k, str_ids, int_payoffs):
    ids = [f"v{i}" for i in range(n)] if str_ids else list(range(n))
    ids = [ids[i] for i in rng.permutation(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    # each edge in either orientation, so neighbour order is exercised both ways
    edges = tuple((ids[a], ids[b]) if rng.random() < 0.5 else (ids[b], ids[a])
                  for a, b in pairs)
    pay = (rng.integers(-5, 6, size=(k, k)).astype(float) if int_payoffs
           else rng.uniform(-3.0, 3.0, size=(k, k)))
    return tuple(ids), edges, pay


# (seed, k, str_ids, int_payoffs)
NETWORK_CORPUS = [(seed, *case) for seed, case in enumerate(
    itertools.product((2, 3, 4), (False, True), (True, False)))]


@pytest.mark.parametrize("seed,k,str_ids,int_payoffs", NETWORK_CORPUS)
def test_indexed_network_matches_scan_references(seed, k, str_ids, int_payoffs):
    rng = np.random.default_rng([seed, 61])
    nodes, edges, pay = random_network(rng, 14, 0.35, k, str_ids, int_payoffs)
    net = NetworkGame(nodes=nodes, edges=edges, base_payoff=pay)
    assert net.edges == edges
    for node in nodes:
        degree = net.degrees[net.position[node]]
        assert degree == len(scan_neighbors(net, node))
        if degree == 0:
            continue
        got = reduce_to_fop(net, node).game.payoffs
        want = loop_reduce_payoffs(net, node)
        if int_payoffs:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def edge_faults(u, v, ghost):
    """Bad edges around a valid edge (u, v) of a network without node ghost."""
    return [(u, u), (v, u), (u, v), (u, ghost), (ghost, v), (ghost, ghost),
            (u,), (u, v, u), 7, None, ([u], v), (u, {v: 1})]


def check_against_scan(nodes, edges):
    """The network loads exactly when scan_validate finds nothing, and a
    bad one is refused with scan_validate's message."""
    want = scan_validate(nodes, edges)
    if want is None:
        assert NetworkGame(nodes=nodes, edges=edges, base_payoff=PD).edges == edges
        return
    with pytest.raises(ValidationError) as exc:
        NetworkGame(nodes=nodes, edges=edges, base_payoff=PD)
    assert str(exc.value) == want


@pytest.mark.parametrize("seed", range(6))
def test_network_errors_match_scan_reference(seed):
    rng = np.random.default_rng([seed, 62])
    nodes, edges, _ = random_network(rng, 10, 0.4, 2, seed % 2 == 0, True)
    edges = list(edges)
    u, v = edges[int(rng.integers(len(edges)))]
    faults = edge_faults(u, v, "ghost" if seed % 2 == 0 else 99)
    # one fault, then two at once; the first failing edge decides the message
    for extra in [[f] for f in faults] + [[faults[a], faults[b]] for a, b in
                                         rng.integers(len(faults), size=(12, 2))]:
        bad = list(edges)
        for fault in extra:
            bad.insert(int(rng.integers(len(bad) + 1)), fault)
        assert scan_validate(nodes, bad) is not None
        check_against_scan(nodes, tuple(bad))
    # a three-end edge last, whose first two ends are a new pair, is only
    # caught by its length
    rest = tuple(e for e in edges if {u, v} != set(e))
    check_against_scan(nodes, rest + ((u, v, u),))
    # repeated node ids at several positions; the first repeat is named
    for repeats in (1, 2, 3, 3):
        bad = list(nodes)
        for node in rng.choice(len(nodes), repeats):
            bad.insert(int(rng.integers(len(bad) + 1)), nodes[node])
        assert scan_validate(bad, edges) is not None
        check_against_scan(tuple(bad), tuple(edges))
    # no edges at all: every node loads isolated and cannot be reduced
    net = NetworkGame(nodes=nodes, edges=(), base_payoff=PD)
    assert net.edges == () and net.ends.shape == (0, 2)
    assert all(net.degrees[net.position[node]] == 0 for node in nodes)
    with pytest.raises(DomainError, match="has no neighbors"):
        reduce_to_fop(net, nodes[0])


def test_network_rejects_duplicate_nodes():
    with pytest.raises(ValidationError, match="duplicate node 'A'"):
        NetworkGame(nodes=("A", "B", "A"), edges=(("A", "B"),), base_payoff=PD)


def test_large_ring_loads_in_linear_time(tmp_path):
    # checking each edge end against the node tuple is O(N*E): several
    # seconds at this size; loading into position and end arrays is linear
    import json
    import time
    import tracemalloc

    n = 20000
    ids = [f"n{i}" for i in range(n)]
    doc = {"nodes": ids, "edges": [[ids[i], ids[(i + 1) % n]] for i in range(n)],
           "base_game": {"k": 2, "payoff_bimatrix": PD.tolist()}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    net = NetworkGame.load(path)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert all(net.degrees[net.position[v]] == 2 for v in ids)
    assert time.perf_counter() - start < 1.0
    # what loading keeps is the position dict and the end and degree
    # arrays; a dict per node or a tuple per edge would double it
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = NetworkGame.from_json(doc)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert again.edges == net.edges and kept < 150 * len(doc["edges"])


def test_loading_a_network_runs_no_collector_pass(tmp_path):
    # a decoded document holds no reference cycle, yet its 4,000 edge lists
    # would set off several cyclic-collector passes that walk them all
    import gc
    import json

    n = 2000
    ids = [f"v{i}" for i in range(n)]
    doc = {"nodes": ids,
           "edges": [[ids[i], ids[(i + s) % n]] for s in (1, 2) for i in range(n)],
           "base_game": {"k": 2, "payoff_bimatrix": PD.tolist()}}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        net = NetworkGame.load(path)
    finally:
        gc.callbacks.remove(count)
        if not was:
            gc.disable()
    assert net.ends.shape == (2 * n, 2) and passes == []
