"""Reduction of a networked game to focal-node vs fictitious opponent.

Every node of an undirected graph plays a fixed symmetric two-player base
game against each neighbor and collects the sum of edge payoffs.  From the
focal node's viewpoint the rest of the network acts as a single fictitious
opponent whose strategies are the multisets of neighbor actions, i.e. count
vectors (d_1, ..., d_k) summing to the node degree.  The reduced game is an
ordinary two-player game, so the whole design pipeline applies to it.

A NetworkGame indexes its adjacency once, in one pass over the edges that
also validates them, so loading is linear in the size of the network and a
node's neighbours are a dictionary lookup.  The reduced payoffs of a node
are one product of its (k x m) count matrix with the base payoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DimensionError, DomainError, ValidationError, ZDKitError
from .games import GameSpec, numeric_table, read_json


_NODE_TYPES = {str, int}  # exact types, so JSON true/false are refused


@dataclass(frozen=True)
class NetworkGame:
    """Simple undirected graph plus the symmetric base game payoff matrix.

    base_payoff[a-1][b-1] is the payoff of a player choosing a against an
    opponent choosing b.  `adjacency` maps each node to its neighbours in
    edge order (a dict used as an ordered set); building it rejects
    duplicate nodes, self-loops, edges to unknown nodes and duplicate edges.
    """

    nodes: tuple
    edges: tuple
    base_payoff: np.ndarray
    adjacency: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.base_payoff, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DimensionError(f"base payoff must be square (k >= 2), got {m.shape}")
        nodes = tuple(self.nodes)
        adjacency = {}
        for node in nodes:
            if node in adjacency:
                raise ValidationError(f"duplicate node {node!r}")
            adjacency[node] = {}
        edges = []
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a pair of nodes") from None
            if u == v:
                raise ValidationError(f"self-loop at node {u!r}")
            try:
                nu, nv = adjacency[u], adjacency[v]
            except (KeyError, TypeError):  # TypeError: an unhashable end
                raise ValidationError(
                    f"edge ({u!r}, {v!r}) references unknown node") from None
            if v in nu:
                raise ValidationError(f"duplicate edge ({u!r}, {v!r})")
            nu[v] = nv[u] = None
            edges.append((u, v))
        m.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "base_payoff", m)
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def k(self) -> int:
        return self.base_payoff.shape[0]

    def neighbors(self, node) -> tuple:
        """Neighbours of node in the order of the edges joining them."""
        return tuple(self.adjacency.get(node, ()))

    def degree(self, node) -> int:
        return len(self.adjacency.get(node, ()))

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkGame":
        """Network from a decoded network file.

        Node ids must be unique strings or integers, edges pairs of node ids
        and base_game.payoff_bimatrix a square table of numbers.
        """
        if not isinstance(doc, dict):
            raise ValidationError("network file must hold a JSON object")
        for key in ("nodes", "edges", "base_game"):
            if key not in doc:
                raise ValidationError(f"network file missing required field '{key}'")
        nodes, edges, base = doc["nodes"], doc["edges"], doc["base_game"]
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise ValidationError("network fields 'nodes' and 'edges' must be lists")
        if not set(map(type, nodes)) <= _NODE_TYPES:
            bad = next(v for v in nodes if type(v) not in _NODE_TYPES)
            raise ValidationError(f"node id {bad!r} is not a string or an integer")
        if not set(map(type, edges)) <= {list}:
            bad = next(e for e in edges if type(e) is not list)
            raise ValidationError(f"edge {bad!r} is not a pair of nodes")
        if not isinstance(base, dict) or "payoff_bimatrix" not in base:
            raise ValidationError(
                "network file missing required field 'base_game.payoff_bimatrix'")
        m = numeric_table(base["payoff_bimatrix"], "base_game.payoff_bimatrix")
        if "k" in base and base["k"] != m.shape[0]:
            raise ValidationError(
                f"base_game.k = {base['k']!r} but payoff matrix is "
                f"{m.shape[0]}x{m.shape[1]}"
            )
        return cls(nodes=tuple(nodes), edges=edges, base_payoff=m)

    @classmethod
    def load(cls, path) -> "NetworkGame":
        """Network from a JSON file; every error names the file."""
        doc = read_json(path)
        try:
            return cls.from_json(doc)
        except ZDKitError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "base_game": {
                "k": self.k,
                "payoff_bimatrix": [list(r) for r in self.base_payoff],
            },
        }


def opponent_strategy_set(k: int, degree: int) -> list:
    """All neighbor-action count vectors for a node of the given degree.

    Ordered with the count of strategy 1 decreasing first, then strategy 2,
    and so on; for k = 2 this gives (d,0), (d-1,1), ..., (0,d).
    """
    if degree < 1:
        raise DomainError("degree must be >= 1")
    if k < 2:
        raise DomainError("base game needs k >= 2 strategies")

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for d in range(remaining, -1, -1):
            for rest in rec(remaining - d, slots - 1):
                yield (d,) + rest

    out = list(rec(degree, k))
    assert len(out) == comb(degree + k - 1, k - 1)
    return out


@dataclass(frozen=True)
class FOPGame:
    """Two-player reduction: focal node (player 1) vs fictitious opponent."""

    focal: object
    game: GameSpec
    aggregate_profiles: tuple  # the opponent's count vectors, in order


def reduce_to_fop(net: NetworkGame, node) -> FOPGame:
    """Build the reduced game for one node against its aggregated neighbors.

    Profiles are ordered with the focal action varying slowest.  The focal
    payoff for (a, counts) is sum_j counts[j] * payoff(a, j); the opponent
    payoff is the total the neighbors collect, sum_j counts[j] * payoff(j, a).
    """
    if node not in net.adjacency:
        raise DomainError(f"unknown node {node!r}")
    deg = net.degree(node)
    if deg < 1:
        raise DomainError(f"node {node!r} has no neighbors")
    k = net.k
    counts = opponent_strategy_set(k, deg)
    d = np.array(counts, dtype=float).T  # (k, m): column t is counts[t]
    pay = net.base_payoff
    # entry (a, t) of pay @ d is sum_j counts[t][j] * payoff(a, j)
    payoffs = np.vstack([(pay @ d).ravel(), (pay.T @ d).ravel()])
    game = GameSpec(k=(k, len(counts)), payoffs=payoffs)
    return FOPGame(focal=node, game=game, aggregate_profiles=tuple(counts))
