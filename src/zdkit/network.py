"""Reduction of a networked game to focal-node vs fictitious opponent.

Every node of an undirected graph plays a fixed symmetric two-player base
game against each neighbor and collects the sum of edge payoffs.  From the
focal node's viewpoint the rest of the network acts as a single fictitious
opponent whose strategies are the multisets of neighbor actions, i.e. count
vectors (d_1, ..., d_k) summing to the node degree.  The reduced game is an
ordinary two-player game, so the whole design pipeline applies to it.

A NetworkGame holds its graph as integers: a dict from node id to position,
an (E, 2) array of the positions of each edge's ends and the degree counts
of that array.  Loading builds no object per node or edge beyond the
position dict, checks every edge in bulk on those arrays, and is linear in
the size of the network.  The reduction needs only a node's degree, never
its neighbours: its reduced payoffs are one product of its (k x m) count
matrix with the base payoff.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import chain

import numpy as np

from .errors import DimensionError, DomainError, ValidationError
from .games import GameSpec, json_fields, load_json, numeric_table


_NODE_TYPES = {str, int}  # exact types, so JSON true/false are refused


@dataclass(frozen=True, eq=False)
class NetworkGame:
    """Simple undirected graph plus the symmetric base game payoff matrix.

    base_payoff[a-1][b-1] is the payoff of a player choosing a against an
    opponent choosing b.  `edges` is taken at construction as pairs of node
    ids and read back as a tuple of (u, v) tuples rebuilt from `ends`, the
    positions in `nodes` of each edge's ends; `position` maps each node to
    its index and `degrees` counts the ends at each index.  Construction
    rejects duplicate nodes, non-pair edges, self-loops, edges to unknown
    nodes and duplicate edges, naming the first bad edge.  Networks compare
    by identity.
    """

    nodes: tuple
    edges: InitVar[tuple]
    base_payoff: np.ndarray
    position: dict = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, edges):
        m = np.asarray(self.base_payoff, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DimensionError(f"base payoff must be square (k >= 2), got {m.shape}")
        nodes = tuple(self.nodes)
        n = len(nodes)
        position = dict(zip(nodes, range(n)))
        if len(position) < n:
            seen = set()
            dup = next(v for v in nodes if v in seen or seen.add(v))
            raise ValidationError(f"duplicate node {dup!r}")
        edges = tuple(edges)
        try:
            if not set(map(len, edges)) <= {2}:
                raise ValueError
            ends = np.fromiter(map(position.__getitem__, chain.from_iterable(edges)),
                               dtype=np.intp, count=2 * len(edges)).reshape(-1, 2)
        except (KeyError, TypeError, ValueError):  # a non-pair, or a bad end
            raise ValidationError(_first_bad_edge(position, edges)) from None
        u, v = ends.T
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        if (u == v).any() or (keys[1:] == keys[:-1]).any():
            raise ValidationError(_first_bad_edge(position, edges))
        degrees = np.bincount(ends.ravel(), minlength=n)
        for a in (m, ends, degrees):
            a.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "base_payoff", m)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "degrees", degrees)

    @property
    def k(self) -> int:
        return self.base_payoff.shape[0]

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkGame":
        """Network from a decoded network file.

        Node ids must be unique strings or integers, edges pairs of node ids
        (whose ends are checked to be strings or integers too) and
        base_game.payoff_bimatrix a square table of numbers.
        """
        nodes, edges, base = json_fields(
            doc, ("nodes", "edges", "base_game"), "network file")
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise ValidationError("network fields 'nodes' and 'edges' must be lists")
        node_types = set(map(type, nodes))
        if not node_types <= _NODE_TYPES:
            bad = next(v for v in nodes if type(v) not in _NODE_TYPES)
            raise ValidationError(f"node id {bad!r} is not a string or an integer")
        if not set(map(type, edges)) <= {list}:
            bad = next(e for e in edges if type(e) is not list)
            raise ValidationError(f"edge {bad!r} is not a pair of nodes")
        # With string ids alone, the lookup of each end in `position` refuses
        # any end that is not a string, so the end types are checked only
        # once something has failed.  An integer id would match a true or 2.0
        # end, so with one the check runs first.
        if not node_types <= {str}:
            _check_end_types(edges)
        try:
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
        except Exception:
            # the end-type message wins over any later error, MemoryError too
            _check_end_types(edges)
            raise

    @classmethod
    def load(cls, path) -> "NetworkGame":
        return load_json(path, cls.from_json)


def _edges(net: NetworkGame) -> tuple:
    """The edges as (u, v) tuples of node ids, in the order given."""
    u, v = (map(net.nodes.__getitem__, col) for col in net.ends.T.tolist())
    return tuple(zip(u, v))


# Set after the class body: a property there would become the default of the
# `edges` init argument.
NetworkGame.edges = property(_edges)


def _check_end_types(edges):
    """Refuse an edge end that is not a string or an integer."""
    if not set(map(type, chain.from_iterable(edges))) <= _NODE_TYPES:
        bad = next(e for e in edges if not set(map(type, e)) <= _NODE_TYPES)
        raise ValidationError(
            f"edge {bad!r} has an end that is not a string or an integer")


def _first_bad_edge(position: dict, edges) -> str:
    """The message for the first edge that is not a pair of distinct known
    nodes or repeats an earlier edge in either orientation."""
    seen = set()
    for edge in edges:
        try:
            u, v = edge
            len(edge)  # the bulk check takes each edge's length
        except (TypeError, ValueError):
            return f"edge {edge!r} is not a pair of nodes"
        if u == v:
            return f"self-loop at node {u!r}"
        try:
            pair = position[u], position[v]
        except (KeyError, TypeError):  # TypeError: an unhashable end
            return f"edge ({u!r}, {v!r}) references unknown node"
        if pair in seen or pair[::-1] in seen:
            return f"duplicate edge ({u!r}, {v!r})"
        seen.add(pair)
    raise AssertionError("the bulk edge check failed on valid edges")


def opponent_strategy_set(k: int, degree: int) -> list:
    """All neighbor-action count vectors for a node of the given degree.

    Ordered with the count of strategy 1 decreasing first, then strategy 2,
    and so on; for k = 2 this gives (d,0), (d-1,1), ..., (0,d).  Degree 0
    gives the one zero vector.
    """
    if degree < 0:
        raise DomainError("degree must be >= 0")
    if k < 2:
        raise DomainError("base game needs k >= 2 strategies")
    out = [(degree,)]
    for _ in range(k - 1):  # split each vector's last count, largest share first
        out = [c[:-1] + (d, c[-1] - d) for c in out for d in range(c[-1], -1, -1)]
    return out


@dataclass(frozen=True)
class FOPGame:
    """Two-player reduction: focal node (player 1) vs fictitious opponent."""

    game: GameSpec
    aggregate_profiles: tuple  # the opponent's count vectors, in order


def reduce_to_fop(net: NetworkGame, node) -> FOPGame:
    """Build the reduced game for one node against its aggregated neighbors.

    Profiles are ordered with the focal action varying slowest.  The focal
    payoff for (a, counts) is sum_j counts[j] * payoff(a, j); the opponent
    payoff is the total the neighbors collect, sum_j counts[j] * payoff(j, a).
    """
    i = net.position.get(node)
    if i is None:
        raise DomainError(f"unknown node {node!r}")
    deg = int(net.degrees[i])
    if deg < 1:
        raise DomainError(f"node {node!r} has no neighbors")
    k = net.k
    counts = opponent_strategy_set(k, deg)
    d = np.array(counts, dtype=float).T  # (k, m): column t is counts[t]
    pay = net.base_payoff
    # entry (a, t) of pay @ d is sum_j counts[t][j] * payoff(a, j)
    with np.errstate(over="ignore", invalid="ignore"):
        payoffs = np.vstack([(pay @ d).ravel(), (pay.T @ d).ravel()])
    if not np.isfinite(payoffs).all():
        raise DomainError(
            f"node {node!r} of degree {deg}: reduced payoffs overflow")
    game = GameSpec(k=(k, len(counts)), payoffs=payoffs)
    return FOPGame(game=game, aggregate_profiles=tuple(counts))
