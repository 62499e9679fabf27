"""Finite games in payoff-vector form and the profile index machinery.

A game with n players and k_i strategies each has kappa = prod(k_i) joint
profiles, arranged in alphabetic order with the LAST player's index varying
fastest: (1,..,1), (1,..,2), ..., (k_1,..,k_n).  That ordering is the single
source of truth for every other module.  Each player's payoff function is a
row vector of length kappa, so c_i(x) = V_i . x for a profile distribution x.

In that order player i's strategy is the digit (s // kappa_upper[i]) % k_i
of the 0-based profile index s, so the profile sets phi(i, j) and their
indicator rows xi(i, j) are computed with array arithmetic, never by
decoding profiles one at a time.  A GameSpec builds its ProfileIndexer once.
Every input file is read by load_json, which names the file in any error;
the readers check the decoded documents with json_fields, numeric_table and
exact `type(v) is int` tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import DimensionError, DomainError, ValidationError, ZDKitError


@dataclass(frozen=True)
class ProfileIndexer:
    """Bijection between strategy tuples and profile indices 1..kappa.

    kappa_lower[i-1] is the product of strategy counts of players before i
    (1 for i = 1); kappa_upper[i] is the product of counts of players after
    i (1 for i = n, and 0 by convention at position 0).
    """

    k: tuple
    kappa: int = field(init=False)
    kappa_lower: tuple = field(init=False)
    kappa_upper: tuple = field(init=False)

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        if not k or any(v < 2 for v in k):
            raise DomainError(f"strategy counts must all be >= 2, got {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kappa", prod(k))
        n = len(k)
        lower = tuple(prod(k[:i]) for i in range(n))
        upper = (0,) + tuple(prod(k[i:]) for i in range(1, n)) + (1,)
        object.__setattr__(self, "kappa_lower", lower)
        object.__setattr__(self, "kappa_upper", upper)

    @property
    def n(self) -> int:
        return len(self.k)

    def encode(self, strategies) -> int:
        """Profile index (1-based) of a strategy tuple."""
        s = tuple(int(v) for v in strategies)
        if len(s) != self.n:
            raise DimensionError(f"expected {self.n} strategies, got {len(s)}")
        idx = 0
        for i, (si, ki) in enumerate(zip(s, self.k), start=1):
            if not 1 <= si <= ki:
                raise DomainError(f"strategy {si} of player {i} outside 1..{ki}")
            idx += (si - 1) * self.kappa_upper[i]
        return idx + 1

    def decode(self, index: int) -> tuple:
        """Strategy tuple of a profile index (1-based)."""
        if not 1 <= index <= self.kappa:
            raise DomainError(f"profile index {index} outside 1..{self.kappa}")
        v = index - 1
        out = []
        for ki in reversed(self.k):
            out.append(v % ki + 1)
            v //= ki
        return tuple(reversed(out))

    def _check_pair(self, i: int, j: int):
        if not 1 <= i <= self.n:
            raise DomainError(f"player {i} outside 1..{self.n}")
        if not 1 <= j <= self.k[i - 1]:
            raise DomainError(f"strategy {j} of player {i} outside 1..{self.k[i - 1]}")

    def _plays(self, i: int, j: int) -> np.ndarray:
        """Boolean mask over profiles: does player i play strategy j?"""
        self._check_pair(i, j)
        digit = np.arange(self.kappa) // self.kappa_upper[i] % self.k[i - 1]
        return digit == j - 1

    def phi(self, i: int, j: int) -> tuple:
        """Sorted indices of all profiles where player i plays strategy j."""
        return tuple((np.flatnonzero(self._plays(i, j)) + 1).tolist())

    def xi(self, i: int, j: int) -> np.ndarray:
        """0/1 indicator row of length kappa over phi(i, j)."""
        return self._plays(i, j).astype(float)


def load_json(path, parse, *args):
    """parse(doc, *args) of the JSON document in a file; errors name the file.

    The one place an input error gets its file name: an unopenable,
    malformed or non-UTF-8 file, and any ZDKitError parse raises, become a
    ValidationError that starts with the path.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse(doc, *args)
    except ZDKitError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def json_fields(doc, keys, what: str) -> tuple:
    """The values of the required keys of a decoded JSON object, in order.

    what names the object in the ValidationError raised when doc is not an
    object or lacks a key, e.g. "game file missing required field 'payoffs'".
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must hold a JSON object")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{what} missing required field '{key}'")
    return tuple(doc[key] for key in keys)


_JSON_NUMBERS = {int, float}


def numeric_table(rows, what: str) -> np.ndarray:
    """A decoded JSON table of finite numbers as a 2-D float array.

    rows must be a non-empty list of equally long, non-empty lists of
    numbers; strings (numeric ones such as "0.5" too), booleans and nulls
    are rejected.  Errors raise ValidationError starting with `what` and
    naming the first bad row and column.
    """
    width = len(rows[0]) if isinstance(rows, list) and rows and isinstance(
        rows[0], list) else 0
    if not width or any(not isinstance(r, list) or len(r) != width for r in rows):
        raise ValidationError(f"{what} must be a rectangular table of numbers")
    for i, row in enumerate(rows, start=1):
        if set(map(type, row)) <= _JSON_NUMBERS:
            continue
        for j, v in enumerate(row, start=1):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(
                    f"{what}: entry in row {i}, column {j} is {v!r}, not a number")
    try:
        m = np.array(rows, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what}: an entry is too large for a float") from None
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"{what}: entry in row {i + 1}, column {j + 1} "
                              f"is {m[i, j]}, not a finite number")
    return m


@dataclass(frozen=True)
class GameSpec:
    """A finite game: strategy counts plus one payoff row vector per player."""

    k: tuple
    payoffs: np.ndarray  # shape (n, kappa)
    _indexer: ProfileIndexer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indexer = ProfileIndexer(tuple(self.k))
        object.__setattr__(self, "k", indexer.k)
        object.__setattr__(self, "_indexer", indexer)
        p = np.asarray(self.payoffs, dtype=float)
        if p.shape != (indexer.n, indexer.kappa):
            raise DimensionError(
                f"payoffs must be {indexer.n} x {indexer.kappa}, got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise DomainError("payoff entries must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "payoffs", p)

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def indexer(self) -> ProfileIndexer:
        return self._indexer

    @property
    def kappa(self) -> int:
        return self._indexer.kappa

    def payoff_vector(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.n:
            raise DomainError(f"player {i} outside 1..{self.n}")
        return self.payoffs[i - 1]

    def to_json(self) -> dict:
        return {
            "players": self.n,
            "strategy_counts": list(self.k),
            "payoffs": [list(row) for row in self.payoffs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GameSpec":
        n, k, payoffs = json_fields(
            doc, ("players", "strategy_counts", "payoffs"), "game file")
        if type(n) is not int:  # exact type, so JSON true/false are refused
            raise ValidationError(f"field 'players' is {n!r}, not an integer")
        if not isinstance(k, list) or not set(map(type, k)) <= {int}:
            raise ValidationError(
                f"field 'strategy_counts' is {k!r}, not a list of integers")
        if n != len(k):
            raise DomainError(f"players = {n} but {len(k)} strategy counts given")
        return cls(k=tuple(k), payoffs=numeric_table(payoffs, "payoffs"))

    @classmethod
    def load(cls, path) -> "GameSpec":
        return load_json(path, cls.from_json)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
