import itertools

import numpy as np
import pytest

from zdkit import (
    DimensionError,
    DomainError,
    GameSpec,
    ValidationError,
)
from conftest import PINNING_PAYOFFS
from oracles import delta, kappa_params, payoff_eval, phi_arithmetic

# golden index data for the (2, 3, 2) game family
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


def test_kappa_params_232():
    ix = kappa_params([2, 3, 2])
    assert ix.kappa == 12
    assert ix.kappa_lower == (1, 2, 6)
    assert ix.kappa_upper == (0, 6, 2, 1)


def test_kappa_params_22_and_333():
    ix = kappa_params([2, 2])
    assert ix.kappa == 4
    assert ix.kappa_lower == (1, 2)
    assert ix.kappa_upper == (0, 2, 1)
    ix = kappa_params([3, 3, 3])
    assert ix.kappa == 27
    assert ix.kappa_lower[2] == 9
    assert ix.kappa_upper[1] == 9


def test_kappa_params_rejects_bad_counts():
    with pytest.raises(DomainError):
        kappa_params([])
    with pytest.raises(DomainError):
        kappa_params([2, 1])


def test_profile_index_golden():
    ix = kappa_params([2, 3, 2])
    assert ix.encode((1, 1, 1)) == 1
    assert ix.encode((1, 2, 1)) == 3
    assert ix.encode((2, 3, 2)) == 12


def test_encode_decode_roundtrip_exhaustive():
    # all shapes with kappa <= 256, alphabetic order with last index fastest
    for k in [(2, 2), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2), (4, 4, 4, 4), (5, 3)]:
        ix = kappa_params(k)
        if ix.kappa > 256:
            continue
        expected = list(itertools.product(*[range(1, ki + 1) for ki in k]))
        for idx, tup in enumerate(expected, start=1):
            assert ix.encode(tup) == idx
            assert ix.decode(idx) == tup


def test_encode_out_of_range():
    ix = kappa_params([2, 3, 2])
    with pytest.raises(DomainError):
        ix.encode((1, 4, 1))
    with pytest.raises(DomainError):
        ix.decode(13)


def test_phi_sets_golden_232():
    ix = kappa_params([2, 3, 2])
    for (i, j), members in PHI_232.items():
        assert ix.phi(i, j) == members


def test_xi_rows_golden_232():
    ix = kappa_params([2, 3, 2])
    for (i, j), row in XI_232.items():
        np.testing.assert_array_equal(ix.xi(i, j), row)


def test_phi_partition_and_size():
    for k in [(2, 2), (2, 3, 2), (3, 2, 2), (2, 4)]:
        ix = kappa_params(k)
        for i in range(1, ix.n + 1):
            union = []
            for j in range(1, k[i - 1] + 1):
                members = ix.phi(i, j)
                assert len(members) == ix.kappa // k[i - 1]
                union.extend(members)
            assert sorted(union) == list(range(1, ix.kappa + 1))


def test_xi_rows_partition_to_ones():
    ix = kappa_params([2, 3, 2])
    for i in range(1, 4):
        total = sum(ix.xi(i, j) for j in range(1, ix.k[i - 1] + 1))
        np.testing.assert_array_equal(total, np.ones(12))


def test_phi_arithmetic_matches_decode_semantics():
    for k in [(2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (4, 4, 4)]:
        ix = kappa_params(k)
        for i in range(1, ix.n + 1):
            for j in range(1, k[i - 1] + 1):
                assert ix.phi(i, j) == phi_arithmetic(ix, i, j)


def test_phi_first_player_first_strategy():
    for k in [(2, 2), (2, 3, 2), (3, 2, 2)]:
        ix = kappa_params(k)
        assert ix.phi(1, 1) == tuple(range(1, ix.kappa_upper[1] + 1))


def test_payoff_eval(pinning_game):
    kappa = pinning_game.kappa
    assert payoff_eval(pinning_game, 1, delta(kappa, 1)) == PINNING_PAYOFFS[0][0]
    # pure profile (1, 2, 1) is index 3; player 1 collects 6 there
    assert payoff_eval(pinning_game, 1, delta(kappa, 3)) == 6
    uniform = np.full(kappa, 1 / kappa)
    assert payoff_eval(pinning_game, 2, uniform) == pytest.approx(
        PINNING_PAYOFFS[1].mean())


def test_payoff_eval_rejects_bad_input(pinning_game):
    with pytest.raises(DimensionError):
        payoff_eval(pinning_game, 1, np.ones(5) / 5)
    with pytest.raises(DomainError):
        payoff_eval(pinning_game, 1, np.full(12, 0.5))


def test_gamespec_validation():
    with pytest.raises(DimensionError):
        GameSpec(k=(2, 2), payoffs=np.ones((2, 5)))
    with pytest.raises(DomainError):
        GameSpec(k=(2, 2), payoffs=np.full((2, 4), np.nan))


def test_gamespec_json_roundtrip(tmp_path, pinning_game):
    path = tmp_path / "game.json"
    pinning_game.save(path)
    loaded = GameSpec.load(path)
    assert loaded.k == pinning_game.k
    np.testing.assert_array_equal(loaded.payoffs, pinning_game.payoffs)


def test_gamespec_json_missing_field():
    with pytest.raises(ValidationError):
        GameSpec.from_json({"players": 2, "strategy_counts": [2, 2]})


# ---------------------------------------------------------------------------
# phi/xi by index arithmetic against the decode-every-profile versions they
# replaced, kept here as references.


def decode_phi(ix, i, j):
    return tuple(s for s in range(1, ix.kappa + 1) if ix.decode(s)[i - 1] == j)


def decode_xi(ix, i, j):
    row = np.zeros(ix.kappa)
    row[[s - 1 for s in decode_phi(ix, i, j)]] = 1.0
    return row


PHI_SHAPES = [(2, 2), (3, 2), (2, 3, 2), (4, 3), (2, 2, 2, 2), (3, 4, 2),
              (4, 4, 4), (2, 7), (5, 2, 3)]


@pytest.mark.parametrize("k", PHI_SHAPES, ids=str)
def test_phi_xi_match_decode_references(k):
    ix = kappa_params(k)
    for i in range(1, ix.n + 1):
        for j in range(1, k[i - 1] + 1):
            phi = ix.phi(i, j)
            assert phi == decode_phi(ix, i, j)
            assert all(type(s) is int for s in phi)
            xi = ix.xi(i, j)
            assert xi.dtype == np.float64 and xi.shape == (ix.kappa,)
            np.testing.assert_array_equal(xi, decode_xi(ix, i, j))


def test_phi_xi_reject_bad_pairs():
    ix = kappa_params([2, 3])
    for i, j in [(0, 1), (3, 1), (2, 4), (1, 0)]:
        with pytest.raises(DomainError):
            ix.phi(i, j)
        with pytest.raises(DomainError):
            ix.xi(i, j)


def test_gamespec_builds_its_indexer_once(monkeypatch, pinning_game):
    from zdkit.games import ProfileIndexer

    builds = []
    original = ProfileIndexer.__post_init__

    def counting(self):
        builds.append(self)
        original(self)

    monkeypatch.setattr(ProfileIndexer, "__post_init__", counting)
    game = GameSpec(k=(2, 3, 2), payoffs=PINNING_PAYOFFS)
    assert len(builds) == 1
    for i in range(1, 4):
        game.indexer.phi(i, 1)
        game.indexer.xi(i, 2)
    assert game.kappa == 12 and game.indexer is game.indexer
    assert len(builds) == 1


NOT_TABLES = {
    "string": "x", "empty": [], "empty_row": [[]], "ragged": [[1, 2], [3]],
    "row_not_list": [[1, 2], 3], "numeric_string": [[1, "2"]],
    "null": [[1, None]], "bool": [[1, True]], "nan": [[1, float("nan")]],
    "inf": [[1, float("inf")]], "huge_int": [[10 ** 400]],
}


@pytest.mark.parametrize("bad", list(NOT_TABLES.values()), ids=list(NOT_TABLES))
def test_numeric_table_rejects(bad):
    from zdkit.games import numeric_table

    with pytest.raises(ValidationError, match="^where"):
        numeric_table(bad, "where")


def test_numeric_table_accepts_ints_and_floats():
    from zdkit.games import numeric_table

    # np.float64 is a float: tables from to_json() pass without a JSON trip
    m = numeric_table([[1, 0.5], [np.float64(2.0), 3]], "where")
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, [[1, 0.5], [2, 3]])
