import numpy as np
import pytest

from zdkit import GameSpec, LinearRelation

# 3-player game (2, 3, 2) used for the pinning design golden values
PINNING_PAYOFFS = np.array([
    [-3, -0.5, 6, 9, 8, 7, -4, -4.5, 5, 6.5, 5, 7],
    [4, -1, -5, 7.5, 2, 3.5, 8, -4, 5, 8, 9, -2],
    [9, 5, -6, -5.5, 5.5, 8, 8.5, 5.5, 0.0, -3.5, 4.5, 7],
])

# 3-player game (2, 3, 2) used for the extortion design golden values.
# The 7th entry of player 2's vector is -4: only that sign reproduces both
# published designed rows (entries 0.178 and 0.604 at position 7).
EXTORTION_PAYOFFS = np.array([
    [16, 11, -4, -8, -2, -10.3, 11.4, 18.5, 1.2, -3, -2.5, 1.5],
    [3, 2, -1, 0, 5, -6, -4, 3, 3, 1, -1, 7],
    [-2.9, 0, 6.8, 7.1, 2, -9.4, -8.2, 0.4, 4.6, 6.1, -2, 2.3],
])

PINNING_ROW_1 = np.array(
    [0.3, 0.55, 0.2, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.25, 0.1, 0.3])
PINNING_ROW_2 = np.array(
    [0.6, 0.2, 0.1, 0.15, 0.25, 0.5, 0.55, 0.25, 0.7, 0.35, 0.15, 0.4])
EXTORTION_ROW_1 = np.array(
    [0.275, 0.5, 0.175, 0.445, 0.365, 0.2715, 0.178, 0.1375,
     0.0890, 0.22, 0.0925, 0.2725])
EXTORTION_ROW_2 = np.array(
    [0.668, 0.22, 0.104, 0.168, 0.28, 0.548, 0.604, 0.272,
     0.768, 0.388, 0.16, 0.444])

# the published extortion design as assemble's (row, relation, mu) triples:
# player 2 enforces Ec_2 - 1 = 1.1 (Ec_1 - 1) with row 1 and
# Ec_2 - 1 = 1.2 (Ec_3 - 1) with row 2; on EXTORTION_PAYOFFS,
# assemble(game, 2, EXTORTION_DESIGN) designs EXTORTION_ROW_1 and _2
EXTORTION_DESIGN = (
    (1, LinearRelation.extortion(3, designer=2, target=1, factor=1.1,
                                 reference=1.0), 0.05),
    (2, LinearRelation.extortion(3, designer=2, target=3, factor=1.2,
                                 reference=1.0), 0.1),
)


@pytest.fixture
def pinning_game():
    return GameSpec(k=(2, 3, 2), payoffs=PINNING_PAYOFFS)


@pytest.fixture
def extortion_game():
    return GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS)


def random_interior_rule(rng, player, k, kappa, low=0.05):
    """Column-stochastic rule with every entry strictly inside (0, 1)."""
    from zdkit import build_rule

    w = rng.uniform(low, 1.0, size=(k, kappa))
    return build_rule(player, w / w.sum(axis=0))


def random_stochastic(rng, n, low=0.05):
    w = rng.uniform(low, 1.0, size=(n, n))
    return w / w.sum(axis=0)
