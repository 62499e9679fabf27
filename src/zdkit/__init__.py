"""Payoff control in repeated finite games via zero-determinant strategies.

Pipeline: describe a game by payoff vectors, build memory-one update rules,
multiply them into the profile transition matrix, design rule rows that pin
or extort opponents' stationary payoffs, then check rationality and verify
effectiveness analytically and by simulation.  Networked games reduce to a
focal player against a fictitious aggregated opponent.

The names below are the ones the pipeline's modules use from each other and
the README quickstart uses; everything else is reached through its module.
"""

from .design import (
    LinearRelation,
    ZDAssignment,
    assemble,
    rationality_check,
    verify_effectiveness,
)
from .errors import (
    AnalysisError,
    DimensionError,
    DomainError,
    ValidationError,
    ZDKitError,
)
from .games import GameSpec
from .markov import analyze, build_pee, build_rule
from .montecarlo import compare_empirical_vs_exact, simulate
from .network import NetworkGame, reduce_to_fop

__version__ = "0.1.0"
