"""Command-line surface: design, verify, analyze, simulate, neg.

All reports are machine-readable JSON; ``--pretty`` also prints a
human-readable table on stdout.  Every input file is read through
games.load_json, so an input error names its file, and every output file
is written by games.write_text.  Exit codes are a stable contract: 0
success, 1 a rationality/effectiveness check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .design import (
    RESIDUAL_TOL,
    LinearRelation,
    ZDAssignment,
    assemble,
    rationality_check,
    verify_effectiveness,
)
from .errors import ValidationError, ZDKitError
from .games import GameSpec, json_fields, load_json, numeric_table, write_text
from .markov import analyze, build_pee, build_rule, check_stochastic
from .montecarlo import compare_empirical_vs_exact, simulate
from .network import NetworkGame, reduce_to_fop

DEFAULT_SEED = 20120626
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# relation-spec parsing

# the fields each relation kind takes besides row and mu
RELATION_FIELDS = {
    "pin": ("target", "value"),
    "extort": ("target", "factor", "r"),
    "lin": ("coeffs", "constant"),
}


def _parse_kv(kind: str, body: str) -> dict:
    """The fields of a spec body, each one its kind takes, given once."""
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValidationError(f"malformed field {part!r}")
        key, value = (text.strip() for text in part.split("=", 1))
        if key not in ("row", "mu", *RELATION_FIELDS[kind]):
            raise ValidationError(f"a {kind!r} relation takes no field {key!r}")
        if key in out:
            raise ValidationError(f"field {key!r} given twice")
        out[key] = value
    return out


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _positive(text: str) -> float:
    """The argparse type of --z and --tol: a finite number > 0."""
    if not 0.0 < float(text) < np.inf:  # argparse reports a ValueError too
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return float(text)


def parse_relation_spec(spec: str, game: GameSpec, designer: int):
    """Parse one --relation string into (row_index, LinearRelation, mu).

    Forms:
      pin:target=M,value=R,row=J,mu=MU
      extort:target=M,factor=CHI,r=R,row=J,mu=MU
      lin:coeffs=A1:A2:...:AN,constant=A0,row=J,mu=MU
    mu may be the literal 'auto' (returned as None) to take the midpoint of
    the feasible interval; mu and constant may be left out.  A field the
    kind does not take, or one given twice, is refused.  Only the syntax is
    checked here: assemble checks the designer, the row and the coefficient
    count.  Errors name the field; _assemble_specs names the spec.
    """
    if ":" not in spec:
        raise ValidationError("missing 'kind:' prefix")
    kind, body = spec.split(":", 1)
    if kind not in RELATION_FIELDS:
        raise ValidationError(f"unknown relation kind {kind!r}")
    fields = _parse_kv(kind, body)

    def field(key, convert=_finite, what="a finite number"):
        if key not in fields:
            raise ValidationError(f"missing field '{key}'")
        try:
            return convert(fields[key])
        except ValueError:
            raise ValidationError(
                f"field {key}={fields[key]!r} is not {what}") from None

    row = field("row", int, "an integer")
    mu = None if fields.get("mu", "auto") == "auto" else field("mu")
    if kind == "pin":
        relation = LinearRelation.pinning(
            game.n, field("target", int, "an integer"), field("value"))
    elif kind == "extort":
        relation = LinearRelation.extortion(
            game.n, designer, field("target", int, "an integer"),
            field("factor"), field("r"))
    else:
        coeffs = field("coeffs", lambda t: tuple(map(_finite, t.split(":"))),
                       "a list of finite numbers")
        relation = LinearRelation(
            coeffs, field("constant") if "constant" in fields else 0.0)
    return row, relation, mu


def _assemble_specs(game: GameSpec, designer: int, specs) -> ZDAssignment:
    """The designer's assignment from --relation specs; errors name the spec.

    assemble takes the parsed triples one at a time and raises about a row
    before taking the next, so the spec parsed last is the one at fault.
    An error raised before the first spec is taken (a bad designer) names
    none.
    """
    spec = None

    def triples():
        nonlocal spec
        for spec in specs:
            yield parse_relation_spec(spec, game, designer)

    try:
        return assemble(game, designer, triples())
    except ZDKitError as exc:
        if spec is None:
            raise
        raise ValidationError(f"relation spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# file helpers


def _read_matrix(doc) -> np.ndarray:
    """The stochastic matrix of a decoded {"matrix": rows} (or rows) file."""
    if isinstance(doc, dict):
        doc, = json_fields(doc, ("matrix",), "matrix file")
    L = numeric_table(doc, "matrix")
    if L.shape[0] != L.shape[1]:
        raise ValidationError("'matrix' must be a square table of numbers")
    return check_stochastic(L, "matrix")


def _read_rules(doc, game: GameSpec | None, players) -> dict:
    """Rule arrays by player from a decoded rules file ({"rules": {player: rows}}).

    Keys must be plain player numbers ("2", not "02" or "+2") and entries
    finite numbers.  Each player must be in 1..n, where n is the game's
    player count, or with no game the number of rules; with a game each
    rule must be (k_p, kappa).  Every player in `players` must have a rule.
    """
    rules, = json_fields(doc, ("rules",), "rules file")
    if not isinstance(rules, dict):
        raise ValidationError("field 'rules' must hold a JSON object")
    n = len(rules) if game is None else game.n
    out = {}
    for key, matrix in rules.items():
        if not (key.isdecimal() and key == str(int(key))):
            raise ValidationError(f"rules key {key!r} is not a player number")
        p = int(key)
        if not 1 <= p <= n:
            raise ValidationError(f"player {p} outside 1..{n}")
        m = numeric_table(matrix, f"rule of player {p}")
        if game is not None:
            expected = (game.k[p - 1], game.kappa)
            if m.shape != expected:
                raise ValidationError(
                    f"rule of player {p} has shape {m.shape}, "
                    f"expected {expected} (strategies x profiles)")
        out[p] = build_rule(p, m)
    missing = [p for p in players if p not in out]
    if missing:
        raise ValidationError(f"no rule given for players {missing}")
    return out


def _random_interior_rule(rng, player: int, k: int, kappa: int):
    # entries strictly inside (0, 1): draw positive weights and normalize
    w = rng.uniform(0.1, 1.0, size=(k, kappa))
    return build_rule(player, w / w.sum(axis=0))


def _random_trials(seed, game: GameSpec, designer: int, count: int) -> list:
    """count draws of a random interior rule for every other player."""
    if count < 0:
        raise ValidationError(f"--random-opponents must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    return [{p: _random_interior_rule(rng, p, game.k[p - 1], game.kappa)
             for p in range(1, game.n + 1) if p != designer}
            for _ in range(count)]


def _emit(doc: dict, out, pretty: bool, end: str = "\n"):
    """Write doc as JSON to the file out, or print it; every output goes
    through here.  end follows the text in a file (neg's files have none)."""
    # allow_nan=False: a NaN or infinity would make the output invalid JSON
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out:
        write_text(out, text + end)
    else:
        print(text)
    if pretty:
        _render_table(doc)


def _render_table(doc: dict, indent: str = ""):
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _render_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], (int, float)):
            body = "  ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                             for v in value)
            print(f"{indent}{key:<20} {body}")
        else:
            print(f"{indent}{key:<20} {value}")


# ---------------------------------------------------------------------------
# subcommands


def _verify_trials(game, assignment, trials, tol) -> dict:
    """The verification block verify and neg report, one report per trial."""
    reports = [verify_effectiveness(game, assignment, rules, residual_tol=tol)
               for rules in trials]
    return {
        "trials": len(reports),
        "all_effective": all(r.effective for r in reports),
        "reports": [r.to_json() for r in reports],
    }


def cmd_design(args) -> int:
    game = GameSpec.load(args.game)
    assignment = _assemble_specs(game, args.player, args.relation)
    report = rationality_check(assignment)
    doc = assignment.to_json()
    doc["rationality"] = report.to_json()
    _emit(doc, args.out, args.pretty)
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    game = GameSpec.load(args.game)
    assignment = load_json(args.assignment, ZDAssignment.from_json, game)
    if args.opponents is not None:
        others = [p for p in range(1, game.n + 1) if p != assignment.designer]
        trials = [load_json(args.opponents, _read_rules, game, others)]
    else:
        trials = _random_trials(args.seed, game, assignment.designer,
                                args.random_opponents)
        if not trials:
            raise ValidationError("--random-opponents 0 gives verify nothing to check")
    doc = _verify_trials(game, assignment, trials, args.tol)
    _emit(doc, args.out, args.pretty)
    return EXIT_OK if doc["all_effective"] else EXIT_CHECK_FAILED


def cmd_analyze(args) -> int:
    if args.matrix is not None:
        if args.game is not None:
            raise ValidationError("--game applies to --rules, not --matrix")
        L = load_json(args.matrix, _read_matrix)
    else:
        game = GameSpec.load(args.game) if args.game is not None else None
        players = range(1, game.n + 1) if game is not None else ()
        rules = load_json(args.rules, _read_rules, game, players)
        L = build_pee([rules[p] for p in sorted(rules)])
    report = analyze(L)
    _emit(report.to_json(), args.out, args.pretty)
    return EXIT_OK


def cmd_simulate(args) -> int:
    game = GameSpec.load(args.game)
    designed = {}
    if args.assignment:
        assignment = load_json(args.assignment, ZDAssignment.from_json, game)
        designed = {assignment.designer: assignment.as_rule()}
    others = [p for p in range(1, game.n + 1) if p not in designed]
    rules = {**load_json(args.rules, _read_rules, game, others), **designed}
    L = build_pee([rules[p] for p in sorted(rules)])
    traj = simulate(L, x0=args.x0, steps=args.steps, seed=args.seed, game=game)
    doc = traj.to_json()
    report = analyze(L)
    if report.stationary is not None:
        doc.update(compare_empirical_vs_exact(
            traj, report.stationary, payoff_vectors=game.payoffs, z=args.z))
    _emit(doc, args.out, args.pretty)
    return EXIT_OK if doc.get("pass", True) else EXIT_CHECK_FAILED


def cmd_neg(args) -> int:
    if not args.out:
        raise ValidationError("neg writes several artifacts; --out DIR is required")
    net = NetworkGame.load(args.network)
    node = args.node
    if node not in net.position and node.removeprefix("-").isdecimal():
        node = int(node)  # an integer id, such as -1
    try:
        fop = reduce_to_fop(net, node)
    except ZDKitError as exc:
        raise ValidationError(f"{args.network}: {exc}") from exc
    assignment = _assemble_specs(fop.game, 1, args.relation)
    rationality = rationality_check(assignment)
    trials = _random_trials(args.seed, fop.game, 1, args.random_opponents)
    report_doc = {"node": str(fop.focal), "rational": rationality.verdict,
                  **_verify_trials(fop.game, assignment, trials, args.tol)}
    os.makedirs(args.out, exist_ok=True)
    game_doc = fop.game.to_json()
    game_doc["focal_node"] = str(fop.focal)
    game_doc["aggregate_profiles"] = [list(c) for c in fop.aggregate_profiles]
    for name, doc in (("reduced_game.json", game_doc),
                      ("assignment.json", assignment.to_json()),
                      ("report.json", report_doc)):
        _emit(doc, os.path.join(args.out, name), False, end="")
    if args.pretty:
        _render_table(report_doc)
    all_ok = rationality.verdict and report_doc["all_effective"]
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The zdkit argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="zdkit",
        description="Design and verify payoff-controlling strategies "
                    "for repeated finite games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--pretty", action="store_true",
                       help="also print a human-readable table")

    p = sub.add_parser("design", help="design strategy rows from payoff relations")
    p.add_argument("--game", required=True)
    p.add_argument("--player", type=int, required=True, help="designing player (1-based)")
    p.add_argument("--relation", action="append", required=True,
                   help="pin:target=M,value=R,row=J,mu=MU | "
                        "extort:target=M,factor=CHI,r=R,row=J,mu=MU | "
                        "lin:coeffs=A1:...:AN,constant=A0,row=J,mu=MU "
                        "(mu may be 'auto')")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("verify", help="verify an assignment against opponents")
    p.add_argument("--game", required=True)
    p.add_argument("--assignment", required=True)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--opponents", help="JSON file with opponents' rule matrices")
    given.add_argument("--random-opponents", type=int,
                       help="verify against N random interior opponents")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=_positive, default=RESIDUAL_TOL,
                   help="residual tolerance for effectiveness")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="Markov analysis of a transition matrix")
    p.add_argument("--game", help="the game the --rules file is checked against")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--matrix", help="JSON file with the transition matrix")
    given.add_argument("--rules", help="JSON file with all players' rules")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte-Carlo trajectory of the chain")
    p.add_argument("--game", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--assignment", help="splice a designed rule over its player")
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--x0", type=int, default=1)
    p.add_argument("--z", type=_positive, default=4.0,
                   help="z-score threshold for the empirical-vs-exact check")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("neg", help="reduce a networked game and design for one node")
    p.add_argument("--network", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--relation", action="append", required=True,
                   help="relation specs on the reduced 2-player game "
                        "(opponent is player 2)")
    p.add_argument("--random-opponents", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=_positive, default=RESIDUAL_TOL,
                   help="residual tolerance for effectiveness")
    common(p)
    p.set_defaults(func=cmd_neg)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ZDKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
