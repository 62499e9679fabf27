import json
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

import zdkit
from zdkit import GameSpec, ZDAssignment, build_pee
from zdkit.cli import main
from conftest import (
    EXTORTION_PAYOFFS,
    EXTORTION_ROW_1,
    EXTORTION_ROW_2,
    PINNING_PAYOFFS,
    PINNING_ROW_1,
    PINNING_ROW_2,
)


def save_game(game, path):
    """Write a game file as GameSpec.load reads it."""
    pathlib.Path(path).write_text(json.dumps(game.to_json(), indent=2))


@pytest.fixture
def pinning_game_file(tmp_path):
    path = tmp_path / "pinning.json"
    save_game(GameSpec(k=(2, 3, 2), payoffs=PINNING_PAYOFFS), path)
    return str(path)


@pytest.fixture
def extortion_game_file(tmp_path):
    path = tmp_path / "extortion.json"
    save_game(GameSpec(k=(2, 3, 2), payoffs=EXTORTION_PAYOFFS), path)
    return str(path)


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.json"
    doc = {
        "nodes": ["A", "B", "C", "D", "E"],
        "edges": [["A", "B"], ["A", "C"], ["B", "C"], ["B", "D"],
                  ["C", "D"], ["C", "E"]],
        "base_game": {"k": 2, "payoff_bimatrix": [[3, 0], [5, 1]]},
    }
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main(args)


def test_design_pinning_writes_golden_rows(pinning_game_file, tmp_path):
    out = tmp_path / "assignment.json"
    code = run([
        "design", "--game", pinning_game_file, "--player", "2",
        "--relation", "pin:target=1,value=4,row=1,mu=0.1",
        "--relation", "pin:target=3,value=3,row=2,mu=0.1",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rationality"]["rational"]
    rows = np.array(doc["rows"])
    np.testing.assert_allclose(rows[0], PINNING_ROW_1, atol=1e-12)
    np.testing.assert_allclose(rows[1], PINNING_ROW_2, atol=1e-12)


def test_design_extortion_writes_golden_rows(extortion_game_file, tmp_path):
    out = tmp_path / "assignment.json"
    code = run([
        "design", "--game", extortion_game_file, "--player", "2",
        "--relation", "extort:target=1,factor=1.1,r=1,row=1,mu=0.05",
        "--relation", "extort:target=3,factor=1.2,r=1,row=2,mu=0.1",
        "--out", str(out),
    ])
    assert code == 0
    rows = np.array(json.loads(out.read_text())["rows"])
    np.testing.assert_allclose(rows[0], EXTORTION_ROW_1, atol=1e-12)
    np.testing.assert_allclose(rows[1], EXTORTION_ROW_2, atol=1e-12)


def test_design_rejects_zero_mu(pinning_game_file, capsys):
    code = run([
        "design", "--game", pinning_game_file, "--player", "2",
        "--relation", "pin:target=1,value=4,row=1,mu=0",
    ])
    assert code == 2
    assert "nonzero" in capsys.readouterr().err


def test_design_no_rational_mu_prints_no_negative_zero(pinning_game_file, capsys):
    code = run(["design", "--game", pinning_game_file, "--player", "2",
                "--relation", "lin:coeffs=1:2:3,row=1"])
    assert code == 2
    assert "feasible mu interval [0, 0] for row 1" in capsys.readouterr().err


def test_design_irrational_mu_exits_one(pinning_game_file, tmp_path):
    out = tmp_path / "a.json"
    code = run([
        "design", "--game", pinning_game_file, "--player", "2",
        "--relation", "pin:target=1,value=4,row=1,mu=0.5",
        "--out", str(out),
    ])
    assert code == 1


def test_verify_reads_back_an_irrational_design_with_large_entries(tmp_path,
                                                                   capsys):
    # with mu = -2e7 the leftover split rounds column 5's sum to
    # 1 + 4e-9, beyond DEFAULT_TOL but within eps per unit of its entries
    game = tmp_path / "g.json"
    game.write_text(json.dumps({
        "players": 2, "strategy_counts": [4, 2],
        "payoffs": [[2, 3, 4, 5, 0, 0, 4, 5], [1, 1, 5, 2, 1, 4, 1, 2]]}))
    assignment = tmp_path / "a.json"
    assert run(["design", "--game", str(game), "--player", "1",
                "--relation", "pin:target=2,value=2.5,row=1,mu=-2e7",
                "--out", str(assignment)]) == 1
    out = tmp_path / "report.json"
    assert run(["verify", "--game", str(game), "--assignment", str(assignment),
                "--random-opponents", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    (report,) = json.loads(out.read_text())["reports"]
    assert not report["rational"] and report["conditions"] == {
        "limit": None, "rank": None}


def test_design_auto_mu(pinning_game_file, tmp_path):
    out = tmp_path / "a.json"
    code = run([
        "design", "--game", pinning_game_file, "--player", "2",
        "--relation", "pin:target=1,value=4,row=1,mu=auto",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["relations"][0]["mu"] != 0


def test_verify_random_opponents(extortion_game_file, tmp_path):
    assignment = tmp_path / "a.json"
    run([
        "design", "--game", extortion_game_file, "--player", "2",
        "--relation", "extort:target=1,factor=1.1,r=1,row=1,mu=0.05",
        "--relation", "extort:target=3,factor=1.2,r=1,row=2,mu=0.1",
        "--out", str(assignment),
    ])
    report = tmp_path / "verify.json"
    code = run([
        "verify", "--game", extortion_game_file, "--assignment", str(assignment),
        "--random-opponents", "5", "--seed", "3", "--out", str(report),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["all_effective"] and doc["trials"] == 5
    for rep in doc["reports"]:
        assert all(r < 1e-8 for r in rep["residuals"])


def test_verify_explicit_opponents_ineffective(tmp_path):
    # designer row degenerates to "repeat my move"; switching opponent
    # makes the chain periodic, so the limit condition must fail.  design
    # refuses the relation, which is zero on this game, so the file is
    # written directly.
    game_path = tmp_path / "game.json"
    save_game(GameSpec(k=(2, 2), payoffs=np.tile(np.arange(4.0), (2, 1))), game_path)
    assignment = tmp_path / "a.json"
    assignment.write_text(json.dumps({
        "designer": 1, "rows": [[1, 1, 0, 0], [0, 0, 1, 1]],
        "relations": [{"coeffs": [1, -1], "constant": 0, "mu": 0.5,
                       "row_index": 1}]}))
    opponents = tmp_path / "opp.json"
    opponents.write_text(json.dumps(
        {"rules": {"2": [[0, 1, 0, 1], [1, 0, 1, 0]]}}))
    report = tmp_path / "verify.json"
    code = run([
        "verify", "--game", str(game_path), "--assignment", str(assignment),
        "--opponents", str(opponents), "--out", str(report),
    ])
    assert code == 1
    doc = json.loads(report.read_text())
    assert not doc["reports"][0]["conditions"]["limit"]


def test_verify_missing_field_exits_two(extortion_game_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"designer": 2}))
    code = run([
        "verify", "--game", extortion_game_file, "--assignment", str(bad),
        "--random-opponents", "1",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_analyze_matrix(tmp_path):
    mat = tmp_path / "L.json"
    mat.write_text(json.dumps({"matrix": [[0.9, 0.5], [0.1, 0.5]]}))
    out = tmp_path / "report.json"
    code = run(["analyze", "--matrix", str(mat), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["primitive"] and doc["rank_defect"] == 1
    np.testing.assert_allclose(doc["stationary"], [5 / 6, 1 / 6], atol=1e-10)


def test_analyze_matrix_reads_a_bare_table_of_rows(tmp_path):
    # README: the matrix file is {"matrix": rows} or the bare table of rows
    rows = [[0.9, 0.5], [0.1, 0.5]]
    reports = []
    for name, doc in (("wrapped", {"matrix": rows}), ("bare", rows)):
        mat, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
        mat.write_text(json.dumps(doc))
        assert run(["analyze", "--matrix", str(mat), "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_analyze_matrix_non_numeric_exits_two(tmp_path, capsys):
    mat = tmp_path / "L.json"
    mat.write_text(json.dumps({"matrix": [[0.9, "x"], [0.1, 0.5]]}))
    code = run(["analyze", "--matrix", str(mat)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(mat) in err and "column 2" in err


def test_analyze_matrix_not_stochastic_exits_two(tmp_path, capsys):
    mat = tmp_path / "L.json"
    # column 2 has a negative entry; column 1 alone would be fine
    mat.write_text(json.dumps({"matrix": [[0.9, 1.2], [0.1, -0.2]]}))
    assert run(["analyze", "--matrix", str(mat)]) == 2
    err = capsys.readouterr().err
    assert str(mat) in err and "column 2" in err
    # column 1 sums to 0.9
    mat.write_text(json.dumps({"matrix": [[0.8, 0.5], [0.1, 0.5]]}))
    assert run(["analyze", "--matrix", str(mat)]) == 2
    err = capsys.readouterr().err
    assert str(mat) in err and "column 1" in err
    # column 1 sums to 1 + 5e-9, over a 2x2 chain's 2e-9, which .6g would
    # print as 1
    mat.write_text(json.dumps({"matrix": [[0.5 + 5e-9, 0.5], [0.5, 0.5]]}))
    assert run(["analyze", "--matrix", str(mat)]) == 2
    err = capsys.readouterr().err
    assert str(mat) in err and "column 1 (profile 1)" in err
    assert "(sum 1.000000005, smallest entry 0.5)" in err


# each rule's columns sum to 1 + DRIFT, which the rule check takes; the
# chain's sums are then off by about 2 * DRIFT, more than one rule may be
DRIFT = 0.9e-9


def _drifting_rows(p, kappa=4):
    return [[p + DRIFT] * kappa, [1 - p] * kappa]


def test_product_of_accepted_rules_passes_the_chain_check(tmp_path, capsys):
    game, assignment = _assignment_file(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {"1": _drifting_rows(0.3),
                                           "2": _drifting_rows(0.6)}}))
    matrix = tmp_path / "L.json"
    L = build_pee([np.array(_drifting_rows(p)) for p in (0.3, 0.6)])
    assert np.abs(L.sum(axis=0) - 1).max() > 1.5e-9
    matrix.write_text(json.dumps({"matrix": L.tolist()}))
    capsys.readouterr()
    for argv in (["analyze", "--rules", str(rules)],
                 ["analyze", "--game", game, "--rules", str(rules)],
                 ["simulate", "--game", game, "--rules", str(rules),
                  "--steps", "2000"],
                 # their product, read as a matrix file, has the same drift
                 ["analyze", "--matrix", str(matrix)]):
        assert run(argv) == 0, capsys.readouterr().err
    # verify and simulate on an assignment and an opponent with that drift
    doc = json.loads(assignment.read_text())
    doc["rows"][1] = [v + DRIFT for v in doc["rows"][1]]
    assignment.write_text(json.dumps(doc))
    opponent = tmp_path / "opponent.json"
    opponent.write_text(json.dumps({"rules": {"2": _drifting_rows(0.6)}}))
    out = tmp_path / "report.json"
    assert run(["verify", "--game", game, "--assignment", str(assignment),
                "--opponents", str(opponent), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_effective"]
    assert run(["simulate", "--game", game, "--rules", str(opponent),
                "--assignment", str(assignment), "--steps", "2000"]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_command(extortion_game_file, tmp_path):
    rng = np.random.default_rng(50)

    def interior(k):
        w = rng.uniform(0.1, 1, size=(k, 12))
        return (w / w.sum(axis=0)).tolist()

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(
        {"rules": {"1": interior(2), "2": interior(3), "3": interior(2)}}))
    out = tmp_path / "sim.json"
    code = run([
        "simulate", "--game", extortion_game_file, "--rules", str(rules),
        "--steps", "50000", "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"]
    assert abs(sum(doc["empirical"]) - 1.0) < 1e-12


def test_neg_pipeline(network_file, tmp_path):
    outdir = tmp_path / "neg_out"
    code = run([
        "neg", "--network", network_file, "--node", "A",
        "--relation", "pin:target=2,value=2,row=1,mu=auto",
        "--random-opponents", "5", "--seed", "9", "--out", str(outdir),
    ])
    assert code == 0
    game_doc = json.loads((outdir / "reduced_game.json").read_text())
    assert game_doc["strategy_counts"] == [2, 3]
    assert game_doc["payoffs"][0] == [6, 3, 0, 10, 6, 2]
    report = json.loads((outdir / "report.json").read_text())
    assert report["rational"] and report["all_effective"]
    assignment = ZDAssignment.from_json(
        json.loads((outdir / "assignment.json").read_text()),
        GameSpec.from_json(game_doc))
    assert assignment.rows.shape[1] == 6


def test_neg_degree_one_matches_direct_run(network_file, tmp_path):
    outdir = tmp_path / "neg_e"
    code = run([
        "neg", "--network", network_file, "--node", "E",
        "--relation", "pin:target=2,value=2,row=1,mu=auto",
        "--random-opponents", "3", "--out", str(outdir),
    ])
    assert code == 0
    game_doc = json.loads((outdir / "reduced_game.json").read_text())
    assert game_doc["strategy_counts"] == [2, 2]
    # direct two-player design over the same bimatrix game
    direct_game = tmp_path / "direct.json"
    save_game(GameSpec(k=(2, 2), payoffs=np.array(game_doc["payoffs"])), direct_game)
    direct_out = tmp_path / "direct_a.json"
    run([
        "design", "--game", str(direct_game), "--player", "1",
        "--relation", "pin:target=2,value=2,row=1,mu=auto",
        "--out", str(direct_out),
    ])
    np.testing.assert_array_equal(
        json.loads((outdir / "assignment.json").read_text())["rows"],
        json.loads(direct_out.read_text())["rows"])


def test_neg_unknown_node(network_file, capsys):
    code = run([
        "neg", "--network", network_file, "--node", "Z",
        "--relation", "pin:target=2,value=2,row=1,mu=auto", "--out", "/tmp/x",
    ])
    assert code == 2


def test_neg_isolated_node_of_edgeless_network_exits_two(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**_network_doc(), "edges": []}))
    code = run(["neg", "--network", str(path), "--node", "b",
                "--relation", "pin:target=2,value=2,row=1,mu=auto",
                "--random-opponents", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "node 'b' has no neighbors" in capsys.readouterr().err


def test_assignment_file_roundtrip(extortion_game_file, tmp_path):
    assignment = tmp_path / "a.json"
    run([
        "design", "--game", extortion_game_file, "--player", "2",
        "--relation", "extort:target=1,factor=1.1,r=1,row=1,mu=0.05",
        "--out", str(assignment),
    ])
    doc = json.loads(assignment.read_text())
    loaded = ZDAssignment.from_json(doc, GameSpec.load(extortion_game_file))
    redumped = loaded.to_json()
    assert redumped["rows"] == doc["rows"]
    assert redumped["relations"] == doc["relations"]


def test_pretty_rendering(pinning_game_file, capsys, tmp_path):
    out = tmp_path / "a.json"
    run([
        "design", "--game", pinning_game_file, "--player", "2",
        "--relation", "pin:target=1,value=4,row=1,mu=0.1",
        "--out", str(out), "--pretty",
    ])
    captured = capsys.readouterr().out
    assert "rationality" in captured


def test_pretty_renders_a_list_of_numbers(tmp_path, capsys):
    argv = _analyze_matrix_argv(tmp_path)
    assert run([*argv, "--out", os.devnull, "--pretty"]) == 0
    assert "\nstationary           0.833333  0.166667\n" in capsys.readouterr().out


def test_neg_pretty_prints_the_report_after_the_files(network_file, tmp_path,
                                                      capsys, monkeypatch):
    from zdkit import cli

    argv = ["neg", "--network", network_file, "--node", "A",
            "--relation", "pin:target=2,value=2,row=1,mu=auto",
            "--random-opponents", "2", "--seed", "9", "--out"]
    plain, pretty = tmp_path / "plain", tmp_path / "pretty"
    names = ("reduced_game.json", "assignment.json", "report.json")
    assert run([*argv, str(plain)]) == 0
    assert capsys.readouterr().out == ""
    render = cli._render_table

    def render_after_the_files(doc, indent=""):
        assert all((pretty / name).exists() for name in names)
        render(doc, indent)

    monkeypatch.setattr(cli, "_render_table", render_after_the_files)
    assert run([*argv, str(pretty), "--pretty"]) == 0
    for name in names:
        assert (pretty / name).read_bytes() == (plain / name).read_bytes()
    table = capsys.readouterr().out
    assert table.startswith("node                 A\nrational             True\n"
                            "trials               2\n")


def test_malformed_relation_spec(pinning_game_file, capsys):
    code = run([
        "design", "--game", pinning_game_file, "--player", "2",
        "--relation", "pin:target=1",
    ])
    assert code == 2


def _interior_rows(rng, k, kappa=12):
    w = rng.uniform(0.1, 1, size=(k, kappa))
    return (w / w.sum(axis=0)).tolist()


# each bad rules file, with the player its error message must name
BAD_RULES_PLAYER = {
    "key_not_integer": "'x'",
    "entries_not_numeric": "player 1",
    "player_out_of_range": "player 4",
    "row_count_mismatch": "player 2",
}


@pytest.mark.parametrize("case", list(BAD_RULES_PLAYER))
def test_simulate_bad_rules_file_exits_two(extortion_game_file, tmp_path,
                                           capsys, case):
    rng = np.random.default_rng(51)
    rules = {"1": _interior_rows(rng, 2), "2": _interior_rows(rng, 3),
             "3": _interior_rows(rng, 2)}
    if case == "key_not_integer":
        rules["x"] = rules.pop("1")
    elif case == "entries_not_numeric":
        rules["1"][0][3] = "half"
    elif case == "player_out_of_range":
        rules["4"] = _interior_rows(rng, 2)
    elif case == "row_count_mismatch":
        rules["2"] = _interior_rows(rng, 2)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": rules}))
    code = run(["simulate", "--game", extortion_game_file, "--rules", str(path),
                "--steps", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(path) in err and BAD_RULES_PLAYER[case] in err


def test_analyze_rules_without_game_checks_keys_and_entries(tmp_path, capsys):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {"one": [[1, 0], [0, 1]]}}))
    assert run(["analyze", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "'one'" in err
    path.write_text(json.dumps({"rules": {"1": [[1, None], [0, 1]]}}))
    assert run(["analyze", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "player 1" in err


def test_analyze_rules_without_game_checks_shapes_naming_the_file(tmp_path,
                                                                  capsys):
    # k and kappa come from the rules' own row counts and their product
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {"1": [[0.5] * 2] * 2,
                                          "2": [[0.5] * 3] * 2}}))
    assert run(["analyze", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "rule of player 1 has shape (2, 2), expected (2, 4)" in err


def test_simulate_out_of_memory_exits_two(extortion_game_file, tmp_path,
                                          capsys):
    # 10**14 int64 states need 800 TB, more than the user address space,
    # so the allocation fails at once whatever the overcommit policy
    rng = np.random.default_rng(52)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {
        "1": _interior_rows(rng, 2), "2": _interior_rows(rng, 3),
        "3": _interior_rows(rng, 2)}}))
    code = run(["simulate", "--game", extortion_game_file, "--rules", str(path),
                "--steps", str(10 ** 14)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def _network_doc():
    return {"nodes": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
            "base_game": {"k": 2, "payoff_bimatrix": [[3, 0], [5, 1]]}}


def _bad_network(case):
    doc = _network_doc()
    if case == "malformed_json":
        return '{"nodes": ["a", "b"'
    if case == "node_not_scalar":
        doc["nodes"][1] = ["b"]
        doc["edges"] = [["a", ["b"]], [["b"], "c"]]
    elif case == "edge_three_ends":
        doc["edges"][0] = ["a", "b", "c"]
    elif case == "payoff_not_numeric":
        doc["base_game"]["payoff_bimatrix"][1][0] = "five"
    elif case == "payoff_numeric_string":
        doc["base_game"]["payoff_bimatrix"][1][0] = "5"
    elif case == "payoff_missing":
        del doc["base_game"]["payoff_bimatrix"]
    elif case == "duplicate_node":
        doc["nodes"] = ["a", "b", "a", "c"]
    elif case == "nodes_not_list":
        doc["nodes"] = "abc"
    elif case == "edges_not_list":
        doc["edges"] = {"a": "b"}
    elif case == "edge_string":
        # a string of length 2 would otherwise unpack as two one-letter ends
        doc["edges"] = ["ab"]
    elif case == "k_mismatch":
        doc["base_game"]["k"] = 3
    elif case == "bimatrix_not_square":
        doc["base_game"] = {"payoff_bimatrix": [[3, 0, 1], [5, 1, 2]]}
    elif case in ("edge_end_bool", "edge_end_float"):
        # true and 2.0 equal the node ids 1 and 2 but are not ids themselves
        doc["nodes"] = [1, 2, 3]
        doc["edges"] = [[1, 2], [2.0, 3]] if case == "edge_end_float" else [[True, 2]]
    elif case.startswith("str_ids_"):
        # with string ids the end types are checked only once loading fails;
        # the type message must still win over any other fault
        doc["edges"] = {"str_ids_end_true": [["a", "b"], ["b", True]],
                        "str_ids_end_null": [["a", None]],
                        "str_ids_end_float": [["a", "b"], [1.5, "c"]],
                        "str_ids_end_list": [["a", ["v0"]]],
                        "str_ids_end_after_self_loop": [["a", "a"], ["b", True]],
                        "str_ids_end_and_bad_base": [["a", None]]}[case]
        if case == "str_ids_end_and_bad_base":
            del doc["base_game"]["payoff_bimatrix"]
    return json.dumps(doc)


# each bad network file, with what its error message must name
BAD_NETWORK = {
    "malformed_json": "line 1",
    "node_not_scalar": "['b']",
    "edge_three_ends": "['a', 'b', 'c']",
    "payoff_not_numeric": "payoff_bimatrix: entry in row 2, column 1",
    "payoff_numeric_string": "payoff_bimatrix: entry in row 2, column 1",
    "payoff_missing": "base_game.payoff_bimatrix",
    "duplicate_node": "duplicate node 'a'",
    "nodes_not_list": "network fields 'nodes' and 'edges' must be lists",
    "edges_not_list": "network fields 'nodes' and 'edges' must be lists",
    "edge_string": "edge 'ab' is not a pair of nodes",
    "k_mismatch": "base_game.k = 3 but payoff matrix is 2x2",
    "bimatrix_not_square": "base payoff must be square (k >= 2), got (2, 3)",
    "edge_end_bool": "edge [True, 2] has an end that is not a string or an integer",
    "edge_end_float": "edge [2.0, 3] has an end that is not a string or an integer",
    "str_ids_end_true": "edge ['b', True] has an end that is not a string or an integer",
    "str_ids_end_null": "edge ['a', None] has an end that is not a string or an integer",
    "str_ids_end_float": "edge [1.5, 'c'] has an end that is not a string or an integer",
    "str_ids_end_list":
        "edge ['a', ['v0']] has an end that is not a string or an integer",
    "str_ids_end_after_self_loop":
        "edge ['b', True] has an end that is not a string or an integer",
    "str_ids_end_and_bad_base":
        "edge ['a', None] has an end that is not a string or an integer",
}


@pytest.mark.parametrize("case", list(BAD_NETWORK))
def test_neg_bad_network_file_exits_two(tmp_path, capsys, case):
    path = tmp_path / "net.json"
    path.write_text(_bad_network(case))
    code = run(["neg", "--network", str(path), "--node", "b",
                "--relation", "pin:target=2,value=2,row=1,mu=auto",
                "--random-opponents", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(path) in err and BAD_NETWORK[case] in err


def test_verify_opponents_file_missing_player_exits_two(pinning_game_file,
                                                        tmp_path, capsys):
    assignment = tmp_path / "a.json"
    assert run(["design", "--game", pinning_game_file, "--player", "2",
                "--relation", "pin:target=1,value=4,row=1,mu=0.1",
                "--out", str(assignment)]) == 0
    rng = np.random.default_rng(53)
    path = tmp_path / "opponents.json"
    path.write_text(json.dumps({"rules": {"1": _interior_rows(rng, 2)}}))
    code = run(["verify", "--game", pinning_game_file, "--assignment",
                str(assignment), "--opponents", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "players [3]" in err


def test_verify_opponents_file_with_a_designer_rule_exits_two(tmp_path, capsys):
    # the 2x2 prisoner's dilemma with designer 1: a file giving player 1 an
    # always-defect rule was ignored, and the assignment's rule was used
    game = tmp_path / "pd.json"
    save_game(GameSpec(k=(2, 2), payoffs=[[3, 0, 5, 1], [3, 5, 0, 1]]), game)
    assignment = tmp_path / "a.json"
    assert run(["design", "--game", str(game), "--player", "1",
                "--relation", "pin:target=2,value=2,row=1,mu=auto",
                "--out", str(assignment)]) == 0
    path = tmp_path / "opponents.json"
    path.write_text(json.dumps({"rules": {"1": [[0] * 4, [1] * 4],
                                          "2": [[0.5] * 4, [0.5] * 4]}}))
    capsys.readouterr()
    code = run(["verify", "--game", str(game), "--assignment", str(assignment),
                "--opponents", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: player 1 is the designer; its rule "
                          f"comes from --assignment")
    # simulate keeps its splice: the designed rule replaces the file's
    assert run(["simulate", "--game", str(game), "--rules", str(path),
                "--assignment", str(assignment), "--steps", "100"]) == 0


def test_analyze_rejects_numeric_strings(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {"1": [["0.5", "0.5"], ["0.5", "0.5"]]}}))
    assert run(["analyze", "--rules", str(rules)]) == 2
    err = capsys.readouterr().err
    assert str(rules) in err and "player 1" in err and "'0.5'" in err
    mat = tmp_path / "L.json"
    mat.write_text(json.dumps({"matrix": [[0.9, 0.5], [0.1, "0.5"]]}))
    assert run(["analyze", "--matrix", str(mat)]) == 2
    err = capsys.readouterr().err
    assert str(mat) in err and "row 2, column 2" in err and "'0.5'" in err


@pytest.mark.parametrize("entry", ["x", "4"], ids=["word", "numeric_string"])
def test_design_game_payoff_not_a_number_exits_two(tmp_path, capsys, entry):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": 2, "strategy_counts": [2, 2],
                                "payoffs": [[1, 2, 3, entry], [1, 2, 3, 4]]}))
    code = run(["design", "--game", str(path), "--player", "1",
                "--relation", "pin:target=2,value=2,row=1,mu=auto"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "payoffs: entry in row 1, column 4" in err


# ---------------------------------------------------------------------------
# one design entry point: the CLI and the library build the same assignment

PD_GAME = np.array([[3, 0, 5, 1], [3, 5, 0, 1]], dtype=float)


@pytest.mark.parametrize("mu", ["0.05", "auto"])
@pytest.mark.parametrize("kind", ["pin", "extort"])
@pytest.mark.parametrize("command", ["design", "neg"])
def test_cli_assignment_matches_library_design(network_file, tmp_path, command,
                                               kind, mu):
    from zdkit import LinearRelation, assemble, reduce_to_fop
    from test_network import fig1_network

    if command == "design":
        game = GameSpec(k=(2, 2), payoffs=PD_GAME)
        save_game(game, tmp_path / "game.json")
        out = tmp_path / "a.json"
        argv = ["design", "--game", str(tmp_path / "game.json"),
                "--player", "1", "--out", str(out)]
    else:
        game = reduce_to_fop(fig1_network(), "A").game
        out = tmp_path / "neg" / "assignment.json"
        argv = ["neg", "--network", network_file, "--node", "A",
                "--random-opponents", "0", "--out", str(tmp_path / "neg")]
    library_mu = None if mu == "auto" else float(mu)
    if kind == "pin":
        spec = f"pin:target=2,value=2,row=1,mu={mu}"
        relation = LinearRelation.pinning(2, target=2, value=2.0)
    else:
        # r = 2 leaves both games a feasible mu range
        spec = f"extort:target=2,factor=1.5,r=2,row=1,mu={mu}"
        relation = LinearRelation.extortion(2, designer=1, target=2,
                                            factor=1.5, reference=2.0)
    want = assemble(game, 1, [(1, relation, library_mu)])
    assert run(argv + ["--relation", spec]) in (0, 1)
    doc = json.loads(out.read_text())
    doc.pop("rationality", None)
    assert doc == json.loads(json.dumps(want.to_json()))


# ---------------------------------------------------------------------------
# --relation input contract on a k = (2, 2) game: (spec, field it must name)

BAD_RELATIONS = {
    "pin_target_zero": ("pin:target=0,value=2,row=1,mu=auto", "target"),
    "extort_target_zero": ("extort:target=0,factor=1.5,r=1,row=1,mu=auto",
                           "target"),
    "target_past_n": ("pin:target=9,value=2,row=1,mu=auto", "target"),
    "value_not_number": ("pin:target=2,value=abc,row=1,mu=auto", "value"),
    "row_not_integer": ("pin:target=2,value=2,row=x,mu=auto", "row"),
    "mu_not_number": ("pin:target=2,value=2,row=1,mu=zz", "mu"),
    "coeffs_not_numbers": ("lin:coeffs=1:a,constant=0,row=1,mu=auto", "coeffs"),
    "row_past_k": ("pin:target=2,value=2,row=9,mu=auto", "row 9"),
    "coeffs_count": ("lin:coeffs=1:2:3,row=1", "3 coefficients for 2 players"),
    "zero_relation_row": ("pin:target=2,value=2,row=1,mu=auto",
                          "identically zero"),
    "unknown_kind": ("foo:row=1,mu=auto", "unknown relation kind 'foo'"),
    "field_without_value": ("pin:target=2,value,row=1", "malformed field 'value'"),
    "no_kind": ("target=2,value=2,row=1", "missing 'kind:' prefix"),
    # a repeated field, or one its kind does not take, was once ignored
    "mu_twice": ("pin:target=2,value=2,row=1,mu=0.1,mu=auto", "'mu' given twice"),
    "row_twice": ("pin:target=2,value=2,row=1,row=1,mu=0.1", "'row' given twice"),
    "misspelt_mu": ("pin:target=2,value=2,row=1,m=0.1", "no field 'm'"),
    "pin_takes_no_factor": ("pin:target=2,value=2,row=1,factor=3,coeffs=1:2",
                            "no field 'factor'"),
    "extort_takes_no_value": ("extort:target=2,factor=1.5,r=1,value=2,row=1",
                              "no field 'value'"),
    "lin_takes_no_target": ("lin:coeffs=1:0,target=2,row=1", "no field 'target'"),
    "extort_self": ("extort:target=1,factor=1.5,r=1,row=1,mu=auto",
                    "extortion target must differ from the designer"),
}

# payoffs a case needs instead of PD_GAME: player 2 collects 2 at every
# profile, so pinning it to 2 makes the relation row identically zero
RELATION_GAMES = {"zero_relation_row": [[1, 2, 3, 4], [2, 2, 2, 2]]}


@pytest.mark.parametrize("case", list(BAD_RELATIONS))
def test_malformed_relation_field_exits_two(tmp_path, capsys, case):
    spec, field = BAD_RELATIONS[case]
    payoffs = RELATION_GAMES.get(case, PD_GAME)
    save_game(GameSpec(k=(2, 2), payoffs=payoffs), tmp_path / "game.json")
    code = run(["design", "--game", str(tmp_path / "game.json"),
                "--player", "1", "--relation", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(spec) in err
    assert field in err.split(repr(spec), 1)[1]


# argparse refuses both of two exclusive inputs, or neither, with exit 2
EXCLUSIVE_INPUTS = {
    "analyze_matrix_and_rules": (
        ["analyze", "--matrix", "{L}", "--rules", "{tmp}/absent.json"],
        "argument --rules: not allowed with argument --matrix"),
    "analyze_neither": (["analyze", "--game", "{game}"],
                        "one of the arguments --matrix --rules is required"),
    "verify_opponents_and_count": (
        ["verify", "--game", "{game}", "--assignment", "{a}",
         "--opponents", "{tmp}/absent.json", "--random-opponents", "3"],
        "argument --random-opponents: not allowed with argument --opponents"),
    "verify_neither": (
        ["verify", "--game", "{game}", "--assignment", "{a}"],
        "one of the arguments --opponents --random-opponents is required"),
}


@pytest.mark.parametrize("case", list(EXCLUSIVE_INPUTS))
def test_exclusive_inputs_exit_two(tmp_path, capsys, case):
    argv, message = EXCLUSIVE_INPUTS[case]
    game, assignment = _assignment_file(tmp_path)
    matrix = tmp_path / "L.json"
    matrix.write_text(json.dumps({"matrix": [[0.9, 0.5], [0.1, 0.5]]}))
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path, game=game, a=assignment, L=matrix)
            for arg in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_analyze_matrix_with_game_exits_two(tmp_path, capsys):
    # --game checks a rules file; with --matrix it would go unread
    game, _ = _assignment_file(tmp_path)
    matrix = tmp_path / "L.json"
    matrix.write_text(json.dumps({"matrix": [[0.9, 0.5], [0.1, 0.5]]}))
    assert run(["analyze", "--matrix", str(matrix), "--game", game]) == 2
    assert "--game applies to --rules, not --matrix" in capsys.readouterr().err


@pytest.mark.parametrize("player", ["0", "5"])
def test_design_designer_not_a_player_exits_two(tmp_path, capsys, player):
    # the designer is checked before any spec is taken, so none is named
    save_game(GameSpec(k=(2, 2), payoffs=PD_GAME), tmp_path / "game.json")
    code = run(["design", "--game", str(tmp_path / "game.json"),
                "--player", player,
                "--relation", "pin:target=2,value=2,row=1,mu=auto"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"designer player {player} outside 1..2" in err
    assert "relation spec" not in err


def test_design_mu_overflow_exits_two(tmp_path, capsys):
    save_game(GameSpec(k=(2, 2), payoffs=PD_GAME), tmp_path / "game.json")
    spec = "pin:target=2,value=2,row=1,mu=1e308"
    code = run(["design", "--game", str(tmp_path / "game.json"),
                "--player", "1", "--relation", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert repr(spec) in err and "row 1 overflow" in err


# bad values that once ended in a traceback, a numpy warning or a wrong
# message, with what the one error line must name; {tmp} in an argument is
# the test's directory, which holds overflow.json (the good assignment with
# coeffs [1e308, 1e308]) and overflow_net.json (the network with a payoff
# entry of 1e308); a repeated option takes its last value
CLEAN_EXITS = {
    "z_nan": ("simulate", ["--z", "nan"], "argument --z: 'nan'"),
    "z_inf": ("simulate", ["--z", "inf"], "argument --z: 'inf'"),
    "tol_zero": ("verify", ["--random-opponents", "1", "--tol", "0"],
                 "argument --tol: '0'"),
    "tol_nan": ("neg", ["--tol", "nan"], "argument --tol: 'nan'"),
    "mu_overflow": ("design", ["--relation", "pin:target=2,value=2,row=1,mu=1e308"],
                    "mu = 1e+308 makes row 1 overflow"),
    "relation_overflow": ("design",
                          ["--relation", "lin:coeffs=1e308:1e308,row=1,mu=auto"],
                          "relation of row 1 overflows on this game"),
    "zero_random_opponents": ("verify", ["--random-opponents", "0"],
                              "--random-opponents 0"),
    "assignment_relation_overflow": (
        "verify", ["--random-opponents", "1", "--assignment", "{tmp}/overflow.json"],
        "overflow.json: relation of row 1 overflows on this game"),
    "reduction_overflow": (
        "neg", ["--network", "{tmp}/overflow_net.json"],
        "overflow_net.json: node 'B' of degree 3: reduced payoffs overflow"),
    # player 1's empirical payoff minus its exact one overflows to inf
    "report_overflow": (
        "simulate", ["--game", "{tmp}/huge_game.json", "--steps", "1", "--seed", "3"],
        "report field payoff_gaps[0] is not a finite number"),
    # numpy's generators take no negative seed
    "verify_negative_seed": ("verify", ["--random-opponents", "1", "--seed", "-1"],
                             "argument --seed: '-1'"),
    "simulate_negative_seed": ("simulate", ["--seed", "-1"], "argument --seed: '-1'"),
    "neg_negative_seed": ("neg", ["--seed", "-1"], "argument --seed: '-1'"),
    # str(int(node)) once raised past Python's 4,300-digit int-string limit
    "neg_node_past_int_limit": ("neg", ["--node", "1" * 5000],
                                f"net.json: unknown node '{'1' * 5000}'"),
    # numpy refuses an int64 array of 2**62 entries before allocating any
    "steps_past_array_limit": ("simulate", ["--steps", str(2 ** 62)],
                               f"steps = {2 ** 62} is more than one array can hold"),
}


@pytest.mark.parametrize("case", list(CLEAN_EXITS))
def test_bad_value_exits_two_without_traceback_or_warning(tmp_path, network_file,
                                                          case):
    command, extra, named = CLEAN_EXITS[case]
    game, assignment = _assignment_file(tmp_path)
    doc = json.loads(assignment.read_text())
    doc["relations"][0]["coeffs"] = [1e308, 1e308]
    (tmp_path / "overflow.json").write_text(json.dumps(doc))
    with open(network_file) as fh:
        doc = json.load(fh)
    doc["base_game"]["payoff_bimatrix"] = [[1e308, 0], [5, 1]]
    (tmp_path / "overflow_net.json").write_text(json.dumps(doc))
    huge = GameSpec(k=(2, 2), payoffs=[[1.7e308, -1.7e308, -1.7e308, -1.7e308],
                                       PD_GAME[1]])
    save_game(huge, tmp_path / "huge_game.json")
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {"2": [[0.5] * 4] * 2}}))
    argv = {
        "design": ["--game", game, "--player", "1"],
        "verify": ["--game", game, "--assignment", str(assignment)],
        "simulate": ["--game", game, "--rules", str(rules),
                     "--assignment", str(assignment), "--steps", "100"],
        "neg": ["--network", network_file, "--node", "B", "--out",
                str(tmp_path / "neg"),
                "--relation", "pin:target=2,value=2,row=1,mu=auto"],
    }[command]
    src = os.path.dirname(os.path.dirname(zdkit.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "zdkit.cli",
         command, *argv, *extra],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, check=False)
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


# ---------------------------------------------------------------------------
# assignment files are validated against the game, naming the file


def _assignment_file(tmp_path):
    game = tmp_path / "game.json"
    save_game(GameSpec(k=(2, 2), payoffs=PD_GAME), game)
    path = tmp_path / "a.json"
    assert run(["design", "--game", str(game), "--player", "1",
                "--relation", "pin:target=2,value=2,row=1,mu=auto",
                "--out", str(path)]) == 0
    return str(game), path


# each corruption of a good assignment, with what the message must name
BAD_ASSIGNMENTS = {
    "rows_not_numeric": (lambda d: d["rows"][0].__setitem__(3, "x"),
                         "rows: entry in row 1, column 4"),
    "rows_numeric_string": (lambda d: d["rows"][0].__setitem__(3, "0.5"),
                            "rows: entry in row 1, column 4"),
    "rows_missing": (lambda d: d.pop("rows"), "'rows'"),
    "designer_missing": (lambda d: d.pop("designer"), "'designer'"),
    "relations_missing": (lambda d: d.pop("relations"), "'relations'"),
    "designer_out_of_range": (lambda d: d.update(designer=5), "designer 5"),
    "rows_wrong_shape": (lambda d: d.update(rows=[r + r for r in d["rows"]]),
                         "rows have shape (2, 8), expected (2, 4)"),
    "rows_column_sum": (lambda d: d.update(rows=[[.5, .5, .5, .5],
                                                 [.2, .5, .5, .5]]),
                        "rows: column 1 sums to 0.7"),
    "relation_numeric_strings": (
        lambda d: d["relations"][0].update(coeffs=["0", "1"], constant="-2",
                                           mu="0.1"),
        "bad 'relations' entry"),
    # int() used to take each of these three as row 1
    "row_index_float": (lambda d: d["relations"][0].update(row_index=1.7),
                        "row_index 1.7 is not an integer"),
    "row_index_string": (lambda d: d["relations"][0].update(row_index="1"),
                         "row_index '1' is not an integer"),
    "row_index_bool": (lambda d: d["relations"][0].update(row_index=True),
                       "row_index True is not an integer"),
    "relations_not_list": (lambda d: d.update(relations={"row_index": 1}),
                           "field 'relations' is {'row_index': 1}, not a list"),
    "coeffs_count": (lambda d: d["relations"][0].update(coeffs=[0, 1, 0]),
                     "relation of row 1 has 3 coefficients for 2 players"),
}


@pytest.mark.parametrize("case", list(BAD_ASSIGNMENTS))
def test_verify_bad_assignment_file_exits_two(tmp_path, capsys, case):
    game, path = _assignment_file(tmp_path)
    corrupt, named = BAD_ASSIGNMENTS[case]
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["verify", "--game", game, "--assignment", str(path),
                "--random-opponents", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and named in err


def test_negative_random_opponents_exits_two(network_file, tmp_path, capsys):
    # argparse refuses the count, naming the flag as it names --seed
    game, path = _assignment_file(tmp_path)
    capsys.readouterr()
    for argv, count in (
            (["verify", "--game", game, "--assignment", str(path)], "-3"),
            (["neg", "--network", network_file, "--node", "A",
              "--relation", "pin:target=2,value=2,row=1,mu=auto",
              "--out", str(tmp_path / "neg")], "-1")):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--random-opponents", count])
        assert exc.value.code == 2
        assert (f"argument --random-opponents: {count!r} is not an integer >= 0"
                in capsys.readouterr().err)
    assert not (tmp_path / "neg").exists()


def test_neg_without_out_exits_two(network_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["neg", "--network", network_file, "--node", "A",
             "--relation", "pin:target=2,value=2,row=1,mu=auto"])
    assert exc.value.code == 2
    assert ("the following arguments are required: --out"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["design", "verify", "analyze", "simulate",
                                     "neg"])
def test_every_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith(f"usage: zdkit {command} ")
    if command == "neg":
        # --out is required, so the usage shows it outside brackets
        assert " --out OUT" in usage and "[--out OUT]" not in usage


def test_simulate_refuses_an_irrational_design_by_its_file(tmp_path, capsys):
    # the design's row 1 has negative entries; simulate refused it only once
    # the product was built, naming neither the file nor the player
    game, _ = _assignment_file(tmp_path)
    path = tmp_path / "irrational.json"
    assert run(["design", "--game", game, "--player", "1",
                "--relation", "pin:target=2,value=4,row=1,mu=0.5",
                "--out", str(path)]) == 1
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {"2": [[0.5] * 4, [0.5] * 4]}}))
    capsys.readouterr()
    assert run(["simulate", "--game", game, "--rules", str(rules),
                "--assignment", str(path), "--steps", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: player 1 rule: column 2 (profile 2)")
    # verify reports it as ineffective, with its conditions not evaluated
    out = tmp_path / "report.json"
    assert run(["verify", "--game", game, "--assignment", str(path),
                "--opponents", str(rules), "--out", str(out)]) == 1
    report = json.loads(out.read_text())["reports"][0]
    assert report["conditions"] == {"limit": None, "rank": None}


def test_simulate_checks_assignment_file(tmp_path, capsys):
    game, path = _assignment_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["designer"] = 5
    path.write_text(json.dumps(doc))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {"2": [[0.5] * 4, [0.5] * 4]}}))
    capsys.readouterr()
    code = run(["simulate", "--game", game, "--rules", str(rules),
                "--assignment", str(path), "--steps", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "designer 5" in err


# ---------------------------------------------------------------------------
# game files: players and strategy_counts must be JSON integers

BAD_GAME_FIELDS = {
    "players_word": ({"players": "two"}, "'players'"),
    "players_bool": ({"players": True}, "'players'"),
    "count_string": ({"strategy_counts": ["2", 2]}, "'strategy_counts'"),
    "counts_not_list": ({"strategy_counts": "22"}, "'strategy_counts'"),
    "players_count": ({"players": 3}, "players = 3 but 2 strategy counts given"),
}


def test_design_ignores_unknown_game_keys(tmp_path):
    doc = {"players": 2, "strategy_counts": [2, 2], "payoffs": PD_GAME.tolist(),
           "labels": 5}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert run(["design", "--game", str(path), "--player", "1",
                "--relation", "pin:target=2,value=2,row=1,mu=auto"]) == 0


@pytest.mark.parametrize("case", list(BAD_GAME_FIELDS))
def test_design_bad_game_field_exits_two(tmp_path, capsys, case):
    change, named = BAD_GAME_FIELDS[case]
    doc = {"players": 2, "strategy_counts": [2, 2], "payoffs": PD_GAME.tolist()}
    doc.update(change)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    code = run(["design", "--game", str(path), "--player", "1",
                "--relation", "pin:target=2,value=2,row=1,mu=auto"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and named in err


# ---------------------------------------------------------------------------


def test_main_reuses_its_parser_without_sharing_state(pinning_game_file,
                                                     tmp_path, capsys):
    from zdkit.cli import make_parser

    assert make_parser() is make_parser()
    first, second = tmp_path / "1.json", tmp_path / "2.json"
    assert run(["design", "--game", pinning_game_file, "--player", "2",
                "--relation", "pin:target=1,value=4,row=1,mu=0.1",
                "--relation", "pin:target=3,value=3,row=2,mu=0.1",
                "--out", str(first), "--pretty"]) == 0
    assert "rationality" in capsys.readouterr().out
    assert run(["design", "--game", pinning_game_file, "--player", "2",
                "--relation", "pin:target=3,value=3,row=2,mu=0.1",
                "--out", str(second)]) == 0
    assert capsys.readouterr().out == ""
    relations = json.loads(second.read_text())["relations"]
    assert [r["row_index"] for r in relations] == [2]
    a = make_parser().parse_args(["verify", "--game", "g", "--assignment", "a",
                                  "--random-opponents", "3"])
    b = make_parser().parse_args(["verify", "--game", "g", "--assignment", "a",
                                  "--opponents", "o"])
    assert a.random_opponents == 3 and b.random_opponents is None


# ---------------------------------------------------------------------------
# every input file goes through one reader, so every bad file names itself


def test_rules_key_with_leading_zero_exits_two(extortion_game_file, tmp_path,
                                               capsys):
    # "02" used to read as player 2 and silently replace the rule under "2"
    rng = np.random.default_rng(54)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {
        "1": _interior_rows(rng, 2), "2": _interior_rows(rng, 3),
        "02": _interior_rows(rng, 3), "3": _interior_rows(rng, 2)}}))
    code = run(["simulate", "--game", extortion_game_file, "--rules", str(path),
                "--steps", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "rules key '02' is not a player number" in err


def test_analyze_rules_with_game_missing_player_exits_two(pinning_game_file,
                                                          tmp_path, capsys):
    rng = np.random.default_rng(55)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {"1": _interior_rows(rng, 2),
                                          "2": _interior_rows(rng, 3)}}))
    code = run(["analyze", "--game", pinning_game_file, "--rules", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "no rule given for players [3]" in err


def _reader_argv(tmp_path, reader, path):
    """A command whose only bad input file is `path`, read by `reader`."""
    game, assignment = _assignment_file(tmp_path)
    relation = ["--relation", "pin:target=2,value=2,row=1,mu=auto"]
    return {
        "game": ["design", "--game", path, "--player", "1", *relation],
        "rules": ["analyze", "--game", game, "--rules", path],
        "matrix": ["analyze", "--matrix", path],
        "assignment": ["verify", "--game", game, "--assignment", path,
                       "--random-opponents", "1"],
        "network": ["neg", "--network", path, "--node", "a", *relation,
                    "--random-opponents", "0", "--out", str(tmp_path / "out")],
    }[reader]


_GOOD_RULES = {"1": [[0.5] * 4] * 2, "2": [[0.5] * 4] * 2}
_INT_LIMIT = "(4300 digits) for integer string conversion"
_GOOD_ASSIGNMENT = {"designer": 1, "relations": [], "rows": [[0.5] * 4] * 2}

# (reader, fault) -> (document, what the message must name): a document that
# is not a JSON object, one missing a required field, one with a bool where
# an integer goes, and a field of the wrong shape
BAD_FILES = {
    ("game", "not_object"): ([2, [2, 2]], "game file must hold a JSON object"),
    ("game", "missing_field"): ({"players": 2, "strategy_counts": [2, 2]},
                                "missing required field 'payoffs'"),
    ("game", "bool"): ({"players": True, "strategy_counts": [2, 2],
                        "payoffs": PD_GAME.tolist()}, "field 'players'"),
    ("rules", "not_object"): ([_GOOD_RULES], "rules file must hold a JSON object"),
    ("rules", "missing_field"): ({"rule": _GOOD_RULES},
                                 "missing required field 'rules'"),
    ("rules", "bool"): ({"rules": {**_GOOD_RULES, "2": [[True, 0, 0, 0],
                                                        [0, 1, 1, 1]]}},
                        "player 2: entry in row 1, column 1 is True"),
    ("rules", "rules_not_object"): ({"rules": [[0.5]]},
                                    "field 'rules' must hold a JSON object"),
    ("matrix", "not_object"): ("L", "matrix must be a rectangular table"),
    ("matrix", "missing_field"): ({"rows": [[1.0]]},
                                  "missing required field 'matrix'"),
    ("matrix", "bool"): ({"matrix": [[True, 0], [0, 1]]},
                         "entry in row 1, column 1 is True"),
    ("matrix", "not_square"): ({"matrix": [[0.2, 0.3, 0.5]]},
                               "'matrix' must be a square table of numbers"),
    ("assignment", "not_object"): ([_GOOD_ASSIGNMENT],
                                   "assignment file must hold a JSON object"),
    ("assignment", "missing_field"): (
        {k: v for k, v in _GOOD_ASSIGNMENT.items() if k != "relations"},
        "missing required field 'relations'"),
    ("assignment", "bool"): ({**_GOOD_ASSIGNMENT, "designer": True},
                             "designer True"),
    ("network", "not_object"): ([_network_doc()],
                                "network file must hold a JSON object"),
    ("network", "missing_field"): (
        {k: v for k, v in _network_doc().items() if k != "edges"},
        "missing required field 'edges'"),
    ("network", "bool"): ({**_network_doc(), "nodes": ["a", True, "c"]},
                          "node id True is not a string or an integer"),
    # past Python's 4,300-digit int-string limit, read by int(key)
    ("rules", "huge_key"): ({"rules": {"1" * 5000: [[0.5] * 4] * 2}},
                            _INT_LIMIT),
}
# a huge_int fault puts an integer of 5,000 digits at a field of a good file,
# past Python's 4,300-digit int-string limit, and a deep fault an array nested
# 100,000 deep; json.dumps cannot write either, so the document holds
# "<fault>" where _file_text puts the fault's text
_FAULT_TEXT = {"huge_int": "7" * 5000, "deep": "[" * 100_000 + "]" * 100_000}
_FIELD_FAULTS = {
    "game": {"players": 2, "strategy_counts": [2, 2],
             "payoffs": [["<fault>", 0, 5, 1], PD_GAME[1].tolist()]},
    "rules": {"rules": {**_GOOD_RULES, "2": [["<fault>"] * 4] * 2}},
    "matrix": {"matrix": [["<fault>", 0], [0, 1]]},
    "assignment": {**_GOOD_ASSIGNMENT, "designer": "<fault>"},
    "network": {**_network_doc(), "nodes": ["a", "<fault>", "c"]},
}
for _reader, _doc in _FIELD_FAULTS.items():
    BAD_FILES[_reader, "huge_int"] = (_doc, _INT_LIMIT)
    BAD_FILES[_reader, "deep"] = (_doc, "maximum recursion depth exceeded")


def _file_text(doc, fault) -> str:
    """json.dumps(doc), with a huge_int or deep fault's text at "<fault>"."""
    text = json.dumps(doc)
    if fault in _FAULT_TEXT:
        text = text.replace('"<fault>"', _FAULT_TEXT[fault])
    return text


@pytest.mark.parametrize("reader,fault", list(BAD_FILES),
                         ids=[f"{r}-{f}" for r, f in BAD_FILES])
def test_every_reader_names_the_bad_file(tmp_path, capsys, reader, fault):
    doc, named = BAD_FILES[reader, fault]
    path = tmp_path / f"bad_{reader}.json"
    path.write_text(_file_text(doc, fault))
    argv = _reader_argv(tmp_path, reader, str(path))
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


def test_neg_selects_a_negative_integer_node(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**_network_doc(), "nodes": [-1, 2, 3],
                                "edges": [[-1, 2], [2, 3]]}))
    for node in ("-1", "3"):
        out = tmp_path / f"out{node}"
        assert run(["neg", "--network", str(path), "--node", node,
                    "--relation", "pin:target=2,value=2,row=1,mu=auto",
                    "--random-opponents", "0", "--out", str(out)]) == 0
        game = json.loads((out / "reduced_game.json").read_text())
        assert game["focal_node"] == node and game["strategy_counts"] == [2, 2]


def test_neg_node_spelt_with_a_leading_zero_is_not_an_integer_id(tmp_path,
                                                                capsys):
    # "01" once selected node 1: a --node is an integer id only when it is
    # spelt as str(int) spells it, as a rules key is
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**_network_doc(), "nodes": [1, 2, 3],
                                "edges": [[1, 2], [2, 3]]}))
    assert run(["neg", "--network", str(path), "--node", "01",
                "--relation", "pin:target=2,value=2,row=1,mu=auto",
                "--random-opponents", "0", "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: unknown node '01'" in capsys.readouterr().err


def test_neg_node_past_the_int_string_limit_on_integer_ids_is_unknown(tmp_path,
                                                                    capsys):
    # CLEAN_EXITS has the same --node on a network of string ids
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**_network_doc(), "nodes": [1, 2, 3],
                                "edges": [[1, 2], [2, 3]]}))
    node = "1" * 5000
    assert run(["neg", "--network", str(path), "--node", node,
                "--relation", "pin:target=2,value=2,row=1,mu=auto",
                "--random-opponents", "0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: unknown node '{node}'\n"


@pytest.mark.parametrize("keys,named", [(("1", "3"), "player 3 outside 1..2"),
                                        (("0", "1"), "player 0 outside 1..2"),
                                        ((), "no rule given for players [1]")],
                         ids=["gap", "zero", "empty"])
def test_analyze_rules_without_game_needs_players_one_to_n(tmp_path, capsys,
                                                           keys, named):
    # with no game the keys must be exactly the players 1..len(rules)
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": {k: [[0.5] * 4] * 2 for k in keys}}))
    assert run(["analyze", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


def _repeat_key(text, key):
    """text with its first `"key": value` pair given again right after itself."""
    start = text.index(f'"{key}": ')
    stop = json.JSONDecoder().raw_decode(text, start + len(key) + 4)[1]
    return text[:stop] + ", " + text[start:stop] + text[stop:]


# reader -> (the file's text with one key given twice, that key); json.load
# alone would keep the later value, so {"1": A, "2": B, "2": C} ran with C
REPEATED_KEYS = {
    "game": (_repeat_key(json.dumps(
        {"players": 2, "strategy_counts": [2, 2], "payoffs": PD_GAME.tolist()}),
        "players"), "players"),
    "rules": (_repeat_key(json.dumps({"rules": _GOOD_RULES}), "2"), "2"),
    "matrix": (_repeat_key(json.dumps({"matrix": [[1.0, 0], [0, 1.0]]}),
                           "matrix"), "matrix"),
    "assignment": (_repeat_key(json.dumps(_GOOD_ASSIGNMENT), "designer"),
                   "designer"),
    "network": (_repeat_key(json.dumps(_network_doc()), "k"), "k"),
}


@pytest.mark.parametrize("reader", list(REPEATED_KEYS))
def test_every_reader_refuses_a_repeated_key(tmp_path, capsys, reader):
    text, key = REPEATED_KEYS[reader]
    path = tmp_path / f"repeated_{reader}.json"
    path.write_text(text)
    argv = _reader_argv(tmp_path, reader, str(path))
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert f"key '{key}' is repeated in one object" in err


# ---------------------------------------------------------------------------
# every report is written by games.write_text, in place over an existing file

JUNK = "x" * 10_000


def _analyze_matrix_argv(tmp_path):
    mat = tmp_path / "L.json"
    mat.write_text(json.dumps({"matrix": [[0.9, 0.5], [0.1, 0.5]]}))
    return ["analyze", "--matrix", str(mat)]


def test_analyze_report_over_a_longer_file_equals_stdout(tmp_path, capsys):
    argv = _analyze_matrix_argv(tmp_path)
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    out.write_text(JUNK)
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_text() == stdout
    assert json.loads(out.read_text())["primitive"]


def test_neg_files_over_longer_files_equal_fresh_ones(network_file, tmp_path):
    argv = ["neg", "--network", network_file, "--node", "A",
            "--relation", "pin:target=2,value=2,row=1,mu=auto",
            "--random-opponents", "2", "--seed", "9", "--out"]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert run([*argv, str(fresh)]) == 0
    reused.mkdir()
    names = ("reduced_game.json", "assignment.json", "report.json")
    for name in names:
        (reused / name).write_text(JUNK)
    assert run([*argv, str(reused)]) == 0
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        assert (fresh / name).read_bytes().endswith(b"}\n")
        json.loads((reused / name).read_text())


def test_out_dev_null_exits_zero(tmp_path):
    assert run([*_analyze_matrix_argv(tmp_path), "--out", os.devnull]) == 0


def test_out_dev_stdout_on_a_pipe_exits_zero(tmp_path):
    # a pipe cannot be truncated: write_text must not try
    src = os.path.dirname(os.path.dirname(zdkit.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "zdkit.cli", *_analyze_matrix_argv(tmp_path),
         "--out", "/dev/stdout"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["primitive"]


def test_symlinked_out_stays_a_symlink(tmp_path, capsys):
    argv = _analyze_matrix_argv(tmp_path)
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text(JUNK)
    link.symlink_to(target)
    assert run([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text() == stdout


def test_out_file_keeps_its_mode(tmp_path):
    out = tmp_path / "report.json"
    out.write_text(JUNK)
    out.chmod(0o640)
    assert run([*_analyze_matrix_argv(tmp_path), "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
