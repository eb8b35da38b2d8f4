"""Command-line behavior: output shapes, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fielddesign import designs
from fielddesign.arrays import Shape, mirror_plot_order
from fielddesign.cli import main
from fielddesign.designs import ExactDesign, efficiencies
from fielddesign.model import GeneralCov
from fielddesign.optimality import solve_exchange

from .conftest import LANGTON_SQUARE, OPTIMAL_BLOCKS_232


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_design(tmp_path, name, a, b, t, blocks):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"a": a, "b": b, "t": t, "n": len(blocks), "blocks": blocks}))
    return str(path)


def test_enumerate_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--a", "3", "--b", "3", "--t", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["arrays"] == 19683 and doc["orbits"] == 3281


def test_enumerate_listing_and_budget(capsys):
    code, out, _ = run(capsys, "enumerate", "--a", "2", "--b", "2", "--t", "2",
                       "--list")
    assert code == 0
    assert len(json.loads(out)["listing"]) == 8
    code, _, err = run(capsys, "enumerate", "--a", "3", "--b", "3", "--t", "3",
                       "--list", "--budget", "10")
    assert code == 2 and "budget" in err


def test_solve_known_point(capsys):
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["x_star"]["fraction"] == "0/1"
    assert doc["y_star"]["fraction"] == "3/1"
    assert doc["config"]["seed"] == 0 and doc["config"]["tol"] == 1e-9


def test_solve_square_grid_t_at_least_p(capsys):
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "2", "--t", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["x_star"]["fraction"] == "1/2"
    assert doc["y_star"]["fraction"] == "2/1"


def test_solve_table_format_records_seed_and_tol(capsys):
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                       "--format", "table")
    assert code == 0
    assert "seed" in out and "tol" in out and "y_star" in out


def test_solve_transposes_tall_shapes(capsys):
    code, out, _ = run(capsys, "solve", "--a", "3", "--b", "2", "--t", "2")
    doc = json.loads(out)
    assert code == 0 and doc["transposed"] and doc["a"] == 2 and doc["b"] == 3


def test_solve_bad_shape_is_input_error(capsys):
    code, _, err = run(capsys, "solve", "--a", "1", "--b", "3", "--t", "2")
    assert code == 1 and "error" in err


def test_verify_optimal_design(capsys, tmp_path):
    path = write_design(tmp_path, "d.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    code, out, _ = run(capsys, "verify", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["report"]["verdict"] == "optimal"
    assert doc["report"]["balance_residual"] == 0.0


def test_verify_rejects_suboptimal_design(capsys, tmp_path):
    path = write_design(tmp_path, "s1.json", 5, 5, 5, [LANGTON_SQUARE])
    code, out, _ = run(capsys, "verify", path)
    assert code == 3
    assert json.loads(out)["report"]["verdict"] == "not optimal"


# exact designs whose two-sided slope and balance residuals vanish while
# their information matrix misses the target (A-efficiency 0.667, 0.874, 0.842)
UNSYMMETRIZED_NOT_OPTIMAL = {
    "333-one-block": (3, 3, 3, [[[1, 2, 2], [1, 3, 3], [2, 3, 1]]]),
    "232-two-blocks": (2, 3, 2, [[[1, 1, 2], [1, 2, 2]], [[1, 2, 1], [1, 2, 2]]]),
    "233-three-blocks": (2, 3, 3, [[[1, 2, 3], [1, 2, 3]]] * 2 + [[[1, 3, 2], [3, 1, 2]]]),
}


@pytest.mark.parametrize("key", UNSYMMETRIZED_NOT_OPTIMAL)
def test_verify_rejects_design_missing_the_information_target(capsys, tmp_path, key):
    path = write_design(tmp_path, "d.json", *UNSYMMETRIZED_NOT_OPTIMAL[key])
    code, out, _ = run(capsys, "verify", path)
    report = json.loads(out)["report"]
    assert code == 3 and report["verdict"] == "not optimal"
    assert report["balance_residual"] == report["slope_residual"] == report["support_mass"] == 0
    assert report["info_residual"] > 0.1


def test_verify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "error" in err


def test_verify_empty_blocks(capsys, tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"a": 2, "b": 3, "t": 2, "n": 0, "blocks": []}))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "error" in err


def test_verify_shape_flag_mismatch(capsys, tmp_path):
    path = write_design(tmp_path, "d.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    code, _, err = run(capsys, "verify", path, "--a", "3", "--b", "3", "--t", "2")
    assert code == 1 and "shape" in err


@pytest.mark.parametrize("label", [1.9, True, 2.0, "1"])
def test_non_integer_labels_are_input_errors(capsys, tmp_path, label):
    # labels once went through int(): 1.9 was scored as 1, true as 1
    blocks = [[[label, 1, 2], [1, 2, 2]], *OPTIMAL_BLOCKS_232[1:]]
    path = write_design(tmp_path, "d.json", 2, 3, 2, blocks)
    code, out, err = run(capsys, "efficiency", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fields", [
    {"b": 3.9, "t": 2.5, "n": 4.6}, {"t": 2.0}, {"n": "4"}, {"a": True, "b": 3}])
def test_non_integer_shape_fields_are_input_errors(capsys, tmp_path, fields):
    # a, b, t and n once went through int(): b=3.9 was read as 3, true as 1
    path = tmp_path / "d.json"
    path.write_text(json.dumps(
        {"a": 2, "b": 3, "t": 2, "n": 4, "blocks": OPTIMAL_BLOCKS_232, **fields}))
    code, out, err = run(capsys, "efficiency", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_efficiency_of_optimal_design(capsys, tmp_path):
    path = write_design(tmp_path, "d.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    code, out, _ = run(capsys, "efficiency", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["eff_A"] == 1.0 and doc["eff_T"] == 1.0
    assert doc["n"] == 4 and "eigenvalues" in doc


def test_construct_reaches_known_optimum(capsys, tmp_path):
    out_path = tmp_path / "built.json"
    code, _, _ = run(capsys, "construct", "--a", "2", "--b", "3", "--t", "2",
                     "--n", "4", "--seed", "7", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["eff_A"] > 1 - 1e-9
    # the emitted design file chains into the other commands
    code, out, _ = run(capsys, "efficiency", str(out_path))
    assert code == 0 and json.loads(out)["eff_A"] > 1 - 1e-9


def test_construct_rejects_zero_n(capsys):
    code, _, err = run(capsys, "construct", "--a", "2", "--b", "3", "--t", "2",
                       "--n", "0")
    assert code == 1 and "argument --n: need a finite int >= 1" in err


def test_construct_rejects_zero_effort(capsys):
    code, _, err = run(capsys, "construct", "--a", "2", "--b", "3", "--t", "3",
                       "--n", "6", "--effort", "0")
    assert code == 1 and "argument --effort: need a finite int >= 1" in err


@pytest.mark.parametrize("flag", [["--pool", "random:3"], ["--force-computational"],
                                  ["--max-iter", "5"]])
def test_construct_rejects_solver_flags(capsys, flag):
    code, out, err = run(capsys, "construct", "--a", "2", "--b", "3", "--t", "3",
                         "--n", "6", *flag)
    assert code == 1 and out == ""
    assert "unrecognized arguments: " + flag[0] in err


@pytest.mark.parametrize("flags", [
    ["--force-computational", "--tol", "nan"],
    ["--tol", "-0.5"],
    ["--tol", "inf"],
    ["--sigma", "ar05.json", "--max-iter", "-3"],
])
def test_bad_tol_and_max_iter_are_input_errors(capsys, tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    _ar_file(tmp_path / "ar05.json", 6)
    code, out, err = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "3", *flags)
    assert code == 1 and out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and flags[-2] in errors[0]


@pytest.mark.parametrize("argv", [
    *(pytest.param(["solve", "--tol", v], id=v) for v in ("-0.5", "-1e-9", "-inf")),
    # a negative budget is bad input, not a computation over the budget
    pytest.param(["enumerate", "--list", "--budget", "-1"], id="budget"),
    # a negative seed is bad input, not a failure inside numpy
    pytest.param(["construct", "--n", "4", "--seed", "-1"], id="construct-seed"),
    pytest.param(["solve", "--force-computational", "--pool", "q", "--seed", "-1"],
                 id="solve-seed"),
])
def test_negative_tol_gets_the_range_message(capsys, argv):
    # argparse reads "-1e-9" and "-inf" as options unless told otherwise
    command, *flags = argv
    flag, value = flags[-2:]
    kind = "float" if flag == "--tol" else "int"
    code, out, err = run(capsys, command, "--a", "2", "--b", "3", "--t", "3", *flags)
    assert code == 1 and out == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: argument {flag}: need a finite {kind} >= 0, got {value!r}"]


def test_zero_tol_is_refused_only_under_a_general_sigma(capsys, tmp_path, monkeypatch):
    # the float exchange solve's gap stops at rounding error (1.8e-15 on
    # (2,3,3) under AR(0.5)), so a zero tolerance could only read as a failure
    monkeypatch.chdir(tmp_path)
    _ar_file(tmp_path / "ar05.json", 6)
    write_design(tmp_path, "d232.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    for argv in (["solve", "--a", "2", "--b", "3", "--t", "3", "--sigma", "ar05.json"],
                 ["verify", "d232.json", "--sigma", "ar05.json"]):
        code, out, err = run(capsys, *argv, "--tol", "0")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: --tol 0 cannot be met under a general --sigma")
    # the closed form, the exact verify, and the forced exchange under identity
    for argv in (["solve", "--a", "2", "--b", "3", "--t", "3"], ["verify", "d232.json"],
                 ["solve", "--a", "2", "--b", "3", "--t", "3", "--force-computational"]):
        code, out, _ = run(capsys, *argv, "--tol", "0")
        assert code == 0 and json.loads(out)["config"]["tol"] == 0


@pytest.mark.parametrize("count", ["0", "x", "-2"])
def test_bad_random_pool_size_is_input_error(capsys, count):
    code, out, err = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                         "--force-computational", "--pool", f"random:{count}")
    assert code == 1 and out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert f"random:{count}" in err and "need a finite int >= 1" in err


def test_construct_same_seed_same_bytes(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "construct", "--a", "2", "--b", "3", "--t", "3",
                         "--n", "5", "--seed", "11", "--out", str(target))
        assert code == 0
    docs = [json.loads(p.read_text()) for p in (a, b)]
    for doc in docs:
        doc["config"].pop("out")  # the only field allowed to differ
    assert docs[0] == docs[1]


def test_design_file_round_trip_bytes(capsys, tmp_path):
    out_path = tmp_path / "d.json"
    run(capsys, "construct", "--a", "2", "--b", "3", "--t", "2",
        "--n", "4", "--seed", "1", "--out", str(out_path))
    first = json.loads(out_path.read_text())["design"]
    # parse -> serialize through the library must preserve bytes
    from fielddesign.arrays import canonical_json
    from fielddesign.designs import ExactDesign
    text = canonical_json(first)
    again = canonical_json(ExactDesign.from_json(json.loads(text)).to_json())
    assert again == text


def test_sigma_keyword_type_h(capsys):
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                       "--sigma", "type-h:3/2")
    doc = json.loads(out)
    assert code == 0 and doc["y_star"]["fraction"] == "2/1"


def test_sigma_file_general_covariance(capsys, tmp_path):
    rho = [[0.3 ** abs(i - j) for j in range(6)] for i in range(6)]
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"matrix": rho}))
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "3",
                       "--sigma", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["regime"] == "computational" and doc["converged"]


def test_sigma_csv_matrix(capsys, tmp_path):
    rho = [[0.2 ** abs(i - j) for j in range(4)] for i in range(4)]
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rho))
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "2", "--t", "2",
                       "--sigma", str(path))
    assert code == 0 and json.loads(out)["regime"] == "computational"


def test_sigma_unknown_keyword(capsys):
    code, _, err = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                       "--sigma", "mystery")
    assert code == 1 and "covariance" in err


# a 6x6 identity with an infinite first variance
INFINITE_CSV = "\n".join(",".join("1e400" if i == j == 0 else str(int(i == j)) for j in range(6))
                         for i in range(6))
# each bad --sigma: the file to write it to (None for a keyword), its text,
# and words its one error line must hold; 2x3 grids have six plots
BAD_SIGMA = {
    "dense-2x2-json": ("d.json", '{"matrix": [[1, 0], [0, 1]]}', "need 6x6"),
    "dense-2x2-csv": ("d.csv", "1,0\n0,1\n", "need 6x6"),
    "dense-infinite": ("d.csv", INFINITE_CSV, "finite"),
    "short-offsets": ("h.json", '{"type": "type-h", "x": 1, "y": [0.5]}', "length 6"),
    "indefinite-offsets": ("h.json", '{"type": "type-h", "x": 1, "y": [-3, 0, 0, 0, 0, 0]}',
                           "positive definite"),
    "zero-denominator": ("h.json", '{"type": "type-h", "x": "1/0"}', "1/0"),
    "overflow": ("h.json", '{"type": "type-h", "x": 1e400}', "positive and finite"),
    "boolean": ("h.json", '{"type": "type-h", "x": true}', "must be a number"),
    # offsets are a list of numbers, not any iterable such as a string
    "offsets-string": ("h.json", '{"type": "type-h", "x": 1, "y": "000000"}', "list of numbers"),
    "offsets-object": ("h.json", '{"type": "type-h", "x": 1, "y": {"a": 1}}', "list of numbers"),
    # an exact test: the float matrix of these offsets overflows, with a warning
    "offsets-past-float-range": ("h.json",
                                 '{"type": "type-h", "x": 1, "y": [1e308, 0, 0, 0, 0, 0]}',
                                 "positive definite"),
    "offsets-overflow": ("h.json", '{"type": "type-h", "x": 1, "y": [1%s, 0, 0, 0, 0, 0]}'
                         % ("0" * 400), "bad type-H"),
    "keyword-zero-denominator": (None, "type-h:1/0", "1/0"),
    "keyword-not-a-number": (None, "type-h:abc", "abc"),
    "keyword-zero": (None, "type-h:0", "positive and finite"),
    "keyword-overflow": (None, "type-h:1e400", "positive and finite"),
}


def _bad_sigma_run(capsys, tmp_path, case, *argv):
    name, text, words = BAD_SIGMA[case]
    if name is not None:
        (tmp_path / name).write_text(text)
        text = str(tmp_path / name)
    code, out, err = run(capsys, *argv, "--sigma", text)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and words in err


@pytest.mark.parametrize("case", BAD_SIGMA)
def test_bad_covariance_is_input_error(capsys, tmp_path, case):
    _bad_sigma_run(capsys, tmp_path, case, "solve", "--a", "2", "--b", "3", "--t", "2")


def test_covariance_path_that_is_a_directory_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                         "--sigma", str(tmp_path))
    assert code == 1 and out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_type_h_offsets_near_the_float_range_solve_quietly(capsys, tmp_path):
    # positive definite (y = c 1, c > 0), but the float matrix of these
    # offsets overflows: its size is checked without building it
    path = tmp_path / "h.json"
    path.write_text('{"type": "type-h", "x": 1, "y": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308]}')
    argv = ("solve", "--a", "2", "--b", "3", "--t", "2", "--sigma")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, err) == (0, "")
    _, plain, _ = run(capsys, *argv, "type-h:1")
    assert json.loads(out)["y_star"] == json.loads(plain)["y_star"]


def test_bad_covariance_is_input_error_in_verify_and_construct(capsys, tmp_path):
    design = write_design(tmp_path, "d232.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    _bad_sigma_run(capsys, tmp_path, "dense-2x2-json", "verify", design)
    _bad_sigma_run(capsys, tmp_path, "short-offsets", "construct", "--a", "2", "--b", "3",
                   "--t", "2", "--n", "4")


def test_forced_computational_agrees_with_closed_form(capsys):
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "3",
                       "--force-computational", "--seed", "5")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["y_star"]["decimal"] - 4.0) < 1e-8


def test_pool_strategies(capsys):
    for pool in ("q", "random:300"):
        code, out, _ = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                           "--force-computational", "--pool", pool)
        doc = json.loads(out)
        assert code == 0 and abs(doc["y_star"]["decimal"] - 3.0) < 1e-6
    code, _, err = run(capsys, "solve", "--a", "2", "--b", "3", "--t", "2",
                       "--force-computational", "--pool", "bogus")
    assert code == 1 and "pool" in err


def test_missing_subcommand_is_input_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_input_error(capsys):
    assert main(["solve", "--a", "2", "--b", "3", "--t", "2", "--wat"]) == 1


def test_budget_overrun_is_compute_error_without_traceback(capsys, tmp_path):
    # a 3x4 grid with 12 treatments has far more orbits than the full-pool
    # limit; the budget check refuses before enumerating anything
    design = write_design(tmp_path, "d.json", 3, 4, 12,
                          [[[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]])
    sigma = tmp_path / "ar12.json"
    sigma.write_text(json.dumps(
        {"matrix": [[0.5 ** abs(i - j) for j in range(12)] for i in range(12)]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "fielddesign.cli", "verify", design,
         "--sigma", str(sigma), "--pool", "full"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")
    code, _, err = run(capsys, "efficiency", design, "--sigma", str(sigma),
                       "--pool", "full")
    assert code == 2 and err.startswith("error:")


def _ar_file(path: Path, p: int, rho: float = 0.5) -> str:
    path.write_text(json.dumps(
        {"matrix": [[rho ** abs(i - j) for j in range(p)] for i in range(p)]}))
    return path.name


# a dense covariance is indexed by the plots of the grid as given: a tall
# 4 x 2 grid is solved as its 2 x 4 mirror, whose plot k is plot PERM_42[k]
PERM_42 = [0, 4, 1, 5, 2, 6, 3, 7]


def test_tall_grid_reads_sigma_in_its_own_plot_order(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sigma = _ar_file(tmp_path / "ar8.json", 8)
    m = np.array(json.loads((tmp_path / sigma).read_text())["matrix"])
    (tmp_path / "mirror.json").write_text(json.dumps({"matrix": m[np.ix_(PERM_42, PERM_42)].tolist()}))
    assert mirror_plot_order(Shape(2, 4, 3)).tolist() == PERM_42
    tall = json.loads(run(capsys, "solve", "--a", "4", "--b", "2", "--t", "3", "--sigma", sigma)[1])
    wide = json.loads(run(capsys, "solve", "--a", "2", "--b", "4", "--t", "3",
                          "--sigma", "mirror.json")[1])
    assert tall["transposed"] and tall["y_star"] == wide["y_star"]
    assert tall["x_star"] == wide["x_star"] and tall["orbit_weights"] == wide["orbit_weights"]


def test_tall_design_file_reads_sigma_in_its_own_plot_order(capsys, tmp_path):
    blocks = np.random.default_rng(17).integers(1, 4, size=(3, 4, 2)).tolist()
    path = write_design(tmp_path, "tall.json", 4, 2, 3, blocks)
    g = np.random.default_rng(18).normal(size=(8, 8))
    m = g @ g.T + 8 * np.eye(8)
    (tmp_path / "spd.json").write_text(json.dumps({"matrix": m.tolist()}))
    code, out, _ = run(capsys, "efficiency", path, "--sigma", str(tmp_path / "spd.json"))
    assert code == 0
    # the library on the mirror design under the re-indexed matrix
    design = ExactDesign.from_json(json.loads(Path(path).read_text()))
    mirror = GeneralCov.from_matrix(m[np.ix_(PERM_42, PERM_42)])
    want = efficiencies(design, mirror, y_star=float(solve_exchange(design.shape, mirror).y_star))
    doc = json.loads(out)
    assert doc["y_star"] == want.y_star
    assert [doc[k] for k in ("eff_A", "eff_D", "eff_E", "eff_T")] == [round(v, 6) for v in want.astuple()]


def test_tall_construct_writes_the_grid_it_was_asked_for(capsys, tmp_path):
    # so the written file, read back under the same dense Sigma, scores as built
    g = np.random.default_rng(19).normal(size=(8, 8))
    sigma, built = str(tmp_path / "spd.json"), str(tmp_path / "built.json")
    Path(sigma).write_text(json.dumps({"matrix": (g @ g.T + 8 * np.eye(8)).tolist()}))
    args = ["construct", "--a", "4", "--b", "2", "--t", "3", "--n", "4", "--sigma", sigma]
    assert run(capsys, *args, "--out", built)[0] == 0
    doc = json.loads(Path(built).read_text())
    blocks = doc["design"]["blocks"]
    assert (doc["design"]["a"], doc["design"]["b"]) == (4, 2)
    assert [[len(r) for r in rows] for rows in blocks] == [[2] * 4] * 4
    code, out, _ = run(capsys, "efficiency", built, "--sigma", sigma)
    got = json.loads(out)
    assert code == 0 and {k: got[k] for k in doc["report"]} == doc["report"]
    # the table lists each block's two columns of four, as a 4 x 2 BlockArray would
    code, out, _ = run(capsys, *args, "--format", "table")
    lines = [line.split()[-1] for line in out.splitlines() if line.startswith("block")]
    assert code == 0 and lines == [
        "(" + ";".join(",".join(str(r[j]) for r in rows) for j in range(2)) + ")" for rows in blocks]


def test_tall_table_shows_the_grid_it_was_asked_for(capsys, tmp_path):
    # a 4 x 2 grid runs as its 2 x 4 mirror; the table's shape row and the
    # JSON's a and b still say 4 x 2
    built = str(tmp_path / "built.json")
    args = ["construct", "--a", "4", "--b", "2", "--t", "3", "--n", "4"]
    assert run(capsys, *args, "--out", built)[0] == 0
    doc = json.loads(Path(built).read_text())
    assert (doc["design"]["a"], doc["design"]["b"]) == (4, 2)
    for argv in (args, ["solve", "--a", "4", "--b", "2", "--t", "3"],
                 ["enumerate", "--a", "4", "--b", "2", "--t", "3"],
                 ["verify", built], ["efficiency", built]):
        code, out, _ = run(capsys, *argv, "--format", "table")
        assert code in (0, 3) and out.splitlines()[0].split() == ["shape", "(4,2,3)"]
    code, out, _ = run(capsys, "solve", "--a", "2", "--b", "4", "--t", "3", "--format", "table")
    assert code == 0 and out.splitlines()[0].split() == ["shape", "(2,4,3)"]


def test_ragged_tall_design_file_exits_1(capsys, tmp_path):
    # the grid is checked as given, before the transposition could drop a label
    path = write_design(tmp_path, "ragged.json", 4, 2, 3, [[[1, 2], [2, 3], [3, 1, 2], [1, 2]]])
    for command in ("efficiency", "verify"):
        code, out, err = run(capsys, command, path)
        assert code == 1 and out == "" and "rows must form an 4x2 grid" in err


def test_general_sigma_over_the_orbit_budget_exits_2(capsys, tmp_path, monkeypatch):
    # (4,4,3) has 7.2 M orbits: no silent fall-back to a restricted pool
    monkeypatch.chdir(tmp_path)
    sigma = _ar_file(tmp_path / "ar16.json", 16)
    code, out, err = run(capsys, "solve", "--a", "4", "--b", "4", "--t", "3",
                         "--sigma", sigma)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "budget" in err


# exit code and sha256 of stdout, each recorded before the code it runs
# through was restructured: the first three before pools became label
# matrices, the rest before measures did
GOLDEN_STDOUT = {
    "solve --a 2 --b 3 --t 3 --sigma ar05.json":
        (0, "6e77d92f5ff6d58400a9e5f3c773f0bf43c1cca99e9765b094756a8a3cdb8d5c"),
    "solve --a 3 --b 3 --t 4 --force-computational --pool full":
        (0, "37d4701648e8d151d30ebe786c65b7d03262689051d42c40c17eff520f6892bc"),
    "enumerate --a 2 --b 3 --t 3 --list":
        (0, "ca8d7b848d545900e743a414a4c94b970f3bfb6fc5d5bc4353b27c72efb086e6"),
    "enumerate --a 2 --b 3 --t 5 --list":
        (0, "7bc2eac051d70976b595289dce0dca66f41854cd425f868031dd802842ac05ce"),
    "enumerate --a 2 --b 2 --t 4 --list --format table":
        (0, "cb3067e1f420dfbb93f0aa4f717534c3ae307c794a5a6221e6b1620b777beb1b"),
    "solve --a 2 --b 3 --t 5":
        (0, "3afd8c1afa8b40f9b4b84c841f74d77a3067ebc205a9de86b8d64cd8f45b51e0"),
    "solve --a 2 --b 3 --t 4 --sigma type-h:3/2":
        (0, "7c2b009a66a9308a55ec905abc58f4ecde1c43b909040663ef525b96478e5d7a"),
    "verify d232.json --sigma ar05.json":
        (3, "40731ae22fa5497cec6712fd632e9032204695f675f6b7bb2cc3343afb03d79e"),
    "verify d232.json":
        (0, "0b7ea230698f999cdb58e143fe5de32902e8b5fc7044b16105f52f6dfbed28b3"),
    "efficiency d232.json":
        (0, "766a45a88731df497e694e9b72ac3c9bb0c8caeb6d7da6dfdde86a5dfd6f425c"),
    "construct --a 2 --b 3 --t 3 --n 6":
        (0, "04bd035464b2b2924ef92098a018206514283d13186f13d351767b95bca27d01"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_golden_bytes(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # the config echoes the relative file paths
    _ar_file(tmp_path / "ar05.json", 6)
    write_design(tmp_path, "d232.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    code, out, _ = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_STDOUT[command]


def test_missing_null_direction_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(designs, "info_matrix_exact", lambda d, sigma: np.eye(d.shape.t))
    path = write_design(tmp_path, "d.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    code, out, err = run(capsys, "efficiency", path)
    assert code == 2 and out == ""
    assert err.startswith("error: no numerically-zero eigenvalue") and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # start-up cost: importing the CLI must not pull in scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, fielddesign.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


# -- fuzz gate: every argv and input file gets a documented exit code ----

# JSON values at and past every limit (Python's json writes and reads NaN
# and Infinity)
ODD_NUMBERS = [1, 2, 0.5, 0, -1, 1e308, 1e-310, math.nan, math.inf, -math.inf, True, False]
# each flag's values within its limits, then at and past them; None: no value
FLAG_VALUES = {
    "--tol": (["1e-9", "1e-6", "0.1"], ["0", "-1e-9", "nan", "inf", "1e308", "1e-310"]),
    "--seed": (["0", "1", "7"], ["-1", str(2**64)]),
    "--format": (["json", "table"], ["xml"]),
    "--max-iter": (["1", "500"], ["0", "-1"]),
    "--pool": (["full", "q", "random:3"], ["random:0", "random:1", "random:x", "grid"]),
    "--budget": (["10", "100000"], ["0", "1", "-1"]),
    "--n": (["1", "2", "5", "7"], ["-1", "0", "inf"]),
    "--effort": (["1", "2"], ["0", "nan"]),
    "--list": None,
    "--force-computational": None,
}
SOLVER_FLAGS = ["--pool", "--max-iter", "--force-computational"]
SUBCOMMAND_FLAGS = {
    "enumerate": ["--list", "--budget"],
    "solve": SOLVER_FLAGS,
    "verify": SOLVER_FLAGS,
    "efficiency": SOLVER_FLAGS,
    "construct": ["--effort"],
}
EXIT_CODES = {0, 1, 2, 3}  # README: success, bad input, computation, not optimal


def _good_or_bad(draw, good, bad):
    """One of good, or of bad one time in four."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))


def _spoil(draw, grid: list) -> list:
    """grid with, one time in four, one odd entry, and one time in eight
    one row short."""
    if draw(st.integers(0, 3)) == 0:
        grid[draw(st.integers(0, len(grid) - 1))][0] = draw(st.sampled_from(ODD_NUMBERS))
    if draw(st.integers(0, 7)) == 0:
        grid[draw(st.integers(0, len(grid) - 1))].pop()
    return grid


@st.composite
def _sigma_file(draw, p: int):
    """A covariance file: d I + o J, perturbed, as a bare, tagged or CSV
    matrix; type-H; or a bare tag."""
    size = draw(st.sampled_from([p, p, p, p + 1]))
    diag = _good_or_bad(draw, [1, 2, 1.7e308], [1e-310, 0, -1, math.nan, math.inf])
    off = _good_or_bad(draw, [0, 0.5, 1e308], [-1, math.inf, True])
    matrix = _spoil(draw, [[diag if i == j else off for j in range(size)] for i in range(size)])
    kind = draw(st.sampled_from(["matrix", "tagged", "csv", "type-h", "type-h", "tag"]))
    if kind == "csv":
        return ".csv", "\n".join(",".join(str(v) for v in row) for row in matrix)
    if kind == "type-h":
        obj = {"type": "type-h", "x": _good_or_bad(draw, [1, 2.5, "3/2", 1e-300, 1e300],
                                                    ODD_NUMBERS + ["1/0", "x", None])}
        if draw(st.booleans()):
            obj["y"] = [_good_or_bad(draw, [0, 0.25, 1, 1e308], ODD_NUMBERS)
                        for _ in range(size)]
        return ".json", json.dumps(obj)
    obj = {"matrix": matrix} if kind == "tagged" else matrix
    if kind == "tag":
        obj = {"type": draw(st.sampled_from(["identity", "dense", None]))}
    return ".json", json.dumps(obj)


@st.composite
def _design_file(draw, a: int, b: int, t: int):
    blocks = [[[draw(st.integers(1, t)) for _ in range(b)] for _ in range(a)]
              for _ in range(draw(st.integers(1, 4)))]
    _spoil(draw, blocks[0])
    obj = {"a": a, "b": b, "t": t, "n": len(blocks), "blocks": blocks}
    if draw(st.integers(0, 3)) == 0:
        obj[draw(st.sampled_from(["a", "b", "t", "n"]))] = draw(st.sampled_from(ODD_NUMBERS))
    return json.dumps(obj)


@st.composite
def _invocation(draw, folder: Path):
    """argv for one run of main, writing the files it names to folder."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    shape = draw(st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 3), (2, 2, 4),
                                  (3, 3, 3)]))
    argv = [command]
    if command in ("verify", "efficiency"):
        design = folder / "design.json"
        design.write_text(draw(_design_file(*shape)))
        argv.append(str(design))
    given = ["--a", "--b", "--t"]  # all, none or some for a design file
    if command in ("verify", "efficiency"):
        given = _good_or_bad(draw, [given, []], [given[:1], given[1:]])
    for flag, size in zip(("--a", "--b", "--t"), shape):
        if flag in given:
            argv += [flag, _good_or_bad(draw, [str(size)], ["-1", "0", "1", "2", "2.5", "x"])]
    if command == "construct":
        argv += ["--n", _good_or_bad(draw, *FLAG_VALUES["--n"])]
    source = draw(st.sampled_from(["identity", "type-h", "file", "file", "missing"]))
    if source == "type-h":
        argv += ["--sigma", "type-h:" + _good_or_bad(
            draw, ["2", "3/2", "0.5", "1e-300"], ["0", "-1", "1/0", "nan", "inf", "1e-310", "x"])]
    elif source == "file":
        suffix, text = draw(_sigma_file(shape[0] * shape[1]))
        sigma = folder / f"sigma{suffix}"
        sigma.write_text(text)
        argv += ["--sigma", str(sigma)]
    elif source == "missing":
        argv += ["--sigma", str(folder / "absent.json")]
    flags = SUBCOMMAND_FLAGS[command] + ["--tol", "--seed", "--format"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        argv.append(flag)
        if FLAG_VALUES[flag] is not None:
            argv.append(_good_or_bad(draw, *FLAG_VALUES[flag]))
    return argv


@settings(max_examples=200, deadline=None)  # about 2 s
@given(st.data())
def test_cli_fuzz_gives_documented_exit_codes(tmp_path_factory, data):
    argv = data.draw(_invocation(tmp_path_factory.mktemp("fuzz")))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in EXIT_CODES, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0 and "table" not in argv:
        json.loads(out.getvalue())


def test_efficiency_reports_an_unestimable_contrast(capsys, tmp_path):
    # treatment 3 never appears, so its contrasts are not estimable
    path = write_design(tmp_path, "d.json", 2, 3, 3, [[[1, 2, 1], [2, 1, 2]]] * 2)
    code, out, _ = run(capsys, "efficiency", path)
    doc = json.loads(out)
    assert code == 0 and doc["eff_A"] == 0.0
    assert doc["diagnostic"] == "some treatment contrast is not estimable (1 extra null directions)"
    code, out, _ = run(capsys, "efficiency", path, "--format", "table")
    assert code == 0 and "diagnostic  some treatment contrast is not estimable" in out


def test_unreadable_design_path_and_partial_shape_flags_are_input_errors(capsys, tmp_path):
    code, out, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 1 and out == "" and err.startswith("error: cannot read")
    path = write_design(tmp_path, "d.json", 2, 3, 2, OPTIMAL_BLOCKS_232)
    code, out, err = run(capsys, "verify", path, "--a", "2", "--t", "2")
    assert (code, out, err) == (1, "", "error: give all of --a --b --t or none\n")


def test_dense_sigma_whose_kernel_overflows_is_input_error(capsys, tmp_path):
    # 1e-310 I is positive definite, but its inverse is not finite
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps((1e-310 * np.eye(6)).tolist()))
    argv = ("solve", "--a", "2", "--b", "3", "--t", "3", "--sigma")
    code, out, err = run(capsys, *argv, str(tiny))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error:") and "not finite" in err
    # eigvalsh overflows to inf on the 1-direction here, yet the kernel is
    # finite: the matrix solves
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(np.where(np.eye(6, dtype=bool), 1.7e308, 1e308).tolist()))
    code, out, err = run(capsys, *argv, str(huge))
    assert (code, err) == (0, "") and json.loads(out)["converged"]


@pytest.mark.parametrize("argv", [
    # y* = 4e308 exactly, which no float holds
    ("solve", "--a", "2", "--b", "3", "--t", "3", "--sigma", "type-h:1e-308"),
    # the float exchange solve squares coefficients of size 1e300
    ("solve", "--a", "2", "--b", "3", "--t", "3", "--sigma", "type-h:1e-300",
     "--force-computational"),
])
def test_result_past_the_float_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and len(err.splitlines()) == 1
