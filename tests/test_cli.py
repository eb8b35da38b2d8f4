"""Command-line behavior: output shapes, exit codes, reproducibility."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fielddesign import designs
from fielddesign.cli import main

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
    assert code == 1 and "n >= 1" in err


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


def test_general_sigma_over_the_orbit_budget_exits_2(capsys, tmp_path, monkeypatch):
    # (4,4,3) has 7.2 M orbits: no silent fall-back to a restricted pool
    monkeypatch.chdir(tmp_path)
    sigma = _ar_file(tmp_path / "ar16.json", 16)
    code, out, err = run(capsys, "solve", "--a", "4", "--b", "4", "--t", "3",
                         "--sigma", sigma)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "budget" in err


# sha256 of stdout, recorded before pools became label matrices
GOLDEN_STDOUT = {
    "solve --a 2 --b 3 --t 3 --sigma ar05.json":
        "6e77d92f5ff6d58400a9e5f3c773f0bf43c1cca99e9765b094756a8a3cdb8d5c",
    "solve --a 3 --b 3 --t 4 --force-computational --pool full":
        "37d4701648e8d151d30ebe786c65b7d03262689051d42c40c17eff520f6892bc",
    "enumerate --a 2 --b 3 --t 3 --list":
        "ca8d7b848d545900e743a414a4c94b970f3bfb6fc5d5bc4353b27c72efb086e6",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_golden_bytes(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # the config echoes the relative --sigma path
    _ar_file(tmp_path / "ar05.json", 6)
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


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
