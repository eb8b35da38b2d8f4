"""The package's records: NamedTuples that refuse assignment, compare and
hash as tuples, check their input when made, and generate no code beyond
namedtuple's at import."""

from __future__ import annotations

import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fielddesign.arrays import BlockArray, LabelPool, Orbit, Shape
from fielddesign.designs import ExactDesign, MinNReport, efficiencies
from fielddesign.model import IDENTITY, CoefficientTriple, GeneralCov, Identity, TypeH
from fielddesign.optimality import FanClass, QSupport

SRC = Path(__file__).resolve().parents[1] / "src"
S232 = Shape(2, 3, 2)
B232 = BlockArray.from_rows(S232, [[1, 2, 1], [2, 1, 2]])
D232 = ExactDesign(S232, (B232, B232))


def _design_json(blocks) -> dict:
    return {"a": 2, "b": 3, "t": 2, "blocks": blocks}


# each validated record's refusal: how it is made, the error and its message
REFUSALS = {
    "shape": (lambda: Shape(1, 2, 2), ValueError, "need 2 <= a <= b, got a=1, b=2"),
    "shape-t": (lambda: Shape(2, 3, 1), ValueError, "need t >= 2, got t=1"),
    "block-array-ragged": (lambda: BlockArray(S232, ((1, 2, 1), (2, 1))), ValueError,
                           "rows must form an 2x3 grid"),
    "block-array-label": (lambda: BlockArray(S232, ((1, 2, 3), (2, 1, 2))), ValueError,
                          "treatment 3 outside 1..2"),
    "type-h": (lambda: TypeH(-1), ValueError,
               "type-H weight x must be positive and finite, and so must 1/x"),
    "type-h-offsets": (lambda: TypeH(1, (-3, 0, 0, 0, 0, 0)), ValueError,
                       "type-H parameters do not give a positive definite matrix"),
    "exact-design": (lambda: ExactDesign(S232, ()), ValueError,
                     "a design needs at least one block"),
    "exact-design-shape": (lambda: ExactDesign(Shape(2, 3, 3), (B232,)), ValueError,
                           "all blocks must share the design shape"),
    "exact-design-pool-shape": (lambda: ExactDesign(Shape(2, 3, 3), D232.blocks), ValueError,
                                "all blocks must share the design shape"),
    # a design file is read into one label matrix, each label checked as
    # BlockArray.from_rows checks it
    "design-json-empty": (lambda: ExactDesign.from_json(_design_json([])), ValueError,
                          "a design needs at least one block"),
    "design-json-n": (lambda: ExactDesign.from_json({**_design_json([B232.rows]), "n": 2}),
                      ValueError, "declared n=2 but 1 blocks given"),
    "design-json-label": (lambda: ExactDesign.from_json(_design_json([[[1, 2, 1.0], [2, 1, 2]]])),
                          ValueError, "treatment label 1.0 is not an integer"),
    "design-json-bool": (lambda: ExactDesign.from_json(_design_json([[[1, 2, 1], [2, True, 2]]])),
                         ValueError, "treatment label True is not an integer"),
    "design-json-ragged": (lambda: ExactDesign.from_json(_design_json([B232.rows, [[1, 2, 1]]])),
                           ValueError, "rows must form an 2x3 grid"),
    "design-json-range": (lambda: ExactDesign.from_json(_design_json([B232.rows, [[1, 2, 0],
                                                                                  [2, 1, 2]]])),
                          ValueError, "treatment 0 outside 1..2"),
    "design-json-tall": (lambda: ExactDesign.from_json({"a": 3, "b": 2, "t": 2,
                                                        "blocks": [[[1, 2], [2, 1], [1]]]}),
                         ValueError, "rows must form an 3x2 grid"),
    "identity": (lambda: Identity(x=2), TypeError, "unexpected keyword argument 'x'"),
}

RECORDS = [S232, B232, Orbit(B232, 2), TypeH(Fraction(3, 2)), TypeH(2.0, (0.1,) * 6),
           IDENTITY, GeneralCov(((1.0, 0.0), (0.0, 1.0))), CoefficientTriple(1, 2, 3),
           FanClass("Q0", 0), MinNReport(4), QSupport.balanced(S232), D232, efficiencies(D232)]


@pytest.mark.parametrize("case", REFUSALS)
def test_validated_record_refuses_bad_input_with_its_message(case):
    make, error, message = REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        make()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_refuses_assignment_and_survives_copy_and_pickle(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)


def test_records_keep_their_repr_and_str():
    assert repr(S232) == "Shape(a=2, b=3, t=2)" and str(S232) == "(2,3,2)"
    assert repr(B232) == "BlockArray(shape=Shape(a=2, b=3, t=2), rows=((1, 2, 1), (2, 1, 2)))"
    assert str(B232) == "(1,2;2,1;1,2)"
    assert repr(IDENTITY) == str(IDENTITY) == "Identity()"
    assert repr(TypeH(Fraction(3, 2))) == "TypeH(x=Fraction(3, 2), y=None)"
    assert str(MinNReport(4)) == "MinNReport(n=4, pseudo_symmetric=None, approximated=False)"
    assert repr(FanClass("Q0", 0)) == "FanClass(name='Q0', doubles=0)"
    assert repr(D232) == (f"ExactDesign(shape={S232!r}, blocks=LabelPool(shape={S232!r}, "
                          "labels=[[1, 2, 2, 1, 1, 2], [1, 2, 2, 1, 1, 2]]))")


def test_label_pool_is_a_read_only_record():
    # a design's blocks: equal and hashed alike by shape and labels, and
    # still read-only when copied or pickled, alone or inside the design
    pool = D232.blocks
    for twin in (copy.deepcopy(pool), pickle.loads(pickle.dumps(pool)),
                 copy.deepcopy(D232).blocks, pickle.loads(pickle.dumps(D232)).blocks):
        assert type(twin) is LabelPool and twin == pool and hash(twin) == hash(pool)
        assert twin.labels.dtype == pool.labels.dtype and not twin.labels.flags.writeable
    wide = LabelPool(S232, np.array(pool.labels, dtype=np.int64))
    assert wide == pool and hash(wide) == hash(pool)
    assert pool != LabelPool(S232, pool.labels[:1])
    assert pool != LabelPool(Shape(2, 3, 3), pool.labels)
    assert pool != list(pool) and list(pool) == [B232, B232]
    assert repr(pool) == (f"LabelPool(shape={S232!r}, "
                          "labels=[[1, 2, 2, 1, 1, 2], [1, 2, 2, 1, 1, 2]])")


def test_equal_records_of_one_class_hash_alike():
    pairs = [(Shape(2, 3, 2), S232), (BlockArray.from_colex(S232, B232.colex), B232),
             (TypeH(1.5), TypeH(Fraction(3, 2))), (Identity(), IDENTITY),
             (ExactDesign.from_json(D232.to_json()), D232),
             (CoefficientTriple(Fraction(1), 2, 3), CoefficientTriple(1, 2, 3))]
    for one, other in pairs:
        assert one == other and hash(one) == hash(other), one
    assert len({Shape(2, 3, 2), S232, Shape(2, 3, 3)}) == 2
    assert TypeH(2) != TypeH(3) and Shape(2, 3, 2) < Shape(2, 3, 3)
    # records compare as tuples, across classes too
    assert TypeH(Fraction(1)) == IDENTITY and S232 == (2, 3, 2)


def _replace_calls() -> set[tuple[str, str, str]]:
    """(module, function, receiver) of every _replace and _make call."""
    calls = set()
    for path in (SRC / "fielddesign").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls |= {(path.stem, fn.name, ast.unparse(node.func.value))
                          for node in ast.walk(fn) if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr in ("_replace", "_make")}
    return calls


def test_replace_is_only_called_on_records_that_do_not_validate():
    # _replace builds through tuple.__new__, past a validating __new__: a new
    # call must be on a record that checks nothing (here a SolveResult)
    assert _replace_calls() == {("optimality", "_at_scale", "res")}


SPEC_CLASSES = {"TypeH", "Identity", "GeneralCov"}
RETIRED_HELPERS = {"rational_scale", "check_sigma_size"}


def _covariance_dispatch() -> set[tuple[str, str]]:
    """(module, function) of every isinstance call on a covariance spec class,
    and (module, name) of every use of a retired scale or size helper."""
    found = set()
    for path in (SRC / "fielddesign").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and ast.unparse(call.func) == "isinstance"
                    and SPEC_CLASSES & {n.id for n in ast.walk(call.args[1])
                                        if isinstance(n, ast.Name)}
                    for call in ast.walk(node)):
                found.add((path.stem, node.name))
            name = getattr(node, "id", None) or getattr(node, "attr", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if name in RETIRED_HELPERS:
                found.add((path.stem, name))
    return found


def test_only_bind_dispatches_on_a_covariance_spec():
    # model.bind reduces a spec to its scale and unit kernel once; every
    # other function reads that record, never the spec's class
    assert _covariance_dispatch() == {("model", "bind")}


# helpers no production path calls: deleted, or moved to tests/reference_model.py
OUT_OF_PACKAGE = {"IncidenceSet", "trace_numerators_batch", "exact_units", "enumerate_orbits",
                  "pseudo_symmetric_efficiency", "_information", "_drawn_pool",
                  "closed_numerators_batch", "c11_base", "c_coeffs_closed", "incidence_matrices",
                  "sigma_matrix", "info_matrix_measure"}


def test_package_defines_no_reference_or_retired_helper():
    # a def, a class, an import or an assignment of the name, in any module
    names = {getattr(node, "name", None) or getattr(node, "id", None)
             for path in (SRC / "fielddesign").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))}
    assert not names & OUT_OF_PACKAGE


def test_cli_import_builds_no_dataclass():
    # every dataclass compiles its methods at import, about 1 ms each, and
    # every CLI call is a fresh process; numpy does not import dataclasses
    assert not [p.name for p in (SRC / "fielddesign").glob("*.py") if "@dataclass" in p.read_text()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, fielddesign.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
