"""Tests of the reference and of the checks built on it.

    python3 -m pytest perfbench

They need numpy only: neither the reference nor the checks import
fielddesign.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from checks import Checker, efficiency_problems  # noqa: E402
from inputs import (  # noqa: E402
    COMPANION_428, COMPANION_428_PUBLISHED, OPTIMAL_232, make_inputs,
    normalized_blocks, reference_y_star)

CLUSTERED_232 = [[1, 2, 2], [1, 1, 2]]
SPREAD_232 = [[1, 2, 1], [2, 1, 2]]
IDENTITY = {"kind": "identity"}


def orbit_atoms(rows, weight, t):
    """Every relabeling of one array, each with an equal share of weight."""
    base = ref.rows_to_colex(rows)
    members = {tuple(perm[v - 1] for v in base)
               for perm in permutations(range(1, t + 1))}
    share = Fraction(weight) / len(members)
    return [[list(m), f"{share.numerator}/{share.denominator}"] for m in sorted(members)]


@pytest.fixture
def chain_232():
    x_star = Fraction(0)
    w_clustered, w_spread = ref.two_orbit_proportions(
        [CLUSTERED_232, SPREAD_232], x_star, 2, 3, 2)
    atoms = orbit_atoms(CLUSTERED_232, w_clustered, 2) + orbit_atoms(SPREAD_232, w_spread, 2)
    return x_star, (w_clustered, w_spread), atoms


def test_worked_232_chain(chain_232):
    x_star, weights, atoms = chain_232
    y_star = ref.balanced_y_star(2, 3, 2)
    assert (x_star, y_star) == (0, 3)
    assert sorted(weights) == [Fraction(1, 8), Fraction(7, 8)]
    sizes = [ref.orbit_size(ref.rows_to_colex(r), 2) for r in (CLUSTERED_232, SPREAD_232)]
    assert ref.least_symmetric_n(zip(weights, sizes)) == 16
    # the paper's bound is the envelope minimum over every orbit
    table = ref.triples_float(ref.orbit_labels(2, 3, 2), 2, 3, 2, ref.Kernel.identity())
    y_env, x_env = ref.envelope_minimum(table)
    assert abs(y_env - 3) < 1e-12 and abs(x_env) < 1e-9
    checker = Checker(make_inputs(0))
    assert checker.certificate((2, 3, 2), ref.Kernel.identity(), IDENTITY,
                               atoms, x_star, y_star) == []


def test_companion_428_published_efficiencies():
    shape, blocks = normalized_blocks(COMPANION_428)
    got = ref.efficiencies(blocks, *shape, ref.Kernel.identity(), reference_y_star(*shape))
    assert all(abs(g - w) <= 5e-4 for g, w in zip(got, COMPANION_428_PUBLISHED))


def test_optimal_232_design_is_optimal():
    shape, blocks = normalized_blocks(OPTIMAL_232)
    assert ref.is_optimal_design(blocks, *shape, ref.Kernel.identity(), Fraction(3))
    got = ref.efficiencies(blocks, *shape, ref.Kernel.identity(), 3)
    assert all(abs(v - 1) < 1e-12 for v in got)


def test_dense_identity_matches_exact_triples():
    labels = ref.orbit_labels(2, 3, 4)
    exact = ref.triples_float(labels, 2, 3, 4, ref.Kernel.identity())
    dense = ref.triples_float(labels, 2, 3, 4, ref.Kernel.dense(np.eye(6)))
    assert np.allclose(exact, dense, atol=1e-12)


def test_certificate_rejects_perturbed_y_star(chain_232):
    x_star, _, atoms = chain_232
    checker = Checker(make_inputs(0))
    kernel = ref.Kernel.identity()
    assert checker.certificate((2, 3, 2), kernel, IDENTITY, atoms, x_star,
                               Fraction(3) + Fraction(1, 10**6))
    float_atoms = [[lab, float(Fraction(w))] for lab, w in atoms]
    assert checker.certificate((2, 3, 2), kernel, IDENTITY, float_atoms, 0.0, 3.0) == []
    assert checker.certificate((2, 3, 2), kernel, IDENTITY, float_atoms, 0.0, 3.0 + 1e-6)


def test_certificate_rejects_non_optimal_measure():
    # the clustered orbit alone has a nonzero slope at x* = 0
    atoms = orbit_atoms(CLUSTERED_232, 1, 2)
    checker = Checker(make_inputs(0))
    c = ref.exact_triples(np.array([atoms[0][0]]), 2, 3, 2, ref.Kernel.identity())[0]
    y, x = ref.quadratic_minimum(c)
    assert checker.certificate((2, 3, 2), ref.Kernel.identity(), IDENTITY, atoms, x, y)
    assert checker.certificate((2, 3, 2), ref.Kernel.identity(), IDENTITY, atoms,
                               Fraction(0), Fraction(3))


def test_efficiency_check_rejects_value_above_one():
    assert efficiency_problems((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 1e-9) == []
    assert efficiency_problems((1.0, 1.0, 1.0, 1.0001), (1.0, 1.0, 1.0, 1.0001), 1e-9)
    assert efficiency_problems((0.99, 0.98, 0.97, 0.99), (0.99, 0.98, 0.97, 0.99), 1e-9)


def test_random_designs_are_rejected_and_seeded():
    a, b = make_inputs(5), make_inputs(5)
    assert a == b and a != make_inputs(6)
    for key in ("random_232", "random_428"):
        shape, blocks = normalized_blocks(a[key])
        assert not ref.is_optimal_design(blocks, *shape, ref.Kernel.identity(),
                                         reference_y_star(*shape))


def test_orbit_enumeration_counts():
    # sum of Stirling numbers S(p, k), k <= t
    assert len(ref.orbit_labels(3, 3, 3)) == 3281
    assert len(ref.orbit_labels(2, 4, 8)) == 4140
    assert len(ref.orbit_labels(3, 3, 4)) == 11051
