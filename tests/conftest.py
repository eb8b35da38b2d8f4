"""Shared fixtures: published designs and small helpers."""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping

import pytest

from fielddesign.arrays import BlockArray, Shape, label_matrix
from fielddesign.designs import ExactDesign
from fielddesign.model import numerator_rows

from .reference_model import closed_numerators_batch

# Langton's neighbor-balanced latin square, 5 treatments on a 5x5 block.
LANGTON_SQUARE = [
    [1, 2, 3, 4, 5],
    [4, 5, 1, 2, 3],
    [2, 3, 4, 5, 1],
    [5, 1, 2, 3, 4],
    [3, 4, 5, 1, 2],
]

# Columnwise-constant companion square: one swapped tail pair breaks the
# stripes just enough to complement LANGTON_SQUARE in a 50/50 mixture.
STRIPE_SWAP_SQUARE = [
    [1, 2, 3, 4, 5],
    [1, 2, 3, 4, 5],
    [1, 2, 3, 4, 5],
    [1, 2, 3, 5, 4],
    [1, 2, 3, 4, 5],
]

# Chan-Eccleston 6x8 array with 4 treatments, as printed in its source.
CHAN_ECCLESTON_BLOCK = [
    [1, 2, 4, 3, 4, 1, 3, 2],
    [1, 2, 1, 4, 2, 3, 1, 4],
    [4, 1, 3, 2, 1, 2, 4, 3],
    [3, 4, 2, 1, 2, 3, 1, 4],
    [4, 1, 3, 2, 4, 1, 3, 2],
    [2, 3, 1, 4, 3, 4, 2, 1],
]

# Banded 6x8 companion: vertical stripes of width two with a small defect.
BANDED_BLOCK = [
    [1, 1, 2, 2, 3, 3, 4, 4],
    [1, 1, 2, 2, 3, 3, 4, 4],
    [1, 1, 2, 2, 3, 3, 4, 4],
    [1, 1, 2, 2, 3, 3, 4, 4],
    [1, 1, 2, 2, 3, 4, 4, 4],
    [1, 1, 2, 2, 3, 3, 3, 4],
]

# One-doubled-treatment representatives (column notation (1,1;2,3;4,5) etc).
SBS_ROWS_2X3 = [[1, 2, 4], [1, 3, 5]]
SBS_ROWS_3X3 = [[1, 3, 6], [1, 4, 7], [2, 5, 8]]
SBS_ROWS_3X4 = [[1, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]

# The known universally optimal 4-block design on (2,3,2).
OPTIMAL_BLOCKS_232 = [
    [[1, 1, 2], [1, 2, 2]],
    [[1, 1, 2], [1, 2, 2]],
    [[1, 1, 2], [2, 1, 2]],
    [[1, 2, 1], [2, 2, 1]],
]

# Its two supporting orbits: clustered (1,1;2,1;2,2) and spread (1,2;2,1;1,2).
CLUSTERED_ROWS_232 = [[1, 2, 2], [1, 1, 2]]
SPREAD_ROWS_232 = [[1, 2, 1], [2, 1, 2]]

# Uddin-Morgan 14-block design, 4x2 blocks, 8 treatments, as printed in
# its source (block 11 breaks the otherwise cyclic second week).
UDDIN_MORGAN_BLOCKS = [
    [[8, 1], [5, 7], [3, 4], [6, 2]],
    [[8, 2], [6, 1], [4, 5], [7, 3]],
    [[8, 3], [7, 2], [5, 6], [1, 4]],
    [[8, 4], [1, 3], [6, 7], [2, 5]],
    [[8, 5], [2, 4], [7, 1], [3, 6]],
    [[8, 6], [3, 5], [1, 2], [4, 7]],
    [[8, 7], [4, 6], [2, 3], [5, 1]],
    [[2, 3], [7, 8], [1, 5], [4, 6]],
    [[3, 4], [1, 8], [2, 6], [5, 7]],
    [[4, 5], [2, 8], [3, 7], [6, 1]],
    [[5, 6], [3, 7], [4, 1], [8, 2]],
    [[6, 7], [4, 8], [5, 2], [1, 3]],
    [[7, 1], [5, 8], [6, 3], [2, 4]],
    [[1, 2], [6, 8], [7, 4], [3, 5]],
]

# Companion 14-block design on the same shape built from the closed-form
# support classes.
EFFICIENT_BLOCKS_428 = [
    [[1, 1], [2, 8], [3, 7], [6, 4]],
    [[6, 6], [8, 1], [3, 7], [5, 4]],
    [[2, 2], [5, 7], [3, 1], [8, 4]],
    [[7, 7], [2, 3], [1, 4], [6, 8]],
    [[5, 5], [2, 8], [3, 7], [6, 1]],
    [[4, 4], [2, 1], [5, 3], [6, 8]],
    [[8, 7], [4, 6], [2, 3], [5, 1]],
    [[8, 8], [5, 1], [7, 4], [2, 6]],
    [[3, 3], [1, 4], [5, 6], [7, 2]],
    [[4, 5], [2, 8], [3, 7], [6, 1]],
    [[5, 6], [3, 8], [4, 1], [7, 2]],
    [[6, 7], [4, 8], [5, 2], [1, 3]],
    [[7, 1], [5, 8], [6, 3], [2, 4]],
    [[1, 2], [6, 8], [7, 4], [3, 5]],
]


def all_arrays(shape: Shape) -> Iterator[BlockArray]:
    """Every array of the shape (t^p of them); brute-force helper."""
    for seq in product(range(1, shape.t + 1), repeat=shape.p):
        yield BlockArray.from_colex(shape, seq)


def apply_permutation(s: BlockArray, sigma: Mapping[int, int]) -> BlockArray:
    """Relabel treatments by a bijection sigma of 1..t."""
    t = s.shape.t
    image = sorted(sigma.get(m, m) for m in range(1, t + 1))
    if image != list(range(1, t + 1)):
        raise ValueError("sigma is not a bijection of 1..t")
    return BlockArray(
        s.shape, tuple(tuple(sigma.get(v, v) for v in r) for r in s.rows)
    )


def numerators_agree(s: BlockArray) -> bool:
    """The pair kernel and the counting formula give one array the same
    exact integer numerators of (c00, c01, c11)."""
    row = label_matrix([s])
    return (numerator_rows(s.shape, row)[0].tolist()
            == [int(n[0]) for n in closed_numerators_batch(row, s.shape)])


def array_of(a: int, b: int, t: int, rows) -> BlockArray:
    return BlockArray.from_rows(Shape(a, b, t), rows)


def design_of(a: int, b: int, t: int, blocks) -> ExactDesign:
    return ExactDesign.from_json(
        {"a": a, "b": b, "t": t, "n": len(blocks), "blocks": blocks})


@pytest.fixture
def optimal_design_232() -> ExactDesign:
    return design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
