"""Reference forms the tests compare the package against: the paper's
counting formula (closed_numerators_batch), the independent check of
model's pair kernel, and plain definitions no production path needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from fielddesign.arrays import BlockArray, Orbit, Shape, enumerate_label_matrix, label_matrix
from fielddesign.model import (
    IDENTITY,
    CoefficientTriple,
    CovarianceSpec,
    bind,
    schur_complement,
    schur_numerators,
    summed_components,
)
from fielddesign.optimality import Measure, q_star, solve_closed_form


def c11_base(shape: Shape) -> Fraction:
    """Shape constant: the label-free part of c11 (same for every array)."""
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    return (
        Fraction(4 * p - 2 * a - 2 * b)
        - Fraction(2 * (8 * a * b - 7 * a - 7 * b + 4), t)
        + Fraction(4 * (2 * p - a - b) ** 2, p * t)
    )


def closed_numerators_batch(labels: np.ndarray, shape: Shape):
    """The paper's counting formula over an (N, p) label matrix.

    With f0 the replication counts over the grid, f1..f4 over the grid
    less its last column, first column, last row and first row, h[i][j] =
    f_i . f_j, h1 = sum_{j>=1} h[0][j], h2 = sum_{i>=1} h[i][i], h3 =
    sum_{1<=i<j} h[i][j], z1 the ordered same-label neighbor pairs and z2
    the ordered same-label pairs weighted by their shared neighbors,
    returns the integer numerators n00 = p^2 - h00, n01 = p z1 - h1 and
    n11 = eta p t + p t z2 - t h2 - 2 t h3 over denominators (p, p, p*t),
    eta = c11_base; exact for the identity kernel.
    """
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    lab = np.asarray(labels)
    i, j = np.arange(p) % a, np.arange(p) // a
    grids = np.array([j >= 0, j <= b - 2, j >= 1, i <= a - 2, i >= 1], dtype=np.int64)
    onehot = (lab[:, :, None] == np.arange(1, t + 1)).astype(np.int64)
    f = grids @ onehot  # (N, 5, t): f0..f4
    h = f @ f.transpose(0, 2, 1)
    h1 = h[:, 0, 1:].sum(axis=1)
    h2 = np.trace(h[:, 1:, 1:], axis1=1, axis2=2)
    h3 = (h[:, 1:, 1:].sum(axis=(1, 2)) - h2) // 2

    def same(mask: np.ndarray, offset: int) -> np.ndarray:
        src = np.flatnonzero(mask)
        return (lab[:, src] == lab[:, src + offset]).sum(axis=1)

    # plot pairs one apart in a row and in a column; two apart in a row
    # and in a column (one shared neighbor); diagonal (two shared)
    z1 = 2 * same(j <= b - 2, a) + 2 * same(i <= a - 2, 1)
    z2 = (2 * same(j <= b - 3, 2 * a) + 2 * same(i <= a - 3, 2)
          + 4 * same((i >= 1) & (j <= b - 2), a - 1)
          + 4 * same((i <= a - 2) & (j <= b - 2), a + 1))
    n00 = p * p - h[:, 0, 0]
    n01 = p * z1 - h1
    n11 = int(c11_base(shape) * p * t) + p * t * z2 - t * h2 - 2 * t * h3
    return n00, n01, n11


def c_coeffs_closed(s: BlockArray) -> CoefficientTriple:
    """Exact coefficients of one array by the counting formula (identity
    kernel scale): closed_numerators_batch on its one row."""
    p, t = s.shape.p, s.shape.t
    nums = closed_numerators_batch(label_matrix([s]), s.shape)
    return CoefficientTriple(*(Fraction(int(n[0]), d) for n, d in zip(nums, (p, p, p * t))))


def incidence_matrices(s: BlockArray) -> SimpleNamespace:
    """Plot-by-treatment incidences of one array: direct (t0), and f, the
    sum over its orthogonal neighbors (plot (i, j) at index i + a j)."""
    a, b, t = s.shape
    t0 = (label_matrix([s])[0][:, None] == np.arange(1, t + 1)).astype(np.int64)
    m = np.zeros((a * b, a * b), dtype=np.int64)
    for j in range(b):
        for i in range(a):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < a and 0 <= j + dj < b:
                    m[i + a * j, i + di + a * (j + dj)] = 1
    return SimpleNamespace(t0=t0, f=m @ t0)


def sigma_matrix(sigma: CovarianceSpec, p: int) -> np.ndarray:
    """The p x p matrix of a covariance spec that fits p plots (bind)."""
    if bind(p, sigma).unit is not None:
        return sigma.array()
    y = np.zeros(p) if sigma.y is None else np.asarray(sigma.y, dtype=float)
    return float(sigma.x) * np.eye(p) + np.outer(y, np.ones(p)) + np.outer(np.ones(p), y)


def info_matrix_measure(measure: Measure, sigma: CovarianceSpec = IDENTITY,
                        exact: bool = False) -> np.ndarray:
    """Per-block-average information matrix of an approximate measure: an
    atom measure's weighted component sum, then Schur; an orbit measure's
    q*/(t-1) B_t, q* from q_star."""
    if exact and measure.denominator is None:
        raise ValueError("exact sums need a measure with exact weights")
    if measure.orbit_sizes is None:
        weights = measure.weights if exact else measure.float_weights()
        nums, d = summed_components(measure.shape, measure.labels, weights, sigma, exact)
        if not exact:
            return schur_complement(*(nums / d))
        n, pivot = schur_numerators(*nums)
        return n * Fraction(1, pivot * d * measure.denominator)
    t, q = measure.shape.t, q_star(measure, sigma)[0]
    if exact and not isinstance(q, Fraction):  # an exact measure under a float scale
        raise ValueError("exact path needs Identity or rational type-H covariance")
    proj = t * np.eye(t, dtype=np.int64) - 1  # t B_t
    return proj.astype(object) * (q / (t * t - t)) if exact else proj * (float(q) / (t * t - t))


def enumerate_orbits(shape: Shape) -> Iterator[Orbit]:
    """Every orbit of the shape as (canonical representative, size), in the
    row order of enumerate_label_matrix."""
    for seq in enumerate_label_matrix(shape).tolist():
        yield Orbit(BlockArray.from_colex(shape, seq), math.perm(shape.t, max(seq)))


def pseudo_symmetric_efficiency(xi: Measure, sigma: CovarianceSpec = IDENTITY, y_star=None):
    """Common efficiency q*/y* of the symmetrized measure: triples are
    invariant under relabeling, so xi's q* is its symmetrization's, whose
    information matrix is completely symmetric.  Exact where both are."""
    y_star = solve_closed_form(xi.shape, sigma).y_star if y_star is None else y_star
    return q_star(xi, sigma)[0] / y_star
