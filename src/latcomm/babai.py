"""Nearest-plane rounding of a target to a lattice.

The recursion walks basis levels from last to first, rounding the coefficient
of the target along each successive orthogonal direction.  The induced
partition of space is a tiling by identical boxes, axis-aligned in the QR
frame of the basis, with side lengths given by the R diagonal: a target
lies in the box of its output b exactly when every level's residual is
within [-1/2, 1/2) of b_i, which is how the recursion rounds (Babai,
Combinatorica 6, 1986).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .lattice import GeneratorMatrix, _nearest_plane_levels, _target_values


class NearestPlaneResult:
    """coeffs / point: the chosen lattice vector; residuals[i] is the real
    coefficient at level i immediately before it was rounded.  For a batch
    of targets each holds one row per target.

    point (coeffs mapped through the generator `matrix`) and residuals
    (stacked from `levels`, one float or column per level) are computed on
    first access and cached, so a caller that reads only coeffs does not
    pay for them."""

    def __init__(self, coeffs: np.ndarray, matrix: np.ndarray, levels: list):
        self.coeffs = coeffs
        self.matrix = matrix
        self.levels = levels

    def __repr__(self):
        return f"NearestPlaneResult(coeffs={self.coeffs!r})"

    @cached_property
    def point(self) -> np.ndarray:
        return self.coeffs.astype(float) @ self.matrix.T

    @cached_property
    def residuals(self) -> np.ndarray:
        return np.array(self.levels).T


def nearest_plane(V: GeneratorMatrix, X, method="auto") -> NearestPlaneResult:
    """Round targets to nearby lattice points, one basis level at a time.

    X is one target (shape (n,)) or a batch of targets (shape (k, n)); the
    result fields have the same leading shape.  The targets are rotated into
    the frame of V.qr(), where the recursion walks R from the last level to
    the first.  For an upper-triangular V that rotation only flips signs, so
    the coefficients are those of the recursion on V itself, bit for bit.
    method="triangular" additionally requires an upper-triangular V.
    Coefficients must stay below 2^52 in magnitude (see round_half_up).
    One target and a batch take the same path, on per-coordinate values
    that are floats for one target and columns for a batch.
    """
    X, x = _target_values(V, X)
    if method not in ("auto", "triangular"):
        raise ValueError(f"unknown method {method!r}")
    if method == "triangular" and not V.is_upper_triangular():
        raise ValueError("triangular method needs an upper-triangular matrix")
    # a target enters R's frame as Q[j][i] x_j summed from 0.0 in the order
    # of j, never through a BLAS product, however it was passed; the table
    # holds only the nonzero Q[j][i] (see lattice._plane_table)
    T = V._plane_table
    Y = []
    for terms, _, _ in T:
        y = 0.0
        for j, q in terms:
            y = y + q * x[j]
        Y.append(y)
    coeffs = np.array(_nearest_plane_levels(T, Y), dtype=np.int64)
    return NearestPlaneResult(coeffs if X.ndim == 1 else coeffs.T, V.matrix, Y)
