"""Nearest-plane rounding of a target to a lattice, and its partition cells.

The recursion walks basis levels from last to first, rounding the coefficient
of the target along each successive orthogonal direction.  The induced
partition of space is a tiling by identical boxes, axis-aligned in the QR
frame of the basis, with side lengths given by the R diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import GeneratorMatrix, _nearest_plane_levels, _target_values


@dataclass(frozen=True)
class NearestPlaneResult:
    """coeffs / point: the chosen lattice vector; residuals[i] is the real
    coefficient at level i immediately before it was rounded.  For a batch
    of targets each holds one row per target.

    point (coeffs mapped through the generator `matrix`) and residuals
    (stacked from `levels`, one float or column per level) are computed on
    first access and cached, so a caller that reads only coeffs does not
    pay for them."""

    coeffs: np.ndarray
    matrix: np.ndarray = field(repr=False)
    levels: list = field(repr=False)

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
    _, x = _target_values(V, X)
    if method not in ("auto", "triangular"):
        raise ValueError(f"unknown method {method!r}")
    if method == "triangular" and not V.is_upper_triangular():
        raise ValueError("triangular method needs an upper-triangular matrix")
    # a target enters R's frame as Q[j][i] x_j summed from 0.0 in the order
    # of j, never through a BLAS product, however it was passed.  A sum
    # from 0.0 is never -0.0, so the term +-0.0 of a zero Q[j][i] leaves it
    # as it is, and is skipped: a triangular V's Q = I costs n products.
    Q, C = V._qr_lists
    Y = [0.0] * V.n
    for q, xj in zip(Q, x):
        Y = [y + qi * xj if qi else y for y, qi in zip(Y, q)]
    coeffs = np.array(_nearest_plane_levels(C, Y), dtype=np.int64).T
    return NearestPlaneResult(coeffs=coeffs, matrix=V.matrix, levels=Y)


@dataclass(frozen=True)
class BabaiCell:
    """Axis-aligned box (in the `frame` coordinates) of points that round to
    the lattice point `center` under the nearest-plane recursion; half-open
    on the upper side."""

    center: np.ndarray
    half_widths: np.ndarray
    frame: np.ndarray

    @property
    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_widths))

    def contains(self, x) -> bool:
        y = self.frame.T @ (np.asarray(x, dtype=float) - self.center)
        return bool(np.all(y >= -self.half_widths)
                    and np.all(y < self.half_widths))


def babai_cell(V: GeneratorMatrix, coeffs) -> BabaiCell:
    """Partition cell of the lattice point with integer coefficients
    `coeffs`: its translate of the origin box."""
    center = V.matrix @ np.asarray(coeffs, dtype=np.int64).astype(float)
    Q, R = V.qr()
    return BabaiCell(center=center, half_widths=np.abs(np.diag(R)) / 2.0,
                     frame=Q)
