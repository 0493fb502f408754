"""Nearest-plane rounding of a target to a lattice, and its partition cells.

The recursion walks basis levels from last to first, rounding the coefficient
of the target along each successive orthogonal direction.  The induced
partition of space is a tiling by identical boxes, axis-aligned in the QR
frame of the basis, with side lengths given by the R diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GeneratorMatrix, round_half_up


@dataclass(frozen=True)
class NearestPlaneResult:
    """coeffs / point: the chosen lattice vector; residuals[i] is the real
    coefficient at level i immediately before it was rounded.  For a batch
    of targets each field holds one row per target."""

    coeffs: np.ndarray
    point: np.ndarray
    residuals: np.ndarray


def nearest_plane(V: GeneratorMatrix, X, method="auto") -> NearestPlaneResult:
    """Round targets to nearby lattice points, one basis level at a time.

    X is one target (shape (n,)) or a batch of targets (shape (k, n)); the
    result fields have the same leading shape.  The targets are rotated into
    the frame of V.qr(), where the recursion walks R from the last level to
    the first.  For an upper-triangular V that rotation only flips signs, so
    the coefficients are those of the recursion on V itself, bit for bit.
    method="triangular" additionally requires an upper-triangular V.
    Coefficients must stay below 2^52 in magnitude (see round_half_up).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != V.n:
        raise ValueError("target dimension mismatch")
    if not np.all(np.isfinite(X)):
        raise ValueError("target must be finite")
    if method not in ("auto", "triangular"):
        raise ValueError(f"unknown method {method!r}")
    if method == "triangular" and not V.is_upper_triangular():
        raise ValueError("triangular method needs an upper-triangular matrix")
    Q, r = V.qr()
    n = V.n
    X2 = np.atleast_2d(X)
    # Y holds each target in the QR frame, minus the columns already fixed;
    # once level i is done, Y[:, i] is its real coefficient before rounding.
    # Every sum is accumulated term by term, never through a BLAS product,
    # so a row's arithmetic does not depend on how many rows the batch has.
    Y = np.zeros(X2.shape)
    for j in range(n):
        Y += X2[:, j, None] * Q[j]
    B = np.empty(X2.shape, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        Y[:, i] /= r[i, i]
        b = round_half_up(Y[:, i])
        B[:, i] = b
        Y[:, :i] -= b[:, None] * r[:i, i]
    if X.ndim == 1:
        b = B[0]
        return NearestPlaneResult(coeffs=b, point=V.matrix @ b.astype(float),
                                  residuals=Y[0])
    return NearestPlaneResult(coeffs=B, point=B.astype(float) @ V.matrix.T,
                              residuals=Y)


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
