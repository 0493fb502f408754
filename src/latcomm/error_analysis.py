"""Error probability of nearest-plane rounding on 2D lattices.

For a canonical reduced basis {(1,0),(a,b)} the probability that the
nearest-plane point differs from the true closest point, for a target
uniform in the origin rounding cell, has the closed form

    F(a, b) = (a - a^2) / (4 b^2),

which ranges over [0, 1/12]: zero exactly for orthogonal bases and maximal
at the hexagonal point (1/2, sqrt(3)/2).  This module computes that formula,
the exact cell-overlap area for arbitrary 2D bases, and a Monte Carlo
estimate driven by the exhaustive CVP oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import (
    GeneratorMatrix,
    ReducedBasis2D,
    UnsupportedDimensionError,
    cvp_bruteforce_batch,
    _dot,
    _gauss_reduce_rows,
    gauss_reduce_2d,
    is_minkowski_reduced_2d,
)

PE_CSV_HEADER = "a,b,pe_analytic,pe_exact,pe_mc,mc_stderr"

# Float error allowed for on <p - w/2, w> in the clip, in ulps of the size
# of its terms: a vertex on a bisector, as a corner of a rectangular cell
# is on the bisector of w1 + w2, reads within a few ulps of it.
_CLIP_ULPS = 16

# Corners of a box or of the parallelogram |<x, w1>| <= ||w1||^2 / 2,
# |<x, w2>| <= ||w2||^2 / 2 as signs, counterclockwise (for the
# parallelogram where det [w1 w2] > 0), and the index in [w1, w2, -w1, -w2]
# of the vector whose bisector carries the parallelogram's edge from each
# corner to the next.
_CORNERS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_CORNER_EDGES = np.array([1, 2, 3, 0])

# Coefficients (i, j) of the 8 candidates i w1 + j w2 of a reduced basis:
# the diagonals first, then w1, w2, -w1, -w2; and the +- pair of each.
_CANDIDATES = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0],
                        [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_PAIRS = np.array([2, 3, 2, 3, 0, 1, 0, 1])


@dataclass(frozen=True)
class VoronoiPolygon2D:
    """Convex, centrally symmetric Voronoi cell of the origin.

    vertices: (k, 2) array in counterclockwise order, k in {4, 6};
    relevant_vectors: (m, 2) array, one representative per +- pair of the
    lattice vectors whose bisectors support the cell edges (m in {2, 3}).
    """

    vertices: np.ndarray
    relevant_vectors: np.ndarray

    @property
    def area(self) -> float:
        """Shoelace area, as a fan from the first vertex."""
        D = self.vertices[1:] - self.vertices[0]
        return 0.5 * float(_cross(D[:-1], D[1:]).sum())


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo estimate with its binomial standard error."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _clip_halfplanes(P, n, labels, normals, active):
    """Clip k convex polygons that contain the origin by half-planes
    <x - w/2, w> <= 0, one half-plane at a time across all rows
    (Sutherland-Hodgman, CACM 17(1), 1974).

    P (shape (k, m, 2)) holds row r's vertices in its first n[r] slots,
    counterclockwise, and labels (shape (k, m)) a label for each edge
    P[r, i] -> P[r, i+1]; normals (shape (k, h, 2)) holds each row's w in
    the order they clip, and where active[r, j] is False row r skips its
    j-th.
    A vertex p is outside where the float value of <p - w/2, w> exceeds
    _CLIP_ULPS ulps of rho ||w||_1 + ||w||^2 / 2 (rho the input polygon's
    largest coordinate), a bound on the rounding in p and in that value
    that holds at every scale.

    Returns (P, n, labels, cut): the clipped polygons and their edge labels
    in the same layout, where a kept edge keeps its label and an edge cut
    along the bisector of normals[r, j] gets the label j; and the area each
    row lost.  Every piece cut off is summed as a fan from one of its own
    points, with each crossing taken as an offset from its end outside, so
    that a thin piece keeps its relative precision.
    """
    # contiguous, so that every row's products take the same path
    P = np.ascontiguousarray(P, dtype=float)
    k = len(P)
    rows, ar = np.arange(k)[:, None], np.arange(k)
    cut = np.zeros(k)
    half = normals / 2.0
    # |p| . |w| <= rho ||w||_1 for every vertex p of the clipped polygons,
    # rho being the largest coordinate of the input one
    rho = np.abs(P).max(axis=(1, 2))[:, None]
    bound = _CLIP_ULPS * np.finfo(float).eps * (
        rho * np.abs(normals).sum(axis=2) + _dot(half, normals))
    bound[~active] = np.inf
    for j in range(normals.shape[1]):
        # the zero padding is the origin, inside every half-plane
        d = np.matmul(P - half[:, j, None], normals[:, j, :, None])[..., 0]
        out = d > bound[:, j, None]
        if not out.any():
            continue
        m = P.shape[1]
        after = np.arange(1, m + 1)
        valid = after <= n[:, None]
        nxt = np.where(after < n[:, None], after, 0)
        Pn, dn = P[rows, nxt], d[rows, nxt]
        cross = (out != out[rows, nxt]) & valid
        leave = cross & ~out
        # the crossing on edge i -> i+1 lies at q + step, q its end outside
        s = np.divide(np.where(leave, dn, d), dn - d, out=np.zeros(d.shape),
                      where=cross)
        step = s[..., None] * (P - Pn)
        Q = np.where(leave[..., None], Pn, P)
        # the piece cut off, as a fan from the crossing on the edge that
        # leaves, q0 + L with q0 the piece's first vertex: A is each vertex
        # outside and B the next point of the piece (the next vertex, or the
        # crossing that enters), both relative to that crossing
        l = leave.argmax(axis=1)
        A = P - Pn[ar, l][:, None] - step[ar, l][:, None]
        B = A + np.where((cross & out)[..., None], step, Pn - P)
        cut += 0.5 * (out * _cross(A, B)).sum(axis=1)
        # the clipped polygon: each kept vertex, then its edge's crossing
        take = np.empty((k, m, 2), dtype=bool)
        take[..., 0], take[..., 1] = valid & ~out, cross
        src = np.empty((k, m, 2, 2))
        src[:, :, 0], src[:, :, 1] = P, Q + step
        src_labels = np.empty((k, m, 2), dtype=labels.dtype)
        src_labels[..., 0], src_labels[..., 1] = labels, np.where(leave, j, labels)
        take = take.reshape(k, -1)
        r, c = np.nonzero(take)
        n = take.sum(axis=1)
        at = np.arange(len(r)) - (np.cumsum(n) - n)[r]
        P = np.zeros((k, n.max(), 2))
        P[r, at] = src.reshape(k, -1, 2)[r, c]
        labels = np.full((k, n.max()), -1)
        labels[r, at] = src_labels.reshape(k, -1)[r, c]
    return P, n, labels, cut


def third_relevant_vector(a: float, b: float) -> np.ndarray:
    """Third +- pair of Voronoi-relevant vectors of the lattice {(1,0),(a,b)}.

    The first two pairs are the basis vectors themselves; the third is
    (a-1, b) when <v1, v2> >= 0 and (a+1, b) otherwise.  Requires the basis
    to be reduced (so the cell is a hexagon, degenerating for a = 0).
    """
    if b <= 0:
        raise ValueError("b must be positive")
    V = GeneratorMatrix(np.array([[1.0, a], [0.0, b]]))
    if not is_minkowski_reduced_2d(V):
        raise ValueError(f"basis {{(1,0),({a},{b})}} is not reduced")
    if a >= 0:
        return np.array([a - 1.0, b])
    return np.array([a + 1.0, b])


def _voronoi_cells(w1, w2):
    """Voronoi cells of the origin for k reduced bases (rows of w1, w2).

    Returns (P, n, relevant, n_relevant): the cells in `_clip_halfplanes`'
    layout, and each row's n_relevant (2 or 3) relevant vectors, one per
    +- pair, in the first slots of relevant (shape (k, 3, 2)).
    """
    k = len(w1)
    rows = np.arange(k)[:, None]
    cands = (_CANDIDATES[:, 0, None] * w1[:, None, :]
             + _CANDIDATES[:, 1, None] * w2[:, None, :])
    # +-w1 and +-w2 bound every such cell, so the clip starts from their
    # parallelogram and has only +-(w1 + w2) and +-(w1 - w2) to try,
    # shortest first; +-w1, +-w2 stay in the last four slots
    key = np.sqrt(_dot(cands, cands))
    key[:, 4:] = np.inf
    order = np.argsort(key, axis=1, kind="stable")
    normals = cands[rows, order]
    # corner (s1, s2) solves <x, w1> = s1 ||w1||^2 / 2, <x, w2> = s2 ||w2||^2 / 2
    det = _cross(w1, w2)[:, None]
    c1 = _CORNERS[:, 0] * (_dot(w1, w1)[:, None] / (2.0 * det))
    c2 = _CORNERS[:, 1] * (_dot(w2, w2)[:, None] / (2.0 * det))
    P = np.stack([c1 * w2[:, 1, None] - c2 * w1[:, 1, None],
                  c2 * w1[:, 0, None] - c1 * w2[:, 0, None]], axis=2)
    # clockwise where det < 0: walk the corners the other way round, so
    # that the edge from each to the next is on [-w2, -w1, w2, w1]
    cw = det[:, 0] < 0
    P[cw] = P[cw][:, ::-1]
    labels = 4 + np.where(cw[:, None], [3, 2, 1, 0], _CORNER_EDGES)
    P, n, labels, _ = _clip_halfplanes(P, np.full(k, 4), labels,
                                       normals[:, :4], np.ones((k, 4), dtype=bool))
    # the relevant vectors carry the final edges: one per +- pair, in the
    # order of the edge where the pair first appears (padding is label -1)
    valid = np.arange(P.shape[1]) < n[:, None]
    pair = np.where(valid, _PAIRS[order][rows, labels], 4)
    seen = np.tril(pair[:, :, None] == pair[:, None, :], -1).any(axis=2)
    r, i = np.nonzero(valid & ~seen)
    n_relevant = np.bincount(r, minlength=k)
    at = np.arange(len(r)) - (np.cumsum(n_relevant) - n_relevant)[r]
    rel = np.zeros((k, 3, 2))
    rel[r, at] = normals[r, labels[r, i]]
    # one sign per pair: positive y, or positive x on the x-axis
    tol = 2e-12 * np.sqrt(_dot(w2, w2))[:, None]
    flip = (rel[..., 1] < -tol) | ((np.abs(rel[..., 1]) <= tol) & (rel[..., 0] < 0))
    rel = np.where(flip[..., None], -rel, rel)
    return P, n, rel, n_relevant


def voronoi_polygon_general(V: GeneratorMatrix) -> VoronoiPolygon2D:
    """Voronoi cell of the origin for an arbitrary 2D basis, in the original
    coordinates.

    The relevant vectors are the strict minima of the three nonzero
    cosets of L/2L (Voronoi; Conway & Sloane, SPLAG ch. 2).  For a reduced
    basis w1, w2 these lie among the 8 candidates +-w1, +-w2, +-(w1 + w2),
    +-(w1 - w2): every other vector of a coset, w2 + 2 i w1 or w1 + 2 j w2
    and the rest, is longer, because ||w2 +- 2 w1||^2 > ||w2||^2 even where
    float reduction leaves 2 |<w1, w2>| slightly above ||w1||^2.  And w1,
    w2 are the minima of their own cosets.  So the basis is reduced
    (Lagrange-Gauss), the clip starts from the parallelogram of the
    bisectors of +-w1 and +-w2 and clips it by the half-planes
    <x, w> <= ||w||^2 / 2 of +-(w1 + w2) and +-(w1 - w2), shortest first,
    which picks between the two.  The relevant vectors are the w whose
    bisectors carry the edges of the final polygon, read off the clip's
    edge labels.
    """
    if V.n != 2:
        raise UnsupportedDimensionError("Voronoi construction needs n = 2")
    W, _ = gauss_reduce_2d(V)
    P, n, rel, n_rel = _voronoi_cells(W.matrix[None, :, 0].copy(),
                                      W.matrix[None, :, 1].copy())
    return VoronoiPolygon2D(vertices=P[0, :n[0]],
                            relevant_vectors=rel[0, :n_rel[0]])


def analytic_pe(a: float, b: float) -> float:
    """Closed-form error probability F(a, b) = (a - a^2) / (4 b^2) for the
    canonical reduced basis {(1,0),(a,b)}."""
    rb = ReducedBasis2D(a, b)  # domain check
    num, den = rb.a - rb.a * rb.a, 4.0 * rb.b * rb.b
    if math.isinf(den):  # b above about 6.7e153: divide by 4b, then by b
        return num / (4.0 * rb.b) / rb.b
    return num / den


def _qr_frame_2d(V: GeneratorMatrix):
    """R of V = Q R with R_ii > 0, from exactly rounded <v1, v2> and det
    (in Fractions), so that each entry keeps its relative precision where
    the columns are nearly orthogonal."""
    (x1, y1), (x2, y2) = V.matrix.T.tolist()
    f1, g1, f2, g2 = map(Fraction, (x1, y1, x2, y2))
    r11 = math.hypot(x1, y1)
    return np.array([[r11, float(f1 * f2 + g1 * g2) / r11],
                     [0.0, abs(float(f1 * g2 - g1 * f2)) / r11]])


def _box_pe(R, rel, n_rel):
    """P_e of k bases given by their R factors (shape (k, 2, 2)): the
    fraction of each rounding box, [-R_00/2, R_00/2] x [-R_11/2, R_11/2]
    in R's frame, outside the half-planes of +-rel (rel and n_rel as
    `_voronoi_cells` gives them, in R's frame)."""
    box = R.diagonal(axis1=1, axis2=2)[:, None, :] / 2.0 * _CORNERS
    normals = np.concatenate([rel, -rel], axis=1)
    active = np.arange(6) % 3 < n_rel[:, None]
    k = len(R)
    cut = _clip_halfplanes(box, np.full(k, 4), np.full((k, 4), -1), normals,
                           active)[3]
    return np.minimum(1.0, cut / (R[:, 0, 0] * R[:, 1, 1]))


def exact_pe_area(V: GeneratorMatrix) -> float:
    """Exact rounding-error probability of a 2D basis as an area ratio.

    Works in the QR frame V = Q R, where the origin rounding box is
    axis-aligned, and clips it by the half-planes <x, +-w> <= ||w||^2 / 2
    of the Voronoi-relevant vectors w, whose intersection is the origin
    Voronoi cell; the error probability is the area of the pieces cut off
    the box over its area.  This is one row of the batch that `pe_row`
    runs.
    """
    if V.n != 2:
        raise UnsupportedDimensionError("area computation needs n = 2")
    R = _qr_frame_2d(V)
    rel = voronoi_polygon_general(GeneratorMatrix(R)).relevant_vectors
    rel3 = np.zeros((1, 3, 2))
    rel3[0, :len(rel)] = rel
    return float(_box_pe(R[None], rel3, np.array([len(rel)]))[0])


_MC_CHUNK = 1 << 16


def _mc_chunk_errors(V, half, Q, seed, chunk_index, count):
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))
    u = rng.uniform(-1.0, 1.0, size=(count, V.n)) * half
    coeffs = cvp_bruteforce_batch(V, u @ Q.T)
    return int(np.any(coeffs != 0, axis=1).sum())


def monte_carlo_pe(V: GeneratorMatrix, n_samples: int,
                   seed: int = 0) -> PeEstimate:
    """Estimate the rounding-error probability by sampling the origin box.

    Each sample is drawn uniformly in the origin rounding cell and checked
    against the exhaustive CVP oracle.  Sampling uses counter-based
    substreams per fixed-size chunk, so the result depends only on
    (seed, n_samples).  Chunks run on up to os.cpu_count() threads; a
    single chunk runs on the calling thread.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    Q, R = V.qr()
    V._search_frame()  # the CVP frame, cached before the threads share it
    half = np.abs(np.diag(R)) / 2.0
    chunks = [(i, min(_MC_CHUNK, n_samples - start))
              for i, start in enumerate(range(0, n_samples, _MC_CHUNK))]
    def chunk_errors(chunk):
        return _mc_chunk_errors(V, half, Q, seed, *chunk)

    workers = min(len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = sum(pool.map(chunk_errors, chunks))
    else:
        errors = sum(map(chunk_errors, chunks))
    est = errors / n_samples
    se = math.sqrt(est * (1.0 - est) / n_samples)
    return PeEstimate(estimate=est, std_error=se, n_samples=n_samples,
                      seed=seed)


def level_curve_points(k: float, a_grid_count: int = 64):
    """Points (a, b) of the level set F(a, b) = k inside the admissible
    region, for 0 < k <= 1/12: b = sqrt((a - a^2) / (4k)) over a uniform
    a-grid.  Along each curve (a - 1/2)^2 + 4 k b^2 = 1/4."""
    if not (0.0 < k <= 1.0 / 12.0 + 1e-15):
        raise ValueError(f"k out of range: {k}")
    if a_grid_count < 1:
        raise ValueError("a_grid_count must be positive")
    disc = max(0.0, 1.0 - 12.0 * k)
    a_lo = max((1.0 - math.sqrt(disc)) / 2.0, 4.0 * k / (1.0 - 4.0 * k))
    a_lo = min(max(a_lo, 0.0), 0.5)
    points = []
    for a in np.linspace(a_lo, 0.5, a_grid_count):
        a = min(max(float(a), 0.0), 0.5)
        b = math.sqrt((a - a * a) / (4.0 * k))
        try:
            ReducedBasis2D(a, b)
        except ValueError:
            continue
        if points and abs(points[-1][0] - a) <= 1e-9 \
                and abs(points[-1][1] - b) <= 1e-9:
            continue
        points.append((a, b))
    return points


def format_csv_value(x) -> str:
    """12-significant-digit rendering; None becomes an empty field."""
    if x is None:
        return ""
    return f"{float(x):.12g}"


def pe_csv_line(a, b, pe_analytic=None, pe_exact=None, pe_mc=None,
                mc_stderr=None) -> str:
    return ",".join(format_csv_value(v)
                    for v in (a, b, pe_analytic, pe_exact, pe_mc, mc_stderr))


def pe_row(a, b, samples=0, seed=0):
    """Rows of the canonical bases {(1,0),(a,b)} in PE_CSV_HEADER order: the
    closed form, the exact area and, for samples > 0, the Monte Carlo
    estimate and its standard error (else None, None).

    a and b are scalars, for one row (a tuple), or arrays of the same
    shape, for a list of rows; the exact areas of all rows come from one
    batched reduction and clip, and each row equals its scalar call.
    """
    A, B = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    bases = [ReducedBasis2D(x, y) for x, y in zip(A.ravel().tolist(),
                                                  B.ravel().tolist())]
    if not bases:
        return []
    R = np.zeros((len(bases), 2, 2))
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 1] = 1.0, A.ravel(), B.ravel()
    w1, w2, _ = _gauss_reduce_rows(R[:, :, 0], R[:, :, 1])
    _, _, rel, n_rel = _voronoi_cells(w1, w2)
    exact = _box_pe(R, rel, n_rel).tolist()
    rows = []
    for rb, pe in zip(bases, exact):
        mc = (None, None)
        if samples > 0:
            est = monte_carlo_pe(rb.matrix(), samples, seed=seed)
            mc = (est.estimate, est.std_error)
        rows.append((rb.a, rb.b, analytic_pe(rb.a, rb.b), pe) + mc)
    return rows[0] if A.ndim == 0 else rows
