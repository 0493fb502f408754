"""Error probability of nearest-plane rounding on 2D lattices.

For a canonical reduced basis {(1,0),(a,b)} the probability that the
nearest-plane point differs from the true closest point, for a target
uniform in the origin rounding cell, has the closed form

    F(a, b) = (a - a^2) / (4 b^2),

which ranges over [0, 1/12]: zero exactly for orthogonal bases and maximal
at the hexagonal point (1/2, sqrt(3)/2).  This module computes that formula,
its polar form, the exact cell-overlap area for arbitrary 2D bases, and a
Monte Carlo estimate driven by the exhaustive CVP oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import (
    GeneratorMatrix,
    ReducedBasis2D,
    UnsupportedDimensionError,
    cvp_bruteforce_batch,
    gauss_reduce_2d,
    is_minkowski_reduced_2d,
)

PE_CSV_HEADER = "a,b,pe_analytic,pe_exact,pe_mc,mc_stderr"

# A vertex counts as inside the half-plane <x, n> <= offset when it exceeds
# the offset by at most this fraction of it, which is the same test at every
# scale of the lattice.
_CLIP_TOL = 1e-10


@dataclass(frozen=True)
class VoronoiPolygon2D:
    """Convex, centrally symmetric Voronoi cell of the origin.

    vertices: (k, 2) array in counterclockwise order, k in {4, 6} (5 where a
    near-rectangular cell's two short edges straddle the clipping tolerance);
    relevant_vectors: (m, 2) array, one representative per +- pair of the
    lattice vectors whose bisectors support the cell edges (m in {2, 3}).
    """

    vertices: np.ndarray
    relevant_vectors: np.ndarray

    @property
    def area(self) -> float:
        return _polygon_area(self.vertices)


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo estimate with its binomial standard error."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int


def _polygon_area(vertices) -> float:
    """Shoelace area; positive for counterclockwise orientation."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clip_halfplanes(poly, normals):
    """Clip a convex polygon that contains the origin by the half-planes
    <x, w> <= ||w||^2 / 2 of the rows w of `normals`, in order
    (Sutherland-Hodgman).

    Returns the polygon and, for each edge poly[i] -> poly[i+1], the index
    of the row whose bisector carries it (-1 for an edge of the input): a
    kept edge keeps its label, and an edge cut along a line gets that line's.
    """
    labels = [-1] * len(poly)
    for label, w in enumerate(normals):
        offset = float(w @ w) / 2.0
        d = poly @ w - offset
        inside = d <= _CLIP_TOL * offset
        out, out_labels = [], []
        k = len(poly)
        for i in range(k):
            j = (i + 1) % k
            if inside[i]:
                out.append(poly[i])
                out_labels.append(labels[i])
            if inside[i] != inside[j]:
                t = d[i] / (d[i] - d[j])
                out.append(poly[i] + t * (poly[j] - poly[i]))
                out_labels.append(label if inside[i] else labels[i])
        poly, labels = np.array(out), out_labels
    return poly, labels


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


def _bisector_intersection(w1, w2):
    A = np.vstack([w1, w2])
    rhs = np.array([float(w1 @ w1) / 2.0, float(w2 @ w2) / 2.0])
    return np.linalg.solve(A, rhs)


def voronoi_vertices_reduced(a: float, b: float) -> VoronoiPolygon2D:
    """Voronoi cell of the origin for a canonical reduced basis {(1,0),(a,b)}.

    Vertices are computed as intersections of perpendicular bisectors of the
    relevant vectors, never from a tabulated formula.  For a = 0 the cell is
    the rectangle [-1/2,1/2] x [-b/2,b/2].
    """
    rb = ReducedBasis2D(a, b)  # validates the domain
    a, b = rb.a, rb.b
    w1 = np.array([1.0, 0.0])
    w2 = np.array([a, b])
    if a <= 1e-12:
        vertices = np.array([
            [0.5, b / 2.0], [-0.5, b / 2.0], [-0.5, -b / 2.0], [0.5, -b / 2.0]])
        relevant = np.array([w1, w2])
        return VoronoiPolygon2D(vertices=vertices, relevant_vectors=relevant)
    w3 = third_relevant_vector(a, b)
    upper = [
        _bisector_intersection(w1, w2),
        _bisector_intersection(w2, w3),
        _bisector_intersection(w3, -w1),
    ]
    vertices = np.array(upper + [-v for v in upper])
    if _polygon_area(vertices) < 0:  # pragma: no cover - construction is CCW
        vertices = vertices[::-1]
    return VoronoiPolygon2D(vertices=vertices,
                            relevant_vectors=np.array([w1, w2, w3]))


def voronoi_polygon_general(V: GeneratorMatrix) -> VoronoiPolygon2D:
    """Voronoi cell of the origin for an arbitrary 2D basis, in the original
    coordinates.

    Reduces the basis to bound the search, enumerates lattice vectors w with
    ||w|| <= 2 ||w2||, and clips a bounding square by each half-plane
    <x, w> <= ||w||^2 / 2.  The relevant vectors are the w whose bisectors
    carry the edges of the final polygon, read off the clip's edge labels.
    """
    if V.n != 2:
        raise UnsupportedDimensionError("Voronoi construction needs n = 2")
    W, _ = gauss_reduce_2d(V)
    w1 = W.column(0)
    w2 = W.column(1)
    bound = 2.0 * float(np.linalg.norm(w2))
    h2 = abs(W.det) / float(np.linalg.norm(w1))
    jmax = int(math.ceil(bound / h2)) + 1
    imax = int(math.ceil((bound + jmax * float(np.linalg.norm(w2)))
                         / float(np.linalg.norm(w1)))) + 1
    ii, jj = np.meshgrid(np.arange(-imax, imax + 1),
                         np.arange(-jmax, jmax + 1), indexing="ij")
    nonzero = (ii != 0) | (jj != 0)
    cands = ii[nonzero][:, None] * w1 + jj[nonzero][:, None] * w2
    # each squared norm summed as a 1-D dot is
    norms = np.sqrt(np.matmul(cands[:, None, :], cands[:, :, None])[:, 0, 0])
    keep = np.flatnonzero(norms <= bound * (1.0 + 1e-9))
    keep = keep[np.argsort(norms[keep], kind="stable")]
    cands = cands[keep]

    big = 2.0 * bound
    square = np.array([[big, big], [-big, big], [-big, -big], [big, -big]])
    poly, labels = _clip_halfplanes(square, cands)

    relevant = []
    for w in cands[labels]:
        if w[1] < -1e-12 * bound or (abs(w[1]) <= 1e-12 * bound and w[0] < 0):
            w = -w
        if not any((w == r).all() for r in relevant):
            relevant.append(w)
    return VoronoiPolygon2D(vertices=poly, relevant_vectors=np.array(relevant))


def analytic_pe(a: float, b: float) -> float:
    """Closed-form error probability F(a, b) = (a - a^2) / (4 b^2) for the
    canonical reduced basis {(1,0),(a,b)}."""
    rb = ReducedBasis2D(a, b)  # domain check
    return (rb.a - rb.a ** 2) / (4.0 * rb.b ** 2)


def analytic_pe_polar(theta: float, rho: float) -> float:
    """Polar form of the error probability: the second basis vector at angle
    theta (pi/3 <= theta <= 2pi/3) and length ratio rho >= 1."""
    if not (math.pi / 3 - 1e-12 <= theta <= 2 * math.pi / 3 + 1e-12):
        raise ValueError(f"theta out of range: {theta}")
    if rho < 1 - 1e-12:
        raise ValueError(f"rho out of range: {rho}")
    c = abs(math.cos(theta))
    if rho * c > 0.5 + 1e-9:
        raise ValueError("(theta, rho) does not describe a reduced basis")
    s2 = math.sin(theta) ** 2
    return (1.0 / (4.0 * rho)) * (c / s2) * (1.0 - rho * c)


def _babai_box_polygon(V: GeneratorMatrix):
    Q, R = V.qr()
    h1 = abs(float(R[0, 0])) / 2.0
    h2 = abs(float(R[1, 1])) / 2.0
    corners = np.array([[h1, h2], [-h1, h2], [-h1, -h2], [h1, -h2]])
    box = corners @ Q.T
    if _polygon_area(box) < 0:  # Q may be a reflection
        box = box[::-1]
    return box


def exact_pe_area(V: GeneratorMatrix) -> float:
    """Exact rounding-error probability of a 2D basis as an area ratio.

    Clips the origin rounding box (axis-aligned in the QR frame) by the
    half-planes <x, +-w> <= ||w||^2 / 2 of the Voronoi-relevant vectors w,
    whose intersection is the origin Voronoi cell; the error probability is
    the fraction of the box outside the cell.
    """
    if V.n != 2:
        raise UnsupportedDimensionError("area computation needs n = 2")
    rel = voronoi_polygon_general(V).relevant_vectors
    inter, _ = _clip_halfplanes(_babai_box_polygon(V), np.vstack([rel, -rel]))
    area = _polygon_area(inter)
    pe = 1.0 - area / abs(V.det)
    return min(1.0, max(0.0, pe))


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


def pe_row(a, b, samples=0, seed=0) -> tuple:
    """Row of the canonical basis {(1,0),(a,b)} in PE_CSV_HEADER order: the
    closed form, the exact area and, for samples > 0, the Monte Carlo
    estimate and its standard error (else None, None)."""
    rb = ReducedBasis2D(a, b)
    V = rb.matrix()
    mc = (None, None)
    if samples > 0:
        est = monte_carlo_pe(V, samples, seed=seed)
        mc = (est.estimate, est.std_error)
    return (rb.a, rb.b, analytic_pe(rb.a, rb.b), exact_pe_area(V)) + mc
