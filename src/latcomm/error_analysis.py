"""Error probability of nearest-plane rounding on 2D lattices.

For a canonical reduced basis {(1,0),(a,b)} the probability that the
nearest-plane point differs from the true closest point, for a target
uniform in the origin rounding cell, has the closed form

    F(a, b) = (a - a^2) / (4 b^2),

which ranges over [0, 1/12]: zero exactly for orthogonal bases and maximal
at the hexagonal point (1/2, sqrt(3)/2).  This module computes that formula,
the exact cell-overlap area for arbitrary 2D bases, and a Monte Carlo
estimate in any dimension decided by the coset minima of L / 2L, which the
exhaustive CVP oracle finds, and by that oracle where floats cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import (
    _CVP_SLACK,
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


def _clip_halfplanes(P, n, labels, normals):
    """Clip k convex polygons that contain the origin by half-planes
    <x - w/2, w> <= 0, one half-plane at a time across all rows
    (Sutherland-Hodgman, CACM 17(1), 1974).

    P (shape (k, m, 2)) holds row r's vertices in its first n[r] slots,
    counterclockwise, and labels (shape (k, m)) a label for each edge
    P[r, i] -> P[r, i+1], or None; normals (shape (k, h, 2)) holds each
    row's w in the order they clip, where a zero w cuts nothing: its bound
    is 0 and every <p, 0> is +-0.
    A vertex p is outside where the float value of <p - w/2, w> exceeds
    _CLIP_ULPS ulps of rho ||w||_1 + ||w||^2 / 2 (rho the input polygon's
    largest coordinate), a bound on the rounding in p and in that value
    that holds at every scale.

    Returns (P, n, labels, cut): the clipped polygons in the same layout;
    with labels, their edge labels, where a kept edge keeps its label and
    an edge cut along the bisector of normals[r, j] gets the label j, and
    cut None; without, labels None and the area each row lost.  A pass
    computes only one of the two, as its caller reads only one: the
    Voronoi cell its labels, P_e its area.  Every piece cut off is summed
    as a fan from one of its own points, with each crossing taken as an
    offset from its end outside, so that a thin piece keeps its relative
    precision.
    """
    # contiguous, so that every row's products take the same path
    P = np.ascontiguousarray(P, dtype=float)
    k = len(P)
    rows, ar = np.arange(k)[:, None], np.arange(k)
    cut = None if labels is not None else np.zeros(k)
    half = normals / 2.0
    # |p| . |w| <= rho ||w||_1 for every vertex p of the clipped polygons,
    # rho being the largest coordinate of the input one
    rho = np.abs(P).max(axis=(1, 2))[:, None]
    bound = _CLIP_ULPS * np.finfo(float).eps * (
        rho * np.abs(normals).sum(axis=2) + _dot(half, normals))
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
        if cut is not None:
            # the piece cut off, as a fan from the crossing on the edge that
            # leaves, q0 + L with q0 the piece's first vertex: A is each
            # vertex outside and B the next point of the piece (the next
            # vertex, or the crossing that enters), both relative to that
            # crossing
            l = leave.argmax(axis=1)
            A = P - Pn[ar, l][:, None] - step[ar, l][:, None]
            B = A + np.where((cross & out)[..., None], step, Pn - P)
            cut += 0.5 * (out * _cross(A, B)).sum(axis=1)
        # the clipped polygon: each kept vertex, then its edge's crossing
        take = np.empty((k, m, 2), dtype=bool)
        take[..., 0], take[..., 1] = valid & ~out, cross
        src = np.empty((k, m, 2, 2))
        src[:, :, 0], src[:, :, 1] = P, Q + step
        take = take.reshape(k, -1)
        r, c = np.nonzero(take)
        n = take.sum(axis=1)
        at = np.arange(len(r)) - (np.cumsum(n) - n)[r]
        P = np.zeros((k, n.max(), 2))
        P[r, at] = src.reshape(k, -1, 2)[r, c]
        if labels is not None:
            src_labels = np.empty((k, m, 2), dtype=labels.dtype)
            src_labels[..., 0] = labels
            src_labels[..., 1] = np.where(leave, j, labels)
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
    +- pair, in the first slots of relevant (shape (k, 3, 2)), zero rows
    after them.
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
    P, n, labels, _ = _clip_halfplanes(P, np.full(k, 4), labels, normals[:, :4])
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
    return _closed_form(ReducedBasis2D(a, b))  # domain check


def _closed_form(rb: ReducedBasis2D) -> float:
    """F(a, b) of a canonical basis that ReducedBasis2D has checked."""
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


def _box_pe(R, rel):
    """P_e of k bases given by their R factors (shape (k, 2, 2)): the
    fraction of each rounding box, [-R_00/2, R_00/2] x [-R_11/2, R_11/2]
    in R's frame, outside the half-planes of +-rel (shape (k, m, 2), in R's
    frame; zero rows pad a row with fewer relevant vectors)."""
    box = R.diagonal(axis1=1, axis2=2)[:, None, :] / 2.0 * _CORNERS
    normals = np.concatenate([rel, -rel], axis=1)
    k = len(R)
    cut = _clip_halfplanes(box, np.full(k, 4), None, normals)[3]
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
    return float(_box_pe(R[None], rel[None])[0])


# Samples per chunk: each chunk is one product against the coset minima,
# plus one CVP batch where rows fall in their float band, so memory per call
# stays bounded.  Chunk i draws from the Philox substream keyed by its
# counter, [0, 0, i, 0], the stream that Philox(key=seed).jumped(i) gives,
# so an estimate depends only on (seed, n_samples) and stays byte-identical.
_MC_CHUNK = 1 << 16
# seeds key a Philox generator, whose key has 128 bits
_SEED_LIMIT = 1 << 128
# Largest n at which monte_carlo_pe decides samples by the 2^n - 1 coset
# minima.  Measured on 10^5 samples of a criterion-11 basis, one process
# per run (2 vCPUs; CVP on every sample -> coset minima; time, peak RSS):
# n = 8 203 -> 83 ms, 209 -> 194 MB; n = 9 352-419 -> 177 ms, 225 ->
# 341 MB; n = 10 289-321 -> 402 ms, 265 -> 631 MB.  The product against
# the set holds 2^16 (2^n - 1) floats, so from n = 9 memory grows past
# the CVP's, and from n = 10 time does too.
_MC_COSET_MAX_DIM = 8
# Relative float error allowed for on |2 <x, v_c>| - ||v_c||^2, far above
# the few ulps by which the products, and the CVP's own comparison, can be
# off; a sample that near a facet goes to the CVP.
_MC_SLACK = 1e-9


def _targets(V: GeneratorMatrix, u):
    """Targets x = Q diag(half) u, half = R_ii / 2, of draws u in
    [-1, 1]^n, one per row: points of the origin rounding box."""
    Q, R = V.qr()
    return (u * (np.diag(R) / 2.0)) @ Q.T


def _coset_minima(V: GeneratorMatrix):
    """Shortest vectors v_c = V (c - 2 p_c) of the 2^n - 1 nonzero cosets
    c + 2L of L / 2L, p_c a nearest lattice point to the midpoint V c / 2
    from one CVP batch.  They include every Voronoi-relevant vector
    (Voronoi; Conway & Sloane, SPLAG ch. 2), and every other one's
    half-space <x, v> <= ||v||^2 / 2 contains the Voronoi cell too.

    Returns, in the frame that `_targets` draws from, G = 2 S Q diag(half)
    with the v_c as the rows of S, so that row c maps a draw u straight to
    2 <x, v_c>; and ||v_c||^2 - bound and ||v_c||^2 + bound as columns, for
    a float bound per vector on the test |2 <x, v_c>| - ||v_c||^2 of a
    target x in the origin rounding box.  None for n above
    _MC_COSET_MAX_DIM, and where the search frame's R_ii spread is so wide
    that the midpoints, each an exact tie, would widen a lower level of
    the CVP search to sqrt(2 _CVP_SLACK) R_ii / R_jj > 1 offsets.
    """
    diag = V._search_frame()[1].diagonal()
    if V.n > _MC_COSET_MAX_DIM or (
            math.sqrt(2.0 * _CVP_SLACK) * diag.max() > diag.min()):
        return None
    C = (np.arange(1, 1 << V.n)[:, None] >> np.arange(V.n)) & 1
    K = C - 2 * cvp_bruteforce_batch(V, (C @ V.matrix.T) / 2.0)
    S = K @ V.matrix.T
    sq = _dot(S, S)
    # |x| and |v_c| per coordinate, with the magnitude of V's terms in v_c
    Q, R = V.qr()
    half = np.diag(R) / 2.0
    reach = np.abs(Q) @ half
    a = np.abs(K) @ np.abs(V.matrix).T
    # The test computes G u, not 2 <x, v_c> for the float target x that
    # the CVP sees.  Both sum the terms 2 x_j v_cj, each at most
    # 2 reach_j a_j, rounded in other places (G, x, the sums), so they
    # differ by a few ulps of 2 a . reach, about 1e-15 of it; the bound is
    # 1e-9 of it.
    bound = _MC_SLACK * (2.0 * a @ reach + _dot(a, a))
    return (2.0 * S) @ Q * half, (sq - bound)[:, None], (sq + bound)[:, None]


def _errors(V: GeneratorMatrix, u, minima):
    """Number of rows of u, draws in [-1, 1]^n, whose target (`_targets`)
    has a nearest lattice point by the CVP's rule other than the origin.
    A row is decided on u itself by the `_coset_minima` where they are
    given and its test is clear of their float bound.  The other rows, and
    every row where minima is None, go to the CVP; only then are targets
    formed, over the whole of u as the CVP on every sample forms them, so
    that each keeps its bits."""
    errors, rows = 0, slice(None)
    if minima is not None:
        # one row per vector, so that each test reduces along axis 0
        G, lo, hi = minima
        A = G @ u.T
        np.abs(A, out=A)
        out = (A > hi).any(axis=0)
        errors = int(out.sum())
        rows = (A >= lo).any(axis=0) & ~out
        if not rows.any():
            return errors
    X = _targets(V, u)[rows]
    return errors + int(np.any(cvp_bruteforce_batch(V, X) != 0, axis=1).sum())


def monte_carlo_pe(V: GeneratorMatrix, n_samples: int,
                   seed: int = 0) -> PeEstimate:
    """Estimate the rounding-error probability by sampling the origin box.

    Each sample x is drawn uniformly in the origin rounding cell.  The
    Babai point 0 is wrong exactly where some lattice point is nearer, and
    by Voronoi's theorem the coset minima v_c of `_coset_minima` decide
    that: x is an error where |2 <x, v_c>| - ||v_c||^2 exceeds its float
    bound for some c, and correct where every such difference is below
    minus it.  The test runs in the frame the draws come from, u in
    [-1, 1]^n, so a chunk forms no targets unless some sample falls
    between the two, within float error of a facet where the tie rule
    decides; those go to the exhaustive CVP oracle, so every decision, and
    the estimate, is the one that the CVP on every sample gives, bit for
    bit.  Above _MC_COSET_MAX_DIM, and on a search frame too spread for
    the midpoint CVP, every sample goes to the CVP.  The set is built per
    call, from the CVP alone.  Each fixed-size chunk draws from its own
    counter-keyed Philox substream, so the result depends only on
    (seed, n_samples).  The chunks run in order on the calling thread.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if seed >= _SEED_LIMIT:
        raise ValueError("seed must be below 2^128")
    minima = _coset_minima(V)
    errors = 0
    for i, start in enumerate(range(0, n_samples, _MC_CHUNK)):
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, 0, i, 0]))
        u = rng.uniform(-1.0, 1.0, (min(_MC_CHUNK, n_samples - start), V.n))
        errors += _errors(V, u, minima)
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
    exact = _box_pe(R, _voronoi_cells(w1, w2)[2]).tolist()
    rows = []
    for rb, pe in zip(bases, exact):
        mc = (None, None)
        if samples > 0:
            est = monte_carlo_pe(rb.matrix(), samples, seed=seed)
            mc = (est.estimate, est.std_error)
        rows.append((rb.a, rb.b, _closed_form(rb), pe) + mc)
    return rows[0] if A.ndim == 0 else rows
