"""Lattice bases: generator matrices, QR frame, 2D reduction, exact CVP.

A lattice is the integer span of the columns of a full-rank generator matrix
V.  Everything downstream (nearest-plane rounding, cell geometry, distributed
protocols) consumes the types defined here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# Bases whose determinant is smaller than this fraction of the column-norm
# product are rejected as numerically degenerate.
NEAR_SINGULAR_RTOL = 1e-9

# Supported magnitudes: every squared column norm and |det| must be a normal
# float, with 2^16 of headroom for the products of the 2D Voronoi and P_e
# clip (squared lengths of w1 +- w2 at most 4 times the longest basis
# vector's, and its error bound at most about 16 times).
_MAGNITUDE_LO = float(np.finfo(float).tiny)
_MAGNITUDE_HI = float(np.finfo(float).max) / 2.0 ** 16
_MAGNITUDE_ERROR = (
    "basis magnitude out of range: squared column norms and |det| must lie "
    f"in [{_MAGNITUDE_LO:.3g}, {_MAGNITUDE_HI:.3g}]")

# Largest dimension of the exact CVP search, whose node count grows
# exponentially with n; n <= 12 has a timed test.
MAX_CVP_DIM = 12
# A CVP search level whose children would pass this many nodes is expanded
# in slices of whole rows.
_CVP_BLOCK_NODES = 1 << 16
# Relative float error allowed for on the terms of each CVP search level,
# so that rounding drops no candidate.
_CVP_SLACK = 1e-9
# Lovasz constant of the LLL reduction that precedes the CVP search, and a
# cap on its steps (each swap shrinks a positive potential by this factor).
_LLL_DELTA = 0.99
_LLL_MAX_STEPS = 100000
# Float error of the canonical a = R_01 / R_00 of a reduced 2D basis, in
# ulps: QR leaves a within a few ulps of hypot(a, b), and the reduction's
# stop test, which compares squared norms, leaves a above 1/2 by at most a
# few ulps of a^2 + b^2.
_CANONICAL_ULPS = 16


class DegenerateBasisError(ValueError):
    pass


class UnsupportedDimensionError(ValueError):
    pass


def _require(cond, exc, msg):
    if not cond:
        raise exc(msg)


def _parse_entry(value):
    """Return (float_value, Fraction_or_None) for a JSON matrix entry.

    Integers and strings ("p/q" or a decimal literal) are exact; floats are
    kept as floats and never promoted to rationals.
    """
    if isinstance(value, bool):
        raise ValueError("matrix entries must be numbers or rational strings")
    if isinstance(value, int):
        return float(value), Fraction(value)
    if isinstance(value, float):
        return value, None
    if isinstance(value, Fraction):
        return float(value), value
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational entry {value!r}") from e
        return float(f), f
    raise ValueError(f"bad matrix entry {value!r}")


class GeneratorMatrix:
    """Full-rank square generator matrix; column i is the basis vector v_i.

    `rational` optionally carries exact values per entry (Fraction or None),
    used by the distributed protocol which needs exact ratios of entries.
    Derived data (QR, inverse) is computed lazily and cached.
    """

    def __init__(self, matrix, rational=None):
        m = np.asarray(matrix, dtype=float)
        _require(m.ndim == 2 and m.shape[0] == m.shape[1],
                 UnsupportedDimensionError,
                 f"generator matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        _require(n >= 1, UnsupportedDimensionError, "empty matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(m, axis=0)
            sq = norms * norms
            # non-finite and zero columns fail this test too; name the cause
            if not ((sq >= _MAGNITUDE_LO) & (sq <= _MAGNITUDE_HI)).all():
                _require(np.isfinite(m).all(), ValueError,
                         "matrix entries must be finite")
                _require(m.any(axis=0).all(), DegenerateBasisError,
                         "zero basis vector")
                raise ValueError(_MAGNITUDE_ERROR)
            det = float(np.linalg.det(m))
        # |det| / prod ||v_j|| as the determinant of the unit columns, which
        # neither overflows nor underflows where that product would
        _require(abs(np.linalg.det(m / norms)) >= NEAR_SINGULAR_RTOL,
                 DegenerateBasisError,
                 "basis is singular or near-singular")
        _require(_MAGNITUDE_LO <= abs(det) <= _MAGNITUDE_HI, ValueError,
                 _MAGNITUDE_ERROR)
        if rational is not None:
            rational = tuple(tuple(row) for row in rational)
            _require(len(rational) == n and all(len(r) == n for r in rational),
                     ValueError, "rational table shape mismatch")
            for i in range(n):
                for j in range(n):
                    f = rational[i][j]
                    if f is None:
                        continue
                    # the float entry must be within one of its own ulps of
                    # the rational, as scaling by a float keeps it
                    _require(abs(m[i, j] - float(f)) <= math.ulp(m[i, j]),
                             ValueError,
                             f"entry ({i},{j}) disagrees with its rational value")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.rational = rational
        self.n = n
        self.det = det
        self._qr = None
        self._inv = None
        self._upper = None
        self._scaled = None
        self._frame = None

    @classmethod
    def from_columns(cls, columns):
        """Build from a sequence of basis vectors.

        Entries may be ints, floats, Fractions, or "p/q" strings; exact
        entries populate the rational table.
        """
        cols = list(columns)
        n = len(cols)
        m = np.zeros((n, n))
        rat = [[None] * n for _ in range(n)]
        any_rat = False
        for j, col in enumerate(cols):
            _require(len(col) == n, UnsupportedDimensionError,
                     "generator matrix must be square")
            for i, entry in enumerate(col):
                f, r = _parse_entry(entry)
                m[i, j] = f
                rat[i][j] = r
                any_rat = any_rat or r is not None
        return cls(m, rat if any_rat else None)

    @classmethod
    def from_json(cls, obj):
        _require(isinstance(obj, dict), ValueError, "matrix JSON must be an object")
        _require("n" in obj and "columns" in obj, ValueError,
                 'matrix JSON needs "n" and "columns"')
        n = obj["n"]
        cols = obj["columns"]
        _require(isinstance(n, int) and not isinstance(n, bool), ValueError,
                 'matrix JSON: "n" must be an integer')
        _require(isinstance(cols, list) and len(cols) == n, ValueError,
                 'matrix JSON: "columns" must list n columns')
        return cls.from_columns(cols)

    def to_json(self):
        cols = []
        for j in range(self.n):
            col = []
            for i in range(self.n):
                f = self.rational[i][j] if self.rational is not None else None
                if f is None:
                    col.append(float(self.matrix[i, j]))
                elif f.denominator == 1:
                    col.append(int(f))
                else:
                    col.append(f"{f.numerator}/{f.denominator}")
            cols.append(col)
        return {"n": self.n, "columns": cols}

    def is_upper_triangular(self):
        """True iff every entry below the diagonal is exactly zero."""
        if self._upper is None:
            self._upper = not np.tril(self.matrix, -1).any()
        return self._upper

    def scaled(self, c):
        """Generator of the scaled lattice c * Lambda (c a nonzero number).

        Exact entries stay exact: the scale is taken as the float c, which
        converts to a Fraction losslessly, so the table and the float matrix
        describe the same lattice.  The last scaled basis is cached, so a
        repeated scale returns the same (read-only) instance.
        """
        cf = float(c)
        _require(cf != 0.0 and math.isfinite(cf), ValueError, "bad scale")
        if self._scaled is None or self._scaled[0] != cf:
            rat = None
            if self.rational is not None:
                cr = Fraction(cf)
                rat = [[None if f is None else f * cr for f in row]
                       for row in self.rational]
            self._scaled = cf, GeneratorMatrix(self.matrix * cf, rat)
        return self._scaled[1]

    def qr(self):
        """V = Q R with orthonormal Q and R_ii > 0.

        Returns (Q, R) as read-only arrays; R generates the same lattice up
        to the isometry Q.  An upper-triangular V gives Q = diag(sign v_ii)
        and R = Q V exactly, with no factorization, so rotating a target
        into this frame only flips signs.
        """
        if self._qr is None:
            if self.is_upper_triangular():
                Q, R = np.eye(self.n), self.matrix
            else:
                Q, R = np.linalg.qr(self.matrix)
            self._qr = _positive_diagonal(Q, R)
            for a in self._qr:
                a.setflags(write=False)
        return self._qr

    @cached_property
    def _qr_lists(self):
        """qr() as Python floats: the rows of Q and the columns of R."""
        Q, R = self.qr()
        return Q.tolist(), R.T.tolist()

    def _search_frame(self):
        """(Q, R, U^T) for the CVP search: W = V U = Q R is an LLL-reduced
        basis of the same lattice, with U unimodular and U^T in int64.

        Where V is reduced already, or where U and U^-1 are too large for
        the search to map its points back without overflow, W is V itself:
        (Q, R) is `qr()` and U = I.  The arrays are read-only and the result
        is cached.
        """
        if self._frame is None:
            Q, R = self.qr()
            Ut = _lll_triangular(self._qr_lists[1])
            if Ut is None:
                self._frame = Q, R, np.eye(self.n, dtype=np.int64)
            else:
                # factored afresh from W's own columns: the direction of a
                # short w_j is then as exact as w_j, where one taken from R
                # would carry R's absolute error
                Q, R = np.linalg.qr(self.matrix @ Ut.T)
                self._frame = *_positive_diagonal(Q, R), Ut
            for a in self._frame:
                a.setflags(write=False)
        return self._frame

    def inverse(self):
        if self._inv is None:
            self._inv = np.linalg.inv(self.matrix)
        return self._inv


# Magnitude bound (exclusive) of what round_half_up accepts: below it every
# float step of the rounding rule is exact.
ROUND_LIMIT = 2.0 ** 52


def round_half_up(z):
    """Nearest integer with halfway cases rounded toward +infinity.

    [0.5] = 1, [-0.5] = 0, [-1.5] = -1.  Takes a scalar (returns a Python
    int) or an array (returns an int64 array of the same shape).  Rounds up
    iff z - floor(z) >= 1/2.  For |z| < 2^52 that difference is exact
    (Sterbenz), except for -1/2 < z < 0, where it exceeds 1/2 and rounds
    to at least 1/2; so a value just below a tie is never misrounded.
    Non-finite values and |z| >= 2^52 raise ValueError.
    """
    if isinstance(z, (int, float)) and abs(z) < ROUND_LIMIT:  # np.float64 too
        fl = math.floor(z)
        return fl + 1 if z - fl >= 0.5 else fl
    a = np.asarray(z, dtype=float)
    ok = np.abs(a) < ROUND_LIMIT  # False for nan and inf too
    if np.count_nonzero(ok) < a.size:
        bad = float(a[~ok].flat[0]) if a.ndim else float(a)
        raise ValueError(f"cannot round {bad!r}: need a finite |z| < 2**52")
    fl = np.floor(a)
    r = (fl + (a - fl >= 0.5)).astype(np.int64)
    return int(r) if r.ndim == 0 else r


def _dot(x, y):
    """Dot products of x and y along the last axis, each summed as numpy's
    1-D `x @ y` sums it, so a batch row's value is that of the row alone."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _gauss_reduce_rows(v1, v2):
    """Lagrange-Gauss reduction of k 2D bases at once, the rows of v1 and
    v2 (shape (k, 2)) being each basis's vectors.

    Returns (w1, w2, U) with U (shape (k, 2, 2), int64) unimodular and
    [w1_r w2_r] = [v1_r v2_r] U_r.  Every row takes the scalar steps: swap
    so that w1 is the shorter, translate w2 by the rounded Gram ratio, and
    stop at the first step that does not strictly shorten w2; a row that
    has stopped is left alone while the others move on.
    """
    w1, w2 = np.array(v1, dtype=float), np.array(v2, dtype=float)
    n1, n2 = _dot(w1, w1), _dot(w2, w2)
    U = np.zeros((len(w1), 2, 2), dtype=np.int64)
    U[:, 0, 0] = U[:, 1, 1] = 1
    moving = np.ones(len(w1), dtype=bool)
    for _ in range(10000):
        swap = moving & (n1 > n2)
        if swap.any():
            w1[swap], w2[swap] = w2[swap], w1[swap]
            n1[swap], n2[swap] = n2[swap], n1[swap]
            U[swap] = U[swap][:, :, ::-1]
        m = round_half_up(_dot(w1, w2) / n1)
        c = w2 - m[:, None] * w1
        nc = _dot(c, c)
        moving &= nc < n2  # False where m = 0
        if not moving.any():
            break
        w2[moving], n2[moving] = c[moving], nc[moving]
        U[moving, :, 1] -= m[moving, None] * U[moving, :, 0]
    else:  # pragma: no cover - each step strictly shortens w2
        raise RuntimeError("reduction did not terminate")
    flip = _dot(w1, w2) < 0
    w2[flip] = -w2[flip]
    U[flip, :, 1] = -U[flip, :, 1]
    return w1, w2, U


def gauss_reduce_2d(V: GeneratorMatrix):
    """Lagrange-Gauss reduction of a 2D basis.

    Returns (W, U) with W = V U, U integer and |det U| = 1, W's first column
    a shortest vector, and 0 <= 2 <w1, w2> <= ||w1||^2 after the final sign
    canonicalization.  The interchange/translation loop stops as soon as a
    step no longer strictly shortens the longer vector, so a strictly reduced
    basis is returned unchanged; at exact ties (equal norms, half-integer
    Gram ratio) float rounding picks one of the equivalent reduced outputs.
    This is one row of the batched reduction that the P_e sweep runs.
    """
    _require(V.n == 2, UnsupportedDimensionError, "2D reduction needs n = 2")
    w1, w2, U = _gauss_reduce_rows(V.matrix[None, :, 0], V.matrix[None, :, 1])
    return GeneratorMatrix(np.column_stack([w1[0], w2[0]])), U[0]


def is_minkowski_reduced_2d(V: GeneratorMatrix) -> bool:
    """Check ||v1|| <= ||v2|| and 2|<v1,v2>| <= ||v1||^2, up to a relative
    1e-12 of ||v1||^2.  Equivalent to ||v1|| <= ||v2|| <= ||v1 +- v2||."""
    _require(V.n == 2, UnsupportedDimensionError, "2D check needs n = 2")
    v1, v2 = V.matrix.T
    a = float(v1 @ v1)
    tol = 1e-12 * a
    return a <= float(v2 @ v2) + tol and 2 * abs(float(v1 @ v2)) <= a + tol


@dataclass(frozen=True)
class ReducedBasis2D:
    """Canonical form {(1,0), (a,b)} of a reduced 2D basis, up to isometry
    and uniform scale: 0 <= a <= 1/2, b >= sqrt(3)/2, a^2 + b^2 >= 1."""

    a: float
    b: float

    def __post_init__(self):
        _require(0.0 <= self.a <= 0.5, ValueError, f"a out of range: {self.a}")
        _require(math.sqrt(3) / 2 - 1e-12 <= self.b < math.inf, ValueError,
                 f"b out of range: {self.b}")
        _require(self.a * self.a + self.b * self.b >= 1 - 1e-12, ValueError,
                 f"(a,b) inside the unit circle: ({self.a}, {self.b})")

    def matrix(self) -> GeneratorMatrix:
        return GeneratorMatrix(np.array([[1.0, self.a], [0.0, self.b]]))


def canonicalize_2d(V: GeneratorMatrix):
    """Reduce a 2D basis and normalize it to the canonical {(1,0),(a,b)} form.

    Returns (ReducedBasis2D, scale, isometry): V @ U = isometry @ (scale * [[1,a],[0,b]])
    for the unimodular U produced by reduction.  a is snapped to 0 only
    within _CANONICAL_ULPS ulps of hypot(a, b), the float error of the QR
    frame, so a real skew such as (1,0),(1e-11,1.5) keeps its a; and to 1/2
    from above within _CANONICAL_ULPS ulps of a^2 + b^2, the resolution of
    the reduction's stop test.
    """
    W, _ = gauss_reduce_2d(V)
    Q, r = W.qr()
    scale = float(r[0, 0])
    a = float(r[0, 1]) / scale
    b = float(r[1, 1]) / scale
    ulp = _CANONICAL_ULPS * np.finfo(float).eps
    if abs(a) <= ulp * math.hypot(a, b):
        a = 0.0
    if 0.5 < a <= 0.5 + ulp * (a * a + b * b):
        a = 0.5
    return ReducedBasis2D(a=a, b=b), scale, Q


def _positive_diagonal(Q, R):
    """(Q S, S R) for the diagonal sign matrix S that makes R_ii > 0."""
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    return Q * signs, R * signs[:, None]


def _lll_triangular(R):
    """LLL reduction (Lovasz constant _LLL_DELTA) of the columns of an upper
    triangular R with a positive diagonal, given as lists of its columns.

    Returns U^T in int64 for the unimodular U that reduces R U; or None
    where U = I, or where U and U^-1 are so large that the CVP search could
    not map its points through U exactly.  Column k is size-reduced against
    column j only where |mu_jk| > 1/2, so a reduced basis (hexagonal: ratio
    exactly 1/2) keeps U = I.  A swap of columns k - 1 and k is followed by
    a reflection of rows k - 1 and k that makes the working copy triangular
    again.  Runs in Python floats and ints; the loop stops after
    _LLL_MAX_STEPS steps, and what it has then is still a basis of the same
    lattice.
    """
    n = len(R)
    b = [col[:] for col in R]  # columns of the reduced R
    u = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]  # columns of U
    ui = [col[:] for col in u]  # rows of U^-1
    changed = False

    def size_reduce(k, j):
        nonlocal changed
        mu = b[k][j] / b[j][j]
        if abs(mu) > 0.5:
            m = math.floor(mu + 0.5)
            b[k] = [x - m * y for x, y in zip(b[k], b[j])]
            u[k] = [x - m * y for x, y in zip(u[k], u[j])]
            ui[j] = [x + m * y for x, y in zip(ui[j], ui[k])]
            changed = True

    k = 1
    for _ in range(_LLL_MAX_STEPS):
        if k >= n:
            break
        size_reduce(k, k - 1)
        x, y = b[k][k - 1], b[k][k]
        if _LLL_DELTA * b[k - 1][k - 1] ** 2 <= x * x + y * y:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        u[k - 1], u[k] = u[k], u[k - 1]
        ui[k - 1], ui[k] = ui[k], ui[k - 1]
        h = math.hypot(x, y)
        c, s = x / h, y / h
        for col in b[k - 1:]:
            col[k - 1], col[k] = (c * col[k - 1] + s * col[k],
                                  s * col[k - 1] - c * col[k])
        b[k - 1][k] = 0.0
        changed = True
        k = max(k - 1, 1)
    if not changed:
        return None
    # the search rounds offsets d with |d_i| <= n max|U^-1| / 2 + 1.5^n (the
    # real solve plus the drift of nearest plane from it on a size-reduced
    # basis) and maps them through U in int64: under these bounds d is in
    # the domain of round_half_up and no partial sum overflows
    big_u = n * max(map(abs, itertools.chain(*u)))
    big_ui = n * max(map(abs, itertools.chain(*ui))) / 2 + 1.5 ** n
    if big_ui >= 2.0 ** 52 or big_u * big_ui >= 2.0 ** 62:
        return None
    return np.array(u, dtype=np.int64)


def _target_values(V: GeneratorMatrix, X):
    """X checked as one target (shape (n,)) or a batch (shape (k, n)): the
    float array, and its values per coordinate, floats for one target and
    columns for a batch."""
    X = np.asarray(X, dtype=float)
    _require(X.ndim in (1, 2) and X.shape[-1] == V.n, ValueError,
             "target dimension mismatch")
    x = X.tolist() if X.ndim == 1 else list(X.T)
    _require(all(map(math.isfinite, x)) if X.ndim == 1
             else np.isfinite(X).all(), ValueError, "target must be finite")
    return X, x


def _nearest_plane_levels(C, Y):
    """Nearest-plane recursion on the upper-triangular R whose columns are
    the lists C.  Y[i] is level i, in R's frame, of the targets: a float for
    one target, a 1-D array for a batch, updated in place.  Returns the
    coefficients per level and leaves in Y[i] level i's real coefficient
    just before it was rounded.  Every target takes the same float
    operations in the same order, alone or in a batch."""
    B = [0] * len(Y)
    for i in range(len(Y) - 1, -1, -1):
        c = C[i]
        Y[i] /= c[i]
        b = B[i] = round_half_up(Y[i])
        for j in range(i):
            if c[j]:  # a zero entry's +-0.0 leaves Y[j] (never -0.0) as is
                Y[j] -= c[j] * b
    return B


def _sphere_leaves(R, Z, h, P):
    """Offsets e from each target's nearest-plane start b that may put
    R (b + e) at least as close to it as b is.

    Column j of Z holds target j's residual after the start, per level in
    coefficient units, and h its error bound; P is the prefix sum over
    levels of R_ii^2 (|Z_i| + h_i)^2.  Breadth-first from level n-1 down,
    each node spawns every e_i within what is left of P, counted as the
    change from the start path, which is exactly 0 along it.  Yields (row,
    E) slices of leaves grouped by row in ascending order; a level whose
    children would pass _CVP_BLOCK_NODES is expanded in slices of rows.
    """
    diag = R.diagonal()
    unit = R / diag[:, None]

    def descend(i, rows, E, S):
        while len(rows):
            # e_i is centred on c, the start's residual less the shift that
            # the offsets above i cause; u = c - e_i is its new residual
            g = E[:, i + 1:] @ unit[i, i + 1:]
            z = Z[i, rows]
            c = z - g
            w = np.sqrt(np.maximum(P[i, rows] - S, 0.0)) / diag[i] + h[i, rows]
            lo = np.ceil(c - w)
            count = (np.floor(c + w) - lo + 1).astype(np.int64)  # w > 0
            before = count.cumsum() - count
            if count.sum() > _CVP_BLOCK_NODES:
                first = np.flatnonzero(np.diff(rows, prepend=-1))
                cuts = first[np.diff(before[first] // _CVP_BLOCK_NODES, prepend=0) != 0]
                if len(cuts):
                    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(rows)]):
                        yield from descend(i, rows[a:b], E[a:b], S[a:b])
                    return
            node = np.repeat(np.arange(len(rows)), count)
            e = (lo - before)[node] + np.arange(len(node))
            rows, E = rows[node], E[node]
            E[:, i] = e
            if i == 0:
                yield rows, E
                return
            # R_ii^2 (u^2 - z^2) = R_ii^2 d (d - 2 z) for d = z - u, less
            # what an error of h_i in z could hide
            d = g[node] + e
            t = d * (d - 2.0 * z[node]) - 2.0 * h[i, rows] * np.abs(d)
            S = S[node] + diag[i] ** 2 * t
            i -= 1

    k, n = Z.shape[1], len(R)
    yield from descend(n - 1, np.arange(k), np.zeros((k, n)), np.zeros(k))


def cvp_bruteforce_batch(V: GeneratorMatrix, X):
    """Exact closest-vector solve for one target (shape (n,)) or each row of
    X (shape (k, n)), for n <= MAX_CVP_DIM.

    The search runs on an LLL-reduced basis W = V U of the same lattice
    (Lenstra-Lenstra-Lovasz; the preprocessing of Agrell et al., IEEE
    Trans. IT 48(8), 2002), in W's QR frame W = Q R, so its cost does not
    depend on how skewed V is.  Each row starts at the nearest-plane point
    of W (Babai), from the same level loop as `nearest_plane`, run on the
    row's residual from C0, its rounded real solve in V's coefficients,
    which only keeps the integers small.  That start lies within
    sqrt(sum R_ii^2) / 2 of the target, and the sphere search
    (Fincke-Pohst) around it keeps every point at least as close, with a
    float slack for each level from that level's own terms.  A row whose
    start path spawns no second child at any level is its own unique
    answer and is not searched.  Every candidate is mapped back through U
    to its offset e from the start in V's coefficients and compared with
    the start by ||V e||^2 - 2 <x - V u_start, V e>, which keeps the
    relative precision of the offset rather than of the whole distance;
    each row keeps its least, and only where several candidates share it
    exactly does the lexicographically smallest coefficient vector (in V's
    coefficients) win.
    """
    _require(V.n <= MAX_CVP_DIM, UnsupportedDimensionError,
             f"exhaustive CVP supports n <= {MAX_CVP_DIM}")
    X, _ = _target_values(V, X)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    Q, R, Ut = V._search_frame()
    diag = R.diagonal()
    C0 = round_half_up(X @ V.inverse().T)
    R0 = X - C0.astype(float) @ V.matrix.T
    Y = Q.T @ R0.T
    B = np.array(_nearest_plane_levels(R.T.tolist(), list(Y)))
    Z = Y - B
    D0 = B.T @ Ut
    best_u = C0 + D0
    # error bound of each level's residual from the magnitude of its terms
    h = _CVP_SLACK * (1.0 + (np.abs(Q).T @ np.abs(R0).T
                             + np.abs(np.triu(R, 1)) @ np.abs(B)) / diag[:, None])
    A = np.abs(Z) + h
    # the prefix sums over levels, one in-place row add per level: the same
    # additions, in the same order, as a cumsum along axis 0, which numpy
    # runs one column at a time
    P = (diag[:, None] * A) ** 2
    for i in range(1, len(P)):
        P[i] += P[i - 1]
    # along the start path, the search spawns a second child at level i
    # only where |z_i| + h_i + sqrt(P_i) / R_ii reaches the next integer;
    # where no level does, the start is the only leaf and the answer
    rest = np.flatnonzero((A + np.sqrt(P) / diag[:, None] >= 1.0).any(axis=0))
    # each target relative to its start, in V's frame
    T = R0[rest] - D0[rest].astype(float) @ V.matrix.T
    for rows, E in _sphere_leaves(R, Z[:, rest], h[:, rest], P[:, rest]):
        D = E.astype(np.int64) @ Ut
        VE = D.astype(float) @ V.matrix.T
        f = np.einsum("ij,ij->i", VE, VE - 2.0 * T[rows])
        new_row = np.diff(rows, prepend=-1) != 0
        group = np.cumsum(new_row) - 1
        keep = f == np.minimum.reduceat(f, np.flatnonzero(new_row))[group]
        rows, group = rest[rows[keep]], group[keep]
        U = best_u[rows] + D[keep]
        tied = np.bincount(group)[group] > 1
        best_u[rows[~tied]] = U[~tied]
        if tied.any():
            rows, U = rows[tied], U[tied]
            order = np.lexsort((*U.T[::-1], rows))
            first = order[np.diff(rows[order], prepend=-1) != 0]
            best_u[rows[first]] = U[first]
    return best_u[0] if single else best_u
