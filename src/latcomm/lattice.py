"""Lattice bases: generator matrices, QR frame, 2D reduction, exact CVP.

A lattice is the integer span of the columns of a full-rank generator matrix
V.  Everything downstream (nearest-plane rounding, cell geometry, distributed
protocols) consumes the types defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Bases whose determinant is smaller than this fraction of the column-norm
# product are rejected as numerically degenerate.
NEAR_SINGULAR_RTOL = 1e-9

# Supported magnitudes: every squared column norm and |det| must be a normal
# float, with 2^16 of headroom for the squared lengths of the 2D Voronoi
# search (at most 144 times the longest basis vector's).
_MAGNITUDE_LO = float(np.finfo(float).tiny)
_MAGNITUDE_HI = float(np.finfo(float).max) / 2.0 ** 16
_MAGNITUDE_ERROR = (
    "basis magnitude out of range: squared column norms and |det| must lie "
    f"in [{_MAGNITUDE_LO:.3g}, {_MAGNITUDE_HI:.3g}]")

# Largest dimension of the exact CVP search, whose node count grows
# exponentially with n; n <= 6 has a timed test.
MAX_CVP_DIM = 6
# CVP target rows are searched in blocks of about this many nodes.
_CVP_BLOCK_NODES = 1 << 16
# Relative slack on the CVP search radius and, in coefficient units, on each
# level's half-width, so that float rounding drops no candidate.
_CVP_SLACK = 1e-9


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
        _require(isinstance(n, int) and isinstance(cols, list) and len(cols) == n,
                 ValueError, 'matrix JSON: "columns" must list n columns')
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

    def column(self, j):
        return self.matrix[:, j].copy()

    def is_upper_triangular(self):
        """True iff every entry below the diagonal is exactly zero."""
        if self._upper is None:
            self._upper = not np.tril(self.matrix, -1).any()
        return self._upper

    def scaled(self, c):
        """Generator of the scaled lattice c * Lambda (c a nonzero number).

        Exact entries stay exact: the scale is taken as the float c, which
        converts to a Fraction losslessly, so the table and the float matrix
        describe the same lattice.
        """
        cf = float(c)
        _require(cf != 0.0 and math.isfinite(cf), ValueError, "bad scale")
        rat = None
        if self.rational is not None:
            cr = Fraction(cf)
            rat = [[None if f is None else f * cr for f in row]
                   for row in self.rational]
        return GeneratorMatrix(self.matrix * cf, rat)

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
            signs = np.where(np.diag(R) < 0, -1.0, 1.0)
            self._qr = Q * signs, R * signs[:, None]
            for a in self._qr:
                a.setflags(write=False)
        return self._qr

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
    iff 2z >= 2 floor(z) + 1; for |z| < 2^52 both sides are exact doubles,
    so a value just below a tie is never misrounded.  Non-finite values
    and |z| >= 2^52 raise ValueError.
    """
    a = np.asarray(z, dtype=float)
    ok = np.abs(a) < ROUND_LIMIT  # False for nan and inf too
    if np.count_nonzero(ok) < a.size:
        bad = float(a[~ok].flat[0]) if a.ndim else float(a)
        raise ValueError(f"cannot round {bad!r}: need a finite |z| < 2**52")
    fl = np.floor(a)
    r = (fl + (a + a >= fl + fl + 1.0)).astype(np.int64)
    return int(r) if r.ndim == 0 else r


def _norm_sq(v):
    return float(v @ v)


def gauss_reduce_2d(V: GeneratorMatrix):
    """Lagrange-Gauss reduction of a 2D basis.

    Returns (W, U) with W = V U, U integer and |det U| = 1, W.column(0) a
    shortest vector, and 0 <= 2 <w1, w2> <= ||w1||^2 after the final sign
    canonicalization.  The interchange/translation loop stops as soon as a
    step no longer strictly shortens the longer vector, so a strictly reduced
    basis is returned unchanged; at exact ties (equal norms, half-integer
    Gram ratio) float rounding picks one of the equivalent reduced outputs.
    """
    _require(V.n == 2, UnsupportedDimensionError, "2D reduction needs n = 2")
    v1 = V.column(0)
    v2 = V.column(1)
    U = np.eye(2, dtype=np.int64)
    for _ in range(10000):
        if _norm_sq(v1) > _norm_sq(v2):
            v1, v2 = v2, v1
            U = U[:, ::-1].copy()
        mcoef = round_half_up(float(v1 @ v2) / _norm_sq(v1))
        if mcoef == 0:
            break
        w = v2 - mcoef * v1
        if _norm_sq(w) >= _norm_sq(v2):
            break
        v2 = w
        U[:, 1] -= mcoef * U[:, 0]
    else:  # pragma: no cover - loop always terminates by norm descent
        raise RuntimeError("reduction did not terminate")
    if float(v1 @ v2) < 0:
        v2 = -v2
        U[:, 1] = -U[:, 1]
    W = GeneratorMatrix(np.column_stack([v1, v2]))
    return W, U


def is_minkowski_reduced_2d(V: GeneratorMatrix) -> bool:
    """Check ||v1|| <= ||v2|| and 2|<v1,v2>| <= ||v1||^2, up to a relative
    1e-12 of ||v1||^2.  Equivalent to ||v1|| <= ||v2|| <= ||v1 +- v2||."""
    _require(V.n == 2, UnsupportedDimensionError, "2D check needs n = 2")
    v1 = V.column(0)
    v2 = V.column(1)
    a = _norm_sq(v1)
    tol = 1e-12 * a
    return a <= _norm_sq(v2) + tol and 2 * abs(float(v1 @ v2)) <= a + tol


@dataclass(frozen=True)
class ReducedBasis2D:
    """Canonical form {(1,0), (a,b)} of a reduced 2D basis, up to isometry
    and uniform scale: 0 <= a <= 1/2, b >= sqrt(3)/2, a^2 + b^2 >= 1."""

    a: float
    b: float

    def __post_init__(self):
        _require(0.0 <= self.a <= 0.5, ValueError, f"a out of range: {self.a}")
        _require(self.b >= math.sqrt(3) / 2 - 1e-12, ValueError,
                 f"b out of range: {self.b}")
        _require(self.a ** 2 + self.b ** 2 >= 1 - 1e-12, ValueError,
                 f"(a,b) inside the unit circle: ({self.a}, {self.b})")

    def matrix(self) -> GeneratorMatrix:
        return GeneratorMatrix(np.array([[1.0, self.a], [0.0, self.b]]))


def canonicalize_2d(V: GeneratorMatrix):
    """Reduce a 2D basis and normalize it to the canonical {(1,0),(a,b)} form.

    Returns (ReducedBasis2D, scale, isometry): V @ U = isometry @ (scale * [[1,a],[0,b]])
    for the unimodular U produced by reduction.
    """
    W, _ = gauss_reduce_2d(V)
    Q, r = W.qr()
    scale = float(r[0, 0])
    a = float(r[0, 1]) / scale
    b = float(r[1, 1]) / scale
    if abs(a) <= 1e-9:
        a = 0.0
    if 0.5 < a <= 0.5 + 1e-9:
        a = 0.5
    return ReducedBasis2D(a=a, b=b), scale, Q


def _sphere_leaves(R, T, r2):
    """Row index and offset o of every integer o with ||t - R o||^2 <= r2,
    for each row t of T: breadth-first over the levels of R from n-1 down
    to 0, each node spawning every o_i within its level's remaining radius.
    """
    k, n = T.shape
    rows = np.arange(k)
    O = np.zeros((k, n))
    rem = r2
    for i in range(n - 1, -1, -1):
        c = (T[rows, i] - O[:, i + 1:] @ R[i, i + 1:]) / R[i, i]
        w = np.sqrt(np.maximum(rem, 0.0)) / R[i, i] + _CVP_SLACK
        lo = np.ceil(c - w)
        count = np.maximum(np.floor(c + w) - lo + 1, 0).astype(np.int64)
        node = np.repeat(np.arange(len(rows)), count)
        o_i = (lo + count - count.cumsum())[node] + np.arange(len(node))
        rows, O = rows[node], O[node]
        O[:, i] = o_i
        rem = rem[node] - (R[i, i] * (c[node] - o_i)) ** 2
    return rows, O


def cvp_bruteforce_batch(V: GeneratorMatrix, X):
    """Exact closest-vector solve for one target (shape (n,)) or each row of
    X (shape (k, n)), for n <= MAX_CVP_DIM.

    A sphere search (Fincke-Pohst) in the QR frame, whose radius is the
    distance to the rounded real solve, finds every coefficient vector at
    least as close; they are compared in the original frame, and ties go to
    the lexicographically smallest.  Rows are searched in blocks of about
    _CVP_BLOCK_NODES nodes.
    """
    _require(V.n <= MAX_CVP_DIM, UnsupportedDimensionError,
             f"exhaustive CVP supports n <= {MAX_CVP_DIM}")
    X = np.asarray(X, dtype=float)
    _require(X.ndim in (1, 2) and X.shape[-1] == V.n, ValueError,
             "target dimension mismatch")
    single = X.ndim == 1
    X = np.atleast_2d(X)
    _require(np.all(np.isfinite(X)), ValueError, "target must be finite")
    Q, R = V.qr()
    C0 = round_half_up(X @ V.inverse().T)
    R0 = X - C0.astype(float) @ V.matrix.T
    r2 = np.einsum("ij,ij->i", R0, R0) * (1.0 + _CVP_SLACK)
    # level i gives a node at most 2 reach_i + 1 children
    reach = np.sqrt(r2)[:, None] / np.diag(R) + _CVP_SLACK
    nodes = np.cumsum(np.prod(2.0 * reach + 1.0, axis=1)) // _CVP_BLOCK_NODES
    best_u = np.zeros(X.shape, dtype=np.int64)
    cuts = np.flatnonzero(np.diff(nodes)) + 1
    for block in np.split(np.arange(len(X)), cuts):
        rows, O = _sphere_leaves(R, R0[block] @ Q, r2[block])
        U = C0[block][rows] + O.astype(np.int64)
        D = X[block][rows] - U.astype(float) @ V.matrix.T
        d = np.einsum("ij,ij->i", D, D)
        order = np.lexsort((*U.T[::-1], d, rows))
        best_u[block] = U[order[np.diff(rows[order], prepend=-1) != 0]]
    return best_u[0] if single else best_u
