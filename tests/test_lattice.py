import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcomm import (
    DegenerateBasisError,
    GeneratorMatrix,
    ReducedBasis2D,
    UnsupportedDimensionError,
    canonicalize_2d,
    cvp_bruteforce_batch,
    gauss_reduce_2d,
    is_minkowski_reduced_2d,
    nearest_plane,
    round_half_up,
)


class TestRoundHalfUp:
    def test_ties_go_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(-0.5) == 0
        assert round_half_up(-1.5) == -1
        assert round_half_up(2.5) == 3

    def test_plain_values(self):
        assert round_half_up(0.49) == 0
        assert round_half_up(-0.51) == -1
        assert round_half_up(7.2) == 7
        assert round_half_up(-7.2) == -7
        assert round_half_up(0.0) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            round_half_up(float("nan"))
        with pytest.raises(ValueError):
            round_half_up(float("inf"))
        with pytest.raises(ValueError):
            round_half_up(np.array([0.5, float("-inf")]))

    def test_rejects_beyond_2_52(self):
        # at 2^52 the float rule would round the integer up to 2^52 + 1
        for z in (2.0 ** 52, -(2.0 ** 52), 1e20):
            with pytest.raises(ValueError, match="2\\*\\*52"):
                round_half_up(z)
            with pytest.raises(ValueError, match="2\\*\\*52"):
                round_half_up(np.array([0.0, z]))

    def test_array_input(self):
        z = np.array([[0.5, -0.5], [-1.5, 2.49]])
        r = round_half_up(z)
        assert r.dtype == np.int64 and r.tolist() == [[1, 0], [-1, 2]]
        assert isinstance(round_half_up(np.float64(2.5)), int)

    @given(st.floats(min_value=-(2.0 ** 52), max_value=2.0 ** 52,
                     exclude_min=True, exclude_max=True))
    @example(2.0 ** 52 - 0.5)  # the largest ties
    @example(2.0 ** 52 - 1.5)
    @example(-(2.0 ** 52 - 0.5))
    @example(-(2.0 ** 52 - 1.5))
    def test_exact_up_to_2_52(self, z):
        expected = math.floor(Fraction(z) + Fraction(1, 2))
        assert round_half_up(z) == expected
        assert round_half_up(np.array([z])).tolist() == [expected]

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_nearest_integer(self, z):
        r = round_half_up(z)
        assert isinstance(r, int)
        assert abs(r - z) <= 0.5

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_exact_half_boundary(self, k):
        assert round_half_up(k + 0.5) == k + 1
        assert round_half_up(k - 0.5) == k


class TestGeneratorMatrix:
    def test_entry_parsing(self):
        V = GeneratorMatrix.from_columns([[1, 0], ["1/2", 0.25]])
        assert V.rational[0][1] == Fraction(1, 2)
        assert V.rational[0][0] == 1
        assert V.rational[1][1] is None  # plain float stays inexact
        assert V.matrix[0, 1] == 0.5

    def test_bool_entry_rejected(self):
        with pytest.raises(ValueError):
            GeneratorMatrix.from_columns([[True, 0], [0, 1]])

    def test_bad_rational_string(self):
        with pytest.raises(ValueError):
            GeneratorMatrix.from_columns([["1/0", 0], [0, 1]])
        with pytest.raises(ValueError):
            GeneratorMatrix.from_columns([["abc", 0], [0, 1]])

    def test_nonsquare_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            GeneratorMatrix(np.ones((2, 3)))
        with pytest.raises(UnsupportedDimensionError):
            GeneratorMatrix.from_columns([[1, 0, 0], [0, 1, 0]])

    def test_zero_column_rejected(self):
        with pytest.raises(DegenerateBasisError):
            GeneratorMatrix.from_columns([[0, 0], [0, 1]])

    def test_singular_rejected(self):
        with pytest.raises(DegenerateBasisError):
            GeneratorMatrix.from_columns([[1, 2], [2, 4]])

    def test_near_singular_rejected(self):
        # angle ~1e-12 rad between the columns
        with pytest.raises(DegenerateBasisError):
            GeneratorMatrix(np.array([[1.0, 1.0], [0.0, 1e-12]]))

    def test_near_singular_test_cannot_overflow(self):
        # the column-norm product overflows at this scale; the first basis
        # has |det| / prod ||v_j|| = 1e-6 and |det| = 1e303, both in range
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 1.0]])
        assert GeneratorMatrix(M * 1e103).det == pytest.approx(1e303,
                                                               rel=1e-12)
        M[1, 1] = 1e-12
        with pytest.raises(DegenerateBasisError, match="near-singular"):
            GeneratorMatrix(M * 1e103)

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                GeneratorMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_magnitude_domain(self):
        # squared norms or |det| that are not normal floats, or leave no
        # headroom for the Voronoi search, are rejected by name; a column
        # of subnormal entries is not mistaken for a zero vector
        C = np.array([[1.0, 0.3], [0.2, 1.1]])
        for M in (C * 1e-160, C * 1e160, C * 1e-155, C * 1e154,
                  np.array([[1e-320, 0.0], [0.0, 1.0]]),
                  np.array([[1e155, 0.0], [0.0, 1e-155]]),
                  np.eye(3) * 1e-110, np.eye(3) * 1e110):
            with pytest.raises(ValueError, match="magnitude out of range"):
                GeneratorMatrix(M)
        for k in (-150, -100, 100, 150):
            V = GeneratorMatrix(C * 10.0 ** k)
            assert V.det == pytest.approx(1.04 * 10.0 ** (2 * k), rel=1e-12)

    def test_rational_float_consistency_enforced(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[1.0, 0.4], [0.0, 1.0]]),
                            rational=((None, Fraction(1, 2)), (None, None)))

    def test_rational_table_checked_relative_to_entry(self):
        # 3/10^20 is within 2.2e-16 of the entry 1e-20 but far from it in
        # the entry's ulps; such a table makes the centralized decode
        # disagree with nearest_plane
        with pytest.raises(ValueError, match="disagrees"):
            GeneratorMatrix([[1e-20, 1e-20], [0.0, 1e-20]],
                            rational=[[Fraction(1, 10 ** 20),
                                       Fraction(3, 10 ** 20)],
                                      [None, Fraction(1, 10 ** 20)]])

    def test_scaled_rational_tables_accepted(self, hexagonal, ratio311):
        # the table entry f * c is exact and the float m * c within an ulp
        # of it, for scales c that are not powers of two, given as floats or
        # as non-dyadic fractions, across the supported range
        cubic = GeneratorMatrix.from_columns(
            [[2, 0, 0], ["1/3", "5/7", 0], ["-2/9", "11/13", "3/17"]])
        rng = np.random.default_rng(7)
        for i in range(2000):
            p, q = (2 * int(k) + 1 for k in rng.integers(1, 10 ** 6, 2))
            c = Fraction(p, q) * Fraction(2) ** int(rng.integers(-300, 301))
            if i % 2:
                c = float(c)
            for V in (hexagonal, ratio311, cubic):
                assert V.scaled(c).rational is not None

    def test_matrix_read_only(self):
        V = GeneratorMatrix.from_columns([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            V.matrix[0, 0] = 2.0

    def test_det_and_norms(self, hexagonal):
        assert hexagonal.det == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert np.linalg.norm(hexagonal.matrix, axis=0) == pytest.approx(
            [1.0, 1.0])

    def test_json_roundtrip(self, ratio311):
        blob = json.dumps(ratio311.to_json())
        back = GeneratorMatrix.from_json(json.loads(blob))
        assert back.rational == ratio311.rational
        assert np.array_equal(back.matrix, ratio311.matrix)

    def test_json_integer_entries_stay_integers(self):
        V = GeneratorMatrix.from_columns([[5, 0], [3, 1]])
        assert V.to_json() == {"n": 2, "columns": [[5, 0], [3, 1]]}

    def test_from_json_validation(self):
        with pytest.raises(ValueError):
            GeneratorMatrix.from_json({"columns": [[1, 0], [0, 1]]})
        with pytest.raises(ValueError):
            GeneratorMatrix.from_json({"n": 3, "columns": [[1, 0], [0, 1]]})
        with pytest.raises(ValueError):
            GeneratorMatrix.from_json([1, 2])

    def test_is_upper_triangular(self, hexagonal, skew5):
        assert hexagonal.is_upper_triangular()
        assert skew5.is_upper_triangular()
        assert not GeneratorMatrix.from_columns(
            [[1, 0.5], [0, 1]]).is_upper_triangular()

    def test_scaled_exact(self, hexagonal):
        W = hexagonal.scaled(2.0 ** -10)
        assert W.rational[0][1] == Fraction(1, 2048)
        assert W.rational[1][1] is None
        assert W.matrix[1, 1] == pytest.approx(
            math.sqrt(3) / 2 * 2.0 ** -10, abs=1e-20)
        with pytest.raises(ValueError):
            hexagonal.scaled(0.0)

    def test_column_copy(self, hexagonal):
        c = hexagonal.column(0)
        c[0] = 99.0
        assert hexagonal.matrix[0, 0] == 1.0


class TestFactorizations:
    @staticmethod
    def _check_qr(V):
        Q, R = V.qr()
        assert np.allclose(Q @ Q.T, np.eye(V.n), atol=1e-12)
        assert np.allclose(Q @ R, V.matrix, atol=1e-12)
        assert np.array_equal(np.triu(R), R) and np.all(np.diag(R) > 0)
        return Q, R

    def test_qr_frame_skew5(self, skew5):
        _, R = self._check_qr(skew5)
        assert np.diag(R) ** 2 == pytest.approx([25.0, 1.0])

    def test_qr_frame_hexagonal(self, hexagonal):
        _, R = self._check_qr(hexagonal)
        assert np.diag(R) ** 2 == pytest.approx([1.0, 0.75])

    def test_qr_frame_rotated(self):
        V = GeneratorMatrix.from_columns([[3, 4], [1, 2]])
        _, R = self._check_qr(V)
        assert np.diag(R) ** 2 == pytest.approx([25.0, 4.0 / 25.0])

    def test_qr_cached_read_only(self, skew5):
        Q, R = skew5.qr()
        assert skew5.qr()[0] is Q and skew5.qr()[1] is R
        with pytest.raises(ValueError):
            R[0, 0] = 1.0

    def test_qr_positive_diagonal(self):
        V = GeneratorMatrix.from_columns([[-2, 0], [1, -3]])
        Q, R = self._check_qr(V)
        # upper triangular: a sign flip, exact
        assert np.array_equal(Q, -np.eye(2))
        assert np.array_equal(R, -V.matrix)
        assert abs(R[1, 0]) == 0.0


class TestGaussReduction:
    def test_reduces_skewed_basis(self, skew5):
        W, U = gauss_reduce_2d(skew5)
        assert is_minkowski_reduced_2d(W)
        assert abs(round(np.linalg.det(U))) == 1
        assert np.allclose(skew5.matrix @ U, W.matrix)
        assert np.linalg.norm(W.matrix, axis=0) == pytest.approx(
            [math.sqrt(5), math.sqrt(5)])

    def test_strictly_reduced_unchanged(self):
        V = GeneratorMatrix.from_columns([[1, 0], [0.3, 1.2]])
        W, U = gauss_reduce_2d(V)
        assert np.array_equal(U, np.eye(2, dtype=np.int64))
        assert np.array_equal(W.matrix, V.matrix)

    def test_tied_hexagonal_stays_reduced(self, hexagonal):
        # norms tie at 1 up to float noise; any reduced representative of
        # the same lattice is acceptable
        W, U = gauss_reduce_2d(hexagonal)
        assert is_minkowski_reduced_2d(W)
        assert abs(round(np.linalg.det(U))) == 1
        assert np.allclose(hexagonal.matrix @ U, W.matrix, atol=1e-12)

    def test_needs_2d(self):
        V3 = GeneratorMatrix.from_columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(UnsupportedDimensionError):
            gauss_reduce_2d(V3)

    def test_reduced_check_is_two_sided(self):
        # <v1,v2> = 0.6 so 2|<v1,v2>| = 1.2 > ||v1||^2 = 1: not reduced
        assert not is_minkowski_reduced_2d(
            GeneratorMatrix.from_columns([[1, 0], [0.6, 1]]))
        # negative inner product of the same size: equally not reduced
        assert not is_minkowski_reduced_2d(
            GeneratorMatrix.from_columns([[1, 0], [-0.6, 1]]))
        assert is_minkowski_reduced_2d(
            GeneratorMatrix.from_columns([[1, 0], [-0.4, 1]]))

    def test_reduced_check_is_scale_free(self):
        for s in (1e-7, 1.0, 1e7):
            assert not is_minkowski_reduced_2d(
                GeneratorMatrix(np.array([[5.0, 3.0], [0.0, 1.0]]) * s))
            assert is_minkowski_reduced_2d(
                GeneratorMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]) * s))

    @given(st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9))
    def test_random_integer_bases(self, a, b, c, d):
        if a * d - b * c == 0 or (a == 0 and b == 0) or (c == 0 and d == 0):
            return
        V = GeneratorMatrix.from_columns([[a, b], [c, d]])
        W, U = gauss_reduce_2d(V)
        assert is_minkowski_reduced_2d(W)
        assert abs(round(np.linalg.det(U))) == 1
        assert np.allclose(V.matrix @ U, W.matrix, atol=1e-9)
        # shortest vector comes first and the inner product is canonicalized
        n1, n2 = np.linalg.norm(W.matrix, axis=0)
        assert n1 <= n2 + 1e-12
        assert float(W.column(0) @ W.column(1)) >= -1e-12


class TestCanonicalize:
    def test_rectangular_case(self, skew5):
        rb, scale, Q = canonicalize_2d(skew5)
        assert rb.a == 0.0  # float noise of either sign snaps to zero
        assert rb.b == pytest.approx(1.0, abs=1e-12)
        assert scale == pytest.approx(math.sqrt(5))

    def test_hexagonal_case(self, hexagonal):
        rb, scale, _ = canonicalize_2d(hexagonal)
        assert rb.a == pytest.approx(0.5, abs=1e-12)
        assert rb.b == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert scale == pytest.approx(1.0)

    def test_identity(self):
        rb, scale, _ = canonicalize_2d(GeneratorMatrix.from_columns(
            [[1, 0], [0, 1]]))
        assert (rb.a, rb.b) == (0.0, 1.0)
        assert scale == 1.0

    def test_reconstruction(self, skew5):
        W, _ = gauss_reduce_2d(skew5)
        rb, scale, Q = canonicalize_2d(skew5)
        target = Q @ (scale * np.array([[1.0, rb.a], [0.0, rb.b]]))
        assert np.allclose(W.matrix, target, atol=1e-9)

    @given(st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9))
    def test_random_bases_land_in_domain(self, a, b, c, d):
        if abs(a * d - b * c) < 1:
            return
        rb, scale, _ = canonicalize_2d(
            GeneratorMatrix.from_columns([[a, b], [c, d]]))
        assert 0.0 <= rb.a <= 0.5
        assert rb.b >= math.sqrt(3) / 2 - 1e-9
        assert rb.a ** 2 + rb.b ** 2 >= 1 - 1e-9
        assert scale > 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ReducedBasis2D(-0.1, 1.0)
        with pytest.raises(ValueError):
            ReducedBasis2D(0.6, 1.0)
        with pytest.raises(ValueError):
            ReducedBasis2D(0.5, 0.5)
        with pytest.raises(ValueError):
            ReducedBasis2D(0.1, 0.9)  # inside the unit circle
        rb = ReducedBasis2D(0.5, math.sqrt(3) / 2)
        assert rb.matrix().det == pytest.approx(math.sqrt(3) / 2)


def _exhaustive_cvp(V, x, radius=6):
    span = np.arange(-radius, radius + 1)
    ii, jj = np.meshgrid(span, span, indexing="ij")
    coeffs = np.column_stack([ii.ravel(), jj.ravel()]).astype(float)
    pts = coeffs @ V.matrix.T
    d = np.linalg.norm(pts - np.asarray(x, dtype=float), axis=1)
    k = int(np.argmin(d))
    return float(d[k]), tuple(int(c) for c in coeffs[k])


def _box_cvp(M, x):
    """Exact CVP by a provably complete box: with d0 the distance to the
    rounded real solve c, every u with ||x - M u|| <= d0 has
    |u_i - c_i| <= d0 ||row_i(M^-1)||.  Returns (d, u) for the
    lexicographically smallest minimiser."""
    Minv = np.linalg.inv(M)
    c = Minv @ x
    d0 = float(np.linalg.norm(x - M @ np.round(c)))
    rho = d0 * np.linalg.norm(Minv, axis=1) + 1e-9
    U = np.array(list(itertools.product(*[
        range(math.ceil(ci - ri), math.floor(ci + ri) + 1)
        for ci, ri in zip(c, rho)])), dtype=float)
    r = x - U @ M.T
    d = np.einsum("ij,ij->i", r, r)
    k = int(np.flatnonzero(d == d.min())[0])  # product order is lexicographic
    return float(d[k]), U[k].astype(np.int64)


@st.composite
def _dyadic_cvp_case(draw):
    """An upper-triangular 3D or 4D basis with entries k/8 (diagonal of
    either sign) and targets: midpoints of two lattice points, random
    multiples of 1/16 (on both, every float step of a distance is exact, so
    ties are exact ties) or random floats."""
    n = draw(st.sampled_from([3, 4]))
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = draw(st.integers(4, 12)) / 8 * draw(st.sampled_from([-1, 1]))
        for j in range(i + 1, n):
            M[i, j] = draw(st.integers(-4, 4)) / 8
    coord = st.integers(-3, 3)
    rows, exact = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["midpoint", "dyadic", "float"]))
        if kind == "midpoint":
            u = np.array([draw(coord) for _ in range(n)], dtype=float)
            w = np.array([draw(st.integers(-1, 1)) for _ in range(n)])
            rows.append(M @ (u + w / 2.0))
        elif kind == "dyadic":
            rows.append([draw(st.integers(-64, 64)) / 16 for _ in range(n)])
        else:
            rows.append([draw(st.floats(-4, 4)) for _ in range(n)])
        exact.append(kind != "float")
    return M, np.array(rows, dtype=float), exact


class TestCvp:
    @given(_dyadic_cvp_case())
    @settings(max_examples=150)
    def test_matches_complete_box(self, case):
        M, X, exact = case
        V = GeneratorMatrix(M)
        U = cvp_bruteforce_batch(V, X)
        for x, u, is_exact in zip(X, U, exact):
            d_ref, u_ref = _box_cvp(M, x)
            if is_exact:  # the tie rule: lexicographically smallest
                assert u.tolist() == u_ref.tolist()
            else:
                d = float(np.sum((x - M @ u) ** 2))
                assert d == pytest.approx(d_ref, rel=1e-12, abs=1e-12)
            assert cvp_bruteforce_batch(V, x).tolist() == u.tolist()

    def test_rotated_bases_match_complete_box(self):
        rng = np.random.default_rng(9)
        for n in (3, 4):
            for _ in range(20):
                R = (np.triu(rng.uniform(-0.8, 0.8, (n, n)), 1)
                     + np.diag(rng.uniform(0.6, 1.6, n)))
                M = np.linalg.qr(rng.normal(size=(n, n)))[0] @ R
                X = rng.uniform(-4, 4, size=(8, n))
                U = cvp_bruteforce_batch(GeneratorMatrix(M), X)
                for x, u in zip(X, U):
                    d_ref, _ = _box_cvp(M, x)
                    assert float(np.sum((x - M @ u) ** 2)) == pytest.approx(
                        d_ref, rel=1e-12, abs=1e-12)

    def test_memory_bounded_on_needle_basis(self):
        # an unreduced basis: about 100 candidates per target on the short
        # level, so the search must run in blocks of rows
        M = np.array([[1.0, 0.99], [0.0, 0.01]])
        V = GeneratorMatrix(M)
        X = np.random.default_rng(3).uniform(-0.5, 0.5, size=(65536, 2)) \
            * np.diag(M)
        tracemalloc.start()
        try:
            U = cvp_bruteforce_batch(V, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        for x, u in zip(X[:10], U[:10]):
            assert u.tolist() == _box_cvp(M, x)[1].tolist()

    def test_6d_batch_in_bounded_time(self):
        # a criterion-11 basis and far targets: a box around the rounded
        # real solve would need up to 9^6 offsets per target here
        rng = np.random.default_rng(0)
        n = 6
        R = (np.triu(rng.uniform(-0.8, 0.8, (n, n)), 1)
             + np.diag(rng.uniform(0.6, 1.6, n)))
        M = np.linalg.qr(rng.normal(size=(n, n)))[0] @ R
        V = GeneratorMatrix(M)
        X = rng.uniform(-4, 4, size=(4096, n))
        start = time.perf_counter()
        U = cvp_bruteforce_batch(V, X)
        assert time.perf_counter() - start < 5.0
        d = np.linalg.norm(X - U @ M.T, axis=1)
        d_np = np.linalg.norm(X - nearest_plane(V, X).point, axis=1)
        assert np.all(d <= d_np + 1e-9)
        for x, u in zip(X[:4], U[:4]):
            d_ref, _ = _box_cvp(M, x)
            assert float(np.sum((x - M @ u) ** 2)) == pytest.approx(
                d_ref, rel=1e-12, abs=1e-12)

    def test_target_shapes(self, hexagonal):
        for X in (1.0, np.zeros((2, 2, 2)), np.zeros(3), np.zeros((4, 3))):
            with pytest.raises(ValueError, match="target dimension mismatch"):
                cvp_bruteforce_batch(hexagonal, X)
        empty = cvp_bruteforce_batch(hexagonal, np.zeros((0, 2)))
        assert empty.shape == (0, 2) and empty.dtype == np.int64

    def test_known_points(self, hexagonal, skew5):
        assert tuple(cvp_bruteforce_batch(hexagonal, [0.9, 0.8])) == (0, 1)
        u = cvp_bruteforce_batch(skew5, [2.4, 0.0])
        assert tuple(u) == (1, -1)
        assert skew5.matrix @ u == pytest.approx([2.0, -1.0])

    def test_zero_target(self, hexagonal):
        assert tuple(cvp_bruteforce_batch(hexagonal, [0.0, 0.0])) == (0, 0)

    def test_lattice_point_target(self, skew5):
        p = skew5.matrix @ np.array([3.0, -2.0])
        assert tuple(cvp_bruteforce_batch(skew5, p)) == (3, -2)

    def test_dimension_guard(self):
        V = GeneratorMatrix(np.eye(7))
        with pytest.raises(UnsupportedDimensionError):
            cvp_bruteforce_batch(V, np.zeros(7))

    def test_non_finite_target(self, hexagonal):
        with pytest.raises(ValueError):
            cvp_bruteforce_batch(hexagonal, [float("nan"), 0.0])

    def test_coefficient_beyond_2_52_rejected(self, hexagonal):
        with pytest.raises(ValueError, match="2\\*\\*52"):
            cvp_bruteforce_batch(hexagonal, [1e20, 1.0])

    def test_batch_matches_scalar(self, hexagonal):
        rng = np.random.default_rng(11)
        X = rng.uniform(-4, 4, size=(64, 2))
        B = cvp_bruteforce_batch(hexagonal, X)
        for k in range(len(X)):
            assert tuple(B[k]) == tuple(cvp_bruteforce_batch(hexagonal, X[k]))

    @given(st.integers(0, 500))
    @settings(max_examples=60)
    def test_matches_exhaustive_search(self, case):
        rng = np.random.default_rng(case)
        while True:
            cols = rng.integers(-4, 5, size=(2, 2))
            if abs(np.linalg.det(cols)) >= 1:
                break
        V = GeneratorMatrix(cols.astype(float))
        x = rng.uniform(-3, 3, size=2)
        found = V.matrix @ cvp_bruteforce_batch(V, x)
        d_found = float(np.linalg.norm(found - x))
        d_best, _ = _exhaustive_cvp(V, x)
        assert d_found <= d_best + 1e-9

    def test_skewed_basis_beyond_unit_box(self):
        # closest point needs a coefficient offset of 2 relative to the
        # rounded real solution; the search around it must still reach it
        V = GeneratorMatrix(np.array([[1.0, 0.99], [0.0, 0.01]]))
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            found = V.matrix @ cvp_bruteforce_batch(V, x)
            d_found = float(np.linalg.norm(found - x))
            d_best, _ = _exhaustive_cvp(V, x, radius=120)
            assert d_found <= d_best + 1e-9
