import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latcomm.error_analysis
from latcomm import (
    GeneratorMatrix,
    ReducedBasis2D,
    UnsupportedDimensionError,
    VoronoiPolygon2D,
    analytic_pe,
    exact_pe_area,
    level_curve_points,
    monte_carlo_pe,
    third_relevant_vector,
    voronoi_polygon_general,
)
from latcomm.error_analysis import (
    PE_CSV_HEADER,
    format_csv_value,
    pe_csv_line,
    pe_row,
)

SQRT3_2 = math.sqrt(3) / 2


# Independent references that the package's constructions are checked
# against: the Voronoi vertices of a canonical basis as intersections of
# bisectors, and F(a, b) in polar form.

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
    return VoronoiPolygon2D(vertices=vertices,
                            relevant_vectors=np.array([w1, w2, w3]))


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


def _admissible(a, b):
    return (0.0 <= a <= 0.5 and b >= SQRT3_2 - 1e-12
            and a * a + b * b >= 1 - 1e-12)


admissible_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=SQRT3_2, max_value=3.0),
).filter(lambda ab: _admissible(*ab))


class TestAnalyticPe:
    def test_hexagonal_is_max(self):
        assert analytic_pe(0.5, SQRT3_2) == pytest.approx(1 / 12, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert analytic_pe(0.0, 1.0) == 0.0
        assert analytic_pe(0.0, 2.7) == 0.0

    def test_interior_value(self):
        # (0.3 - 0.09) / 4 = 0.0525
        assert analytic_pe(0.3, 1.0) == pytest.approx(0.0525, abs=1e-12)

    def test_no_overflow_for_long_b(self):
        # 4 b^2 overflows above b ~ 6.7e153; F(a, b) is still a positive
        # float, here subnormal, and F of the exact rationals rounded
        assert analytic_pe(0.25, 1e160) > 0
        a, b = Fraction(0.25), Fraction(1e160)
        assert analytic_pe(0.25, 1e160) == float((a - a * a) / (4 * b * b))
        # below the overflow the quotient is the one-step one, as before
        assert analytic_pe(0.3, 1e120) == (0.3 - 0.3 * 0.3) / (4.0 * 1e120
                                                               * 1e120)

    def test_domain_enforced(self):
        inf, nan = math.inf, math.nan
        for a, b in [(-0.1, 1.0), (0.6, 1.0), (0.5, 0.5), (0.1, 0.9),
                     (0.25, inf), (0.25, nan), (nan, 1.0), (inf, inf)]:
            with pytest.raises(ValueError):
                analytic_pe(a, b)

    @given(admissible_pairs)
    def test_within_bound(self, ab):
        a, b = ab
        pe = analytic_pe(a, b)
        assert 0.0 <= pe <= 1 / 12 + 1e-12


class TestPolarForm:
    def test_hexagonal_polar(self):
        assert analytic_pe_polar(2 * math.pi / 3, 1.0) == pytest.approx(
            1 / 12, abs=1e-12)

    def test_right_angle_is_zero(self):
        assert analytic_pe_polar(math.pi / 2, 1.3) == pytest.approx(
            0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic_pe_polar(math.pi / 4, 2.0)  # angle too sharp
        with pytest.raises(ValueError):
            analytic_pe_polar(math.pi / 2, 0.5)  # second vector too short
        with pytest.raises(ValueError):
            # rho |cos theta| > 1/2: translation step would shorten v2
            analytic_pe_polar(1.15, 2.0)

    @given(admissible_pairs)
    def test_agrees_with_cartesian(self, ab):
        a, b = ab
        rho = math.hypot(a, b)
        theta = math.acos(a / rho)
        assert analytic_pe_polar(theta, rho) == pytest.approx(
            analytic_pe(a, b), abs=1e-12)


class TestRelevantVectors:
    def test_hexagonal_third(self):
        w3 = third_relevant_vector(0.5, SQRT3_2)
        assert w3 == pytest.approx([-0.5, SQRT3_2])

    def test_negative_a_branch(self):
        w3 = third_relevant_vector(-0.2, 1.0)
        assert w3 == pytest.approx([0.8, 1.0])

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            third_relevant_vector(0.7, 1.0)
        with pytest.raises(ValueError):
            third_relevant_vector(0.2, -1.0)

    @given(admissible_pairs)
    def test_third_vector_norm_at_least_second(self, ab):
        # relevant vectors come in increasing norm order: the predicted
        # third pair is never shorter than the basis vectors
        a, b = ab
        w3 = third_relevant_vector(a, b)
        assert float(w3 @ w3) >= a * a + b * b - 1e-9


class TestVoronoiReduced:
    def test_hexagonal_vertices(self):
        poly = voronoi_vertices_reduced(0.5, SQRT3_2)
        assert len(poly.vertices) == 6
        h = 1 / (2 * math.sqrt(3))
        y3 = 1 / math.sqrt(3)
        expect = {(0.5, h), (0.0, y3), (-0.5, h),
                  (-0.5, -h), (0.0, -y3), (0.5, -h)}
        got = {(round(x, 9), round(y, 9)) for x, y in poly.vertices}
        assert got == {(round(x, 9), round(y, 9)) for x, y in expect}
        assert poly.area == pytest.approx(SQRT3_2)

    def test_vertex_formula(self):
        # bisector intersections land at (1/2, (a^2+b^2-a)/(2b)) and
        # ((2a-1)/2, (-a^2+a+b^2)/(2b))
        a, b = 0.3, 1.1
        poly = voronoi_vertices_reduced(a, b)
        h = (a * a + b * b - a) / (2 * b)
        y3 = (-a * a + a + b * b) / (2 * b)
        got = {(round(x, 9), round(y, 9)) for x, y in poly.vertices}
        assert (0.5, round(h, 9)) in got
        assert (round((2 * a - 1) / 2, 9), round(y3, 9)) in got

    def test_rectangle_case(self):
        poly = voronoi_vertices_reduced(0.0, 1.4)
        assert len(poly.vertices) == 4
        assert poly.area == pytest.approx(1.4)
        assert len(poly.relevant_vectors) == 2

    @given(admissible_pairs)
    def test_area_is_det(self, ab):
        a, b = ab
        poly = voronoi_vertices_reduced(a, b)
        assert poly.area == pytest.approx(b, rel=1e-9)

    @given(admissible_pairs)
    def test_central_symmetry(self, ab):
        poly = voronoi_vertices_reduced(*ab)
        got = {(round(x, 8), round(y, 8)) for x, y in poly.vertices}
        assert got == {(round(-x, 8), round(-y, 8)) for x, y in poly.vertices}


class TestVoronoiGeneral:
    def test_hexagonal(self, hexagonal):
        poly = voronoi_polygon_general(hexagonal)
        assert len(poly.vertices) == 6
        assert len(poly.relevant_vectors) == 3
        assert poly.area == pytest.approx(abs(hexagonal.det), rel=1e-9)

    def test_orthogonal_rectangle(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        poly = voronoi_polygon_general(V)
        assert len(poly.vertices) == 4
        assert poly.area == pytest.approx(6.0)
        rel = {(round(x, 9), round(y, 9)) for x, y in poly.relevant_vectors}
        assert rel == {(2.0, 0.0), (0.0, 3.0)}

    def test_skewed_basis_area(self, skew5):
        poly = voronoi_polygon_general(skew5)
        assert poly.area == pytest.approx(5.0, rel=1e-9)
        assert len(poly.vertices) == 4  # reduces to a rectangular lattice

    def test_needs_2d(self):
        with pytest.raises(UnsupportedDimensionError):
            voronoi_polygon_general(GeneratorMatrix(np.eye(3)))

    def test_rotation_invariance(self, hexagonal):
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        VR = GeneratorMatrix(rot @ hexagonal.matrix)
        poly = voronoi_polygon_general(VR)
        assert poly.area == pytest.approx(abs(hexagonal.det), rel=1e-9)
        back = poly.vertices @ rot  # rotate back: (rot^T v)^T rows
        ref = voronoi_polygon_general(hexagonal).vertices
        got = {(round(x, 8), round(y, 8)) for x, y in back}
        assert got == {(round(x, 8), round(y, 8)) for x, y in ref}

    @given(admissible_pairs)
    @settings(max_examples=60)
    def test_matches_reduced_construction(self, ab):
        a, b = ab
        if a < 1e-6:  # the hexagon degenerates; rectangle case covered above
            return
        V = ReducedBasis2D(a, b).matrix()
        general = voronoi_polygon_general(V)
        reduced = voronoi_vertices_reduced(a, b)
        got = {(round(x, 7), round(y, 7)) for x, y in general.vertices}
        ref = {(round(x, 7), round(y, 7)) for x, y in reduced.vertices}
        assert got == ref


class TestExactArea:
    def test_hexagonal(self, hexagonal):
        assert exact_pe_area(hexagonal) == pytest.approx(1 / 12, abs=1e-9)

    def test_orthogonal_zero(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        assert exact_pe_area(V) <= 1e-12

    def test_skewed_basis_half(self, skew5):
        # the rounding box sticks exactly half its area outside the cell
        assert exact_pe_area(skew5) == pytest.approx(0.5, abs=1e-9)

    def test_rotation_invariance(self, skew5):
        th = -1.1
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        VR = GeneratorMatrix(rot @ skew5.matrix)
        assert exact_pe_area(VR) == pytest.approx(exact_pe_area(skew5),
                                                  abs=1e-9)

    @given(admissible_pairs)
    @settings(max_examples=60)
    def test_agrees_with_closed_form(self, ab):
        a, b = ab
        V = ReducedBasis2D(a, b).matrix()
        assert exact_pe_area(V) == pytest.approx(analytic_pe(a, b), abs=1e-9)


class TestMonteCarlo:
    def test_deterministic_for_seed(self, hexagonal):
        e1 = monte_carlo_pe(hexagonal, 40000, seed=7)
        e2 = monte_carlo_pe(hexagonal, 40000, seed=7)
        assert e1 == e2
        e3 = monte_carlo_pe(hexagonal, 40000, seed=8)
        assert e3.estimate != e1.estimate

    def test_worker_count_does_not_change_result(self, hexagonal, skew5,
                                                 monkeypatch):
        # 150,000 samples are three chunks: one thread, then three on a
        # fresh basis, whose CVP frame the threads share; skew5 is searched
        # in an LLL-reduced frame (U != I), the hexagonal basis in its own
        for V in (hexagonal, skew5):
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
            e1 = monte_carlo_pe(V, 150000, seed=3)
            monkeypatch.setattr(os, "cpu_count", lambda: 4)
            fresh = GeneratorMatrix(V.matrix)
            e4 = monte_carlo_pe(fresh, 150000, seed=3)
            assert e1 == e4
            frame = fresh._search_frame()
            assert (frame[2] == np.eye(2)).all() == (V is hexagonal)
            assert not any(a.flags.writeable for a in frame)

    def test_single_chunk_runs_on_calling_thread(self, hexagonal,
                                                 monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool for a single chunk")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(latcomm.error_analysis, "ThreadPoolExecutor",
                            no_pool)
        assert monte_carlo_pe(hexagonal, 1 << 16, seed=3).n_samples == 1 << 16

    def test_needle_basis_in_bounded_time(self):
        # searched in the basis as given, about 100 nodes per sample on the
        # short level made this take about 0.5 s
        V = GeneratorMatrix(np.array([[1.0, 0.99], [0.0, 0.01]]))
        start = time.perf_counter()
        est = monte_carlo_pe(V, 200000, seed=0)
        assert time.perf_counter() - start < 0.2
        assert abs(est.estimate - exact_pe_area(V)) <= 4 * est.std_error

    def test_hexagonal_estimate(self, hexagonal):
        est = monte_carlo_pe(hexagonal, 100000, seed=0)
        assert abs(est.estimate - 1 / 12) <= 4 * est.std_error
        assert est.std_error == pytest.approx(
            math.sqrt(est.estimate * (1 - est.estimate) / est.n_samples))
        assert est.n_samples == 100000 and est.seed == 0

    def test_orthogonal_never_errs(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        est = monte_carlo_pe(V, 20000, seed=1)
        assert est.estimate == 0.0

    @pytest.mark.parametrize("k", [7, 8, 9])
    def test_tiny_orthogonal_level_never_errs(self, k):
        # the box of diag(1, 10^-k) is its Voronoi cell; candidates compared
        # by their distance in the original frame gave P_e 1.5e-4, 0.045 and
        # 0.772 for k = 7, 8, 9
        Q = np.array([[0.6, -0.8], [0.8, 0.6]])
        for M in (np.diag([1.0, 10.0 ** -k]), Q @ np.diag([1.0, 10.0 ** -k])):
            assert monte_carlo_pe(GeneratorMatrix(M), 100000, seed=1).estimate == 0.0

    def test_three_dimensional_runs(self):
        V = GeneratorMatrix(np.triu([[1.0, 0.3, 0.2],
                                     [0.0, 1.1, 0.4],
                                     [0.0, 0.0, 0.9]]))
        est = monte_carlo_pe(V, 30000, seed=0)
        assert 0.0 < est.estimate < 0.5

    def test_validation(self, hexagonal):
        with pytest.raises(ValueError):
            monte_carlo_pe(hexagonal, 0)
        with pytest.raises(ValueError):
            monte_carlo_pe(hexagonal, 1000, seed=-1)


class TestLevelCurves:
    def test_max_level_is_single_point(self):
        pts = level_curve_points(1 / 12, 64)
        assert len(pts) == 1
        a, b = pts[0]
        assert a == pytest.approx(0.5, abs=1e-6)
        assert b == pytest.approx(SQRT3_2, abs=1e-6)

    def test_out_of_range(self):
        for k in (0.0, -0.1, 0.09, 1.0):
            with pytest.raises(ValueError):
                level_curve_points(k)
        with pytest.raises(ValueError):
            level_curve_points(0.01, a_grid_count=0)

    def test_points_lie_on_level_set(self):
        for k in (0.01, 0.02, 0.04, 0.06):
            pts = level_curve_points(k, 40)
            assert len(pts) > 10
            for a, b in pts:
                assert analytic_pe(a, b) == pytest.approx(k, abs=1e-12)
                # ellipse form of the same curve
                assert (a - 0.5) ** 2 + 4 * k * b * b == pytest.approx(
                    0.25, abs=1e-12)

    def test_endpoints_touch_region_boundary(self):
        pts = level_curve_points(0.02, 80)
        a0, b0 = pts[0]
        assert a0 * a0 + b0 * b0 == pytest.approx(1.0, abs=1e-9)
        assert pts[-1][0] == pytest.approx(0.5, abs=1e-12)


class TestCsvFormat:
    def test_header(self):
        assert PE_CSV_HEADER == "a,b,pe_analytic,pe_exact,pe_mc,mc_stderr"

    def test_twelve_significant_digits(self):
        assert format_csv_value(1 / 3) == "0.333333333333"
        assert format_csv_value(0.5) == "0.5"
        assert format_csv_value(None) == ""

    def test_line_assembly(self):
        line = pe_csv_line(0.5, SQRT3_2, 1 / 12, None, None, None)
        assert line == "0.5,0.866025403784,0.0833333333333,,,"

    def test_pe_row_without_samples(self):
        row = pe_row(0.3, 1.1)
        assert len(row) == len(PE_CSV_HEADER.split(","))
        assert row[:3] == (0.3, 1.1, analytic_pe(0.3, 1.1))
        assert row[3] == exact_pe_area(ReducedBasis2D(0.3, 1.1).matrix())
        assert row[4:] == (None, None)

    def test_pe_row_with_samples(self):
        est = monte_carlo_pe(ReducedBasis2D(0.5, SQRT3_2).matrix(), 3000,
                             seed=4)
        row = pe_row(0.5, SQRT3_2, samples=3000, seed=4)
        assert row[4:] == (est.estimate, est.std_error)

    def test_pe_row_domain(self):
        with pytest.raises(ValueError):
            pe_row(0.6, 1.0)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# canonical (a, b) pairs: generic, hexagonal, rectangular, long, near-needle
SCALE_CANON = [(0.3, 1.1), (0.5, SQRT3_2), (0.0, 1.0), (0.12, 2.7),
               (0.45, 0.95)]
SCALE_EXPONENTS = list(range(-12, 13)) + [-140, -70, 70, 140]


class TestScaleFree:
    """Area and Voronoi results do not depend on the scale of the lattice."""

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_exact_area_matches_closed_form(self, k):
        # adding multiples of v1 to v2, flipping a sign or rotating leaves
        # the rounding box, and so P_e, unchanged
        for a, b in SCALE_CANON:
            C = np.array([[1.0, a], [0.0, b]])
            for theta in (0.0, 0.9, 2.5):
                for U in ([[1, 0], [0, 1]], [[1, 3], [0, 1]],
                          [[-1, -2], [0, 1]]):
                    M = 10.0 ** k * _rotation(theta) @ C @ np.array(U, float)
                    pe = exact_pe_area(GeneratorMatrix(M))
                    assert abs(pe - analytic_pe(a, b)) <= 1e-12, (a, b, U)

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_voronoi_cell(self, k):
        for a, b in SCALE_CANON:
            C = np.array([[1.0, a], [0.0, b]])
            for theta in (0.0, 0.9, 2.5):
                for U in ([[2, 1], [1, 1]], [[1, 3], [0, 1]],
                          [[5, 7], [2, 3]]):
                    M = 10.0 ** k * _rotation(theta) @ C @ np.array(U, float)
                    V = GeneratorMatrix(M)
                    cell = voronoi_polygon_general(V)
                    assert abs(cell.area / abs(V.det) - 1.0) <= 1e-9
                    assert len(cell.relevant_vectors) == (2 if a == 0 else 3)


# bases within 1e-8 of rectangular: the hexagonal cell has two edges of
# length about a, which both the cell and P_e depend on
NEAR_RECTANGULAR = [(1e-9, 1.0), (1e-10, 1.0), (1e-9, 1.5), (3e-9, 2.0)]


class TestNearRectangular:
    """The hexagon keeps its short edges and P_e its closed form."""

    @pytest.mark.parametrize("ab", NEAR_RECTANGULAR)
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_voronoi_cell_has_three_relevant_pairs(self, ab, theta):
        a, b = ab
        V = GeneratorMatrix(_rotation(theta) @ np.array([[1.0, a], [0.0, b]]))
        cell = voronoi_polygon_general(V)
        assert len(cell.relevant_vectors) == 3
        assert abs(cell.area / abs(V.det) - 1.0) <= 1e-12

    @pytest.mark.parametrize("ab", NEAR_RECTANGULAR)
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_exact_area_matches_closed_form(self, ab, theta):
        a, b = ab
        V = GeneratorMatrix(_rotation(theta) @ np.array([[1.0, a], [0.0, b]]))
        assert exact_pe_area(V) == pytest.approx(analytic_pe(a, b), rel=1e-5)


def _exact_canonical_pe(M):
    """F(a, b) of the exact canonical form of the float basis M, in
    Fractions: a = <v1, v2> / ||v1||^2 and b = |det| / ||v1||^2."""
    (x1, x2), (y1, y2) = [[Fraction(v) for v in row] for row in M.tolist()]
    n1 = x1 * x1 + y1 * y1
    a = (x1 * x2 + y1 * y2) / n1
    det = x1 * y2 - y1 * x2
    return float((a - a * a) * n1 * n1 / (4 * det * det))


# below the old clipping tolerance of 1e-10 b^2: the area method printed 0
TINY_TILT = [(1e-11, 1.0), (1e-11, 1.5), (1e-11, 2.0), (1e-10, 1.5)]


class TestTinyTilt:
    """The cell keeps its short edges and P_e its relative precision."""

    @pytest.mark.parametrize("ab", TINY_TILT)
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_exact_area_matches_closed_form(self, ab, theta):
        # F of the float input itself: rotating the basis by 0.7 rad moves
        # its exact canonical a by up to 7e-6 of a
        a, b = ab
        M = _rotation(theta) @ np.array([[1.0, a], [0.0, b]])
        V = GeneratorMatrix(M)
        F = _exact_canonical_pe(M)
        if theta == 0.0:
            assert F == pytest.approx(analytic_pe(a, b), rel=1e-15)
        assert exact_pe_area(V) == pytest.approx(F, rel=1e-6)
        cell = voronoi_polygon_general(V)
        assert len(cell.vertices) == 6 and len(cell.relevant_vectors) == 3

    def test_cells_have_four_or_six_vertices(self):
        # (1,0),(1e-10,1) rotated by 0.7 rad had a 5-vertex cell, one short
        # edge on either side of the old tolerance
        rng = np.random.default_rng(12)
        for a in [0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 0.3, 0.5]:
            for b in (1.0, 1.3):
                for theta in [0.7, *rng.uniform(0.0, 2.0 * math.pi, size=10)]:
                    M = _rotation(theta) @ np.array([[1.0, a], [0.0, b]])
                    cell = voronoi_polygon_general(GeneratorMatrix(M))
                    assert len(cell.vertices) in (4, 6), (a, b, theta)


def _reference_relevant(M):
    """Voronoi-relevant vectors of the lattice of M, one per +- pair: the
    strict minima of the nonzero cosets of L/2L among i v1 + j v2 with
    |i|, |j| <= 4 (ties within 1e-9 of the norm are not strict)."""
    ij = np.array([(i, j) for i in range(-4, 5) for j in range(-4, 5) if i or j])
    vecs = ij @ M.T
    norms = np.einsum("ij,ij->i", vecs, vecs)
    found = []
    for coset in [(1, 0), (0, 1), (1, 1)]:
        mine = np.all(ij % 2 == coset, axis=1)
        low = norms[mine].min()
        tied = mine & (norms <= low * (1.0 + 1e-9))
        if tied.sum() == 2:
            found.append(vecs[np.flatnonzero(tied)[0]])
    return found


class TestRelevantVectorsReference:
    def test_against_coset_minima(self):
        rng = np.random.default_rng(2026)
        mixes = [np.eye(2), [[1, 1], [0, 1]], [[1, 0], [-1, 1]],
                 [[2, 1], [1, 1]], [[1, -1], [1, 0]]]
        checked = 0
        while checked < 2000:
            a = 0.0 if checked % 10 == 0 else rng.uniform(0.02, 0.5)
            b = rng.uniform(SQRT3_2, 3.0)
            if a * a + b * b < 1.0:
                continue
            # given (unrotated) on every third basis, rotated on the others
            theta = 0.0 if checked % 3 == 0 else rng.uniform(0, 2 * math.pi)
            M = (10.0 ** rng.uniform(-8, 8) * _rotation(theta)
                 @ np.array([[1.0, a], [0.0, b]]) @ np.array(mixes[checked % 5], float))
            got = voronoi_polygon_general(GeneratorMatrix(M)).relevant_vectors
            ref = _reference_relevant(M)
            assert len(got) == len(ref) == (2 if a == 0.0 else 3), M
            scale = np.abs(M).max()
            for r in ref:
                off = min(np.abs(got - r).max(axis=1).min(),
                          np.abs(got + r).max(axis=1).min())
                assert off <= 1e-9 * scale, M
            checked += 1


class TestBatchRows:
    """A batch row is its single call, bit for bit."""

    def pairs(self):
        rng = np.random.default_rng(31)
        pairs = [(0.5, SQRT3_2), (0.0, 1.0), (0.0, 2.7), (1e-11, 1.5),
                 (0.5, 1.0), (0.3, 1.1)]
        while len(pairs) < 300:
            a, b = rng.uniform(0.0, 0.5), rng.uniform(0.85, 3.0)
            if a * a + b * b >= 1.0:
                pairs.append((a, b))
        return np.array(pairs).T

    def test_array_pe_row_equals_scalar_calls(self):
        A, B = self.pairs()
        rows = pe_row(A, B)
        assert rows == [pe_row(float(a), float(b)) for a, b in zip(A, B)]
        assert pe_row(A[:0], B[:0]) == []

    def test_exact_pe_area_equals_its_batch_row(self):
        A, B = self.pairs()
        for (a, b), row in zip(zip(A, B), pe_row(A, B)):
            V = ReducedBasis2D(float(a), float(b)).matrix()
            assert exact_pe_area(V) == row[3]
