import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import latcomm.error_analysis
from latcomm.error_analysis import (
    PE_CSV_HEADER,
    _box_pe,
    _clip_halfplanes,
    _coset_minima,
    _errors,
    _qr_frame_2d,
    _targets,
    _voronoi_cells,
    format_csv_value,
    pe_csv_line,
    pe_row,
)
from latcomm.lattice import _gauss_reduce_rows, cvp_bruteforce_batch

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

    # (estimate, std_error) at seed 3 on either side of the 2^16-sample
    # chunk and across three chunks: a change to the chunk size or to the
    # substream each chunk draws from changes these bytes
    @pytest.mark.parametrize("matrix, pins", [
        (None, [(0.0841522216796875, 0.0010844373720274472),
                (0.08415093763828066, 0.0010844215852710655),
                (0.08378666666666666, 0.0007153854958717738)]),
        ([[1.0, 0.3, 0.2], [0.0, 1.1, 0.4], [0.0, 0.0, 0.9]],
         [(0.1186676025390625, 0.0012632694288077818),
          (0.11866579184277584, 0.0012632514508124097),
          (0.1197, 0.0008381404416922023)]),
        (np.eye(5) + np.triu(np.full((5, 5), 0.4), 1),
         [(0.2154388427734375, 0.0016059626473700808),
          (0.21543555548773974, 0.001605941507109448),
          (0.21468666666666666, 0.0010601770349717454)]),
    ])
    def test_pinned_at_chunk_boundaries(self, matrix, pins, hexagonal):
        V = hexagonal if matrix is None else GeneratorMatrix(matrix)
        for n_samples, pin in zip((1 << 16, (1 << 16) + 1, 150000), pins):
            est = monte_carlo_pe(V, n_samples, seed=3)
            assert (est.estimate, est.std_error) == pin

    @pytest.mark.parametrize("seed", [0, (1 << 128) - 1])
    def test_chunk_substream_keyed_by_its_counter(self, seed):
        # monte_carlo_pe keys chunk i's stream by the counter; the CVP
        # reference of TestCosetMinima jumps to it
        for i in (0, 1, 2, 15):
            keyed = np.random.Philox(key=seed, counter=[0, 0, i, 0])
            jumped = np.random.Philox(key=seed).jumped(i)
            assert (np.random.Generator(keyed).random(1000).tobytes()
                    == np.random.Generator(jumped).random(1000).tobytes())

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

    def test_seed_below_the_philox_key_limit(self, hexagonal):
        with pytest.raises(ValueError, match=r"^seed must be below 2\^128$"):
            monte_carlo_pe(hexagonal, 1, seed=1 << 128)
        largest = (1 << 128) - 1
        assert monte_carlo_pe(hexagonal, 1, seed=largest).seed == largest


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


def _bits(*arrays):
    return [np.asarray(x).tobytes() for x in arrays]


class TestZeroNormals:
    """A zero normal cuts nothing, so zero rows can pad the relevant
    vectors of a batch whose rows have two or three pairs."""

    def test_clip_passes_over_a_zero_normal(self):
        rng = np.random.default_rng(44)
        k = 300
        a, b = rng.uniform(0.0, 0.5, k), rng.uniform(0.9, 3.0, k)
        a[::10] = 0.0
        scale = 10.0 ** rng.integers(-6, 7, (k, 1))
        w1 = np.column_stack([np.ones(k), np.zeros(k)]) * scale
        w2 = np.column_stack([a, b]) * scale
        P, n, _, _ = _voronoi_cells(w1, w2)
        # labels of the input edges, apart from the normals' indices
        m = P.shape[1]
        labels = np.where(np.arange(m) < n[:, None], 100 + np.arange(m), -1)
        # half-planes through points about as far out as the vertices
        normals = rng.normal(size=(k, 3, 2)) * scale[:, :, None]
        # with labels the clip keeps them and sums no cut; without, it
        # sums the cut; the polygons are the same either way
        want = _clip_halfplanes(P, n, labels, normals)
        want_cut = _clip_halfplanes(P, n, None, normals)
        assert want[3] is None and want_cut[2] is None
        assert _bits(*want[:2]) == _bits(*want_cut[:2])
        assert (want_cut[3] > 0).sum() > k // 2
        for at in range(4):
            padded = np.insert(normals, at, 0.0, axis=1)
            got = _clip_halfplanes(P, n, labels, padded)
            # an edge cut by normals[j] is labelled j; after the zero that
            # is the label j + 1
            shifted = np.where((want[2] >= at) & (want[2] < 100),
                               want[2] + 1, want[2])
            assert got[3] is None
            assert _bits(*got[:3]) == _bits(want[0], want[1], shifted)
            got = _clip_halfplanes(P, n, None, padded)
            assert got[2] is None
            assert (_bits(got[0], got[1], got[3])
                    == _bits(want_cut[0], want_cut[1], want_cut[3]))

    @pytest.mark.parametrize("M", [
        # rotated rectangles: orthogonal in exact arithmetic, two pairs
        *[np.array([[math.cos(t), -math.sin(t) * 2.0 ** e],
                    [math.sin(t), math.cos(t) * 2.0 ** e]])
          for t, e in [(0.3, 0), (0.7, 1), (2.0, -3), (4.1, 5)]],
        np.array([[1.0, 0.99], [0.0, 0.01]]),
        _rotation(0.7) @ np.array([[1.0, 0.99], [0.0, 0.01]]),
        np.array([[1.0, 0.5], [0.0, SQRT3_2]]),
        _rotation(1.9) @ np.array([[2.0, 1.0], [0.0, 2.0 * SQRT3_2]]),
    ])
    def test_exact_pe_area_is_the_padded_batch_row(self, M):
        V = GeneratorMatrix(M)
        R = _qr_frame_2d(V)
        w1, w2, _ = _gauss_reduce_rows(R[None, :, 0], R[None, :, 1])
        rel = _voronoi_cells(w1, w2)[2]
        pairs = len(voronoi_polygon_general(GeneratorMatrix(R)).relevant_vectors)
        assert rel[0, pairs:].tobytes() == bytes(16 * (3 - pairs))
        assert exact_pe_area(V).hex() == float(_box_pe(R[None], rel)[0]).hex()


def _area_corpus():
    """Seeded 2D bases: canonical {(1,0),(a,b)} as given, rotated,
    unimodularly mixed and scaled by 10^-8..10^8; integer bases; and
    near-rectangular ones, a from 1e-14 to 1e-9."""
    rng = np.random.default_rng(30)
    mixes = [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, 1], [1, 1]],
             [[1, -3], [0, 1]], [[5, 7], [2, 3]]]
    bases = []
    while len(bases) < 240:
        a, b = rng.uniform(0.0, 0.5), rng.uniform(0.85, 3.0)
        if a * a + b * b < 1.0:
            continue
        C = np.array([[1.0, a], [0.0, b]])
        U = np.array(mixes[len(bases) % 5], float)
        scale = 10.0 ** rng.uniform(-8, 8)
        bases += [C, _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ C, C @ U,
                  scale * _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ C @ U]
    while len(bases) < 300:
        M = rng.integers(-9, 10, (2, 2)).astype(float)
        if abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) >= 1:
            bases.append(M)
    for a in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
        for b in (1.0, 1.5):
            C = np.array([[1.0, a], [0.0, b]])
            bases += [C, _rotation(0.7) @ C]
    return bases


def _pe_row_pairs():
    """Seeded canonical (a, b): a = 0, a = 1/2, a from 1e-16 to 1e-10 and
    uniform a, each on b from the unit circle to 3."""
    rng = np.random.default_rng(31)
    a = np.concatenate([np.zeros(20), np.full(20, 0.5),
                        10.0 ** rng.uniform(-16, -10, 40),
                        rng.uniform(0.0, 0.5, 220)])
    b = np.maximum(rng.uniform(0.85, 3.0, len(a)), np.sqrt(1.0 - a * a))
    return a, b


class TestAreaPathPinned:
    """The bytes of the 2D P_e path, as `TestKernel.test_outputs_pinned`
    pins those of nearest_plane: exact_pe_area, the Voronoi cell and
    pe_row rows, batched and scalar, under one sha256."""

    PINNED = "538d51e73189ab114b0f67a085857d0bbb96c14e5c6079149658cedca0fafe23"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for M in _area_corpus():
            V = GeneratorMatrix(M)
            h.update(exact_pe_area(V).hex().encode())
            cell = voronoi_polygon_general(V)
            h.update(cell.vertices.tobytes())
            h.update(cell.relevant_vectors.tobytes())
        A, B = _pe_row_pairs()
        rows = pe_row(A, B) + [pe_row(float(a), float(b))
                               for a, b in zip(A[::7], B[::7])]
        for row in rows:
            h.update(repr([x if x is None else x.hex() for x in row]).encode())
        assert h.hexdigest() == self.PINNED


def _pe_by_cvp_on_every_sample(V, n_samples, seed):
    """(estimate, std_error) of monte_carlo_pe as it was before the coset
    minima: the same chunks and substreams, every sample decided by the
    CVP."""
    Q, R = V.qr()
    half = np.abs(np.diag(R)) / 2.0
    errors = 0
    for i, start in enumerate(range(0, n_samples, 1 << 16)):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        u = rng.uniform(-1.0, 1.0, (min(1 << 16, n_samples - start), V.n))
        coeffs = cvp_bruteforce_batch(V, (u * half) @ Q.T)
        errors += int(np.any(coeffs != 0, axis=1).sum())
    est = errors / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)


def _criterion11(rng, n):
    R = np.zeros((n, n))
    for i in range(n):
        R[i, i] = rng.uniform(0.6, 1.6)
        for j in range(i + 1, n):
            R[i, j] = rng.uniform(-0.8, 0.8)
    return R


def _identity_bases():
    """(name, matrix): the named edge cases, then four criterion-11
    triangular bases per n = 2..8, each as drawn and rotated."""
    needle = np.array([[1.0, 0.99], [0.0, 0.01]])
    bases = [("hexagonal", np.array([[1.0, 0.5], [0.0, SQRT3_2]])),
             ("skew5", np.array([[5.0, 3.0], [0.0, 1.0]])),
             ("needle", needle), ("needle-rotated", _rotation(0.7) @ needle),
             ("tilt-1e-12", np.array([[1.0, 1e-12], [0.0, 1.0]])),
             ("diag-1-1e-9", np.diag([1.0, 1e-9])),
             *[(f"diag-1e-{k}-1e{k}", np.diag([10.0 ** -k, 10.0 ** k]))
               for k in (5, 10, 150)]]
    rng = np.random.default_rng(28)
    for n in range(2, 9):
        for j in range(4):
            R = _criterion11(rng, n)
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            bases += [(f"tri{n}-{j}", R), (f"tri{n}-{j}-rotated", Q @ R)]
    return bases


class TestCosetMinima:
    """Deciding samples by the coset minima of L / 2L gives the estimate
    of the CVP on every sample, bit for bit."""

    @pytest.mark.parametrize("name, M", [pytest.param(name, M, id=name)
                                         for name, M in _identity_bases()])
    def test_equals_cvp_on_every_sample(self, name, M):
        V = GeneratorMatrix(M)
        # the diagonal bases, R_ii spread 10^9 and more, take the CVP on
        # every sample; every other basis here, n <= 8, the coset minima
        assert (_coset_minima(V) is None) == name.startswith("diag")
        for n_samples in (1, 4096, (1 << 16) + 1):
            est = monte_carlo_pe(V, n_samples, seed=5)
            assert (est.estimate, est.std_error) == (
                _pe_by_cvp_on_every_sample(V, n_samples, 5))

    def test_rows_on_a_facet_reach_the_cvp(self, monkeypatch):
        # (1,0),(1/2,3/4), box [-1/2,1/2] x [-3/8,3/8], Q = I: the draws
        # u = X / half map back to X exactly, and every row on the
        # bisector of (1,0), (1/2,3/4) or (-1/2,3/4) tests exactly 0 there,
        # and clear of the other two
        V = GeneratorMatrix(np.array([[1.0, 0.5], [0.0, 0.75]]))
        minima = _coset_minima(V)
        inside = [[0.0, 0.0], [0.25, 0.125], [-0.125, -0.3]]
        facet = [[0.5, 0.0], [-0.5, 0.125], [0.5, -0.125], [-0.4375, 0.25],
                 [0.4375, -0.25], [0.4375, 0.25], [-0.4375, -0.25]]
        beyond = [[0.5, 0.3], [-0.5, -0.375]]
        X = np.array(inside + facet + beyond)
        u = X / np.array([0.5, 0.375])
        assert _targets(V, u).tobytes() == X.tobytes()
        seen = []

        def cvp(V, X):
            seen.append(X.tolist())
            return cvp_bruteforce_batch(V, X)

        monkeypatch.setattr(latcomm.error_analysis, "cvp_bruteforce_batch", cvp)
        errors = _errors(V, u, minima)
        assert seen == [facet]
        # the tie rule decides them: the lexicographically smallest of the
        # tied coefficient vectors wins, 0 against (1, 0) but not (-1, 0)
        on_facet = cvp_bruteforce_batch(V, np.array(facet)).any(axis=1)
        assert 0 < on_facet.sum() < len(facet)
        assert errors == on_facet.sum() + len(beyond)

    def test_one_row_facet_target_pinned(self, monkeypatch):
        # a draw on the bisector of v2 = (-0.4, 0.9), as a one-row chunk:
        # the CVP gets the bits that the one-row product (u * half) @ Q.T
        # gives, which another layout of Q.T rounds differently here, and
        # the tie rule answers (0, 1) on them
        V = GeneratorMatrix(np.array([[0.6, -0.4], [0.8, 0.9]]))
        u = np.array([[float.fromhex("0x1.a5e353f7ced92p-1"),
                       float.fromhex("0x1.8db169f8db16ap-1")]])
        minima = _coset_minima(V)
        seen = []

        def cvp(V, X):
            coeffs = cvp_bruteforce_batch(V, X)
            seen.append(([x.hex() for x in X.ravel().tolist()],
                         coeffs.tolist()))
            return coeffs

        monkeypatch.setattr(latcomm.error_analysis, "cvp_bruteforce_batch", cvp)
        assert _errors(V, u, minima) == 1
        assert seen == [(["-0x1.47ae147ae1479p-6", "0x1.0f5c28f5c28f6p-1"],
                         [[0, 1]])]

    def test_chunk_clear_of_the_band_forms_no_targets(self, monkeypatch):
        V = GeneratorMatrix(np.array([[1.0, 0.5], [0.0, SQRT3_2]]))
        minima = _coset_minima(V)
        # inside the cell and in three corners of the box, clear of facets
        u = np.array([[0.0, 0.0], [0.1, -0.2], [0.5, 0.5], [1.0, 1.0],
                      [-1.0, -0.9], [0.9, -1.0]])
        want = cvp_bruteforce_batch(V, _targets(V, u)).any(axis=1).sum()
        assert want == 3

        def called(*args):
            raise AssertionError("no row is in the band")

        monkeypatch.setattr(latcomm.error_analysis, "_targets", called)
        monkeypatch.setattr(latcomm.error_analysis, "cvp_bruteforce_batch",
                            called)
        assert _errors(V, u, minima) == want
