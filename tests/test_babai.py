import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcomm import (
    MAX_CVP_DIM,
    GeneratorMatrix,
    babai_cell,
    cvp_bruteforce_batch,
    interactive_coefficients_batch,
    nearest_plane,
    run_interactive,
)


def _random_basis(rng, n, rotated=True):
    # QR-controlled conditioning so brute-force CVP stays cheap; unrotated
    # bases are upper triangular with diagonal entries of either sign
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    r = np.triu(rng.uniform(-0.8, 0.8, size=(n, n)))
    np.fill_diagonal(r, rng.uniform(0.6, 1.6, size=n))
    if not rotated:
        return GeneratorMatrix(r * rng.choice([-1.0, 1.0], size=n)[:, None])
    return GeneratorMatrix(q @ r)


def _tie_basis(rng, n):
    """An upper-triangular basis with entries k/8 (diagonal of either sign)
    and targets whose every level is an exact half-integer tie."""
    M = np.triu(rng.integers(-24, 25, size=(n, n)) / 8.0)
    M[np.diag_indices(n)] = (rng.integers(1, 25, size=n) / 8.0
                             * rng.choice([-1.0, 1.0], size=n))
    X = np.zeros((6, n))
    for x in X:
        b = np.zeros(n)
        for i in range(n - 1, -1, -1):
            t = rng.integers(-6, 7) + 0.5
            b[i] = t + 0.5
            x[i] = t * M[i, i] + M[i, i + 1:] @ b[i + 1:]
    return M, X


def _one_loop_corpus(rotated):
    """Seeded (basis, targets) pairs for n = 1..MAX_CVP_DIM: upper-triangular
    bases with diagonal entries of either sign (rotated ones if `rotated`)
    at scales 1, 1e-100 and 1e100 (nearer 1 where |det| would leave the
    float range), and bases whose targets tie at every level, at scales
    1 and 2^-+300 (likewise).  Every batch starts with targets of +0.0,
    -0.0 and mixed signed zeros."""
    rng = np.random.default_rng(15)
    for n in range(1, MAX_CVP_DIM + 1):
        e, k = min(100, 290 // n), min(300, 900 // n)
        zeros = np.zeros((3, n))
        zeros[1], zeros[2, ::2] = -0.0, -0.0
        for scale in (1.0, 10.0 ** -e, 10.0 ** e):
            M = _random_basis(rng, n, rotated).matrix * scale
            yield M, np.vstack([zeros, rng.uniform(-4, 4, size=(12, n)) * scale])
        M, X = _tie_basis(rng, n)
        if rotated:
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            M, X = Q @ M, X @ Q.T
        for scale in (1.0, 2.0 ** -k, 2.0 ** k):
            yield M * scale, np.vstack([zeros, X * scale])


class TestNearestPlane:
    def test_hexagonal_golden(self, hexagonal):
        res = nearest_plane(hexagonal, [0.9, 0.8])
        assert tuple(res.coeffs) == (0, 1)
        assert res.point == pytest.approx([0.5, math.sqrt(3) / 2])

    def test_triangular_recursion_values(self, skew5):
        # top coordinate rounds after subtracting the already-fixed column
        res = nearest_plane(skew5, [2.4, 0.0])
        assert tuple(res.coeffs) == (0, 0)
        assert res.residuals == pytest.approx([2.4 / 5.0, 0.0])

    def test_zero_target(self, hexagonal):
        assert tuple(nearest_plane(hexagonal, [0.0, 0.0]).coeffs) == (0, 0)

    def test_lattice_point_recovered_exactly(self, ratio311):
        p = ratio311.matrix @ np.array([7.0, -3.0])
        res = nearest_plane(ratio311, p)
        assert tuple(res.coeffs) == (7, -3)

    def test_ties_round_up_in_recursion(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 2]])
        assert tuple(nearest_plane(V, [1.0, -1.0]).coeffs) == (1, 0)
        rng = np.random.default_rng(4)
        for n in range(1, MAX_CVP_DIM + 1):
            M, X = _tie_basis(rng, n)
            V = GeneratorMatrix(M)
            res = nearest_plane(V, X)
            # every real coefficient was a tie k + 1/2, rounded up
            assert np.all(res.residuals % 1.0 == 0.5)
            assert np.array_equal(res.coeffs, res.residuals + 0.5)
            for x, b in zip(X, res.coeffs):
                assert np.array_equal(nearest_plane(V, x).coeffs, b)

    def test_rotation_invariant(self, ratio311):
        rng = np.random.default_rng(0)
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            x = rng.uniform(-10, 10, size=2)
            a = nearest_plane(ratio311, x, method="triangular")
            b = nearest_plane(GeneratorMatrix(Q @ ratio311.matrix), Q @ x)
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_general_basis(self):
        V = GeneratorMatrix.from_columns([[3, 4], [1, 2]])  # not triangular
        res = nearest_plane(V, [2.9, 4.1])
        assert tuple(res.coeffs) == (1, 0)
        with pytest.raises(ValueError):
            nearest_plane(V, [0.0, 0.0], method="triangular")

    def test_matches_qr_frame_recursion(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            V = _random_basis(rng, 3)
            x = rng.uniform(-2, 2, size=3)
            Q, R = V.qr()
            direct = nearest_plane(V, x).coeffs
            rotated = nearest_plane(GeneratorMatrix(R), Q.T @ x).coeffs
            assert np.array_equal(direct, rotated)

    def test_unknown_method(self, hexagonal):
        with pytest.raises(ValueError):
            nearest_plane(hexagonal, [0.0, 0.0], method="magic")
        with pytest.raises(ValueError):
            nearest_plane(hexagonal, [0.0, 0.0], method="gram_schmidt")

    def test_coefficient_beyond_2_52_rejected(self, hexagonal):
        with pytest.raises(ValueError, match="2\\*\\*52"):
            nearest_plane(hexagonal, [1e20, 3e19])
        with pytest.raises(ValueError, match="2\\*\\*52"):
            nearest_plane(hexagonal, [[0.0, 0.0], [1e20, 3e19]])

    def test_lower_level_beyond_2_52(self):
        # the top level rounds; level 0 then leaves the exact range
        V = GeneratorMatrix.from_columns([[2, 0], [0, 4]])
        msg = "cannot round 1.5e+20: need a finite |z| < 2**52"
        with pytest.raises(ValueError) as single:
            nearest_plane(V, [3e20, 1.0])
        assert str(single.value) == msg
        with pytest.raises(ValueError) as batch:
            nearest_plane(V, [[0.0, 0.0], [3e20, 1.0]])
        assert str(batch.value) == msg
        # levels are rounded from the top: a later row's failure at level 1
        # is reported before an earlier row's at level 0
        with pytest.raises(ValueError) as batch:
            nearest_plane(V, [[3e20, 1.0], [1.0, -8e20]])
        assert str(batch.value) == "cannot round -2e+20: need a finite |z| < 2**52"
        # through an off-diagonal entry: level 0 is (x_0 - v_01 b_1) / v_00
        V = GeneratorMatrix.from_columns([[1e-6, 0], [1, 1]])
        msg = f"cannot round {(0.0 - 1e15) / 1e-6!r}: need a finite |z| < 2**52"
        for X in ([0.0, 1e15], [[0.0, 1e15], [0.0, 0.0]]):
            with pytest.raises(ValueError) as err:
                nearest_plane(V, X)
            assert str(err.value) == msg

    def test_non_finite_target_rejected(self, hexagonal):
        for bad in (math.nan, math.inf, -math.inf):
            for X in ([0.5, bad], np.array([bad, 0.5]),
                      [[0.0, 0.0], [0.5, bad]]):
                with pytest.raises(ValueError, match="target must be finite"):
                    nearest_plane(hexagonal, X)

    def test_batch_shape(self, hexagonal):
        res = nearest_plane(hexagonal, np.zeros((0, 2)))
        assert res.coeffs.shape == (0, 2)
        with pytest.raises(ValueError):
            nearest_plane(hexagonal, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            nearest_plane(hexagonal, np.zeros((4, 3)))


def _fraction_nearest_plane(M, x):
    """Nearest plane in exact rational arithmetic on an upper-triangular
    M (rows of Fractions), ties rounded up: the test-side oracle."""
    n = len(M)
    b = [0] * n
    for i in range(n - 1, -1, -1):
        r = (Fraction(x[i]) - sum(M[i][l] * b[l] for l in range(i + 1, n))) \
            / M[i][i]
        b[i] = math.floor(r + Fraction(1, 2))
    return b


@st.composite
def _dyadic_case(draw):
    """An upper-triangular basis with entries k/8 (nonzero, possibly
    negative diagonal) and targets whose every level is an exact tie or a
    random dyadic value.  All float steps of the recursion are exact here,
    so a tie in the rationals is a tie in floats."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-24, 24)
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = Fraction(draw(entry.filter(lambda k: k != 0)), 8)
        for l in range(i + 1, n):
            M[i][l] = Fraction(draw(entry), 8)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            # level by level: the real coefficient at level i is k + 1/2,
            # i.e. x_i = (k + 1/2) v_ii plus the already-fixed columns
            x = [Fraction(0)] * n
            b = [0] * n
            for i in range(n - 1, -1, -1):
                t = draw(st.integers(-6, 6)) + Fraction(1, 2)
                b[i] = math.floor(t + Fraction(1, 2))
                x[i] = t * M[i][i] + sum(M[i][l] * b[l]
                                         for l in range(i + 1, n))
        else:
            x = [Fraction(draw(st.integers(-400, 400)), 16) for _ in range(n)]
        rows.append([float(v) for v in x])
    return M, rows


class TestKernel:
    """The one level loop against independent references, and one target
    against a batch."""

    @given(_dyadic_case())
    @settings(max_examples=300)
    def test_matches_fraction_recursion(self, case):
        M, rows = case
        V = GeneratorMatrix(np.array([[float(v) for v in row] for row in M]))
        X = np.array(rows)
        expected = [_fraction_nearest_plane(M, x) for x in rows]
        assert nearest_plane(V, X).coeffs.tolist() == expected
        for x, e in zip(rows, expected):
            assert nearest_plane(V, x).coeffs.tolist() == e
        # the interactive protocol on alpha * Lambda; the ties built above
        # stay ties at alpha = 1, and a dyadic alpha keeps the floats exact
        for alpha in (1.0, 0.25):
            scaled = [[alpha * v for v in row] for row in M]
            expected = [_fraction_nearest_plane(scaled, x) for x in rows]
            got = interactive_coefficients_batch(V, X, alpha)
            assert got.tolist() == expected
            for x, e in zip(rows, expected):
                assert run_interactive(V, x, alpha)[0].tolist() == e

    def test_batch_rows_equal_single_calls(self):
        # one target walks its coordinates as Python floats, a batch as
        # columns of X (views, in whatever layout X has): each row comes out
        # byte for byte the same (tobytes, not array_equal, which would let
        # -0.0 pass for 0.0), Fortran-ordered, strided and reversed alike
        for rotated in (False, True):
            for M, X in _one_loop_corpus(rotated):
                V = GeneratorMatrix(M)
                for Xs in (X, np.asfortranarray(X), X[::2], X[:, ::-1],
                           X[:, ::-1].copy(), X[-1:]):
                    batch = nearest_plane(V, Xs)
                    assert batch.coeffs.dtype == np.int64
                    for k, x in enumerate(Xs):
                        single = nearest_plane(V, x)
                        assert single.coeffs.dtype == np.int64
                        assert (single.coeffs.tobytes()
                                == batch.coeffs[k].tobytes())
                        assert (single.residuals.tobytes()
                                == batch.residuals[k].tobytes())
                        # points go through BLAS, whose summation order may
                        # depend on the shape
                        assert batch.point[k] == pytest.approx(
                            single.point, rel=1e-12,
                            abs=1e-12 * np.abs(M).max())
                none = nearest_plane(V, X[:0])
                assert none.coeffs.dtype == np.int64
                assert (none.coeffs.shape == none.residuals.shape
                        == none.point.shape == (0, V.n))

    def test_point_and_residuals_on_demand(self):
        # neither is built until it is read; point is then coeffs through
        # the generator, byte for byte, and both are cached
        for rotated in (False, True):
            for M, X in _one_loop_corpus(rotated):
                V = GeneratorMatrix(M)
                for res in (nearest_plane(V, X), nearest_plane(V, X[0])):
                    assert "point" not in vars(res)
                    assert "residuals" not in vars(res)
                    expect = res.coeffs.astype(float) @ V.matrix.T
                    assert res.point.tobytes() == expect.tobytes()
                    assert res.point.shape == res.coeffs.shape
                    assert vars(res)["point"] is res.point
                    assert "residuals" not in vars(res)
                    assert res.residuals.shape == res.coeffs.shape
                    assert vars(res)["residuals"] is res.residuals

    # sha256 over the coefficient and residual bytes of every batch and of
    # every single target of the unrotated corpus (no LAPACK factorization
    # is involved, so the bytes do not depend on the machine); computed
    # with the vectorised level loop that preceded the row-list one
    PINNED = "ae5ec59a9aeb8d84aedd1aceccb41bc023a58c7d5e8d499877796794d8619a34"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for M, X in _one_loop_corpus(rotated=False):
            V = GeneratorMatrix(M)
            for res in [nearest_plane(V, X)] + [nearest_plane(V, x) for x in X]:
                h.update(res.coeffs.tobytes())
                h.update(res.residuals.tobytes())
        assert h.hexdigest() == self.PINNED


class TestSuboptimality:
    @given(st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_never_beats_exact_point(self, case):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 5))
        V = _random_basis(rng, n)
        x = rng.uniform(-3, 3, size=n)
        d_np = float(np.linalg.norm(nearest_plane(V, x).point - x))
        d_nl = float(np.linalg.norm(V.matrix @ cvp_bruteforce_batch(V, x)
                                    - x))
        assert d_np >= d_nl - 1e-9

    def test_equal_distance_means_equal_coeffs(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            V = _random_basis(rng, 2)
            x = rng.uniform(-3, 3, size=2)
            a = nearest_plane(V, x)
            b = cvp_bruteforce_batch(V, x)
            da = float(np.linalg.norm(a.point - x))
            db = float(np.linalg.norm(V.matrix @ b - x))
            if np.array_equal(a.coeffs, b):
                assert da == db
            else:
                assert da > db


class TestBabaiCell:
    def test_volume_is_det(self, hexagonal):
        cell = babai_cell(hexagonal, [0, 0])
        assert cell.volume == pytest.approx(abs(hexagonal.det))

    def test_cell_contains_its_rounding_preimage(self, hexagonal):
        rng = np.random.default_rng(9)
        for _ in range(300):
            x = rng.uniform(-3, 3, size=2)
            coeffs = nearest_plane(hexagonal, x).coeffs
            cell = babai_cell(hexagonal, coeffs)
            assert cell.contains(x)

    def test_half_open_faces(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        origin = babai_cell(V, [0, 0])
        # upper face belongs to the next cell (ties round up), lower face
        # belongs to this one
        assert not origin.contains([1.0, 0.0])
        assert origin.contains([-1.0, 0.0])
        assert not origin.contains([0.0, 1.5])
        assert origin.contains([0.0, -1.5])
        assert tuple(nearest_plane(V, [1.0, 0.0]).coeffs) == (1, 0)
        assert tuple(nearest_plane(V, [-1.0, 0.0]).coeffs) == (0, 0)

    def test_translated_cell(self, hexagonal):
        cell = babai_cell(hexagonal, [2, 1])
        center = 2 * hexagonal.matrix[:, 0] + hexagonal.matrix[:, 1]
        assert cell.center == pytest.approx(center)
        assert cell.contains(center)

    def test_cells_partition_samples(self, skew5):
        # every point belongs to exactly the cell of its rounding output
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(-6, 6, size=2)
            coeffs = nearest_plane(skew5, x).coeffs
            assert babai_cell(skew5, coeffs).contains(x)
            assert not babai_cell(skew5, coeffs + np.array([1, 0])).contains(x)


def _matches_cvp(V, x):
    return np.array_equal(nearest_plane(V, x).coeffs,
                          cvp_bruteforce_batch(V, x))


class TestMatchesCvp:
    def test_orthogonal_always_matches(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        rng = np.random.default_rng(2)
        for _ in range(100):
            assert _matches_cvp(V, rng.uniform(-5, 5, size=2))

    def test_known_mismatch(self, skew5):
        assert not _matches_cvp(skew5, [2.4, 0.0])

    def test_known_match(self, hexagonal):
        assert _matches_cvp(hexagonal, [0.9, 0.8])
