import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcomm import (
    MAX_CVP_DIM,
    GeneratorMatrix,
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
    return M, _tie_targets(rng, M, 6)


def _tie_targets(rng, M, count):
    """`count` targets whose every level on the upper-triangular dyadic M
    is an exact half-integer tie."""
    n = len(M)
    X = np.zeros((count, n))
    for x in X:
        b = np.zeros(n)
        for i in range(n - 1, -1, -1):
            t = rng.integers(-6, 7) + 0.5
            b[i] = t + 0.5
            x[i] = t * M[i, i] + M[i, i + 1:] @ b[i + 1:]
    return X


def _zero_entry_corpus():
    """Seeded (M, S, X) for n = 1..6 whose plane tables leave zeros out.
    M is upper triangular with entries k/8, a diagonal of either sign and
    exact +0.0 and -0.0 above the diagonal.  S is a signed permutation:
    the QR of S M has a Q with exact zeros and R = D M for a diagonal sign
    matrix D, so the target S x of S M meets the same levels as x of M.
    The targets are signed zeros, ties at every level of M and random
    multiples of 1/16; every float step is exact on M and on S M."""
    rng = np.random.default_rng(25)
    for n in range(1, 7):
        for _ in range(4):
            M = np.triu(rng.integers(-24, 25, size=(n, n)) / 8.0)
            M[np.diag_indices(n)] = (rng.integers(1, 25, size=n) / 8.0
                                     * rng.choice([-1.0, 1.0], size=n))
            above = np.triu(rng.random((n, n)) < 0.5, 1)
            M[above] = rng.choice([0.0, -0.0], size=int(above.sum()))
            X = np.vstack([np.zeros((1, n)), np.full((1, n), -0.0),
                           _tie_targets(rng, M, 4),
                           rng.integers(-400, 401, size=(3, n)) / 16.0])
            S = np.zeros((n, n))
            S[rng.permutation(n), np.arange(n)] = rng.choice([-1.0, 1.0],
                                                             size=n)
            yield M, S, X


def _zero_entry_pairs():
    """(basis, targets) pairs of `_zero_entry_corpus`: M with X, and S M
    with the targets S x."""
    for M, S, X in _zero_entry_corpus():
        yield M, X
        yield S @ M, X @ S.T


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
        assert repr(res) == "NearestPlaneResult(coeffs=array([0, 1]))"
        batch = nearest_plane(hexagonal, [[0.9, 0.8], [0.0, 0.0]])
        assert repr(batch) == ("NearestPlaneResult(coeffs=array([[0, 1],\n"
                               "       [0, 0]]))")

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
            for X in ([0.5, bad], np.array([bad, 0.5]), [bad, bad],
                      [[0.0, 0.0], [0.5, bad]]):
                with pytest.raises(ValueError, match="target must be finite"):
                    nearest_plane(hexagonal, X)
            # a wrong shape is named first, also where a value is not finite
            for X in ([bad], [0.5, bad, 0.5], bad, np.full((1, 1, 2), bad),
                      [[bad]], [[0.0, 0.0, bad]]):
                with pytest.raises(ValueError,
                                   match="target dimension mismatch"):
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
            W = V.scaled(alpha)
            for x, e in zip(rows, expected):
                assert run_interactive(W, x)[0].tolist() == e

    def test_batch_rows_equal_single_calls(self):
        # one target walks its coordinates as Python floats, a batch as
        # columns of X (views, in whatever layout X has): each row comes out
        # byte for byte the same (tobytes, not array_equal, which would let
        # -0.0 pass for 0.0), Fortran-ordered, strided and reversed alike;
        # also where the plane table leaves zero entries of Q and R out
        for corpus in (_one_loop_corpus(False), _one_loop_corpus(True),
                       _zero_entry_pairs()):
            for M, X in corpus:
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

    def test_zero_entries_match_fraction_recursion(self):
        # +-0.0 above the diagonal and the exact zeros of a signed
        # permutation's Q are left out of the plane table; the answers are
        # still the exact recursion's, on M and on S M alike
        for M, S, X in _zero_entry_corpus():
            rows = [[Fraction(v) for v in row] for row in M]
            expected = [_fraction_nearest_plane(rows, x) for x in X]
            for V, Xv in ((GeneratorMatrix(M), X),
                          (GeneratorMatrix(S @ M), X @ S.T)):
                assert nearest_plane(V, Xv).coeffs.tolist() == expected
                assert [nearest_plane(V, x).coeffs.tolist()
                        for x in Xv] == expected

    def test_scaled_basis_answers_from_its_own_table(self, ratio311):
        # the scaled basis is a basis of its own, built after V's table:
        # 1/4 scales every float exactly, so c V rounds x as V rounds x / c
        x = np.array([0.6, 0.3])
        V = ratio311
        on_v = nearest_plane(V, x).coeffs.tolist()
        W = V.scaled(0.25)
        on_w = nearest_plane(W, x).coeffs.tolist()
        assert W._plane_table is not V._plane_table
        assert on_w != on_v
        assert on_w == nearest_plane(V, x / 0.25).coeffs.tolist()
        rows = [[Fraction(v) / 4 for v in row] for row in V.matrix.tolist()]
        assert on_w == _fraction_nearest_plane(rows, x)

    def test_point_and_residuals_on_demand(self):
        # neither is built until it is read; point is then coeffs through
        # the generator, byte for byte, and both are cached
        for rotated in (False, True):
            for M, X in _one_loop_corpus(rotated):
                V = GeneratorMatrix(M)
                for res in (nearest_plane(V, X), nearest_plane(V, X[0])):
                    assert repr(res) == f"NearestPlaneResult(coeffs={res.coeffs!r})"
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


def _query_corpus():
    """Seeded (basis, targets) pairs for n = 2..6 in the style of the
    benchmark's query workload: size-reduced upper-triangular R with
    diagonal in [0.8, 1.25], as drawn, with the signs of its rows flipped,
    and rotated.  The targets are far targets in [-4, 4]^n, half-integer
    coefficient points V (k + 1/2) and the midpoints V c / 2 of the cosets
    of L/2L."""
    rng = np.random.default_rng(33)
    for n in range(2, 7):
        mids = np.array(list(itertools.product((0.0, 0.5), repeat=n))[1:])
        for k in range(6):
            R = np.triu(rng.uniform(-0.5, 0.5, size=(n, n)), 1)
            R[np.diag_indices(n)] = rng.uniform(0.8, 1.25, size=n)
            if k % 3 == 1:
                R = R * rng.choice([-1.0, 1.0], size=n)[:, None]
            elif k % 3 == 2:
                R = np.linalg.qr(rng.normal(size=(n, n)))[0] @ R
            half = rng.integers(-3, 4, size=(8, n)) + 0.5
            yield R, np.vstack([rng.uniform(-4.0, 4.0, size=(16, n)),
                                half @ R.T, mids @ R.T])


class TestQueryPathPinned:
    """The bytes of the query path, as `TestAreaPathPinned` pins those of
    the 2D P_e path: nearest_plane on each target and on the batch
    (coefficients, residuals and points) and the exact CVP's answers, on a
    fresh basis each, under one sha256."""

    PINNED = "1830cb81b83a3656f44b6ce8a7345975e9d4b10c73d1a420905136e5efb2c2fa"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for M, X in _query_corpus():
            V = GeneratorMatrix(M)
            for res in [nearest_plane(V, x) for x in X] + [nearest_plane(V, X)]:
                h.update(res.coeffs.tobytes())
                h.update(res.residuals.tobytes())
                h.update(res.point.tobytes())
            h.update(cvp_bruteforce_batch(V, X).tobytes())
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


def _in_own_cell(V, X):
    """nearest_plane's output on each row of X, checked to be the lattice
    point whose cell holds it: every level's residual lies within
    [-1/2, 1/2) of its coefficient, the box of side R_ii along level i of
    the QR frame."""
    res = nearest_plane(V, X)
    D = res.residuals - res.coeffs
    assert np.all(D >= -0.5) and np.all(D < 0.5)
    return res.coeffs


class TestBabaiCell:
    """The nearest-plane partition: each target lies in the box of exactly
    the lattice point that nearest_plane returns for it."""

    def test_cell_contains_its_rounding_preimage(self, hexagonal):
        X = np.random.default_rng(9).uniform(-3, 3, size=(300, 2))
        _in_own_cell(hexagonal, X)
        for x in X[:20]:
            _in_own_cell(hexagonal, x)

    def test_half_open_faces(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        # upper face belongs to the next cell (ties round up), lower face
        # belongs to this one
        for x, coeffs in [([1.0, 0.0], (1, 0)), ([-1.0, 0.0], (0, 0)),
                          ([0.0, 1.5], (0, 1)), ([0.0, -1.5], (0, 0))]:
            assert tuple(_in_own_cell(V, x)) == coeffs

    def test_translated_cell(self, hexagonal):
        center = 2 * hexagonal.matrix[:, 0] + hexagonal.matrix[:, 1]
        assert tuple(_in_own_cell(hexagonal, center)) == (2, 1)

    def test_cells_partition_samples(self, skew5):
        # every point belongs to exactly the cell of its rounding output:
        # its level-0 residual is more than 1/2 from the neighbour's b_0
        X = np.random.default_rng(4).uniform(-6, 6, size=(200, 2))
        coeffs = _in_own_cell(skew5, X)
        res = nearest_plane(skew5, X).residuals
        assert np.all(res[:, 0] - (coeffs[:, 0] + 1) < -0.5)


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
