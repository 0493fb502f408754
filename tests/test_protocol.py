import hashlib
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcomm import (
    GeneratorMatrix,
    ProtocolError,
    ProtocolUnsupportedError,
    SourceModel,
    build_ratio_table,
    centralized_rate_bound,
    decode_centralized,
    decode_interactive,
    empirical_entropy,
    fusion_decode,
    interactive_coefficients_batch,
    interactive_rate,
    nearest_plane,
    node_encode,
    round_half_up,
    run_centralized,
    run_interactive,
    varint_bits,
    varint_decode,
    varint_encode,
)
from latcomm import protocol


def _round_fraction(f: Fraction) -> int:
    """Ties-up rounding of an exact rational, the test-side oracle."""
    return math.floor(f + Fraction(1, 2))


def _scan_s(z: float, q: int) -> int:
    """Largest s in [0, q) with [z - s/q] = [z], by exhaustive exact scan."""
    zf = Fraction(z)
    target = round_half_up(z)
    best = 0
    for s in range(q):
        if _round_fraction(zf - Fraction(s, q)) == target:
            best = s
    return best


def _left_fold(values):
    """values added left to right from 0.0, one rounding per addition: the
    builtin sum() of Python <= 3.11 (3.12 compensates float sums)."""
    return reduce(operator.add, values, 0.0)


def _counter_entropy(samples):
    """Plug-in entropy as a Counter sees it: its keys in order of first
    occurrence, the terms folded left to right."""
    counts = Counter(np.asarray(samples).ravel().tolist())
    total = sum(counts.values())
    return -_left_fold((c / total) * math.log2(c / total)
                       for c in counts.values())


def _varint_edges():
    """Values whose zigzag code sits at or next to a 7-bit group boundary,
    0 and -1, and the int64 extremes."""
    values = {0, -1, 2 ** 63 - 1, -2 ** 63}
    for j in range(1, 10):
        for base in (2 ** (7 * j), 2 ** (7 * j - 1)):
            for v in (base - 1, base, base + 1):
                values.update({v, -v})
    return sorted(v for v in values if -2 ** 63 <= v < 2 ** 63)


class TestVarint:
    def test_bits_at_group_boundaries(self):
        values = _varint_edges()
        expect = [8 * len(varint_encode(v)) for v in values]
        assert [varint_bits(v) for v in values] == expect
        assert all(type(varint_bits(v)) is int for v in values)
        got = varint_bits(np.array(values, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == expect
        grid = varint_bits(np.array(values[:40], dtype=np.int64).reshape(8, 5))
        assert grid.shape == (8, 5) and grid.ravel().tolist() == expect[:40]
        assert min(expect) == 8 and max(expect) == 80

    def test_single_byte_boundaries(self):
        for v, nbytes in [(0, 1), (1, 1), (-1, 1), (63, 1), (-64, 1),
                          (64, 2), (-65, 2), (500, 2), (8191, 2), (8192, 3)]:
            assert len(varint_encode(v)) == nbytes
            assert varint_bits(v) == 8 * nbytes
            assert type(varint_bits(v)) is int

    @given(st.integers(min_value=-2**62, max_value=2**62))
    def test_roundtrip(self, v):
        enc = varint_encode(v)
        dec, off = varint_decode(enc)
        assert dec == v
        assert off == len(enc)
        assert varint_bits(v) == 8 * len(enc)

    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=8))
    def test_stream_decoding(self, values):
        blob = b"".join(varint_encode(v) for v in values)
        out = []
        off = 0
        while off < len(blob):
            v, off = varint_decode(blob, off)
            out.append(v)
        assert out == values

    def test_truncated(self):
        with pytest.raises(ProtocolError):
            varint_decode(bytes([0x80]))


class TestSourceModel:
    def test_uniform_entropy(self):
        assert SourceModel.uniform(0, 1).differential_entropy_bits() == 0.0
        assert SourceModel.uniform(0, 2).differential_entropy_bits() == 1.0
        assert SourceModel.uniform(-1, 1).differential_entropy_bits() == 1.0

    def test_gaussian_entropy(self):
        h = SourceModel.gaussian(5.0, 1.0).differential_entropy_bits()
        assert h == pytest.approx(0.5 * math.log2(2 * math.pi * math.e))

    def test_entropy_beyond_the_floats_rejected(self):
        # hi - lo or 2 pi e sigma^2 outside the floats would make h
        # infinite or a log of zero; the source is refused by name
        wide = r"2 pi e sigma\^2 within the floats"
        for make, message in [
                (lambda: SourceModel.uniform(-1e308, 1e308), "finite hi - lo"),
                (lambda: SourceModel.gaussian(0, 1e308), wide),
                (lambda: SourceModel.gaussian(0, 1e154), wide),
                (lambda: SourceModel.gaussian(0, 1e-200), wide)]:
            with pytest.raises(ValueError, match=message):
                make()
        # the largest ones still in the floats keep the plain formula
        assert SourceModel.uniform(-8e307, 8e307).differential_entropy_bits() \
            == math.log2(2 * 8e307)
        h = SourceModel.gaussian(0, 1e153).differential_entropy_bits()
        assert h == 0.5 * math.log2(2.0 * math.pi * math.e * 1e153 ** 2)

    @pytest.mark.parametrize("kind, name", [
        ("uniform", "lo"), ("uniform", "hi"),
        ("gaussian", "mean"), ("gaussian", "sigma")])
    def test_non_finite_parameters_named(self, kind, name):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError,
                               match=f"{kind} source needs a finite {name}"):
                SourceModel.from_json({"dist": kind, name: value})

    def test_json_roundtrip(self):
        for s in (SourceModel.uniform(-2, 3), SourceModel.gaussian(1, 0.5)):
            assert SourceModel.from_json(s.to_json()) == s

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceModel.uniform(1, 1)
        with pytest.raises(ValueError):
            SourceModel.gaussian(0, 0)
        with pytest.raises(ValueError):
            SourceModel.from_json({"dist": "poisson"})
        with pytest.raises(ValueError):
            SourceModel.from_json({"lo": 0, "hi": 1})
        with pytest.raises(ValueError, match="unknown source kind"):
            SourceModel(kind="cauchy")

    @pytest.mark.parametrize("source", [
        {"dist": "uniform", "lo": 0, "hi": True},
        {"dist": "uniform", "lo": False},
        {"dist": "gaussian", "mean": 0, "sigma": True},
        {"dist": "uniform", "lo": "0"},
        {"dist": "gaussian", "mean": 0, "sigma": "1"},
        {"dist": "gaussian", "sigma": [1]},
        # nor under another kind's key
        {"dist": "gaussian", "lo": True},
        {"dist": "uniform", "sigma": "x"}])
    def test_boolean_parameters_rejected(self, source):
        # JSON true is not the number 1
        with pytest.raises(ValueError, match="must be numbers"):
            SourceModel.from_json(source)

    def test_sampling_respects_support(self):
        rng = np.random.Generator(np.random.Philox(key=0))
        x = SourceModel.uniform(2, 3).sample(rng, 1000)
        assert np.all((x >= 2) & (x < 3))


class TestRatioTable:
    def test_half_ratio(self, hexagonal):
        t = build_ratio_table(hexagonal)
        assert t.q == (2, 1)
        assert Fraction(t.weights[0][1], t.q[0]) == Fraction(1, 2)
        assert t.weights == ((0, 1), (0, 0))

    def test_thousandth_ratio(self, ratio311):
        t = build_ratio_table(ratio311)
        assert t.q == (1000, 1)
        assert Fraction(t.weights[0][1], t.q[0]) == Fraction(311, 1000)
        assert t.weights[0][1] == 311

    def test_diagonal_is_trivial(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        t = build_ratio_table(V)
        assert t.q == (1, 1)
        assert t.weights == ((0, 0), (0, 0))

    def test_lcm_across_row(self):
        V = GeneratorMatrix.from_columns(
            [[1, 0, 0], ["1/2", 1, 0], ["1/3", "1/5", 1]])
        t = build_ratio_table(V)
        assert t.q == (6, 5, 1)
        assert t.weights[0][1] == 3  # 1/2 * 6
        assert t.weights[0][2] == 2  # 1/3 * 6
        assert t.weights[1][2] == 1  # 1/5 * 5
        assert [t.weights[m][l] for m in range(3) for l in range(m + 1)] \
            == [0] * 6

    def test_irrational_diagonal_ok_when_row_has_no_ratios(self, hexagonal):
        # bottom-right entry is a plain float; the last row needs no ratios
        assert hexagonal.rational[1][1] is None
        build_ratio_table(hexagonal)

    def test_missing_rational_data(self):
        V = GeneratorMatrix.from_columns([[1, 0], [0.311, 1]])
        with pytest.raises(ProtocolUnsupportedError):
            build_ratio_table(V)

    def test_float_basis_has_no_table(self):
        # triangular, but every entry a float: no exact ratio to read
        V = GeneratorMatrix.from_columns([[1.0, 0.0], [0.5, 0.75]])
        assert V.is_upper_triangular() and V.rational is None
        with pytest.raises(ProtocolUnsupportedError,
                           match="exact rational entries"):
            build_ratio_table(V)

    def test_requires_triangular(self):
        V = GeneratorMatrix.from_columns([[3, 4], [1, 2]])
        with pytest.raises(ProtocolUnsupportedError):
            build_ratio_table(V)


class TestNodeEncode:
    def test_golden_thousand(self):
        m = node_encode(1.0, 1.0, 1000)
        assert (m.b_tilde, m.s) == (1, 500)

    def test_q_one_always_zero(self):
        for x in (-3.7, -0.5, 0.0, 0.49, 123.456):
            assert node_encode(x, 1.0, 1).s == 0

    def test_golden_point_three(self):
        m = node_encode(0.3, 1.0, 2)
        assert (m.b_tilde, m.s) == (0, 1)

    def test_tie_rounds_up_and_s_is_zero(self):
        m = node_encode(0.5, 1.0, 2)
        assert (m.b_tilde, m.s) == (1, 0)

    def test_validation(self):
        with pytest.raises(ProtocolError):
            node_encode(1.0, 0.0, 2)
        with pytest.raises(ProtocolError):
            node_encode(1.0, 1.0, 0)
        with pytest.raises(ProtocolError):
            node_encode(float("inf"), 1.0, 2)

    @given(st.floats(min_value=-100, max_value=100),
           st.integers(min_value=1, max_value=200))
    def test_matches_exhaustive_scan(self, z, q):
        m = node_encode(z, 1.0, q)
        assert m.b_tilde == round_half_up(z)
        assert m.s == _scan_s(z, q)

    def test_scan_at_large_q(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = float(rng.uniform(-5, 5))
            q = 10**4
            assert node_encode(z, 1.0, q).s == _scan_s(z, q)

    @given(st.floats(min_value=-50, max_value=50),
           st.integers(min_value=1, max_value=1000))
    def test_monotone_step_values(self, z, q):
        # s -> [z - s/q] only ever steps down once across s in [0, q)
        zf = Fraction(z)
        base = round_half_up(z)
        vals = [_round_fraction(zf - Fraction(s, q)) for s in range(0, q,
                                                                    max(1, q // 97))]
        assert all(v in (base, base - 1) for v in vals)
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    @settings(max_examples=40)
    @given(st.lists(st.one_of(
               st.floats(min_value=-1e3, max_value=1e3),
               st.integers(-1000, 1000).map(lambda k: k + 0.5)),
               min_size=1, max_size=6),
           st.integers(min_value=1, max_value=10**4))
    def test_batch_matches_scalar_and_scan(self, zs, q):
        # ties z = k + 1/2 included; the exhaustive scan checks the first
        batch = node_encode(np.array(zs), 1.0, q)
        single = [node_encode(z, 1.0, q) for z in zs]
        assert list(batch.b_tilde) == [m.b_tilde for m in single]
        assert list(batch.s) == [m.s for m in single]
        assert single[0].b_tilde == round_half_up(zs[0])
        assert single[0].s == _scan_s(zs[0], q)

    def test_batch_matches_scalar_on_random_targets(self):
        X = np.random.default_rng(17).uniform(-1e3, 1e3, size=(100, 3))
        X[0] = [0.5, -0.5, 2.25]
        batch = node_encode(X, 0.5, 9973)
        assert batch.b_tilde.shape == (100, 3)
        for idx in np.ndindex(X.shape):
            m = node_encode(X[idx], 0.5, 9973)
            assert (batch.b_tilde[idx], batch.s[idx]) == (m.b_tilde, m.s)

    def test_side_value_beyond_int64(self):
        q = 10**30
        m = node_encode(np.array([0.3, -2.7]), 1.0, q)
        for z, s in zip((0.3, -2.7), m.s):
            assert s == node_encode(z, 1.0, q).s
            assert Fraction(s, q) <= Fraction(z) + Fraction(1, 2) \
                - round_half_up(z) < Fraction(s + 1, q)

    @pytest.mark.parametrize("x, v", [
        (float("inf"), 1.0), (float("-inf"), 1.0), (float("nan"), 1.0),
        (2.0 ** 52, 1.0), (-(2.0 ** 52), 1.0), (2.0 ** 51, 0.25)])
    def test_rejects_out_of_domain(self, x, v):
        with pytest.raises(ProtocolError, match="2\\*\\*52"):
            node_encode(x, v, 7)
        with pytest.raises(ProtocolError, match="2\\*\\*52"):
            node_encode(np.array([0.0, x, 1.0]), v, 7)

    def test_just_below_limit_accepted(self):
        z = 2.0 ** 52 - 0.5
        assert node_encode(z, 1.0, 2).b_tilde == 2 ** 52
        assert list(node_encode(np.array([-z]), 1.0, 2).b_tilde) \
            == [-(2 ** 52) + 1]

    @pytest.mark.parametrize("q", [1, 2, 3, 1000, 9973, 2 ** 20 + 1,
                                   2 ** 31 - 1, 2 ** 40, 2 ** 51 - 1, 2 ** 52,
                                   10 ** 30])
    def test_batch_fast_path_is_exact(self, q):
        # the float path of a batch must agree with the exact one on ties
        # k/q - 1/2 and their float neighbours, where q z + q/2 rounds onto
        # an integer from below or above, and on tiny and huge z
        rng = np.random.default_rng(q % 1000)
        ties = rng.integers(-10 ** 6, 10 ** 6, 3000) / min(q, 2 ** 52) - 0.5
        reach = min(2.0 ** 51, 2.0 ** 52 / q)
        for z in (rng.uniform(-5, 5, 3000), rng.uniform(-1e6, 1e6, 3000),
                  rng.normal(size=500) * 1e-20, ties,
                  np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
                  rng.uniform(-1, 1, 3000) * reach,
                  np.array([0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324]),
                  np.array([2.0 ** 52 - 0.5])):
            fast = protocol._grid_positions_batch(z, q)
            exact = protocol._grid_positions(z, q)
            for got, want in zip(fast, exact):
                assert got.tolist() == want.tolist()
                assert all(type(v) is int for v in got)

    def test_monotone_step_exhaustive_large_q(self):
        q = 10**4
        z = 3.37712
        zf = Fraction(z)
        base = round_half_up(z)
        prev = base
        for s in range(q):
            v = _round_fraction(zf - Fraction(s, q))
            assert v in (base, base - 1)
            assert v <= prev
            prev = v


class TestFusionDecode:
    def test_golden_walkthrough(self, ratio311):
        b, transcript = run_centralized(ratio311, [1.0, 1.0])
        assert tuple(b) == (1, 1)
        payloads = [m.payload for m in transcript.messages]
        assert payloads[0] == {"b_tilde": 1, "s": 500}
        assert payloads[1] == {"b_tilde": 1, "s": 0}
        # coefficient byte + 10 side-information bits, then 1 byte
        assert [m.bits for m in transcript.messages] == [18, 8]
        assert transcript.total_bits == 26
        assert tuple(transcript.decoded[0]) == (1, 1)

    def test_correction_branch(self, hexagonal):
        b, transcript = run_centralized(hexagonal, [0.9, 0.8])
        assert tuple(b) == (0, 1)
        # node 1 reports its local rounding of 0.9, corrected at the center
        assert transcript.messages[0].payload == {"b_tilde": 1, "s": 0}

    def test_message_count_checked(self, hexagonal):
        t = build_ratio_table(hexagonal)
        with pytest.raises(ProtocolError):
            fusion_decode([node_encode(0.5, 1.0, 2)], t)

    def test_diagonal_passthrough(self):
        V = GeneratorMatrix.from_columns([[2, 0], [0, 3]])
        b, _ = run_centralized(V, [3.1, -4.4])
        assert tuple(b) == (2, -1)

    def test_agrees_with_nearest_plane(self, hexagonal, ratio311):
        rng = np.random.default_rng(12)
        V3 = GeneratorMatrix.from_columns(
            [[1, 0, 0], ["2/3", "3/2", 0], ["-1/6", "5/4", "7/8"]])
        for V in (hexagonal, ratio311, V3):
            for _ in range(500):
                x = rng.uniform(-20, 20, size=V.n)
                b, _ = run_centralized(V, x)
                assert np.array_equal(b, nearest_plane(V, x).coeffs)

    def test_exact_beyond_int64(self):
        # weight (2^40 - 1) times a coefficient near 2^30 is about 2^70
        V = GeneratorMatrix.from_columns(
            [[1, 0], [f"{2**40 - 1}/{2**40 + 1}", 1]])
        t = build_ratio_table(V)
        assert t.q == (2 ** 40 + 1, 1) and t.weights[0][1] == 2 ** 40 - 1
        rng = np.random.default_rng(40)
        X = 2.0 ** 30 + rng.uniform(-50.0, 50.0, size=(200, 2))
        B, _ = run_centralized(V, X)
        assert np.all(t.weights[0][1] * np.abs(B[:, 1]).astype(object)
                      > 2 ** 63)
        assert np.array_equal(B, nearest_plane(V, X).coeffs)
        for i in range(0, 200, 37):
            b, _ = run_centralized(V, X[i])
            assert np.array_equal(b, B[i])

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_large_q_batch_matches_kernel(self, case):
        # entries num/den with both in [10^5, 10^6]: a ratio's denominator
        # reaches 10^12, and q_m, the lcm across a row, about 10^23 at n = 4
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 5))
        cols = [[f"{int(rng.choice([-1, 1]) * rng.integers(10**5, 10**6))}"
                 f"/{int(rng.integers(10**5, 10**6))}" if i <= j else 0
                 for i in range(n)] for j in range(n)]
        V = GeneratorMatrix.from_columns(cols)
        X = rng.uniform(-1000, 1000, size=(200, n))
        B, _ = run_centralized(V, X)
        assert np.array_equal(B, nearest_plane(V, X).coeffs)
        for i in range(0, 200, 67):
            b, _ = run_centralized(V, X[i])
            assert np.array_equal(b, B[i])

    def test_side_information_bits(self, hexagonal, ratio311):
        _, t1 = run_centralized(hexagonal, [0.0, 0.0])
        assert t1.messages[0].bits - varint_bits(0) == 1  # ceil(log2 2)
        _, t3 = run_centralized(ratio311, [0.0, 0.0])
        assert t3.messages[0].bits - varint_bits(0) == 10  # ceil(log2 1000)


class TestInteractive:
    def test_golden(self, hexagonal):
        b, t = run_interactive(hexagonal, [0.9, 0.8], 1.0)
        assert tuple(b) == (0, 1)
        assert t.model == "interactive"
        # node order: highest coordinate first
        assert [m.sender for m in t.messages] == [2, 1]
        assert t.messages[0].receivers == (1,)
        assert all(np.array_equal(v, b) for v in t.decoded.values())

    def test_zero_target(self, hexagonal):
        b, t = run_interactive(hexagonal, [0.0, 0.0], 0.25)
        assert tuple(b) == (0, 0)
        assert t.total_bits == 2 * 8  # one minimal varint each, 1 receiver

    def test_broadcast_fanout(self):
        V = GeneratorMatrix(np.triu([[1.0, 0.2, 0.1],
                                     [0.0, 1.0, 0.3],
                                     [0.0, 0.0, 1.0]]))
        _, t = run_interactive(V, [0.4, -0.6, 0.9], 1.0)
        assert [m.sender for m in t.messages] == [3, 2, 1]
        assert t.messages[0].receivers == (1, 2)
        assert len(t.decoded) == 3

    def test_decoded_shares_the_coefficients(self):
        # every node decodes the same vector: one array, not n copies
        V = GeneratorMatrix(np.triu(np.full((3, 3), 0.25)) + np.eye(3))
        b, t = run_interactive(V, np.zeros((5, 3)), 1.0)
        assert t.decoded[1] is t.decoded[3] is b

    def test_equals_scaled_nearest_plane(self, ratio311):
        rng = np.random.default_rng(5)
        for alpha in (1.0, 0.5, 2.0 ** -6):
            scaled = ratio311.scaled(alpha)
            for _ in range(200):
                x = rng.uniform(-5, 5, size=2)
                b, _ = run_interactive(ratio311, x, alpha)
                assert np.array_equal(b, nearest_plane(scaled, x).coeffs)

    def test_agrees_with_centralized_on_scaled_lattice(self, hexagonal):
        rng = np.random.default_rng(6)
        alpha = 0.125
        scaled = hexagonal.scaled(alpha)
        for _ in range(500):
            x = rng.uniform(-4, 4, size=2)
            bi, _ = run_interactive(hexagonal, x, alpha)
            bc, _ = run_centralized(scaled, x)
            assert np.array_equal(bi, bc)

    def test_batch_matches_single_runs(self, hexagonal):
        rng = np.random.default_rng(8)
        X = rng.uniform(-3, 3, size=(500, 2))
        B = interactive_coefficients_batch(hexagonal, X, 2.0 ** -4)
        for i in range(0, 500, 23):
            b, _ = run_interactive(hexagonal, X[i], 2.0 ** -4)
            assert np.array_equal(B[i], b)

    def test_validation(self, hexagonal):
        with pytest.raises(ProtocolError):
            run_interactive(hexagonal, [0.0, 0.0], 0.0)
        with pytest.raises(ProtocolUnsupportedError):
            run_interactive(GeneratorMatrix.from_columns([[3, 4], [1, 2]]),
                            [0.0, 0.0], 1.0)
        with pytest.raises(ProtocolError):
            run_interactive(hexagonal, [0.0], 1.0)

    def test_coefficient_beyond_2_52_rejected(self, hexagonal):
        # at alpha = 1e-30 the coefficients are ~1e30: an error, not a
        # wrapped int64
        with pytest.raises(ValueError, match="2\\*\\*52"):
            interactive_coefficients_batch(hexagonal, [[1.0, 1.0]], 1e-30)
        with pytest.raises(ValueError, match="2\\*\\*52"):
            run_interactive(hexagonal, [1.0, 1.0], 1e-30)


def _rational_tri3():
    return GeneratorMatrix.from_columns(
        [[1, 0, 0], ["1/2", "3/4", 0], ["1/3", "-1/5", "5/4"]])


class TestBatchTranscripts:
    """A batch run carries one round per row: row i of every field equals
    the single run on X[i]."""

    @staticmethod
    def _check_rows(batch, single_run, X):
        B, T = batch
        assert B.shape == X.shape
        for i in range(len(X)):
            b, t = single_run(X[i])
            assert np.array_equal(B[i], b)
            assert T.model == t.model
            assert len(T.messages) == len(t.messages)
            for mb, ms in zip(T.messages, t.messages):
                assert (mb.sender, mb.receivers) == (ms.sender, ms.receivers)
                assert mb.payload.keys() == ms.payload.keys()
                for k in ms.payload:
                    assert mb.payload[k][i] == ms.payload[k]
                assert mb.bits[i] == ms.bits
            assert T.total_bits[i] == t.total_bits
            assert T.decoded.keys() == t.decoded.keys()
            for k in t.decoded:
                assert np.array_equal(T.decoded[k][i], t.decoded[k])
            assert T.row(i).to_json() == t.to_json()

    @pytest.mark.parametrize("which", ["hexagonal", "ratio311", "tri3"])
    def test_centralized(self, which, hexagonal, ratio311):
        V = {"hexagonal": hexagonal, "ratio311": ratio311,
             "tri3": _rational_tri3()}[which]
        X = np.random.default_rng(21).uniform(-300, 300, size=(40, V.n))
        X[0] = 0.5  # ties at every level
        self._check_rows(run_centralized(V, X),
                         lambda x: run_centralized(V, x), X)

    @pytest.mark.parametrize("alpha", [1.0, 2.0 ** -10])
    def test_interactive(self, alpha, hexagonal):
        for V in (hexagonal, _rational_tri3()):
            X = np.random.default_rng(22).uniform(-3, 3, size=(40, V.n))
            self._check_rows(run_interactive(V, X, alpha),
                             lambda x: run_interactive(V, x, alpha), X)

    def test_shape_checked(self, ratio311):
        for X in ([0.0], np.zeros((3, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ProtocolError):
                run_centralized(ratio311, X)
            with pytest.raises(ProtocolError):
                run_interactive(ratio311, X, 1.0)


class TestRates:
    def test_centralized_bound_hexagonal(self, hexagonal):
        src = [SourceModel.uniform(0, 1)] * 2
        bound = centralized_rate_bound(src, hexagonal, 2.0 ** -10)
        expect = -math.log2(math.sqrt(3) / 2) + 20.0 + 1.0
        assert bound == pytest.approx(expect, abs=1e-9)
        assert bound == pytest.approx(21.2075, abs=5e-4)

    def test_centralized_bound_trivial(self):
        V = GeneratorMatrix.from_columns([[1, 0], [0, 1]])
        src = [SourceModel.uniform(0, 1)] * 2
        assert centralized_rate_bound(src, V, 1.0) == 0.0

    def test_interactive_rate_unit_determinant(self):
        V = GeneratorMatrix.from_columns([["5/4", 0], [0, "4/5"]])
        src = [SourceModel.uniform(0, 1)] * 2
        assert interactive_rate(src, V, 2.0 ** -10) == pytest.approx(20.0)
        assert interactive_rate(src, V, 1.0) == pytest.approx(0.0)

    def test_interactive_rate_linearity_in_entropy(self):
        V = GeneratorMatrix(np.triu([[1.0, 0.1, 0.2],
                                     [0.0, 1.0, 0.3],
                                     [0.0, 0.0, 1.0]]))
        narrow = [SourceModel.uniform(0, 1)] * 3
        wide = [SourceModel.uniform(0, 2)] * 3
        r1 = interactive_rate(narrow, V, 0.25)
        r2 = interactive_rate(wide, V, 0.25)
        assert r2 - r1 == pytest.approx((3 - 1) * 3 * 1.0)

    def test_interactive_rate_cells_beyond_the_floats(self):
        # alpha |v_ii| of inf or 0 would give an infinite rate or a log of
        # zero; the scale is refused by name
        src = [SourceModel.uniform(0, 1)] * 2
        for d, alpha in ((1e150, 1e300), (1e-150, 1e-300)):
            V = GeneratorMatrix.from_columns([[d, 0], [0, d]])
            with pytest.raises(ProtocolError, match=r"alpha \|v_ii\|"):
                interactive_rate(src, V, alpha)

    def test_source_count_checked(self, hexagonal):
        with pytest.raises(ProtocolError):
            interactive_rate([SourceModel.uniform(0, 1)], hexagonal, 0.5)
        with pytest.raises(ProtocolError):
            centralized_rate_bound([SourceModel.uniform(0, 1)],
                                   hexagonal, 0.5)


class TestEmpiricalEntropy:
    def test_constant(self):
        assert empirical_entropy([7] * 100) == 0.0

    def test_fair_coin(self):
        assert empirical_entropy([0, 1] * 500) == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            empirical_entropy([])

    def test_list_and_array_match_counter_order(self):
        rng = np.random.default_rng(3)
        samples = rng.geometric(0.01, size=5000) - rng.geometric(0.3, 5000)
        expect = _counter_entropy(samples)
        assert empirical_entropy(samples) == expect
        assert empirical_entropy(samples.tolist()) == expect

    @pytest.mark.parametrize("distinct, step, offset", [
        (1, 1, 0), (21, 1, 0), (321, 1, -160), (5000, 1, 7),
        (5000, 97, -250_000), (19_865, 1, 0), (19_865, 3, -2 ** 40),
        (300, 2 ** 52, -2 ** 62),
    ])
    def test_int64_columns_match_counter_order(self, distinct, step, offset):
        # spans below 2^16 and beyond it, negative values, int64 extremes
        rng = np.random.default_rng(distinct)
        codes = np.concatenate([np.arange(distinct),
                                rng.integers(0, distinct, 20_000 - distinct)])
        column = rng.permutation(codes) * step + offset
        assert column.dtype == np.int64
        assert len(np.unique(column)) == distinct
        expect = _counter_entropy(column)
        assert empirical_entropy(column) == expect
        assert empirical_entropy(column.tolist()) == expect
        backwards = column[::-1]
        assert empirical_entropy(backwards) == _counter_entropy(backwards)

    def test_small_and_bool_dtypes_match_counter_order(self):
        rng = np.random.default_rng(4)
        for column in (rng.random(3000) < 0.3,
                       rng.integers(-100, 100, 3000).astype(np.int8),
                       rng.permutation(np.arange(-128, 128).repeat(3))
                       .astype(np.int8),
                       rng.integers(0, 60_000, 3000).astype(np.uint16),
                       np.round(rng.normal(size=3000), 1),
                       np.array([2 ** 63 - 1, -2 ** 63, 0, 2 ** 63 - 1, 5,
                                 -2 ** 63, -2 ** 63])):
            assert empirical_entropy(column) == _counter_entropy(column)
            assert (empirical_entropy(column.tolist())
                    == _counter_entropy(column))

    def test_constant_column_is_negative_zero(self):
        for column in (np.full(50, 9, dtype=np.int64), [True] * 3, [2.5]):
            h = empirical_entropy(column)
            assert h == 0.0 and math.copysign(1.0, h) == -1.0

    def test_hexagonal_coefficient_entropy(self, hexagonal):
        # U_2 = [x_2 / (alpha v_22)] for x_2 ~ U[0,1) spreads over about
        # 1/(alpha v_22) values, so H ~ -log2(alpha v_22)
        alpha = 2.0 ** -8
        rng = np.random.Generator(np.random.Philox(key=0))
        X = np.column_stack([rng.uniform(0, 1, 400000),
                             rng.uniform(0, 1, 400000)])
        B = interactive_coefficients_batch(hexagonal, X, alpha)
        h2 = empirical_entropy(B[:, 1])
        target = -math.log2(alpha * math.sqrt(3) / 2)
        assert target == pytest.approx(8.2075, abs=5e-4)
        assert h2 == pytest.approx(target, abs=0.05)


class TestRateConvergence:
    def test_gap_shrinks_with_alpha(self):
        V = GeneratorMatrix.from_columns([["5/4", 0], [0, "4/5"]])
        sources = [SourceModel.uniform(0, 1)] * 2
        rng = np.random.Generator(np.random.Philox(key=1))
        X = np.column_stack([s.sample(rng, 200000) for s in sources])
        gaps = []
        for alpha in (2.0 ** -4, 2.0 ** -6, 2.0 ** -8):
            B = interactive_coefficients_batch(V, X, alpha)
            gap = 0.0
            for i in range(2):
                h = empirical_entropy(B[:, i])
                target = (sources[i].differential_entropy_bits()
                          - math.log2(alpha * float(V.matrix[i, i])))
                gap = max(gap, abs(h - target))
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1


UNIFORM = SourceModel.uniform(0.0, 1.0)
GAUSSIAN = SourceModel.gaussian(0.25, 0.5)


def _negative_tri3():
    # negative diagonal entries flip the cells' order along x
    return GeneratorMatrix.from_columns(
        [[-2, 0, 0], ["1/2", "3/4", 0], ["1/3", "-1/5", "-5/4"]])


def _coded_runs(V, X, sources, alpha):
    """Both protocols with sources, on alpha * Lambda, and what the
    receivers decode from the streams alone."""
    scaled = V.scaled(alpha)
    rounds = 1 if np.ndim(X) == 1 else len(X)
    _, tc = run_centralized(scaled, X, sources)
    reports = decode_centralized(scaled, tc.streams, sources, rounds)
    bi, ti = run_interactive(V, X, alpha, sources)
    U = decode_interactive(V, ti.streams, sources, alpha, rounds)
    return (tc, reports), (ti, bi.reshape(rounds, -1), U)


def _assert_within_information(transcript):
    # each stream is at most its summed quantized self-information + 2 bits
    for m, stream in zip(transcript.messages, transcript.streams):
        info = float(np.sum(m.bits)) / len(m.receivers)
        assert stream.nbits <= info + 2.0, (stream.nbits, info)
        assert len(stream.data) == (stream.nbits + 7) // 8


class TestCodedStreams:
    """Range-coded streams under the sources' model: every receiver decodes
    every round's payload from the stream alone."""

    @pytest.mark.parametrize("basis", ["ratio311", "tri3", "negative"])
    @pytest.mark.parametrize("source", [UNIFORM, GAUSSIAN],
                             ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("rounds", [1, 57])
    def test_decodes_every_round(self, basis, source, rounds, ratio311):
        V = {"ratio311": ratio311, "tri3": _rational_tri3(),
             "negative": _negative_tri3()}[basis]
        rng = np.random.Generator(np.random.Philox(key=rounds))
        X = np.column_stack([source.sample(rng, rounds)
                             for _ in range(V.n)])
        if rounds == 1:
            X = X[0]  # a single run, not a batch of one
        (tc, reports), (ti, B, U) = _coded_runs(V, X, [source] * V.n,
                                                2.0 ** -6)
        for r, m in zip(reports, tc.messages):
            assert list(r.b_tilde) == list(np.ravel(m.payload["b_tilde"]))
            assert list(r.s) == list(np.ravel(m.payload["s"]))
        table = build_ratio_table(V.scaled(2.0 ** -6))
        assert np.array_equal(fusion_decode(reports, table),
                              np.reshape(tc.decoded[0], (rounds, V.n)))
        assert np.array_equal(U, B)
        _assert_within_information(tc)
        _assert_within_information(ti)

    def test_mixed_sources(self, ratio311):
        sources = [GAUSSIAN, SourceModel.uniform(-3.0, 2.0)]
        rng = np.random.Generator(np.random.Philox(key=3))
        X = np.column_stack([s.sample(rng, 80) for s in sources])
        (tc, reports), (ti, B, U) = _coded_runs(ratio311, X, sources, 0.125)
        assert list(reports[0].s) == list(tc.messages[0].payload["s"])
        assert np.array_equal(U, B)
        _assert_within_information(tc)

    def test_escape_outside_the_window(self, ratio311):
        # targets outside the sources' coding support (a uniform source's
        # range, a gaussian's mean +- 8 sigma) are escaped: the escape's
        # count, then the varint bytes as uniform bytes
        for source, far in ((UNIFORM, [1.5, -40.0]),
                            (GAUSSIAN, [100.0, -9.0])):
            X = np.array([[0.3, 0.7], far, [0.6, 0.1], far[::-1]])
            (tc, reports), (ti, B, U) = _coded_runs(ratio311, X,
                                                    [source] * 2, 0.25)
            assert list(reports[1].b_tilde) == list(
                tc.messages[1].payload["b_tilde"])
            assert np.array_equal(U, B)
            # an escaped round pays its varint bytes on top of 32 bits
            assert tc.messages[1].bits[1] >= 32 + 8
            assert tc.messages[1].bits[0] < 32
            _assert_within_information(tc)
            _assert_within_information(ti)

    def test_symbols_beyond_exact_floats_are_escaped(self, ratio311):
        # node 1's grid position is about 1000 * 2^45 = 2^55, where a float
        # cannot tell neighbours apart: it codes no window, and sends each
        # position as a varint from the window's first symbol
        source = SourceModel.uniform(2.0 ** 45, 2.0 ** 45 + 1.0)
        X = np.random.default_rng(5).uniform(0.0, 1.0, (20, 2)) + 2.0 ** 45
        (tc, reports), (ti, B, U) = _coded_runs(ratio311, X, [source] * 2,
                                                1.0)
        assert list(reports[0].s) == list(tc.messages[0].payload["s"])
        bits = tc.messages[0].bits
        assert np.all(np.abs(bits - 8 * np.round(bits / 8)) < 1e-6)
        assert np.array_equal(U, B)

    def test_empty_batch(self, ratio311):
        for b, t in (run_centralized(ratio311, np.zeros((0, 2)),
                                     [UNIFORM] * 2),
                     run_interactive(ratio311, np.zeros((0, 2)), 0.5,
                                     [UNIFORM] * 2)):
            assert b.shape == (0, 2) and t.wire_bits == 0

    def test_window_too_wide_escapes_at_varint_cost(self):
        # 2^30 cells per unit: wider than the coder's window, so every
        # symbol is an escape that takes all but 1 of the total (3.4e-10
        # bits), then its varint
        V = GeneratorMatrix.from_columns([[1, 0], [0, 1]])
        X = np.random.default_rng(4).uniform(0.0, 1.0, size=(30, 2))
        (tc, _), (ti, B, U) = _coded_runs(V, X, [UNIFORM] * 2, 2.0 ** -30)
        assert np.array_equal(U, B)
        for m in ti.messages:
            assert np.all(np.abs(m.bits - 8 * np.round(m.bits / 8)) < 1e-6)
            assert np.all(m.bits <= 40 + 1e-6)
        _assert_within_information(ti)

    def test_rows_equal_single_runs(self, hexagonal):
        # a round's bits do not depend on the other rounds of its batch
        X = np.random.default_rng(9).uniform(0.0, 1.0, size=(12, 2))
        sources = [UNIFORM] * 2
        for run in (lambda x: run_centralized(hexagonal.scaled(0.125), x,
                                              sources),
                    lambda x: run_interactive(hexagonal, x, 0.125, sources)):
            _, T = run(X)
            for i in range(len(X)):
                assert T.row(i).to_json() == run(X[i])[1].to_json()

    def test_counts_come_from_one_function(self, monkeypatch, ratio311):
        # swap the edge counts for another monotone pmf: the streams still
        # decode, because the encoder and the decoder take every count
        # from the same function, and so agree bit for bit
        original = protocol._NodeModel.edges

        def squared(self, off, j):
            counts = original(self, off, j)
            return np.floor(counts * counts / np.maximum(self.S, 1.0))

        monkeypatch.setattr(protocol._NodeModel, "edges", squared)
        rng = np.random.Generator(np.random.Philox(key=11))
        X = rng.uniform(0.0, 1.0, size=(64, 3))
        (tc, reports), (ti, B, U) = _coded_runs(_rational_tri3(), X,
                                                [UNIFORM] * 3, 2.0 ** -6)
        assert np.array_equal(U, B)
        for r, m in zip(reports, tc.messages):
            assert list(r.s) == list(m.payload["s"])
        _assert_within_information(tc)

    def test_bits_approach_the_entropy(self):
        # the README scenario: each node's cells are equiprobable, so the
        # streams come within 1% of the analytic rate of 20.00 bits
        V = GeneratorMatrix.from_columns([["5/4", 0], [0, "4/5"]])
        sources = [UNIFORM] * 2
        rng = np.random.Generator(np.random.Philox(key=1))
        X = np.column_stack([s.sample(rng, 1000) for s in sources])
        alpha = 2.0 ** -10
        bound = interactive_rate(sources, V, alpha)
        assert bound == pytest.approx(20.0)
        assert centralized_rate_bound(sources, V, alpha) == pytest.approx(20.0)
        _, tc = run_centralized(V.scaled(alpha), X, sources)
        _, ti = run_interactive(V, X, alpha, sources)
        for t in (tc, ti):
            assert abs(t.wire_bits / 1000 - bound) <= 0.01 * bound

    # the four scenarios of the protocol benchmark: (columns, alpha, sources)
    BENCH = {
        "readme": ([["5/4", 0], [0, "4/5"]], 2.0 ** -10, [UNIFORM] * 2),
        "ratio311": ([[1, 0], ["311/1000", "101/100"]], 2.0 ** -8,
                     [UNIFORM] * 2),
        "tri3": ([[1, 0, 0], ["1/2", "3/4", 0], ["1/3", "-1/5", "5/4"]],
                 2.0 ** -6, [UNIFORM] * 3),
        "gaussian": ([[1, 0], ["1/2", "7/8"]], 2.0 ** -10,
                     [SourceModel.gaussian(0.0, 1.0)] * 2),
    }
    # sha256 over repr of every stream's (data, nbits) and every message's
    # bits, 100 rounds drawn as `simulate` draws them at seed 3
    CODED = {
        ("readme", "centralized"):
            "cf015d61a7f8ebbef015815ff60ff74b825611222963f747a567f1583d0ac564",
        ("readme", "interactive"):
            "62edad3e3ecaa0c5a74e53c924f25a905678a24d3afb7062390a2c53885de4b9",
        ("ratio311", "centralized"):
            "3d227308cd4a05fad49ea8d99119a790d037aea9618fa89e92583b11fb76c41a",
        ("ratio311", "interactive"):
            "a014f90b249a2659398d121ea1922f553c39a00813c6c749d12c1d9f059da480",
        ("tri3", "centralized"):
            "d4746a3cfe305b4062b45d0f0329c140d9123d54b86145f6788f5b9485ac1699",
        ("tri3", "interactive"):
            "d72b93b0149a628a9046f6801d4ea92074222d1f052913e26f0c38cc803fdad6",
        ("gaussian", "centralized"):
            "847dd53412e41a109bc9e7693d25ae1222bf82e5923561d2c467d5570cddcdcd",
        ("gaussian", "interactive"):
            "537381e8d96691a168a1f8846a634ac5985348fd917a4795ef460f361f4458a8",
    }

    @pytest.mark.parametrize("scenario, model", list(CODED))
    def test_coded_bytes_pinned(self, scenario, model):
        # the bytes on the wire, not only their length, stay as they were
        columns, alpha, sources = self.BENCH[scenario]
        V = GeneratorMatrix.from_columns(columns)
        rng = np.random.Generator(np.random.Philox(key=3))
        X = np.column_stack([s.sample(rng, 100) for s in sources])
        if model == "centralized":
            _, t = run_centralized(V.scaled(alpha), X, sources)
        else:
            _, t = run_interactive(V, X, alpha, sources)
        text = repr(([(s.data, s.nbits) for s in t.streams],
                     [m.bits.tolist() for m in t.messages]))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.CODED[scenario, model]

    def test_source_count_checked(self, ratio311):
        with pytest.raises(ProtocolError):
            run_centralized(ratio311, [0.1, 0.2], [UNIFORM])
        with pytest.raises(ProtocolError):
            run_interactive(ratio311, [0.1, 0.2], 0.5, [UNIFORM] * 3)

    def test_without_sources_the_varint_counts(self, ratio311):
        _, t = run_centralized(ratio311, [[1.0, 1.0], [0.2, -3.0]])
        assert t.streams is None
        assert t.wire_bits == int(t.total_bits.sum()) == 2 * 26


class TestRangeCoder:
    @given(st.lists(st.tuples(st.integers(1, 2 ** 32 - 1),
                              st.floats(0.0, 1.0)), max_size=300))
    def test_roundtrip_and_length(self, spec):
        freqs = [f for f, _ in spec]
        cums = [int(u * (2 ** 32 - f)) for f, u in spec]
        stream = protocol._range_encode(cums, freqs)
        info = sum(32 - math.log2(f) for f in freqs)
        assert stream.nbits <= info + 2.0
        dec = protocol._RangeDecoder(stream)
        for c, f in zip(cums, freqs):
            assert c <= dec.target() < c + f
            dec.consume(c, f)

    def test_carry_into_sent_bytes(self):
        # symbols at the very top of every range push the low end into
        # carries through runs of 0xFF bytes
        cums = [2 ** 32 - 3] * 200 + [0, 2 ** 32 - 2] * 50
        freqs = [1] * 200 + [2, 1] * 50
        stream = protocol._range_encode(cums, freqs)
        dec = protocol._RangeDecoder(stream)
        for c, f in zip(cums, freqs):
            assert c <= dec.target() < c + f
            dec.consume(c, f)

    def test_carry_through_ff_bytes(self, monkeypatch):
        # seeded symbols near the top of the total, cum = 2^32 - f - d with
        # f, d < 2^8: a carry finds a sent 0xFF byte, turns it to 0 and
        # moves on to the byte before
        rng = np.random.default_rng(42)
        freqs = rng.integers(1, 256, 300).tolist()
        cums = [2 ** 32 - f - d for f, d in
                zip(freqs, rng.integers(0, 256, 300).tolist())]
        into = []
        carry = protocol._carry

        def spy(out):
            into.append(out[-1])
            carry(out)

        monkeypatch.setattr(protocol, "_carry", spy)
        stream = protocol._range_encode(cums, freqs)
        assert 0xFF in into
        dec = protocol._RangeDecoder(stream)
        for c, f in zip(cums, freqs):
            assert c <= dec.target() < c + f
            dec.consume(c, f)

    def test_empty_and_free_symbols(self):
        assert protocol._range_encode([], []).nbits == 0
        assert protocol._range_encode([0] * 5, [2 ** 32 - 1] * 5).nbits == 0
