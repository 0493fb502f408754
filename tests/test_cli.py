import builtins
import hashlib
import json
import math
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import latcomm.babai
import latcomm.cli
from latcomm.cli import main

HEX_MATRIX = {"n": 2, "columns": [[1, 0], ["1/2", math.sqrt(3) / 2]]}
SKEW5_MATRIX = {"n": 2, "columns": [[5, 0], [3, 1]]}
RATIO311_MATRIX = {"n": 2, "columns": [[1, 0], ["311/1000", "101/100"]]}
UNIFORM = {"dist": "uniform", "lo": 0, "hi": 1}
# a 400-digit JSON integer, beyond the largest float
BEYOND_FLOATS = int("9" * 400)


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_skewed_basis(self, capsys, files):
        m = files("m.json", SKEW5_MATRIX)
        code, out, err = run(capsys, "reduce", "--matrix", m)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["canonical"]["a"] == pytest.approx(0.0, abs=1e-12)
        assert doc["canonical"]["b"] == pytest.approx(1.0, abs=1e-12)
        assert doc["scale"] == pytest.approx(math.sqrt(5))
        assert doc["reduced"]["n"] == 2

    def test_hexagonal(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, _ = run(capsys, "reduce", "--matrix", m)
        doc = json.loads(out)
        assert doc["canonical"]["a"] == pytest.approx(0.5, abs=1e-12)
        assert doc["canonical"]["b"] == pytest.approx(math.sqrt(3) / 2,
                                                      abs=1e-12)

    def test_identity(self, capsys, files):
        m = files("m.json", {"n": 2, "columns": [[1, 0], [0, 1]]})
        code, out, _ = run(capsys, "reduce", "--matrix", m)
        doc = json.loads(out)
        assert doc["canonical"] == {"a": 0.0, "b": 1.0}
        assert doc["scale"] == 1.0

    def test_rational_matrix_prints_float_columns(self, capsys, files):
        m = files("m.json", RATIO311_MATRIX)
        code, out, err = run(capsys, "reduce", "--matrix", m)
        assert (code, err) == (0, "")
        assert json.loads(out)["reduced"] == {
            "n": 2, "columns": [[1.0, 0.0], [0.311, 1.01]]}
        assert '"311/1000"' not in out

    def test_non_2d_rejected(self, capsys, files):
        m = files("m.json", {"n": 3, "columns": [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]})
        code, out, err = run(capsys, "reduce", "--matrix", m)
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip()


class TestRounding:
    def test_babai_match(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, _ = run(capsys, "babai", "--matrix", m, "--x", "0.9,0.8")
        doc = json.loads(out)
        assert doc == {"coeffs": [0, 1],
                       "point": [0.5, math.sqrt(3) / 2],
                       "match": True}

    def test_babai_mismatch(self, capsys, files):
        m = files("m.json", SKEW5_MATRIX)
        code, out, _ = run(capsys, "babai", "--matrix", m, "--x", "2.4,0")
        doc = json.loads(out)
        assert doc["coeffs"] == [0, 0]
        assert doc["match"] is False

    def test_cvp(self, capsys, files):
        m = files("m.json", SKEW5_MATRIX)
        code, out, _ = run(capsys, "cvp", "--matrix", m, "--x", "2.4,0")
        doc = json.loads(out)
        assert doc["coeffs"] == [1, -1]
        assert doc["point"] == [2.0, -1.0]
        assert doc["match"] is False

    def test_zero_target(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        for cmd in ("babai", "cvp"):
            code, out, _ = run(capsys, cmd, "--matrix", m, "--x", "0,0")
            doc = json.loads(out)
            assert doc["coeffs"] == [0, 0] and doc["match"] is True

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_match_compares_coefficients_at_any_scale(self, capsys, files,
                                                      scale):
        # skew5 scaled: the two answers differ by a whole lattice vector,
        # however short it is
        m = files("m.json", {"n": 2, "columns": [[5 * scale, 0],
                                                 [3 * scale, scale]]})
        x = f"{2.4 * scale!r},0"
        expected = {"babai": [0, 0], "cvp": [1, -1]}
        for cmd, coeffs in expected.items():
            code, out, _ = run(capsys, cmd, "--matrix", m, "--x", x)
            doc = json.loads(out)
            assert code == 0 and doc["coeffs"] == coeffs
            assert doc["match"] is False, cmd

    @pytest.mark.parametrize("cmd", ["babai", "cvp"])
    def test_each_solver_runs_once(self, cmd, capsys, files, monkeypatch):
        calls = {}

        def counted(f):
            def wrapper(*args, **kwargs):
                calls[f.__name__] = calls.get(f.__name__, 0) + 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("nearest_plane", "cvp_bruteforce_batch"):
            monkeypatch.setattr(latcomm.cli, name,
                                counted(getattr(latcomm.cli, name)))
        m = files("m.json", SKEW5_MATRIX)
        code, _, _ = run(capsys, cmd, "--matrix", m, "--x", "2.4,0")
        assert code == 0
        assert calls == {"nearest_plane": 1, "cvp_bruteforce_batch": 1}

    def test_dimension_mismatch(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, _, err = run(capsys, "babai", "--matrix", m, "--x", "1,2,3")
        assert code == 1 and err.startswith("error:")

    def test_coefficient_out_of_range(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, err = run(capsys, "babai", "--matrix", m,
                             "--x", "1e20,3e19")
        assert code == 1 and out == "" and "2**52" in err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestPerror:
    def test_analytic_hexagonal(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, _ = run(capsys, "perror", "--matrix", m,
                           "--method", "analytic")
        doc = json.loads(out)
        assert abs(doc["pe"] - 1 / 12) <= 1e-9
        assert doc["a"] == pytest.approx(0.5, abs=1e-12)

    def test_area_hexagonal(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, _ = run(capsys, "perror", "--matrix", m,
                           "--method", "area")
        assert abs(json.loads(out)["pe"] - 1 / 12) <= 1e-9

    def test_mc_seeded(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, _ = run(capsys, "perror", "--matrix", m, "--method", "mc",
                           "--samples", "20000", "--seed", "5")
        doc = json.loads(out)
        assert abs(doc["pe"] - 1 / 12) <= 4 * doc["std_error"]
        assert doc["n_samples"] == 20000 and doc["seed"] == 5

    def test_mc_on_unreduced_basis_at_large_scale(self, capsys, files):
        # 1e103 [[1,1,0],[0,1e-6,0],[0,0,1]]: the given basis needs about
        # 10^6 search nodes per sample, its reduced one is orthogonal
        cols = [[1e103, 0, 0], [1e103, 1e97, 0], [0, 0, 1e103]]
        m = files("m.json", {"n": 3, "columns": cols})
        start = time.perf_counter()
        code, out, err = run(capsys, "perror", "--matrix", m, "--method", "mc",
                             "--samples", "2000")
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        assert json.loads(out)["pe"] == 0.0

    def test_csv_output(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, out, _ = run(capsys, "perror", "--matrix", m,
                           "--method", "analytic", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "a,b,pe_analytic,pe_exact,pe_mc,mc_stderr"
        fields = lines[1].split(",")
        assert fields[2] == "0.0833333333333"
        assert fields[3] == "" and fields[4] == ""

    def test_csv_columns_per_method(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        filled = {"analytic": [2], "area": [3], "mc": [4, 5]}
        for method, columns in filled.items():
            code, out, _ = run(capsys, "perror", "--matrix", m, "--method",
                               method, "--samples", "2000", "--format", "csv")
            fields = out.splitlines()[1].split(",")
            assert fields[:2] == ["0.5", "0.866025403784"]
            assert [i for i in range(2, 6) if fields[i] != ""] == columns

    def test_rectangular_is_exactly_zero(self, capsys, files):
        # skew5 reduces to a rectangular lattice: a is 0, not float noise
        m = files("m.json", SKEW5_MATRIX)
        code, out, _ = run(capsys, "perror", "--matrix", m,
                           "--method", "analytic")
        doc = json.loads(out)
        assert code == 0 and doc["a"] == 0.0 and doc["pe"] == 0.0

    def test_area_on_near_singular_bases_in_bounded_memory(self, capsys, files):
        # a Voronoi candidate box sized by ||w2|| / ||w1|| asked numpy for
        # 74.5 GiB on diag(1, 1e-9) and 8.94 GiB on the rotated basis
        Q = np.array([[0.6, -0.8], [0.8, 0.6]])
        for M in (np.diag([1.0, 1e-9]), Q @ np.array([[1.0, 1.0], [0.0, 1e-8]])):
            m = files("m.json", {"n": 2, "columns": M.T.tolist()})
            tracemalloc.start()
            try:
                code, out, err = run(capsys, "perror", "--matrix", m,
                                     "--method", "area")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, err) == (0, "") and peak < 64 << 20
            doc = json.loads(out)
            F = (doc["a"] - doc["a"] ** 2) / (4 * doc["b"] ** 2)
            assert abs(doc["pe"] - F) <= 1e-9
            if M[1, 0] == 0.0:
                assert doc["pe"] == 0.0

    def test_analytic_needs_2d(self, capsys, files):
        m = files("m.json", {"n": 3, "columns": [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]})
        code, _, err = run(capsys, "perror", "--matrix", m,
                           "--method", "analytic")
        assert code == 1 and err.startswith("error:")

    def test_mc_works_in_3d(self, capsys, files):
        m = files("m.json", {"n": 3, "columns": [[1, 0, 0], [0.3, 1.1, 0],
                                                 [0.2, 0.4, 0.9]]})
        code, out, _ = run(capsys, "perror", "--matrix", m, "--method", "mc",
                           "--samples", "5000")
        assert code == 0
        assert 0.0 <= json.loads(out)["pe"] <= 1.0


class TestLevelcurves:
    def test_default_levels(self, capsys):
        code, out, _ = run(capsys, "levelcurves", "--grid", "12")
        lines = out.splitlines()
        assert lines[0] == "a,b,pe_analytic,pe_exact,pe_mc,mc_stderr"
        rows = [ln.split(",") for ln in lines[1:]]
        # six levels: the zero boundary, four interior curves, the maximum
        ks = sorted({row[2] for row in rows})
        assert "0" in ks and "0.0833333333333" in ks
        single = [r for r in rows if r[2] == "0.0833333333333"]
        assert len(single) == 1
        for row in rows:
            assert row[4] == "" and row[5] == ""

    def test_analytic_matches_exact_on_curves(self, capsys):
        code, out, _ = run(capsys, "levelcurves", "--k", "0.04", "--grid", "9")
        for line in out.splitlines()[1:]:
            f = line.split(",")
            assert abs(float(f[2]) - 0.04) < 1e-9
            assert abs(float(f[3]) - 0.04) < 1e-9

    def test_mc_column_optional(self, capsys):
        code, out, _ = run(capsys, "levelcurves", "--k", "0.06", "--grid", "3",
                           "--samples", "2000")
        for line in out.splitlines()[1:]:
            f = line.split(",")
            assert f[4] != "" and f[5] != ""
            assert abs(float(f[4]) - 0.06) < 5 * (float(f[5]) + 1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "levelcurves", "--k", "1/12",
                           "--format", "json")
        doc = json.loads(out)
        assert len(doc["points"]) == 1

    def test_k_out_of_range(self, capsys):
        code, _, err = run(capsys, "levelcurves", "--k", "0.2")
        assert code == 1 and err.startswith("error:")

    def test_subnormal_level_drops_infinite_b(self, capsys):
        # b = sqrt((a - a^2) / 4k) overflows near a = 1/2; those points lie
        # outside the region and are dropped, with no warning on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "levelcurves", "--k", "1e-310")
        assert (code, err, caught) == (0, "", [])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows and all(math.isfinite(float(r[1])) for r in rows)

    def test_subnormal_level_on_long_basis(self, capsys):
        # b = 1.1e154 squares beyond the float range; the analytic P_e is
        # still the level, not 0
        code, out, err = run(capsys, "levelcurves", "--k", "1e-310",
                             "--grid", "10")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        long_b = [r for r in rows if float(r[1]) > 1e150]
        assert [r[:3] for r in long_b] == [
            ["0.0555555555556", "1.14530711823e+154", "1e-310"]]
        assert all(r[2] == "1e-310" for r in rows)

    @pytest.mark.parametrize("argv, message", [
        (["--k", "0", "--grid", "0"], "--grid must be at least 1"),
        (["--k", "0.01", "--grid", "0"], "--grid must be at least 1"),
        (["--k", "0.01", "--samples", "-5"], "--samples must be non-negative"),
    ])
    def test_counts_checked_for_every_level(self, argv, message, capsys):
        # checked before any level, the zero level included; a negative
        # sample count is an error, not "no Monte Carlo"
        assert run(capsys, "levelcurves", *argv) == (1, "",
                                                     f"error: {message}\n")


class TestSimulate:
    def test_fixed_target_golden(self, capsys, files):
        sc = files("sc.json", {"matrix": RATIO311_MATRIX, "alpha": 1.0,
                               "model": "centralized", "x": [1.0, 1.0],
                               "trials": 1, "seed": 0})
        code, out, _ = run(capsys, "simulate", "--scenario", sc)
        doc = json.loads(out)
        assert doc["babai_match_count"] == 1
        assert doc["side_info_bits_per_trial"] == 10
        assert doc["side_info_bound_bits"] == pytest.approx(
            math.log2(1000), abs=1e-9)
        msg = doc["sample_transcript"]["messages"][0]
        assert msg["payload"] == {"b_tilde": 1, "s": 500}
        assert doc["sample_transcript"]["decoded"]["0"] == [1, 1]

    def test_centralized_sources(self, capsys, files):
        sc = files("sc.json", {
            "matrix": HEX_MATRIX, "alpha": 1.0, "model": "centralized",
            "sources": [{"dist": "uniform", "lo": -2, "hi": 2},
                        {"dist": "uniform", "lo": -2, "hi": 2}],
            "trials": 100, "seed": 3})
        code, out, _ = run(capsys, "simulate", "--scenario", sc)
        doc = json.loads(out)
        assert doc["babai_match_count"] == 100
        assert doc["side_info_bits_per_trial"] == 1
        assert doc["analytic_rate_bound"] == pytest.approx(
            2.0 - math.log2(math.sqrt(3) / 2) + 1.0 + 2.0, abs=1e-9)

    def test_interactive_sources(self, capsys, files):
        sc = files("sc.json", {
            "matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
            "alpha": 2.0 ** -6, "model": "interactive",
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1},
                        {"dist": "uniform", "lo": 0, "hi": 1}],
            "trials": 4000, "seed": 1})
        code, out, _ = run(capsys, "simulate", "--scenario", sc)
        doc = json.loads(out)
        assert doc["babai_match_count"] == 4000
        assert doc["analytic_rate_bound"] == pytest.approx(12.0)
        assert abs(doc["empirical_rate_bits"] - 12.0) < 1.0
        assert len(doc["sample_transcript"]["messages"]) == 2

    @pytest.mark.parametrize("model", ["centralized", "interactive"])
    def test_builds_the_scaled_basis_once(self, model, capsys, files,
                                          monkeypatch):
        # Lambda from the scenario and alpha * Lambda, shared by the CLI
        # and the protocol
        init = latcomm.GeneratorMatrix.__init__
        built = []

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(latcomm.GeneratorMatrix, "__init__", counting)
        sc = files("sc.json", {
            "matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
            "alpha": 2.0 ** -6, "model": model,
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 2,
            "trials": 20, "seed": 1})
        code, _, _ = run(capsys, "simulate", "--scenario", sc)
        assert code == 0 and len(built) == 2

    @staticmethod
    def _shift_kernel_row(monkeypatch):
        """Replace the nearest-plane kernel at every namespace that binds it
        with one that moves the last row of each batch by one step."""
        original = latcomm.babai.nearest_plane

        def shifted(V, X, method="auto"):
            res = original(V, X, method)
            if res.coeffs.ndim == 2 and len(res.coeffs):
                res.coeffs[-1, 0] += 1
            return res

        for name, module in list(sys.modules.items()):
            if name == "latcomm" or name.startswith("latcomm."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, shifted)

    @pytest.mark.parametrize("model", ["centralized", "interactive"])
    def test_match_count_sees_a_kernel_fault(self, model, capsys, files,
                                             monkeypatch):
        # each model is checked against code it does not share: the
        # centralized decode against the kernel, the interactive kernel
        # against the integer decode on alpha * Lambda
        sc = files("sc.json", {
            "matrix": {"n": 3, "columns": [[1, 0, 0], ["1/2", "3/4", 0],
                                           ["1/3", "-1/5", "5/4"]]},
            "alpha": 2.0 ** -6, "model": model,
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 3,
            "trials": 50, "seed": 4})
        _, out, _ = run(capsys, "simulate", "--scenario", sc)
        assert json.loads(out)["babai_match_count"] == 50
        self._shift_kernel_row(monkeypatch)
        _, out, _ = run(capsys, "simulate", "--scenario", sc)
        assert json.loads(out)["babai_match_count"] == 49

    def test_interactive_match_count_null_without_ratios(self, capsys,
                                                         files):
        scenario = {
            "matrix": {"n": 2, "columns": [[1, 0], [0.311, 1.01]]},
            "alpha": 0.25, "model": "interactive",
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 2,
            "trials": 20, "seed": 2}
        code, out, _ = run(capsys, "simulate", "--scenario",
                           files("sc.json", scenario))
        doc = json.loads(out)
        assert code == 0 and doc["babai_match_count"] is None
        assert doc["mean_total_bits"] > 0
        scenario["model"] = "centralized"
        code, _, err = run(capsys, "simulate", "--scenario",
                           files("sc2.json", scenario))
        assert code == 1 and "exact rational" in err

    def test_interactive_match_count_null_beyond_decoder_range(self, capsys,
                                                               files):
        # the kernel rounds (0, 2^51); node 1's x/v = 2^53 is outside the
        # integer decode's domain, so the check cannot run
        scenario = {"matrix": {"n": 2, "columns": [[1, 0], [4, 1]]},
                    "alpha": 1.0, "model": "interactive",
                    "x": [2.0 ** 53, 2.0 ** 51], "trials": 3}
        code, out, _ = run(capsys, "simulate", "--scenario",
                           files("sc.json", scenario))
        doc = json.loads(out)
        assert code == 0 and doc["babai_match_count"] is None
        assert doc["sample_transcript"]["decoded"]["1"] == [0, 2 ** 51]
        scenario["model"] = "centralized"
        code, _, err = run(capsys, "simulate", "--scenario",
                           files("sc2.json", scenario))
        assert code == 1 and "2**52" in err

    @pytest.mark.parametrize("model", ["centralized", "interactive"])
    def test_fixed_target_keeps_the_varint(self, model, capsys, files):
        # a replayed target has no source model, even where the scenario
        # names sources: its output is byte for byte the varint count
        sc = files("sc.json", {
            "matrix": RATIO311_MATRIX, "alpha": 0.5, "model": model,
            "x": [1.0, -2.75], "trials": 3,
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 2})
        _, out, _ = run(capsys, "simulate", "--scenario", sc)
        common = {"alpha": 0.5, "babai_match_count": 3, "model": model,
                  "seed": 0, "trials": 3}
        decoded = [4, -5]
        if model == "centralized":
            expected = dict(
                common, analytic_rate_bound=11.951428991685017,
                mean_total_bits=26.0, side_info_bits_per_trial=10,
                side_info_bound_bits=9.965784284662087,
                sample_transcript={
                    "decoded": {"0": decoded},
                    "messages": [
                        {"bits": 18, "from": 1, "to": [0],
                         "payload": {"b_tilde": 2, "s": 500}},
                        {"bits": 8, "from": 2, "to": [0],
                         "payload": {"b_tilde": -5, "s": 0}}],
                    "model": model, "total_bits": 26})
        else:
            expected = dict(
                common, analytic_rate_bound=1.98564470702293,
                empirical_entropy_bits=[-0.0, -0.0], empirical_rate_bits=0.0,
                mean_total_bits=16.0,
                sample_transcript={
                    "decoded": {"1": decoded, "2": decoded},
                    "messages": [
                        {"bits": 8, "from": 2, "to": [1],
                         "payload": {"u": -5}},
                        {"bits": 8, "from": 1, "to": [2],
                         "payload": {"u": 4}}],
                    "model": model, "total_bits": 16})
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_gaussian_sources_run(self, capsys, files):
        sc = files("sc.json", {
            "matrix": HEX_MATRIX, "alpha": 0.5, "model": "centralized",
            "sources": [{"dist": "gaussian", "mean": 0, "sigma": 2},
                        {"dist": "gaussian", "mean": 0, "sigma": 2}],
            "trials": 50, "seed": 9})
        code, out, _ = run(capsys, "simulate", "--scenario", sc)
        assert json.loads(out)["babai_match_count"] == 50

    @pytest.mark.parametrize("alpha", [-1, 0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha, capsys, files):
        # a fixed x once ran the centralized model quietly on -Lambda, and
        # sources failed in the rate bound with "math domain error"
        sources = [{"dist": "uniform", "lo": 0, "hi": 1}] * 2
        for extra, commands in (({"x": [1.0, 1.0]}, ["simulate"]),
                                ({"sources": sources}, ["simulate", "rates"])):
            sc = files("sc.json", dict(extra, matrix=RATIO311_MATRIX,
                                       model="centralized", trials=3,
                                       alpha=alpha))
            for command in commands:
                code, out, err = run(capsys, command, "--scenario", sc)
                assert (code, out) == (1, "")
                assert err == "error: alpha must be a positive finite scale\n"

    @pytest.mark.parametrize("trials", [2.7, "3", None])
    def test_trials_must_be_an_integer(self, trials, capsys, files):
        sc = files("sc.json", {"matrix": RATIO311_MATRIX, "x": [1.0, 1.0],
                               "model": "centralized", "trials": trials})
        code, out, err = run(capsys, "simulate", "--scenario", sc)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [2.7, "3", -1, -1.0, None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed, capsys, files):
        # a seed is neither truncated, parsed from a string nor left to
        # numpy's key check
        sources = [{"dist": "uniform", "lo": 0, "hi": 1}] * 2
        sc = files("sc.json", {"matrix": RATIO311_MATRIX, "sources": sources,
                               "model": "centralized", "trials": 3,
                               "seed": seed})
        code, out, err = run(capsys, "simulate", "--scenario", sc)
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer\n"

    def test_integral_float_seed_accepted(self, capsys, files):
        sources = [{"dist": "uniform", "lo": 0, "hi": 1}] * 2
        outs = []
        for seed in (3, 3.0):
            sc = files("sc.json", {"matrix": RATIO311_MATRIX,
                                   "sources": sources, "model": "centralized",
                                   "trials": 3, "seed": seed})
            code, out, _ = run(capsys, "simulate", "--scenario", sc)
            assert code == 0 and json.loads(out)["seed"] == 3
            outs.append(out)
        assert outs[0] == outs[1]

    def test_integral_float_trials_accepted(self, capsys, files):
        sc = files("sc.json", {"matrix": RATIO311_MATRIX, "x": [1.0, 1.0],
                               "model": "centralized", "trials": 4.0})
        code, out, _ = run(capsys, "simulate", "--scenario", sc)
        assert code == 0 and json.loads(out)["trials"] == 4

    def test_missing_sources_and_x(self, capsys, files):
        sc = files("sc.json", {"matrix": HEX_MATRIX,
                               "model": "centralized", "trials": 5})
        code, _, err = run(capsys, "simulate", "--scenario", sc)
        assert code == 1 and err.startswith("error:")

    def test_bad_model(self, capsys, files):
        sc = files("sc.json", {"matrix": HEX_MATRIX, "model": "gossip",
                               "x": [0, 0]})
        code, _, err = run(capsys, "simulate", "--scenario", sc)
        assert code == 1 and err.startswith("error:")


class TestRates:
    def test_both_models(self, capsys, files):
        sc = files("sc.json", {
            "matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
            "alpha": 2.0 ** -10,
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1},
                        {"dist": "uniform", "lo": 0, "hi": 1}]})
        code, out, _ = run(capsys, "rates", "--scenario", sc)
        doc = json.loads(out)
        assert doc["interactive_rate"] == pytest.approx(20.0)
        assert doc["centralized_rate_bound"] == pytest.approx(20.0)
        assert doc["side_info_bits_ceil"] == 0

    def test_missing_rationals_reported_null(self, capsys, files):
        sc = files("sc.json", {
            "matrix": {"n": 2, "columns": [[1, 0], [0.311, 1.01]]},
            "alpha": 1.0,
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1},
                        {"dist": "uniform", "lo": 0, "hi": 1}]})
        code, out, _ = run(capsys, "rates", "--scenario", sc)
        doc = json.loads(out)
        assert doc["centralized_rate_bound"] is None
        assert doc["interactive_rate"] is not None

    def test_non_triangular_basis_reported_null(self, capsys, files):
        sc = files("sc.json", {"matrix": {"n": 2, "columns": [[3, 4], [1, 2]]},
                               "alpha": 1.0, "sources": [UNIFORM] * 2})
        code, out, _ = run(capsys, "rates", "--scenario", sc)
        assert code == 0
        assert json.loads(out) == {
            "centralized_rate_bound": None, "side_info_bound_bits": None,
            "side_info_bits_ceil": None, "interactive_rate": None}


_builtin_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """builtin sum() as Python 3.12 computes it: a sum of floats (and ints)
    carries a Neumaier compensation term; ints alone, and anything else,
    add plainly."""
    items = list(iterable)
    types = {type(v) for v in [start, *items]}
    if float not in types or not types <= {int, float}:
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for v in map(float, items):
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


class TestSumRule:
    """Every float that `simulate` and `rates` print is added left to right,
    so its bits do not depend on the Python version's builtin sum(): the
    four benchmark scenarios print the same bytes under 3.12's rule."""

    UNIFORM2 = [UNIFORM] * 2
    SCENARIOS = {
        "readme": {"matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
                   "alpha": 2.0 ** -10, "sources": UNIFORM2},
        "ratio311": {"matrix": RATIO311_MATRIX, "alpha": 2.0 ** -8,
                     "sources": UNIFORM2},
        "tri3": {"matrix": {"n": 3, "columns": [[1, 0, 0], ["1/2", "3/4", 0],
                                                ["1/3", "-1/5", "5/4"]]},
                 "alpha": 2.0 ** -6, "sources": [UNIFORM] * 3},
        "gaussian": {"matrix": {"n": 2, "columns": [[1, 0], ["1/2", "7/8"]]},
                     "alpha": 2.0 ** -10,
                     "sources": [{"dist": "gaussian", "mean": 0,
                                  "sigma": 1}] * 2},
    }

    def outputs(self, capsys, files):
        outs = []
        for name, sc in self.SCENARIOS.items():
            for model in ("centralized", "interactive"):
                path = files("sc.json", dict(sc, model=model, trials=100,
                                             seed=11))
                outs.append(run(capsys, "simulate", "--scenario", path))
            outs.append(run(capsys, "rates", "--scenario",
                            files("sc.json", sc)))
        return outs

    def test_compensated_sum_prints_the_same_bytes(self, capsys, files,
                                                   monkeypatch):
        plain = self.outputs(capsys, files)
        assert all(code == 0 for code, _, _ in plain)
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # the patch is live
        assert self.outputs(capsys, files) == plain


class TestOneLineErrors:
    """Input outside the supported domain fails with exactly one `error:`
    line and nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["levelcurves", "--k", ","], "--k must list at least one level"),
        (["levelcurves", "--k", "-0.1"], "k out of range: -0.1"),
        (["levelcurves", "--k", "0.01,1/0"],
         "--k: '1/0' is not a finite number"),
        (["levelcurves", "--k", "1e400"],
         "--k: '1e400' is not a finite number"),
        # nonzero levels whose floats are 0.0, not drawn as the zero level
        (["levelcurves", "--k", "1e-400", "--grid", "3"],
         "--k: '1e-400' is below the float range"),
        (["levelcurves", "--k=-1e-400", "--grid", "2"],
         "--k: '-1e-400' is below the float range"),
    ])
    def test_arguments(self, argv, message, capsys):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("cmd", ["babai", "cvp"])
    def test_target_entry_named(self, cmd, capsys, files):
        m = files("m.json", HEX_MATRIX)
        assert run(capsys, cmd, "--matrix", m, "--x", "1, abc") == (
            1, "", "error: --x: 'abc' is not a finite number\n")

    @pytest.mark.parametrize("argv", [
        ["reduce", "--matrix"], ["babai", "--x", "0,0", "--matrix"],
        ["perror", "--matrix"], ["simulate", "--scenario"],
        ["rates", "--scenario"]])
    def test_file_that_is_not_json_named(self, argv, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text("latcomm")
        assert run(capsys, *argv, str(path)) == (
            1, "", f"error: {path} is not JSON: Expecting value: line 1 "
            "column 1 (char 0)\n")

    @pytest.mark.parametrize("k", [10, 20])
    def test_tie_beyond_the_floats(self, k, capsys, files):
        # the tie on the long level widens the short one to about
        # sqrt(2e-9) 10^(2k) offsets: at k = 10 the search asked for
        # 77.8 PiB, at k = 20 its count overflowed into a RuntimeWarning
        m = files("m.json", {"n": 2, "columns": [[10.0 ** -k, 0],
                                                 [0, 10.0 ** k]]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(capsys, "cvp", "--matrix", m,
                         "--x", f"0,{10.0 ** k / 2!r}")
        assert caught == []
        assert result == (1, "", "error: target lies at a tie that the "
                          "floats cannot resolve: its search would pass "
                          "2097152 nodes on one level\n")

    def test_resolvable_tie_on_a_spread_frame_answers(self, capsys, files):
        # the same tie at k = 5 takes 1.1 million nodes, and the tie rule
        # picks the lexicographically smallest coefficients
        m = files("m.json", {"n": 2, "columns": [[1e-5, 0], [0, 1e5]]})
        code, out, err = run(capsys, "cvp", "--matrix", m, "--x", "0,5e4")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"coeffs": [0, 0], "match": False,
                                   "point": [0.0, 0.0]}

    def test_csv_needs_a_2d_basis(self, capsys, files, monkeypatch):
        # refused before any sampling, each method with its own message
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the dimension check")

        monkeypatch.setattr(latcomm.cli, "monte_carlo_pe", no_sampling)
        m = files("m.json", {"n": 3, "columns": [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]})
        for method, message in [("mc", "CSV P_e output needs a 2D basis"),
                                ("analytic", "analytic P_e needs a 2D basis"),
                                ("area", "area computation needs n = 2")]:
            assert run(capsys, "perror", "--matrix", m, "--method", method,
                       "--samples", "100", "--format", "csv") == (
                1, "", f"error: {message}\n")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_mc_samples_named(self, samples, capsys, files):
        # by the flag, not by the library's parameter name
        m = files("m.json", HEX_MATRIX)
        assert run(capsys, "perror", "--matrix", m, "--method", "mc",
                   "--samples", samples) == (
            1, "", "error: --samples must be at least 1\n")

    @pytest.mark.parametrize("argv", [
        ["reduce"], ["perror", "--method", "analytic"],
        ["perror", "--method", "area"], ["perror", "--method", "mc"]])
    def test_reduced_basis_out_of_range_named(self, argv, capsys, files):
        # squared norms 3.0e-299 and |det| 3.3e-308 lie in the range, but
        # the Lagrange-Gauss vector (0, 6.05e-159) has a squared norm
        # below the smallest normal float
        m = files("m.json", {"n": 2, "columns": [[5.5e-150, 0],
                                                 [5.5e-150, 6.05e-159]]})
        assert run(capsys, "babai", "--matrix", m, "--x", "0,0")[0] == 0
        assert run(capsys, *argv, "--matrix", m) == (
            1, "", "error: Lagrange-Gauss reduced basis: basis magnitude out "
            "of range: squared column norms and |det| must lie in "
            "[2.23e-308, 2.74e+303]\n")

    def test_matrix_entry_must_be_a_number(self, capsys, files):
        m = files("m.json", {"n": 2, "columns": [[1, 0], [[1], 1]]})
        assert run(capsys, "reduce", "--matrix", m) == (
            1, "", "error: bad matrix entry [1]\n")

    @pytest.mark.parametrize("entry", [
        BEYOND_FLOATS, "1e400", "1" + "0" * 400 + "/3"],
        ids=["integer", "decimal", "ratio"])
    def test_matrix_entry_beyond_the_floats(self, entry, capsys, files):
        # an exact entry that no float holds is named, not left to the
        # float conversion's own message
        m = files("m.json", {"n": 2, "columns": [[1, 0], [entry, 1]]})
        assert run(capsys, "reduce", "--matrix", m) == (
            1, "", f"error: matrix entry {entry!r} is beyond the floats\n")

    @pytest.mark.parametrize("scenario, commands, message", [
        ({"x": [0, 0]}, ("simulate", "rates"), 'scenario needs a "matrix"'),
        ({"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 3},
         ("simulate", "rates"), "scenario needs one source per coordinate"),
        ({"matrix": RATIO311_MATRIX, "x": [1.0, 1.0], "trials": 0},
         ("simulate",), "trials must be positive"),
        ({"matrix": RATIO311_MATRIX, "x": [1.0]}, ("simulate",),
         'scenario "x" needs 2 numbers'),
        ({"matrix": RATIO311_MATRIX, "x": [1.0, 1.0]}, ("rates",),
         'rates needs scenario "sources"'),
        # JSON true is not the number 1
        ({"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 2,
          "trials": True}, ("simulate",),
         "trials must be an integer, got True"),
        ({"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 2, "alpha": True},
         ("simulate", "rates"), "alpha must be a positive finite scale"),
        ({"matrix": RATIO311_MATRIX,
          "sources": [dict(UNIFORM, hi=True), UNIFORM]},
         ("simulate", "rates"), "source parameters must be numbers"),
        ({"matrix": RATIO311_MATRIX,
          "sources": [UNIFORM, {"dist": "gaussian", "sigma": True}]},
         ("simulate", "rates"), "source parameters must be numbers"),
        # nor is a string that float() would read as one
        ({"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 2,
          "alpha": "0.0009765625"},
         ("simulate", "rates"), "alpha must be a positive finite scale"),
        ({"matrix": RATIO311_MATRIX,
          "sources": [dict(UNIFORM, lo="0"), UNIFORM]},
         ("simulate", "rates"), "source parameters must be numbers"),
        ({"matrix": RATIO311_MATRIX, "x": ["1.0", "1e0"]}, ("simulate",),
         'scenario "x" needs 2 numbers'),
        ({"matrix": RATIO311_MATRIX, "x": [True, 1.0]}, ("simulate",),
         'scenario "x" needs 2 numbers'),
        ({"matrix": RATIO311_MATRIX, "x": "12"}, ("simulate",),
         'scenario "x" needs 2 numbers'),
        ({"matrix": {"n": True, "columns": [[2]]}, "x": [1.0]},
         ("simulate", "rates"), 'matrix JSON: "n" must be an integer'),
        ({"matrix": RATIO311_MATRIX, "sources": [
            {"dist": "gaussian", "mean": math.nan}, UNIFORM]},
         ("simulate", "rates"), "gaussian source needs a finite mean"),
        ({"matrix": RATIO311_MATRIX, "sources": [
            UNIFORM, dict(UNIFORM, lo=-math.inf)]},
         ("simulate", "rates"), "uniform source needs a finite lo"),
        ({"matrix": RATIO311_MATRIX, "x": [1.0, 1.0], "trials": "abc"},
         ("simulate",), "trials must be an integer, got 'abc'"),
        # an integer beyond the floats is named as 1e309 is
        ({"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 2,
          "alpha": BEYOND_FLOATS},
         ("simulate", "rates"), "alpha must be a positive finite scale"),
        ({"matrix": RATIO311_MATRIX,
          "sources": [dict(UNIFORM, hi=BEYOND_FLOATS), UNIFORM]},
         ("simulate", "rates"), "uniform source needs a finite hi"),
        ({"matrix": RATIO311_MATRIX, "sources": [
            UNIFORM, {"dist": "gaussian", "mean": -BEYOND_FLOATS}]},
         ("simulate", "rates"), "gaussian source needs a finite mean"),
        ({"matrix": RATIO311_MATRIX, "x": [1.0, -BEYOND_FLOATS]},
         ("simulate",), 'scenario "x" needs 2 finite numbers'),
        ({"matrix": RATIO311_MATRIX, "x": [math.nan, 1.0]},
         ("simulate",), 'scenario "x" needs 2 finite numbers'),
        # a count that numpy cannot index, with a fixed x and with sources
        ({"matrix": RATIO311_MATRIX, "x": [1.0, 1.0], "trials": 1e300},
         ("simulate",), "trials must be below 2^63"),
        ({"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 2,
          "trials": 1e300}, ("simulate",), "trials must be below 2^63"),
        ({"matrix": RATIO311_MATRIX, "x": [1.0, 1.0], "trials": 2 ** 63},
         ("simulate",), "trials must be below 2^63"),
    ])
    def test_scenarios(self, scenario, commands, message, capsys, files):
        sc = files("sc.json", dict(scenario, model="centralized"))
        for command in commands:
            assert run(capsys, command, "--scenario", sc) == (
                1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [
        "simulate-scenario", "simulate-option", "perror", "levelcurves"])
    def test_seed_beyond_the_philox_key(self, command, capsys, files):
        # every command that samples names the seed, not numpy's key check:
        # simulate as the seed of its scenario or option, the Monte Carlo
        # commands as --seed, the flag it comes from
        seed = str(2 ** 128)
        scenario = {"matrix": RATIO311_MATRIX, "sources": [UNIFORM] * 2,
                    "model": "centralized", "trials": 3}
        argv = {
            "simulate-scenario": ["simulate", "--scenario", files(
                "seeded.json", dict(scenario, seed=2 ** 128))],
            "simulate-option": ["simulate", "--scenario",
                                files("sc.json", scenario), "--seed", seed],
            "perror": ["perror", "--matrix", files("m.json", HEX_MATRIX),
                       "--method", "mc", "--samples", "100", "--seed", seed],
            "levelcurves": ["levelcurves", "--k", "0.05", "--grid", "2",
                            "--samples", "100", "--seed", seed],
        }[command]
        message = ("seed must be below 2^128" if command.startswith("simulate")
                   else "--seed must lie in [0, 2^128), the Philox key range")
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["perror", "levelcurves"])
    def test_negative_seed_named_by_its_flag(self, command, capsys, files):
        argv = {
            "perror": ["perror", "--matrix", files("m.json", HEX_MATRIX),
                       "--method", "mc", "--samples", "100"],
            "levelcurves": ["levelcurves", "--k", "0.05", "--grid", "2",
                            "--samples", "100"],
        }[command]
        assert run(capsys, *argv, "--seed", "-1") == (
            1, "", "error: --seed must lie in [0, 2^128), the Philox key "
            "range\n")

    def test_largest_seed_runs(self, capsys, files):
        seed = 2 ** 128 - 1
        m = files("m.json", HEX_MATRIX)
        sc = files("sc.json", {"matrix": RATIO311_MATRIX, "seed": seed,
                               "sources": [UNIFORM] * 2,
                               "model": "centralized", "trials": 3})
        code, out, err = run(capsys, "simulate", "--scenario", sc)
        assert (code, err) == (0, "") and json.loads(out)["seed"] == seed
        code, out, err = run(capsys, "perror", "--matrix", m, "--method", "mc",
                             "--samples", "100", "--seed", str(seed))
        assert (code, err) == (0, "") and json.loads(out)["seed"] == seed
        code, out, err = run(capsys, "levelcurves", "--k", "0.05", "--grid",
                             "2", "--samples", "100", "--seed", str(seed))
        assert (code, err) == (0, "") and out.count("\n") == 3

    def test_number_beyond_the_floats(self, capsys, tmp_path):
        # JSON reads 1e309 as inf
        sc = tmp_path / "sc.json"
        sc.write_text('{"matrix": {"n": 1, "columns": [[1]]}, "model": '
                      '"centralized", "sources": [{"dist": "uniform", '
                      '"hi": 1e309}]}')
        for command in ("simulate", "rates"):
            assert run(capsys, command, "--scenario", str(sc)) == (
                1, "", "error: uniform source needs a finite hi\n")

    @pytest.mark.parametrize("sources, alpha, message", [
        # hi - lo and 2 pi e sigma^2 beyond the floats, sigma^2 below them
        ([{"dist": "uniform", "lo": -1e308, "hi": 1e308}, UNIFORM], 1.0,
         "uniform source needs a finite hi - lo"),
        ([UNIFORM, {"dist": "gaussian", "sigma": 1e154}], 1.0,
         "gaussian source needs 2 pi e sigma^2 within the floats"),
        ([{"dist": "gaussian", "sigma": 1e-200}, UNIFORM], 2.0 ** -10,
         "gaussian source needs 2 pi e sigma^2 within the floats"),
    ])
    def test_source_beyond_the_floats_named(self, sources, alpha, message,
                                            capsys, files):
        # an entropy that would print as Infinity, or fail as a log of
        # zero, is refused with the parameter that leaves the floats
        scenario = {"matrix": RATIO311_MATRIX, "alpha": alpha,
                    "sources": sources, "trials": 20, "seed": 1}
        for model in ("centralized", "interactive"):
            sc = files("sc.json", dict(scenario, model=model))
            for command in ("simulate", "rates"):
                assert run(capsys, command, "--scenario", sc) == (
                    1, "", f"error: {message}\n")

    @pytest.mark.parametrize("d, alpha", [(1e150, 1e300), (1e-150, 1e-300)])
    def test_cell_beyond_the_floats_named(self, d, alpha, capsys, files):
        # alpha |v_ii| of inf or 0 would print an infinite interactive rate
        sc = files("sc.json", {"matrix": {"n": 2, "columns": [[d, 0], [0, d]]},
                               "alpha": alpha, "sources": [UNIFORM] * 2})
        assert run(capsys, "rates", "--scenario", sc) == (
            1, "", "error: interactive rate needs every alpha |v_ii| to be a "
            "positive finite float\n")

    @pytest.mark.parametrize("d, alpha, cause", [
        (1e150, 1e300, "matrix entries must be finite"),
        (1e-150, 1e-300, "zero basis vector")])
    def test_scaled_basis_beyond_the_floats_named(self, d, alpha, cause,
                                                  capsys, files):
        # alpha * V overflows or underflows: one line that names alpha,
        # and no RuntimeWarning from the product
        for model in ("centralized", "interactive"):
            sc = files("sc.json", {
                "matrix": {"n": 2, "columns": [[d, 0], [0, d]]},
                "alpha": alpha, "x": [1.0, 1.0], "model": model})
            assert run(capsys, "simulate", "--scenario", sc) == (
                1, "", f"error: alpha = {alpha!r} scales the matrix out of "
                f"range: {cause}\n")

    def test_largest_sources_print_finite_rates(self, capsys, files):
        # the widest sources still in the floats print plain JSON numbers
        sc = files("sc.json", {
            "matrix": RATIO311_MATRIX,
            "sources": [{"dist": "uniform", "lo": -8e307, "hi": 8e307},
                        {"dist": "gaussian", "sigma": 1e153}]})
        code, out, err = run(capsys, "rates", "--scenario", sc)
        assert (code, err) == (0, "")
        assert "Infinity" not in out and "NaN" not in out
        assert all(math.isfinite(v) for v in json.loads(out).values())


class TestOutputContract:
    def test_deterministic_bytes(self, capsys, files, tmp_path):
        m = files("m.json", HEX_MATRIX)
        outs = []
        for name in ("o1.csv", "o2.csv"):
            path = str(tmp_path / name)
            code, _, _ = run(capsys, "levelcurves", "--k", "0.01,0.04",
                             "--grid", "10", "--samples", "1500",
                             "--out", path)
            assert code == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_cached_parser_matches_a_fresh_one(self, capsys, files,
                                              tmp_path, monkeypatch):
        # main() builds its parser once per process: calls in a row, across
        # subcommands, with and without --out and --format, give the bytes
        # of calls that each build their own parser
        m = files("m.json", HEX_MATRIX)
        sc = files("sc.json", {
            "matrix": RATIO311_MATRIX, "alpha": 0.25, "model": "interactive",
            "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 2,
            "trials": 20, "seed": 5})
        argvs = [
            ["perror", "--matrix", m, "--method", "mc", "--samples", "500",
             "--format", "csv"],
            ["simulate", "--scenario", sc, "--out", "{}.json"],
            ["reduce", "--matrix", m],
            ["levelcurves", "--k", "0.02", "--grid", "3", "--format", "json"],
            ["levelcurves", "--k", "-1"],
            ["perror", "--matrix", m],
            ["babai", "--matrix", m, "--x=0.3,0.4", "--out", "{}.b.json"],
            ["simulate", "--scenario", sc],
        ]

        def run_all(tag):
            results = []
            for argv in argvs:
                argv = [str(tmp_path / a.format(tag)) if "{}" in a else a
                        for a in argv]
                results.append(run(capsys, *argv))
            for name in ("{}.json", "{}.b.json"):
                results.append((tmp_path / name.format(tag)).read_bytes())
            return results

        cached = run_all("cached")
        assert latcomm.cli._build_parser() is latcomm.cli._build_parser()
        monkeypatch.setattr(latcomm.cli, "_build_parser",
                            latcomm.cli._build_parser.__wrapped__)
        assert cached == run_all("fresh")
        assert cached[4][0] == 1 and cached[1][1] == ""

    def test_out_file_written(self, capsys, files, tmp_path):
        m = files("m.json", HEX_MATRIX)
        path = str(tmp_path / "res.json")
        code, out, _ = run(capsys, "perror", "--matrix", m,
                           "--method", "analytic", "--out", path)
        assert code == 0 and out == ""
        assert abs(json.loads((tmp_path / "res.json").read_text())["pe"]
                   - 1 / 12) <= 1e-9

    def test_failure_leaves_no_file(self, capsys, files, tmp_path):
        m = files("m.json", {"n": 2, "columns": [[1, 0], [2, 0]]})
        path = str(tmp_path / "never.json")
        code, _, err = run(capsys, "perror", "--matrix", m,
                           "--method", "analytic", "--out", path)
        assert code == 1 and err.startswith("error:")
        assert not os.path.exists(path)
        assert list(tmp_path.glob(".latcomm-*")) == []

    def test_failed_rename_removes_the_temp_file(self, capsys, files,
                                                 tmp_path):
        # --out names a directory: the temp file is written, the rename
        # onto the directory fails, and the temp file is removed
        m = files("m.json", HEX_MATRIX)
        taken = tmp_path / "taken"
        taken.mkdir()
        code, out, err = run(capsys, "perror", "--matrix", m,
                             "--out", str(taken))
        assert (code, out) == (1, "")
        assert err == f"error: --out: {str(taken)!r}: Is a directory\n"
        assert list(tmp_path.glob(".latcomm-*")) == []
        assert taken.is_dir() and list(taken.iterdir()) == []

    def test_out_in_a_missing_directory_named(self, capsys, tmp_path):
        # the line names the --out path, not the temp file beside it, so
        # two runs print the same bytes
        path = str(tmp_path / "missing" / "x.csv")
        argv = ("levelcurves", "--grid", "2", "--out", path)
        first = run(capsys, *argv)
        assert first == run(capsys, *argv) == (
            1, "", f"error: --out: {path!r}: No such file or directory\n")
        assert list(tmp_path.rglob("*")) == []

    def test_missing_file_diagnostic(self, capsys):
        code, _, err = run(capsys, "babai", "--matrix", "/nonexistent.json",
                           "--x", "0,0")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_unknown_flag_rejected(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--matrix", "m.json", "--frob", "1"])
        assert exc.value.code == 2

    def test_seed_only_where_used(self, files):
        m = files("m.json", HEX_MATRIX)
        for argv in (["babai", "--matrix", m, "--x", "0,0"],
                     ["cvp", "--matrix", m, "--x", "0,0"],
                     ["reduce", "--matrix", m],
                     ["rates", "--scenario", m]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "1"])
            assert exc.value.code == 2

    def test_format_not_supported(self, files):
        # --format exists only where there are two formats: perror and
        # levelcurves
        m = files("m.json", HEX_MATRIX)
        for argv in (["babai", "--matrix", m, "--x", "0,0"],
                     ["cvp", "--matrix", m, "--x", "0,0"],
                     ["reduce", "--matrix", m],
                     ["simulate", "--scenario", m],
                     ["rates", "--scenario", m]):
            for fmt in ("json", "csv"):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--format", fmt])
                assert exc.value.code == 2


class TestMagnitudeDomain:
    """Every command either works or fails with one `error:` line at every
    scale, with no numpy warning; 2D bases work from 1e-150 to 1e150, and
    so does diag(10^-k, 10^k), whose canonical b is 10^(2|k|)."""

    # (1,0),(0.3,1.1), unimodularly mixed and rotated by 0.7 rad
    B2 = np.array([[1.0504975747928633, 0.2856553875083749],
                   [2.3230270866596268, 1.6788093994219357]])
    B3 = np.array([[1.0, 0.5, 0.3], [0.2, 0.75, -0.2], [0.1, 0.0, 1.25]])

    @pytest.mark.parametrize("k", range(-160, 161, 5))
    def test_scale_scan(self, k, capsys, files):
        for M in (self.B2 * 10.0 ** k, self.B3 * 10.0 ** k,
                  np.diag([10.0 ** -k, 10.0 ** k])):
            m = files("m.json", {"n": len(M), "columns": M.T.tolist()})
            x = ",".join(repr(float(v)) for v in M @ np.full(len(M), 0.37))
            for argv in (["perror", "--method", "mc", "--samples", "300"],
                         ["perror", "--method", "area"],
                         ["perror", "--method", "analytic"],
                         ["babai", "--x=" + x], ["cvp", "--x=" + x],
                         ["reduce"]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, out, err = run(capsys, *argv, "--matrix", m)
                assert caught == [], (k, argv)
                if len(M) == 2 and abs(k) <= 150:
                    assert (code, err) == (0, ""), (k, argv, err)
                elif len(M) == 2:
                    assert code == 1 and err.startswith(
                        "error: basis magnitude out of range"), (k, argv, err)
                else:
                    assert (code, err) == (0, "") or (
                        code == 1 and err.startswith("error:")
                        and err.count("\n") == 1), (k, argv, err)


class TestPinnedOutputs:
    """Integer and bit fields of `babai` and `simulate`, and the whole
    output of `cvp`, pinned so that a change to the rounding kernel or the
    CVP search cannot move them unnoticed."""

    TRI3 = {"n": 3, "columns": [[-2, 0, 0], ["1/2", "3/4", 0],
                                ["1/3", "-1/5", "-5/4"]]}
    # the upper-triangular basis (1.2,0,0), (0.4,0.9,0), (0.3,-0.2,1.1)
    # rotated by (cos, sin) = (0.6, 0.8) in the first coordinate plane
    ROT3 = {"n": 3, "columns": [[0.72, 0.96, 0.0],
                                [-0.4800000000000001, 0.8600000000000001, 0.0],
                                [0.34, 0.12, 1.1]]}
    TARGETS = ("0,0,0", "0.9,-1.7,2.3", "-1,0.375,0.625", "3.1,2.2,-4.05",
               "-7.5,1.5,10.25", "0.5,0.5,0.5")
    BABAI = {
        "TRI3": [[0, 0, 0], [-2, -3, -2], [1, 1, 0], [0, 4, 3], [2, 0, -8],
                 [0, 1, 0]],
        "ROT3": [[0, 0, 0], [-1, -1, 2], [-1, 1, 1], [5, -2, -4],
                 [-8, 10, 9], [1, 0, 0]],
    }
    # (coeffs, point, match) of `cvp` on each target
    CVP = {
        "TRI3": [([0, 0, 0], [0.0, 0.0, 0.0], True),
                 ([-1, -2, -2], [0.33333333333333337, -1.1, 2.5], False),
                 ([1, 1, 0], [-1.5, 0.75, 0.0], True),
                 ([0, 4, 3], [3.0, 2.4, -3.75], True),
                 ([2, -1, -8], [-7.166666666666666, 0.8500000000000001, 10.0],
                  False),
                 ([0, 1, 0], [0.5, 0.75, 0.0], True)],
        "ROT3": [([0, 0, 0], [0.0, 0.0, 0.0], True),
                 ([-1, -1, 2], [0.44000000000000017, -1.58, 2.2], True),
                 ([-1, 1, 1], [-0.8600000000000001, 0.02000000000000013, 1.1],
                  True),
                 ([5, -2, -4], [3.2, 2.5999999999999996, -4.4], True),
                 ([-8, 10, 9], [-7.5, 2.0000000000000018, 9.9], True),
                 ([1, 0, 0], [0.72, 0.96, 0.0], True)],
    }
    # upper-triangular bases, 1 on the diagonal and 1/2 above it: 7D, and
    # 11D, one dimension beyond the exact search
    TRI7, TRI13 = ({"n": n, "columns": [[1 if i == j else "1/2" if i < j
                                         else 0 for i in range(n)]
                                        for j in range(n)]} for n in (7, 13))
    SCENARIOS = {
        "readme": {"matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
                   "alpha": 2.0 ** -10, "trials": 1000, "seed": 1,
                   "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 2},
        "tri3": {"matrix": {"n": 3, "columns": [[1, 0, 0], ["1/2", "3/4", 0],
                                                ["1/3", "-1/5", "5/4"]]},
                 "alpha": 2.0 ** -6, "trials": 500, "seed": 7,
                 "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 3},
    }
    # (babai_match_count, mean_total_bits, decoded, per-message bits): the
    # range-coded stream length per trial, and the first trial's quantized
    # self-information per message
    SIMULATE = {
        ("readme", "centralized"): (
            1000, 19.999, {"0": [249, 514]},
            [9.678071905112638, 10.32192818087869]),
        ("readme", "interactive"): (
            1000, 19.999, {"1": [249, 514], "2": [249, 514]},
            [10.32192818087869, 9.678071905112638]),
        ("tri3", "centralized"): (
            500, 24.582, {"0": [22, 45, 33]},
            [8.584962586712486, 10.3219277509221, 5.678071905112638]),
        ("tri3", "interactive"): (
            500, 36.232, {str(i): [22, 45, 33] for i in (1, 2, 3)},
            [11.356143810225277, 12.830074998557684, 12.0]),
    }

    def test_babai_coeffs(self, capsys, files):
        for name, expected in self.BABAI.items():
            m = files("m.json", getattr(self, name))
            got = []
            for x in self.TARGETS:
                code, out, _ = run(capsys, "babai", "--matrix", m, f"--x={x}")
                assert code == 0
                got.append(json.loads(out)["coeffs"])
            assert got == expected, name

    def test_cvp_outputs(self, capsys, files):
        for name, expected in self.CVP.items():
            m = files("m.json", getattr(self, name))
            got = []
            for x in self.TARGETS:
                code, out, _ = run(capsys, "cvp", "--matrix", m, f"--x={x}")
                assert code == 0
                doc = json.loads(out)
                got.append((doc["coeffs"], doc["point"], doc["match"]))
            assert got == expected, name

    def test_7d_babai_and_cvp(self, capsys, files):
        # the answer is that of a complete box of 1,944 coefficient vectors
        m = files("m.json", self.TRI7)
        x = "--x=0.3,1.6,-2.2,0.7,4.1,-0.5,2.5"
        expected = {"coeffs": [0, 2, -4, -2, 4, -2, 3],
                    "point": [0.5, 1.5, -2.5, 0.5, 4.5, -0.5, 3.0],
                    "match": True}
        for command in ("babai", "cvp"):
            code, out, _ = run(capsys, command, "--matrix", m, x)
            assert code == 0
            assert json.loads(out) == expected, command

    def test_beyond_max_cvp_dim(self, capsys, files):
        m = files("m.json", self.TRI13)
        x = "--x=0.3,1.6,-2.2,0.7,4.1,-0.5,2.5,1.2,-3.3,0.6,2.9,-1.4,0.8"
        code, out, _ = run(capsys, "babai", "--matrix", m, x)
        assert code == 0
        assert json.loads(out) == {
            "coeffs": [0, 2, -4, -2, 4, -2, 3, 2, -4, 0, 3, -2, 1],
            "point": [0.5, 1.5, -2.5, 0.5, 4.5, -0.5, 3.0, 1.0, -3.0, 1.0,
                      2.5, -1.5, 1.0],
            "match": None}
        code, out, err = run(capsys, "cvp", "--matrix", m, x)
        assert (code, out) == (1, "")
        assert err == "error: exhaustive CVP supports n <= 12\n"

    def test_simulate_bits(self, capsys, files):
        for (name, model), expected in self.SIMULATE.items():
            sc = files("sc.json", dict(self.SCENARIOS[name], model=model))
            code, out, _ = run(capsys, "simulate", "--scenario", sc)
            assert code == 0
            doc = json.loads(out)
            t = doc["sample_transcript"]
            got = (doc["babai_match_count"], doc["mean_total_bits"],
                   t["decoded"], [msg["bits"] for msg in t["messages"]])
            assert got == expected, (name, model)

    # the protocol benchmark's four scenarios, (columns, alpha, sources)
    GAUSSIAN = {"dist": "gaussian", "mean": 0, "sigma": 1}
    PROTOCOL = {
        "readme": ([["5/4", 0], [0, "4/5"]], 2.0 ** -10, [UNIFORM] * 2),
        "ratio311": ([[1, 0], ["311/1000", "101/100"]], 2.0 ** -8,
                     [UNIFORM] * 2),
        "tri3": ([[1, 0, 0], ["1/2", "3/4", 0], ["1/3", "-1/5", "5/4"]],
                 2.0 ** -6, [UNIFORM] * 3),
        "gaussian": ([[1, 0], ["1/2", "7/8"]], 2.0 ** -10, [GAUSSIAN] * 2),
    }
    # sha256 over (command, exit code, stdout, stderr) of every case below
    PROTOCOL_PINNED = ("34b5b1a57acbd123492b3007b03914f0"
                       "1c6342938bddc0b5a97b9f4378a8fd39")

    @classmethod
    def _protocol_cases(cls):
        """(command, scenario) pairs: `rates` and `simulate` on the bench
        scenarios, both models, at several seeds and trial counts; a
        replayed x; a float-entry basis, which only the interactive model
        runs, with no reference; a scale beyond the floats, which is
        refused; and a gaussian source at 2^-30 cells per unit."""
        def scenario(columns, alpha, sources, **extra):
            return dict({"matrix": {"n": len(columns), "columns": columns},
                         "alpha": alpha, "sources": sources}, **extra)

        float_basis = ([[1, 0], [0.311, 1.01]], 0.25, [UNIFORM] * 2)
        tiny = (cls.PROTOCOL["readme"][0], 1e-300, [UNIFORM] * 2)
        fine = (cls.PROTOCOL["gaussian"][0], 2.0 ** -30, [cls.GAUSSIAN] * 2)
        for name, args in [*cls.PROTOCOL.items(), ("float", float_basis),
                           ("tiny", tiny), ("fine", fine)]:
            yield "rates", scenario(*args)
            seeds = (0, 1, 7, 2 ** 100) if name in cls.PROTOCOL else (3,)
            for model in ("centralized", "interactive"):
                for seed in seeds:
                    for trials in (1, 7, 100):
                        yield "simulate", scenario(*args, model=model,
                                                   seed=seed, trials=trials)
                x = [0.3 + 1.7 * i for i in range(len(args[0]))]
                for trials in (1, 7):
                    yield "simulate", scenario(*args, model=model, x=x,
                                               trials=trials)

    def test_protocol_outputs_pinned(self, capsys, files):
        # every byte that `simulate` and `rates` print, and their exit codes
        h = hashlib.sha256()
        for command, obj in self._protocol_cases():
            sc = files("sc.json", obj)
            h.update(repr((command, *run(capsys, command, "--scenario", sc)))
                     .encode())
        assert h.hexdigest() == self.PROTOCOL_PINNED

    # fixed upper-triangular bases drawn as in acceptance criterion 11
    TRI3_MC = {"n": 3, "columns": [[1.25, 0, 0], [-0.5, 0.75, 0],
                                   [0.625, 0.375, 1.5]]}
    TRI4_MC = {"n": 4, "columns": [[0.875, 0, 0, 0], [0.5, 1.125, 0, 0],
                                   [-0.75, 0.25, 0.625, 0],
                                   [0.375, -0.625, 0.5, 1.375]]}
    # the whole `perror --method mc --samples 20000` output, per seed
    MONTE_CARLO = {
        ("HEX", 3): {"a": 0.4999999999999999, "b": 0.8660254037844386,
                     "method": "mc", "n_samples": 20000, "pe": 0.0849,
                     "seed": 3, "std_error": 0.001970938735729754},
        ("SKEW5", 5): {"a": 0.0, "b": 0.9999999999999998, "method": "mc",
                       "n_samples": 20000, "pe": 0.5071, "seed": 5,
                       "std_error": 0.0035351774354337577},
        ("TRI3_MC", 7): {"method": "mc", "n_samples": 20000, "pe": 0.1841,
                         "seed": 7, "std_error": 0.002740503512130572},
        ("TRI4_MC", 9): {"method": "mc", "n_samples": 20000, "pe": 0.18385,
                         "seed": 9, "std_error": 0.0027390616778378684},
    }

    def test_monte_carlo_outputs(self, capsys, files):
        bases = {"HEX": HEX_MATRIX, "SKEW5": SKEW5_MATRIX,
                 "TRI3_MC": self.TRI3_MC, "TRI4_MC": self.TRI4_MC}
        for (name, seed), expected in self.MONTE_CARLO.items():
            m = files("m.json", bases[name])
            code, out, err = run(capsys, "perror", "--matrix", m, "--method",
                                 "mc", "--samples", "20000", "--seed",
                                 str(seed))
            assert (code, err) == (0, "")
            assert json.loads(out) == expected, name
