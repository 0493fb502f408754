import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

import latcomm.babai
import latcomm.cli
from latcomm.cli import main

HEX_MATRIX = {"n": 2, "columns": [[1, 0], ["1/2", math.sqrt(3) / 2]]}
SKEW5_MATRIX = {"n": 2, "columns": [[5, 0], [3, 1]]}
RATIO311_MATRIX = {"n": 2, "columns": [[1, 0], ["311/1000", "101/100"]]}


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

    def test_mc_workers_do_not_change_bytes(self, capsys, files,
                                            monkeypatch):
        # 70,000 samples are two chunks: one thread, then two
        m = files("m.json", HEX_MATRIX)
        results = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            _, out, _ = run(capsys, "perror", "--matrix", m, "--method", "mc",
                            "--samples", "70000")
            results.append(out)
        assert results[0] == results[1]

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

    def test_format_not_supported(self, capsys, files):
        m = files("m.json", HEX_MATRIX)
        code, _, err = run(capsys, "reduce", "--matrix", m,
                           "--format", "csv")
        assert code == 2 and err.startswith("error:")


class TestMagnitudeDomain:
    """Every command either works or fails with one `error:` line at every
    scale, with no numpy warning; 2D bases work from 1e-150 to 1e150."""

    # (1,0),(0.3,1.1), unimodularly mixed and rotated by 0.7 rad
    B2 = np.array([[1.0504975747928633, 0.2856553875083749],
                   [2.3230270866596268, 1.6788093994219357]])
    B3 = np.array([[1.0, 0.5, 0.3], [0.2, 0.75, -0.2], [0.1, 0.0, 1.25]])

    @pytest.mark.parametrize("k", range(-160, 161, 5))
    def test_scale_scan(self, k, capsys, files):
        for B in (self.B2, self.B3):
            M = B * 10.0 ** k
            m = files("m.json", {"n": len(M), "columns": M.T.tolist()})
            x = ",".join(repr(float(v)) for v in M @ np.full(len(M), 0.37))
            for argv in (["perror", "--method", "mc", "--samples", "300"],
                         ["perror", "--method", "area"],
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
    # upper-triangular 7D basis, 1 on the diagonal and 1/2 above it: one
    # dimension beyond the exact search
    TRI7 = {"n": 7, "columns": [[1 if i == j else "1/2" if i < j else 0
                                 for i in range(7)] for j in range(7)]}
    SCENARIOS = {
        "readme": {"matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
                   "alpha": 2.0 ** -10, "trials": 1000, "seed": 1,
                   "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 2},
        "tri3": {"matrix": {"n": 3, "columns": [[1, 0, 0], ["1/2", "3/4", 0],
                                                ["1/3", "-1/5", "5/4"]]},
                 "alpha": 2.0 ** -6, "trials": 500, "seed": 7,
                 "sources": [{"dist": "uniform", "lo": 0, "hi": 1}] * 3},
    }
    # (babai_match_count, mean_total_bits, decoded, per-message bits)
    SIMULATE = {
        ("readme", "centralized"): (1000, 30.944, {"0": [249, 514]},
                                    [16, 16]),
        ("readme", "interactive"): (
            1000, 30.944, {"1": [249, 514], "2": [249, 514]}, [16, 16]),
        ("tri3", "centralized"): (500, 32.792, {"0": [22, 45, 33]},
                                  [11, 12, 8]),
        ("tri3", "interactive"): (
            500, 53.024, {str(i): [22, 45, 33] for i in (1, 2, 3)},
            [16, 16, 16]),
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

    def test_beyond_max_cvp_dim(self, capsys, files):
        m = files("m.json", self.TRI7)
        x = "--x=0.3,1.6,-2.2,0.7,4.1,-0.5,2.5"
        code, out, _ = run(capsys, "babai", "--matrix", m, x)
        assert code == 0
        assert json.loads(out) == {
            "coeffs": [0, 2, -4, -2, 4, -2, 3],
            "point": [0.5, 1.5, -2.5, 0.5, 4.5, -0.5, 3.0],
            "match": None}
        code, out, err = run(capsys, "cvp", "--matrix", m, x)
        assert (code, out) == (1, "")
        assert err == "error: exhaustive CVP supports n <= 6\n"

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
