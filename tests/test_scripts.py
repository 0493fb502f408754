"""The command-line scripts under scripts/, loaded in-process, and every
entry point run as a process."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latcomm import ReducedBasis2D
from latcomm.error_analysis import PE_CSV_HEADER, pe_csv_line, pe_row

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"latcomm_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def admissible_grid(a_count, b_count, b_max=2.5):
    pairs = []
    for a in np.linspace(0.0, 0.5, a_count):
        for b in np.linspace(0.85, b_max, b_count):
            try:
                ReducedBasis2D(float(a), float(b))
            except ValueError:
                continue
            pairs.append((float(a), float(b)))
    return pairs


class TestPeSweep:
    def sweep(self, capsys, *argv):
        assert load("pe_sweep").main(["--a-grid", "5", "--b-grid", "4",
                                      *argv]) == 0
        return capsys.readouterr().out.splitlines()

    def test_rows_are_the_pe_rows_of_the_admissible_grid(self, capsys):
        lines = self.sweep(capsys)
        pairs = admissible_grid(5, 4)
        assert 0 < len(pairs) < 20
        assert lines == [PE_CSV_HEADER] + [pe_csv_line(*pe_row(a, b))
                                           for a, b in pairs]
        assert all(line.endswith(",,") for line in lines[1:])

    def test_samples_fill_the_mc_columns_reproducibly(self, capsys):
        lines = self.sweep(capsys, "--samples", "200", "--seed", "3")
        assert lines == self.sweep(capsys, "--samples", "200", "--seed", "3")
        assert lines[1:] == [pe_csv_line(*pe_row(a, b, 200, 3))
                             for a, b in admissible_grid(5, 4)]
        assert not any(line.endswith(",") for line in lines[1:])

    def test_out_is_written_atomically(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert self.sweep(capsys, "--out", str(out)) == []
        assert out.read_text().splitlines() == self.sweep(capsys)
        # a directory cannot be replaced by the file: one error line, no
        # temp file left behind
        assert load("pe_sweep").main(["--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: --out: {str(tmp_path)!r}: Is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]

    def test_out_in_a_missing_directory_named(self, capsys, tmp_path):
        # the line names the --out path, not the temp file beside it, so
        # two runs print the same bytes
        path = str(tmp_path / "missing" / "x.csv")
        lines = []
        for _ in range(2):
            assert load("pe_sweep").main(["--out", path]) == 1
            lines.append(capsys.readouterr())
        assert lines[0] == lines[1]
        assert (lines[0].out, lines[0].err) == (
            "", f"error: --out: {path!r}: No such file or directory\n")
        assert list(tmp_path.rglob("*")) == []


B_MAX_MESSAGE = ("--b-max must be a finite number whose square is at most "
                 "2.74e+303, below 5.24e151, as a basis's squared column "
                 "norms are")


@pytest.mark.parametrize("name, argv, message", [
    ("rate_convergence", ["--seed", "-1"],
     "--seed must lie in [0, 2^128), the Philox key range"),
    ("rate_convergence", ["--seed", str(2 ** 128)],
     "--seed must lie in [0, 2^128), the Philox key range"),
    ("rate_convergence", ["--diag", "0,1"], "--diag: '0': zero basis vector"),
    ("pe_sweep", ["--a-grid", "2", "--b-grid", "2", "--samples", "10",
                  "--seed", "-3"],
     "--seed must lie in [0, 2^128), the Philox key range"),
    # checked by name, as `levelcurves --grid` is, not left to np.linspace
    # or to an empty grid that would print a bare header
    ("pe_sweep", ["--a-grid", "-1"], "--a-grid must be at least 1"),
    ("pe_sweep", ["--a-grid", "0", "--b-grid", "3"],
     "--a-grid must be at least 1"),
    ("pe_sweep", ["--a-grid", "3", "--b-grid", "0"],
     "--b-grid must be at least 1"),
    ("pe_sweep", ["--samples", "-1"], "--samples must be non-negative"),
    *[("pe_sweep", ["--b-max", b_max], B_MAX_MESSAGE)
      for b_max in ("inf", "nan", "1e200")],
    *[("pe_sweep", argv, "no point of the --a-grid x --b-grid grid, b from "
       "0.85 to --b-max, is a reduced basis")
      for argv in (["--b-max", "0.5"], ["--b-grid", "1"])],
    *[("rate_convergence", ["--trials", trials], "--trials must be at least 1")
      for trials in ("0", "-5")],
    ("rate_convergence", ["--exponents", "4,x"],
     "--exponents: 'x' is not a finite number"),
    *[("rate_convergence", ["--exponents=" + e],
       f"--exponents: {e!r} is not an integer in [-1023, 1074], where 2^-e "
       "is a positive float") for e in ("-2000", "2000", "4.5")],
    ("rate_convergence", ["--exponents", ","],
     "--exponents must list at least one exponent"),
    ("rate_convergence", ["--diag", "5/4,x"],
     "--diag: 'x' is not a finite number"),
    # an input that the basis or the rounding refuses, under its flag
    *[("rate_convergence", ["--diag", diag], f"--diag{part}: basis magnitude "
       "out of range: squared column norms and |det| must lie in "
       "[2.23e-308, 2.74e+303]")
      for diag, part in (("1e200,1", ": '1e200'"),
                         ("1e100,1e100,1e100,1e100", ""))],
    ("rate_convergence", ["--exponents=-600"], "--exponents: '-600': basis "
     "magnitude out of range: squared column norms and |det| must lie in "
     "[2.23e-308, 2.74e+303]"),
    ("rate_convergence", ["--exponents", "4,52", "--trials", "100"],
     "--exponents: '52': cannot round 4734982244703400.0: need a finite "
     "|z| < 2**52"),
    ("pe_sweep", ["--a-grid", "2", "--b-grid", "2", "--samples", "10",
                  "--seed", str(2 ** 128)],
     "--seed must lie in [0, 2^128), the Philox key range"),
    # a Fraction holds it but no float does; named as --k names it
    ("rate_convergence", ["--diag", "1e400"],
     "--diag: '1e400' is not a finite number"),
    # b^2 a float, but beyond the magnitude range that `perror` takes
    ("pe_sweep", ["--b-max", "1e153", "--a-grid", "3", "--b-grid", "2"],
     B_MAX_MESSAGE),
])
def test_one_line_errors(name, argv, message, capsys):
    # as the CLI fails: exit 1, one `error:` line, nothing on stdout
    assert load(name).main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_rate_convergence_rows(capsys):
    assert load("rate_convergence").main(
        ["--exponents", "4,6", "--trials", "2000"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == ("alpha,i,empirical_entropy_bits,analytic_bits,gap,"
                      "interactive_rate")
    n = 2  # the default diagonal 5/4,4/5
    assert [tuple(r.split(",")[:2]) for r in rows] == [
        (alpha, str(i)) for alpha in ("0.0625", "0.015625")
        for i in range(1, n + 1)]
    for row in rows:
        _, _, entropy, analytic, gap, _ = map(float, row.split(","))
        # each printed to six decimals
        assert gap == pytest.approx(entropy - analytic, abs=1.5e-6)


# sha256 of the whole stdout, computed with the np.unique-based entropy
# estimate that preceded the sort-based one; the first two run the
# benchmark's arguments, whose 20,000 coefficients per column span fewer
# than 2^16 integers, the third the default 200,000 trials, whose columns
# at e = 20 and 30 span more
RATE_CONVERGENCE_SHA256 = {
    ("--exponents", "4,6,8", "--trials", "20000", "--diag", "5/4,4/5",
     "--seed", "0"):
        "856b6e3f874d75d73b27e434a5eadbc81aad800d4c83d6850ef2202d15b88afe",
    ("--exponents", "4,6,8", "--trials", "20000", "--diag", "5/4,4/5",
     "--seed", "7"):
        "2ad1380e0565f50ef82c35a97917ba7a4c0f9754cab91e171298d371e161e7c0",
    ("--exponents", "2,20,30"):
        "7ef2b24c7f67bc3dc2603e7d4a392aab80fb19dd86e6172fe6d43d4011732c42",
}


@pytest.mark.parametrize("argv", list(RATE_CONVERGENCE_SHA256))
def test_rate_convergence_pinned(argv, capsys):
    assert load("rate_convergence").main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        RATE_CONVERGENCE_SHA256[argv])


# each entry point's __main__ lines, as a shell starts them: a refused
# value exits 1 with one `error:` line, an unknown flag exits 2 (argparse)
@pytest.mark.parametrize("entry, refused, message", [
    (["-m", "latcomm.cli", "levelcurves"], ["--grid", "0"],
     "--grid must be at least 1"),
    ([str(SCRIPTS / "pe_sweep.py")], ["--a-grid", "0"],
     "--a-grid must be at least 1"),
    ([str(SCRIPTS / "rate_convergence.py")], ["--trials", "0"],
     "--trials must be at least 1"),
])
def test_entry_point_as_a_process(entry, refused, message):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))

    def start(*argv):
        return subprocess.run([sys.executable, *entry, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = start(*refused)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", f"error: {message}\n")
    assert start("--frob").returncode == 2
