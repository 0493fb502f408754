"""The command-line scripts under scripts/, loaded in-process."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from latcomm import ReducedBasis2D
from latcomm.error_analysis import PE_CSV_HEADER, pe_csv_line, pe_row

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
