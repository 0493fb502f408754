#!/usr/bin/env python3
"""Empirical check that interactive broadcast rates approach the analytic
formula as the scale alpha shrinks.

For each alpha = 2^-e, draws iid uniform coordinates, runs the vectorized
coefficient recursion, and compares the plug-in entropy of each U_i with
h_i - log2(alpha v_ii).  Prints a CSV: one row per (alpha, i).
"""

import argparse
import contextlib
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from latcomm import (
    GeneratorMatrix,
    SourceModel,
    empirical_entropy,
    interactive_coefficients_batch,
    interactive_rate,
)
from latcomm.cli import _check_seed, _parse_numbers, _parts, run


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, as the CLI's is."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exponents", default="4,6,8",
                    help="comma-separated e values for alpha = 2^-e")
    ap.add_argument("--trials", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--diag", default="5/4,4/5",
                    help="diagonal of the (triangular) test basis")
    ap.set_defaults(func=table)
    return ap


def main(argv=None) -> int:
    return run(_build_parser(), argv)


@contextlib.contextmanager
def blame(label):
    """Prefix the message of a ValueError raised inside with label."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{label}: {e}") from None


def exponents(text):
    """The integers e of --exponents for which alpha = 2^-e is a positive
    finite float."""
    out = _parse_numbers("--exponents", text, Fraction)
    if not out:
        raise ValueError("--exponents must list at least one exponent")
    for part, e in zip(_parts(text), out):
        if e.denominator != 1 or not -1024 < e < 1075:
            raise ValueError(f"--exponents: {part!r} is not an integer in "
                             "[-1023, 1074], where 2^-e is a positive float")
    return [int(e) for e in out]


def float_fraction(part):
    """part as a Fraction whose float is finite: OverflowError beyond the
    floats, as for `levelcurves --k`."""
    f = Fraction(part)
    float(f)
    return f


def diagonal_basis(text):
    """The diagonal basis of --diag; an entry that is no basis vector's
    length fails with its own text."""
    diag = _parse_numbers("--diag", text, float_fraction)
    if not diag:
        raise ValueError("--diag must list at least one entry")
    for part, d in zip(_parts(text), diag):
        with blame(f"--diag: {part!r}"):
            GeneratorMatrix.from_columns([[d]])
    n = len(diag)
    with blame("--diag"):  # now only the determinant can be out of range
        return GeneratorMatrix.from_columns(
            [[diag[j] if i == j else 0 for i in range(n)] for j in range(n)])


def table(args) -> str:
    _check_seed(args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    exps = exponents(args.exponents)
    V = diagonal_basis(args.diag)
    n = V.n
    sources = [SourceModel.uniform(0.0, 1.0) for _ in range(n)]

    rng = np.random.Generator(np.random.Philox(key=args.seed))
    X = np.column_stack([s.sample(rng, args.trials) for s in sources])

    lines = ["alpha,i,empirical_entropy_bits,analytic_bits,gap,"
             "interactive_rate"]
    for part, e in zip(_parts(args.exponents), exps):
        alpha = 2.0 ** -e
        with blame(f"--exponents: {part!r}"):
            B = interactive_coefficients_batch(V, X, alpha)
            rate = interactive_rate(sources, V, alpha)
        for i in range(n):
            h = empirical_entropy(B[:, i])
            target = (sources[i].differential_entropy_bits()
                      - math.log2(alpha * abs(float(V.matrix[i, i]))))
            lines.append(f"{alpha:.10g},{i + 1},{h:.6f},{target:.6f},"
                         f"{h - target:+.6f},{rate:.6f}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
