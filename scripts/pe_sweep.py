#!/usr/bin/env python3
"""Sweep the admissible (a, b) region and tabulate error probabilities.

Writes the standard CSV (a,b,pe_analytic,pe_exact,pe_mc,mc_stderr) over a
rectangular grid restricted to the reduced-basis domain, optionally with a
Monte Carlo column for spot validation.  Feed the CSV to any plotting tool
to reproduce the level-curve figure.
"""

import argparse
import functools
import sys

import numpy as np

from latcomm import ReducedBasis2D
from latcomm.cli import _check_seed, run
from latcomm.error_analysis import PE_CSV_HEADER, pe_csv_line, pe_row
from latcomm.lattice import _MAGNITUDE_HI


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, as the CLI's is."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-grid", type=int, default=40)
    ap.add_argument("--b-grid", type=int, default=40)
    ap.add_argument("--b-max", type=float, default=2.5)
    ap.add_argument("--samples", type=int, default=0,
                    help="Monte Carlo samples per grid point (0 = skip)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=sweep)
    return ap


def main(argv=None) -> int:
    return run(_build_parser(), argv)


def sweep(args) -> str:
    for flag, count in (("--a-grid", args.a_grid), ("--b-grid", args.b_grid)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1")
    # b^2, about the squared norm of the basis vector (a, b), must lie in
    # the magnitude range that `perror` takes, and so must the clip's
    # products
    if not args.b_max * args.b_max <= _MAGNITUDE_HI:
        raise ValueError("--b-max must be a finite number whose square is "
                         f"at most {_MAGNITUDE_HI:.3g}, below 5.24e151, as "
                         "a basis's squared column norms are")
    if args.samples < 0:
        raise ValueError("--samples must be non-negative")
    if args.samples > 0:
        _check_seed(args.seed)
    pairs = []
    b_grid = np.linspace(0.85, args.b_max, args.b_grid).tolist()
    for a in np.linspace(0.0, 0.5, args.a_grid).tolist():
        for b in b_grid:
            try:
                ReducedBasis2D(a, b)
            except ValueError:
                continue
            pairs.append((a, b))
    if not pairs:
        raise ValueError("no point of the --a-grid x --b-grid grid, b from "
                         "0.85 to --b-max, is a reduced basis")
    a, b = np.array(pairs).T
    rows = pe_row(a, b, args.samples, args.seed)
    return "\n".join([PE_CSV_HEADER] + [pe_csv_line(*r) for r in rows]) + "\n"


if __name__ == "__main__":
    sys.exit(main())
