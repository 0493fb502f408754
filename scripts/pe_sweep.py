#!/usr/bin/env python3
"""Sweep the admissible (a, b) region and tabulate error probabilities.

Writes the standard CSV (a,b,pe_analytic,pe_exact,pe_mc,mc_stderr) over a
rectangular grid restricted to the reduced-basis domain, optionally with a
Monte Carlo column for spot validation.  Feed the CSV to any plotting tool
to reproduce the level-curve figure.
"""

import argparse
import sys

import numpy as np

from latcomm import ReducedBasis2D
from latcomm.error_analysis import PE_CSV_HEADER, pe_csv_line, pe_row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-grid", type=int, default=40)
    ap.add_argument("--b-grid", type=int, default=40)
    ap.add_argument("--b-max", type=float, default=2.5)
    ap.add_argument("--samples", type=int, default=0,
                    help="Monte Carlo samples per grid point (0 = skip)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    pairs = []
    for a in np.linspace(0.0, 0.5, args.a_grid):
        for b in np.linspace(0.85, args.b_max, args.b_grid):
            try:
                ReducedBasis2D(float(a), float(b))
            except ValueError:
                continue
            pairs.append((float(a), float(b)))
    a, b = np.array(pairs).reshape(-1, 2).T
    rows = pe_row(a, b, args.samples, args.seed)
    text = "\n".join([PE_CSV_HEADER] + [pe_csv_line(*r) for r in rows]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
