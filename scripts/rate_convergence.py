#!/usr/bin/env python3
"""Empirical check that interactive broadcast rates approach the analytic
formula as the scale alpha shrinks.

For each alpha = 2^-e, draws iid uniform coordinates, runs the vectorized
coefficient recursion, and compares the plug-in entropy of each U_i with
h_i - log2(alpha v_ii).  Prints a CSV: one row per (alpha, i).
"""

import argparse
import math
import sys

import numpy as np

from latcomm import (
    GeneratorMatrix,
    SourceModel,
    empirical_entropy,
    interactive_coefficients_batch,
    interactive_rate,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exponents", default="4,6,8",
                    help="comma-separated e values for alpha = 2^-e")
    ap.add_argument("--trials", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--diag", default="5/4,4/5",
                    help="diagonal of the (triangular) test basis")
    args = ap.parse_args(argv)

    diag = [d.strip() for d in args.diag.split(",")]
    n = len(diag)
    cols = [[diag[j] if i == j else 0 for i in range(n)] for j in range(n)]
    V = GeneratorMatrix.from_columns(cols)
    sources = [SourceModel.uniform(0.0, 1.0) for _ in range(n)]

    rng = np.random.Generator(np.random.Philox(key=args.seed))
    X = np.column_stack([s.sample(rng, args.trials) for s in sources])

    print("alpha,i,empirical_entropy_bits,analytic_bits,gap,interactive_rate")
    for e in (int(v) for v in args.exponents.split(",")):
        alpha = 2.0 ** -e
        B = interactive_coefficients_batch(V, X, alpha)
        rate = interactive_rate(sources, V, alpha)
        for i in range(n):
            h = empirical_entropy(B[:, i])
            target = (sources[i].differential_entropy_bits()
                      - math.log2(alpha * abs(float(V.matrix[i, i]))))
            print(f"{alpha:.10g},{i + 1},{h:.6f},{target:.6f},"
                  f"{h - target:+.6f},{rate:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
