"""Reference pace of the machine, for bench/run.py.

For each line read from stdin, times one fixed loop of interpreter and small
numpy work, the mix latcomm's kernels are made of, and prints the seconds it
took.  It runs in an interpreter of its own that never imports latcomm, so
nothing the program under test does in its process changes the pace.
"""

import math
import sys
import time

import numpy as np

A = np.arange(64, dtype=float)


def loop():
    s = 0.0
    for i in range(200):
        b = A * 0.5 + i
        s += float(b[i % 64]) + math.sqrt(i)
    return s


def main():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        loop()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
