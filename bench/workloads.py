"""The four seeded workloads of the latcomm benchmark.

Each workload drives latcomm through the entry points people use and splits
its inputs into classes (bases, dimensions, scenarios, commands).  An op is
one call sequence on inputs generated from the run seed, the class and the
op's index, so the same seed always gives the same inputs.  `check` compares
an op's output with a reference that does not reuse the code under test.

Library functions are looked up on their module at call time (for example
`latcomm.nearest_plane`), so the tracer's wrappers see the benchmark's own
calls too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import latcomm
import latcomm.cli


class CheckError(Exception):
    """An op's output disagrees with its reference."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


@dataclass
class Op:
    cls: str
    k: int
    seed: int
    payload: object = None


def derive_seed(*key) -> int:
    """A nonnegative 31-bit seed for the CLI, derived from integer keys."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] >> 1)


def capture(fn, argv):
    """Run a CLI-style `main(argv)` and return what it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli(argv):
    return capture(lambda a: latcomm.cli.main(a), argv)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    classes: tuple = ()
    # rounds of one op per class in the traced run
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path, scripts: dict):
        self.seed = seed
        self.workdir = workdir
        self.scripts = scripts

    def make_op(self, cls: str, k: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def items(self, op: Op, out) -> int:
        raise NotImplementedError

    def check(self, op: Op, out) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------- mc

def criterion11_triangular(rng, n):
    """Upper-triangular basis drawn as in acceptance criterion 11."""
    R = np.zeros((n, n))
    for i in range(n):
        R[i, i] = rng.uniform(0.6, 1.6)
        for j in range(i + 1, n):
            R[i, j] = rng.uniform(-0.8, 0.8)
    return R


def reference_pe(B, samples, rng):
    """Rounding-error probability of basis B (columns) from `samples`
    points uniform in its origin rounding box, without latcomm's CVP.

    The origin is the closest lattice point to x unless 2 x.v > |v|^2 for
    some lattice vector v != 0, and such a v has |v| < 2|x|, at most twice
    the box's half-diagonal.  Every lattice vector that short has
    |u_i| <= |v| |row_i(B^-1)| for its coefficients u, so a finite box of
    coefficients lists them all.
    """
    n = B.shape[0]
    Q, R = np.linalg.qr(B)
    half = np.abs(np.diag(R)) / 2.0
    reach = 2.0 * float(np.linalg.norm(half))
    radii = np.floor(reach * np.linalg.norm(np.linalg.inv(B), axis=1)).astype(int)
    U = np.array(list(itertools.product(*(range(-r, r + 1) for r in radii))))
    S = U @ B.T
    sq = np.einsum("ij,ij->i", S, S)
    keep = (sq > 0) & (sq <= reach * reach)
    S, sq = S[keep], sq[keep]
    errors = 0
    for start in range(0, samples, 1 << 13):
        X = (rng.uniform(-1.0, 1.0, size=(min(1 << 13, samples - start), n)) * half) @ Q.T
        errors += int(np.any(2.0 * X @ S.T > sq, axis=1).sum())
    return errors / samples


class MonteCarlo(Workload):
    """`perror --method mc` on fixed bases: hexagonal and the unreduced
    skewed (5,0),(3,1) in 2D, and one 3D and one 4D triangular basis drawn
    once from the criterion-11 distribution; the seed sets the Monte Carlo
    samples.  Time goes to bulk CVP on in-cell targets.

    The 3D and 4D bases are the same for every seed (the first draw, key
    BASIS_KEY): the CVP cost of a 4D basis from that distribution differs up
    to forty-fold from draw to draw, so with a basis per seed a run's rate
    said mostly which basis the seed drew.
    """

    name = "mc"
    classes = ("hex2", "skew2", "tri3", "tri4")
    SAMPLES = {"hex2": 1 << 14, "skew2": 1 << 14, "tri3": 1 << 12, "tri4": 1 << 10}
    # samples of the independent reference for the 3D and 4D bases
    REF_SAMPLES = 1 << 18
    BASIS_KEY = (0, 1)
    trace_rounds = 10

    def __init__(self, seed, workdir, scripts):
        super().__init__(seed, workdir, scripts)
        rng = np.random.default_rng(self.BASIS_KEY)
        columns = {
            "hex2": [[1, 0], ["1/2", math.sqrt(3) / 2]],
            "skew2": [[5, 0], [3, 1]],
            "tri3": criterion11_triangular(rng, 3).T.tolist(),
            "tri4": criterion11_triangular(rng, 4).T.tolist(),
        }
        self.matrices = {c: {"n": len(cols), "columns": cols} for c, cols in columns.items()}
        self.paths = {c: write_json(workdir / f"mc_{c}.json", m)
                      for c, m in self.matrices.items()}
        # (reference pe, its sample count): for the 2D bases the area
        # method on the basis as given, which shares no code with the Monte
        # Carlo oracle; for 3D and 4D an independent sampled estimate
        self.reference = {}
        for c, m in self.matrices.items():
            if m["n"] == 2:
                V = latcomm.GeneratorMatrix.from_json(m)
                self.reference[c] = latcomm.exact_pe_area(V), math.inf
            else:
                B = np.array(m["columns"], dtype=float).T
                rng_c = np.random.default_rng([seed, 5, m["n"]])
                self.reference[c] = reference_pe(B, self.REF_SAMPLES, rng_c), self.REF_SAMPLES

    def make_op(self, cls, k):
        return Op(cls, k, derive_seed(self.seed, 1, self.classes.index(cls), k))

    def run(self, op):
        return cli(["perror", "--matrix", self.paths[op.cls], "--method", "mc",
                    "--samples", str(self.SAMPLES[op.cls]), "--seed", str(op.seed)])

    def items(self, op, out):
        return self.SAMPLES[op.cls]

    def check(self, op, out):
        r = json.loads(out)
        n = self.SAMPLES[op.cls]
        require(r["method"] == "mc" and r["n_samples"] == n and r["seed"] == op.seed,
                f"echoed parameters {r}")
        pe, se = r["pe"], r["std_error"]
        require(0.0 <= pe <= 1.0, f"pe {pe} outside [0, 1]")
        require(abs(se - math.sqrt(pe * (1 - pe) / n)) <= 1e-12,
                f"std_error {se} is not the binomial one")
        ref, ref_n = self.reference[op.cls]
        tol = 5.0 * math.sqrt(ref * (1 - ref) * (1 / n + 1 / ref_n)) + 1e-12
        require(abs(pe - ref) <= tol, f"pe {pe} vs reference {ref} (tol {tol:.2g})")


# ------------------------------------------------------------------ query

class Query(Workload):
    """Fresh random bases in every dimension 2..6, every other one rotated
    so that the Gram-Schmidt path runs; each gets a small batch of far
    targets.  Per-basis set-up, scalar nearest plane and small CVP batches.

    Bases are size-reduced and well conditioned (diagonal in [0.8, 1.25],
    off-diagonal in [-0.5, 0.5]): with the wider criterion-11 range the 6D
    enumeration radius jumps between 3 and 4 from basis to basis (on a
    2-vCPU VM about 2 s against 9 s per op, and a peak resident set of about
    50 MB against 90 MB), which no run of fixed length averages out.  Here
    nearly every 6D op enumerates the same two boxes, 5^6 and 7^6.
    """

    name = "query"
    classes = ("n2", "n3", "n4", "n5", "n6")
    # targets per basis.  The CVP enumeration box is set by the farthest
    # target of a batch: in 5D and 6D a batch of 16 holds no target that
    # needs the larger box for about one basis in ten, and that op runs
    # five to seven times faster.  With 48 nearly every batch needs both
    # boxes, so op times do not flip between bases.
    TARGETS = {"n2": 16, "n3": 16, "n4": 16, "n5": 48, "n6": 48}
    trace_rounds = 2

    def make_op(self, cls, k):
        n = int(cls[1:])
        rng = np.random.default_rng([self.seed, 2, n, k])
        R = np.triu(rng.uniform(-0.5, 0.5, size=(n, n)), 1)
        R[np.diag_indices(n)] = rng.uniform(0.8, 1.25, size=n)
        if k % 2:
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            R = Q @ R
        X = rng.uniform(-4.0, 4.0, size=(self.TARGETS[cls], n))
        return Op(cls, k, 0, (R, X))

    def run(self, op):
        M, X = op.payload
        V = latcomm.GeneratorMatrix(M)
        U_np = np.stack([latcomm.nearest_plane(V, x).coeffs for x in X])
        U_cvp = latcomm.cvp_bruteforce_batch(V, X)
        return U_np, U_cvp

    def items(self, op, out):
        return self.TARGETS[op.cls]

    def check(self, op, out):
        M, X = op.payload
        U_np, U_cvp = out
        require(U_np.shape == X.shape and U_cvp.shape == X.shape, "coefficient shapes")
        d_np = np.linalg.norm(X - U_np @ M.T, axis=1)
        d_cvp = np.linalg.norm(X - U_cvp @ M.T, axis=1)
        # acceptance criterion 11: nearest plane is never closer than CVP,
        # equal answers give equal distances, different ones a strictly
        # larger nearest-plane distance
        require(np.all(d_np >= d_cvp - 1e-9), "nearest plane closer than CVP")
        same = np.all(U_np == U_cvp, axis=1)
        require(np.array_equal(d_np[same], d_cvp[same]), "equal answers, unequal distances")
        require(np.all(d_np[~same] > d_cvp[~same]), "different answers, equal distances")
        # nearest plane leaves a residual inside the rounding box: at most
        # half of |R_ii| along each Gram-Schmidt direction (QR of the basis)
        Q, R = np.linalg.qr(M)
        half = np.abs(np.diag(R)) / 2.0
        Y = np.abs((X - U_np @ M.T) @ Q)
        require(np.all(Y <= half * (1 + 1e-9) + 1e-12), "nearest-plane residual outside its box")
        # no coefficient neighbour of the CVP answer is closer
        n = M.shape[0]
        steps = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
        P = (U_cvp[:, None, :] + steps[None, :, :]) @ M.T
        d_nb = np.linalg.norm(X[:, None, :] - P, axis=2)
        require(np.all(d_nb >= d_cvp[:, None] - 1e-9), "a neighbour is closer than CVP")


# --------------------------------------------------------------- protocol

def uniform_sources(n):
    return [{"dist": "uniform", "lo": 0, "hi": 1}] * n


SCENARIOS = {
    # README example: diagonal basis, q = (1, 1)
    "readme": {"matrix": {"n": 2, "columns": [["5/4", 0], [0, "4/5"]]},
               "alpha": 2.0 ** -10, "sources": uniform_sources(2)},
    # ratio 311/1000: q = (1000, 1), 10 side bits per round
    "ratio311": {"matrix": {"n": 2, "columns": [[1, 0], ["311/1000", "101/100"]]},
                 "alpha": 2.0 ** -8, "sources": uniform_sources(2)},
    # 3D rational triangular: q = (6, 15, 1)
    "tri3": {"matrix": {"n": 3, "columns": [[1, 0, 0], ["1/2", "3/4", 0],
                                            ["1/3", "-1/5", "5/4"]]},
             "alpha": 2.0 ** -6, "sources": uniform_sources(3)},
    # gaussian source on a skewed basis: q = (2, 1)
    "gaussian": {"matrix": {"n": 2, "columns": [[1, 0], ["1/2", "7/8"]]},
                 "alpha": 2.0 ** -10,
                 "sources": [{"dist": "gaussian", "mean": 0, "sigma": 1}] * 2},
}
MODELS = ("centralized", "interactive")


class Protocol(Workload):
    """`simulate` for both models over four scenarios; the README scenario
    also runs scripts/rate_convergence.py.  Time goes to node encode,
    fusion decode, varint accounting and the per-trial nearest-plane
    match check; no CVP and no Voronoi code runs."""

    name = "protocol"
    classes = tuple(SCENARIOS)
    TRIALS = 100
    RC_TRIALS = 20_000
    RC_EXPONENTS = (4, 6, 8)
    trace_rounds = 20

    def make_op(self, cls, k):
        seed = derive_seed(self.seed, 3, self.classes.index(cls), k)
        paths = [write_json(self.workdir / f"{cls}_{k}_{model}.json",
                            dict(SCENARIOS[cls], model=model, trials=self.TRIALS, seed=seed))
                 for model in MODELS]
        return Op(cls, k, seed, paths)

    def simulate(self, op):
        return tuple(cli(["simulate", "--scenario", p]) for p in op.payload)

    def run(self, op):
        out = self.simulate(op)
        if op.cls != "readme":
            return out + (None,)
        exps = ",".join(map(str, self.RC_EXPONENTS))
        rc = capture(self.scripts["rate_convergence"].main,
                     ["--exponents", exps, "--trials", str(self.RC_TRIALS),
                      "--seed", str(op.seed), "--diag", "5/4,4/5"])
        return out + (rc,)

    def items(self, op, out):
        # simulated rounds; the readme class's rate_convergence rows are
        # extra work, counted by the traced run's per-layer rows
        return len(MODELS) * self.TRIALS

    def check_simulate(self, op, out):
        for model, text in zip(MODELS, out):
            r = json.loads(text)
            require(r["model"] == model and r["seed"] == op.seed
                    and r["trials"] == self.TRIALS, f"echoed parameters of {model}")
            require(r["babai_match_count"] == self.TRIALS,
                    f"{model}: {r['babai_match_count']} of {self.TRIALS} rounds match nearest plane")
            require(r["mean_total_bits"] > 0, f"{model}: no bits sent")

    def check(self, op, out):
        self.check_simulate(op, out[:2])
        if out[2] is not None:
            self.check_rate_convergence(op.seed, out[2])

    def check_rate_convergence(self, seed, text):
        """Recompute each coefficient entropy with a plain per-coordinate
        rounding (the script's basis is diagonal) and np.unique counts."""
        lines = text.strip().splitlines()
        require(lines[0] == "alpha,i,empirical_entropy_bits,analytic_bits,gap,interactive_rate",
                "rate_convergence header")
        diag = (1.25, 0.8)
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = np.column_stack([rng.uniform(0.0, 1.0, size=self.RC_TRIALS) for _ in diag])
        expected = []
        for e in self.RC_EXPONENTS:
            alpha = 2.0 ** -e
            for i, v in enumerate(diag):
                z = X[:, i] / (alpha * v)
                fl = np.floor(z)
                u = fl + (2.0 * z >= 2.0 * fl + 1.0)
                _, counts = np.unique(u, return_counts=True)
                p = counts / counts.sum()
                expected.append((alpha, i + 1, float(-(p * np.log2(p)).sum()),
                                 -math.log2(alpha * v)))
        require(len(lines) - 1 == len(expected), "rate_convergence row count")
        for line, (alpha, i, h, target) in zip(lines[1:], expected):
            f = line.split(",")
            require(float(f[0]) == alpha and int(f[1]) == i, f"row {line}")
            require(abs(float(f[2]) - h) <= 1e-5, f"entropy {f[2]} vs {h:.6f}")
            require(abs(float(f[3]) - target) <= 1e-5, f"analytic {f[3]} vs {target:.6f}")


def protocol_bits(outputs):
    """Bit metrics from the first op of every protocol scenario: mean bits
    per round measured by `simulate` and the floors they are compared with."""
    c = [json.loads(o[0]) for o in outputs]
    i = [json.loads(o[1]) for o in outputs]
    mean = statistics.fmean
    return {
        "bits_per_round.centralized": mean(r["mean_total_bits"] for r in c),
        "bits_per_round.interactive": mean(r["mean_total_bits"] for r in i),
        "protocol.entropy_bits.interactive": mean(r["empirical_rate_bits"] for r in i),
        "protocol.bound_bits.centralized": mean(r["analytic_rate_bound"] for r in c),
        "protocol.bound_bits.interactive": mean(r["analytic_rate_bound"] for r in i),
    }


# ------------------------------------------------------------------ sweep

def parse_pe_csv(text):
    lines = text.strip().splitlines()
    require(lines[0] == latcomm.PE_CSV_HEADER, "CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        require(len(f) == 6 and f[4] == "" and f[5] == "", f"row {line}")
        rows.append(tuple(float(v) for v in f[:4]))
    return rows


class Sweep(Workload):
    """`levelcurves` (CSV, no Monte Carlo), scripts/pe_sweep.py --samples 0
    and `perror --method area|analytic` on canonical bases given rotated,
    scaled and unimodularly mixed.  Time goes to reduction, Voronoi
    construction, polygon clipping and the closed form; no CVP runs."""

    name = "sweep"
    classes = ("levelcurves", "pe_sweep", "perror")
    GRID = 4
    SWEEP_GRID = 6
    trace_rounds = 20

    def make_op(self, cls, k):
        seed = derive_seed(self.seed, 4, self.classes.index(cls), k)
        rng = np.random.default_rng(seed)
        if cls == "levelcurves":
            levels = sorted(rng.uniform(0.005, 1.0 / 12.0, size=3))
            argv = ["levelcurves", "--k", ",".join(["0"] + [repr(float(v)) for v in levels] + ["1/12"]),
                    "--grid", str(self.GRID)]
            return Op(cls, k, seed, (argv, [0.0] + [float(v) for v in levels] + [1.0 / 12.0]))
        if cls == "perror":
            return Op(cls, k, seed, self.perror_inputs(rng, k))
        argv = ["--a-grid", str(self.SWEEP_GRID), "--b-grid", str(self.SWEEP_GRID),
                "--b-max", repr(float(rng.uniform(2.0, 3.0))), "--samples", "0",
                "--seed", str(seed)]
        return Op(cls, k, seed, (argv, None))

    def perror_inputs(self, rng, k):
        """A canonical (a, b) given two ways: rotated and scaled, which
        leaves the error probability at F(a, b), and additionally mixed by a
        unimodular matrix, which reduction must undo."""
        a, b = rng.uniform(0.02, 0.48), rng.uniform(1.05, 2.5)
        theta, scale = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 4.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        G = scale * rot @ np.array([[1.0, a], [0.0, b]])
        m, l = rng.integers(-3, 4, size=2)
        U = np.array([[1, m], [0, 1]]) @ np.array([[1, 0], [l, 1]])
        paths = [write_json(self.workdir / f"perror_{k}_{name}.json",
                            {"n": 2, "columns": M.T.tolist()})
                 for name, M in (("rotated", G), ("mixed", G @ U))]
        return paths, (a, b)

    def run(self, op):
        if op.cls == "perror":
            rotated, mixed = op.payload[0]
            return (cli(["perror", "--matrix", rotated, "--method", "area"]),
                    cli(["perror", "--matrix", mixed, "--method", "analytic"]))
        argv, _ = op.payload
        if op.cls == "levelcurves":
            return cli(argv)
        return capture(self.scripts["pe_sweep"].main, argv)

    def items(self, op, out):
        if op.cls == "perror":
            return 1
        return out.count("\n") - 1

    def check(self, op, out):
        if op.cls == "perror":
            a, b = op.payload[1]
            pe = (a - a * a) / (4 * b * b)
            for text, method in zip(out, ("area", "analytic")):
                r = json.loads(text)
                require(r["method"] == method, f"method {r['method']}")
                require(abs(r["a"] - a) <= 1e-9 and abs(r["b"] - b) <= 1e-9,
                        f"{method}: canonical ({r['a']}, {r['b']}) vs ({a}, {b})")
                require(abs(r["pe"] - pe) <= 1e-9, f"{method}: pe {r['pe']} vs F(a, b) = {pe}")
            return
        _, levels = op.payload
        rows = parse_pe_csv(out)
        require(rows, "no rows")
        for a, b, pe_analytic, pe_exact in rows:
            require(0.0 <= a <= 0.5 and b >= math.sqrt(3) / 2 - 1e-12
                    and a * a + b * b >= 1 - 1e-9, f"(a, b) = ({a}, {b}) not canonical")
            require(abs(pe_analytic - (a - a * a) / (4 * b * b)) <= 1e-10,
                    f"closed form at ({a}, {b})")
            require(abs(pe_analytic - pe_exact) <= 1e-9,
                    f"analytic {pe_analytic} vs area {pe_exact} at ({a}, {b})")
            if levels is not None:
                require(min(abs(pe_analytic - lv) for lv in levels) <= 1e-9,
                        f"({a}, {b}) is on no requested level")


WORKLOADS = {w.name: w for w in (MonteCarlo, Query, Protocol, Sweep)}
