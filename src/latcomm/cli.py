"""Command-line front end.

One binary with subcommands (reduce, babai, cvp, perror, levelcurves,
simulate, rates) so the whole experiment surface is discoverable from
--help.  All commands are deterministic for a fixed command line and input
files: the seed defaults to 0, JSON is emitted with sorted keys, CSV floats
with 12 significant digits.  Output goes to stdout or, with --out, to a
file written atomically (temp file + rename), so failures leave nothing
behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from .babai import nearest_plane
from .error_analysis import (
    PE_CSV_HEADER,
    _SEED_LIMIT,
    analytic_pe,
    exact_pe_area,
    level_curve_points,
    monte_carlo_pe,
    pe_csv_line,
    pe_row,
)
from .lattice import (
    MAX_CVP_DIM,
    GeneratorMatrix,
    canonicalize_2d,
    cvp_bruteforce_batch,
    gauss_reduce_2d,
)
from .protocol import (
    ProtocolError,
    ProtocolUnsupportedError,
    SourceModel,
    _as_float,
    _is_number,
    _left_sum,
    build_ratio_table,
    centralized_rate_bound,
    interactive_rate,
    empirical_entropy,
    run_centralized,
    run_interactive,
)

_DEFAULT_K = "0,0.01,0.02,0.04,0.06,1/12"
# numpy indexes arrays with int64
_TRIALS_LIMIT = 1 << 63
_PE_HEADER = PE_CSV_HEADER.split(",")
# the CSV columns that each perror method fills with its pe and std_error
_PE_COLUMNS = {"analytic": ("pe_analytic",), "area": ("pe_exact",),
               "mc": ("pe_mc", "mc_stderr")}


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path):
    """Write text to stdout, or atomically to out_path; a failed write
    leaves no file behind and names out_path."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".latcomm-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(f"--out: {out_path!r}: {e.strerror}") from None


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise ValueError(f"{path} is not JSON: {e}") from None


def _load_matrix(path) -> GeneratorMatrix:
    return GeneratorMatrix.from_json(_load_json(path))


def _parts(text: str):
    """The non-empty comma-separated parts of text, stripped."""
    return [part for part in map(str.strip, text.split(",")) if part]


def _parse_numbers(flag: str, text: str, parse):
    """The parts of text, each read by parse; a part that parse refuses
    fails with its flag and its own text."""
    out = []
    for part in _parts(text):
        try:
            out.append(parse(part))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(
                f"{flag}: {part!r} is not a finite number") from None
    return out


def _check_seed(seed: int):
    """Fail under --seed's name where seed cannot key a Philox generator."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("--seed must lie in [0, 2^128), the Philox key range")


def _parse_x(text: str, n: int) -> np.ndarray:
    x = _parse_numbers("--x", text, float)
    if len(x) != n:
        raise ValueError(f"--x needs {n} comma-separated numbers")
    return np.array(x)


def _parse_k_list(text: str):
    out = _parse_numbers("--k", text, lambda part: float(Fraction(part)))
    if not out:
        raise ValueError("--k must list at least one level")
    # a nonzero level that rounds to 0.0 would be drawn as the zero level
    for part, k in zip(_parts(text), out):
        if k == 0 and Fraction(part):
            raise ValueError(f"--k: {part!r} is below the float range")
    return out


def _cmd_reduce(args) -> str:
    V = _load_matrix(args.matrix)
    W, U = gauss_reduce_2d(V)
    rb, scale, _ = canonicalize_2d(V)
    return _json_text({
        "reduced": W.to_json(),
        "transform": [[int(v) for v in row] for row in U],
        "canonical": {"a": rb.a, "b": rb.b},
        "scale": scale,
    })


def _cmd_rounding(args) -> str:
    """babai and cvp: the command's own answer for one target, and whether
    the other solver gives the same coefficients.  Each solver runs once;
    babai's match is null where n > MAX_CVP_DIM leaves no exact answer."""
    V = _load_matrix(args.matrix)
    x = _parse_x(args.x, V.n)
    match = None
    if args.command == "cvp":
        coeffs = cvp_bruteforce_batch(V, x)
        match = np.array_equal(coeffs, nearest_plane(V, x).coeffs)
    else:
        coeffs = nearest_plane(V, x).coeffs
        if V.n <= MAX_CVP_DIM:
            match = np.array_equal(coeffs, cvp_bruteforce_batch(V, x))
    return _json_text({
        "coeffs": [int(c) for c in coeffs],
        "point": [float(p) for p in V.matrix @ coeffs.astype(float)],
        "match": match,
    })


def _cmd_perror(args) -> str:
    V = _load_matrix(args.matrix)
    report = {"method": args.method}
    if V.n == 2:
        rb, _, _ = canonicalize_2d(V)
        report.update(a=rb.a, b=rb.b)
    elif args.method == "analytic":
        raise ValueError("analytic P_e needs a 2D basis")
    elif args.method == "mc" and args.format == "csv":
        # before sampling; the area method raises its own error
        raise ValueError("CSV P_e output needs a 2D basis")
    if args.method == "analytic":
        report["pe"] = analytic_pe(rb.a, rb.b)
    elif args.method == "area":
        report["pe"] = exact_pe_area(V)
    else:
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        _check_seed(args.seed)
        est = monte_carlo_pe(V, args.samples, seed=args.seed)
        report.update(pe=est.estimate, std_error=est.std_error,
                      n_samples=est.n_samples, seed=est.seed)
    if args.format == "csv":
        row = dict.fromkeys(_PE_HEADER)
        row.update(zip(("a", "b") + _PE_COLUMNS[args.method],
                       (rb.a, rb.b, report["pe"], report.get("std_error"))))
        return PE_CSV_HEADER + "\n" + pe_csv_line(*row.values()) + "\n"
    return _json_text(report)


def _cmd_levelcurves(args) -> str:
    if args.grid < 1:
        raise ValueError("--grid must be at least 1")
    if args.samples < 0:
        raise ValueError("--samples must be non-negative")
    if args.samples > 0:
        _check_seed(args.seed)
    pairs = []
    for k in _parse_k_list(args.k):
        if k == 0:
            # the zero level set is the orthogonal boundary a = 0; choose a
            # bounded slice of the unbounded ray so the curve is plottable
            pairs += [(0.0, float(b)) for b in np.linspace(1.0, 3.0, args.grid)]
        else:
            pairs += level_curve_points(k, args.grid)
    a, b = np.array(pairs).reshape(-1, 2).T
    rows = pe_row(a, b, args.samples, args.seed)
    if args.format == "json":
        return _json_text({"points": [dict(zip(_PE_HEADER, r))
                                      for r in rows]})
    return "\n".join([PE_CSV_HEADER] + [pe_csv_line(*r) for r in rows]) + "\n"


def _json_int(value):
    """value as an int if it is a JSON integer, else None: a float with no
    fraction is one, a bool is not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _load_scenario(path):
    obj = _load_json(path)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError('scenario needs a "matrix"')
    V = GeneratorMatrix.from_json(obj["matrix"])
    alpha = obj.get("alpha", 1.0)
    alpha = _as_float(alpha) if _is_number(alpha) else math.nan
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be a positive finite scale")
    sources = None
    if "sources" in obj:
        sources = [SourceModel.from_json(s) for s in obj["sources"]]
        if len(sources) != V.n:
            raise ValueError("scenario needs one source per coordinate")
    return obj, V, alpha, sources


def _cmd_simulate(args) -> str:
    obj, V, alpha, sources = _load_scenario(args.scenario)
    model = obj.get("model")
    if model not in ("centralized", "interactive"):
        raise ValueError('scenario "model" must be centralized or interactive')
    trials = _json_int(obj.get("trials", 1))
    if trials is None:
        raise ValueError(f"trials must be an integer, got {obj['trials']!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials >= _TRIALS_LIMIT:
        raise ValueError("trials must be below 2^63")
    seed = _json_int(obj.get("seed", args.seed))
    if seed is None or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if seed >= _SEED_LIMIT:
        raise ValueError("seed must be below 2^128")
    fixed_x = obj.get("x")
    # sampled targets are coded under their sources; a replayed target has
    # no source model, so its payloads are counted with the varint
    coded = None
    if fixed_x is not None:
        if not (isinstance(fixed_x, list) and len(fixed_x) == V.n
                and all(map(_is_number, fixed_x))):
            raise ValueError(f'scenario "x" needs {V.n} numbers')
        x0 = np.array([_as_float(v) for v in fixed_x])
        if not np.isfinite(x0).all():
            raise ValueError(f'scenario "x" needs {V.n} finite numbers')
        X = np.tile(x0, (trials, 1))
    else:
        if sources is None:
            raise ValueError('scenario needs "sources" or a fixed "x"')
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = np.column_stack([s.sample(rng, trials) for s in sources])
        coded = sources

    try:
        scaled = V.scaled(alpha)
    except ValueError as e:
        raise ValueError(f"alpha = {alpha!r} scales the matrix out of range: "
                         f"{e}") from None
    summary = {"model": model, "trials": trials, "seed": seed, "alpha": alpha}
    if model == "centralized":
        # the fusion center's integer decode, checked against the kernel
        reference = nearest_plane(scaled, X).coeffs
        B, transcript = run_centralized(scaled, X, coded)
        table = build_ratio_table(scaled)
        summary["side_info_bits_per_trial"] = sum(table.s_bits)
        summary["side_info_bound_bits"] = table.side_info_bound_bits
        summary["analytic_rate_bound"] = (
            centralized_rate_bound(sources, V, alpha)
            if sources is not None else None)
    else:
        # the kernel, checked against the integer decode on alpha * Lambda,
        # which shares no code with it; null where that decode cannot run
        B, transcript = run_interactive(scaled, X, coded)
        try:
            reference = run_centralized(scaled, X)[0]
        except ProtocolError:
            reference = None
        entropies = [empirical_entropy(B[:, i]) for i in range(V.n)]
        summary["empirical_entropy_bits"] = entropies
        summary["empirical_rate_bits"] = (V.n - 1) * _left_sum(entropies)
        summary["analytic_rate_bound"] = (
            interactive_rate(sources, V, alpha)
            if sources is not None else None)
    summary["mean_total_bits"] = transcript.wire_bits / trials
    summary["babai_match_count"] = (
        None if reference is None
        else int(np.all(B == reference, axis=1).sum()))
    summary["sample_transcript"] = transcript.row(0).to_json()
    return _json_text(summary)


def _cmd_rates(args) -> str:
    _, V, alpha, sources = _load_scenario(args.scenario)
    if sources is None:
        raise ValueError('rates needs scenario "sources"')
    out = dict.fromkeys(("centralized_rate_bound", "side_info_bound_bits",
                         "side_info_bits_ceil", "interactive_rate"))
    with contextlib.suppress(ProtocolUnsupportedError):
        table = build_ratio_table(V)
        out.update(
            centralized_rate_bound=centralized_rate_bound(sources, V, alpha),
            side_info_bound_bits=table.side_info_bound_bits,
            side_info_bits_ceil=sum(table.s_bits))
    with contextlib.suppress(ProtocolUnsupportedError):
        out["interactive_rate"] = interactive_rate(sources, V, alpha)
    return _json_text(out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse keeps no
    state between parse_args calls, and each call returns a fresh
    namespace."""
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output file (atomic write); default stdout")

    parser = argparse.ArgumentParser(
        prog="latcomm",
        description="Lattice rounding, its 2D error probability, and "
                    "distributed protocols for computing it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common],
                       help="Lagrange-Gauss reduce a 2D basis")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_reduce)

    for name, help_text in (
            ("babai", "nearest-plane rounding of a target"),
            ("cvp", f"exact closest lattice point (n <= {MAX_CVP_DIM})")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--matrix", required=True)
        p.add_argument("--x", required=True, help="comma-separated target")
        p.set_defaults(func=_cmd_rounding)

    p = sub.add_parser("perror", parents=[seeded, common],
                       help="rounding-error probability of a basis")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=("analytic", "area", "mc"),
                   default="analytic")
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo sample count (method mc)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_perror)

    p = sub.add_parser("levelcurves", parents=[seeded, common],
                       help="level curves of the 2D error probability")
    p.add_argument("--k", default=_DEFAULT_K,
                   help=f"comma-separated levels (default {_DEFAULT_K})")
    p.add_argument("--grid", type=int, default=64,
                   help="points per curve (default 64)")
    p.add_argument("--samples", type=int, default=0,
                   help="optional Monte Carlo samples per point")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_levelcurves)

    p = sub.add_parser("simulate", parents=[seeded, common],
                       help="run a protocol scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rates", parents=[common],
                       help="analytic rate formulas for a scenario")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_rates)
    return parser


def run(parser: argparse.ArgumentParser, argv=None) -> int:
    """Run args.func(args) and emit its text to --out, if the parser has
    one, or stdout.  A failure prints one `error:` line and returns 1; a
    refused argument exits 2, as argparse does."""
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), getattr(args, "out", None))
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run(_build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
