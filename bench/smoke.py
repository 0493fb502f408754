#!/usr/bin/env python3
"""Smoke test of the benchmark, about a minute: python3 bench/smoke.py

For every workload it
  * runs bench/run.py for one second, untraced and traced, and checks the
    result line: its keys, every metric BENCHMARK.json names with its unit,
    correct outputs and no failed op;
  * checks the traced call counts against the layer each workload is meant
    to exercise, including the functions that must not run at all;
  * feeds each output check a corrupted output and expects it to fail;
and runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark, where it must fail without printing a result.
Exits nonzero on the first problem.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc", "query", "protocol", "sweep")

# traced calls that must be positive (+) or zero (0) on each workload
CALLS = {
    "lattice.cvp_bruteforce_batch.calls": {"mc": "+", "query": "+", "protocol": "0", "sweep": "0"},
    "lattice.cvp_bruteforce_batch.rows": {"mc": "+", "query": "+", "protocol": "0", "sweep": "0"},
    "lattice.GeneratorMatrix.calls": {"query": "+", "protocol": "+"},
    "lattice.is_upper_triangular.calls": {"query": "+", "protocol": "+"},
    "lattice.gauss_reduce_2d.calls": {"sweep": "+"},
    "lattice.canonicalize_2d.calls": {"sweep": "+"},
    "babai.nearest_plane.calls": {"mc": "0", "query": "+", "protocol": "+", "sweep": "0"},
    "error_analysis.monte_carlo_pe.calls": {"mc": "+", "query": "0", "protocol": "0", "sweep": "0"},
    "error_analysis.monte_carlo_pe.samples": {"mc": "+"},
    "error_analysis.exact_pe_area.calls": {"sweep": "+"},
    "error_analysis.voronoi_polygon_general.calls":
        {"mc": "0", "query": "0", "protocol": "0", "sweep": "+"},
    "error_analysis.level_curve_points.calls": {"sweep": "+"},
    "error_analysis.analytic_pe.calls": {"sweep": "+"},
    "protocol.build_ratio_table.calls": {"protocol": "+"},
    "protocol.node_encode.calls": {"protocol": "+"},
    "protocol.fusion_decode.calls": {"protocol": "+"},
    "protocol.run_centralized.calls": {"protocol": "+"},
    "protocol.run_interactive.calls": {"protocol": "+"},
    "protocol.varint_bits.calls": {"protocol": "+"},
    "protocol.interactive_coefficients_batch.rows": {"protocol": "+"},
    "protocol.empirical_entropy.samples": {"protocol": "+"},
    "cli.main.calls": {"mc": "+", "query": "0", "protocol": "+", "sweep": "+"},
}
for _module in ("lattice", "babai", "error_analysis", "protocol", "cli"):
    CALLS[f"{_module}.errors"] = dict.fromkeys(WORKLOADS, "0")


class SmokeError(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise SmokeError(msg)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload, trace, declared):
    proc = run_bench(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {set(result)}")
    expect(result["correct"] is True, f"{workload} trace {trace}: incorrect\n{proc.stderr}")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    expect([m["name"] for m in declared] == list(metrics), f"{workload}: metric names")
    for m in declared:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
               f"{workload}: {m['name']} = {got}")
        if not trace:
            expect(got["value"] > 0, f"{workload}: {m['name']} is {got['value']}")
    return {name: v["value"] for name, v in metrics.items()}


def check_calls(workload, values):
    for name, want in CALLS.items():
        sign = want.get(workload)
        if sign == "+":
            expect(values[name] > 0, f"{workload}: {name} is {values[name]}, expected > 0")
        elif sign == "0":
            expect(values[name] == 0, f"{workload}: {name} is {values[name]}, expected 0")


def corrupt(cls, out):
    """A wrong copy of the output of an op of workload class `cls`."""
    if isinstance(out, tuple) and cls.startswith("n"):  # query: move one CVP answer
        U_np, U_cvp = out
        U_cvp = U_cvp.copy()
        U_cvp[0, 0] += 1
        return U_np, U_cvp
    if isinstance(out, tuple):  # several outputs: corrupt the last one
        i = max(j for j, o in enumerate(out) if o is not None)
        return out[:i] + (corrupt(cls, out[i]),) + out[i + 1:]
    if out.lstrip().startswith("{"):
        r = json.loads(out)
        if "babai_match_count" in r:
            r["babai_match_count"] -= 1
        else:  # an error probability of 0, reported consistently
            r["pe"] = 0.0
            if "std_error" in r:
                r["std_error"] = 0.0
        return json.dumps(r)
    lines = out.splitlines()  # CSV: change the fourth value of the last row
    f = lines[-1].split(",")
    f[3] = repr(float(f[3]) + 1e-3)
    return "\n".join(lines[:-1] + [",".join(f)]) + "\n"


def check_checks(workload):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    import workloads

    scripts = run.set_up(workload)
    with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
        w = workloads.WORKLOADS[workload](1, Path(tmp), scripts)
        for cls in w.classes:
            op = w.make_op(cls, 0)
            out = w.run(op)
            w.check(op, out)
            try:
                w.check(op, corrupt(cls, out))
            except workloads.CheckError:
                continue
            raise SmokeError(f"{workload} {cls}: a corrupted output passed its check")


def work_dir():
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def check_without_program():
    with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "mc", 0)
        expect(proc.returncode != 0, "ran without the program")
        expect('"correct"' not in proc.stdout, "printed a result without the program")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in WORKLOADS:
            check_result(workload, 0, spec["end_to_end"])
            check_calls(workload, check_result(workload, 1, spec["per_layer"]))
            check_checks(workload)
            print(f"{workload}: ok", flush=True)
        check_without_program()
        print("without the program: fails as it should")
    except SmokeError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
