#!/usr/bin/env python3
"""latcomm benchmark: one seeded workload, end-to-end or traced per layer.

    python3 bench/run.py --workload {mc,query,protocol,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; latcomm is imported from its `src/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records provenance.

--trace 0 measures the end-to-end metrics of BENCHMARK.json:
  items_per_s  a closed loop, one thread, gives each input class of the
               workload an equal share of S seconds; per class, the 90th
               percentile over ops of items / op time (on a shared machine
               interference only ever adds time); the geometric mean over
               classes, so that the same relative change in any one class
               moves the result alike however fast that class is; scaled to
               a fixed machine pace (see Pace)
  setup_s      median over this process and 12 fresh interpreters of the time
               from start until latcomm and the scripts the workload drives
               are imported (input generation excluded)
  peak_rss_mb  this process's peak resident set at the end of the timed loop
  bits_per_round.*  mean bits per round measured by `simulate` on the first
               op of each protocol scenario (other workloads run those ops
               after the timed loop)
--trace 1 runs every op of a fixed plan twice, untraced and with every listed
latcomm function wrapped (bench/tracer.py), checks that both give the same
outputs and reports the per-layer metrics.

Every op's output is checked, outside the op's timed call, against a
reference that does not reuse the code under test; `failed` counts ops that
raised or failed their check.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRIPTS = {"mc": (), "query": (), "protocol": ("rate_convergence",), "sweep": ("pe_sweep",)}
# fresh interpreters timed for setup_s, half before and half after the
# timed loop, so that the median spans the run rather than one moment
SETUP_PROBES = 12
# seconds per bench/pace.py loop that items_per_s is scaled to; about the
# fast end of the 2-vCPU machine the benchmark was defined on
PACE_NOMINAL_S = 3.0e-4
PACE_EVERY_S = 0.01


class SetupError(Exception):
    pass


def set_up(workload):
    """Import latcomm from this checkout and load the scripts the workload
    drives; returns the loaded script modules by name."""
    src = ROOT / "src"
    if not (src / "latcomm" / "__init__.py").is_file():
        raise SetupError(f"no latcomm package under {src}")
    sys.path.insert(0, str(src))
    import latcomm
    import latcomm.cli  # noqa: F401

    if Path(latcomm.__file__).resolve().parent != src / "latcomm":
        raise SetupError(f"imported latcomm from {latcomm.__file__}, not {src}")
    scripts = {}
    for name in SCRIPTS[workload]:
        path = ROOT / "scripts" / f"{name}.py"
        if not path.is_file():
            raise SetupError(f"missing {path}")
        spec = importlib.util.spec_from_file_location(f"latcomm_script_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        scripts[name] = module
    return scripts


def probe_setup(workload, count):
    """Set-up times of `count` fresh interpreters running only `set_up`."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-only"], capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def call(fn, op):
    try:
        return fn(op)
    except Exception as e:  # counted as a failed op
        return e


def decile(values, i):
    """The i-th decile (1..9), interpolated between observed values only;
    with one value, that value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[i - 1]


def check_one(w, op, out, check=None):
    """True if the op returned and its output passed its check."""
    try:
        if isinstance(out, Exception):
            raise out
        (check or w.check)(op, out)
        return True
    except Exception as e:  # a raised op or a failed check
        print(f"{w.name} {op.cls}#{op.k}: {type(e).__name__}: {e}", file=sys.stderr)
        return False


class Pace:
    """Times bench/pace.py's fixed loop in a separate interpreter between
    ops.  Its fast end (10th percentile) tracks the speed of the machine,
    which on a shared virtual machine drifts by tens of percent for seconds
    at a time; `factor` converts rates measured now to rates at the pace
    PACE_NOMINAL_S."""

    def __enter__(self):
        self.times = []
        self.last = 0.0
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "pace.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def sample(self):
        """One timing, at most every PACE_EVERY_S seconds."""
        if time.perf_counter() - self.last < PACE_EVERY_S:
            return
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))
        self.last = time.perf_counter()

    def seconds(self):
        return decile(self.times, 1)

    def factor(self):
        return self.seconds() / PACE_NOMINAL_S


def run_timed(w, seconds):
    """Closed loop: always run the class with the least time so far.  Each
    output is checked after its op's timed call and then dropped, so memory
    does not grow with the number of ops; the first op of each class is kept.
    Returns (items_per_s, attempted, failed, first outputs, counts)."""
    spent = dict.fromkeys(w.classes, 0.0)
    done = dict.fromkeys(w.classes, 0)
    rates = {c: [] for c in w.classes}
    items = dict.fromkeys(w.classes, 0)
    first = {}
    failed = 0
    with Pace() as pace:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or min(done.values()) == 0 or len(pace.times) < 2:
            cls = min(w.classes, key=spent.__getitem__)
            op = w.make_op(cls, done[cls])
            done[cls] += 1
            t0 = time.perf_counter()
            out = call(w.run, op)
            dt = time.perf_counter() - t0
            pace.sample()
            ok = check_one(w, op, out)
            failed += not ok
            n = w.items(op, out) if ok else 0
            spent[cls] += dt
            items[cls] += n
            rates[cls].append(n / dt)
            if op.k == 0:
                first[cls] = out
    class_rates = {c: decile(r, 9) for c, r in rates.items()}
    # a class whose ops all failed has rate 0, and so has the workload
    raw = (statistics.geometric_mean(class_rates.values())
           if min(class_rates.values()) > 0 else 0.0)
    counts = {"ops": done, "items": items, "class_seconds": spent,
              "class_items_per_s": class_rates, "pace_s": pace.seconds()}
    return raw * pace.factor(), sum(done.values()), failed, first, counts


def protocol_metrics(w, first):
    """Bit metrics of the first op of every protocol scenario: taken from
    `first` on the protocol workload, run untraced here on the others.
    Returns (metrics or None, attempted, failed)."""
    from workloads import Protocol, protocol_bits

    attempted = failed = 0
    if w.name != "protocol":
        p = Protocol(w.seed, w.workdir, {})
        first = {}
        for cls in p.classes:
            op = p.make_op(cls, 0)
            out = call(p.simulate, op)
            attempted += 1
            failed += not check_one(p, op, out, p.check_simulate)
            first[cls] = out
    outs = [first[c] for c in Protocol.classes]
    if any(isinstance(o, Exception) for o in outs):
        return None, attempted, failed
    return protocol_bits(outs), attempted, failed


def same_output(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_output(x, y) for x, y in zip(a, b))
    if hasattr(a, "shape"):
        return a.shape == b.shape and a.dtype == b.dtype and bool((a == b).all())
    return a == b


def measure(w, args):
    """End-to-end run; returns (values, attempted, failed, counts)."""
    items_per_s, attempted, failed, first, counts = run_timed(w, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bits, n, f = protocol_metrics(w, first)
    values = {"items_per_s": items_per_s, "peak_rss_mb": peak_rss_mb, **(bits or {})}
    return values, attempted + n, failed + f, counts


def measure_traced(w, scripts):
    """Per-layer run of a fixed plan of ops, each untraced and traced; an op
    fails if the two outputs differ or the traced one fails its check.
    Returns (values, attempted, failed, counts)."""
    from tracer import Tracer

    ops = [w.make_op(c, k) for k in range(w.trace_rounds) for c in w.classes]
    tracer = Tracer()

    def timed(op, traced):
        if traced:
            tracer.install([vars(m) for m in scripts.values()])
        try:
            t0 = time.perf_counter()
            out = call(w.run, op)
            return out, time.perf_counter() - t0
        finally:
            tracer.uninstall()

    # each op runs untraced and traced back to back, in alternating order,
    # so that warm-up and the machine's drift fall on both sides alike
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        for side in ((False, True) if i % 2 == 0 else (True, False)):
            out, dt = timed(op, side)
            if side:
                traced.append(out)
                traced_s += dt
            else:
                plain.append(out)
                plain_s += dt
    failed = 0
    for op, a, b in zip(ops, plain, traced):
        if not same_output(a, b):
            print(f"{w.name} {op.cls}#{op.k}: traced output differs", file=sys.stderr)
            failed += 1
        elif not check_one(w, op, b):
            failed += 1
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["trace.unattributed_s"] = traced_s - tracer.attributed_s()
    first = {op.cls: out for op, out in zip(ops, traced) if op.k == 0}
    bits, n, f = protocol_metrics(w, first)
    values.update(bits or {})
    counts = {"ops": dict.fromkeys(w.classes, w.trace_rounds)}
    return values, len(ops) + n, failed + f, counts


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCRIPTS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only time the set-up (used for the fresh-interpreter probes)")
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        scripts = set_up(args.workload)
    except (OSError, ValueError, SetupError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    from workloads import WORKLOADS

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        w = WORKLOADS[args.workload](args.seed, workdir, scripts)
        if args.trace:
            values, attempted, failed, counts = measure_traced(w, scripts)
            declared = spec["per_layer"]
        else:
            setups = [setup_s] + probe_setup(args.workload, SETUP_PROBES // 2)
            values, attempted, failed, counts = measure(w, args)
            setups += probe_setup(args.workload, SETUP_PROBES - SETUP_PROBES // 2)
            values["setup_s"] = statistics.median(setups)
            counts["setup_s"] = setups
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha(), **counts,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
