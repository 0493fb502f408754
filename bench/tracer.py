"""Spans around calls into latcomm's public functions, recorded from outside.

The tracer wraps each listed function and replaces it at *every* namespace
that binds it: `cli`, `babai`, `error_analysis`, `protocol` and the scripts
import functions by name, so patching only the defining module would miss
their calls.  Methods are wrapped on their class.  Each wrapped call is a
span; a function's self time is its span time minus the time of wrapped
spans it caused.  Spans are aggregated in memory per function, never
written out one by one.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

MODULES = ("lattice", "babai", "error_analysis", "protocol", "cli")
CVP_DIMS = (2, 3, 4, 5, 6)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) == 2 else 1
    return len(x)


# (module, function) -> how to read the work size from (args, kwargs);
# a method is named by its function and wrapped on GeneratorMatrix.
TARGETS = {
    ("lattice", "GeneratorMatrix"): None,
    ("lattice", "is_upper_triangular"): None,
    ("lattice", "gauss_reduce_2d"): None,
    ("lattice", "canonicalize_2d"): None,
    ("lattice", "cvp_bruteforce_batch"): lambda a, k: _rows(_arg(a, k, 1, "X")),
    ("babai", "nearest_plane"): None,
    ("error_analysis", "monte_carlo_pe"): lambda a, k: int(_arg(a, k, 1, "n_samples")),
    ("error_analysis", "exact_pe_area"): None,
    ("error_analysis", "voronoi_polygon_general"): None,
    ("error_analysis", "level_curve_points"): None,
    ("error_analysis", "analytic_pe"): None,
    ("protocol", "build_ratio_table"): None,
    ("protocol", "node_encode"): None,
    ("protocol", "fusion_decode"): None,
    ("protocol", "run_centralized"): None,
    ("protocol", "run_interactive"): None,
    ("protocol", "varint_bits"): None,
    ("protocol", "interactive_coefficients_batch"): lambda a, k: _rows(_arg(a, k, 1, "X")),
    ("protocol", "empirical_entropy"): lambda a, k: len(_arg(a, k, 0, "samples")),
    ("cli", "main"): None,
}
METHODS = {"GeneratorMatrix": "__init__", "is_upper_triangular": "is_upper_triangular"}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    size: int = 0
    # cvp_bruteforce_batch only: self time and rows per lattice dimension
    by_dim: dict = field(default_factory=dict)


class Tracer:
    """Install with `install(extra_namespaces)`, always `uninstall()` after."""

    def __init__(self):
        self.stats = {key: Stat() for key in TARGETS}
        self.errors = dict.fromkeys(MODULES, 0)
        self._stack = []
        self._patches = []  # (namespace dict or class, attribute, original)

    def _wrap(self, key, fn):
        stat = self.stats[key]
        size_of = TARGETS[key]
        stack = self._stack
        errors = self.errors
        module = key[0]
        is_cvp = key == ("lattice", "cvp_bruteforce_batch")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.self_s += own
                if size_of is not None:
                    size = size_of(args, kwargs)
                    stat.size += size
                    if is_cvp:
                        s, r = stat.by_dim.get(args[0].n, (0.0, 0))
                        stat.by_dim[args[0].n] = (s + own, r + size)

        return wrapper

    def install(self, extra_namespaces=()):
        """Wrap every target in the latcomm modules and in `extra_namespaces`
        (dicts, such as a loaded script's globals)."""
        lattice = sys.modules["latcomm.lattice"]
        cls = lattice.GeneratorMatrix
        originals = {}
        for (module, name), _ in TARGETS.items():
            if name in METHODS:
                attr = METHODS[name]
                fn = cls.__dict__.get(attr)
                if fn is not None:
                    setattr(cls, attr, self._wrap((module, name), fn))
                    self._patches.append((cls, attr, fn))
                continue
            fn = getattr(sys.modules.get(f"latcomm.{module}"), name, None)
            if fn is not None:
                originals[id(fn)] = (fn, self._wrap((module, name), fn))
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "latcomm" or n.startswith("latcomm.")]
        namespaces.extend(extra_namespaces)
        for ns in namespaces:
            for attr, value in list(ns.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[attr] = hit[1]
                    self._patches.append((ns, attr, value))

    def uninstall(self):
        for target, attr, value in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patches.clear()

    def attributed_s(self):
        return sum(s.self_s for s in self.stats.values())

    def metrics(self):
        """Per-layer metric values, named `<module>.<function>.<quantity>`."""
        out = {}
        for (module, name), s in self.stats.items():
            prefix = f"{module}.{name}"
            out[f"{prefix}.calls"] = s.calls
            out[f"{prefix}.self_s"] = s.self_s
        st = self.stats[("lattice", "cvp_bruteforce_batch")]
        out["lattice.cvp_bruteforce_batch.rows"] = st.size
        for n in CVP_DIMS:
            s, r = st.by_dim.get(n, (0.0, 0))
            out[f"lattice.cvp_bruteforce_batch.us_per_row.n{n}"] = 1e6 * s / r if r else 0.0
        st = self.stats[("babai", "nearest_plane")]
        out["babai.nearest_plane.us_per_call"] = 1e6 * st.self_s / st.calls if st.calls else 0.0
        out["error_analysis.monte_carlo_pe.samples"] = \
            self.stats[("error_analysis", "monte_carlo_pe")].size
        out["protocol.interactive_coefficients_batch.rows"] = \
            self.stats[("protocol", "interactive_coefficients_batch")].size
        out["protocol.empirical_entropy.samples"] = \
            self.stats[("protocol", "empirical_entropy")].size
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        return out
