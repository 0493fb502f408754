"""Communication protocols for distributed nearest-plane computation.

Each of n nodes observes one coordinate of the target x.  Two schemes
compute the nearest-plane coefficient vector:

* centralized: every node sends its locally rounded coefficient plus a
  small side value s to a fusion center, which reconstructs the exact
  sequential rounding using only integer arithmetic.  This needs the
  off-diagonal/diagonal ratios of the (upper triangular) generator to be
  rational: s is a threshold on the q_m-quantized fractional offset.
* interactive: nodes take turns broadcasting their coefficient for the
  scaled lattice alpha * Lambda, last coordinate first; each node can then
  reproduce the full vector.

Message payloads are counted in bits with a variable-length signed integer
code (zigzag + base-128), so typical small coefficients cost one byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .babai import nearest_plane
from .lattice import GeneratorMatrix, round_half_up

__all__ = [
    "ProtocolError",
    "ProtocolUnsupportedError",
    "SourceModel",
    "RatioTable",
    "CentralizedMessage",
    "Message",
    "Transcript",
    "varint_encode",
    "varint_decode",
    "varint_bits",
    "build_ratio_table",
    "node_encode",
    "fusion_decode",
    "run_centralized",
    "run_interactive",
    "interactive_coefficients_batch",
    "centralized_rate_bound",
    "interactive_rate",
    "empirical_entropy",
]

class ProtocolError(ValueError):
    pass


class ProtocolUnsupportedError(ProtocolError):
    """The basis does not meet a protocol's structural requirements."""


def varint_encode(value: int) -> bytes:
    """Zigzag + base-128 encoding of a signed integer."""
    zz = (value << 1) if value >= 0 else ((-value) << 1) - 1
    out = bytearray()
    while True:
        byte = zz & 0x7F
        zz >>= 7
        if zz:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def varint_decode(data: bytes, offset: int = 0):
    """Inverse of varint_encode; returns (value, next_offset)."""
    zz = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ProtocolError("truncated varint")
        byte = data[offset]
        offset += 1
        zz |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    value = (zz >> 1) if not zz & 1 else -((zz + 1) >> 1)
    return value, offset


def varint_bits(value: int) -> int:
    zz = (value << 1) if value >= 0 else ((-value) << 1) - 1
    return 8 * max(1, (zz.bit_length() + 6) // 7)


@dataclass(frozen=True)
class SourceModel:
    """Per-coordinate source distribution, used for rate formulas and for
    drawing simulation inputs."""

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    mean: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind == "uniform":
            if not self.hi > self.lo:
                raise ValueError("uniform source needs hi > lo")
        elif self.kind == "gaussian":
            if not self.sigma > 0:
                raise ValueError("gaussian source needs sigma > 0")
        else:
            raise ValueError(f"unknown source kind: {self.kind!r}")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "SourceModel":
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def gaussian(cls, mean: float, sigma: float) -> "SourceModel":
        return cls(kind="gaussian", mean=float(mean), sigma=float(sigma))

    def differential_entropy_bits(self) -> float:
        if self.kind == "uniform":
            return math.log2(self.hi - self.lo)
        return 0.5 * math.log2(2.0 * math.pi * math.e * self.sigma ** 2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size=size)
        return rng.normal(self.mean, self.sigma, size=size)

    def to_json(self) -> dict:
        if self.kind == "uniform":
            return {"dist": "uniform", "lo": self.lo, "hi": self.hi}
        return {"dist": "gaussian", "mean": self.mean, "sigma": self.sigma}

    @classmethod
    def from_json(cls, obj) -> "SourceModel":
        if not isinstance(obj, dict) or "dist" not in obj:
            raise ValueError('source JSON needs a "dist"')
        kind = obj["dist"]
        if kind == "uniform":
            return cls.uniform(obj.get("lo", 0.0), obj.get("hi", 1.0))
        if kind == "gaussian":
            return cls.gaussian(obj.get("mean", 0.0), obj.get("sigma", 1.0))
        raise ValueError(f"unknown source dist: {kind!r}")


@dataclass(frozen=True)
class RatioTable:
    """Exact off-diagonal/diagonal ratios of an upper triangular generator.

    ratios[(m, l)] = v_{m,l} / v_{m,m} for l > m, as reduced Fractions;
    q[m] is the lcm of their denominators (1 for the last row);
    weights[(m, l)] = ratios[(m, l)] * q[m], an exact integer.
    """

    ratios: dict
    q: tuple
    weights: dict


@dataclass(frozen=True)
class CentralizedMessage:
    """One node's report: locally rounded coefficient plus the quantized
    fractional-offset threshold s in [0, q_m - 1]."""

    sender: int
    b_tilde: int
    s: int


@dataclass(frozen=True)
class Message:
    sender: int
    receivers: tuple
    payload: dict
    bits: int

    def to_json(self) -> dict:
        return {"from": self.sender, "to": list(self.receivers),
                "payload": dict(self.payload), "bits": self.bits}


@dataclass(frozen=True)
class Transcript:
    model: str
    messages: tuple
    total_bits: int
    decoded: dict
    analytic_rate_bound: float | None = field(default=None)

    def to_json(self) -> dict:
        out = {
            "model": self.model,
            "total_bits": self.total_bits,
            "messages": [m.to_json() for m in self.messages],
            "decoded": {str(k): [int(c) for c in v]
                        for k, v in self.decoded.items()},
        }
        if self.analytic_rate_bound is not None:
            out["analytic_rate_bound"] = self.analytic_rate_bound
        return out


def build_ratio_table(V: GeneratorMatrix) -> RatioTable:
    if not V.is_upper_triangular():
        raise ProtocolUnsupportedError(
            "centralized protocol needs an upper triangular generator")
    if V.rational is None:
        raise ProtocolUnsupportedError(
            "centralized protocol needs exact rational entries")
    n = V.n
    ratios = {}
    q = []
    weights = {}
    for m in range(n):
        for l in range(m + 1, n):
            if V.rational[m][m] is None or V.rational[m][l] is None:
                raise ProtocolUnsupportedError(
                    f"entry ({m},{l}) has no exact rational value")
            r = V.rational[m][l] / V.rational[m][m]
            if r != 0:
                ratios[(m, l)] = r
        row_dens = [ratios[(m, l)].denominator for l in range(m + 1, n)
                    if (m, l) in ratios]
        q.append(math.lcm(*row_dens) if row_dens else 1)
        for l in range(m + 1, n):
            if (m, l) in ratios:
                r = ratios[(m, l)]
                weights[(m, l)] = r.numerator * (q[m] // r.denominator)
    return RatioTable(ratios=ratios, q=tuple(q), weights=weights)


def node_encode(x_m: float, v_mm: float, q_m: int,
                sender: int = 0) -> CentralizedMessage:
    """Local computation of node m.

    b_tilde = [x_m / v_mm]; s quantizes the fractional offset
    d = x_m / v_mm - b_tilde in [-1/2, 1/2) to s = floor(q_m (d + 1/2)),
    capped at q_m - 1.  The fraction arithmetic is exact: d is an exact
    float difference and converts losslessly to a rational.
    """
    if v_mm == 0 or not math.isfinite(v_mm):
        raise ProtocolError("diagonal entry must be finite and nonzero")
    if q_m < 1:
        raise ProtocolError("q_m must be a positive integer")
    z = float(x_m) / float(v_mm)
    if not math.isfinite(z):
        raise ProtocolError(f"cannot encode {x_m!r}")
    b_tilde = round_half_up(z)
    d = z - b_tilde  # exact: b_tilde is within 1/2 of z
    # floor(q (d + 1/2)) in exact integer arithmetic: d = num/den gives
    # q (d + 1/2) = q (2 num + den) / (2 den)
    num, den = d.as_integer_ratio()
    s = min(q_m - 1, q_m * (2 * num + den) // (2 * den))
    return CentralizedMessage(sender=sender, b_tilde=b_tilde, s=s)


def fusion_decode(messages, table: RatioTable) -> np.ndarray:
    """Reconstruct the nearest-plane coefficients from all node reports.

    Integer arithmetic only: with N = sum_l b_l w_{m,l} and N = q_m t + r
    (0 <= r < q_m), the corrected coefficient is b_tilde - t - 1[r > s].
    messages[m] must be the report for coordinate m.
    """
    n = len(table.q)
    if len(messages) != n:
        raise ProtocolError(f"expected {n} messages, got {len(messages)}")
    b = np.zeros(n, dtype=np.int64)
    for m in range(n - 1, -1, -1):
        msg = messages[m]
        N = sum(int(b[l]) * table.weights.get((m, l), 0)
                for l in range(m + 1, n))
        t, r = divmod(N, table.q[m])
        b[m] = msg.b_tilde - t - (1 if r > msg.s else 0)
    return b


def _s_bits(q_m: int) -> int:
    return (q_m - 1).bit_length() if q_m > 1 else 0


def run_centralized(V: GeneratorMatrix, x):
    """One round of the centralized protocol: n reports to the fusion
    center (node 0), then exact reconstruction.  Returns (b, Transcript)."""
    table = build_ratio_table(V)
    x = np.asarray(x, dtype=float)
    if x.shape != (V.n,):
        raise ProtocolError(f"x must have shape ({V.n},)")
    reports = []
    messages = []
    for m in range(V.n):
        rep = node_encode(float(x[m]), float(V.matrix[m, m]), table.q[m],
                          sender=m + 1)
        reports.append(rep)
        bits = varint_bits(rep.b_tilde) + _s_bits(table.q[m])
        messages.append(Message(sender=m + 1, receivers=(0,),
                                payload={"b_tilde": rep.b_tilde, "s": rep.s},
                                bits=bits))
    coeffs = fusion_decode(reports, table)
    transcript = Transcript(model="centralized", messages=tuple(messages),
                            total_bits=sum(m.bits for m in messages),
                            decoded={0: coeffs})
    return coeffs, transcript


def _interactive_lattice(V: GeneratorMatrix, alpha) -> GeneratorMatrix:
    """alpha * Lambda, after checking that the interactive protocol applies."""
    if not V.is_upper_triangular():
        raise ProtocolUnsupportedError(
            "interactive protocol needs an upper triangular generator")
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ProtocolError("alpha must be a positive finite scale")
    return V.scaled(alpha)


def run_interactive(V: GeneratorMatrix, x, alpha: float):
    """One round of the interactive protocol on the scaled lattice
    alpha * Lambda: node n broadcasts first, then n-1, ..., then 1; every
    node ends up with the full coefficient vector.  Returns (b, Transcript)."""
    scaled = _interactive_lattice(V, alpha)
    x = np.asarray(x, dtype=float)
    if x.shape != (V.n,):
        raise ProtocolError(f"x must have shape ({V.n},)")
    coeffs = nearest_plane(scaled, x).coeffs
    messages = []
    for i in range(V.n - 1, -1, -1):
        u = int(coeffs[i])
        others = tuple(j + 1 for j in range(V.n) if j != i)
        messages.append(Message(sender=i + 1, receivers=others,
                                payload={"u": u},
                                bits=(V.n - 1) * varint_bits(u)))
    decoded = {i + 1: coeffs.copy() for i in range(V.n)}
    transcript = Transcript(model="interactive", messages=tuple(messages),
                            total_bits=sum(m.bits for m in messages),
                            decoded=decoded)
    return coeffs, transcript


def interactive_coefficients_batch(V: GeneratorMatrix, X,
                                   alpha: float) -> np.ndarray:
    """Coefficient vectors of the interactive protocol for many targets at
    once (rows of X): the nearest-plane coefficients on alpha * Lambda."""
    scaled = _interactive_lattice(V, alpha)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != V.n:
        raise ProtocolError(f"X must have shape (k, {V.n})")
    return nearest_plane(scaled, X).coeffs


def centralized_rate_bound(sources, V: GeneratorMatrix,
                           alpha: float) -> float:
    """Upper bound on the total rate (bits per round) of the centralized
    protocol at scale alpha:

        sum_i h(p_i) - log2 |det V| - n log2 alpha + sum_i log2 q_i.
    """
    table = build_ratio_table(V)
    if len(sources) != V.n:
        raise ProtocolError("one source per coordinate required")
    h = sum(s.differential_entropy_bits() for s in sources)
    return (h - math.log2(abs(V.det)) - V.n * math.log2(float(alpha))
            + sum(math.log2(qm) for qm in table.q))


def interactive_rate(sources, V: GeneratorMatrix, alpha: float) -> float:
    """Asymptotic total rate of the interactive protocol: each of the n
    coefficients is heard by n - 1 nodes,

        (n - 1) sum_i (h(p_i) - log2(alpha |v_ii|)).
    """
    if not V.is_upper_triangular():
        raise ProtocolUnsupportedError(
            "interactive rate is defined for upper triangular generators")
    if len(sources) != V.n:
        raise ProtocolError("one source per coordinate required")
    total = sum(s.differential_entropy_bits()
                - math.log2(float(alpha) * abs(float(V.matrix[i, i])))
                for i, s in enumerate(sources))
    return (V.n - 1) * total


def empirical_entropy(samples) -> float:
    """Plug-in entropy (bits) of a sequence of hashable observations."""
    from collections import Counter

    counts = Counter(samples)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no samples")
    return -sum((c / total) * math.log2(c / total) for c in counts.values())
