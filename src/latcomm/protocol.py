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
from dataclasses import dataclass

import numpy as np

from .babai import nearest_plane
from .lattice import ROUND_LIMIT, GeneratorMatrix


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


def varint_bits(value):
    """Length in bits of varint_encode(value), from the zigzag value's
    count of 7-bit groups.  Takes an integer (returns an int) or an int64
    array (returns an int64 array of the same shape)."""
    v = np.asarray(value, dtype=np.int64)
    zz = ((v << 1) ^ (v >> 63)).view(np.uint64)  # zigzag, exact for int64
    bits = 8 * (1 + sum(zz >> np.uint64(7 * j) != 0 for j in range(1, 10)))
    return int(bits) if v.ndim == 0 else bits


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
    """Exact off-diagonal/diagonal ratios of an upper triangular generator,
    in integer form.

    q[m] is the lcm of the denominators of the ratios v_{m,l} / v_{m,m}
    (l > m), 1 for the last row; weights[m][l] = q[m] v_{m,l} / v_{m,m} is
    an exact int, 0 for l <= m.
    """

    q: tuple
    weights: tuple

    @property
    def s_bits(self) -> tuple:
        """Bits of each node's side value s in [0, q_m): ceil(log2 q_m)."""
        return tuple((qm - 1).bit_length() for qm in self.q)

    @property
    def side_info_bound_bits(self) -> float:
        """sum_m log2 q_m, the side information's share of the rate bound."""
        return sum(math.log2(qm) for qm in self.q)


@dataclass(frozen=True)
class CentralizedMessage:
    """One node's report: locally rounded coefficient plus the quantized
    fractional-offset threshold s in [0, q_m - 1]; object arrays of them
    for a batch of rounds."""

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
                "payload": {k: int(v) for k, v in self.payload.items()},
                "bits": int(self.bits)}


@dataclass(frozen=True)
class Transcript:
    """Messages of one round, or of k rounds at once: then every payload
    value, bit count and decoded vector carries a leading axis of length k."""

    model: str
    messages: tuple
    total_bits: int
    decoded: dict

    def row(self, i) -> "Transcript":
        """Round i of a batch transcript, as a single run on its target
        reports it."""
        messages = tuple(
            Message(m.sender, m.receivers,
                    {k: int(v[i]) for k, v in m.payload.items()},
                    int(m.bits[i])) for m in self.messages)
        return Transcript(self.model, messages, int(self.total_bits[i]),
                          {k: v[i] for k, v in self.decoded.items()})

    def to_json(self) -> dict:
        """JSON of a one-round transcript."""
        return {
            "model": self.model,
            "total_bits": int(self.total_bits),
            "messages": [m.to_json() for m in self.messages],
            "decoded": {str(k): [int(c) for c in v]
                        for k, v in self.decoded.items()},
        }


def build_ratio_table(V: GeneratorMatrix) -> RatioTable:
    if not V.is_upper_triangular():
        raise ProtocolUnsupportedError(
            "centralized protocol needs an upper triangular generator")
    if V.rational is None:
        raise ProtocolUnsupportedError(
            "centralized protocol needs exact rational entries")
    q = []
    weights = []
    for m in range(V.n):
        ratios = []
        for l in range(m + 1, V.n):
            if V.rational[m][m] is None or V.rational[m][l] is None:
                raise ProtocolUnsupportedError(
                    f"entry ({m},{l}) has no exact rational value")
            ratios.append(V.rational[m][l] / V.rational[m][m])
        qm = math.lcm(*(r.denominator for r in ratios))
        q.append(qm)
        weights.append((0,) * (m + 1) + tuple(
            r.numerator * (qm // r.denominator) for r in ratios))
    return RatioTable(q=tuple(q), weights=tuple(weights))


def _grid_position(z: float, q: int):
    """divmod(floor(q (z + 1/2)), q), exactly: z = num/den gives
    q (z + 1/2) = q (2 num + den) / (2 den)."""
    num, den = z.as_integer_ratio()
    return divmod(q * (2 * num + den) // (2 * den), q)


_grid_positions = np.frompyfunc(_grid_position, 2, 2)


def node_encode(x_m, v_mm: float, q_m: int,
                sender: int = 0) -> CentralizedMessage:
    """Local computation of node m, for one observation or an array of them.

    With z = x_m / v_mm, the node's position on the grid of step 1/q_m is
    c = floor(q_m (z + 1/2)); it reports (b_tilde, s) = divmod(c, q_m).
    So b_tilde = [z], and s = floor(q_m (d + 1/2)) in [0, q_m) quantizes
    the offset d = z - b_tilde in [-1/2, 1/2).  The arithmetic is exact, on
    Python ints; an array x_m gives object arrays of them.  Non-finite z
    and |z| >= 2^52 are rejected.
    """
    v_mm = float(v_mm)
    if v_mm == 0 or not math.isfinite(v_mm):
        raise ProtocolError("diagonal entry must be finite and nonzero")
    if q_m < 1:
        raise ProtocolError("q_m must be a positive integer")
    scalar = np.ndim(x_m) == 0
    z = float(x_m) / v_mm if scalar else np.asarray(x_m, dtype=float) / v_mm
    ok = abs(z) < ROUND_LIMIT  # False for nan and inf too
    if not (ok if scalar else ok.all()):
        bad = z if scalar else float(z[~ok][0])
        raise ProtocolError(
            f"cannot encode x/v = {bad!r}: need a finite |x/v| < 2**52")
    b_tilde, s = (_grid_position if scalar else _grid_positions)(z, q_m)
    return CentralizedMessage(sender=sender, b_tilde=b_tilde, s=s)


def fusion_decode(messages, table: RatioTable) -> np.ndarray:
    """Reconstruct the nearest-plane coefficients from all node reports.

    Integer arithmetic only: with N = sum_l b_l w_{m,l}, the corrected
    coefficient is b_tilde - floor(N / q_m) - 1[N mod q_m > s].
    messages[m] must be the report for coordinate m, as node_encode gives
    it: one round (Python ints) decodes to shape (n,), k rounds (object
    arrays of length k) to shape (k, n).
    """
    n = len(table.q)
    if len(messages) != n:
        raise ProtocolError(f"expected {n} messages, got {len(messages)}")
    b = [None] * n
    for m in range(n - 1, -1, -1):
        N = sum(b[l] * w for l, w in enumerate(table.weights[m]) if w)
        qm = table.q[m]
        b[m] = messages[m].b_tilde - N // qm - (N % qm > messages[m].s)
    return np.array(b, dtype=np.int64).T


def _targets(V: GeneratorMatrix, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != V.n:
        raise ProtocolError(f"x must have shape ({V.n},) or (k, {V.n})")
    return X


def run_centralized(V: GeneratorMatrix, X):
    """The centralized protocol on one target (shape (n,)) or one round per
    row of X (shape (k, n)): n reports to the fusion center (node 0), then
    exact reconstruction.  Returns (b, Transcript); b and every transcript
    value carry the leading shape of X."""
    table = build_ratio_table(V)
    X = _targets(V, X)
    reports = [node_encode(X.T[m], V.matrix[m, m], table.q[m], sender=m + 1)
               for m in range(V.n)]
    messages = tuple(
        Message(sender=r.sender, receivers=(0,),
                payload={"b_tilde": r.b_tilde, "s": r.s},
                bits=varint_bits(r.b_tilde) + s_bits)
        for r, s_bits in zip(reports, table.s_bits))
    coeffs = fusion_decode(reports, table)
    return coeffs, Transcript(model="centralized", messages=messages,
                              total_bits=sum(m.bits for m in messages),
                              decoded={0: coeffs})


def run_interactive(V: GeneratorMatrix, X, alpha: float):
    """The interactive protocol on the scaled lattice alpha * Lambda, for one
    target or one round per row of X: node n broadcasts first, then n-1,
    ..., then 1; every node ends up with the full coefficient vector.
    Returns (b, Transcript), shaped as in run_centralized."""
    coeffs = interactive_coefficients_batch(V, X, alpha)
    n = V.n
    messages = tuple(
        Message(sender=i + 1,
                receivers=tuple(j + 1 for j in range(n) if j != i),
                payload={"u": coeffs.T[i]},
                bits=(n - 1) * varint_bits(coeffs.T[i]))
        for i in range(n - 1, -1, -1))
    return coeffs, Transcript(model="interactive", messages=messages,
                              total_bits=sum(m.bits for m in messages),
                              decoded=dict.fromkeys(range(1, n + 1), coeffs))


def interactive_coefficients_batch(V: GeneratorMatrix, X,
                                   alpha: float) -> np.ndarray:
    """Coefficients of the interactive protocol for one target (shape (n,))
    or many (rows of X): the nearest-plane coefficients on alpha * Lambda."""
    if not V.is_upper_triangular():
        raise ProtocolUnsupportedError(
            "interactive protocol needs an upper triangular generator")
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ProtocolError("alpha must be a positive finite scale")
    return nearest_plane(V.scaled(alpha), _targets(V, X)).coeffs


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
            + table.side_info_bound_bits)


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
    """Plug-in entropy (bits) of a sequence or array of scalar observations.

    The terms are summed in order of each value's first occurrence.
    """
    values = np.asarray(samples)
    total = values.size
    if total == 0:
        raise ValueError("no samples")
    _, first, counts = np.unique(values, return_index=True,
                                 return_counts=True)
    return -sum((c / total) * math.log2(c / total)
                for c in counts[np.argsort(first)].tolist())
