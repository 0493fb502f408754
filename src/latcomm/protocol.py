"""Communication protocols for distributed nearest-plane computation.

Each of n nodes observes one coordinate of the target x.  Two schemes
compute the nearest-plane coefficient vector:

* centralized: node m sends one integer, its grid position
  c_m = floor(q_m (x_m / v_mm + 1/2)), to a fusion center, which finds the
  exact sequential rounding b_m = floor((c_m - N_m) / q_m) with integer
  arithmetic only (N_m = sum_{l>m} b_l q_m v_ml / v_mm).  This needs the
  off-diagonal/diagonal ratios of the (upper triangular) generator to be
  rational, so that every N_m is an integer.
* interactive: nodes take turns broadcasting their coefficient for the
  scaled lattice alpha * Lambda, last coordinate first; each node can then
  reproduce the full vector.

Given the sources of x, each node's messages over a batch of rounds form
one range-coded stream (Witten, Neal & Cleary, CACM 30(6), 1987) under a
pmf that the sender and its receivers both compute: the probability of
the cell of x_m that the node's symbol stands for.  Without sources, and
for a symbol outside a model's coding window, the payload is counted (and
escaped) with a variable-length signed integer code (zigzag + base-128),
so typical small coefficients cost one byte.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

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


# a zigzag value takes 1 + j 7-bit groups where it is at least 2^(7j)
_VARINT_STEPS = np.array([1 << 7 * j for j in range(1, 10)], dtype=np.uint64)


def varint_bits(value):
    """Length in bits of varint_encode(value): 8 bits per 7-bit group of
    the zigzag value, the groups counted by one search of the thresholds
    2^7, ..., 2^63.  Takes an integer (returns an int) or an int64 array
    (returns an int64 array of the same shape)."""
    v = np.asarray(value, dtype=np.int64)
    zz = ((v << 1) ^ (v >> 63)).view(np.uint64)  # zigzag, exact for int64
    bits = 8 * (1 + _VARINT_STEPS.searchsorted(zz, "right"))
    return int(bits) if v.ndim == 0 else bits


def _left_sum(values):
    """sum(values) added left to right from 0, one rounding per addition.
    From Python 3.12 the builtin sum() compensates float rounding, so the
    float sums that `simulate` and `rates` print go through this one, and
    print the same bits on every Python version."""
    return reduce(operator.add, values, 0)


# a gaussian source's coding window spans mean +- 8 sigma; P(|z| > 8) is
# about 1e-15, and a symbol beyond it is escaped
_GAUSS_REACH = 8.0

# the parameters of each source kind, as its JSON names them
_SOURCE_PARAMS = {"uniform": ("lo", "hi"), "gaussian": ("mean", "sigma")}


def _is_number(value) -> bool:
    """True for a JSON number, an int or a float; a bool or a string is
    not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value) -> float:
    """A JSON number as a float.  An int beyond the floats reads as +-inf,
    as JSON reads the literal 1e309, so the finiteness checks name it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        if self.kind not in _SOURCE_PARAMS:
            raise ValueError(f"unknown source kind: {self.kind!r}")
        for name in _SOURCE_PARAMS[self.kind]:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.kind} source needs a finite {name}")
        if self.kind == "uniform":
            if not self.hi > self.lo:
                raise ValueError("uniform source needs hi > lo")
            if math.isinf(self.hi - self.lo):
                raise ValueError("uniform source needs a finite hi - lo")
        elif not self.sigma > 0:
            raise ValueError("gaussian source needs sigma > 0")
        else:
            try:  # sigma ** 2 raises past the largest float
                arg = 2.0 * math.pi * math.e * self.sigma ** 2
            except OverflowError:
                arg = math.inf
            if not 0.0 < arg < math.inf:  # the entropy is half its log
                raise ValueError("gaussian source needs 2 pi e sigma^2 "
                                 "within the floats")

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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """P(X <= x) for each entry of the float array x: linear for a
        uniform source, from math.erf for a gaussian one."""
        if self.kind == "uniform":
            u = (x - self.lo) / (self.hi - self.lo)
            return np.minimum(np.maximum(u, 0.0), 1.0)
        z = (x - self.mean) / (self.sigma * math.sqrt(2.0))
        erf = np.fromiter(map(math.erf, z.ravel().tolist()), float, z.size)
        return 0.5 * (1.0 + erf.reshape(z.shape))

    def coding_support(self) -> tuple:
        """The x interval that a node's coding window covers: the whole
        support of a uniform source, mean +- _GAUSS_REACH sigma of a
        gaussian one (its tails are escaped)."""
        if self.kind == "uniform":
            return self.lo, self.hi
        reach = _GAUSS_REACH * self.sigma
        return self.mean - reach, self.mean + reach

    @classmethod
    def from_json(cls, obj) -> "SourceModel":
        if not isinstance(obj, dict) or "dist" not in obj:
            raise ValueError('source JSON needs a "dist"')
        if not all(_is_number(v) for k, v in obj.items() if k != "dist"):
            raise ValueError("source parameters must be numbers")
        kind = obj["dist"]
        if not isinstance(kind, str) or kind not in _SOURCE_PARAMS:
            raise ValueError(f"unknown source dist: {kind!r}")
        return cls(kind, **{k: _as_float(obj[k])
                            for k in _SOURCE_PARAMS[kind] if k in obj})


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
        return _left_sum(math.log2(qm) for qm in self.q)


@dataclass(frozen=True)
class Message:
    """One node's message.  bits counts it once per receiver: the varint
    length (an int), or under a source model the quantized
    self-information -log2(freq / total) of its symbol (a float)."""

    sender: int
    receivers: tuple
    payload: dict
    bits: float

    def to_json(self) -> dict:
        return {"from": self.sender, "to": list(self.receivers),
                "payload": {k: int(v) for k, v in self.payload.items()},
                "bits": self.bits}


@dataclass(frozen=True)
class CodedStream:
    """A range-coded bit string: nbits bits, left-aligned in data, which
    code `rounds` rounds.  The bits alone do not say where the rounds end:
    read on past them as zeros, they decode to further symbols."""

    data: bytes
    nbits: int
    rounds: int


@dataclass(frozen=True)
class Transcript:
    """Messages of one round, or of k rounds at once: then every payload
    value, bit count and decoded vector carries a leading axis of length k.
    streams holds each message's coded stream over all rounds, in message
    order, or None where the payloads are counted with the varint."""

    model: str
    messages: tuple
    total_bits: float
    decoded: dict
    streams: tuple = None

    @property
    def wire_bits(self) -> int:
        """Bits sent over all rounds, once per receiver: the coded streams'
        lengths, or else the varint counts."""
        if self.streams is None:
            return int(np.sum(self.total_bits))
        return sum(len(m.receivers) * s.nbits
                   for m, s in zip(self.messages, self.streams))

    def row(self, i) -> "Transcript":
        """Round i of a batch transcript, as a single run on its target
        reports it; it carries no stream."""
        messages = tuple(
            Message(m.sender, m.receivers,
                    {k: int(v[i]) for k, v in m.payload.items()},
                    m.bits[i].item()) for m in self.messages)
        return Transcript(self.model, messages, self.total_bits[i].item(),
                          {k: v[i] for k, v in self.decoded.items()})

    def to_json(self) -> dict:
        """JSON of a one-round transcript."""
        return {
            "model": self.model,
            "total_bits": self.total_bits,
            "messages": [m.to_json() for m in self.messages],
            "decoded": {str(k): [int(c) for c in v]
                        for k, v in self.decoded.items()},
        }


# The range coder.  A symbol has a count out of 2^32, and the coder takes
# symbols two at a time: (c1, f1) then (c2, f2) is the symbol
# (c1 2^32 + f1 c2, f1 f2) out of 2^64, exactly, in uint64 while every
# count is below 2^32.  The low end and the range live in a _PREC-bit
# window and are renormalized by whole bytes once the range falls below
# 2^96: range >> 64 then keeps 32 bits, so truncation costs under 2^-31
# bits a pair, and the wide window makes renormalizing rare.
_CODE_BITS = 32
_CODE_TOTAL = 1 << _CODE_BITS
_PAIR_BITS = 2 * _CODE_BITS
_PREC = 256
_TOP = 1 << _PREC
_BOT = 1 << (_PAIR_BITS + 32)
# the widest window a model codes: its symbols' floor counts take at most
# 2^-7 of the total.  Beyond it every symbol is escaped.
_WINDOW_MAX = 1 << 24
# an escaped symbol's varint bytes are coded as uniform symbols
_BYTE_COUNT = _CODE_TOTAL >> 8
# symbols that the decoder's search reads per call of `edges`
_DECODE_FANOUT = 64
# adds 0 and 1 to an array of symbols: the lower and upper edges of a cell
_NEXT = np.array([[0.0], [1.0]])


def _carry(out: bytearray) -> None:
    """Add one to the bytes already sent."""
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1


def _range_encode(cum, freq, rounds) -> CodedStream:
    """Range-code the symbols (cum, freq) out of 2^32 (int sequences), two
    at a time, an odd one out padded with a symbol of count 2^32 - 1, and
    end with the shortest bit string that, read on with zeros, lies in the
    final interval: at most -log2(width) + 1 bits in all.  The stream
    records that its symbols code `rounds` rounds."""
    if len(cum) % 2:
        cum, freq = np.append(cum, 0), np.append(freq, _CODE_TOTAL - 1)
    cum, freq = np.asarray(cum, np.uint64), np.asarray(freq, np.uint64)
    pairs = zip(((cum[0::2] << np.uint64(_CODE_BITS))
                 + freq[0::2] * cum[1::2]).tolist(),
                (freq[0::2] * freq[1::2]).tolist())
    low, rng, out = 0, _TOP, bytearray()
    bits, bot = _PAIR_BITS, _BOT
    for c, f in pairs:
        r = rng >> bits
        low += r * c
        rng = r * f
        if rng < bot:
            s = (_PREC - rng.bit_length()) & -8
            head = low >> (_PREC - s)
            if head >> s:
                _carry(out)
            out += (head & ((1 << s) - 1)).to_bytes(s >> 3, "big")
            low = (low << s) & (_TOP - 1)
            rng <<= s
    if low:
        hi = low + rng - 1
        # hi with its bits below the top one where hi and low - 1 differ
        # cleared: the value in [low, hi] with the most trailing zeros
        zeros = ((low - 1) ^ hi).bit_length() - 1
        v = hi >> zeros << zeros
    else:
        zeros, v = _PREC, 0
    if v >> _PREC:
        _carry(out)
        v -= _TOP
    tail = _PREC - zeros
    value = (int.from_bytes(out, "big") << tail) | (v >> zeros)
    nbits = 8 * len(out) + tail
    if value:
        trailing = (value & -value).bit_length() - 1
        value >>= trailing
        nbits -= trailing
    else:
        nbits = 0
    return CodedStream((value << (-nbits % 8)).to_bytes((nbits + 7) // 8,
                                                       "big"), nbits, rounds)


class _RangeDecoder:
    """Reads a stream of _range_encode symbol by symbol: target() gives the
    next symbol's position in [0, 2^32), and consume(cum, freq) takes the
    symbol whose counts cover it.  Bits past the end read as zeros."""

    def __init__(self, stream: CodedStream):
        self.data = stream.data
        self.pos = _PREC // 8
        self.d = int.from_bytes(self.data[:self.pos].ljust(self.pos, b"\0"),
                                "big")
        self.rng = _TOP
        self.second = False  # the next symbol is the second of a pair

    def target(self) -> int:
        if self.second:
            return self.t
        self.r = self.rng >> _PAIR_BITS
        self.t = self.d // self.r
        return self.t >> _CODE_BITS

    def consume(self, cum: int, freq: int) -> None:
        if not self.second:
            # the second symbol's position is what is left, over freq
            self.first = cum, freq
            self.t = (self.t - (cum << _CODE_BITS)) // freq
            self.second = True
            return
        c1, f1 = self.first
        self.second = False
        self.d -= self.r * ((c1 << _CODE_BITS) + f1 * cum)
        self.rng = self.r * f1 * freq
        if self.rng < _BOT:
            s = (_PREC - self.rng.bit_length()) & -8
            chunk = self.data[self.pos:self.pos + s // 8]
            self.pos += s // 8
            self.d = (self.d << s) | int.from_bytes(chunk.ljust(s // 8, b"\0"),
                                                    "big")
            self.rng <<= s


class _NodeModel:
    """The pmf that one node codes every round of its stream under.

    Symbol j stands for the cell of the node's coordinate x_m between the
    edges e(j) = off + a (j / q - 1/2) and e(j + 1): the grid the node
    rounds on, shifted by what its receivers already know.  A window of W
    symbols from j0 covers the source's coding support, with spare cells.
    Symbol j0 + i has cum floor(S G(e(j))) + 2 i, G the CDF of x_m, and a
    count of at least 1 even where G is off by an ulp; S = 2^32 - 2 W - 1.
    The rest of the total, from S + 2 W, is the escape, after which the
    symbol follows as a varint relative to j0.  Where W would exceed
    _WINDOW_MAX, or the window lies beyond exact floats, W = S = 0 and every
    symbol is escaped with a count of 2^32 - 1, at almost no cost but its
    varint.
    """

    def __init__(self, source: SourceModel, a: float, q: int):
        self.source, self.rising = source, a > 0
        lo, hi = source.coding_support()
        # j0 = floor(q ((start - off) / a + 1/2)) - 1 as
        # floor(base - off gain), and e(j) = j slope + off - a/2
        self.base = q * (lo if a > 0 else hi) / a + 0.5 * q - 1.0
        self.gain, self.slope, self.shift = q / a, a / q, -0.5 * a
        width = q * (hi - lo) / abs(a)
        # symbols near j0 = floor(base), the window at offset 0, must be
        # exact floats; a centralized node's offset is 0, and an
        # interactive node's symbols stay below 2^52 anyway
        self.W = (math.floor(width) + 5 if width < _WINDOW_MAX - 5
                  and abs(self.base) < ROUND_LIMIT - _WINDOW_MAX else 0)
        self.escape = _CODE_TOTAL - 1 if self.W else 1  # S + 2 W, or 1
        self.S = _CODE_TOTAL - 2.0 * self.W - 1.0 if self.W else 0.0
        self.mid = 0.5 * (self.W - 1.0)

    def first(self, off):
        """The window's first symbol j0 at offsets off (floats)."""
        return np.floor(self.base - off * self.gain)

    def edges(self, off, j):
        """floor(S G(e(j))) at the edges e(j), as floats holding integers;
        G is the CDF, or 1 - CDF where a < 0, so that these rise with j.
        The encoder and the decoder take every count from here."""
        F = self.source.cdf(j * self.slope + (off + self.shift))
        return np.floor(self.S * (F if self.rising else 1.0 - F))

    def encode(self, off, J):
        """Code the symbols J (shape (k,), ints or object ints) at offsets
        off (floats, shape (k,)): the stream, and each symbol's quantized
        self-information in bits, shape (k,)."""
        j0 = self.first(off)
        j = np.asarray(J, dtype=float) + _NEXT  # a cell's lower, upper edge
        i = j - j0
        cum, nxt = (self.edges(off, j) + 2.0 * i).astype(np.int64)
        freq = nxt - cum
        out = (np.abs(i[0] - self.mid) > self.mid).nonzero()[0]  # escaped
        cum[out], freq[out] = self.escape, _CODE_TOTAL - self.escape
        info = _CODE_BITS - np.log2(freq)
        cums, freqs, start = [], [], 0
        for r in out.tolist():  # the varint bytes follow the escape
            code = varint_encode(int(J[r]) - int(j0[r]))
            cums += [cum[start:r + 1], [b * _BYTE_COUNT for b in code]]
            freqs += [freq[start:r + 1], [_BYTE_COUNT] * len(code)]
            info[r] += 8 * len(code)
            start = r + 1
        return _range_encode(np.concatenate(cums + [cum[start:]]),
                             np.concatenate(freqs + [freq[start:]]),
                             len(J)), info

    def decode(self, stream, off) -> list:
        """The symbols of the stream, one per round at the offsets off
        (floats, shape (rounds,))."""
        dec = _RangeDecoder(stream)
        symbols = []
        for o, first in zip(off.tolist(), self.first(off).tolist()):
            t = dec.target()
            if t >= self.escape:  # the escape, then the varint bytes
                dec.consume(self.escape, _CODE_TOTAL - self.escape)
                extra = bytearray()
                while not extra or extra[-1] & 0x80:
                    byte = dec.target() // _BYTE_COUNT
                    dec.consume(byte * _BYTE_COUNT, _BYTE_COUNT)
                    extra.append(byte)
                symbols.append(int(first) + varint_decode(extra)[0])
                continue
            # cum(i) = edges(first + i) + 2 i; keep cum(lo) <= t < cum(hi),
            # probing up to _DECODE_FANOUT + 1 symbols from lo to hi at once
            lo, hi = 0, self.W
            while hi - lo > 1:
                step = -(-(hi - lo) // _DECODE_FANOUT)
                i = np.minimum(np.arange(lo, hi + step, step), hi)
                cum = self.edges(o, first + i) + 2.0 * i
                p = int(cum.searchsorted(t, "right")) - 1
                lo, hi = int(i[p]), int(i[p + 1])
            dec.consume(int(cum[p]), int(cum[p + 1] - cum[p]))
            symbols.append(int(first) + lo)
        return symbols


def _node_models(sources, a, q) -> list:
    """The model of each node, for diagonal entries a and grid steps q."""
    if len(sources) != len(a):
        raise ProtocolError("one source per coordinate required")
    return list(map(_NodeModel, sources, a, q))


def _offsets(M, U) -> np.ndarray:
    """off[:, i] = sum over l > i of M[i, l] U[:, l], added in order of l:
    the same floats at the sender and at each receiver, which knows only
    the columns l > i of U."""
    off = np.zeros(U.shape)
    for l in range(1, U.shape[1]):
        off[:, :l] += U[:, l, None] * M[:l, l]
    return off


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


def _grid_position(z: float, q: int) -> int:
    """floor(q (z + 1/2)), exactly: z = num/den gives
    q (z + 1/2) = q (2 num + den) / (2 den)."""
    num, den = z.as_integer_ratio()
    return q * (2 * num + den) // (2 * den)


_grid_positions = np.frompyfunc(_grid_position, 2, 1)


def _grid_positions_batch(z: np.ndarray, q: int) -> np.ndarray:
    """_grid_position over an array, as an object array.  Where q (|z| + 1)
    stays below 2^51, every half-integer in reach is a float and rounding
    is monotone, so y = fl(fl(q z) + q/2) has floor(q (z + 1/2)) as its
    floor unless y is an integer itself; _grid_position decides there,
    and for the whole array beyond that reach."""
    reach = np.max(np.abs(z), initial=0.0) + 1.0
    if q >= 2 ** 51 or not q * reach < 2.0 ** 51:
        return _grid_positions(z, q)
    y = q * z + 0.5 * q
    c = np.floor(y)
    slow = c == y
    c = c.astype(np.int64).astype(object)
    if slow.any():
        c[slow] = _grid_positions(z[slow], q)
    return c


def node_encode(x_m, v_mm: float, q_m: int):
    """Local computation of node m, for one observation or an array of them:
    its report, the grid position c = floor(q_m (z + 1/2)) of z = x_m / v_mm
    on the grid of step 1/q_m.

    divmod(c, q_m) is the paper's pair: the locally rounded coefficient [z]
    and the side value s = floor(q_m (d + 1/2)) in [0, q_m), which quantizes
    the offset d = z - [z] in [-1/2, 1/2).  The arithmetic is exact: one
    observation gives a Python int, an array an object array of them.
    Non-finite z and |z| >= 2^52 are rejected.
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
    return (_grid_position if scalar else _grid_positions_batch)(z, q_m)


def fusion_decode(positions, table: RatioTable) -> np.ndarray:
    """Reconstruct the nearest-plane coefficients from all node reports.

    Integer arithmetic only: with the integer N_m = sum_{l>m} b_l w_{m,l},
    b_m = [z_m - N_m / q_m] = floor((q_m (z_m + 1/2) - N_m) / q_m), which is
    floor((c_m - N_m) / q_m) as N_m is an integer.  positions[m] must be the
    grid position of coordinate m, as node_encode gives it: one round
    (Python ints) decodes to shape (n,), k rounds (object arrays of length
    k) to shape (k, n).
    """
    n = len(table.q)
    if len(positions) != n:
        raise ProtocolError(f"expected {n} reports, got {len(positions)}")
    b = [None] * n
    for m in range(n - 1, -1, -1):
        N = sum(b[l] * w for l, w in enumerate(table.weights[m]) if w)
        b[m] = (positions[m] - N) // table.q[m]
    return np.array(b, dtype=np.int64).T


def _targets(V: GeneratorMatrix, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != V.n:
        raise ProtocolError(f"x must have shape ({V.n},) or (k, {V.n})")
    return X


def run_centralized(V: GeneratorMatrix, X, sources=None):
    """The centralized protocol on one target (shape (n,)) or one round per
    row of X (shape (k, n)): n reports to the fusion center (node 0), then
    exact reconstruction.  Returns (b, Transcript); b and every transcript
    value carry the leading shape of X.

    Node m reports its grid position c (node_encode); the transcript shows
    it as the paper's pair b_tilde, s = divmod(c, q_m).  With sources (one
    SourceModel per coordinate, the law of x), node m codes c, all rounds
    in one stream, with P(c) = P(x_m in v_mm [c / q_m - 1/2, (c + 1) / q_m
    - 1/2)).  Without, each report is counted as a varint of b_tilde plus
    ceil(log2 q_m) bits.
    """
    table = build_ratio_table(V)
    X = _targets(V, X)
    positions = [node_encode(X.T[m], V.matrix[m, m], qm)
                 for m, qm in enumerate(table.q)]
    # the paper's pair, divmod(c, q); numpy has no divmod for object arrays
    pairs = [(c // qm, c % qm) for c, qm in zip(positions, table.q)]
    streams = None
    if sources is None:
        bits = [varint_bits(b_tilde) + s_bits
                for (b_tilde, _), s_bits in zip(pairs, table.s_bits)]
    else:
        models = _node_models(sources, np.diag(V.matrix).tolist(), table.q)
        zero = np.zeros(X.size // V.n)  # a centralized node's offset
        streams, info = zip(*(
            model.encode(zero, np.array(c, dtype=object).reshape(-1))
            for c, model in zip(positions, models)))
        bits = [b if X.ndim == 2 else b[0] for b in info]
    messages = tuple(
        Message(sender=m + 1, receivers=(0,),
                payload={"b_tilde": b_tilde, "s": s}, bits=b)
        for m, ((b_tilde, s), b) in enumerate(zip(pairs, bits)))
    coeffs = fusion_decode(positions, table)
    return coeffs, Transcript(model="centralized", messages=messages,
                              total_bits=_left_sum(m.bits for m in messages),
                              decoded={0: coeffs}, streams=streams)


def run_interactive(V: GeneratorMatrix, X, sources=None):
    """The interactive protocol on the lattice of V (the paper's alpha *
    Lambda), for one target or one round per row of X: node n broadcasts
    first, then n-1, ..., then 1; every node ends up with the full
    coefficient vector.  Returns (b, Transcript), shaped as run_centralized's.

    With sources, node i codes u_i, all rounds in one stream, given the
    broadcasts u_{>i} already heard: P(u_i = b) = P(x_i in v_ii [b - 1/2,
    b + 1/2) + sum_{l>i} v_il u_l), as x_i is independent of u_{>i}.
    Without, each u_i is counted as a varint.  Either way a broadcast
    counts once per receiver.
    """
    coeffs = interactive_coefficients_batch(V, X, 1.0)
    n = V.n
    order = range(n - 1, -1, -1)
    streams = None
    if sources is None:
        bits = [(n - 1) * varint_bits(coeffs.T[i]) for i in order]
    else:
        U = coeffs.reshape(-1, n)
        off = _offsets(V.matrix, U)
        models = _node_models(sources, np.diag(V.matrix).tolist(), (1,) * n)
        streams, info = zip(*(models[i].encode(off[:, i], U[:, i])
                              for i in order))
        bits = [(n - 1) * (b if coeffs.ndim == 2 else b[0]) for b in info]
    messages = tuple(
        Message(sender=i + 1,
                receivers=tuple(j + 1 for j in range(n) if j != i),
                payload={"u": coeffs.T[i]}, bits=b)
        for i, b in zip(order, bits))
    return coeffs, Transcript(model="interactive", messages=messages,
                              total_bits=_left_sum(m.bits for m in messages),
                              decoded=dict.fromkeys(range(1, n + 1), coeffs),
                              streams=streams)


def _check_streams(V: GeneratorMatrix, streams, rounds: int) -> None:
    """One stream per node, each coding `rounds` rounds: a missing stream
    and rounds beyond a stream's end would read as zeros."""
    if len(streams) != V.n:
        raise ProtocolError(f"expected {V.n} streams, got {len(streams)}")
    for stream in streams:
        if stream.rounds != rounds:
            raise ProtocolError(
                f"a stream codes {stream.rounds} rounds, not {rounds}")


def decode_centralized(V: GeneratorMatrix, streams, sources,
                       rounds: int) -> list:
    """The fusion center's reading of run_centralized's coded streams: each
    node's grid positions over `rounds` rounds, object arrays as node_encode
    gives them, ready for fusion_decode."""
    _check_streams(V, streams, rounds)
    table = build_ratio_table(V)
    models = _node_models(sources, np.diag(V.matrix).tolist(), table.q)
    return [np.array(model.decode(stream, np.zeros(rounds)), dtype=object)
            for stream, model in zip(streams, models)]


def decode_interactive(V: GeneratorMatrix, streams, sources,
                       rounds: int) -> np.ndarray:
    """What every node reads from run_interactive's coded streams (in
    message order, node n first): the coefficients, shape (rounds, n)."""
    _check_streams(V, streams, rounds)
    models = _node_models(sources, np.diag(V.matrix).tolist(), (1,) * V.n)
    U = np.zeros((rounds, V.n), dtype=np.int64)
    for i, stream in zip(range(V.n - 1, -1, -1), streams):
        U[:, i] = models[i].decode(stream, _offsets(V.matrix, U)[:, i])
    return U


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
    h = _left_sum(s.differential_entropy_bits() for s in sources)
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
    cells = [float(alpha) * abs(float(V.matrix[i, i])) for i in range(V.n)]
    if not all(0.0 < c < math.inf for c in cells):
        raise ProtocolError("interactive rate needs every alpha |v_ii| "
                            "to be a positive finite float")
    total = _left_sum(s.differential_entropy_bits() - math.log2(c)
                      for s, c in zip(sources, cells))
    return (V.n - 1) * total


def empirical_entropy(samples) -> float:
    """Plug-in entropy (bits) of a sequence or array of scalar observations.

    With p = c / total for each distinct value's count c, the terms
    p log2 p are added left to right (`_left_sum`) in order of each value's
    first occurrence.  One sort groups equal values into runs; a run's
    length is the value's count and the least position in it the value's
    first occurrence, so the sort need not be stable.  Integers that span
    less than 2^16 are sorted as offsets from their least value in 8 or
    16 bits, which numpy sorts by radix in linear time; other values take
    numpy's default sort.
    """
    values = np.asarray(samples).ravel()
    total = values.size
    if total == 0:
        raise ValueError("no samples")
    keys, kind = values, None
    if values.dtype.kind in "iu":
        lo = values.min()
        span = int(values.max()) - int(lo)
        if span < 1 << 16:
            keys = (values - lo).astype(np.min_scalar_type(span))
            kind = "stable"
    order = keys.argsort(kind=kind)
    ranked = keys[order]
    # edges[r] and edges[r + 1] bound the r-th run of equal values
    edge = np.empty(total + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=edge[1:-1])
    edges = np.flatnonzero(edge)
    first = np.minimum.reduceat(order, edges[:-1])
    counts = edges[1:] - edges[:-1]
    p = (counts[first.argsort()] / total).tolist()
    return -_left_sum(map(operator.mul, p, map(math.log2, p)))
