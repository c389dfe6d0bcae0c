"""Key generation, sessions, and the encrypt/decrypt pipelines.

Two modes share the machinery: raw mode masks an unrestricted integer
message (noiseless channel), joint mode restricts messages to the transmit
constellation and adds hypercube shaping so the ciphertext doubles as a
power-constrained channel codeword.  A session owns the rotating material
(error vector, control line, block permutation) and hands out frames'
material in counter order from wherever it was last positioned.
Transmitter and receiver stay synchronized through the frame counter: a
receiver seeks to the counter of each frame it sees, forward or back, in
O(log j) time, so missing, repeated and reordered frames decrypt
independently.

``CipherParams.secret_fields`` is the one statement of the key layout:
the name, value count and bit width of each secret field, in file order.
``save_key``, ``load_key`` and ``analysis.key_size_bits`` read it, and the
session seeds each permutation stream with one gamma-bit value of t.
``CipherParams.poly_fields`` states which poly_* key field names which
register's feedback polynomial, and at what degree.  Those polynomials are
public constants (``primitives.poly``), not key material: ``save_key``
writes their shipped ids and ``load_key`` refuses any other value.
``CipherParams.validate`` admits only parameter sets that key generation
and the int32 ciphertext format can serve.
"""

from __future__ import annotations

import functools
import numbers
import random
import re
from dataclasses import dataclass

import numpy as np

from . import formats, primitives
from .decoder import DecoderConfig, decode, observation_ok
from .errors import (
    ConstellationViolation,
    FormatError,
    InvalidParams,
    NotLatticePoint,
)
from .keystream import BlockPermutation, PermutationStream, ReseedingLfsr
from .lattice import LatticeCtx
from .nlf import NlfContext
from .rdfcode import QcCode, rdf_search


@dataclass(frozen=True)
class CipherParams:
    """Public parameter set; everything else derives from these six."""

    b: int
    n0: int
    dv: int
    q: int
    L: int
    d: int

    @property
    def n(self) -> int:
        return self.b * self.n0

    @property
    def k(self) -> int:
        return self.b * (self.n0 - 1)

    @property
    def v(self) -> int:
        return self.n // self.q

    @property
    def l1(self) -> int:
        # ceil(log2 n), exactly
        return max(1, (self.n - 1).bit_length())

    @property
    def l2(self) -> int:
        return self.d

    @property
    def gamma(self) -> int:
        # ceil(log2 q), exactly: the width of each permutation seed
        return (self.q - 1).bit_length()

    def secret_fields(self) -> tuple:
        """(name, count, width) of each secret key field, in file order.

        The key text writes each field as ``count`` little-endian values of
        ``width`` bits (``formats.fields_to_hex``), so the key size is the
        sum of count * width.  The v permutation seeds in t go least
        significant slice first: seed i is bits [i*gamma, (i+1)*gamma).
        """
        return (
            ("supports", self.dv * self.n0, (self.b - 1).bit_length()),
            ("s", 1, self.l1),
            ("h_seed", 1, self.d),
            ("t", self.v, self.gamma),
        )

    def poly_fields(self) -> tuple:
        """(name, degree) of each poly_* key field, in file order.

        The NLF companion matrix has degree n, the error LFSR l1, the
        control LFSR d and each permutation LFSR gamma.  Each field must
        hold ``primitives.poly_id(degree)``.
        """
        return (
            ("poly_nlf", self.n),
            ("poly_e", self.l1),
            ("poly_h", self.d),
            ("poly_perm", self.gamma),
        )

    def validate(self):
        if self.dv % 2 == 0:
            raise InvalidParams("dv must be odd")
        if not 1 <= self.dv < self.b:
            raise InvalidParams("dv must be in [1, b)")
        if self.q != self.b:
            raise InvalidParams("q must equal b so permutation blocks stay aligned")
        if self.n % 2 != 0:
            raise InvalidParams("n must be even (constellation works in pairs)")
        # keygen needs an NLF polynomial of degree n, which also caps the
        # dense m x n arrays of a session at n = 1496
        if self.n not in primitives.supported_degrees():
            raise InvalidParams(f"n = {self.n} has no shipped NLF polynomial of that degree")
        if self.L < 2 or self.L & (self.L - 1):
            raise InvalidParams("L must be a power of two >= 2")
        # shaped ciphertext coordinates reach 2nL - 1 and frames are int32
        if self.n * self.L > 1 << 30:
            raise InvalidParams("n * L must be at most 2^30 (int32 ciphertexts)")
        if not 2 <= self.d <= 80:
            raise InvalidParams("control width d must be in [2, 80]")
        if self.q > (1 << self.gamma) - 1:
            raise InvalidParams("q must not be a power of two")

    def digest(self) -> str:
        return formats.params_digest(self.b, self.n0, self.dv, self.q, self.L, self.d)


@dataclass(frozen=True)
class SecretKey:
    params: CipherParams
    code: QcCode
    s: int  # l1-bit error-LFSR seed
    h_seed: int  # d-bit control-LFSR seed
    t: tuple  # v gamma-bit permutation seeds

    def digest(self) -> str:
        return self.params.digest()


@dataclass(frozen=True)
class Ciphertext:
    y: np.ndarray
    counter: int


def _draw_bits(rng: random.Random, nbits: int, nonzero: bool) -> int:
    while True:
        v = rng.getrandbits(nbits) if nbits else 0
        if not nonzero or v != 0:
            return v


def keygen(params: CipherParams, master_seed: int) -> SecretKey:
    """Deterministic key generation from a 64-bit master seed.

    Raises InvalidParams unless master_seed is an integer (not bool) in
    [0, 2^64): random.Random would fold a negative seed onto its absolute
    value and accept any wider one.
    """
    if not (isinstance(master_seed, numbers.Integral) and not isinstance(master_seed, bool)
            and 0 <= master_seed < 1 << 64):
        raise InvalidParams(f"master seed must be an integer in [0, 2^64), not {master_seed!r}")
    params.validate()
    rng = random.Random(int(master_seed))
    code = rdf_search(params.b, params.n0, params.dv, rng.getrandbits(64))
    s = _draw_bits(rng, params.l1, nonzero=True)
    h_seed = _draw_bits(rng, params.d, nonzero=True)
    t = tuple(_draw_bits(rng, params.gamma, nonzero=True) for _ in range(params.v))
    return SecretKey(params=params, code=code, s=s, h_seed=h_seed, t=t)


_DECODER = DecoderConfig()


@functools.lru_cache(maxsize=16)
def _constellation_bounds(n: int, L: int):
    """Read-only per-coordinate bounds (lo, hi) of the transmit constellation."""
    lo = np.tile(np.array([0, -L], dtype=np.int64), n // 2)
    hi = np.tile(np.array([L - 1, -1], dtype=np.int64), n // 2)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


class CipherSession:
    """Stateful encrypt/decrypt context; frames advance the material."""

    def __init__(self, key: SecretKey):
        p = key.params
        self.params = p
        self.lattice = LatticeCtx.from_code(key.code, p.L)
        self.nlf = NlfContext(primitives.poly(p.n), p.d)
        self.e_lfsr = ReseedingLfsr(
            p.l1, primitives.poly(p.l1), primitives.reciprocal(p.l1), key.s
        )
        self.h_lfsr = ReseedingLfsr(
            p.d, primitives.poly(p.d), primitives.reciprocal(p.d), key.h_seed
        )
        perm_poly = primitives.poly(p.gamma)
        self.perm_streams = [
            PermutationStream(p.q, seed, p.gamma, perm_poly) for seed in key.t
        ]
        self.counter = 0

    # --- rotating material -------------------------------------------------

    def _frame_material(self):
        j = self.counter
        e = self.e_lfsr.next_bits(self.params.n).astype(np.int64)
        h = self.h_lfsr.next_bits(self.params.d)
        perm = BlockPermutation(
            self.params.q, [st.next_perm() for st in self.perm_streams]
        )
        self.counter += 1
        return j, e, h, perm

    def advance_to(self, frame: int):
        """Seek the material streams to any frame counter, ahead or behind.

        Frame j's material starts at bit j*n of the error stream, bit j*d of
        the control stream and draw j of each permutation stream; every
        stream jumps there from its seed in O(log j) multiplications, so a
        crafted u64 counter costs about as much as a near one.
        """
        if frame == self.counter:
            return
        p = self.params
        self.e_lfsr.seek(frame * p.n)
        self.h_lfsr.seek(frame * p.d)
        for st in self.perm_streams:
            st.seek(frame)
        self.counter = frame

    # --- constellation -----------------------------------------------------

    def check_constellation(self, m: np.ndarray):
        """Pairwise ranges: even 0-indexed coords in [0, L-1], odd in [-L, -1]."""
        lo, hi = _constellation_bounds(self.params.n, self.params.L)
        bad = (m < lo) | (m > hi)
        if bad.any():
            if bad[0::2].any():
                raise ConstellationViolation("even-pair coordinate outside [0, L-1]")
            raise ConstellationViolation("odd-pair coordinate outside [-L, -1]")

    # --- joint mode ----------------------------------------------------------

    def encrypt_joint(self, m) -> Ciphertext:
        m = np.asarray(m, dtype=np.int64)
        if m.shape != (self.params.n,):
            raise InvalidParams("message length mismatch")
        self.check_constellation(m)
        j, e, h, perm = self._frame_material()
        x = self.nlf.apply_f(m + (1 - e), h)
        y = perm.apply(self.lattice.shape(x) + 2 * e)
        return Ciphertext(y=y, counter=j)

    def decrypt_joint(self, r, sigma: float) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.params.n,):
            raise InvalidParams("observation length mismatch")
        j, e, h, perm = self._frame_material()
        ebar = 1 - e
        r1 = perm.apply_inverse(r)
        r2 = r1 - 2 * e
        if sigma <= 0:
            if not observation_ok(r2):
                raise NotLatticePoint("noiseless input is not finite, or reaches 2^52")
            lam = np.rint(r2).astype(np.int64)
            if not self.lattice.syndrome_ok(lam):
                raise NotLatticePoint("noiseless input is not a lattice translate point")
        else:
            lam = decode(self.lattice, _DECODER, r2, sigma)
        x = self.lattice.mod_recover(lam)
        m_prime = self.nlf.invert_f(x, h)
        return m_prime - ebar

    # --- raw mode -------------------------------------------------------------

    def encrypt_raw(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=np.int64)
        if m.shape != (self.params.n,):
            raise InvalidParams("message length mismatch")
        _, e, h, perm = self._frame_material()
        x = self.nlf.apply_f(m + (1 - e), h)
        return perm.apply(self.lattice.encode(x) + 2 * e)

    def decrypt_raw(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (self.params.n,):
            raise InvalidParams("ciphertext length mismatch")
        _, e, h, perm = self._frame_material()
        x = self.lattice.encode_inverse(perm.apply_inverse(y) - 2 * e)
        return self.nlf.invert_f(x, h) - (1 - e)


# --- bit framing --------------------------------------------------------------


def frame_capacity_bytes(n: int, L: int) -> int:
    """Whole bytes carried per frame: floor(n * log2(L) / 8)."""
    return (n * (L.bit_length() - 1)) // 8


def pack_bits(data: bytes, n: int, L: int):
    """Map a byte stream onto constellation vectors.

    Yields (message_vector, payload_byte_count); the final partial frame is
    zero-padded.  Empty input yields one zero-padded frame.
    """
    if L < 2 or L & (L - 1):
        raise InvalidParams("L must be a power of two >= 2")
    bits_per = L.bit_length() - 1
    cap = frame_capacity_bytes(n, L)
    if cap == 0:
        raise InvalidParams("frame too small to carry a byte")
    chunks = [data[i : i + cap] for i in range(0, len(data), cap)] or [b""]
    weights = 1 << np.arange(bits_per, dtype=np.int64)
    for chunk in chunks:
        padded = chunk.ljust(cap, b"\x00")
        bits = np.unpackbits(np.frombuffer(padded, dtype=np.uint8), bitorder="little")
        fields = np.zeros(n * bits_per, dtype=np.uint8)
        fields[: cap * 8] = bits
        vals = fields.reshape(n, bits_per).astype(np.int64) @ weights
        m = vals.copy()
        m[1::2] = -1 - vals[1::2]
        yield m, len(chunk)


def unpack_bits(frames, n: int, L: int) -> bytes:
    """Invert pack_bits; frames is an iterable of (vector, payload_len)."""
    bits_per = L.bit_length() - 1
    cap = frame_capacity_bytes(n, L)
    out = bytearray()
    for m, payload_len in frames:
        m = np.asarray(m, dtype=np.int64)
        vals = m.copy()
        vals[1::2] = -1 - m[1::2]
        if (vals < 0).any() or (vals >= L).any():
            raise FormatError("vector outside the constellation")
        bits = ((vals[:, None] >> np.arange(bits_per)) & 1).astype(np.uint8)
        raw = np.packbits(bits.reshape(-1)[: cap * 8], bitorder="little").tobytes()
        if payload_len > cap:
            raise FormatError("payload length exceeds frame capacity")
        out.extend(raw[:payload_len])
    return bytes(out)


# --- key file -----------------------------------------------------------------


def save_key(key: SecretKey) -> str:
    p = key.params
    secret = {
        "supports": [idx for block in key.code.supports for idx in block],
        "s": [key.s],
        "h_seed": [key.h_seed],
        "t": key.t,
    }
    fields = {
        "version": formats.KEY_VERSION,
        "b": p.b,
        "n0": p.n0,
        "dv": p.dv,
        "q": p.q,
        "L": p.L,
        "d": p.d,
        "digest": key.digest(),
    }
    for name, deg in p.poly_fields():
        fields[name] = primitives.poly_id(deg)
    for name, _, width in p.secret_fields():
        fields[name] = formats.fields_to_hex(secret[name], width)
    return formats.write_key_text(fields)


def load_key(text: str) -> SecretKey:
    f = formats.read_key_text(text)
    names = ("b", "n0", "dv", "q", "L", "d")
    for name in names:
        # int() also reads 4_3, +43, 043 and ٤٣, which save_key writes back as 43
        if not re.fullmatch("0|[1-9][0-9]*", f[name]):
            raise FormatError(f"non-integer key parameter {name} = {f[name]!r} (not canonical)")
    try:
        params = CipherParams(**{name: int(f[name]) for name in names})
    except ValueError as e:  # more digits than int() converts
        raise FormatError(f"key parameter out of range: {e}") from e
    params.validate()
    if f["digest"] != params.digest():
        raise FormatError("params digest mismatch")
    for name, deg in params.poly_fields():
        shipped = primitives.poly_id(deg)
        if f[name] != shipped:
            raise FormatError(
                f"{name} = {f[name]!r} is not the shipped polynomial: "
                f"it needs degree {deg} and id {shipped!r}"
            )
    secret = {
        name: formats.hex_to_fields(f[name], count, width)
        for name, count, width in params.secret_fields()
    }
    sup, dv = secret["supports"], params.dv
    supports = tuple(tuple(sorted(sup[i : i + dv])) for i in range(0, len(sup), dv))
    return SecretKey(
        params=params,
        code=QcCode(params.b, params.n0, dv, supports),
        s=secret["s"][0],
        h_seed=secret["h_seed"][0],
        t=tuple(secret["t"]),
    )
