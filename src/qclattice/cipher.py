"""Key generation, sessions, and the frame pipeline of the paper's two schemes.

One pipeline serves both: check the message, draw the frame's material,
apply the NLF, map onto the lattice, mask with the error vector, permute;
decryption runs it backwards.  Raw mode (the Rao-Nam-like cipher) takes an
integer message up to ``CipherParams.raw_bound`` and maps it with
encode/encode_inverse; joint mode takes a transmit-constellation message
and maps it with shape/mod_recover, so the ciphertext doubles as a
power-constrained channel codeword.  A session owns the rotating material
(error vector, control line, block permutation) and hands out frames'
material in counter order from wherever it was last positioned.
Transmitter and receiver stay synchronized through the frame counter: a
receiver seeks to the counter of each frame it sees, forward or back, in
O(log j) time, so missing, repeated and reordered frames decrypt
independently.

Every argument is checked before any cast and before the frame's material
is drawn, so a refusal uses no counter value: the message, a raw
ciphertext and each ``unpack_bits`` frame by ``errors.int_vector``, a
joint observation by ``errors.vector`` and its sigma by
``lattice.noise_sigma``.

``CipherParams.secret_fields`` is the one statement of the key layout:
the name, value count and bit width of each secret field, in file order.
``save_key``, ``load_key`` and ``analysis.key_size_bits`` read it, and the
permutation stream takes each gamma-bit value of t as one block's seed.
``CipherParams.poly_fields`` states which poly_* key field names which
register's feedback polynomial, and at what degree.  Those polynomials are
public constants (``primitives.poly``), not key material: ``save_key``
writes their shipped ids and ``load_key`` refuses any other value.
``CipherParams.validate`` admits only parameter sets that key generation
and the int32 ciphertext format can serve.
"""

from __future__ import annotations

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
    NotInLattice,
    NotLatticePoint,
    int_vector,
    integer,
    vector,
)
from .keystream import BlockPermutation, PermutationStream, ReseedingLfsr
from .lattice import LatticeCtx, noise_sigma
from .nlf import NlfContext
from .rdfcode import QcCode, rdf_search


@dataclass(frozen=True)
class CipherParams:
    """Public parameter set of six integers (any type but bool, held as int); the rest derives."""

    b: int
    n0: int
    dv: int
    q: int
    L: int
    d: int

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, integer(getattr(self, name), name))

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
    def gamma(self) -> int:
        # ceil(log2 q), exactly: the seed width PermutationStream derives
        return (self.q - 1).bit_length()

    @property
    def raw_bound(self) -> int:
        """Largest B = max|m_i| for which raw mode stays exact in int64.

        |a| = |m + 1 - e| <= B + 1, so |x| = |a U^alpha| <= n(B + 1) and the
        ciphertext 2(x_sys, x_sys A + 2 x_par) - 1 + 2e has |y| <= 2(k + 2)
        n(B + 1) + 3, which must stay below 2^63; invert_f also returns a
        preimage only up to 2^52.  About 2^46 at the reference parameters.
        """
        return min((1 << 52) - 1, ((1 << 63) - 4) // (2 * (self.k + 2) * self.n) - 1)

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
        frame_capacity_bytes(self.n, self.L)  # refuses an L that is not a power of two >= 2
        # shaped ciphertext coordinates reach 2nL - 1 and frames are int32
        if self.n * self.L > 1 << 30:
            raise InvalidParams("n * L must be at most 2^30 (int32 ciphertexts)")
        integer(self.d, "control width d", 2, 81)
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


def _draw_nonzero(rng: random.Random, nbits: int) -> int:
    while True:
        v = rng.getrandbits(nbits)
        if v:
            return v


def keygen(params: CipherParams, master_seed: int) -> SecretKey:
    """Deterministic key generation from a 64-bit master seed.

    Raises InvalidParams unless master_seed is an integer (not bool) in
    [0, 2^64): random.Random would fold a negative seed onto its absolute
    value and accept any wider one.
    """
    master_seed = integer(master_seed, "master seed", 0, 1 << 64)
    params.validate()
    rng = random.Random(master_seed)
    code = rdf_search(params.b, params.n0, params.dv, rng.getrandbits(64))
    s = _draw_nonzero(rng, params.l1)
    h_seed = _draw_nonzero(rng, params.d)
    t = tuple(_draw_nonzero(rng, params.gamma) for _ in range(params.v))
    return SecretKey(params=params, code=code, s=s, h_seed=h_seed, t=t)


_DECODER = DecoderConfig()


def _fold(v) -> np.ndarray:
    """The constellation layout: odd coordinates map v -> -1 - v, even ones keep v.

    Its own inverse: it takes symbols 0..L-1 to a constellation vector and back.
    """
    out = np.array(v, dtype=np.int64)
    out[1::2] = -1 - out[1::2]
    return out


def _check_symbols(sym: np.ndarray, L: int, error):
    """Raise error unless every folded symbol lies in [0, L): the constellation, pair by pair."""
    bad = (sym < 0) | (sym >= L)
    if bad.any():
        if bad[0::2].any():
            raise error("even-pair coordinate outside [0, L-1]")
        raise error("odd-pair coordinate outside [-L, -1]")


class CipherSession:
    """Stateful encrypt/decrypt context; frames advance the material."""

    def __init__(self, key: SecretKey):
        p = key.params
        self.params = p
        self.lattice = LatticeCtx.from_code(key.code, p.L)
        self.nlf = NlfContext(primitives.poly(p.n), p.d)
        self.e_lfsr = ReseedingLfsr(p.l1, key.s)
        self.h_lfsr = ReseedingLfsr(p.d, key.h_seed)
        self.perm_stream = PermutationStream(p.q, key.t)
        self.counter = 0

    # --- rotating material -------------------------------------------------

    def _frame_material(self):
        j = self.counter
        e = self.e_lfsr.next_bits(self.params.n).astype(np.int64)
        h = self.h_lfsr.next_bits(self.params.d)
        perm = BlockPermutation(self.params.q, self.perm_stream.next_perm())
        self.counter += 1
        return j, e, h, perm

    def advance_to(self, frame: int):
        """Seek the material streams to any frame counter, ahead or behind.

        Frame j's material starts at bit j*n of the error stream, bit j*d of
        the control stream and frame j of the permutation stream; every
        stream jumps there from its seed in O(log j) multiplications, so a
        crafted u64 counter costs about as much as a near one.  frame: an integer >= 0.
        """
        frame = integer(frame, "frame counter", 0)
        if frame == self.counter:
            return
        p = self.params
        self.e_lfsr.seek(frame * p.n)
        self.h_lfsr.seek(frame * p.d)
        self.perm_stream.seek(frame)
        self.counter = frame

    # --- the frame pipeline of both schemes --------------------------------

    def check_constellation(self, m: np.ndarray):
        """Pairwise ranges: even 0-indexed coords in [0, L-1], odd in [-L, -1]."""
        sym = _fold(int_vector(m, self.params.n, "message"))
        _check_symbols(sym, self.params.L, ConstellationViolation)

    def _encrypt(self, m, joint: bool) -> Ciphertext:
        """Every check runs before the material draw: a refusal uses no counter value."""
        m = int_vector(m, self.params.n, "message")
        if joint:
            self.check_constellation(m)
        elif (m > self.params.raw_bound).any() or (m < -self.params.raw_bound).any():
            raise InvalidParams(f"raw message coordinate beyond +-{self.params.raw_bound}")
        j, e, h, perm = self._frame_material()
        x = self.nlf.apply_f(m + (1 - e), h)
        lam = self.lattice.shape(x) if joint else self.lattice.encode(x)
        return Ciphertext(y=perm.apply(lam + 2 * e), counter=j)

    def _decrypt(self, y, joint: bool, sigma: float = 0.0) -> np.ndarray:
        """Joint mode decodes a real observation, as float64, unless sigma <= 0;
        raw mode reads an exact integer ciphertext and returns only messages encrypt_raw takes."""
        if joint:
            y = vector(y, self.params.n, "observation").astype(np.float64, copy=False)
            sigma = noise_sigma(sigma)
        else:
            y = int_vector(y, self.params.n, "ciphertext", NotLatticePoint)
        _, e, h, perm = self._frame_material()
        r = perm.apply_inverse(y) - 2 * e
        if not joint:
            x = self.lattice.encode_inverse(r)
        elif sigma <= 0:
            if not observation_ok(r):
                raise NotLatticePoint("noiseless input is not finite, or reaches 2^52")
            lam = np.rint(r).astype(np.int64)
            if not self.lattice.syndrome_ok(lam):
                raise NotLatticePoint("noiseless input is not a lattice translate point")
            x = self.lattice.mod_recover(lam)
        else:
            x = self.lattice.mod_recover(decode(self.lattice, _DECODER, r, sigma))
        m = self.nlf.invert_f(x, h) - (1 - e)
        if not joint and (np.abs(m) > self.params.raw_bound).any():
            raise NotInLattice(f"raw message coordinate beyond +-{self.params.raw_bound}")
        return m

    def encrypt_joint(self, m) -> Ciphertext:
        return self._encrypt(m, joint=True)

    def decrypt_joint(self, r, sigma: float) -> np.ndarray:
        return self._decrypt(r, joint=True, sigma=sigma)

    def encrypt_raw(self, m) -> np.ndarray:
        """Raw mode takes any integer vector with every |m_i| <= params.raw_bound."""
        return self._encrypt(m, joint=False).y

    def decrypt_raw(self, y) -> np.ndarray:
        return self._decrypt(y, joint=False)


# --- bit framing --------------------------------------------------------------


def frame_capacity_bytes(n: int, L: int) -> int:
    """Whole bytes per frame, floor(n log2(L) / 8); InvalidParams unless n >= 1, L = 2^i >= 2."""
    n, L = integer(n, "frame length n", 1), integer(L, "L")
    if L < 2 or L & (L - 1):
        raise InvalidParams("L must be a power of two >= 2")
    return (n * (L.bit_length() - 1)) // 8


def pack_bits(data: bytes, n: int, L: int):
    """Map a byte stream onto constellation vectors.

    Yields (message_vector, payload_byte_count); the final partial frame is
    zero-padded.  Empty input yields one zero-padded frame.
    """
    cap = frame_capacity_bytes(n, L)
    bits_per = int(L).bit_length() - 1  # exact: L passed the check
    if cap == 0:
        raise InvalidParams("frame too small to carry a byte")
    chunks = [data[i : i + cap] for i in range(0, len(data), cap)] or [b""]
    weights = 1 << np.arange(bits_per, dtype=np.int64)
    for chunk in chunks:
        padded = chunk.ljust(cap, b"\x00")
        bits = np.unpackbits(np.frombuffer(padded, dtype=np.uint8), bitorder="little")
        fields = np.zeros(n * bits_per, dtype=np.uint8)
        fields[: cap * 8] = bits
        yield _fold(fields.reshape(n, bits_per).astype(np.int64) @ weights), len(chunk)


def unpack_bits(frames, n: int, L: int) -> bytes:
    """Invert pack_bits; frames is an iterable of (vector, payload_len)."""
    cap = frame_capacity_bytes(n, L)
    bits_per = int(L).bit_length() - 1  # exact: L passed the check
    out = bytearray()
    for m, payload_len in frames:
        payload_len = integer(payload_len, "payload length", 0, cap + 1, FormatError)
        vals = _fold(int_vector(m, n, "frame", FormatError))
        _check_symbols(vals, L, FormatError)
        bits = ((vals[:, None] >> np.arange(bits_per)) & 1).astype(np.uint8)
        raw = np.packbits(bits.reshape(-1)[: cap * 8], bitorder="little").tobytes()
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
