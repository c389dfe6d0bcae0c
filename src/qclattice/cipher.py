"""Key generation, sessions, and the frame pipeline of the paper's two schemes.

One pipeline serves both: check the message, draw the frame's material,
apply the NLF, map onto the lattice, mask with the error vector, permute;
decryption runs it backwards.  Raw mode (the Rao-Nam-like cipher) takes an
integer message up to ``CipherParams.raw_bound`` and maps it with
encode/encode_inverse; joint mode takes a transmit-constellation message
and maps it with shape/mod_recover, so the ciphertext doubles as a
power-constrained channel codeword.  Decryption returns only messages its
encrypt takes: a frame off that message space raises NotInLattice.  A
session's one keystream position is its frame counter, which addresses
every material stream (error vector, control line, block permutation) as
in counter mode.  A receiver sets it to the counter of each frame it
sees, forward or back, and the draw reaches that frame in O(log j) time,
so missing, repeated and reordered frames decrypt independently.

The pipeline runs one shape, a (B, n) block of the next B counters: a
frame, a length-n vector, enters as a one-row block once its argument is
checked, and leaves as that row or raises that row's error.  A block
draws its material with one ``next_bits`` per LFSR stream and one
``next_perm`` gather, and checks, masks, permutes (one gather), shapes
and recovers all rows at once; only the NLF's x-powers and correlates
and the SPA decoder run row by row.  A block returns (result, errors): a
row that fails leaves the block with the QclatticeError its frame raises
alone, and the other rows go on, which is what lets the CLI stream
64-frame blocks with frame-by-frame output.

Every argument is checked before any cast and before the frame's material
is drawn, so a refusal, which refuses a whole block, uses no counter
value: the message, a raw ciphertext and each ``unpack_bits`` frame by
``errors.int_vector``, a joint observation by ``errors.vector`` and its
sigma by ``lattice.noise_sigma``.

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
    QclatticeError,
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
    y: np.ndarray  # (n,), or (B, n) for a block
    counter: int  # of the frame, or of a block's first row


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

    Its own inverse: it takes symbols 0..L-1 to a constellation vector and back,
    along the last axis of a vector or a block.
    """
    out = np.array(v, dtype=np.int64)
    out[..., 1::2] ^= -1  # ~v = -1 - v
    return out


def _off_constellation(sym: np.ndarray, L: int) -> np.ndarray:
    """Per folded symbol, whether it lies off the constellation, outside [0, L)."""
    return sym.view(np.uint64) >= L  # a negative symbol reads as at least 2^63


def _check_symbols(sym: np.ndarray, L: int, error):
    """Raise error if a folded symbol is off the constellation, pair by pair;
    the message names the first bad row's first bad kind."""
    bad = _off_constellation(sym, L)
    if bad.any():
        rows = bad.reshape(-1, bad.shape[-1])
        if rows[rows.any(axis=1).argmax(), 0::2].any():
            raise error("even-pair coordinate outside [0, L-1]")
        raise error("odd-pair coordinate outside [-L, -1]")


class _Rows:
    """The rows of a frame block still running, and the error of each row that failed.

    A frame enters the pipeline as a one-row block.  A stage runs on the
    live rows at once; a row that fails leaves the block with the
    QclatticeError it raises alone, so every row ends as the frame would by
    itself, and once no row is live no stage runs.  Stage outputs line up
    with ``live``.
    """

    def __init__(self, count: int, n: int):
        self.n = n
        self.errors = [None] * count
        self.live = np.arange(count)

    def pick(self, block: np.ndarray) -> np.ndarray:
        """The live rows of a full block."""
        return block if len(self.live) == len(self.errors) else block[self.live]

    def keep(self, test, values, error, message) -> np.ndarray:
        """The live rows of values that pass test; the others fail with error(message)."""
        ok = test(values) if len(self.live) else np.True_
        if ok.all():
            return values
        for i in self.live[~ok]:
            self.errors[i] = error(message)
        self.live = self.live[ok]
        return values[ok]

    def each(self, fn, *columns) -> np.ndarray:
        """fn(*row) for each live row, as int64; the rows it raises for fail; a lone row by at()."""
        if len(self.live) == 1:
            return self.at(lambda *row: fn(*row)[None], *(c[0] for c in columns))
        out = []
        for i, *args in zip(self.live.tolist(), *columns):
            try:
                out.append(fn(*args))
            except QclatticeError as e:
                self.errors[i] = e
        self.live = self.live[[self.errors[i] is None for i in self.live.tolist()]]
        return np.array(out, dtype=np.int64).reshape(len(out), self.n)

    def at(self, fn, *columns) -> np.ndarray:
        """fn(*columns) on the live rows, if any; on a raise a lone row fails, several rerun."""
        try:
            return fn(*columns) if len(self.live) else self.each(fn)  # each of no row: empty
        except QclatticeError as e:
            if len(self.live) == 1:
                self.errors[self.live[0]], self.live = e, self.live[:0]
            return self.each(fn, *columns)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """The live rows' values in a full block, failed rows zero."""
        if len(self.live) == len(self.errors):
            return values
        out = np.zeros((len(self.errors), self.n), dtype=values.dtype)
        out[self.live] = values
        return out


def _exit(frames, block, errors, wrap=lambda y: y):
    """(wrap(block), errors) for a (B, n) input; for an (n,) frame, wrap(its row) or its error."""
    if frames.ndim == 2:
        return wrap(block), tuple(errors)
    if errors[0] is not None:
        raise errors[0]
    return wrap(block[0])


class CipherSession:
    """Encrypt/decrypt context; a map draws the frames from the counter on and moves it past them.

    Each map takes one frame, a length-n vector, or a (B, n) block of the
    next B counters, and runs a frame as a one-row block.  A frame returns
    its result or raises; a block returns (result, errors), where row i of
    the result is frame i's (zeros where it failed) and errors[i] is None
    or the QclatticeError that frame raises alone.  A refused argument
    refuses the whole block.
    """

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

    def _frame_material(self, rows: int):
        """(counter, e (rows, n), h (rows, d), permutation of (rows, n) blocks) from the counter on.

        Frame j's material starts at bit j*n of the error stream, bit j*d of
        the control stream and frame j of the permutation stream.  A stream
        not there jumps from its seed in O(log j) multiplications, so a
        crafted u64 counter costs about as much as a near one.
        """
        p, j = self.params, self.counter
        self.e_lfsr.seek(j * p.n)
        self.h_lfsr.seek(j * p.d)
        e = self.e_lfsr.next_bits(rows * p.n).astype(np.int64).reshape(rows, p.n)
        h = self.h_lfsr.next_bits(rows * p.d).reshape(rows, p.d)
        self.counter = j + rows
        return j, e, h, BlockPermutation(p.q, self.perm_stream.next_perm(j, rows))

    def advance_to(self, frame: int):
        """Set the frame counter, ahead or behind; frame: an integer >= 0."""
        self.counter = integer(frame, "frame counter", 0)

    # --- the frame pipeline of both schemes --------------------------------

    def check_constellation(self, m: np.ndarray):
        """Pairwise ranges: even 0-indexed coords in [0, L-1], odd in [-L, -1]."""
        sym = _fold(int_vector(m, self.params.n, "message", rows=True))
        _check_symbols(sym, self.params.L, ConstellationViolation)

    def _encrypt(self, m, joint: bool):
        """Every check runs before the material draw: a refusal uses no counter value."""
        p = self.params
        m = int_vector(m, p.n, "message", rows=True)
        if joint:
            _check_symbols(_fold(m), p.L, ConstellationViolation)
        elif (m > p.raw_bound).any() or (m < -p.raw_bound).any():
            raise InvalidParams(f"raw message coordinate beyond +-{p.raw_bound}")
        block = m.reshape(-1, p.n)  # a frame enters as a one-row block
        j, e, h, perm = self._frame_material(len(block))
        rows = _Rows(len(block), p.n)
        x = self.nlf.apply_f(block + (1 - e), h)
        lam = rows.at(self.lattice.shape if joint else self.lattice.encode, x)
        y = perm.apply(rows.scatter(lam + 2 * rows.pick(e)))
        return _exit(m, y, rows.errors, lambda y: Ciphertext(y=y, counter=j) if joint else y)

    def _decrypt(self, y, joint: bool, sigma: float = 0.0):
        """Joint mode decodes a real observation, as float64, unless sigma <= 0; raw mode
        reads an exact integer ciphertext.  Both return only messages their encrypt takes."""
        p = self.params
        if joint:
            y = vector(y, p.n, "observation", rows=True).astype(np.float64, copy=False)
            sigma = noise_sigma(sigma)
        else:
            y = int_vector(y, p.n, "ciphertext", NotLatticePoint, rows=True)
        block = y.reshape(-1, p.n)  # a frame enters as a one-row block
        _, e, h, perm = self._frame_material(len(block))
        rows = _Rows(len(block), p.n)
        lam = perm.apply_inverse(block) - 2 * e  # the lattice point, or its observation
        if joint and sigma <= 0:
            lam = rows.keep(observation_ok, lam, NotLatticePoint,
                            "noiseless input is not finite, or reaches 2^52")
            lam = rows.keep(self.lattice.syndrome_ok, np.rint(lam).astype(np.int64),
                            NotLatticePoint, "noiseless input is not a lattice translate point")
        elif joint:
            lam = rows.each(lambda r: decode(self.lattice, _DECODER, r, sigma), lam)
        x = rows.at(self.lattice.mod_recover if joint else self.lattice.encode_inverse, lam)
        m = rows.at(self.nlf.invert_f, x, rows.pick(h)) - (1 - rows.pick(e))
        if joint:  # the message space: a row whose message its encrypt refuses fails
            space = lambda m: ~_off_constellation(_fold(m), p.L).any(axis=-1)
            what = "joint message coordinate off the constellation"
        else:
            space = lambda m: (np.abs(m) <= p.raw_bound).all(axis=-1)
            what = f"raw message coordinate beyond +-{p.raw_bound}"
        m = rows.keep(space, m, NotInLattice, what)
        return _exit(y, rows.scatter(m), rows.errors)

    def encrypt_joint(self, m):
        """Ciphertext of m; for a block, one Ciphertext of (B, n) y from the first counter."""
        return self._encrypt(m, joint=True)

    def decrypt_joint(self, r, sigma: float):
        return self._decrypt(r, joint=True, sigma=sigma)

    def encrypt_raw(self, m):
        """Raw mode takes any integer vector with every |m_i| <= params.raw_bound."""
        return self._encrypt(m, joint=False)

    def decrypt_raw(self, y):
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
    zero-padded.  Empty input yields one zero-padded frame.  The first
    vector comes once the whole input is packed, as one block.
    """
    cap = frame_capacity_bytes(n, L)
    bits_per = int(L).bit_length() - 1  # exact: L passed the check
    if cap == 0:
        raise InvalidParams("frame too small to carry a byte")
    frames = max(1, -(-len(data) // cap))
    padded = np.frombuffer(data.ljust(frames * cap, b"\x00"), dtype=np.uint8)
    fields = np.zeros((frames, n * bits_per), dtype=np.uint8)
    fields[:, : cap * 8] = np.unpackbits(padded.reshape(frames, cap), axis=1, bitorder="little")
    block = _fold(fields.reshape(frames, n, bits_per) @ (1 << np.arange(bits_per, dtype=np.int64)))
    for i, m in enumerate(block):
        yield m, min(cap, len(data) - i * cap)


def unpack_bits(frames, n: int, L: int) -> bytes:
    """Invert pack_bits; frames is an iterable of (vector, payload_len), unpacked as one block."""
    cap = frame_capacity_bytes(n, L)
    bits_per = int(L).bit_length() - 1  # exact: L passed the check
    vectors, lengths = [], []
    for m, payload_len in frames:
        lengths.append(integer(payload_len, "payload length", 0, cap + 1, FormatError))
        vectors.append(int_vector(m, n, "frame", FormatError))
    if not vectors:
        return b""
    vals = _fold(np.stack(vectors))
    _check_symbols(vals, L, FormatError)
    bits = ((vals[..., None] >> np.arange(bits_per)) & 1).astype(np.uint8)
    raw = np.packbits(bits.reshape(len(vals), -1)[:, : cap * 8], axis=1, bitorder="little")
    return raw[np.arange(cap) < np.array(lengths)[:, None]].tobytes()


# --- key file -----------------------------------------------------------------


def save_key(key: SecretKey) -> str:
    p = key.params
    secret = {
        "supports": [idx for block in key.code.supports for idx in block],
        "s": [key.s],
        "h_seed": [key.h_seed],
        "t": key.t,
    }
    fields = {name: getattr(p, name) for name in p.__dataclass_fields__}
    fields.update(version=formats.KEY_VERSION, digest=key.digest())
    for name, deg in p.poly_fields():
        fields[name] = primitives.poly_id(deg)
    for name, _, width in p.secret_fields():
        fields[name] = formats.fields_to_hex(secret[name], width)
    return formats.write_key_text(fields)


def load_key(text: str) -> SecretKey:
    f = formats.read_key_text(text)
    names = tuple(CipherParams.__dataclass_fields__)
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
