"""Multiplexed companion-power map F(a, h) = a * U^alpha and its inverse.

U is the companion matrix of a primitive g of degree n, alpha is selected
by the d control bits h (alpha = sum h_i 2^i), and a is an integer vector.
U generates GF(2)[x]/(g), so the mod-2 power U^alpha is the multiplication
matrix of x^alpha mod g, held in generator form
(:class:`~qclattice.bitmat.PolyMulMatrix`: one bit sequence per tap block
of g, so an integer vector times U^alpha is one ``np.correlate`` per
block and no n x n array is built).

x^alpha mod g is built left to right over 8-bit windows of alpha:
r <- F(r) x^w, where F(r) = r^256 mod g.  Squaring over GF(2) is linear,
so F is the XOR of one table entry per 4-bit chunk of r, from tables
built once per g (Hankerson, Menezes & Vanstone, *Guide to Elliptic Curve
Cryptography*, 2004, sec. 2.3); x^w is a shift and a fold.  x^-alpha,
needed only to invert, is x^-(2^d) x^(2^d - alpha): the same loop and one
product with x^-(2^d), cached per (g, d).

F acts on integer vectors using the 0/1 matrix U^alpha (the encryption
pipeline runs over the reals); the mod-2 view F' used by the analysis
tooling is exposed separately as f_mod2.  The integer inverse solves
v * M = x exactly by 2-adic digit peeling: M has odd determinant, so it is
invertible mod 2^k for every k.  M^-1 mod 2 is the multiplication matrix
of x^-alpha, built once per call in the same generator form, so each
binary digit of v is ((residual mod 2) M^-1) mod 2, and the residual then
drops by digit * M and halves.  Both products take 0/1 vectors, so every
sum is at most n: they run as float64 correlates, which carry these
integers exactly (bitmat holds the 2^53 guard for general vectors).  The
cipher path stays exact; no rounded float reaches it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly
from .bitmat import PolyMulMatrix, bits_to_poly, poly_to_bits, power_poly_matrix
from .errors import InvalidParams, NotInLattice, TooLarge

_ANF_CAP = 24  # max n + d for exhaustive truth tables
_VERIFY_BOUND = 1 << 52  # |v| above this cannot be verified in int64 safely
_WINDOW = 8  # exponent bits per table pass: F(r) = r^(2^_WINDOW) mod g

_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))


@functools.lru_cache(maxsize=16)
def _frobenius(g: int):
    """Tables of F(r) = r^(2^_WINDOW) mod g, one per 4-bit chunk of r.

    Entry v of table j is F(v x^(4j)); F is GF(2)-linear, so F(r) is the
    XOR of one entry per chunk.  Returned as the tables of the low and of
    the high nibbles of r's bytes.  In the cipher workloads, 4-bit tables
    (16 entries each) ran faster than 8-bit ones, whose 256-entry tables
    are 16 times larger and fall out of cache between frames.
    """
    n = gf2poly.degree(g)
    step = 1 << _WINDOW
    tables = []
    image = 1  # F(x^m) = x^(m 2^_WINDOW) mod g, for m = 0, 1, 2, ...
    for _ in range(0, n, 4):
        table = [0]
        for _ in range(4):
            table += [v ^ image for v in table]
            image = gf2poly.mod(image << step, g)
        tables.append(table)
    return tables[0::2], tables[1::2], (n + 7) // 8


def _frobenius_apply(r: int, tables) -> int:
    """F(r) = r^(2^_WINDOW) mod g from the tables of _frobenius(g)."""
    low, high, nbytes = tables
    raw = r.to_bytes(nbytes, "little")
    acc = 0
    for table, v in zip(low, raw.translate(_LOW_NIBBLE)):
        acc ^= table[v]
    for table, v in zip(high, raw.translate(_HIGH_NIBBLE)):
        acc ^= table[v]
    return acc


def _x_pow(g: int, e: int) -> int:
    """x^e mod g for e >= 0, over _WINDOW-bit windows of e from the top."""
    if e == 0:
        return 1
    tables = _frobenius(g)
    mask = (1 << _WINDOW) - 1
    shift = (e.bit_length() - 1) // _WINDOW * _WINDOW
    r = gf2poly.mod(1 << (e >> shift), g)
    while shift:
        shift -= _WINDOW
        r = gf2poly.mod(_frobenius_apply(r, tables) << ((e >> shift) & mask), g)
    return r


@functools.lru_cache(maxsize=16)
def _x_neg_pow2(g: int, d: int) -> int:
    """x^-(2^d) mod g: x^-1 = g >> 1, squared d times (by table passes)."""
    r = g >> 1
    tables = _frobenius(g)
    for _ in range(d // _WINDOW):
        r = _frobenius_apply(r, tables)
    for _ in range(d % _WINDOW):
        r = gf2poly.sqmod(r, g)
    return r


class NlfContext:
    """Immutable context for one (g, d) pair."""

    def __init__(self, g: int, d: int):
        self.g = int(g)
        self.n = gf2poly.degree(self.g)
        self.d = int(d)
        if self.n < 1:
            raise InvalidParams("polynomial degree must be >= 1")
        if not (self.g & 1):
            raise InvalidParams("g(0) must be 1")
        if self.d < 0:
            raise InvalidParams("control width must be >= 0")

    # --- control line ----------------------------------------------------

    def _check_control(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=np.uint8)
        if h.shape != (self.d,):
            raise InvalidParams(f"control vector must have length {self.d}")
        return h % 2

    def _x_power(self, h, inverse: bool = False) -> int:
        """x^alpha mod g, or x^-alpha = x^-(2^d) x^(2^d - alpha) mod g."""
        alpha = bits_to_poly(self._check_control(h))
        if not inverse:
            return _x_pow(self.g, alpha)
        return gf2poly.mulmod(
            _x_neg_pow2(self.g, self.d), _x_pow(self.g, (1 << self.d) - alpha), self.g
        )

    def matrix_for(self, h) -> PolyMulMatrix:
        """The 0/1 matrix U^alpha selected by h, in generator form."""
        return power_poly_matrix(self.g, self._x_power(h))

    def _entry(self, h) -> PolyMulMatrix:
        """U^alpha for one apply_f or invert_f call."""
        return self.matrix_for(h)

    # --- the map and its inverse ------------------------------------------

    def apply_f(self, a, h) -> np.ndarray:
        """a * U^alpha over the integers."""
        a = np.asarray(a, dtype=np.int64)
        if a.shape != (self.n,):
            raise InvalidParams("input vector length mismatch")
        return self._entry(h).vecmul(a)

    def invert_f(self, x, h) -> np.ndarray:
        """The unique integer preimage of x under apply_f(., h).

        Raises NotInLattice when x is outside the integer row-span of
        U^alpha (odd determinant may exceed 1, so not every integer vector
        has an integer preimage).  Preimage components must fit in 52 bits
        so the final verification multiply stays exact in int64.
        """
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.n,):
            raise InvalidParams("input vector length mismatch")
        m = self._entry(h)
        # M^-1 mod 2 is the multiplication matrix of x^-alpha mod g
        m_inv = power_poly_matrix(self.g, self._x_power(h, inverse=True))
        residual = x
        v = np.zeros(self.n, dtype=np.int64)  # digit t adds 2^t, wrapping mod 2^64
        for t in range(64):
            if not residual.any():
                break
            # both products take 0/1 vectors, so every sum is at most n and
            # float64 carries it exactly
            bits = m_inv.float_mul((residual & 1).astype(np.float64)).astype(np.int64) & 1
            v += bits << t
            start = residual
            product = m.float_mul(bits.astype(np.float64))
            residual = (residual - product.astype(np.int64)) >> 1
            if t + 1 < 64 and (residual == start).all():
                # fixed-point residual: every later digit repeats this one,
                # and the 2-adic tail sum_{s>t} 2^s equals -2^(t+1)
                v -= bits << (t + 1)
                break
        # compare signed values: np.abs(-2**63) is still -2**63
        if (v > _VERIFY_BOUND).any() or (v < -_VERIFY_BOUND).any():
            raise NotInLattice("no integer preimage exists")
        if not np.array_equal(m.vecmul(v), x):
            raise NotInLattice("no integer preimage exists")
        return v

    # --- mod-2 view and analysis tooling -----------------------------------

    def f_mod2(self, a, h) -> np.ndarray:
        """F' = F mod 2 on a binary vector, as polynomial multiplication."""
        a = np.asarray(a, dtype=np.int64) & 1
        c = self._x_power(h)
        pa = bits_to_poly(a.astype(np.uint8))
        return poly_to_bits(gf2poly.mulmod(pa, c, self.g), self.n)

    def _component_truth_table(self, weights: int) -> np.ndarray:
        """Truth table of sum_i w_i f_i(a, b) over all 2^(n+d) inputs.

        Index layout: low n bits = a, high d bits = b.
        """
        if self.n + self.d > _ANF_CAP:
            raise TooLarge(f"truth table needs n + d <= {_ANF_CAP}")
        n, d = self.n, self.d
        a_vals = np.arange(1 << n, dtype=np.uint64)
        tt = np.empty((1 << d) << n, dtype=np.uint8)
        w = poly_to_bits(weights, n).astype(np.int64)
        for alpha in range(1 << d):
            # bit j of col: component of row j of U^alpha along the weights
            m = power_poly_matrix(self.g, gf2poly.powmod(2, alpha, self.g))
            col = bits_to_poly((m.to_dense() @ w) & 1)
            vals = (np.bitwise_count(a_vals & np.uint64(col)) & 1).astype(np.uint8)
            tt[alpha << n : (alpha + 1) << n] = vals
        return tt

    @staticmethod
    def _anf_degree(tt: np.ndarray) -> int:
        """Algebraic degree via the in-place Moebius transform."""
        m = int(np.log2(len(tt)))
        tt = tt.copy()
        for v in range(m):
            view = tt.reshape(-1, 2, 1 << v)
            view[:, 1, :] ^= view[:, 0, :]
        idx = np.nonzero(tt)[0].astype(np.uint64)
        if len(idx) == 0:
            return 0
        return int(np.bitwise_count(idx).max())

    def component_anf_degree(self, i: int) -> int:
        """Exact algebraic degree of component i of F' over GF(2)^(n+d)."""
        if not (0 <= i < self.n):
            raise InvalidParams("component index out of range")
        return self._anf_degree(self._component_truth_table(1 << i))

    def combination_anf_degree(self, weights) -> int:
        """Degree of a nonzero GF(2) combination of components of F'."""
        w = bits_to_poly(np.asarray(weights, dtype=np.uint8) % 2)
        if w == 0:
            raise InvalidParams("combination must be nonzero")
        return self._anf_degree(self._component_truth_table(w))

    def higher_derivative(self, l: int, directions, base, h) -> np.ndarray:
        """Sum of F'(base + c, h) over the 2^l span points of the directions.

        directions are distinct coordinate indices (unit vectors); addition
        is over GF(2).
        """
        dirs = [int(i) for i in directions]
        if len(dirs) != l or len(set(dirs)) != l:
            raise InvalidParams("need l distinct direction coordinates")
        if any(i < 0 or i >= self.n for i in dirs):
            raise InvalidParams("direction index out of range")
        base = np.asarray(base, dtype=np.uint8) % 2
        if base.shape != (self.n,):
            raise InvalidParams("base vector length mismatch")
        out = np.zeros(self.n, dtype=np.uint8)
        for mask in range(1 << l):
            pt = base.copy()
            for bit, coord in enumerate(dirs):
                if (mask >> bit) & 1:
                    pt[coord] ^= 1
            out ^= self.f_mod2(pt, h)
        return out
