"""Exact GF(2) linear algebra: circulants and multiplication matrices mod g.

A b x b circulant is its first row read as a polynomial mod x^b + 1, so
products and inverses of circulants are gf2poly arithmetic on those
polynomials.  ``circulants`` expands a batch of rows into dense blocks at
once: entry (i, j) of a block is bit b + j - i of its row written twice, so
every block is a strided window over one unpacked bit string, with no index
grid and no modulo.

The matrix of multiplication by c(x) in GF(2)[x]/(g) is kept in generator
form (:class:`PolyMulMatrix`): moving down one row shifts every column
right by one, except at the taps of g, so between consecutive taps the
columns form a Toeplitz block fixed by one bit sequence (Sunar & Koc,
"Mastrovito Multiplier for All Trinomials", IEEE Trans. Computers 48(5),
1999).  A trinomial gives two blocks, and an integer vector times the
matrix is one ``np.correlate`` per block, with no n x n array.  Dense 0/1
matrices, where a caller needs one, are plain uint8 arrays.

Exact products in floats, the one statement of the rule: each output of an
integer x times a 0/1 matrix of ``terms`` rows sums at most ``terms`` entries
of x, so while max|x| * terms < 2^24 (float32) or 2^53 (float64) every partial
sum is an integer the float holds exactly, in any order; ``float_exact`` tests
it.  numpy's float32 correlate runs 1.7 times faster than its float64 one at
n = 258 and 1496, which runs 3-5 times faster than its int64 one.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly
from .errors import InvalidParams, integer

_EXACT = {np.float32: 1 << 24, np.float64: 1 << 53}  # each holds every integer of smaller magnitude
_max, _min = np.maximum.reduce, np.minimum.reduce  # x.max() costs 0.15 us more a call


def float_exact(x: np.ndarray, terms: int, dtype: type) -> bool:
    """Whether dtype carries integer x times any 0/1 matrix of ``terms`` rows exactly."""
    lim = (_EXACT[dtype] - 1) // terms
    # signed bounds, as np.abs(-2^63) wraps negative
    return not x.size or _max(x, None) <= lim and _min(x, None) >= -lim


def bits_to_poly(bits) -> int:
    """0/1 vector to polynomial: entry i is the coefficient of x^i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def poly_to_bits(p: int, n: int) -> np.ndarray:
    """The low ``n`` coefficients of ``p`` as uint8, x^0 first."""
    raw = np.frombuffer(p.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def circulants(b: int, rows) -> np.ndarray:
    """Read-only (len(rows), b, b) uint8 view of the circulants with these
    first rows: row i of a block is its row 0 shifted right by i, cyclically.

    Raises InvalidParams for a row outside [0, 2^b), which would spill into
    its neighbour in the packed bits.
    """
    b = integer(b, "circulant size b", 1)
    packed = 0
    for r in reversed(rows):
        r = integer(r, "circulant row", 0, 1 << b)
        packed = packed << 2 * b | r << b | r
    bits = poly_to_bits(packed, 2 * b * len(rows))
    # entry (k, i, j) is bits[2b*k + b - i + j], inside row k's 2b bits; the
    # entries alias one another, so the view is read-only
    out = np.ndarray((len(rows), b, b), np.uint8, bits, b, (2 * b, -1, 1))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _mul_layout(g: int):
    """Block starts (the exponents of g below its degree) and the exponents
    of 1/g* mod z^n, where g* = z^n g(1/z) is the reciprocal of g.

    That series is sparse for sparse g (1 + z^175 for x^258 + x^83 + 1), so
    the product with it is a few shift-XORs.
    """
    n = gf2poly.degree(g)
    series = gf2poly.inverse_series(gf2poly.reverse(g, n), n)
    return (
        tuple(t for t in range(n) if g >> t & 1),
        tuple(k for k in range(n) if series >> k & 1),
    )


class PolyMulMatrix:
    """Matrix of multiplication by c(x) in GF(2)[x]/(g), in generator form.

    Row i is x^i c mod g (bit j in column j).  Going from row i to row
    i + 1 shifts every column right by one and XORs the top bit u_i of row
    i into the columns at the taps t_b of g (t_0 = 0, since g(0) = 1).
    Block b, columns t_b <= j < t_{b+1} (t_B = n), is therefore Toeplitz:
    entry (i, t_b + k) is e_b[i - k + W_b - 1] for one sequence e_b of
    n + W_b - 1 bits, W_b = t_{b+1} - t_b.  Its first W_b bits are c's
    coefficients t_{b+1} - 1 down to t_b; the remaining n - 1 are
    e_{b-1}[0:n-1] XOR u[0:n-1] (u alone for b = 0).  u_i is
    [z^i] c^R(z)/g*(z), with c^R = z^(n-1) c(1/z).
    """

    __slots__ = ("rows", "cols", "gens")

    def __init__(self, g: int, c: int):
        g, c = integer(g, "modulus g", 2), integer(c, "multiplier c", 0)  # g: degree >= 1
        if not g & 1:
            raise InvalidParams("modulus needs g(0) = 1")
        n = gf2poly.degree(g)
        c = gf2poly.mod(c, g)
        starts, series = _mul_layout(g)
        widths = [b - a for a, b in zip(starts, starts[1:] + (n,))]
        c_rev = gf2poly.reverse(c, n - 1)
        tail = (1 << (n - 1)) - 1
        u = 0
        for k in series:
            u ^= c_rev << k
        u &= tail
        # all sequences in one integer, unpacked with one call
        packed = offset = prev = 0
        offsets = []
        for t, w in zip(starts, widths):
            head = (c_rev >> (n - t - w)) & ((1 << w) - 1)  # c_{t+w-1} .. c_t
            e = head | (((prev & tail) ^ u) << w)
            packed |= e << offset
            offsets.append(offset)
            offset += n + w - 1
            prev = e
        bits = poly_to_bits(packed, offset).astype(np.float32)
        self.rows = self.cols = n
        # e_b, in block order; block b yields the len(e_b) - n + 1 columns
        # from t_b on
        self.gens = tuple(bits[o : o + n + w - 1] for o, w in zip(offsets, widths))

    def vecmul(self, a) -> np.ndarray:
        """Row vector times the 0/1 matrix over the integers (int64).

        float32 where ``float_exact`` allows it, else the int64 correlate,
        which wraps mod 2^64 like any int64 product.
        """
        a = np.asarray(a, dtype=np.int64)
        if float_exact(a, self.rows, np.float32):
            return self.float_mul(a.astype(np.float32)).astype(np.int64)
        return np.concatenate([np.correlate(a, e.astype(np.int64), "valid") for e in self.gens])

    def float_mul(self, a: np.ndarray) -> np.ndarray:
        """Row vector times the 0/1 matrix in float32.

        Exact for a float32 vector of integers that ``float_exact`` passes
        (0/1 vectors do, up to n = 2^24 - 1); the caller guarantees it.
        Column t_b + k of block b is sum_i a_i e_b[i - k + W_b - 1],
        which is entry k of correlate(a, e_b), the shorter vector first.
        """
        return np.concatenate([np.correlate(a, e, "valid") for e in self.gens])


def power_poly_matrix(g: int, c: int) -> PolyMulMatrix:
    """Matrix of multiplication by c(x) in GF(2)[x]/(g): row i = x^i*c mod g."""
    return PolyMulMatrix(g, c)
