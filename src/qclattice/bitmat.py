"""Exact GF(2) linear algebra: bit-packed matrices, circulants, companions.

General mod-2 matrices live in bit-packed rows (uint8 words, little-endian
bit order) so row operations and syndrome checks are single vectorized
XORs.  The matrix of multiplication by c(x) in GF(2)[x]/(g) is kept in
generator form instead (:class:`PolyMulMatrix`): moving down one row
shifts every column right by one, except at the taps of g, so between
consecutive taps the columns form a Toeplitz block fixed by one bit
sequence (Sunar & Koc, "Mastrovito Multiplier for All Trinomials", IEEE
Trans. Computers 48(5), 1999).  A trinomial gives two blocks, and an
integer vector times the matrix is one ``np.correlate`` per block, with no
n x n array.  The one fraction-free solve,
:func:`exact_integer_inverse_apply`, uses Python integers; no floating
point enters this module except as an exact carrier inside BLAS-backed
mod-2 matrix products (sums stay far below 2**24).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf2poly
from .errors import InvalidParams, NotInLattice, Singular, SingularCirculant


def _pack(dense: np.ndarray) -> np.ndarray:
    return np.packbits(dense.astype(np.uint8), axis=1, bitorder="little")


def _unpack(bits: np.ndarray, cols: int) -> np.ndarray:
    return np.unpackbits(bits, axis=1, count=cols, bitorder="little")


def bits_to_poly(bits) -> int:
    """0/1 vector to polynomial: entry i is the coefficient of x^i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def poly_to_bits(p: int, n: int) -> np.ndarray:
    """The low ``n`` coefficients of ``p`` as uint8, x^0 first."""
    raw = np.frombuffer(p.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


class BinMatrix:
    """Dense GF(2) matrix with bit-packed rows."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: np.ndarray):
        if rows <= 0 or cols <= 0:
            raise InvalidParams("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.bits = bits

    @classmethod
    def from_dense(cls, dense) -> "BinMatrix":
        dense = np.atleast_2d(np.asarray(dense))
        return cls(dense.shape[0], dense.shape[1], _pack(dense % 2))

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinMatrix":
        return cls(rows, cols, np.zeros((rows, (cols + 7) // 8), dtype=np.uint8))

    @classmethod
    def from_int_rows(cls, rows_as_ints, cols: int) -> "BinMatrix":
        """Rows given as Python ints, bit i of a row = entry in column i."""
        nbytes = (cols + 7) // 8
        buf = b"".join(r.to_bytes(nbytes, "little") for r in rows_as_ints)
        bits = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows_as_ints), nbytes)
        return cls(len(rows_as_ints), cols, bits.copy())

    def to_dense(self) -> np.ndarray:
        return _unpack(self.bits, self.cols)

    def row_ints(self):
        """Rows as Python ints (bit i = column i)."""
        return [int.from_bytes(row.tobytes(), "little") for row in self.bits]

    def copy(self) -> "BinMatrix":
        return BinMatrix(self.rows, self.cols, self.bits.copy())

    def transpose(self) -> "BinMatrix":
        return BinMatrix.from_dense(self.to_dense().T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.bits, other.bits)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.bits.tobytes()))

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == BinMatrix.identity(self.rows)

    def matmul(self, other: "BinMatrix") -> "BinMatrix":
        """Product mod 2. BLAS float32 path; exact for inner dim < 2**24."""
        if self.cols != other.rows:
            raise InvalidParams("dimension mismatch")
        a = self.to_dense().astype(np.float32)
        b = other.to_dense().astype(np.float32)
        prod = (a @ b).astype(np.int64) & 1
        return BinMatrix.from_dense(prod.astype(np.uint8))

    def __matmul__(self, other):
        return self.matmul(other)

    def _eliminate(self, augment: np.ndarray | None):
        """In-place style Gauss-Jordan on a copy; returns (rank, work, aug)."""
        work = self.bits.copy()
        aug = None if augment is None else augment.copy()
        r = 0
        pivots = []
        for c in range(self.cols):
            col = (work[r:, c >> 3] >> (c & 7)) & 1
            hits = np.nonzero(col)[0]
            if len(hits) == 0:
                continue
            p = r + hits[0]
            if p != r:
                work[[r, p]] = work[[p, r]]
                if aug is not None:
                    aug[[r, p]] = aug[[p, r]]
            colall = (work[:, c >> 3] >> (c & 7)) & 1
            colall[r] = 0
            fix = colall.astype(bool)
            if fix.any():
                work[fix] ^= work[r]
                if aug is not None:
                    aug[fix] ^= aug[r]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return r, work, aug, pivots

    def rank(self) -> int:
        return self._eliminate(None)[0]

    def inverse(self) -> "BinMatrix":
        """GF(2) inverse; raises Singular if rank-deficient."""
        if self.rows != self.cols:
            raise Singular("only square matrices invert")
        ident = BinMatrix.identity(self.rows)
        r, _, aug, _ = self._eliminate(ident.bits)
        if r != self.rows:
            raise Singular("matrix is singular over GF(2)")
        return BinMatrix(self.rows, self.cols, aug)


@dataclass(frozen=True)
class Circulant:
    """b x b circulant over GF(2), stored as the first row's support."""

    b: int
    support: tuple

    def __post_init__(self):
        sup = tuple(sorted(set(int(s) for s in self.support)))
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "b", int(self.b))
        if self.b <= 0:
            raise InvalidParams("circulant size must be positive")
        if any(s < 0 or s >= self.b for s in self.support):
            raise InvalidParams("support indices must lie in [0, b)")

    @classmethod
    def from_poly(cls, b: int, p: int) -> "Circulant":
        return cls(b, tuple(i for i in range(b) if (p >> i) & 1))

    def poly(self) -> int:
        v = 0
        for s in self.support:
            v |= 1 << s
        return v

    def to_binmatrix(self) -> BinMatrix:
        rows = []
        p = self.poly()
        mask = (1 << self.b) - 1
        for _ in range(self.b):
            rows.append(p)
            # next row = previous row cyclically shifted right by one position
            p = ((p << 1) | (p >> (self.b - 1))) & mask
        return BinMatrix.from_int_rows(rows, self.b)

    def transpose(self) -> "Circulant":
        return Circulant(self.b, tuple(sorted((-s) % self.b for s in self.support)))

    def weight(self) -> int:
        return len(self.support)


def circulant_mul(a: Circulant, c: Circulant) -> Circulant:
    """Product of circulants = polynomial product mod x^b - 1."""
    if a.b != c.b:
        raise InvalidParams("circulant size mismatch")
    modulus = (1 << a.b) | 1  # x^b + 1
    return Circulant.from_poly(a.b, gf2poly.mulmod(a.poly(), c.poly(), modulus))


def circulant_inverse(a: Circulant) -> Circulant:
    """Inverse circulant over GF(2), if gcd(a(x), x^b + 1) = 1."""
    modulus = (1 << a.b) | 1
    inv = gf2poly.invmod(a.poly(), modulus)
    if inv is None:
        raise SingularCirculant(f"circulant of size {a.b} is singular")
    return Circulant.from_poly(a.b, inv)


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of a monic g(x) with g(0) = 1, as a 0/1 matrix.

    Rows 0..n-2 are shifted unit vectors; the last row carries the
    coefficients a_0..a_{n-1}.  Over the integers the determinant is
    (-1)^(n+1) * a_0, in {-1, +1}, so the matrix is invertible over GF(2)
    and over the rationals.
    """

    poly: int  # bit i = a_i; bit n = 1 (monic)

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidParams("companion matrix needs degree >= 1")
        if not (self.poly & 1):
            raise InvalidParams("constant term a_0 must be 1")

    @property
    def degree(self) -> int:
        return gf2poly.degree(self.poly)

    def to_binmatrix(self) -> BinMatrix:
        n = self.degree
        rows = [1 << (i + 1) for i in range(n - 1)]
        rows.append(self.poly & ((1 << n) - 1))
        return BinMatrix.from_int_rows(rows, n)

    def to_dense(self) -> np.ndarray:
        return self.to_binmatrix().to_dense()


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

    __slots__ = ("g", "c", "rows", "cols", "starts", "widths", "gens")

    def __init__(self, g: int, c: int):
        n = gf2poly.degree(g)
        if n < 1 or not g & 1:
            raise InvalidParams("modulus needs degree >= 1 and g(0) = 1")
        c = gf2poly.mod(c, g)
        starts, series = _mul_layout(g)
        widths = [b - a for a, b in zip(starts, starts[1:] + (n,))]
        c_rev = gf2poly.reverse(c, n - 1)
        tail = (1 << (n - 1)) - 1
        u = 0
        for k in series:
            u ^= c_rev << k
        u &= tail
        # all sequences in one integer, unpacked to int64 with one call
        packed = offset = prev = 0
        offsets = []
        for t, w in zip(starts, widths):
            head = (c_rev >> (n - t - w)) & ((1 << w) - 1)  # c_{t+w-1} .. c_t
            e = head | (((prev & tail) ^ u) << w)
            packed |= e << offset
            offsets.append(offset)
            offset += n + w - 1
            prev = e
        bits = poly_to_bits(packed, offset).astype(np.int64)
        self.g = g
        self.c = c
        self.rows = self.cols = n
        self.starts = starts
        self.widths = tuple(widths)
        self.gens = tuple(bits[o : o + n + w - 1] for o, w in zip(offsets, widths))

    def vecmul(self, a) -> np.ndarray:
        """Row vector times the 0/1 matrix over the integers (int64)."""
        a = np.asarray(a, dtype=np.int64)
        y = np.empty(self.cols, dtype=np.int64)
        for t, w, e in zip(self.starts, self.widths, self.gens):
            y[t : t + w] = np.correlate(e, a, "valid")[::-1]
        return y

    def to_dense(self) -> np.ndarray:
        """The matrix as an n x n uint8 array."""
        out = np.empty((self.rows, self.cols), dtype=np.uint8)
        for t, w, e in zip(self.starts, self.widths, self.gens):
            out[:, t : t + w] = np.lib.stride_tricks.sliding_window_view(e, w)[:, ::-1]
        return out

    def to_binmatrix(self) -> BinMatrix:
        return BinMatrix.from_dense(self.to_dense())

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyMulMatrix):
            return self.g == other.g and self.c == other.c
        if isinstance(other, BinMatrix):
            return self.to_binmatrix() == other
        return NotImplemented


def power_poly_matrix(g: int, c: int) -> PolyMulMatrix:
    """Matrix of multiplication by c(x) in GF(2)[x]/(g): row i = x^i*c mod g."""
    return PolyMulMatrix(g, c)


def companion_power_mod2(u: CompanionMatrix, alpha: int) -> BinMatrix:
    """U^alpha over GF(2), via square-and-multiply in GF(2)[x]/(g).

    The companion matrix generates the ring GF(2)[x]/(g), so U^alpha is the
    multiplication-by-(x^alpha mod g) matrix.  Output is invertible over
    GF(2) because gcd(x^alpha, g) = 1 when g(0) = 1.
    """
    if alpha < 0:
        raise InvalidParams("alpha must be nonnegative")
    c = gf2poly.powmod(2, alpha, u.poly)
    return power_poly_matrix(u.poly, c).to_binmatrix()


def matrix_order(u: BinMatrix, max_order: int):
    """Least e <= max_order with u^e = I, or None if not found.

    Brute force by repeated multiplication; intended for degree <= 24.
    """
    if u.rows != u.cols:
        raise Singular("order is defined for square matrices")
    if u.rank() != u.rows:
        raise Singular("matrix is singular over GF(2)")
    ident = BinMatrix.identity(u.rows)
    acc = u
    e = 1
    while e <= max_order:
        if acc == ident:
            return e
        acc = acc.matmul(u)
        e += 1
    return None


def exact_integer_inverse_apply(m: BinMatrix, x) -> np.ndarray:
    """Unique integer v with v @ m = x, by fraction-free elimination.

    ``m`` is read as a 0/1 integer matrix; GF(2) invertibility makes its
    determinant odd, hence it is invertible over the rationals.  Raises
    NotInLattice when the rational solution is not integral (x outside the
    integer row-span) and Singular when m has no inverse.
    """
    from fractions import Fraction

    if m.rows != m.cols:
        raise Singular("matrix must be square")
    n = m.rows
    x = np.asarray(x, dtype=object)
    if x.shape != (n,):
        raise InvalidParams("vector length mismatch")

    # Solve m^T y = x^T by Bareiss elimination on the augmented system.
    dense = m.to_dense().T.astype(object)
    a = [[int(dense[i, j]) for j in range(n)] + [int(x[i])] for i in range(n)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                raise Singular("matrix is singular over the rationals")
            a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]

    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            s -= a[i][j] * sol[j]
        sol[i] = s / a[i][i]
    if any(f.denominator != 1 for f in sol):
        raise NotInLattice("no integer preimage exists")
    return np.array([int(f) for f in sol], dtype=np.int64)
