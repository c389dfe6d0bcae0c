"""Bit-serial GF(2)[x] routines and dense GF(2) matrices kept as oracles
for qclattice.gf2poly, the windowed x^alpha in qclattice.nlf, the
generator-form matrices of qclattice.bitmat, the 2-adic inverse of the
NLF (invert_peel), the girth check of qclattice.rdfcode and the lattice
membership test of qclattice.lattice (a product with the dense H).

These are the straightforward one-bit-at-a-time versions: a product is one
shifted XOR per set bit, a remainder is one shifted XOR per bit above the
modulus degree, a square spreads the binary string, and row i + 1 of a
multiplication matrix is row i times x, reduced by one conditional XOR.
Matrices are plain uint8 arrays; companion powers come from those rows and
the bit-serial powmod, so they share no code with qclattice.bitmat.
"""

from fractions import Fraction

import numpy as np

from qclattice.errors import NotInLattice, Singular


def mul(a: int, b: int) -> int:
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def sqmod(a: int, m: int) -> int:
    s = bin(a)[2:]
    sq = int("0".join(s), 2) if len(s) > 1 else a
    return mod(sq, m)


def powmod(a: int, e: int, m: int) -> int:
    r = 1
    a = mod(a, m)
    while e:
        if e & 1:
            r = mod(mul(r, a), m)
        a = sqmod(a, m)
        e >>= 1
    return r


def reverse(a: int, n: int) -> int:
    r = 0
    for i in range(n + 1):
        if (a >> i) & 1:
            r |= 1 << (n - i)
    return r


def power_poly_rows(g: int, c: int) -> list:
    """Rows x^i * c mod g, i < deg g, of the multiplication-by-c matrix."""
    n = g.bit_length() - 1
    rows = []
    r = mod(c, g)
    for _ in range(n):
        rows.append(r)
        r <<= 1
        if r >> n:
            r ^= g
    return rows


# --- dense 0/1 matrices (numpy uint8 arrays) ------------------------------


class CompanionMatrix:
    """Companion matrix of a monic g(x) with g(0) = 1, as a 0/1 array.

    Rows 0..n-2 are shifted unit vectors; the last row carries the
    coefficients a_0..a_{n-1}.  Over the integers the determinant is
    (-1)^(n+1) * a_0, in {-1, +1}.
    """

    def __init__(self, poly: int):
        if poly.bit_length() < 2 or not poly & 1:
            raise ValueError("companion matrix needs degree >= 1 and a_0 = 1")
        self.poly = poly
        self.degree = poly.bit_length() - 1

    def to_dense(self) -> np.ndarray:
        n = self.degree
        rows = [1 << (i + 1) for i in range(n - 1)] + [self.poly & ((1 << n) - 1)]
        return rows_to_dense(rows, n)


def rows_to_dense(rows, n: int) -> np.ndarray:
    """Rows given as ints (bit j = column j) as an n-column uint8 array."""
    nbytes = (n + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def companion_power_mod2(u: CompanionMatrix, alpha: int) -> np.ndarray:
    """U^alpha over GF(2): the multiplication matrix of x^alpha mod g."""
    return rows_to_dense(power_poly_rows(u.poly, powmod(2, alpha, u.poly)), u.degree)


def matmul_mod2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a.astype(np.int64) @ b.astype(np.int64)) & 1).astype(np.uint8)


def rank_mod2(m: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination on a copy."""
    work = np.array(m, dtype=np.uint8) & 1
    rank = 0
    for c in range(work.shape[1]):
        hits = np.nonzero(work[rank:, c])[0]
        if len(hits) == 0:
            continue
        p = rank + hits[0]
        work[[rank, p]] = work[[p, rank]]
        below = work[:, c].astype(bool)
        below[rank] = False
        work[below] ^= work[rank]
        rank += 1
        if rank == work.shape[0]:
            break
    return rank


def matrix_order(u: np.ndarray, max_order: int):
    """Least e <= max_order with u^e = I over GF(2), or None."""
    n = u.shape[0]
    if u.shape != (n, n) or rank_mod2(u) != n:
        raise Singular("order is defined for invertible square matrices")
    ident = np.eye(n, dtype=np.uint8)
    acc = np.array(u, dtype=np.uint8)
    for e in range(1, max_order + 1):
        if np.array_equal(acc, ident):
            return e
        acc = matmul_mod2(acc, u)
    return None


def girth_ok_dense(code) -> bool:
    """No two columns of H share two or more rows (no 4-cycles)."""
    h = code.h_matrix().astype(np.int32)
    gram = h.T @ h
    np.fill_diagonal(gram, 0)
    return int(gram.max()) <= 1


def syndrome_ok_dense(code, lam) -> bool:
    """lam is all odd and H * ((lam + 1)/2) = 0 (mod 2), with H dense."""
    lam = np.asarray(lam, dtype=np.int64)
    if ((lam & 1) == 0).any():
        return False
    word = ((lam + 1) >> 1) & 1
    return not ((code.h_matrix().astype(np.int64) @ word) & 1).any()


def code_rate(code) -> Fraction:
    """k / n = (n0 - 1) / n0."""
    return Fraction(code.n0 - 1, code.n0)


def spec_tuple(code):
    """(b, n0, dv, supports): the fields a QcCode is built from."""
    return (code.b, code.n0, code.dv, code.supports)


# --- the NLF inverse: 2-adic digit peeling in int64 ---------------------------

VERIFY_BOUND = 1 << 52


def invert_peel(g: int, x, h) -> np.ndarray:
    """The integer preimage v of x under v -> v U^alpha, alpha = sum h_i 2^i.

    Digit t of v solves digit * U^alpha = residual (mod 2) by one
    bit-serial product with x^-alpha = (x^-1)^alpha mod g; the residual
    then drops by digit * U^alpha (dense int64) and halves.  At most 64
    digits; a residual that repeats has the 2-adic tail -2^(t+1) * digit.
    Raises NotInLattice when |v| exceeds 2^52 or v U^alpha != x.
    """
    n = g.bit_length() - 1
    alpha = sum(int(b) << i for i, b in enumerate(h))
    dense = rows_to_dense(power_poly_rows(g, powmod(2, alpha, g)), n).astype(np.int64)
    cinv = powmod(g >> 1, alpha, g)
    x = np.asarray(x, dtype=np.int64)
    residual = x
    v = np.zeros(n, dtype=np.int64)
    for t in range(64):
        if not residual.any():
            break
        w = sum(int(b) << i for i, b in enumerate(residual & 1))
        product = mod(mul(w, cinv), g)
        digit = np.array([(product >> i) & 1 for i in range(n)], dtype=np.int64)
        v += digit << t
        start, residual = residual, (residual - digit @ dense) >> 1
        if t + 1 < 64 and np.array_equal(residual, start):
            v -= digit << (t + 1)
            break
    if (v > VERIFY_BOUND).any() or (v < -VERIFY_BOUND).any():
        raise NotInLattice("no integer preimage exists")
    if not np.array_equal(v @ dense, x):
        raise NotInLattice("no integer preimage exists")
    return v
