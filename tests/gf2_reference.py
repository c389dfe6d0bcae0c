"""Bit-serial GF(2)[x] routines kept as oracles for qclattice.gf2poly,
the windowed x^alpha in qclattice.nlf and the generator-form matrices of
qclattice.bitmat.

These are the straightforward one-bit-at-a-time versions: a product is one
shifted XOR per set bit, a remainder is one shifted XOR per bit above the
modulus degree, a square spreads the binary string, and row i + 1 of a
multiplication matrix is row i times x, reduced by one conditional XOR.
"""


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
