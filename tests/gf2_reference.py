"""Bit-serial GF(2)[x] routines kept as oracles for qclattice.gf2poly.

These are the straightforward one-bit-at-a-time versions: a product is one
shifted XOR per set bit, a remainder is one shifted XOR per bit above the
modulus degree, and a square spreads the binary string.
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
