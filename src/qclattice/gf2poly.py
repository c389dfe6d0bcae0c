"""Polynomial arithmetic over GF(2).

Polynomials are plain Python integers: bit ``i`` holds the coefficient of
``x**i``.  Everything here is exact; there is no floating point and no
dependency on array libraries, so these routines are safe to use from any
module, including key generation.

Products use a 4-bit window (Horner over the hex digits of the shorter
operand).  Squaring spreads bits through two 256-byte translation tables.
Reduction folds the part above the leading term of the modulus back down
with one shift-XOR per lower term (Hankerson, Menezes & Vanstone, *Guide
to Elliptic Curve Cryptography*, 2004, sec. 2.3.5).  That is fast for the
sparse moduli used here (trinomials, pentanomials, x^b + 1); Euclid's
remainders are dense, so ``invmod`` divides bit-serially.
"""

import functools


def degree(a: int) -> int:
    """Degree of ``a``; -1 for the zero polynomial."""
    return a.bit_length() - 1


_NIBBLE = {c: i for i, c in enumerate("0123456789abcdef")}


def mul(a: int, b: int) -> int:
    """Carry-less product over GF(2)."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    b2 = b << 1
    b3 = b2 ^ b
    b4 = b << 2
    b8 = b << 3
    b12 = b8 ^ b4
    table = (
        0, b, b2, b3, b4, b4 ^ b, b4 ^ b2, b4 ^ b3,
        b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b12, b12 ^ b, b12 ^ b2, b12 ^ b3,
    )
    r = 0
    for i in map(_NIBBLE.__getitem__, f"{a:x}"):
        r = (r << 4) ^ table[i]
    return r


@functools.lru_cache(maxsize=256)
def _reducer(m: int):
    """``(deg m, mask, taps)`` for reducing modulo ``m``.

    ``taps`` are the exponents of ``m`` below its leading term, highest
    first.  One fold clears the ``deg m - taps[0]`` top bits with one
    shift-XOR per tap.
    """
    dm = m.bit_length() - 1
    low = m ^ (1 << dm)
    taps = [i for i in range(low.bit_length()) if low >> i & 1]
    return dm, (1 << dm) - 1, tuple(reversed(taps))


def mod(a: int, m: int) -> int:
    """Remainder of ``a`` modulo ``m`` (``m`` nonzero, best sparse).

    A dense modulus costs one shift-XOR per term for each bit cleared; use
    ``divmod2`` for those.
    """
    dm, mask, taps = _reducer(m)
    hi = a >> dm
    while hi:
        a &= mask
        for t in taps:
            a ^= hi << t
        hi = a >> dm
    return a


def divmod2(a: int, m: int):
    """Quotient and remainder of ``a`` divided by ``m``."""
    dm = m.bit_length() - 1
    q = 0
    while a and a.bit_length() - 1 >= dm:
        s = a.bit_length() - 1 - dm
        q |= 1 << s
        a ^= m << s
    return q, a


def mulmod(a: int, b: int, m: int) -> int:
    return mod(mul(a, b), m)


def _spread_nibble(x: int) -> int:
    return sum(((x >> i) & 1) << (2 * i) for i in range(4))


# squares of the low and high nibble of every byte, one byte each
_SQ_LO = bytes(_spread_nibble(x & 15) for x in range(256))
_SQ_HI = bytes(_spread_nibble(x >> 4) for x in range(256))


def sqmod(a: int, m: int) -> int:
    """Square ``a`` modulo ``m``; squaring over GF(2) is bit spreading."""
    raw = a.to_bytes((a.bit_length() + 7) // 8, "little")
    sq = bytearray(2 * len(raw))
    sq[0::2] = raw.translate(_SQ_LO)
    sq[1::2] = raw.translate(_SQ_HI)
    return mod(int.from_bytes(sq, "little"), m)


_WINDOW = 8  # exponent bits per table pass: F(r) = r^(2^_WINDOW) mod m


@functools.lru_cache(maxsize=16)
def _frobenius(m: int):
    """Tables of F(r) = r^(2^_WINDOW) mod m, one per byte of r.

    Entry v of table j is F(v x^(8j)); F is GF(2)-linear, so F(r) is the
    XOR of one entry per byte.  Against the two 4-bit tables per byte this
    replaced, a hot 61-bit ``xpowmod`` went 37 -> 21 us at n = 258 and
    175 -> 81 us at n = 1496 (2-vCPU VM, best of 5 x 500), for a one-time
    build of 1.0 ms (12 ms) and 0.6 MB (11 MB) of tables per modulus.
    """
    step = 1 << _WINDOW
    tables = []
    image = 1  # F(x^j) = x^(j 2^_WINDOW) mod m, for j = 0, 1, 2, ...
    for _ in range(0, degree(m), 8):
        table = [0]
        for _ in range(8):
            table += [v ^ image for v in table]
            image = mod(image << step, m)
        tables.append(table)
    return tables


def _frobenius_apply(r: int, tables) -> int:
    """F(r) = r^(2^_WINDOW) mod m from the tables of _frobenius(m)."""
    acc = 0
    for table, v in zip(tables, r.to_bytes(len(tables), "little")):
        acc ^= table[v]
    return acc


def xpowmod(e: int, m: int) -> int:
    """``x**e mod m`` for ``e >= 0`` and ``m`` of degree >= 1.

    Left to right over _WINDOW-bit windows of e: r <- F(r) x^w, with F
    from tables built once per m and x^w a shift and a fold (Hankerson,
    Menezes & Vanstone, sec. 2.3).
    """
    if e == 0:
        return 1
    tables = _frobenius(m)
    mask = (1 << _WINDOW) - 1
    shift = (e.bit_length() - 1) // _WINDOW * _WINDOW
    r = mod(1 << (e >> shift), m)
    while shift:
        shift -= _WINDOW
        r = mod(_frobenius_apply(r, tables) << ((e >> shift) & mask), m)
    return r


@functools.lru_cache(maxsize=16)
def _montgomery(m: int):
    """(exponents of 1/m mod x^256, exponents of m), both ascending: x^-w steps, w < 256."""
    inv = inverse_series(m, 1 << _WINDOW)
    return (tuple(k for k in range(inv.bit_length()) if inv >> k & 1),
            tuple(k for k in range(m.bit_length()) if m >> k & 1))


def xinvpowmod(e: int, m: int) -> int:
    """``x**-e mod m`` for ``e >= 0`` and ``m`` of degree >= 1 with ``m(0) = 1``.

    xpowmod's windows with x^-w in place of x^w, as a Montgomery step: q =
    (r mod x^w)(1/m mod x^w) makes r + q m divisible by x^w, and (r + q m)
    / x^w has degree below deg m, so it needs no reduction.  For a sparse m,
    1/m mod x^256 is sparse too (1 + x^83 + x^166 + x^249 for x^258 + x^83 +
    1), and both products are a few shift-XORs.
    """
    if e == 0:
        return 1
    tables = _frobenius(m)
    inv, taps = _montgomery(m)
    mask = (1 << _WINDOW) - 1
    shift = (e.bit_length() - 1) // _WINDOW * _WINDOW
    r, w = 1, e >> shift
    while True:
        low, q = r & ((1 << w) - 1), 0
        for k in inv:
            if k >= w:
                break
            q ^= low << k
        q &= (1 << w) - 1
        for t in taps:
            r ^= q << t
        r >>= w
        if not shift:
            return r
        shift -= _WINDOW
        r, w = _frobenius_apply(r, tables), (e >> shift) & mask


def invmod(a: int, m: int):
    """Inverse of ``a`` modulo ``m`` via extended Euclid, or None."""
    if mod(a, m) == 0:
        return None
    r0, r1 = m, mod(a, m)
    s0, s1 = 0, 1
    while r1:
        q, r2 = divmod2(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, s0 ^ mul(q, s1)
    if r0 != 1:  # gcd != 1
        return None
    return mod(s0, m)


_REVERSED_BYTE = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def reverse(a: int, n: int) -> int:
    """Reciprocal polynomial x**n * a(1/x) of a degree-<=n polynomial."""
    size = n // 8 + 1  # bytes holding the n + 1 coefficients
    raw = (a & ((2 << n) - 1)).to_bytes(size, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(raw, "big") >> (8 * size - n - 1)


@functools.lru_cache(maxsize=64)
def inverse_series(f: int, nbits: int) -> int:
    """1/f mod x^nbits for f(0) = 1, by the Newton step g <- g^2 f."""
    g, have = 1, 1
    while have < nbits:
        have *= 2
        g = mul(sqmod(g, 1 << have), f) & ((1 << have) - 1)
    return g & ((1 << nbits) - 1)
