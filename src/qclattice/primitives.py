"""Shipped table of primitive polynomials over GF(2).

Entries for degrees 2..80 were verified offline: irreducibility by the
Ben-Or test and maximal order against the complete factorization of
2**n - 1.  Degree 258 is likewise fully verified (2**258 - 1 factors
completely through its cyclotomic parts).  Degree 1496 is verified
irreducible with its order checked against every prime factor of
2**1496 - 1 below 2e6; a complete primitivity proof would require
factoring a ~450-digit number, which is out of reach.  The test suite
re-runs the check on public gf2poly calls (tests/test_primitives.py):
Rabin's irreducibility test on every entry, and full primitivity for
degrees up to 24 and for 258, whose factor list it holds.  The encryption
pipeline itself only requires invertibility (constant term 1); maximal
order is a key-space-size property.
"""

from . import gf2poly
from .errors import InvalidParams, integer

# degree -> exponents of the middle terms, highest first (x^degree and 1 are
# implicit); poly_id writes them in this order, so it is part of the key text
_TAPS = {
    2: (1,), 3: (1,), 4: (1,), 5: (2,), 6: (1,), 7: (1,), 8: (7, 2, 1),
    9: (4,), 10: (3,), 11: (2,), 12: (8, 2, 1), 13: (5, 2, 1),
    14: (12, 2, 1), 15: (1,), 16: (12, 3, 1), 17: (3,), 18: (7,),
    19: (5, 2, 1), 20: (3,), 21: (2,), 22: (1,), 23: (5,), 24: (7, 2, 1),
    25: (3,), 26: (6, 2, 1), 27: (5, 2, 1), 28: (3,), 29: (2,),
    30: (23, 2, 1), 31: (3,), 32: (22, 2, 1), 33: (13,), 34: (27, 2, 1),
    35: (2,), 36: (11,), 37: (9, 2, 1), 38: (13, 3, 1), 39: (4,),
    40: (35, 2, 1), 41: (3,), 42: (29, 2, 1), 43: (12, 2, 1),
    44: (38, 3, 1), 45: (4, 3, 1), 46: (9, 3, 1), 47: (5,), 48: (28, 3, 1),
    49: (9,), 50: (16, 2, 1), 51: (28, 2, 1), 52: (3,), 53: (6, 2, 1),
    54: (17, 2, 1), 55: (24,), 56: (42, 2, 1), 57: (7,), 58: (19,),
    59: (24, 2, 1), 60: (1,), 61: (5, 2, 1), 62: (28, 3, 1), 63: (1,),
    64: (11, 2, 1), 65: (18,), 66: (17, 2, 1), 67: (5, 2, 1), 68: (9,),
    69: (34, 2, 1), 70: (5, 3, 1), 71: (6,), 72: (71, 4, 1), 73: (25,),
    74: (22, 2, 1), 75: (6, 3, 1), 76: (20, 2, 1), 77: (10, 2, 1),
    78: (7, 2, 1), 79: (9,), 80: (54, 2, 1),
    # production degrees for the nonlinear-map companion matrix
    258: (83,),
    1496: (13, 11, 4),
}


def _taps(deg: int):
    """(deg as a Python int, its taps), or InvalidParams for an unshipped degree."""
    deg = integer(deg, "polynomial degree")
    if deg not in _TAPS:
        raise InvalidParams(f"no shipped primitive polynomial of degree {deg}")
    return deg, _TAPS[deg]


def poly(deg: int) -> int:
    """The shipped x^deg + sum(x^t for t in its taps) + 1, as an integer."""
    deg, taps = _taps(deg)
    v = (1 << deg) | 1
    for t in taps:
        v |= 1 << t
    return v


def poly_id(deg: int) -> str:
    """Key-file id 'deg:tap,tap,...' of the shipped polynomial of degree deg.

    Taps are listed highest first, as the table stores them.  A key's
    poly_* fields must be exactly these ids: the polynomials are public
    constants of the scheme, not part of the secret.
    """
    deg, taps = _taps(deg)
    return f"{deg}:{','.join(map(str, taps))}"


def supported_degrees():
    return sorted(_TAPS)


def reciprocal(deg: int) -> int:
    """Reciprocal of the shipped polynomial; primitive whenever it is.

    For degrees >= 3 the reciprocal is a distinct polynomial, giving a
    second primitive feedback polynomial of the same length for the
    reseeding pair.  Degree 2 has a single primitive polynomial.
    """
    p = poly(deg)
    return gf2poly.reverse(p, gf2poly.degree(p))
