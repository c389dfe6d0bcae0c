"""Multiplexed companion-power map F(a, h) = a * U^alpha and its inverse.

U is the companion matrix of a primitive g of degree n, alpha is selected
by the d control bits h (alpha = sum h_i 2^i), and a is an integer vector
(of a dtype int64 holds: ``errors.int_vector``).
U generates GF(2)[x]/(g), so the mod-2 power U^alpha is the multiplication
matrix of x^alpha mod g, held in generator form
(:class:`~qclattice.bitmat.PolyMulMatrix`: one bit sequence per tap block
of g, so an integer vector times U^alpha is one ``np.correlate`` per
block and no n x n array is built).

x^alpha mod g comes from gf2poly.xpowmod (8-bit windows of alpha, with
table-driven r^256 mod g).  x^-alpha, needed only to invert, is
x^-(2^d) x^(2^d - alpha): one more xpowmod and one product with
x^-(2^d), cached per (g, d).  Since g(0) = 1, x (g >> 1) = g + 1 = 1 mod
g, so x^-1 = g >> 1 and x^-(2^d) is d squarings of it, with no inversion.

F acts on integer vectors using the 0/1 matrix U^alpha (the encryption
pipeline runs over the reals); its mod-2 view F' is apply_f(a, h) & 1, on
which the tests check the paper's algebraic-degree claims.  The integer
inverse solves v M = x by 2-adic digit peeling (Dixon, Numer. Math. 40,
1982): M has odd determinant, and M^-1 mod 2 is the multiplication matrix
of x^-alpha (built once per call in generator form), so digit t of v is
b_t = (r_t mod 2) M^-1 mod 2, and r_(t+1) = (r_t - b_t M) / 2 from r_0 = x.
The invariant x = V_t M + 2^(t+1) r_(t+1), V_t = sum_(s<=t) 2^s b_s, makes
the exit the proof: r = 0 gives v = V_t, a fixed point r = -b_t M gives
v = V_t - 2^(t+1) b_t, and 54 digits without either leave no preimage with
|v| <= 2^52.  No such preimage maps beyond n 2^52, so refusing those x
keeps every residual within n 2^52 + n < 2^63 (n < 2^11, every shipped
degree).  Both products take 0/1 vectors, so every sum is at most n < 2^24:
they run as float32 correlates, which carry these integers exactly (bitmat
holds the 2^24 guard for general vectors, such as apply_f's input).  The
cipher path stays exact; no rounded float reaches it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly
from .bitmat import PolyMulMatrix, bits_to_poly, power_poly_matrix
from .errors import InvalidParams, NotInLattice, as_array, int_vector, integer

_PREIMAGE_BOUND = 1 << 52  # largest |v_i| invert_f returns


@functools.lru_cache(maxsize=16)
def _x_neg_pow2(g: int, d: int) -> int:
    """x^-(2^d) mod g: d squarings of x^-1 = g >> 1 (g(0) = 1)."""
    r = g >> 1
    for _ in range(d):
        r = gf2poly.sqmod(r, g)
    return r


class NlfContext:
    """Immutable context for one (g, d) pair."""

    def __init__(self, g: int, d: int):
        self.g = integer(g, "polynomial g", 2)  # degree >= 1
        self.n = gf2poly.degree(self.g)
        self.d = integer(d, "control width d", 0)
        if not (self.g & 1):
            raise InvalidParams("g(0) must be 1")

    # --- control line ----------------------------------------------------

    def _check_control(self, h) -> np.ndarray:
        h = as_array(h, "control vector")
        if h.shape != (self.d,):
            raise InvalidParams(f"control vector must have length {self.d}")
        if not ((h == 0) | (h == 1)).all():
            raise InvalidParams("control bits must each be 0 or 1")
        return h.astype(np.uint8, copy=False)

    def _x_power(self, h, inverse: bool = False) -> int:
        """x^alpha mod g, or x^-alpha = x^-(2^d) x^(2^d - alpha) mod g."""
        alpha = bits_to_poly(self._check_control(h))
        if not inverse:
            return gf2poly.xpowmod(alpha, self.g)
        return gf2poly.mulmod(
            _x_neg_pow2(self.g, self.d), gf2poly.xpowmod((1 << self.d) - alpha, self.g), self.g
        )

    def _entry(self, h) -> PolyMulMatrix:
        """The 0/1 matrix U^alpha selected by h, in generator form."""
        return power_poly_matrix(self.g, self._x_power(h))

    # --- the map and its inverse ------------------------------------------

    def apply_f(self, a, h) -> np.ndarray:
        """a * U^alpha over the integers."""
        a = int_vector(a, self.n, "input vector")
        return self._entry(h).vecmul(a)

    def invert_f(self, x, h) -> np.ndarray:
        """The unique integer preimage of x under apply_f(., h).

        Raises NotInLattice unless x = v U^alpha for an integer v with
        |v_i| <= 2^52 (odd determinant may exceed 1, so not every integer
        vector has one): at once if some |x_i| > n 2^52, else when the peel
        meets neither r = 0 nor a fixed point in 54 digits.
        """
        x = int_vector(x, self.n, "input vector")
        if max(int(x.max()), -int(x.min())) > self.n * _PREIMAGE_BOUND:
            raise NotInLattice("no integer preimage exists")
        m = self._entry(h)
        m_inv = power_poly_matrix(self.g, self._x_power(h, inverse=True))  # M^-1 mod 2
        residual = x
        v = np.zeros(self.n, dtype=np.int64)
        for t in range(54):  # 53 value digits of |v| <= 2^52, then the sign digit
            if not residual.any():
                break
            # 0/1 vectors in both products: every sum is at most n, exact in float32
            bits = m_inv.float_mul((residual & 1).astype(np.float32)).astype(np.int64) & 1
            v += bits << t
            product = m.float_mul(bits.astype(np.float32)).astype(np.int64)
            start, residual = residual, (residual - product) >> 1
            if (residual == start).all():
                # later digits repeat bits: their 2-adic tail is -2^(t+1) bits
                v -= bits << (t + 1)
                break
        else:
            raise NotInLattice("no integer preimage exists")
        if (np.abs(v) > _PREIMAGE_BOUND).any():  # |v| < 2^55 here
            raise NotInLattice("no integer preimage exists")
        return v
