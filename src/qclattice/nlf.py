"""Multiplexed companion-power map F(a, h) = a * U^alpha and its inverse.

U is the companion matrix of a primitive g of degree n, alpha is selected
by the d control bits h (alpha = sum h_i 2^i), and a is an integer vector
(of a dtype int64 holds: ``errors.int_vector``).  Both maps also take a
(B, n) block of vectors with a (B, d) block of control lines, row by row:
the x-powers and correlates run once per row, the rest once per block.
Each map views its input as rows and picks the product form once, by row
count: a lone row, a vector or a one-row block, multiplies and peels as
a plain vector through its own products; several rows map row i by row
i's products.
U generates GF(2)[x]/(g), so the mod-2 power U^alpha is the multiplication
matrix of x^alpha mod g, held in generator form
(:class:`~qclattice.bitmat.PolyMulMatrix`: one bit sequence per tap block
of g, so an integer vector times U^alpha is one ``np.correlate`` per
block and no n x n array is built).

x^alpha mod g comes from gf2poly.xpowmod (8-bit windows of alpha, with
table-driven r^256 mod g), and x^-alpha, needed only to invert, from
gf2poly.xinvpowmod over the same windows and tables (g(0) = 1, so x is a
unit).  Each frame's control line is parsed once per map.

F acts on integer vectors using the 0/1 matrix U^alpha (the encryption
pipeline runs over the reals); its mod-2 view F' is apply_f(a, h) & 1, on
which the tests check the paper's algebraic-degree claims.  The integer
inverse solves v M = x by 2-adic digit peeling (Dixon, Numer. Math. 40,
1982): M has odd determinant, and M^-1 mod 2 is the multiplication matrix
of x^-alpha (built once per call in generator form), so digit t of v is
b_t = (r_t mod 2) M^-1 mod 2, and r_(t+1) = (r_t - b_t M) / 2 from r_0 = x.
The invariant x = V_t M + 2^(t+1) r_(t+1), V_t = sum_(s<=t) 2^s b_s, makes
the exit the proof: a fixed point r_(t+1) = r_t = -b_t M gives v = V_t -
2^(t+1) b_t (r = 0, with b = 0, among them), and 54 digits without one
leave no preimage with |v| <= 2^52.  A row that reaches its fixed point
repeats b_t from then on, so a block peels until every row has, and the
same correction gives each row's v.  No such preimage maps beyond n 2^52, so refusing those x
keeps every residual within n 2^52 + n < 2^63 (n < 2^11, every shipped
degree).  Both products take 0/1 vectors, so they run as float32
correlates, exact by bitmat's rule for exact products since n < 2^24;
apply_f's general vectors pass that rule's test (``PolyMulMatrix.vecmul``).
The cipher path stays exact; no rounded float reaches it.
"""

from __future__ import annotations

import numpy as np

from . import gf2poly
from .bitmat import PolyMulMatrix, bits_to_poly, power_poly_matrix
from .errors import InvalidParams, NotInLattice, as_array, int_vector, integer

_PREIMAGE_BOUND = 1 << 52  # largest |v_i| invert_f returns


class NlfContext:
    """Immutable context for one (g, d) pair."""

    def __init__(self, g: int, d: int):
        self.g = integer(g, "polynomial g", 2)  # degree >= 1
        self.n = gf2poly.degree(self.g)
        self.d = integer(d, "control width d", 0)
        if not (self.g & 1):
            raise InvalidParams("g(0) must be 1")

    # --- control line ----------------------------------------------------

    def _alpha(self, h) -> int:
        """alpha = sum h_i 2^i of the control vector h, d bits of 0 or 1."""
        h = as_array(h, "control vector")
        if h.shape != (self.d,):
            raise InvalidParams(f"control vector must have length {self.d}")
        if not set(h.tolist()) <= {0, 1}:
            raise InvalidParams("control bits must each be 0 or 1")
        return bits_to_poly(h.astype(np.uint8, copy=False))

    def _entry(self, h) -> PolyMulMatrix:
        """The 0/1 matrix U^alpha selected by h, in generator form."""
        return power_poly_matrix(self.g, gf2poly.xpowmod(self._alpha(h), self.g))

    def _controls(self, h, x: np.ndarray):
        """h as one control vector per row of x: [h] for a vector, h, row by row, for a block."""
        if x.ndim == 1:
            return [h]
        h = as_array(h, "control vector")
        if h.shape[:1] != x.shape[:1]:
            raise InvalidParams(f"control block must have {len(x)} rows")
        return h

    # --- the map and its inverse ------------------------------------------

    def apply_f(self, a, h) -> np.ndarray:
        """a * U^alpha over the integers; each row of a block a by its row of h."""
        a = int_vector(a, self.n, "input vector", rows=True)
        mul, rows = _by_row([self._entry(c).vecmul for c in self._controls(h, a)], a)
        return mul(rows).reshape(a.shape)

    def invert_f(self, x, h) -> np.ndarray:
        """The unique integer preimage of x under apply_f(., h); of every row of a block.

        Raises NotInLattice unless x = v U^alpha for an integer v with
        |v_i| <= 2^52 (odd determinant may exceed 1, so not every integer
        vector has one), for every row of a block: at once if some |x_i| >
        n 2^52, else when the peel meets no fixed point in 54 digits.
        """
        x = int_vector(x, self.n, "input vector", rows=True)
        if x.size and max(int(x.max()), -int(x.min())) > self.n * _PREIMAGE_BOUND:
            raise NotInLattice("no integer preimage exists")
        mats, invs = [], []  # products with M and M^-1 mod 2, per row
        for c in self._controls(h, x):
            alpha = self._alpha(c)
            mats.append(power_poly_matrix(self.g, gf2poly.xpowmod(alpha, self.g)).float_mul)
            invs.append(power_poly_matrix(self.g, gf2poly.xinvpowmod(alpha, self.g)).float_mul)
        (mul, residual), (mul_inv, _) = _by_row(mats, x), _by_row(invs, x)
        v = np.zeros(residual.shape, dtype=np.int64)
        for t in range(54):  # 53 value digits of |v| <= 2^52, then the sign digit
            # 0/1 vectors in both products: exact in float32 by bitmat's rule
            bits = mul_inv((residual & 1).astype(np.float32)).astype(np.int64) & 1
            v += bits << t
            product = mul(bits.astype(np.float32)).astype(np.int64)
            start, residual = residual, (residual - product) >> 1
            if (residual == start).all():
                # later digits repeat bits: their 2-adic tail is -2^(t+1) bits
                v -= bits << (t + 1)
                break
        else:
            raise NotInLattice("no integer preimage exists")
        if (np.abs(v) > _PREIMAGE_BOUND).any():  # |v| < 2^55 here
            raise NotInLattice("no integer preimage exists")
        return v.reshape(x.shape)


def _by_row(products, a):
    """(map, rows) of a: a lone row as a vector that products[0] maps, or row i by products[i]."""
    if len(products) == 1:
        return products[0], a.reshape(-1)
    return (lambda b: np.array([f(r) for f, r in zip(products, b)], b.dtype).reshape(b.shape)), a
