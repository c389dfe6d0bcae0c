"""Multiplexed companion-power map F(a, h) = a * U^alpha and its inverse.

U is the companion matrix of a primitive g of degree n, alpha is selected
by the d control bits h (alpha = sum h_i 2^i), and a is an integer vector.
U generates GF(2)[x]/(g), so the mod-2 power U^alpha is the multiplication
matrix of x^alpha mod g.  That polynomial is built left to right by
square-and-shift: for each control bit from the top, square, then multiply
by x (a one-bit left shift and a conditional XOR with g) when the bit is
set.  x^-alpha, needed only to invert, follows the same loop with
multiplication by x^-1 = g >> 1 (clear bit 0 with g, then shift right one
bit).  The d stage polynomials x^(2^i) mod g and their inverses are built
on first access, for inspection only.

F acts on integer vectors using the 0/1 matrix U^alpha (the encryption
pipeline runs over the reals); the mod-2 view F' used by the analysis
tooling is exposed separately as f_mod2.  The integer inverse solves
v * M = x exactly by 2-adic digit peeling: M has odd determinant, so it is
invertible mod 2^k for every k, and each binary digit of v costs one
carry-less multiplication by x^-alpha plus one integer row combination.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly
from .bitmat import BinMatrix, power_poly_matrix
from .errors import InvalidParams, NotInLattice, TooLarge

_ANF_CAP = 24  # max n + d for exhaustive truth tables
_VERIFY_BOUND = 1 << 52  # |v| above this cannot be verified in int64 safely


def _bits_to_poly(bits) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _poly_to_bits(p: int, n: int) -> np.ndarray:
    raw = np.frombuffer(p.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


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

    @functools.cached_property
    def stages(self) -> list[int]:
        """Stage polynomials x^(2^i) mod g for i < d."""
        return self._squares(gf2poly.mod(2, self.g))

    @functools.cached_property
    def stages_inv(self) -> list[int]:
        """Inverse stage polynomials x^-(2^i) mod g; x^-1 = g >> 1."""
        return self._squares(self.g >> 1)

    def _squares(self, s: int) -> list[int]:
        out = []
        for _ in range(self.d):
            out.append(s)
            s = gf2poly.sqmod(s, self.g)
        return out

    # --- control line ----------------------------------------------------

    def _check_control(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=np.uint8)
        if h.shape != (self.d,):
            raise InvalidParams(f"control vector must have length {self.d}")
        return h % 2

    def _x_power(self, h, inverse: bool = False) -> int:
        """x^alpha mod g, or x^-alpha mod g, by square-and-shift."""
        alpha = _bits_to_poly(self._check_control(h))
        g, n = self.g, self.n
        r = 1
        for i in range(alpha.bit_length() - 1, -1, -1):
            r = gf2poly.sqmod(r, g)
            if (alpha >> i) & 1:
                if inverse:
                    r = (r ^ g if r & 1 else r) >> 1
                else:
                    r <<= 1
                    if r >> n:
                        r ^= g
        return r

    def matrix_for(self, h) -> BinMatrix:
        """The 0/1 matrix U^alpha selected by h."""
        return power_poly_matrix(self.g, self._x_power(h))

    def _entry(self, h) -> np.ndarray:
        """U^alpha as a dense int64 matrix."""
        return self.matrix_for(h).to_dense().astype(np.int64)

    # --- the map and its inverse ------------------------------------------

    def apply_f(self, a, h) -> np.ndarray:
        """a * U^alpha over the integers."""
        a = np.asarray(a, dtype=np.int64)
        if a.shape != (self.n,):
            raise InvalidParams("input vector length mismatch")
        dense = self._entry(h)
        return a @ dense

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
        dense = self._entry(h)
        cinv = self._x_power(h, inverse=True)
        residual = x.copy()
        acc = np.zeros(self.n, dtype=np.uint64)
        for t in range(64):
            if not residual.any():
                break
            start = residual
            w = (residual & 1).astype(np.uint8)
            if w.any():
                digit = _poly_to_bits(
                    gf2poly.mulmod(_bits_to_poly(w), cinv, self.g), self.n
                )
            else:
                digit = np.zeros(self.n, dtype=np.uint8)
            acc += digit.astype(np.uint64) << np.uint64(t)
            sel = digit.astype(bool)
            contrib = dense[sel].sum(axis=0) if sel.any() else 0
            residual = (residual - contrib) >> 1
            if t + 1 < 64 and np.array_equal(residual, start):
                # fixed-point residual: every later digit repeats this one,
                # and the 2-adic tail sum_{s>t} 2^s equals -2^(t+1)
                acc -= digit.astype(np.uint64) << np.uint64(t + 1)
                break
        v = acc.view(np.int64)
        # compare signed values: np.abs(-2**63) is still -2**63
        if (v > _VERIFY_BOUND).any() or (v < -_VERIFY_BOUND).any():
            raise NotInLattice("no integer preimage exists")
        if not np.array_equal(v @ dense, x):
            raise NotInLattice("no integer preimage exists")
        return v

    # --- mod-2 view and analysis tooling -----------------------------------

    def f_mod2(self, a, h) -> np.ndarray:
        """F' = F mod 2 on a binary vector, as polynomial multiplication."""
        a = np.asarray(a, dtype=np.int64) & 1
        c = self._x_power(h)
        pa = _bits_to_poly(a.astype(np.uint8))
        return _poly_to_bits(gf2poly.mulmod(pa, c, self.g), self.n)

    def _columns_for_alpha(self, alpha: int):
        """Rows of U^alpha as ints (row j = x^j * x^alpha mod g)."""
        rows = []
        r = gf2poly.powmod(2, alpha, self.g)
        for _ in range(self.n):
            rows.append(r)
            r <<= 1
            if r >> self.n:
                r ^= self.g
        return rows

    def _component_truth_table(self, weights: int) -> np.ndarray:
        """Truth table of sum_i w_i f_i(a, b) over all 2^(n+d) inputs.

        Index layout: low n bits = a, high d bits = b.
        """
        if self.n + self.d > _ANF_CAP:
            raise TooLarge(f"truth table needs n + d <= {_ANF_CAP}")
        n, d = self.n, self.d
        a_vals = np.arange(1 << n, dtype=np.uint64)
        tt = np.empty((1 << d) << n, dtype=np.uint8)
        for alpha in range(1 << d):
            rows = self._columns_for_alpha(alpha)
            col = 0
            for j, rj in enumerate(rows):
                col |= (bin(rj & weights).count("1") & 1) << j
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
        w = _bits_to_poly(np.asarray(weights, dtype=np.uint8) % 2)
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
