"""Construction-A QC-LDPC lattice: encoding, hypercube shaping, recovery.

The lattice generator is

    G = [[I_k, A], [0, 2*I_{n-k}]]

with [I_k | A] the systematic generator of the underlying code, and the
transmit alphabet is the translate {2*u*G - 1}, whose points all have odd
coordinates and lift (mod 2) to codewords.  Shaping replaces x by
x' = x - z*diag(n*L_i - 1) so that x'G lands in a hypercube; recovery undoes
the shift with a per-coordinate signed modulo.  Everything here is exact
integer arithmetic; floats appear only in the VNR conversion and the
noise sigma check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotLatticePoint, ShapingOverflow
from .rdfcode import QcCode, SystematicGen, systematic_generator


@dataclass(frozen=True)
class ShapedPoint:
    x_prime: np.ndarray
    lambda_prime: np.ndarray
    z: np.ndarray


class LatticeCtx:
    """Immutable lattice context: code, systematic generator, shaping limits."""

    def __init__(self, gen: SystematicGen, shaping_limits):
        self.gen = gen
        self.code = gen.code
        self.n = gen.n
        self.k = gen.k
        limits = np.asarray(shaping_limits, dtype=np.int64)
        if limits.shape == ():
            limits = np.full(self.n, int(limits), dtype=np.int64)
        if limits.shape != (self.n,):
            raise InvalidParams("need one shaping limit per coordinate")
        if (limits <= 0).any():
            raise InvalidParams("shaping limits must be positive")
        self.L = limits
        self.a = gen.a_dense().astype(np.int64)  # k x (n-k)
        # per-coordinate modulus n*L_i - 1 on the parity part, and the
        # signed-window thresholds (n/2)*L_i (n is even in production; the
        # half-window is kept exact as a rational 2*threshold = n*L_i)
        self.mod_full = self.n * self.L - 1  # n*L_i - 1, length n
        self._h_dense = None

    @classmethod
    def from_code(cls, code: QcCode, shaping_limit) -> "LatticeCtx":
        return cls(systematic_generator(code), shaping_limit)

    # --- plain encoding -------------------------------------------------

    def g_apply(self, x: np.ndarray) -> np.ndarray:
        """x @ G over the integers."""
        x = np.asarray(x, dtype=np.int64)
        sys, par = x[: self.k], x[self.k :]
        return np.concatenate([sys, sys @ self.a + 2 * par])

    def g_inverse_apply(self, u: np.ndarray) -> np.ndarray:
        """u @ G^-1 with G^-1 = [[I, -A/2], [0, I/2]]; exact, checks parity."""
        u = np.asarray(u, dtype=np.int64)
        sys, par = u[: self.k], u[self.k :]
        t = par - sys @ self.a
        if (t & 1).any():
            raise NotLatticePoint("vector is not in the integer row-span of G")
        return np.concatenate([sys, t >> 1])

    def encode(self, xi: np.ndarray) -> np.ndarray:
        """Translate encoding 2*xi*G - 1; all components odd."""
        return 2 * self.g_apply(xi) - 1

    # --- syndrome -------------------------------------------------------

    def _h(self) -> np.ndarray:
        if self._h_dense is None:
            self._h_dense = self.code.h_matrix().astype(np.int64)
        return self._h_dense

    def syndrome_ok(self, lam: np.ndarray) -> bool:
        """Check H * lifted(lam)^T = 0 mod 2 for an all-odd integer vector."""
        lam = np.asarray(lam, dtype=np.int64)
        if ((lam & 1) == 0).any():
            return False
        word = ((lam + 1) >> 1) & 1
        return not ((self._h() @ word) & 1).any()

    # --- hypercube shaping ----------------------------------------------

    def shape(self, x: np.ndarray) -> ShapedPoint:
        """Shift x by multiples of (n*L_i - 1) so x'G fits the hypercube.

        The systematic coordinates keep z_i = 0, so they must already sit
        strictly inside the signed window 2*|x_i| < n*L_i that the modular
        recovery can invert; violations raise ShapingOverflow instead of
        silently corrupting.  (Round-trip recovery of the parity part needs
        the same window, but those coordinates are shifted into the box
        regardless, which keeps re-shaping a shaped vector the identity.)
        """
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.n,):
            raise InvalidParams("vector length mismatch")
        if (2 * np.abs(x[: self.k]) >= self.n * self.L[: self.k]).any():
            raise ShapingOverflow("coordinate outside the recoverable window")
        sys = x[: self.k]
        par = x[self.k :]
        s = sys @ self.a  # column sums of A weighted by x, length n-k
        mod_par = self.mod_full[self.k :]
        # z_i = round((x_i + s_i/2) / (n*L_i - 1)); ties round to even so that
        # re-shaping an already-shaped vector is the identity even when a
        # coordinate sits exactly on the box wall
        num = 2 * par + s
        den = 2 * mod_par
        q, r = np.divmod(num, den)
        z_par = q + ((2 * r > den) | ((2 * r == den) & (q & 1 == 1)))
        x_prime = np.concatenate([sys, par - z_par * mod_par])
        lam = self.g_apply(x_prime)
        z = np.concatenate([np.zeros(self.k, dtype=np.int64), z_par])
        return ShapedPoint(x_prime, lam, z)

    @staticmethod
    def _round_half_div2(a: np.ndarray) -> np.ndarray:
        """round(a / 2) for integer a, halves away from zero."""
        return np.sign(a) * ((np.abs(a) + 1) >> 1)

    def mod_recover(self, lam_tilde_prime: np.ndarray) -> np.ndarray:
        """Invert shaping: lattice translate point -> original vector x.

        Computes x' = round(((lam + 1)/2) G^-1), then maps each coordinate
        back through the signed window of width n*L_i - 1.  Rounding (half
        away from zero) only absorbs representation noise; a vector that is
        not integer-valued raises NotLatticePoint, while an integer vector
        off the lattice recovers to some different x (perturbation
        sensitivity, not an error).
        """
        lam = np.asarray(lam_tilde_prime)
        if lam.shape != (self.n,):
            raise InvalidParams("vector length mismatch")
        if not np.issubdtype(lam.dtype, np.integer):
            rounded = np.rint(lam)
            if (np.abs(lam - rounded) > 1e-6).any():
                raise NotLatticePoint("vector is not integer-valued")
            lam = rounded
        lam = lam.astype(np.int64)
        u = self._round_half_div2(lam + 1)
        sys, par = u[: self.k], u[self.k :]
        x_prime = np.concatenate(
            [sys, self._round_half_div2(par - sys @ self.a)]
        )
        r = np.mod(x_prime, self.mod_full)
        high = 2 * r >= self.n * self.L
        r[high] -= self.mod_full[high]
        return r

    # --- channel scaling --------------------------------------------------

    def vnr_sigma(self, vnr_db: float) -> float:
        """Noise standard deviation at a given volume-to-noise ratio (dB).

        Raises InvalidParams when the VNR overflows or sigma is not usable
        (see check_sigma).
        """
        volume = 4.0 ** ((2 * self.n - self.k) / self.n)
        try:
            vnr = 10.0 ** (vnr_db / 10.0)
            sigma = math.sqrt(volume / (2 * math.pi * math.e * vnr))
        except (OverflowError, ZeroDivisionError):
            raise InvalidParams(f"VNR {vnr_db} dB is out of range") from None
        return check_sigma(sigma)


def check_sigma(sigma: float) -> float:
    """Return sigma if the Gaussian density exp(-d^2 / (2 sigma^2)) is usable.

    That needs sigma finite and positive, and 1/(2 sigma^2) finite: sigma^2
    must not underflow to zero, nor to a subnormal whose reciprocal
    overflows.  Raises InvalidParams otherwise.
    """
    sq = sigma * sigma
    if not (math.isfinite(sigma) and sigma > 0 and sq > 0 and math.isfinite(0.5 / sq)):
        raise InvalidParams(f"sigma {sigma} must be finite and positive, with 1/(2 sigma^2) finite")
    return sigma
