"""Construction-A QC-LDPC lattice: encoding, hypercube shaping, recovery.

The lattice generator is

    G = [[I_k, A], [0, 2*I_{n-k}]]

with [I_k | A] the systematic generator of the underlying code, so A alone
describes the lattice: G^-1 = [[I_k, -A/2], [0, I/2]], and an integer
vector u is a lattice point exactly when u_par - u_sys*A is even, which is
the parity check H*u = 0 (mod 2) because [I_k | A] spans the null space of
H.  The transmit alphabet is the translate {2*x*G - 1}, whose points all
have odd coordinates.  Shaping replaces x by x' = x - z*diag(n*L_i - 1) so
that x'G lands in a hypercube; recovery undoes the shift with a
per-coordinate signed modulo.  Everything here is exact integer
arithmetic; floats appear only in the VNR conversion and the noise sigma
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotLatticePoint, ShapingOverflow
from .rdfcode import QcCode, systematic_generator


@dataclass(frozen=True)
class ShapedPoint:
    x_prime: np.ndarray
    lambda_prime: np.ndarray
    z: np.ndarray


class LatticeCtx:
    """Immutable lattice context: code, the parity part A of G, shaping limits."""

    def __init__(self, code: QcCode, a, shaping_limits):
        self.code = code
        self.n = code.n
        self.k = code.k
        limits = np.asarray(shaping_limits, dtype=np.int64)
        if limits.shape == ():
            limits = np.full(self.n, int(limits), dtype=np.int64)
        if limits.shape != (self.n,):
            raise InvalidParams("need one shaping limit per coordinate")
        if (limits <= 0).any():
            raise InvalidParams("shaping limits must be positive")
        self.L = limits
        self.a = np.asarray(a, dtype=np.int64)  # k x (n-k)
        # modulus n*L_i - 1 per coordinate; recovery's window is 2|x_i| < n*L_i
        self.mod_full = self.n * self.L - 1

    @classmethod
    def from_code(cls, code: QcCode, shaping_limit) -> "LatticeCtx":
        return cls(code, systematic_generator(code), shaping_limit)

    # --- the translate map x -> 2*x*G - 1 and its inverse ------------------

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Translate encoding 2*x*G - 1; all components odd."""
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.n,):
            raise InvalidParams("vector length mismatch")
        sys = x[: self.k]
        return 2 * np.concatenate([sys, sys @ self.a + 2 * x[self.k :]]) - 1

    def _residue(self, lam):
        """(u_sys, u_par - u_sys*A) for u = (lam + 1)/2 of an all-odd integer lam."""
        lam = np.asarray(lam)
        if lam.shape != (self.n,):
            raise InvalidParams("vector length mismatch")
        if not np.issubdtype(lam.dtype, np.integer) or not (lam & 1).all():
            raise NotLatticePoint("vector is not an all-odd integer vector")
        u = (lam.astype(np.int64) + 1) >> 1
        sys = u[: self.k]
        return sys, u[self.k :] - sys @ self.a

    def encode_inverse(self, lam: np.ndarray) -> np.ndarray:
        """The x with encode(x) = lam: [u_sys, (u_par - u_sys*A)/2].

        Raises NotLatticePoint unless lam is an integer vector with all
        coordinates odd whose u_par - u_sys*A is even, that is, a point of
        the translate; InvalidParams for a length mismatch.
        """
        sys, t = self._residue(lam)
        if (t & 1).any():
            raise NotLatticePoint("vector is not a lattice translate point")
        return np.concatenate([sys, t >> 1])

    def syndrome_ok(self, lam: np.ndarray) -> bool:
        """Whether lam is an all-odd integer vector whose lift has zero syndrome."""
        try:
            _, t = self._residue(lam)
        except NotLatticePoint:
            return False
        return not (t & 1).any()

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
        par_prime = par - z_par * mod_par
        x_prime = np.concatenate([sys, par_prime])
        lam = np.concatenate([sys, s + 2 * par_prime])  # x'G, reusing s
        z = np.concatenate([np.zeros(self.k, dtype=np.int64), z_par])
        return ShapedPoint(x_prime, lam, z)

    def mod_recover(self, lam_tilde_prime: np.ndarray) -> np.ndarray:
        """Invert shaping: lattice translate point -> original vector x.

        Solves x' = encode_inverse(lam) exactly, then maps each coordinate
        back through the signed window of width n*L_i - 1.  Raises
        NotLatticePoint for anything but a translate point: a non-integer
        dtype, an even coordinate, or an odd vector off the lattice.
        """
        r = np.mod(self.encode_inverse(lam_tilde_prime), self.mod_full)
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
