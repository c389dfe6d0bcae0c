"""Construction-A QC-LDPC lattice: encoding, hypercube shaping, recovery.

The lattice generator is

    G = [[I_k, A], [0, 2*I_{n-k}]]

with [I_k | A] the systematic generator of the underlying code, so A alone
describes the lattice: G^-1 = [[I_k, -A/2], [0, I/2]], and an integer
vector u is a lattice point exactly when u_par - u_sys*A is even, which is
the parity check H*u = 0 (mod 2) because [I_k | A] spans the null space of
H.  The transmit alphabet is the translate {2*x*G - 1}, whose points all
have odd coordinates.  Shaping replaces x by x' = x - z*(n*L - 1) so that
x'G lands in a hypercube and returns the translate point encode(x');
recovery undoes the shift with a signed modulo, so shape/mod_recover pair
up like encode/encode_inverse.  Every map takes one length-n vector or a
(B, n) block of them, row by row.  All of it is exact integer arithmetic:
sys*A runs in float64 where bitmat's rule for exact products allows it
(numpy runs int64 products without BLAS: 8 against 1.5 us a row at n = 258,
240 against 36 us at n = 1496, in blocks of 64 on a 2-vCPU VM), else in
int64.  Other floats appear only in the VNR conversion and the sigma check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bitmat import float_exact
from .errors import InvalidParams, NotLatticePoint, ShapingOverflow, int_vector, integer, real
from .rdfcode import QcCode, systematic_generator


class LatticeCtx:
    """Immutable lattice context: code, the parity part A of G, shaping limit L."""

    def __init__(self, code: QcCode, a, shaping_limit: int):
        self.code = code
        self.n = code.n
        self.k = code.k
        self.L = integer(shaping_limit, "shaping limit", 1)
        self.a = np.asarray(a, dtype=np.int64)  # k x (n-k)
        # shaping modulus n*L - 1; recovery's window is 2|x_i| < n*L, |x_i| <= half
        self.mod_full = self.n * self.L - 1
        self.half = self.mod_full // 2

    @functools.cached_property
    def _a_float(self) -> np.ndarray:
        """A transposed, as float64, for _times_a; built on the first call, not in setup."""
        return np.ascontiguousarray(self.a.T, dtype=np.float64)

    @functools.cached_property
    def _window_exact(self) -> bool:
        """Whether every systematic part inside shape's window passes _times_a's guard."""
        return float_exact(np.array(self.half), self.k, np.float64)

    def _times_a(self, sys: np.ndarray, exact=None) -> np.ndarray:
        """sys*A (int64) of a vector or of each row of a block; int64 wraps mod 2^64.
        exact, if given, is float_exact(sys, k, float64), which the caller has proved."""
        if not (float_exact(sys, self.k, np.float64) if exact is None else exact):
            return sys @ self.a
        # row by row: one (B, k) product went to a threaded BLAS, 50x slower at n = 1496
        f, at = sys.astype(np.float64), self._a_float
        return (np.dot(at, f) if f.ndim == 1 else (at @ f[..., None])[..., 0]).astype(np.int64)

    @classmethod
    def from_code(cls, code: QcCode, shaping_limit: int) -> "LatticeCtx":
        return cls(code, systematic_generator(code), shaping_limit)

    # --- the translate map x -> 2*x*G - 1 and its inverse ------------------

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Translate encoding 2*x*G - 1; all components odd."""
        x = int_vector(x, self.n, "vector", rows=True)
        sys = x[..., : self.k]
        return 2 * np.concatenate([sys, self._times_a(sys) + 2 * x[..., self.k :]], axis=-1) - 1

    def _residue(self, lam):
        """(u_sys, u_par - u_sys*A, odd) for u = (lam + 1)/2 of an integer lam;
        odd says whether all of a row's coordinates are odd."""
        lam = int_vector(lam, self.n, "lattice point", NotLatticePoint, rows=True)
        u = (lam + 1) >> 1
        sys = u[..., : self.k]
        return sys, u[..., self.k :] - self._times_a(sys), (lam & 1).all(axis=-1)

    def encode_inverse(self, lam: np.ndarray) -> np.ndarray:
        """The x with encode(x) = lam: [u_sys, (u_par - u_sys*A)/2].

        Raises NotLatticePoint unless every row of lam is a length-n vector
        of an integer dtype int64 holds, with all coordinates odd, whose
        u_par - u_sys*A is even: a point of the translate.
        """
        sys, t, odd = self._residue(lam)
        if not odd.all():
            raise NotLatticePoint("vector has an even coordinate")
        if (t & 1).any():
            raise NotLatticePoint("vector is not a lattice translate point")
        return np.concatenate([sys, t >> 1], axis=-1)

    def syndrome_ok(self, lam: np.ndarray):
        """Whether lam is a translate point: encode_inverse(lam) would not raise.

        A numpy bool for a vector, and one per row for a block.
        """
        try:
            _, t, odd = self._residue(lam)
        except NotLatticePoint:
            return np.False_
        return odd & ~(t & 1).any(axis=-1)

    # --- hypercube shaping ----------------------------------------------

    def shape(self, x: np.ndarray) -> np.ndarray:
        """The translate point encode(x') = 2*x'G - 1 of the shaped vector x'.

        x' shifts x by multiples of (n*L - 1) so x'G fits the hypercube
        |x'G| <= n*L - 1.  The systematic coordinates keep z_i = 0, so they
        must already sit strictly inside the signed window 2*|x_i| < n*L
        that the modular recovery can invert; violations raise
        ShapingOverflow instead of silently corrupting.  (Round-trip
        recovery of the parity part needs the same window, but those
        coordinates are shifted into the box regardless, which keeps
        re-shaping a shaped vector the identity.)
        """
        x = int_vector(x, self.n, "vector", rows=True)
        sys = x[..., : self.k]
        # signed bounds: 2 * np.abs(x) wraps in int64 once |x| >= 2^62
        if sys.size and (sys.max() > self.half or sys.min() < -self.half):
            raise ShapingOverflow("coordinate outside the recoverable window")
        par = x[..., self.k :]
        # z_i = round((x_i + (sys A)_i / 2) / M) for M = n*L - 1; ties round to even so
        # that re-shaping an already-shaped vector is the identity even when a
        # coordinate sits exactly on the box wall.  Rounding num / 2M half up
        # is floor((num + M) / 2M); a tie leaves remainder 0, where an odd
        # quotient steps back to the even one below.
        num = 2 * par + self._times_a(sys, self._window_exact)
        q, r = np.divmod(num + self.mod_full, 2 * self.mod_full)
        z_par = q - (q & (r == 0))
        # 2*x'G - 1 with x'_par = x_par - z M, whose parity part sys A + 2 x'_par is num - 2 M z
        return 2 * np.concatenate([sys, num - z_par * (2 * self.mod_full)], axis=-1) - 1

    def mod_recover(self, lam_tilde_prime: np.ndarray) -> np.ndarray:
        """Invert shaping: lattice translate point -> original vector x.

        Solves x' = encode_inverse(lam) exactly, then maps each coordinate
        back through the signed window of width n*L - 1.  Raises
        NotLatticePoint for anything but a translate point: a wrong length,
        a dtype that is not an integer type int64 holds, an even
        coordinate, or an odd vector off the lattice.
        """
        r = np.mod(self.encode_inverse(lam_tilde_prime), self.mod_full)
        r[2 * r >= self.n * self.L] -= self.mod_full
        return r

    # --- channel scaling --------------------------------------------------

    def vnr_sigma(self, vnr_db: float) -> float:
        """Noise standard deviation at a given volume-to-noise ratio (dB).

        Raises InvalidParams when vnr_db is not a finite real (``errors.real``),
        the VNR overflows or sigma is not usable (see check_sigma).
        """
        vnr_db = real(vnr_db, "VNR")
        volume = 4.0 ** ((2 * self.n - self.k) / self.n)
        try:
            vnr = 10.0 ** (vnr_db / 10.0)
            sigma = math.sqrt(volume / (2 * math.pi * math.e * vnr))
        except (OverflowError, ZeroDivisionError):
            raise InvalidParams(f"VNR {vnr_db} dB is out of range") from None
        return check_sigma(sigma)


def check_sigma(sigma: float) -> float:
    """sigma as a Python float if the Gaussian density exp(-d^2 / (2 sigma^2)) is usable.

    That needs sigma a finite positive real (``errors.real``), and
    1/(2 sigma^2) finite: sigma^2 must not underflow to zero, nor to a
    subnormal whose reciprocal overflows.  Raises InvalidParams otherwise.
    """
    sigma = real(sigma, "sigma", math.ulp(0.0))
    sq = sigma * sigma
    if not (sq > 0 and math.isfinite(0.5 / sq)):
        raise InvalidParams(f"sigma {sigma} must be finite and positive, with 1/(2 sigma^2) finite")
    return sigma


def noise_sigma(sigma) -> float:
    """A decoder's sigma: 0.0 (noiseless) for a finite real sigma <= 0, else check_sigma(sigma)."""
    return check_sigma(sigma) if real(sigma, "sigma") > 0 else 0.0
